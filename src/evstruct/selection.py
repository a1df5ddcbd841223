"""Type-count selection: flat mixture models per classification, dev
evidence, and nonparametric bootstrap intervals over items.

Every restart of every candidate type count is one fit of a stack that a
single EM runs at once: the component axis is padded to the largest
candidate, and padded components carry log pi = -inf, so they take no
responsibility, no expected counts and no gradient."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .corpus import DocumentGraph
from .learning import FitConfig, _MStep
from .likelihoods import logsumexp
from .params import (
    ModelParams, ObsIndex, TypeInventory, _Pack, _padded_packs, build_obs,
    init_params, item_logliks,
)
from .schema import Schema

THETA_FLOOR = 1e-10
MIN_BOOTSTRAP = 1000


@dataclass
class SelectionConfig:
    restarts: int = 5
    em_iters: int = 30
    bootstrap_samples: int = 1000
    level: float = 0.95
    seed: int = 0
    fit: FitConfig = field(default_factory=FitConfig)

    def __post_init__(self):
        if self.restarts < 1 or self.em_iters < 1:
            raise ValueError(f"restarts and em_iters must be positive, got "
                             f"{self.restarts} and {self.em_iters}")
        if self.bootstrap_samples < MIN_BOOTSTRAP:
            raise ValueError(f"bootstrap_samples must be >= {MIN_BOOTSTRAP}, "
                             f"got {self.bootstrap_samples}")
        if not 0.0 < self.level < 1.0:
            raise ValueError(f"level must lie in (0, 1), got {self.level}")


@dataclass
class MixtureFit:
    kind: str
    k: int
    log_pi: np.ndarray
    params: ModelParams          # single-classification parameter set
    train_loglik: float

    def responsibilities(self, obs: ObsIndex, schema: Schema) -> np.ndarray:
        logr = _log_joint(_stacked_packs([self.params], schema, self.kind,
                                         obs.annotators),
                          self.log_pi[None], obs, schema, self.kind)[0]
        return np.exp(logr - logsumexp(logr, axis=1, keepdims=True))


@dataclass
class SelectionReport:
    kind: str
    candidates: list[int]
    dev_evidence: dict[int, float]          # mean per-item log-evidence
    intervals: list[tuple[int, int, float, float]]  # (incumbent, K, lo, hi)
    chosen_k: int

    def to_obj(self) -> dict:
        return {
            "kind": self.kind,
            "candidates": list(self.candidates),
            "dev_evidence": {str(k): v for k, v in self.dev_evidence.items()},
            "intervals": [list(t) for t in self.intervals],
            "chosen_k": self.chosen_k,
        }

    def table(self) -> str:
        lines = [f"{self.kind}: chosen K = {self.chosen_k}",
                 f"{'K':>4} {'mean dev evidence':>20} {'95% diff interval':>24}"]
        ci = {k: (inc, lo, hi) for inc, k, lo, hi in self.intervals}
        for k in self.candidates:
            cell = ""
            if k in ci:
                inc, lo, hi = ci[k]
                cell = f"vs {inc}: [{lo:+.4f}, {hi:+.4f}]"
            lines.append(f"{k:>4} {self.dev_evidence[k]:>20.4f} {cell:>24}")
        return "\n".join(lines)


def _sub_schema(schema: Schema, kind: str) -> Schema:
    return Schema(tuple(schema.group(kind)))


def _stacked_packs(fits: list[ModelParams], schema: Schema, kind: str,
                   annotators: list[str]) -> dict[str, _Pack]:
    """Each property's arrays of a stack of fits on a leading axis, every
    mu padded to the largest type count among them."""
    per_fit = _padded_packs(fits, _sub_schema(schema, kind), annotators)
    return {name: _Pack(name, pack.spec,
                        {a: np.stack([p[name].arrays[a] for p in per_fit])
                         for a in pack.arrays})
            for name, pack in per_fit[0].items()}


def _log_joint(packs: dict[str, _Pack], log_pi: np.ndarray, obs: ObsIndex,
               schema: Schema, kind: str) -> np.ndarray:
    """(F, n_items, K) mixture log-joint of a stack of fits: log pi (F, K)
    plus each item's weighted log-likelihood under every component, from
    each property's arrays of every fit, padded to K, in packs."""
    return log_pi[:, None, :] + item_logliks(packs, obs, schema, kind,
                                             log_pi.shape[-1])


def _inventory_for(kind: str, k: int) -> TypeInventory:
    return TypeInventory(*(k if group == kind else 1
                           for group in ("event", "entity", "role", "rel")))


def _fit_candidates(obs: ObsIndex, kind: str, candidates: list[int],
                    schema: Schema, config: SelectionConfig
                    ) -> list[MixtureFit]:
    """The best-of-restarts mixture of each candidate K, by train
    likelihood.  Every restart of every candidate is a fit of one stack,
    with its own seed, and one EM runs them all."""
    sub = _sub_schema(schema, kind)
    if len(obs.elements[kind]) == 0:
        raise ValueError(f"no annotated {kind} elements")
    plan = [(k, r) for k in candidates for r in range(config.restarts)]
    fits = [init_params(sub, _inventory_for(kind, k),
                        seed=config.seed + 104729 * k + r,
                        mu_scale=config.fit.init_mu_scale,
                        annotators=obs.annotators) for k, r in plan]
    names = [f"candidate K={k}, restart {r}" for k, r in plan]
    ks = np.array([k for k, _ in plan])
    real = np.arange(ks.max()) < ks[:, None]              # (F, K)
    log_pi = np.where(real, -np.log(ks)[:, None], -np.inf)
    train_ll = np.full(len(plan), -np.inf)
    mstep = _MStep(fits, sub, obs, config.fit, names)
    for it in range(config.em_iters):
        if it:
            mstep.refit()
        logr = _log_joint(mstep.stacked, log_pi, obs, schema, kind)
        logz = logsumexp(logr, axis=-1, keepdims=True)
        train_ll = logz.sum(axis=(1, 2))
        resp = np.exp(logr - logz)
        pi = np.where(real, resp.sum(axis=1) + THETA_FLOOR, 0.0)
        with np.errstate(divide="ignore"):
            log_pi = np.log(pi / pi.sum(axis=1, keepdims=True))
        mstep.run({kind: resp})
    mstep.write_back()
    mixes = [MixtureFit(kind, k, log_pi[i, :k], fits[i], float(train_ll[i]))
             for i, (k, _) in enumerate(plan)]
    # the first restart with the highest train likelihood
    return [max(mixes[i:i + config.restarts], key=lambda m: m.train_loglik)
            for i in range(0, len(mixes), config.restarts)]


def _dev_evidence(fits: list[MixtureFit], obs: ObsIndex,
                  schema: Schema) -> np.ndarray:
    """(F, n_items) exact log-evidence of each held-out element under each
    mixture of a stack."""
    k = max(f.k for f in fits)
    log_pi = np.array([np.pad(f.log_pi, (0, k - f.k), constant_values=-np.inf)
                       for f in fits])
    kind = fits[0].kind
    logr = _log_joint(_stacked_packs([f.params for f in fits], schema, kind,
                                     obs.annotators),
                      log_pi, obs, schema, kind)
    return logsumexp(logr, axis=-1)


def fit_mixture(train: list[DocumentGraph], kind: str, k: int, schema: Schema,
                config: SelectionConfig,
                obs: ObsIndex | None = None) -> MixtureFit:
    """Fit a flat K-component mixture over one classification's elements,
    keeping the best of several seeded restarts by train likelihood."""
    if k < 1:
        raise ValueError(f"component count must be positive, got {k}")
    if obs is None:
        obs = build_obs(train, schema, config.fit.confidence_weighting)
    return _fit_candidates(obs, kind, [k], schema, config)[0]


def mixture_dev_evidence(fit: MixtureFit, dev: list[DocumentGraph],
                         schema: Schema, config: SelectionConfig,
                         obs: ObsIndex | None = None) -> np.ndarray:
    """Exact per-item log-evidence of held-out elements under the mixture;
    obs is the dev corpus's observation index, built here if not given."""
    if obs is None:
        obs = build_obs(dev, schema, config.fit.confidence_weighting)
    return _dev_evidence([fit], obs, schema)[0]


def bootstrap_diff_ci(per_item_ev_a: np.ndarray, per_item_ev_b: np.ndarray,
                      n_boot: int = 1000, level: float = 0.95,
                      seed: int = 0) -> tuple[float, float]:
    """Percentile interval of mean(B) - mean(A) under item resampling."""
    a = np.asarray(per_item_ev_a, dtype=float)
    b = np.asarray(per_item_ev_b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    if n_boot < MIN_BOOTSTRAP:
        raise ValueError(f"need at least {MIN_BOOTSTRAP} bootstrap resamples")
    rng = np.random.default_rng(seed)
    diff = b - a
    n = len(diff)
    idx = rng.integers(0, n, size=(n_boot, n))
    means = diff[idx].mean(axis=1)
    tail = 100.0 * (1.0 - level) / 2.0
    lo, hi = np.percentile(means, [tail, 100.0 - tail])
    return float(lo), float(hi)


def check_candidates(candidates: list[int]) -> None:
    """Candidate type counts must be positive and strictly increasing."""
    if not candidates or list(candidates) != sorted(set(candidates)) \
            or candidates[0] < 1:
        raise ValueError(f"candidates must be positive and strictly "
                         f"increasing, got {list(candidates)}")


def select_k(train: list[DocumentGraph], dev: list[DocumentGraph], kind: str,
             candidates: list[int], schema: Schema,
             config: SelectionConfig) -> SelectionReport:
    """Choose the smallest candidate K with no reliably better larger K.

    Candidates are scanned in increasing order with a forward incumbent:
    a larger K replaces the incumbent only when the bootstrap interval of
    its mean dev-evidence gain lies strictly above zero.
    """
    check_candidates(candidates)
    obs = build_obs(train, schema, config.fit.confidence_weighting)
    dev_obs = build_obs(dev, schema, config.fit.confidence_weighting)
    mixes = _fit_candidates(obs, kind, candidates, schema, config)
    per_item = dict(zip(candidates, _dev_evidence(mixes, dev_obs, schema)))

    incumbent = candidates[0]
    intervals = []
    for k in candidates[1:]:
        lo, hi = bootstrap_diff_ci(per_item[incumbent], per_item[k],
                                   n_boot=config.bootstrap_samples,
                                   level=config.level,
                                   seed=config.seed + 15485863 * k)
        intervals.append((incumbent, k, lo, hi))
        if lo > 0.0:
            incumbent = k

    return SelectionReport(
        kind=kind,
        candidates=list(candidates),
        dev_evidence={k: float(v.mean()) for k, v in per_item.items()},
        intervals=intervals,
        chosen_k=incumbent,
    )
