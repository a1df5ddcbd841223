"""Type-count selection: flat mixture models per classification, dev
evidence, and nonparametric bootstrap intervals over items."""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np
from scipy.special import logsumexp

from .corpus import DocumentGraph
from .learning import (
    FitConfig, ObsIndex, _packs_from_params, build_obs, item_logliks,
    optimize_likelihoods,
)
from .params import ModelParams, TypeInventory, init_params
from .schema import Schema

THETA_FLOOR = 1e-10


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
            raise ValueError("restarts and em_iters must be positive")
        if not 0.0 < self.level < 1.0:
            raise ValueError("level must lie in (0, 1)")


@dataclass
class MixtureFit:
    kind: str
    k: int
    log_pi: np.ndarray
    params: ModelParams          # single-classification parameter set
    train_loglik: float

    def responsibilities(self, obs: ObsIndex, schema: Schema) -> np.ndarray:
        logr = _log_joint(self.params, self.log_pi, obs, schema, self.kind)
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


def _log_joint(params: ModelParams, log_pi: np.ndarray, obs: ObsIndex,
               schema: Schema, kind: str) -> np.ndarray:
    """(n_items, K) mixture log-joint: log pi plus each item's weighted
    log-likelihood under every component."""
    packs = _packs_from_params(params, _sub_schema(schema, kind),
                               obs.annotators)
    return log_pi[None, :] + item_logliks(packs, obs, schema, kind,
                                          len(log_pi))


def _inventory_for(kind: str, k: int) -> TypeInventory:
    counts = {"event": 1, "entity": 1, "role": 1, "rel": 1}
    counts[kind] = k
    return TypeInventory(counts["event"], counts["entity"], counts["role"],
                         counts["rel"])


def fit_mixture(train: list[DocumentGraph], kind: str, k: int, schema: Schema,
                config: SelectionConfig,
                obs: ObsIndex | None = None) -> MixtureFit:
    """Fit a flat K-component mixture over one classification's elements,
    keeping the best of several seeded restarts by train likelihood."""
    if k < 1:
        raise ValueError(f"component count must be positive, got {k}")
    if obs is None:
        obs = build_obs(train, schema, config.fit.confidence_weighting)
    sub = _sub_schema(schema, kind)
    n_items = len(obs.elements[kind])
    if n_items == 0:
        raise ValueError(f"no annotated {kind} elements")

    best: MixtureFit | None = None
    for restart in range(config.restarts):
        seed = config.seed + 104729 * k + restart
        params = init_params(sub, _inventory_for(kind, k), seed=seed,
                             mu_scale=config.fit.init_mu_scale,
                             annotators=obs.annotators)
        log_pi = np.full(k, -np.log(k))
        train_ll = -np.inf
        for _ in range(config.em_iters):
            logr = _log_joint(params, log_pi, obs, schema, kind)
            logz = logsumexp(logr, axis=1, keepdims=True)
            train_ll = float(logz.sum())
            resp = np.exp(logr - logz)
            pi = resp.sum(axis=0) + THETA_FLOOR
            log_pi = np.log(pi / pi.sum())
            optimize_likelihoods(params, sub, obs, {kind: resp}, config.fit)
        if best is None or train_ll > best.train_loglik:
            best = MixtureFit(kind, k, log_pi, copy.deepcopy(params), train_ll)
    return best


def mixture_dev_evidence(fit: MixtureFit, dev: list[DocumentGraph],
                         schema: Schema, config: SelectionConfig) -> np.ndarray:
    """Exact per-item log-evidence of held-out elements under the mixture."""
    obs = build_obs(dev, schema, config.fit.confidence_weighting)
    return logsumexp(_log_joint(fit.params, fit.log_pi, obs, schema,
                                fit.kind), axis=1)


def bootstrap_diff_ci(per_item_ev_a: np.ndarray, per_item_ev_b: np.ndarray,
                      n_boot: int = 1000, level: float = 0.95,
                      seed: int = 0) -> tuple[float, float]:
    """Percentile interval of mean(B) - mean(A) under item resampling."""
    a = np.asarray(per_item_ev_a, dtype=float)
    b = np.asarray(per_item_ev_b, dtype=float)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    if n_boot < 1000:
        raise ValueError("need at least 1000 bootstrap resamples")
    rng = np.random.default_rng(seed)
    diff = b - a
    n = len(diff)
    idx = rng.integers(0, n, size=(n_boot, n))
    means = diff[idx].mean(axis=1)
    tail = 100.0 * (1.0 - level) / 2.0
    lo, hi = np.percentile(means, [tail, 100.0 - tail])
    return float(lo), float(hi)


def select_k(train: list[DocumentGraph], dev: list[DocumentGraph], kind: str,
             candidates: list[int], schema: Schema,
             config: SelectionConfig) -> SelectionReport:
    """Choose the smallest candidate K with no reliably better larger K.

    Candidates are scanned in increasing order with a forward incumbent:
    a larger K replaces the incumbent only when the bootstrap interval of
    its mean dev-evidence gain lies strictly above zero.
    """
    if not candidates:
        raise ValueError("empty candidate list")
    if list(candidates) != sorted(set(candidates)):
        raise ValueError("candidates must be strictly increasing")
    obs = build_obs(train, schema, config.fit.confidence_weighting)

    per_item: dict[int, np.ndarray] = {}
    for k in candidates:
        mix = fit_mixture(train, kind, k, schema, config, obs=obs)
        per_item[k] = mixture_dev_evidence(mix, dev, schema, config)

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
