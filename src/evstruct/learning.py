"""EM driver: loopy-BP E-step, Adam M-step over likelihood parameters with
confidence-weighted expected log-likelihood, closed-form prior updates, and
dev-evidence stopping.

The M-step objective contracts the row log-likelihoods that params
computes, one vectorized function per response family, with
responsibility-weighted coefficients: the same rows the E-step scores.
Its machinery (objective, gradients, Adam) is shared with the flat mixture
models used for type-count selection.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from . import likelihoods as lk
from .corpus import DocumentGraph
from .factorgraph import PosteriorSet, build_graph, loopy_bp_batch
from .params import (  # noqa: F401  (item_logliks re-exported)
    ModelParams, ObsIndex, OrdinalParams, PropTable, TypeInventory, _Pack,
    _leaves, _packs_from_params, _terms, build_obs, init_params, item_logliks,
)
from .schema import Schema

_THETA_FLOOR = 1e-10


@dataclass
class FitConfig:
    window: int = 2
    max_em_iters: int = 20
    adam_lr: float = 0.05
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8
    m_step_iters: int = 200
    bp_max_iters: int = 200
    bp_damping: float = 0.1
    bp_tol: float = 1e-8
    seed: int = 0
    confidence_weighting: bool = True
    learn_rho: bool = True
    init_mu_scale: float = 0.5
    threads: int = 1             # accepted for compatibility; no effect

    def __post_init__(self):
        if self.adam_lr <= 0:
            raise ValueError(f"adam_lr must be positive, got {self.adam_lr}")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.m_step_iters < 0:
            raise ValueError(
                f"m_step_iters must be >= 0, got {self.m_step_iters}")


@dataclass
class FitResult:
    params: ModelParams
    train_evidence: list[float]
    dev_evidence: list[float]
    posteriors: list[PosteriorSet]
    stopped_reason: str          # "dev-decrease" | "max-iters"


# ---------------------------------------------------------------------------
# M-step objective over packed arrays, and the packs written back into params

def _params_from_packs(params: ModelParams, schema: Schema,
                       annotators: list[str],
                       packs: dict[str, _Pack]) -> None:
    """Write the packed arrays back into params: each block's mu, rho dict
    (in annotators order) and sigma re-estimated from the rho rows, with
    ordinal cutpoints recentred."""
    for spec in schema:
        arrays = packs[spec.name].arrays
        for prefix, owner, attr, width in _leaves(params.props[spec.name]):
            setattr(owner, attr + "mu", arrays[prefix + "mu"])
            mat = arrays[prefix + "rho"]
            setattr(owner, attr + "rho",
                    {a: float(mat[i]) if width is None else np.array(mat[i])
                     for i, a in enumerate(annotators)})
            if width is None:
                setattr(owner, attr + "sigma",
                        float(lk.update_sigma(mat[:, None])[0, 0])
                        if len(mat) else 1.0)
            elif len(mat):
                setattr(owner, attr + "sigma", lk.update_sigma(mat))
            if isinstance(owner, OrdinalParams):
                owner.cut_raw = arrays[prefix + "cut_raw"]
                owner.recenter()


def _prop_objective(pack: _Pack, table: PropTable, c_all: np.ndarray,
                    n_ann: int):
    """Objective sum(c_all * row_logliks) and its gradient dict for one
    property's observations, term by term.

    c_all: (N, K) responsibility-times-weight coefficients per row."""
    grads = {name: np.zeros_like(arr) for name, arr in pack.arrays.items()}
    obj = 0.0
    for prefix, family, rows, values in _terms(pack, table):
        c = c_all[rows]
        ll, g = family(pack.arrays, prefix, table.ann[rows], values, c, n_ann)
        obj += float(np.sum(c * ll))
        for name, garr in g.items():
            grads[name] += garr
    return obj, grads


def _penalty_terms(pack: _Pack, params: ModelParams):
    """Gaussian intercept penalties for one property; returns
    (objective, grads-by-array-name)."""
    obj = 0.0
    grads = {}
    for prefix, owner, attr, _ in _leaves(params.props[pack.name]):
        name = prefix + "rho"
        mat = pack.arrays[name]
        sigma = getattr(owner, attr + "sigma")
        if mat.ndim == 1:
            var = float(np.atleast_2d(sigma)[0, 0])
            obj += float(np.sum(-0.5 * mat ** 2 / var
                                - 0.5 * np.log(2 * np.pi * var)))
            grads[name] = -mat / var
        else:
            sigma = np.atleast_2d(sigma)
            inv = np.linalg.inv(sigma)
            _, logdet = np.linalg.slogdet(sigma)
            obj += float(np.sum(-0.5 * np.einsum("ad,de,ae->a", mat, inv, mat)
                                - 0.5 * logdet
                                - 0.5 * mat.shape[1] * np.log(2 * np.pi)))
            grads[name] = -mat @ inv
    return obj, grads


class Adam:
    """Plain full-batch Adam ascent on one parameter vector, in place."""

    def __init__(self, x: np.ndarray, lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.x = x
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m, self.v = np.zeros_like(x), np.zeros_like(x)
        self.t = 0

    def step(self, g: np.ndarray) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        self.m = b1 * self.m + (1 - b1) * g
        self.v = b2 * self.v + (1 - b2) * g * g
        mh = self.m / (1 - b1 ** self.t)
        vh = self.v / (1 - b2 ** self.t)
        self.x += self.lr * mh / (np.sqrt(vh) + self.eps)


def optimize_likelihoods(params: ModelParams, schema: Schema, obs: ObsIndex,
                         post_mats: dict[str, np.ndarray],
                         config: FitConfig) -> float:
    """Maximize the expected weighted complete-data log-likelihood plus the
    intercept penalty via Adam; keeps the best-objective iterate.  Writes
    the result back into params and returns the best objective."""
    n_ann = len(obs.annotators)
    packs = _packs_from_params(params, schema, obs.annotators)

    tables = obs.tables
    coeffs = {spec.name: post_mats[spec.group][tables[spec.name].elem]
              * tables[spec.name].weight[:, None]
              for spec in schema if len(tables[spec.name].elem)}

    # each optimized array becomes a view into x, its gradient a view into
    # g; without learn_rho the rho arrays stay out and keep their values
    opt = [(pack, name) for pack in packs.values() for name in pack.arrays
           if config.learn_rho or "rho" not in name]
    x = np.zeros(sum(pack.arrays[name].size for pack, name in opt))
    g = np.zeros_like(x)
    grads = {pname: {} for pname in packs}
    end = 0
    for pack, name in opt:
        arr = pack.arrays[name]
        start, end = end, end + arr.size
        x[start:end] = arr.ravel()
        pack.arrays[name] = x[start:end].reshape(arr.shape)
        grads[pack.name][name] = g[start:end].reshape(arr.shape)

    def evaluate() -> float:
        g[:] = 0.0
        obj = 0.0
        for pname, pack in packs.items():
            views = grads[pname]
            if pname in coeffs:
                o, pg = _prop_objective(pack, tables[pname], coeffs[pname],
                                        n_ann)
                obj += o
                for name, view in views.items():
                    view += pg[name]
            if config.learn_rho:
                o, pg = _penalty_terms(pack, params)
                obj += o
                for name, garr in pg.items():
                    views[name] += garr
        if not np.isfinite(obj):
            raise ArithmeticError(
                f"non-finite M-step objective (properties: {list(coeffs)})")
        return obj

    adam = Adam(x, config.adam_lr, config.adam_beta1, config.adam_beta2,
                config.adam_eps)
    best_obj, best = -np.inf, None
    for it in range(config.m_step_iters + 1):
        if it:
            adam.step(g)
        obj = evaluate()
        if obj > best_obj:
            best_obj, best = obj, x.copy()
    x[...] = best

    _params_from_packs(params, schema, obs.annotators, packs)
    params.annotators = list(obs.annotators)
    return best_obj


# ---------------------------------------------------------------------------
# E-step, prior updates, EM driver

def e_step(corpus: list[DocumentGraph], params: ModelParams, schema: Schema,
           config: FitConfig) -> list[PosteriorSet]:
    graphs = [build_graph(doc, params, schema, config.window,
                          config.confidence_weighting) for doc in corpus]
    return loopy_bp_batch(graphs, config.bp_max_iters, config.bp_damping,
                          config.bp_tol)


def posterior_matrices(obs: ObsIndex,
                       posteriors: list[PosteriorSet],
                       inventory: TypeInventory) -> dict[str, np.ndarray]:
    mats = {}
    for kind, elems in obs.elements.items():
        k = inventory.k_for(kind)
        mat = np.zeros((len(elems), k))
        for row, (doc_i, element) in enumerate(elems):
            mat[row] = posteriors[doc_i].marginals[element]
        mats[kind] = mat
    return mats


def _normalize_counts(counts: np.ndarray) -> np.ndarray:
    counts = np.maximum(counts, 0.0)
    total = counts.sum(axis=-1, keepdims=True)
    uniform = np.full_like(counts, 1.0 / counts.shape[-1])
    out = np.where(total > 0, counts / np.maximum(total, _THETA_FLOOR), uniform)
    out = np.maximum(out, _THETA_FLOOR)
    return out / out.sum(axis=-1, keepdims=True)


def update_priors(params: ModelParams,
                  posteriors: list[PosteriorSet]) -> None:
    """Closed-form normalized expected-count updates for all type priors."""
    inv = params.inventory
    ev = np.zeros(inv.k_event)
    en = np.zeros(inv.k_entity)
    role = np.zeros((inv.k_event, inv.k_entity, inv.k_role))
    rel = {"ee": np.zeros((inv.k_event, inv.k_event, inv.k_rel)),
           "en": np.zeros((inv.k_event, inv.k_entity, inv.k_rel))}
    for post in posteriors:
        for var_id, kind in post.kinds.items():
            if kind == "event":
                ev += post.marginals[var_id]
            elif kind == "entity":
                en += post.marginals[var_id]
        for fid, belief in post.factor_beliefs.items():
            if fid.startswith("prior:") and belief.ndim == 3:
                elem = fid.split(":", 1)[1]
                if post.kinds[elem] == "role":
                    role += belief
                else:
                    rel[_rel_block(post, elem)] += belief
    params.priors.theta_event = _normalize_counts(ev)
    params.priors.theta_entity = _normalize_counts(en)
    params.priors.theta_role = _normalize_counts(role)
    params.priors.theta_rel = {b: _normalize_counts(m)
                               for b, m in rel.items()}


def _rel_block(post: PosteriorSet, elem: str) -> str:
    _, b = elem.split("--")
    return "ee" if post.kinds[b] == "event" else "en"


def m_step(corpus: list[DocumentGraph], posteriors: list[PosteriorSet],
           params: ModelParams, schema: Schema, config: FitConfig,
           obs: ObsIndex | None = None) -> ModelParams:
    """One EM maximization step: closed-form priors, Adam likelihoods."""
    if obs is None:
        obs = build_obs(corpus, schema, config.confidence_weighting)
    update_priors(params, posteriors)
    post_mats = posterior_matrices(obs, posteriors, params.inventory)
    optimize_likelihoods(params, schema, obs, post_mats, config)
    return params


def total_evidence(posteriors: list[PosteriorSet]) -> float:
    return float(sum(p.evidence for p in posteriors))


def fit(train: list[DocumentGraph], dev: list[DocumentGraph],
        inventory: TypeInventory, schema: Schema,
        config: FitConfig) -> FitResult:
    """EM with loopy-BP E-steps and dev-evidence stopping; returns the
    parameters from the best dev iteration."""
    if not train:
        raise ValueError("empty training corpus")
    obs = build_obs(train, schema, config.confidence_weighting)
    params = init_params(schema, inventory, seed=config.seed,
                         mu_scale=config.init_mu_scale,
                         annotators=obs.annotators)
    train_trace: list[float] = []
    dev_trace: list[float] = []
    best_params = copy.deepcopy(params)
    stopped = "max-iters"
    for _ in range(config.max_em_iters):
        posts = e_step(train, params, schema, config)
        train_trace.append(total_evidence(posts))
        m_step(train, posts, params, schema, config, obs=obs)
        dev_posts = e_step(dev, params, schema, config) if dev else []
        dev_trace.append(total_evidence(dev_posts) if dev
                         else train_trace[-1])
        if len(dev_trace) >= 2 and dev_trace[-1] < dev_trace[-2]:
            stopped = "dev-decrease"
            break
        best_params = copy.deepcopy(params)
    final_posts = e_step(train, best_params, schema, config)
    return FitResult(params=best_params, train_evidence=train_trace,
                     dev_evidence=dev_trace, posteriors=final_posts,
                     stopped_reason=stopped)
