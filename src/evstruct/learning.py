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
            raise ValueError("adam step size must be positive")
        if self.window < 1:
            raise ValueError("window must be >= 1")


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
    for spec in schema:
        arrays = packs[spec.name].arrays
        for prefix, owner, attr, width in _leaves(params.props[spec.name]):
            setattr(owner, attr + "mu", arrays[prefix + "mu"])
            if isinstance(owner, OrdinalParams):
                owner.cut_raw = arrays[prefix + "cut_raw"]
            mat = arrays[prefix + "rho"]
            setattr(owner, attr + "rho",
                    {a: float(mat[i]) if width is None else np.array(mat[i])
                     for i, a in enumerate(annotators)})


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
    """Plain full-batch Adam over a dict of named arrays (ascent)."""

    def __init__(self, arrays: dict[str, np.ndarray], lr: float,
                 beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.arrays = arrays
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = {n: np.zeros_like(a) for n, a in arrays.items()}
        self.v = {n: np.zeros_like(a) for n, a in arrays.items()}
        self.t = 0

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        for name, g in grads.items():
            self.m[name] = b1 * self.m[name] + (1 - b1) * g
            self.v[name] = b2 * self.v[name] + (1 - b2) * g * g
            mh = self.m[name] / (1 - b1 ** self.t)
            vh = self.v[name] / (1 - b2 ** self.t)
            self.arrays[name] += self.lr * mh / (np.sqrt(vh) + self.eps)


def optimize_likelihoods(params: ModelParams, schema: Schema, obs: ObsIndex,
                         post_mats: dict[str, np.ndarray],
                         config: FitConfig) -> float:
    """Maximize the expected weighted complete-data log-likelihood plus the
    intercept penalty via Adam; keeps the best-objective iterate.  Writes
    the result back into params and returns the best objective."""
    n_ann = len(obs.annotators)
    packs = _packs_from_params(params, schema, obs.annotators)

    coeffs = {}
    for spec in schema:
        table = obs.tables[spec.name]
        if len(table.elem) == 0:
            continue
        post = post_mats[spec.group]
        coeffs[spec.name] = post[table.elem] * table.weight[:, None]

    flat: dict[str, np.ndarray] = {}
    for pname, pack in packs.items():
        for aname, arr in pack.arrays.items():
            if not config.learn_rho and "rho" in aname:
                continue
            flat[f"{pname}/{aname}"] = arr

    def evaluate():
        obj = 0.0
        grads = {n: np.zeros_like(a) for n, a in flat.items()}
        for pname, pack in packs.items():
            if pname in coeffs:
                o, g = _prop_objective(pack, obs.tables[pname], coeffs[pname],
                                       n_ann)
                obj += o
                for aname, garr in g.items():
                    key = f"{pname}/{aname}"
                    if key in grads:
                        grads[key] += garr
            if config.learn_rho:
                o, g = _penalty_terms(pack, params)
                obj += o
                for aname, garr in g.items():
                    key = f"{pname}/{aname}"
                    if key in grads:
                        grads[key] += garr
        if not np.isfinite(obj):
            bad = [p for p in packs if p in coeffs]
            raise ArithmeticError(
                f"non-finite M-step objective (properties: {bad})")
        return obj, grads

    adam = Adam(flat, config.adam_lr, config.adam_beta1, config.adam_beta2,
                config.adam_eps)
    best_obj = -np.inf
    best = None
    for _ in range(config.m_step_iters):
        obj, grads = evaluate()
        if obj > best_obj:
            best_obj = obj
            best = {n: a.copy() for n, a in flat.items()}
        adam.step(grads)
    obj, _ = evaluate()
    if obj > best_obj:
        best_obj = obj
        best = {n: a.copy() for n, a in flat.items()}
    for name, arr in best.items():
        flat[name][...] = arr

    _params_from_packs(params, schema, obs.annotators, packs)
    _update_sigmas(params, schema)
    for pp in params.props.values():
        for _, owner, _, _ in _leaves(pp):
            if isinstance(owner, OrdinalParams):
                owner.recenter()
    params.annotators = list(obs.annotators)
    return best_obj


def _update_sigmas(params: ModelParams, schema: Schema) -> None:
    for spec in schema:
        for _, owner, attr, width in _leaves(params.props[spec.name]):
            rho = getattr(owner, attr + "rho")
            if width is None:
                rhos = np.array(list(rho.values()), dtype=float)
                setattr(owner, attr + "sigma",
                        float(lk.update_sigma(rhos[:, None])[0, 0])
                        if rhos.size else 1.0)
            elif rho:
                setattr(owner, attr + "sigma",
                        lk.update_sigma(np.stack(list(rho.values()))))


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
