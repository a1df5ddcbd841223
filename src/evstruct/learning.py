"""EM driver: loopy-BP E-step, Adam M-step over likelihood parameters with
confidence-weighted expected log-likelihood, closed-form prior updates, and
dev-evidence stopping.

The M-step machinery (per-family vectorized objective and gradient
functions, Adam) is shared with the flat mixture models used for
type-count selection; the observation tables they read live in params.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from . import likelihoods as lk
from .corpus import DocumentGraph
from .factorgraph import PosteriorSet, build_graph, loopy_bp
from .params import (  # noqa: F401  (item_logliks re-exported)
    BinaryParams, CategoricalParams, HurdleParams, ModelParams, ObsIndex,
    OrdinalParams, PropTable, TemporalParams, TypeInventory, _Pack,
    _packs_from_params, build_obs, init_params, item_logliks,
)
from .schema import BINARY, CATEGORICAL, ORDINAL, TEMPORAL, Schema

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
# vectorized per-family objective and gradients
#
# each returns (objective, grads...) where the objective is
# sum_n sum_k c[n, k] * loglik_k(row n) for responsibility-weighted rows c.

def _binary_terms(mu, rho_vec, ann, x, c, n_ann):
    z = mu[None, :] + rho_vec[ann][:, None]
    ll = x[:, None] * lk.log_sigmoid(z) + (1.0 - x)[:, None] * lk.log_sigmoid(-z)
    obj = float(np.sum(c * ll))
    g = x[:, None] - lk.sigmoid(z)
    cg = c * g
    dmu = cg.sum(axis=0)
    drho = np.zeros(n_ann)
    np.add.at(drho, ann, cg.sum(axis=1))
    return obj, dmu, drho


def _categorical_terms(mu, rho_mat, ann, x, c, n_ann):
    z = mu[None, :, :] + rho_mat[ann][:, None, :]
    ls = lk.log_softmax(z, axis=-1)
    n = len(x)
    ll = ls[np.arange(n), :, x]
    obj = float(np.sum(c * ll))
    g = -np.exp(ls)
    g[np.arange(n), :, x] += 1.0
    dmu = np.einsum("nk,nkc->kc", c, g)
    drho = np.zeros((n_ann, mu.shape[-1]))
    np.add.at(drho, ann, np.einsum("nk,nkc->nc", c, g))
    return obj, dmu, drho


def _ordinal_terms(mu, cut_raw, rho_mat, ann, j, c, n_ann):
    """Cumulative linked logit terms; gradients wrt mu, population raw
    cutpoints, and per-annotator raw offsets."""
    raw = cut_raw[None, :] + rho_mat            # (A, J-1)
    cuts = lk.cutpoints_from_raw(raw)           # (A, J-1)
    J = cuts.shape[1] + 1
    crow = cuts[ann]                            # (N, J-1)
    n = len(j)
    hi_cut = np.where(j < J, crow[np.arange(n), np.minimum(j, J - 1) - 1], 0.0)
    lo_cut = np.where(j > 1, crow[np.arange(n), np.maximum(j - 2, 0)], 0.0)
    hi = np.where((j < J)[:, None], lk.sigmoid(hi_cut[:, None] - mu[None, :]), 1.0)
    lo = np.where((j > 1)[:, None], lk.sigmoid(lo_cut[:, None] - mu[None, :]), 0.0)
    p = np.maximum(hi - lo, 1e-300)
    obj = float(np.sum(c * np.log(p)))
    dhi = np.where((j < J)[:, None], hi * (1.0 - hi), 0.0)
    dlo = np.where((j > 1)[:, None], lo * (1.0 - lo), 0.0)
    dmu = np.sum(c * (dlo - dhi) / p, axis=0)
    # cutpoint-space gradients, scattered per annotator
    u = np.sum(c * dhi / p, axis=1)             # d/d cut[j-1]
    l = -np.sum(c * dlo / p, axis=1)            # d/d cut[j-2]
    dcut = np.zeros((n_ann, J - 1))
    sel = j < J
    np.add.at(dcut, (ann[sel], j[sel] - 1), u[sel])
    sel = j > 1
    np.add.at(dcut, (ann[sel], j[sel] - 2), l[sel])
    draw = lk.raw_grad_from_cutpoint_grad(raw, dcut)   # (A, J-1) raw space
    dcut_raw = draw.sum(axis=0)
    return obj, dmu, dcut_raw, draw


# ---------------------------------------------------------------------------
# optimized packs written back into params

def _params_from_packs(params: ModelParams, schema: Schema,
                       annotators: list[str],
                       packs: dict[str, _Pack]) -> None:
    def rho_dict(mat, dim):
        if dim is None:
            return {a: float(mat[i]) for i, a in enumerate(annotators)}
        return {a: np.array(mat[i]) for i, a in enumerate(annotators)}

    for spec in schema:
        pp = params.props[spec.name]
        arrays = packs[spec.name].arrays

        def write_base(base, prefix=""):
            if isinstance(base, BinaryParams):
                base.mu = arrays[prefix + "mu"]
                base.rho = rho_dict(arrays[prefix + "rho"], None)
            elif isinstance(base, CategoricalParams):
                base.mu = arrays[prefix + "mu"]
                base.rho = rho_dict(arrays[prefix + "rho"], base.mu.shape[-1])
            elif isinstance(base, OrdinalParams):
                base.mu = arrays[prefix + "mu"]
                base.cut_raw = arrays[prefix + "cut_raw"]
                base.rho = rho_dict(arrays[prefix + "rho"],
                                    len(base.cut_raw))
            elif isinstance(base, TemporalParams):
                write_base(base.start, prefix + "start.")
                write_base(base.end, prefix + "end.")
                write_base(base.order, prefix + "order.")

        if isinstance(pp, HurdleParams):
            pp.gate_mu = arrays["gate_mu"]
            pp.gate_rho = rho_dict(arrays["gate_rho"], None)
            write_base(pp.base)
        else:
            write_base(pp)


def _prop_objective(pack: _Pack, table: PropTable, c_all: np.ndarray,
                    n_ann: int):
    """Objective and gradient dict for one property's observations.

    c_all: (N, K) responsibility-times-weight coefficients per row."""
    spec = pack.spec
    arrays = pack.arrays
    grads = {name: np.zeros_like(arr) for name, arr in arrays.items()}
    obj = 0.0
    present = table.present
    gated = "gate_mu" in arrays

    if gated:
        x = present.astype(float)
        o, dmu, drho = _binary_terms(arrays["gate_mu"], arrays["gate_rho"],
                                     table.ann, x, c_all, n_ann)
        obj += o
        grads["gate_mu"] += dmu
        grads["gate_rho"] += drho

    sel = present if gated else slice(None)
    ann = table.ann[sel]
    c = c_all[sel]
    if np.shape(c)[0] > 0:
        if spec.response == BINARY:
            o, dmu, drho = _binary_terms(arrays["mu"], arrays["rho"], ann,
                                         table.bval[sel], c, n_ann)
            obj += o
            grads["mu"] += dmu
            grads["rho"] += drho
        elif spec.response == CATEGORICAL:
            o, dmu, drho = _categorical_terms(arrays["mu"], arrays["rho"], ann,
                                              table.ival[sel], c, n_ann)
            obj += o
            grads["mu"] += dmu
            grads["rho"] += drho
        elif spec.response == ORDINAL:
            o, dmu, dcraw, drho = _ordinal_terms(
                arrays["mu"], arrays["cut_raw"], arrays["rho"], ann,
                table.ival[sel], c, n_ann)
            obj += o
            grads["mu"] += dmu
            grads["cut_raw"] += dcraw
            grads["rho"] += drho
        elif spec.response == TEMPORAL:
            codes = table.tval[sel]
            for block, col in (("start", 0), ("end", 1), ("order", 2)):
                bsel = codes[:, col] >= 0
                if not np.any(bsel):
                    continue
                o, dmu, drho = _categorical_terms(
                    arrays[f"{block}.mu"], arrays[f"{block}.rho"],
                    ann[bsel], codes[bsel, col], c[bsel], n_ann)
                obj += o
                grads[f"{block}.mu"] += dmu
                grads[f"{block}.rho"] += drho
    return obj, grads


def _penalty_terms(pack: _Pack, params: ModelParams):
    """Gaussian intercept penalties for one property; returns
    (objective, grads-by-array-name)."""
    pp = params.props[pack.name]
    obj = 0.0
    grads = {}

    def add(name, mat, sigma):
        nonlocal obj
        mat = pack.arrays[name]
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

    def walk(base, prefix=""):
        if isinstance(base, BinaryParams):
            add(prefix + "rho", None, base.sigma)
        elif isinstance(base, CategoricalParams):
            add(prefix + "rho", None, base.sigma)
        elif isinstance(base, OrdinalParams):
            add(prefix + "rho", None, base.sigma)
        elif isinstance(base, TemporalParams):
            walk(base.start, prefix + "start.")
            walk(base.end, prefix + "end.")
            walk(base.order, prefix + "order.")

    if isinstance(pp, HurdleParams):
        add("gate_rho", None, pp.gate_sigma)
        walk(pp.base)
    else:
        walk(pp)
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
        base = pp.base if isinstance(pp, HurdleParams) else pp
        if isinstance(base, OrdinalParams):
            base.recenter()
    params.annotators = list(obs.annotators)
    return best_obj


def _update_sigmas(params: ModelParams, schema: Schema) -> None:
    def walk(base):
        if isinstance(base, (BinaryParams,)):
            rhos = np.array(list(base.rho.values()), dtype=float)
            base.sigma = float(lk.update_sigma(rhos[:, None])[0, 0]) \
                if rhos.size else 1.0
        elif isinstance(base, (CategoricalParams, OrdinalParams)):
            if base.rho:
                base.sigma = lk.update_sigma(np.stack(list(base.rho.values())))
        elif isinstance(base, TemporalParams):
            walk(base.start)
            walk(base.end)
            walk(base.order)

    for spec in schema:
        pp = params.props[spec.name]
        if isinstance(pp, HurdleParams):
            rhos = np.array(list(pp.gate_rho.values()), dtype=float)
            pp.gate_sigma = float(lk.update_sigma(rhos[:, None])[0, 0]) \
                if rhos.size else 1.0
            walk(pp.base)
        else:
            walk(pp)


# ---------------------------------------------------------------------------
# E-step, prior updates, EM driver

def e_step(corpus: list[DocumentGraph], params: ModelParams, schema: Schema,
           config: FitConfig) -> list[PosteriorSet]:
    posts = []
    for doc in corpus:
        try:
            graph = build_graph(doc, params, schema, config.window,
                                config.confidence_weighting)
            posts.append(loopy_bp(graph, config.bp_max_iters,
                                  config.bp_damping, config.bp_tol))
        except ArithmeticError as exc:
            raise ArithmeticError(f"document {doc.doc_id}: {exc}") from exc
    return posts


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
