"""EM driver: loopy-BP E-step, Adam M-step over likelihood parameters with
confidence-weighted expected log-likelihood, closed-form prior updates, and
dev-evidence stopping.

The M-step objective contracts the outcome tables that params computes,
one table function per response family, with expected counts per
(annotator, type, outcome): the responsibility-weighted rows the E-step
scores, summed once per M-step.  Its machinery (objective, gradients,
Adam) runs over a stack of fits: a full model fit is a stack of one, and
type-count selection stacks every restart of every candidate type count.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from . import likelihoods as lk
from .corpus import DocumentGraph
from .factorgraph import PosteriorSet, build_graphs, loopy_bp_batch
from .params import (  # noqa: F401  (re-exports for callers and tests)
    ModelParams, ObsIndex, OrdinalParams, PropTable, Term, TypeInventory,
    _Pack, _block, _leaves, _packs_from_params, _padded_packs, build_obs,
    init_params, item_logliks,
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
    """Write the packed arrays back into params: each block's mu (without
    any padding rows), rho dict (in annotators order) and sigma re-estimated
    from the rho rows, with ordinal cutpoints recentred."""
    for spec in schema:
        arrays = packs[spec.name].arrays
        k = params.inventory.k_for(spec.group)
        for prefix, owner, attr, width in _leaves(params.props[spec.name]):
            setattr(owner, attr + "mu", arrays[prefix + "mu"][:k])
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


def _counts(term: Term, c: np.ndarray, n_ann: int) -> np.ndarray:
    """(..., A, K, O) expected counts of one term: its rows' coefficients
    c (..., N, K) summed per annotator, type and outcome, for each index of
    the leading (fit) axes."""
    lead, k, n_out = c.shape[:-2], c.shape[-1], term.n_out
    fits = np.arange(int(np.prod(lead)))
    idx = (((fits[:, None, None] * n_ann + term.ann[:, None]) * k
            + np.arange(k)) * n_out + term.out[:, None])
    return np.bincount(idx.ravel(), weights=c[..., term.rows, :].ravel(),
                       minlength=len(fits) * n_ann * k * n_out
                       ).reshape(lead + (n_ann, k, n_out))


def _prop_objective(pack: _Pack, table: PropTable, c_all: np.ndarray,
                    n_ann: int):
    """Objective sum(c_all * row_logliks) and its gradient dict for one
    property's observations, each term a group of one.

    c_all: (N, K) responsibility-times-weight coefficients per row."""
    grads = {name: np.zeros_like(arr) for name, arr in pack.arrays.items()}
    obj = 0.0
    for term in table.terms:
        o, g = term.family(_block(pack.arrays, term.prefix),
                           _counts(term, c_all, n_ann))
        obj += float(np.sum(o))
        for name, garr in g.items():
            grads[term.prefix + name] += garr
    return obj, grads


def _per_fit(a, n_fits: int) -> np.ndarray:
    """(n_fits,) sums of a over each fit's equal, consecutive share of its
    leading axis."""
    return np.reshape(a, (n_fits, -1)).sum(axis=1)


def _penalty(rho, prec, logdet, n_fits: int = 1):
    """Summed Gaussian log-density of intercept rows rho (..., A, d) under
    covariances with inverses prec (..., d, d) and log-determinants logdet
    (...), per fit of n_fits sharing the leading axis, and its gradient."""
    grad = -np.einsum("...ad,...de->...ae", rho, prec)
    n_ann, d = rho.shape[-2:]
    obj = 0.5 * _per_fit(grad * rho, n_fits) - 0.5 * n_ann * (
        _per_fit(logdet, n_fits)
        + np.size(logdet) // n_fits * d * np.log(2 * np.pi))
    return obj, grad


def _penalty_terms(pack: _Pack, params: ModelParams):
    """Gaussian intercept penalties for one property, each block a group of
    one; returns (objective, grads-by-array-name)."""
    obj = 0.0
    grads = {}
    for prefix, owner, attr, _ in _leaves(params.props[pack.name]):
        mat = pack.arrays[prefix + "rho"]
        sigma = np.atleast_2d(getattr(owner, attr + "sigma"))
        o, g = _penalty(mat.reshape(len(mat), len(sigma)),
                        np.linalg.inv(sigma), np.linalg.slogdet(sigma)[1])
        obj += o[0]
        grads[prefix + "rho"] = g.reshape(mat.shape)
    return obj, grads


class _Group:
    """Parameter blocks of one family and table shape, stacked on a leading
    axis, fit by fit: the (pack, array prefix) of each block, arrays and
    gradient views by short name, expected counts (P, A, K, O), and the
    inverse and log-determinant of each block's intercept covariance, which
    stays fixed during an M-step.  Every fit of the stack owns the same
    number of consecutive blocks."""

    def __init__(self, family, members, counts, sigmas, n_fits):
        self.family, self.members, self.n_fits = family, members, n_fits
        self.counts = np.stack(counts)
        sigma = np.stack([np.atleast_2d(s) for s in sigmas])
        self.prec = np.linalg.inv(sigma)
        self.logdet = np.linalg.slogdet(sigma)[1]
        self.arrays = {name: np.stack([pack.arrays[prefix + name]
                                       for pack, prefix in members])
                       for name in _block(members[0][0].arrays, members[0][1])}
        self.grads = {}

    def evaluate(self, learn_rho: bool) -> np.ndarray:
        """(n_fits,) objective of each fit's blocks; writes the gradient
        into the views."""
        terms, grads = self.family(self.arrays, self.counts)
        obj = _per_fit(terms, self.n_fits)
        if learn_rho:
            rho = self.arrays["rho"]
            o, g = _penalty(rho.reshape(rho.shape[:2] + self.prec.shape[-1:]),
                            self.prec, self.logdet, self.n_fits)
            obj += o
            grads["rho"] += g.reshape(rho.shape)
        for name, view in self.grads.items():
            view[...] = grads[name]
        return obj


def _one_fit(post_mats: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """One fit's posterior matrices as a stack of one."""
    return {kind: mat[None] for kind, mat in post_mats.items()}


def _fuse_fits(packs: list[dict[str, _Pack]], fits: list[ModelParams],
               schema: Schema, obs: ObsIndex,
               post_mats: dict[str, np.ndarray], learn_rho: bool):
    """The M-step's groups over a stack of fits, the parameter vector x and
    gradient g they view, and the fit of each entry of x.

    packs and fits hold each fit's packs (every mu padded to the largest
    type count of the stack) and parameters; post_mats[kind] is (F, n, K),
    zero in padded columns.  Responsibilities are fixed during an M-step,
    so each term enters only through its expected counts, built once here.
    The blocks of every fit and property that share a family and table
    shape form one group, fit by fit.  Each optimized group array is a view
    into x, its gradient a view into g, and each pack array a row view of
    its group's array; without learn_rho the rho arrays stay out of x and
    keep their values."""
    n_ann, n_fits = len(obs.annotators), len(fits)
    counts = {}
    for spec in schema:
        table = obs.tables[spec.name]
        c = post_mats[spec.group][:, table.elem] * table.weight[:, None]
        for t in table.terms:
            counts[spec.name, t.prefix] = _counts(t, c, n_ann)
    blocks: dict[tuple, tuple[list, list, list]] = {}
    for f, (fit_packs, params) in enumerate(zip(packs, fits)):
        for spec in schema:
            pack = fit_packs[spec.name]
            sigma = {prefix: getattr(owner, attr + "sigma") for prefix, owner,
                     attr, _ in _leaves(params.props[spec.name])}
            for t in obs.tables[spec.name].terms:
                key = (t.family, pack.arrays[t.prefix + "mu"].shape, t.n_out)
                members, cts, sigmas = blocks.setdefault(key, ([], [], []))
                members.append((pack, t.prefix))
                cts.append(counts[spec.name, t.prefix][f])
                sigmas.append(sigma[t.prefix])
    groups = [_Group(key[0], *lists, n_fits) for key, lists in blocks.items()]
    opt = [(grp, name) for grp in groups for name in grp.arrays
           if learn_rho or name != "rho"]
    x = np.zeros(sum(grp.arrays[name].size for grp, name in opt))
    g = np.zeros_like(x)
    x_fit = np.zeros(len(x), dtype=int)
    end = 0
    for grp, name in opt:
        arr = grp.arrays[name]
        start, end = end, end + arr.size
        x[start:end] = arr.ravel()
        x_fit[start:end] = np.arange(arr.size) * n_fits // arr.size
        grp.arrays[name] = x[start:end].reshape(arr.shape)
        grp.grads[name] = g[start:end].reshape(arr.shape)
    for grp in groups:
        for i, (pack, prefix) in enumerate(grp.members):
            for name, arr in grp.arrays.items():
                pack.arrays[prefix + name] = arr[i]
    return groups, x, g, x_fit


def _fuse(packs: dict[str, _Pack], params: ModelParams, schema: Schema,
          obs: ObsIndex, post_mats: dict[str, np.ndarray], learn_rho: bool):
    """One fit's groups, parameter vector and gradient: a stack of one."""
    return _fuse_fits([packs], [params], schema, obs, _one_fit(post_mats),
                      learn_rho)[:3]


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


def _optimize_fits(fits: list[ModelParams], schema: Schema, obs: ObsIndex,
                   post_mats: dict[str, np.ndarray], config: FitConfig,
                   names: list[str] | None = None) -> np.ndarray:
    """Maximize each fit's expected weighted complete-data log-likelihood
    plus intercept penalty by one Adam run over the stack of fits, keeping
    each fit's best-objective iterate.  post_mats[kind] is (F, n, K), with
    K the largest type count of the kind among the fits and zeros in the
    columns of the others.  Writes each fit's result back into its
    parameters and returns the (F,) best objectives.  A non-finite objective
    raises ArithmeticError naming the fit by names, if given."""
    packs = _padded_packs(fits, schema, obs.annotators)
    groups, x, g, x_fit = _fuse_fits(packs, fits, schema, obs, post_mats,
                                     config.learn_rho)
    adam = Adam(x, config.adam_lr, config.adam_beta1, config.adam_beta2,
                config.adam_eps)
    best_obj, best = np.full(len(fits), -np.inf), x.copy()
    for it in range(config.m_step_iters + 1):
        if it:
            adam.step(g)
        obj = sum((grp.evaluate(config.learn_rho) for grp in groups),
                  np.zeros(len(fits)))
        bad = ~np.isfinite(obj)
        if bad.any():
            where = f" in {names[np.argmax(bad)]}" if names else ""
            raise ArithmeticError(
                f"non-finite M-step objective{where} (properties: "
                f"{[spec.name for spec in schema]})")
        better = obj > best_obj
        best_obj[better] = obj[better]
        np.copyto(best, x, where=better[x_fit])
    x[...] = best

    for params, fit_packs in zip(fits, packs):
        _params_from_packs(params, schema, obs.annotators, fit_packs)
        params.annotators = list(obs.annotators)
    return best_obj


def optimize_likelihoods(params: ModelParams, schema: Schema, obs: ObsIndex,
                         post_mats: dict[str, np.ndarray],
                         config: FitConfig) -> float:
    """Maximize the expected weighted complete-data log-likelihood plus the
    intercept penalty via Adam; keeps the best-objective iterate.  Writes
    the result back into params and returns the best objective: a stack of
    one fit."""
    return float(_optimize_fits([params], schema, obs, _one_fit(post_mats),
                                config)[0])


# ---------------------------------------------------------------------------
# E-step, prior updates, EM driver

def e_step(corpus: list[DocumentGraph], params: ModelParams, schema: Schema,
           config: FitConfig, obs: ObsIndex | None = None
           ) -> list[PosteriorSet]:
    """Loopy BP over a corpus, scored from its observation index obs."""
    if obs is None:
        obs = build_obs(corpus, schema, config.confidence_weighting)
    graphs = build_graphs(corpus, params, schema, config.window, obs)
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
    dev_obs = build_obs(dev, schema, config.confidence_weighting)
    params = init_params(schema, inventory, seed=config.seed,
                         mu_scale=config.init_mu_scale,
                         annotators=obs.annotators)
    train_trace: list[float] = []
    dev_trace: list[float] = []
    best_params = copy.deepcopy(params)
    stopped = "max-iters"
    for _ in range(config.max_em_iters):
        posts = e_step(train, params, schema, config, obs=obs)
        train_trace.append(total_evidence(posts))
        m_step(train, posts, params, schema, config, obs=obs)
        dev_posts = (e_step(dev, params, schema, config, obs=dev_obs)
                     if dev else [])
        dev_trace.append(total_evidence(dev_posts) if dev
                         else train_trace[-1])
        if len(dev_trace) >= 2 and dev_trace[-1] < dev_trace[-2]:
            stopped = "dev-decrease"
            break
        best_params = copy.deepcopy(params)
    final_posts = e_step(train, best_params, schema, config, obs=obs)
    return FitResult(params=best_params, train_evidence=train_trace,
                     dev_evidence=dev_trace, posteriors=final_posts,
                     stopped_reason=stopped)
