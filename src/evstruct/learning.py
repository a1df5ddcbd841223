"""EM driver: loopy-BP E-step, Adam M-step over likelihood parameters with
confidence-weighted expected log-likelihood, closed-form prior updates, and
dev-evidence stopping.

The M-step objective contracts the outcome tables that params computes,
one table function per response family, with expected counts per
(annotator, type, outcome): the responsibility-weighted rows the E-step
scores, summed once per M-step.  Its machinery (objective, gradients,
Adam) runs over a stack of fits: a full model fit is a stack of one, and
type-count selection stacks every restart of every candidate type count.
Either EM keeps one M-step state: fit writes it back after each M-step,
before the next refit, and selection once, at the end.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import likelihoods as lk
from .corpus import DocumentGraph
from .factorgraph import PosteriorSet, compile_corpus
from .params import (  # noqa: F401  (re-exports for callers and tests)
    ModelParams, ObsIndex, OrdinalParams, PriorParams, PropTable, Ranged,
    Term, TypeInventory, _Pack, _block, _leaves, _packs_from_params,
    _padded_packs, build_obs, init_params, item_logliks, setting,
)
from .schema import Schema

_THETA_FLOOR = 1e-10


@dataclass
class FitConfig(Ranged):
    window: int = setting(">= 1", 2)
    max_em_iters: int = setting(">= 1", 20)
    adam_lr: float = setting("in (0, inf)", 0.05)
    # Adam's decay rates and epsilon are fixed: class constants
    adam_beta1: ClassVar[float] = 0.9
    adam_beta2: ClassVar[float] = 0.999
    adam_eps: ClassVar[float] = 1e-8
    m_step_iters: int = setting(">= 0", 200)
    bp_max_iters: int = setting(">= 1", 200)
    # a damping of 1 keeps every message at its start: uniform output
    bp_damping: float = setting("in [0, 1)", 0.1)
    seed: int = setting(">= 0", 0)
    confidence_weighting: bool = True
    learn_rho: bool = True
    threads: int = 1             # accepted for compatibility; no effect


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
    """Write copies of the packed arrays back into params: each block's mu
    (without any padding rows), rho dict (in annotators order) and sigma
    re-estimated from the rho rows, with ordinal cutpoints recentred."""
    for spec in schema:
        arrays = packs[spec.name].arrays
        k = params.inventory.k_for(spec.group)
        for prefix, owner, attr, width in _leaves(params.props[spec.name]):
            setattr(owner, attr + "mu", np.array(arrays[prefix + "mu"][:k]))
            mat = arrays[prefix + "rho"]
            setattr(owner, attr + "rho",
                    {a: float(mat[i]) if width is None else np.array(mat[i])
                     for i, a in enumerate(annotators)})
            sigma = lk.update_sigma(mat.reshape(len(mat), width or 1))
            setattr(owner, attr + "sigma",
                    float(sigma[0, 0]) if width is None else sigma)
            if isinstance(owner, OrdinalParams):
                owner.cut_raw = np.array(arrays[prefix + "cut_raw"])
                owner.recenter()


def _counts(term: Term, c: np.ndarray, n_ann: int) -> np.ndarray:
    """(..., A, K, O) expected counts of one term: its rows' coefficients
    c (..., N, K) summed per annotator, type and outcome, for each index of
    the leading (fit) axes."""
    lead, k, n_out = c.shape[:-2], c.shape[-1], term.n_out
    n_fits = int(np.prod(lead))
    # the flat (fit, annotator, type, outcome) index of each coefficient
    row = term.ann * (k * n_out) + term.out
    idx = ((np.arange(n_fits) * (n_ann * k * n_out))[:, None, None]
           + row[:, None]) + np.arange(k) * n_out
    # a term that covers every row reads c as it is, without a gather
    c = c if len(term.rows) == c.shape[-2] else c[..., term.rows, :]
    return np.bincount(idx.ravel(), weights=c.ravel(),
                       minlength=n_fits * n_ann * k * n_out
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


def _precision(sigma: np.ndarray, n_ann: int, n_fits: int = 1):
    """What _penalty needs of covariances sigma (..., d, d), each over n_ann
    intercept rows: their negated inverses, and the (n_fits,) normalizer
    per fit of n_fits sharing the leading axis."""
    logdet = np.linalg.slogdet(sigma)[1]
    return -np.linalg.inv(sigma), 0.5 * n_ann * (
        _per_fit(logdet, n_fits)
        + np.size(logdet) // n_fits * sigma.shape[-1] * np.log(2 * np.pi))


def _penalty(rho, neg_prec, const, n_fits: int = 1):
    """Summed Gaussian log-density of intercept rows rho (..., A, d), per
    fit of n_fits sharing the leading axis, and its gradient, given
    _precision of the covariances."""
    grad = (rho * neg_prec if rho.shape[-1] == 1
            else np.einsum("...ad,...de->...ae", rho, neg_prec))
    return 0.5 * _per_fit(grad * rho, n_fits) - const, grad


def _penalty_terms(pack: _Pack, params: ModelParams):
    """Gaussian intercept penalties for one property, each block a group of
    one; returns (objective, grads-by-array-name)."""
    obj = 0.0
    grads = {}
    for prefix, owner, attr, _ in _leaves(params.props[pack.name]):
        mat = pack.arrays[prefix + "rho"]
        sigma = np.atleast_2d(getattr(owner, attr + "sigma"))
        o, g = _penalty(mat.reshape(len(mat), len(sigma)),
                        *_precision(sigma, len(mat)))
        obj += o[0]
        grads[prefix + "rho"] = g.reshape(mat.shape)
    return obj, grads


class _Group:
    """Parameter blocks of one family and table shape, stacked on a leading
    axis, fit by fit: the (pack, array prefix) of each block, arrays and
    gradient views by short name, expected counts (P, A, K, O) and their
    totals over outcomes, which mu rows are real rather than padding, and
    the _precision of each block's intercept covariance, which stays fixed
    during an M-step.  Every fit of the stack owns the same number of
    consecutive blocks."""

    def __init__(self, family, n_out, members, sigmas, ks, n_fits):
        self.family, self.members, self.n_fits = family, members, n_fits
        self.arrays = {name: np.stack([pack.arrays[prefix + name]
                                       for pack, prefix in members])
                       for name in _block(members[0][0].arrays, members[0][1])}
        mu, rho = self.arrays["mu"], self.arrays["rho"]
        self.counts = np.zeros(rho.shape[:2] + mu.shape[1:2] + (n_out,))
        self.total = self.counts.sum(axis=-1)
        self.real = np.arange(mu.shape[1]) < np.array(ks)[:, None]
        self.grads = {}
        self.neg_prec, self.const = _precision(
            np.stack([np.atleast_2d(s) for s in sigmas]), rho.shape[1],
            n_fits)

    def evaluate(self, learn_rho: bool) -> np.ndarray:
        """(n_fits,) objective of each fit's blocks; writes the gradient
        into the views."""
        terms, grads = self.family(self.arrays, self.counts, self.total)
        obj = _per_fit(terms, self.n_fits)
        if learn_rho:
            rho = self.arrays["rho"]
            o, g = _penalty(rho.reshape(rho.shape[:2]
                                        + self.neg_prec.shape[-1:]),
                            self.neg_prec, self.const, self.n_fits)
            obj += o
            grads["rho"] += g.reshape(rho.shape)
        for name, view in self.grads.items():
            view[...] = grads[name]
        return obj

    def refit(self) -> None:
        """Re-estimate each block's intercept covariance from its rho rows
        and recentre ordinal cutpoints in place, as _params_from_packs
        does; padding rows of mu stay zero."""
        rho = self.arrays["rho"]
        self.neg_prec, self.const = _precision(
            lk.update_sigma(rho.reshape(rho.shape[:2]
                                        + self.neg_prec.shape[-1:])),
            rho.shape[1], self.n_fits)
        if "cut_raw" in self.arrays:
            lk.recenter(self.arrays["cut_raw"], self.arrays["mu"], self.real)


def _one_fit(post_mats: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """One fit's posterior matrices as a stack of one."""
    return {kind: mat[None] for kind, mat in post_mats.items()}


def _fuse_fits(packs: list[dict[str, _Pack]], fits: list[ModelParams],
               schema: Schema, obs: ObsIndex, learn_rho: bool):
    """The M-step's groups over a stack of fits, the parameter vector x and
    gradient g they view, and the fit of each entry of x.

    packs and fits hold each fit's packs (every mu padded to the largest
    type count of the stack) and parameters.  The blocks of every fit and
    property that share a family and table shape form one group, fit by
    fit.  Each optimized group array is a view into x, its gradient a view
    into g, and each pack array a row view of its group's array; without
    learn_rho the rho arrays stay out of x and keep their values.  The
    expected counts are filled in by _fill_counts."""
    n_fits = len(fits)
    blocks: dict[tuple, tuple[list, list, list]] = {}
    for fit_packs, params in zip(packs, fits):
        for spec in schema:
            pack = fit_packs[spec.name]
            k = params.inventory.k_for(spec.group)
            sigma = {prefix: getattr(owner, attr + "sigma") for prefix, owner,
                     attr, _ in _leaves(params.props[spec.name])}
            for t in obs.tables[spec.name].terms:
                key = (t.family, pack.arrays[t.prefix + "mu"].shape, t.n_out)
                members, sigmas, ks = blocks.setdefault(key, ([], [], []))
                members.append((pack, t.prefix))
                sigmas.append(sigma[t.prefix])
                ks.append(k)
    groups = [_Group(key[0], key[2], *lists, n_fits)
              for key, lists in blocks.items()]
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


def _fill_counts(groups: list[_Group], schema: Schema, obs: ObsIndex,
                 post_mats: dict[str, np.ndarray]) -> None:
    """Each group's expected counts under post_mats[kind] (F, n, K), zero in
    padded columns.  Responsibilities are fixed during an M-step, so each
    term enters only through these counts, built once per M-step."""
    n_ann = len(obs.annotators)
    counts = {}
    for spec in schema:
        table = obs.tables[spec.name]
        c = post_mats[spec.group][:, table.elem] * table.weight[:, None]
        for t in table.terms:
            counts[spec.name, t.prefix] = _counts(t, c, n_ann)
    for grp in groups:
        per_fit = len(grp.members) // grp.n_fits
        for j, (pack, prefix) in enumerate(grp.members[:per_fit]):
            grp.counts[j::per_fit] = counts[pack.name, prefix]
        grp.counts.sum(axis=-1, out=grp.total)


def _fuse(packs: dict[str, _Pack], params: ModelParams, schema: Schema,
          obs: ObsIndex, post_mats: dict[str, np.ndarray], learn_rho: bool):
    """One fit's groups, parameter vector and gradient: a stack of one."""
    groups, x, g, _ = _fuse_fits([packs], [params], schema, obs, learn_rho)
    _fill_counts(groups, schema, obs, _one_fit(post_mats))
    return groups, x, g


class Adam:
    """Plain full-batch Adam ascent on one parameter vector, in place."""

    def __init__(self, x: np.ndarray, lr: float, beta1: float, beta2: float,
                 eps: float):
        self.x = x
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        # the first and second moments as two rows, updated together
        self.moments = np.zeros((2,) + x.shape)
        self.work = np.empty_like(self.moments)
        self.decay = np.array([[beta1], [beta2]])
        self.gain = np.array([[1 - beta1], [1 - beta2]])
        self.bias = np.ones((2, 1))
        self.t = 0

    def step(self, g: np.ndarray) -> None:
        self.t += 1
        mv, work = self.moments, self.work
        mv *= self.decay                            # b1 * m, b2 * v
        np.multiply(self.gain, g, out=work)         # (1 - b1) * g, ...
        work[1] *= g
        mv += work
        self.bias[0, 0] = 1 - self.beta1 ** self.t
        self.bias[1, 0] = 1 - self.beta2 ** self.t
        np.divide(mv, self.bias, out=work)
        m_hat, v_hat = work                         # bias-corrected
        m_hat *= self.lr
        np.sqrt(v_hat, out=v_hat)
        v_hat += self.eps
        m_hat /= v_hat
        self.x += m_hat


class _MStep:
    """The M-step of a stack of fits, kept across EM iterations.

    The padded packs, the fused groups, the parameter vector x, its
    gradient g and the fit of each entry of x are built once from the
    fits' parameters; write_back writes copies of x into them, once at
    the end (type-count selection) or after every run (fit).  Between
    M-steps, refit re-estimates the intercept covariances and recentres
    the cutpoints in place, as write_back does in the parameters, so a
    write_back must come before the next refit.  stacked holds each
    property's arrays of every fit as (F, ...) views of the group arrays,
    which the E-step scores."""

    def __init__(self, fits: list[ModelParams], schema: Schema,
                 obs: ObsIndex, config: FitConfig,
                 names: list[str] | None = None):
        self.fits, self.schema, self.obs = fits, schema, obs
        self.config, self.names = config, names
        self.packs = _padded_packs(fits, schema, obs.annotators)
        self.groups, self.x, self.g, self.x_fit = _fuse_fits(
            self.packs, fits, schema, obs, config.learn_rho)
        self.stacked: dict[str, _Pack] = {}
        for grp in self.groups:
            per_fit = len(grp.members) // len(fits)
            for j, (pack, prefix) in enumerate(grp.members[:per_fit]):
                arrays = self.stacked.setdefault(
                    pack.name, _Pack(pack.name, pack.spec, {})).arrays
                for name, arr in grp.arrays.items():
                    arrays[prefix + name] = arr[j::per_fit]

    def run(self, post_mats: dict[str, np.ndarray]) -> np.ndarray:
        """Maximize each fit's expected weighted complete-data
        log-likelihood plus intercept penalty by one fresh Adam run over
        the stack, leaving x at each fit's best-objective iterate, and
        return the (F,) best objectives.  post_mats[kind] is (F, n, K),
        with K the largest type count of the kind among the fits and zeros
        in the columns of the others.  A non-finite objective raises
        ArithmeticError naming the fit by names, if given."""
        _fill_counts(self.groups, self.schema, self.obs, post_mats)
        x, n_fits, config = self.x, len(self.fits), self.config
        adam = Adam(x, config.adam_lr, config.adam_beta1, config.adam_beta2,
                    config.adam_eps)
        best_obj, best = np.full(n_fits, -np.inf), x.copy()
        for it in range(config.m_step_iters + 1):
            if it:
                adam.step(self.g)
            obj = sum(grp.evaluate(config.learn_rho) for grp in self.groups)
            if not np.isfinite(obj).all():
                where = (f" in {self.names[np.argmin(np.isfinite(obj))]}"
                         if self.names else "")
                raise ArithmeticError(
                    f"non-finite M-step objective{where} (properties: "
                    f"{[spec.name for spec in self.schema]})")
            better = obj > best_obj
            np.copyto(best_obj, obj, where=better)
            np.copyto(best, x, where=better[self.x_fit])
        x[...] = best
        return best_obj

    def refit(self) -> None:
        for grp in self.groups:
            grp.refit()

    def write_back(self) -> None:
        for params, packs in zip(self.fits, self.packs):
            _params_from_packs(params, self.schema, self.obs.annotators,
                               packs)
            params.annotators = list(self.obs.annotators)


def optimize_likelihoods(params: ModelParams, schema: Schema, obs: ObsIndex,
                         post_mats: dict[str, np.ndarray],
                         config: FitConfig) -> float:
    """Maximize the expected weighted complete-data log-likelihood plus the
    intercept penalty via Adam; keeps the best-objective iterate.  Writes
    the result back into params and returns the best objective: a stack of
    one fit."""
    mstep = _MStep([params], schema, obs, config)
    obj = mstep.run(_one_fit(post_mats))
    mstep.write_back()
    return float(obj[0])


# ---------------------------------------------------------------------------
# E-step, prior updates, EM driver

def e_step(corpus: list[DocumentGraph], params: ModelParams, schema: Schema,
           config: FitConfig, obs: ObsIndex | None = None
           ) -> list[PosteriorSet]:
    """Loopy BP over a corpus, scored from its observation index obs, on
    the graph compiled once per obs, window and type counts."""
    if obs is None:
        obs = build_obs(corpus, schema, config.confidence_weighting)
    graph = compile_corpus(corpus, params.inventory, config.window, obs)
    return graph.bp(graph.potentials(params, schema, obs),
                    config.bp_max_iters, config.bp_damping)


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
                  counts: dict[str, np.ndarray]) -> None:
    """Closed-form prior updates: each table's expected counts
    (CorpusGraph.prior_counts) normalized on its last axis."""
    params.priors = PriorParams.from_tables(
        {name: _normalize_counts(c) for name, c in counts.items()})


def m_step(corpus: list[DocumentGraph], posteriors: list[PosteriorSet],
           params: ModelParams, schema: Schema, config: FitConfig,
           obs: ObsIndex | None = None) -> ModelParams:
    """One EM maximization step: closed-form priors, Adam likelihoods."""
    if obs is None:
        obs = build_obs(corpus, schema, config.confidence_weighting)
    graph = compile_corpus(corpus, params.inventory, config.window, obs)
    update_priors(params, graph.prior_counts(posteriors))
    post_mats = posterior_matrices(obs, posteriors, params.inventory)
    optimize_likelihoods(params, schema, obs, post_mats, config)
    return params


def total_evidence(posteriors: list[PosteriorSet]) -> float:
    return float(sum(p.evidence for p in posteriors))


def fit(train: list[DocumentGraph], dev: list[DocumentGraph],
        inventory: TypeInventory, schema: Schema,
        config: FitConfig) -> FitResult:
    """EM with loopy-BP E-steps and dev-evidence stopping; returns the
    parameters from the best dev iteration.  One M-step state, kept for
    the whole EM, is written back after each M-step, before the next refit."""
    if not train:
        raise ValueError("empty training corpus")
    obs = build_obs(train, schema, config.confidence_weighting)
    dev_obs = build_obs(dev, schema, config.confidence_weighting)
    params = init_params(schema, inventory, seed=config.seed,
                         annotators=obs.annotators)
    graph = compile_corpus(train, inventory, config.window, obs)
    mstep = _MStep([params], schema, obs, config)
    train_trace: list[float] = []
    dev_trace: list[float] = []
    best_params = copy.deepcopy(params)
    stopped = "max-iters"
    for it in range(config.max_em_iters):
        if it:
            mstep.refit()
        posts = e_step(train, params, schema, config, obs=obs)
        train_trace.append(total_evidence(posts))
        update_priors(params, graph.prior_counts(posts))
        mstep.run(_one_fit(posterior_matrices(obs, posts, inventory)))
        mstep.write_back()
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
