"""Annotation likelihood families with annotator random intercepts.

Five families: binary (logistic mixed model), categorical (softmax mixed
model), ordinal (cumulative linked logit), hurdle wrappers for gated
properties, and the temporal lock likelihood for 4-tuple annotations.
Every family exposes log-likelihoods and analytic gradients with respect
to the population parameters and the annotator intercepts.
"""

from __future__ import annotations

import numpy as np

from .corpus import (
    LOCK_OUTCOMES, ORDER_OUTCOMES, TemporalTuple,
)

LOGIT_CLAMP = 30.0       # logits are clamped here before exponentiation
SIGMA_FLOOR = 1e-4       # diagonal floor for the intercept covariance
_TINY = 1e-300


class ParameterError(ValueError):
    pass


def _clamp(z):
    return np.clip(z, -LOGIT_CLAMP, LOGIT_CLAMP)


def sigmoid(z):
    return 1.0 / (1.0 + np.exp(-_clamp(z)))


def log_sigmoid(z):
    # log(1/(1+e^-z)) = -log1p(e^-z)
    return -np.log1p(np.exp(-_clamp(z)))


def logsumexp(x, axis=None, keepdims=False):
    """log(sum(exp(x))) over axis, shifted by the (finite) maximum."""
    x = np.asarray(x, dtype=float)
    mx = np.max(x, axis=axis, keepdims=True)
    mx = np.where(np.isfinite(mx), mx, 0.0)
    out = np.log(np.sum(np.exp(x - mx), axis=axis, keepdims=True)) + mx
    return out if keepdims else np.squeeze(out, axis=axis)


def log_softmax(z, axis=-1):
    z = np.asarray(z, dtype=float)
    m = np.max(z, axis=axis, keepdims=True)
    return z - m - np.log(np.sum(np.exp(z - m), axis=axis, keepdims=True))


# ---------------------------------------------------------------------------
# binary

def binary_loglik(mu, rho_a, x):
    """log Bern(x | logit^-1(mu + rho_a)); mu may be a vector over types."""
    z = np.asarray(mu, dtype=float) + rho_a
    return log_sigmoid(z) if x else log_sigmoid(-z)


def binary_loglik_grad(mu, rho_a, x):
    """Gradient of binary_loglik wrt (mu, rho_a); the two are equal."""
    p = sigmoid(np.asarray(mu, dtype=float) + rho_a)
    g = (1.0 if x else 0.0) - p
    return g, g


# ---------------------------------------------------------------------------
# categorical

def categorical_loglik(mu, rho_a, x):
    """log softmax(mu + rho_a)[x]; mu may be (K, k) over types."""
    mu = np.asarray(mu, dtype=float)
    rho_a = np.asarray(rho_a, dtype=float)
    if mu.shape[-1] != rho_a.shape[-1]:
        raise ParameterError(
            f"length mismatch: mu {mu.shape[-1]} vs rho {rho_a.shape[-1]}")
    return log_softmax(mu + rho_a)[..., x]


def categorical_loglik_grad(mu, rho_a, x):
    """Gradient wrt (mu, rho_a): indicator - softmax; the two are equal."""
    mu = np.asarray(mu, dtype=float)
    p = np.exp(log_softmax(mu + np.asarray(rho_a, dtype=float)))
    g = -p
    g[..., x] += 1.0
    return g, g.copy()


# ---------------------------------------------------------------------------
# ordinal

def ordinal_cdf(mu, cutpoints, j):
    """P(x <= j) = logit^-1(cut_j - mu), with P(<=0)=0 and P(<=J)=1."""
    J = len(cutpoints) + 1
    if j <= 0:
        return np.zeros_like(np.asarray(mu, dtype=float))
    if j >= J:
        return np.ones_like(np.asarray(mu, dtype=float))
    return sigmoid(cutpoints[j - 1] - np.asarray(mu, dtype=float))


def ordinal_loglik(mu, cutpoints_a, j):
    """log P(x = j) under the cumulative linked logit model.

    mu may be a vector over types; cutpoints_a is the annotator's strictly
    increasing cutpoint vector of length J-1; j is a level in 1..J.
    """
    cutpoints_a = np.asarray(cutpoints_a, dtype=float)
    if np.any(np.diff(cutpoints_a) <= 0):
        raise ParameterError("cutpoints must be strictly increasing")
    J = len(cutpoints_a) + 1
    if not 1 <= j <= J:
        raise ParameterError(f"level {j} outside 1..{J}")
    hi = ordinal_cdf(mu, cutpoints_a, j)
    lo = ordinal_cdf(mu, cutpoints_a, j - 1)
    return np.log(np.maximum(hi - lo, _TINY))


def ordinal_loglik_grad(mu, cutpoints_a, j):
    """Gradient of ordinal_loglik wrt (mu, cutpoints_a)."""
    mu = np.asarray(mu, dtype=float)
    cutpoints_a = np.asarray(cutpoints_a, dtype=float)
    J = len(cutpoints_a) + 1
    hi = ordinal_cdf(mu, cutpoints_a, j)
    lo = ordinal_cdf(mu, cutpoints_a, j - 1)
    p = np.maximum(hi - lo, _TINY)
    dhi = hi * (1.0 - hi)        # d sigmoid(c - mu) / dc
    dlo = lo * (1.0 - lo)
    dmu = (dlo - dhi) / p        # d/dmu flips the sign
    dcut = np.zeros(cutpoints_a.shape if mu.ndim == 0
                    else (*np.shape(mu), J - 1))
    if j < J:
        dcut[..., j - 1] = dhi / p
    if j > 1:
        dcut[..., j - 2] = -dlo / p
    return dmu, dcut


def cutpoints_from_raw(raw):
    """Map unconstrained (first cutpoint, log gaps) to increasing cutpoints."""
    raw = np.asarray(raw, dtype=float)
    out = np.empty_like(raw)
    out[..., 0] = raw[..., 0]
    if raw.shape[-1] > 1:
        out[..., 1:] = raw[..., :1] + np.cumsum(np.exp(raw[..., 1:]), axis=-1)
    return out


def recenter(cut_raw, mu, where=True):
    """Shift location into mu, in place, so that the population cutpoints
    from cut_raw (..., J-1) average to zero; only the entries of mu
    (..., K) that where marks shift."""
    shift = cutpoints_from_raw(cut_raw).mean(axis=-1)
    cut_raw[..., 0] -= shift
    np.subtract(mu, shift[..., None], out=mu, where=where)


def raw_grad_from_cutpoint_grad(raw, dcut):
    """Chain rule from cutpoint-space gradients back to the raw space."""
    raw = np.asarray(raw, dtype=float)
    dcut = np.asarray(dcut, dtype=float)
    draw = np.empty_like(dcut)
    draw[..., 0] = dcut.sum(axis=-1)
    if raw.shape[-1] > 1:
        # raw[i>=1] feeds cutpoints j >= i through exp(raw[i])
        tail = np.cumsum(dcut[..., ::-1], axis=-1)[..., ::-1]
        draw[..., 1:] = np.exp(raw[..., 1:]) * tail[..., 1:]
    return draw


# ---------------------------------------------------------------------------
# hurdle

def hurdle_loglik(gate_mu, gate_rho_a, base_ll, absent):
    """Two-part likelihood: a Bernoulli gate decides applicability.

    base_ll is the base family's log-likelihood of the observed value
    (ignored when absent); all inputs may be vectors over types.
    """
    z = np.asarray(gate_mu, dtype=float) + gate_rho_a
    if absent:
        return log_sigmoid(-z)
    return log_sigmoid(z) + base_ll


def hurdle_gate_grad(gate_mu, gate_rho_a, absent):
    """Gradient of the gate term wrt (gate_mu, gate_rho_a)."""
    p = sigmoid(np.asarray(gate_mu, dtype=float) + gate_rho_a)
    g = -p if absent else 1.0 - p
    return g, np.copy(g)


# ---------------------------------------------------------------------------
# temporal lock likelihood

LOCK_INDEX = {name: i for i, name in enumerate(LOCK_OUTCOMES)}
ORDER_INDEX = {name: i for i, name in enumerate(ORDER_OUTCOMES)}


def temporal_loglik(mu_start, rho_start, mu_end, rho_end,
                    mu_order, rho_order, obs: TemporalTuple):
    """Sum of the lock-start, lock-end, and (when applicable) free-order
    categorical log terms; each mu may be (K, 3) over types."""
    ll = categorical_loglik(mu_start, rho_start, LOCK_INDEX[obs.lock_start])
    ll = ll + categorical_loglik(mu_end, rho_end, LOCK_INDEX[obs.lock_end])
    if obs.free_order is not None:
        ll = ll + categorical_loglik(mu_order, rho_order,
                                     ORDER_INDEX[obs.free_order])
    return ll


def temporal_loglik_grad(mu_start, rho_start, mu_end, rho_end,
                         mu_order, rho_order, obs: TemporalTuple):
    """Per-block gradients wrt the three mu vectors (akin for rho)."""
    g_start, _ = categorical_loglik_grad(mu_start, rho_start,
                                         LOCK_INDEX[obs.lock_start])
    g_end, _ = categorical_loglik_grad(mu_end, rho_end,
                                       LOCK_INDEX[obs.lock_end])
    if obs.free_order is not None:
        g_order, _ = categorical_loglik_grad(mu_order, rho_order,
                                             ORDER_INDEX[obs.free_order])
    else:
        g_order = np.zeros_like(np.asarray(mu_order, dtype=float))
    return g_start, g_end, g_order


def temporal_outcome_space(include_order_cases=True):
    """All discrete (lock_start, lock_end, free_order) outcomes with their
    geometric realizability; used for normalization checks and sampling.

    The free-order term applies exactly when the free start and free end
    belong to different events: both locks single and naming different
    events (lock_start=e1 frees e2's start; lock_end=e2 frees e1's end)."""
    outcomes = []
    for ls in LOCK_OUTCOMES:
        for le in LOCK_OUTCOMES:
            if ls != "both" and le != "both" and ls != le:
                for order in ORDER_OUTCOMES:
                    outcomes.append((ls, le, order))
            else:
                outcomes.append((ls, le, None))
    return outcomes


# ---------------------------------------------------------------------------
# intercept prior

def gaussian_penalty(rho, sigma):
    """log N(rho | 0, sigma); rho scalar or vector, sigma variance or
    covariance matrix."""
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    d = rho.shape[-1]
    chol = np.linalg.cholesky(sigma)
    sol = np.linalg.solve(chol, rho)
    logdet = 2.0 * np.sum(np.log(np.diag(chol)))
    return float(-0.5 * (sol @ sol) - 0.5 * logdet - 0.5 * d * np.log(2 * np.pi))


def gaussian_penalty_grad(rho, sigma):
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    g = -np.linalg.solve(sigma, rho)
    return g if g.shape != (1,) else float(g[0])


def update_sigma(rhos):
    """Closed-form covariance update: empirical second moment of the
    current intercepts rhos (..., A, d) with a floored diagonal, for each
    index of any leading axes."""
    rhos = np.atleast_2d(np.asarray(rhos, dtype=float))
    d = rhos.shape[-1]
    if rhos.shape[-2] == 0:
        return np.tile(np.eye(d), rhos.shape[:-2] + (1, 1))
    cov = np.swapaxes(rhos, -1, -2) @ rhos / rhos.shape[-2]
    # additive ridge: keeps the matrix invertible when there are fewer
    # annotators than dimensions, and floors every diagonal entry
    cov[..., np.arange(d), np.arange(d)] += SIGMA_FLOOR
    return cov
