"""Model parameters: type inventory, type priors, and per-property
likelihood parameters, with checkpoint serialization; and observation
tables with their vectorized per-row log-likelihoods, the one scoring path
shared by the E-step unary potentials, the M-step and type-count selection.

Document edges are directed from the later (current) predicate to the
earlier enqueued node, matching the generative story; relation priors are
stored blockwise by the endpoint kinds (event/entity).
"""

from __future__ import annotations

from dataclasses import dataclass, field
import json
from typing import Union

import numpy as np

from . import likelihoods as lk
from .corpus import ConsistencyError, DocumentGraph, normalize_temporal
from .schema import (
    BINARY, CATEGORICAL, GROUP_FOR_ATTACH, ORDINAL, TEMPORAL, Schema,
)

CHECKPOINT_VERSION = 1

REL_BLOCKS = ("ee", "en")  # event x event, event x entity


class CheckpointError(ValueError):
    """A checkpoint that is malformed or does not fit the schema."""


@dataclass(frozen=True)
class TypeInventory:
    k_event: int
    k_entity: int
    k_role: int
    k_rel: int

    def __post_init__(self):
        for name, k in vars(self).items():
            if k < 1:
                raise ValueError(f"{name} must be >= 1, got {k}")

    def k_for(self, group: str) -> int:
        return {"event": self.k_event, "entity": self.k_entity,
                "role": self.k_role, "rel": self.k_rel}[group]


@dataclass
class PriorParams:
    theta_event: np.ndarray    # (Ke,)
    theta_entity: np.ndarray   # (Kn,)
    theta_role: np.ndarray     # (Ke, Kn, Kr), simplex on last axis
    theta_rel: dict            # block -> (Ka, Kb, Kq), simplex on last axis

    @staticmethod
    def uniform(inv: TypeInventory) -> "PriorParams":
        ke, kn, kr, kq = inv.k_event, inv.k_entity, inv.k_role, inv.k_rel
        return PriorParams(
            theta_event=np.full(ke, 1.0 / ke),
            theta_entity=np.full(kn, 1.0 / kn),
            theta_role=np.full((ke, kn, kr), 1.0 / kr),
            theta_rel={
                "ee": np.full((ke, ke, kq), 1.0 / kq),
                "en": np.full((ke, kn, kq), 1.0 / kq),
            },
        )


@dataclass
class BinaryParams:
    mu: np.ndarray                  # (K,)
    rho: dict[str, float] = field(default_factory=dict)
    sigma: float = 1.0

    def rho_of(self, annotator: str) -> float:
        return self.rho.get(annotator, 0.0)


@dataclass
class CategoricalParams:
    mu: np.ndarray                  # (K, k)
    rho: dict[str, np.ndarray] = field(default_factory=dict)
    sigma: np.ndarray = None        # (k, k)

    def __post_init__(self):
        if self.sigma is None:
            self.sigma = np.eye(self.mu.shape[-1])

    def rho_of(self, annotator: str) -> np.ndarray:
        r = self.rho.get(annotator)
        return r if r is not None else np.zeros(self.mu.shape[-1])


@dataclass
class OrdinalParams:
    mu: np.ndarray                  # (K,)
    cut_raw: np.ndarray             # (J-1,), population (first, log gaps)
    rho: dict[str, np.ndarray] = field(default_factory=dict)  # raw offsets
    sigma: np.ndarray = None        # (J-1, J-1)

    def __post_init__(self):
        if self.sigma is None:
            self.sigma = np.eye(len(self.cut_raw))

    def rho_of(self, annotator: str) -> np.ndarray:
        r = self.rho.get(annotator)
        return r if r is not None else np.zeros(len(self.cut_raw))

    def cutpoints(self, annotator: str) -> np.ndarray:
        return lk.cutpoints_from_raw(self.cut_raw + self.rho_of(annotator))

    def recenter(self) -> None:
        """Shift location into mu so population cutpoints average to zero."""
        lk.recenter(self.cut_raw, self.mu)


@dataclass
class HurdleParams:
    gate_mu: np.ndarray             # (K,)
    gate_rho: dict[str, float] = field(default_factory=dict)
    gate_sigma: float = 1.0
    base: Union[BinaryParams, CategoricalParams, OrdinalParams] = None

    def gate_rho_of(self, annotator: str) -> float:
        return self.gate_rho.get(annotator, 0.0)


@dataclass
class TemporalParams:
    start: CategoricalParams        # mu (K, 3) over lock outcomes
    end: CategoricalParams
    order: CategoricalParams


PropParams = Union[BinaryParams, CategoricalParams, OrdinalParams,
                   HurdleParams, TemporalParams]


@dataclass
class ModelParams:
    inventory: TypeInventory
    priors: PriorParams
    props: dict[str, PropParams]
    annotators: list[str] = field(default_factory=list)


def raw_from_cutpoints(cutpoints) -> np.ndarray:
    cutpoints = np.asarray(cutpoints, dtype=float)
    raw = np.empty_like(cutpoints)
    raw[0] = cutpoints[0]
    if len(cutpoints) > 1:
        raw[1:] = np.log(np.diff(cutpoints))
    return raw


def default_cut_raw(n_levels: int) -> np.ndarray:
    cuts = np.linspace(-2.0, 2.0, n_levels - 1)
    return raw_from_cutpoints(cuts)


def init_prop_params(spec, k: int, draw) -> PropParams:
    """One property's parameters for k types: each mu drawn by
    draw(shape), default cutpoints, no annotator intercepts."""
    def categorical(nc):
        return CategoricalParams(mu=draw((k, nc)))

    if spec.response == BINARY:
        base = BinaryParams(mu=draw(k))
    elif spec.response == CATEGORICAL:
        base = categorical(spec.n_categories)
    elif spec.response == ORDINAL:
        base = OrdinalParams(mu=draw(k),
                             cut_raw=default_cut_raw(spec.n_levels))
    elif spec.response == TEMPORAL:
        base = TemporalParams(start=categorical(3), end=categorical(3),
                              order=categorical(3))
    else:  # pragma: no cover
        raise ValueError(spec.response)
    if spec.gated:
        return HurdleParams(gate_mu=draw(k), base=base)
    return base


def init_params(schema: Schema, inv: TypeInventory, seed: int = 0,
                mu_scale: float = 0.5,
                annotators: list[str] | None = None) -> ModelParams:
    """Symmetric start with small symmetry-breaking noise on mu; uniform
    priors; zero annotator intercepts."""
    rng = np.random.default_rng(seed)
    props = {}
    for spec in schema:
        props[spec.name] = init_prop_params(
            spec, inv.k_for(spec.group),
            lambda shape: rng.normal(0.0, mu_scale, size=shape))
    return ModelParams(inventory=inv, priors=PriorParams.uniform(inv),
                       props=props, annotators=list(annotators or []))


# ---------------------------------------------------------------------------
# observation tables and per-row log-likelihoods across candidate types

@dataclass
class Term:
    """One additive term of a property's row log-likelihood: the rows it
    covers, each with its annotator and outcome.  The term depends on a row
    only through that pair, so it is one (A, K, O) log-probability table."""
    prefix: str                 # parameter block: "gate_", "", "start." ...
    family: object              # the block's table function
    n_out: int                  # outcomes O
    rows: np.ndarray            # (n,) rows of the property table
    ann: np.ndarray             # (n,) annotator index
    out: np.ndarray             # (n,) outcome index


@dataclass
class PropTable:
    name: str
    spec: object
    elem: np.ndarray            # (N,) row into the kind's element registry
    present: np.ndarray         # (N,) bool; False only for hurdle-absent rows
    weight: np.ndarray          # (N,) confidence weight
    terms: list[Term]           # gate first, then the base blocks


@dataclass
class ObsIndex:
    elements: dict[str, list[tuple[int, str]]]   # kind -> [(doc i, element)]
    tables: dict[str, PropTable]
    annotators: list[str]


def _base_terms(spec, values: list) -> list[tuple]:
    """(prefix, table function, outcomes, (n,) outcome index of each
    observed value, -1 where the term does not apply) of each base
    parameter block of a property."""
    if spec.response == BINARY:
        return [("", _binary_table, 2,
                 np.array(values, dtype=bool).astype(int))]
    if spec.response == CATEGORICAL:
        return [("", _categorical_table, spec.n_categories,
                 np.array(values, dtype=int))]
    if spec.response == ORDINAL:
        return [("", _ordinal_table, spec.n_levels,
                 np.array(values, dtype=int) - 1)]
    spans = [normalize_temporal(v) for v in values]
    # the free order is None when the locks leave no free pair
    return [(f"{block}.", _categorical_table, len(index),
             np.array([index.get(getattr(o, attr), -1) for o in spans],
                      dtype=int))
            for block, attr, index in (
                ("start", "lock_start", lk.LOCK_INDEX),
                ("end", "lock_end", lk.LOCK_INDEX),
                ("order", "free_order", lk.ORDER_INDEX))]


def build_obs(corpus: list[DocumentGraph], schema: Schema,
              confidence_weighting: bool = True) -> ObsIndex:
    """Flatten a corpus into per-property observation tables.

    Rows are the observed answers plus one hurdle-absent row per annotator
    who answered a gated property's parent away from the gate; each row
    carries its confidence weight (the gate parent's for absent rows).
    Every parameter block of a property gets one term, with no rows where
    nothing was observed for it."""
    elements: dict[str, list[tuple[int, str]]] = {
        "event": [], "entity": [], "role": [], "rel": []}
    ann_index: dict[str, int] = {}     # numbered in order of appearance
    # per property: element, annotator, present, value and weight columns
    cols: dict[str, tuple[list, ...]] = {
        p.name: ([], [], [], [], []) for p in schema}

    def add_row(name, e, rec, present):
        """One row of property name; an absent row carries the record of
        its gate parent, whose annotator and weight it takes."""
        if confidence_weighting and rec.ridit_confidence is None:
            raise ValueError(
                f"annotation {rec.property} on {rec.element} lacks a ridit "
                f"confidence; ridit score the corpus first")
        row = (e, ann_index.setdefault(rec.annotator, len(ann_index)),
               present, rec.value if present else None,
               float(rec.ridit_confidence) if confidence_weighting else 1.0)
        for col, value in zip(cols[name], row):
            col.append(value)

    gated = [spec for spec in schema if spec.gated]
    for doc_i, doc in enumerate(corpus):
        kinds = doc.element_kinds()
        by_element = doc.annotations_by_element()
        for element, records in sorted(by_element.items()):
            if element not in kinds:
                raise ConsistencyError(
                    f"{doc.doc_id}: annotation on element {element!r} which "
                    f"is not an element of the document")
            kind = GROUP_FOR_ATTACH[kinds[element]]
            e = len(elements[kind])
            elements[kind].append((doc_i, element))
            by_prop: dict[str, list] = {}
            for rec in records:
                by_prop.setdefault(rec.property, []).append(rec)
                add_row(schema[rec.property].name, e, rec, True)
            for spec in gated:
                parent_name, gate_value = spec.gate
                answered = {r.annotator for r in by_prop.get(spec.name, ())}
                for parent in by_prop.get(parent_name, ()):
                    if (bool(parent.value) != gate_value
                            and parent.annotator not in answered):
                        add_row(spec.name, e, parent, False)

    tables = {}
    for spec in schema:
        elem, ann, present, values, weight = cols[spec.name]
        elem, ann, present, weight = (
            np.array(col, dtype=dtype) for col, dtype in (
                (elem, int), (ann, int), (present, bool), (weight, float)))
        terms = []
        if spec.gated:
            terms.append(Term("gate_", _binary_table, 2, np.arange(len(elem)),
                              ann, present.astype(int)))
        sel = np.flatnonzero(present)
        for prefix, family, n_out, out in _base_terms(
                spec, [values[i] for i in sel]):
            rows_t = sel[out >= 0]
            terms.append(Term(prefix, family, n_out, rows_t, ann[rows_t],
                              out[out >= 0]))
        tables[spec.name] = PropTable(spec.name, spec, elem, present, weight,
                                      terms)
    return ObsIndex(elements, tables, list(ann_index))


@dataclass
class _Pack:
    """Numpy views of one property's optimizable arrays."""
    name: str
    spec: object
    arrays: dict[str, np.ndarray]


def _leaves(pp: PropParams):
    """(array prefix, owner, attribute prefix, rho width) for each
    mu/rho/sigma block of one property's parameters, gate first; the width
    is None for scalar intercepts.  Every conversion between the parameter
    tree and its packed arrays walks this."""
    if isinstance(pp, HurdleParams):
        yield "gate_", pp, "gate_", None
        yield from _leaves(pp.base)
    elif isinstance(pp, TemporalParams):
        for block in ("start", "end", "order"):
            for _, owner, attr, width in _leaves(getattr(pp, block)):
                yield f"{block}.", owner, attr, width
    elif isinstance(pp, BinaryParams):
        yield "", pp, "", None
    elif isinstance(pp, CategoricalParams):
        yield "", pp, "", pp.mu.shape[-1]
    elif isinstance(pp, OrdinalParams):
        yield "", pp, "", len(pp.cut_raw)
    else:  # pragma: no cover
        raise TypeError(type(pp))


def _rho_matrix(rho: dict, annotators: list[str], dim: int | None) -> np.ndarray:
    if dim is None:
        out = np.zeros(len(annotators))
        for i, a in enumerate(annotators):
            out[i] = rho.get(a, 0.0)
    else:
        out = np.zeros((len(annotators), dim))
        for i, a in enumerate(annotators):
            if a in rho:
                out[i] = rho[a]
    return out


def _packs_from_params(params: ModelParams, schema: Schema,
                       annotators: list[str]) -> dict[str, _Pack]:
    packs = {}
    for spec in schema:
        arrays = {}
        for prefix, owner, attr, width in _leaves(params.props[spec.name]):
            arrays[prefix + "mu"] = np.array(getattr(owner, attr + "mu"),
                                             dtype=float)
            if isinstance(owner, OrdinalParams):
                arrays[prefix + "cut_raw"] = np.array(owner.cut_raw,
                                                      dtype=float)
            arrays[prefix + "rho"] = _rho_matrix(getattr(owner, attr + "rho"),
                                                 annotators, width)
        packs[spec.name] = _Pack(spec.name, spec, arrays)
    return packs


def _padded_packs(fits: list[ModelParams], schema: Schema,
                  annotators: list[str]) -> list[dict[str, _Pack]]:
    """Each fit's packs, every mu padded with zero rows up to the largest
    type count of its group among the fits, so that the fits stack."""
    k_max = {spec.group: max(p.inventory.k_for(spec.group) for p in fits)
             for spec in schema}
    out = [_packs_from_params(params, schema, annotators) for params in fits]
    for params, packs in zip(fits, out):
        for pack in packs.values():
            pad = k_max[pack.spec.group] - params.inventory.k_for(
                pack.spec.group)
            for name, arr in pack.arrays.items():
                if pad and name.endswith("mu"):
                    pack.arrays[name] = np.concatenate(
                        [arr, np.zeros((pad,) + arr.shape[1:])])
    return out


def _block(arrays: dict[str, np.ndarray], prefix: str) -> dict[str, np.ndarray]:
    """One parameter block's arrays under their short names."""
    return {name: arrays[prefix + name] for name in ("mu", "cut_raw", "rho")
            if prefix + name in arrays}


# one table function per response family: the (..., A, K, O) log-probability
# of each outcome O for each annotator A under each type K, with any leading
# axes stacking blocks of one shape; given expected counts n of that shape,
# also the products n * table, which the caller sums, and the gradient of
# their sum by short array name.  total is n summed over outcomes, which a
# caller that holds n fixed passes in.

def _binary_table(b, n=None, total=None):
    z = b["mu"][..., None, :] + b["rho"][..., :, None]         # (..., A, K)
    np.minimum(np.maximum(z, -lk.LOGIT_CLAMP, out=z), lk.LOGIT_CLAMP, out=z)
    # e = (exp(z), exp(-z)): log p(0) = -log1p(exp(z)), log p(1) =
    # -log1p(exp(-z)) and sigmoid(z) = 1 / (1 + exp(-z))
    e = np.empty(z.shape + (2,))
    e[..., 0] = z
    np.negative(z, out=e[..., 1])
    np.exp(e, out=e)
    if n is None:
        return -np.log1p(e)
    if total is None:
        total = n.sum(axis=-1)
    dz = n[..., 1] - total * (1.0 / (1.0 + e[..., 1]))
    return n * -np.log1p(e), {"mu": dz.sum(axis=-2), "rho": dz.sum(axis=-1)}


def _categorical_table(b, n=None, total=None):
    logp = lk.log_softmax(b["mu"][..., None, :, :] + b["rho"][..., :, None, :])
    if n is None:
        return logp
    if total is None:
        total = n.sum(axis=-1)
    dz = n - total[..., None] * np.exp(logp)
    return n * logp, {"mu": dz.sum(axis=-3), "rho": dz.sum(axis=-2)}


def _ordinal_table(b, n=None, total=None):
    """Cumulative linked logit; gradients wrt mu, population raw cutpoints,
    and per-annotator raw offsets."""
    raw = b["cut_raw"][..., None, :] + b["rho"]           # (..., A, J-1)
    cuts = lk.cutpoints_from_raw(raw)[..., :, None, :]
    # cum: P(x <= j) for j = 0..J, each cdf entry a view into it
    cum = np.empty(cuts.shape[:-2] + b["mu"].shape[-1:]
                   + (cuts.shape[-1] + 2,))
    cum[..., 0], cum[..., -1] = 0.0, 1.0
    cdf = cum[..., 1:-1]                                  # (..., A, K, J-1)
    cdf[...] = lk.sigmoid(cuts - b["mu"][..., None, :, None])
    p = np.maximum(cum[..., 1:] - cum[..., :-1], 1e-300)  # (..., A, K, J)
    logp = np.log(p)
    if n is None:
        return logp
    w = n / p
    dcdf = (w[..., :-1] - w[..., 1:]) * cdf * (1.0 - cdf)       # d/d(cut - mu)
    draw = lk.raw_grad_from_cutpoint_grad(raw, dcdf.sum(axis=-2))
    return n * logp, {"mu": -dcdf.sum(axis=(-3, -1)),
                      "cut_raw": draw.sum(axis=-2), "rho": draw}


def row_logliks(pack: _Pack, table: PropTable) -> np.ndarray:
    """(N, ..., K) log-likelihood of every observation row under each type,
    including hurdle gate terms on present and absent rows: each term's
    table gathered at the row's annotator and outcome.  The middle axes are
    the leading (fit) axes of the pack's arrays, if any."""
    ll = None
    for term in table.terms:
        logp = term.family(_block(pack.arrays, term.prefix))  # (..., A, K, O)
        part = logp[..., term.ann, :, term.out]               # (rows, ..., K)
        full = len(term.rows) == len(table.elem)
        if ll is None and full:
            ll = part
        else:
            if ll is None:
                ll = np.zeros((len(table.elem),) + part.shape[1:])
            # a slice where the term covers every row: a view, not a scatter
            ll[slice(None) if full else term.rows] += part
    return ll


def item_logliks(packs: dict[str, _Pack], obs: ObsIndex, schema: Schema,
                 kind: str, k: int) -> np.ndarray:
    """(..., n_items, K) weighted log-likelihood of each element of one
    kind, with the leading (fit) axes of the pack arrays, if any.  Row
    weights were fixed when the observation index was built."""
    n_items = len(obs.elements[kind])
    tables = [obs.tables[spec.name] for spec in schema.group(kind)]
    if not tables:
        return np.zeros((n_items, k))
    elem = np.concatenate([t.elem for t in tables])
    # each row's log-likelihoods (row first) times the row's weight
    lls = [(row_logliks(packs[t.name], t).T * t.weight).T for t in tables]
    shape = lls[0].shape[1:]                        # (..., K)
    n_cols = int(np.prod(shape))
    cols = [ll.reshape(len(ll), n_cols) for ll in lls]
    # column by column: no array holds every row of every fit's columns
    sums = np.stack([
        np.bincount(elem, weights=np.concatenate([c[:, j] for c in cols]),
                    minlength=n_items)
        for j in range(n_cols)], axis=-1)
    return np.moveaxis(sums.reshape((n_items,) + shape), 0, -2)


# ---------------------------------------------------------------------------
# scalar per-annotation reference: test oracle for row_logliks, not called
# by production code

def base_loglik_types(base: PropParams, spec, value, annotator: str) -> np.ndarray:
    """(K,) log-likelihood of one observed value under each candidate type.

    Reference only: tests pin the vectorized row_logliks to it."""
    if spec.response == BINARY:
        return lk.binary_loglik(base.mu, base.rho_of(annotator), bool(value))
    if spec.response == CATEGORICAL:
        return lk.categorical_loglik(base.mu, base.rho_of(annotator), int(value))
    if spec.response == ORDINAL:
        return lk.ordinal_loglik(base.mu, base.cutpoints(annotator), int(value))
    if spec.response == TEMPORAL:
        obs = normalize_temporal(value)
        return lk.temporal_loglik(
            base.start.mu, base.start.rho_of(annotator),
            base.end.mu, base.end.rho_of(annotator),
            base.order.mu, base.order.rho_of(annotator), obs)
    raise ValueError(spec.response)  # pragma: no cover


def annotation_loglik_types(pp: PropParams, spec, value, annotator: str,
                            absent: bool = False) -> np.ndarray:
    """(K,) log-likelihood including the hurdle gate for gated properties.

    For gated properties, absent=True scores the annotator having answered
    the parent away from the gate (no value observed).  Reference only:
    tests pin the factor-graph unary potentials to sums of it."""
    if isinstance(pp, HurdleParams):
        base_ll = None if absent else base_loglik_types(pp.base, spec, value,
                                                        annotator)
        return lk.hurdle_loglik(pp.gate_mu, pp.gate_rho_of(annotator),
                                base_ll, absent)
    if absent:
        raise ValueError(f"{spec.name}: absent outcome on an ungated property")
    return base_loglik_types(pp, spec, value, annotator)


# ---------------------------------------------------------------------------
# checkpoint serialization

def _arr(a):
    return np.asarray(a, dtype=float).tolist()


def _prop_obj(pp: PropParams) -> dict:
    if isinstance(pp, BinaryParams):
        return {"family": "binary", "mu": _arr(pp.mu),
                "rho": {a: float(v) for a, v in sorted(pp.rho.items())},
                "sigma": float(pp.sigma)}
    if isinstance(pp, CategoricalParams):
        return {"family": "categorical", "mu": _arr(pp.mu),
                "rho": {a: _arr(v) for a, v in sorted(pp.rho.items())},
                "sigma": _arr(pp.sigma)}
    if isinstance(pp, OrdinalParams):
        return {"family": "ordinal", "mu": _arr(pp.mu),
                "cut_raw": _arr(pp.cut_raw),
                "rho": {a: _arr(v) for a, v in sorted(pp.rho.items())},
                "sigma": _arr(pp.sigma)}
    if isinstance(pp, HurdleParams):
        return {"family": "hurdle", "gate_mu": _arr(pp.gate_mu),
                "gate_rho": {a: float(v)
                             for a, v in sorted(pp.gate_rho.items())},
                "gate_sigma": float(pp.gate_sigma),
                "base": _prop_obj(pp.base)}
    if isinstance(pp, TemporalParams):
        return {"family": "temporal", "start": _prop_obj(pp.start),
                "end": _prop_obj(pp.end), "order": _prop_obj(pp.order)}
    raise TypeError(type(pp))  # pragma: no cover


def _get(obj, path: str, key: str):
    if not isinstance(obj, dict) or key not in obj:
        raise CheckpointError(
            f"checkpoint lacks {path + '.' if path else ''}{key}")
    return obj[key]


def _prop_from_obj(obj: dict, path: str) -> PropParams:
    def get(key):
        return _get(obj, path, key)

    fam = get("family")
    if fam == "binary":
        return BinaryParams(mu=np.asarray(get("mu")),
                            rho={a: float(v) for a, v in get("rho").items()},
                            sigma=float(get("sigma")))
    if fam == "categorical":
        return CategoricalParams(
            mu=np.asarray(get("mu")),
            rho={a: np.asarray(v) for a, v in get("rho").items()},
            sigma=np.asarray(get("sigma")))
    if fam == "ordinal":
        return OrdinalParams(
            mu=np.asarray(get("mu")), cut_raw=np.asarray(get("cut_raw")),
            rho={a: np.asarray(v) for a, v in get("rho").items()},
            sigma=np.asarray(get("sigma")))
    if fam == "hurdle":
        return HurdleParams(
            gate_mu=np.asarray(get("gate_mu")),
            gate_rho={a: float(v) for a, v in get("gate_rho").items()},
            gate_sigma=float(get("gate_sigma")),
            base=_prop_from_obj(get("base"), path + ".base"))
    if fam == "temporal":
        return TemporalParams(*(_prop_from_obj(get(b), f"{path}.{b}")
                                for b in ("start", "end", "order")))
    raise CheckpointError(f"{path}.family: unknown family {fam!r}")


def params_to_obj(params: ModelParams) -> dict:
    inv = params.inventory
    return {
        "version": CHECKPOINT_VERSION,
        "inventory": {"k_event": inv.k_event, "k_entity": inv.k_entity,
                      "k_role": inv.k_role, "k_rel": inv.k_rel},
        "priors": {
            "theta_event": _arr(params.priors.theta_event),
            "theta_entity": _arr(params.priors.theta_entity),
            "theta_role": _arr(params.priors.theta_role),
            "theta_rel": {b: _arr(v)
                          for b, v in sorted(params.priors.theta_rel.items())},
        },
        "props": {name: _prop_obj(pp)
                  for name, pp in sorted(params.props.items())},
        "annotators": sorted(params.annotators),
    }


def params_from_obj(obj: dict) -> ModelParams:
    if obj.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {obj.get('version')}")
    inv_obj = _get(obj, "", "inventory")
    inv = TypeInventory(*(_get(inv_obj, "inventory", name) for name in
                          ("k_event", "k_entity", "k_role", "k_rel")))
    pr = _get(obj, "", "priors")
    rel = _get(pr, "priors", "theta_rel")
    priors = PriorParams(
        theta_event=np.asarray(_get(pr, "priors", "theta_event")),
        theta_entity=np.asarray(_get(pr, "priors", "theta_entity")),
        theta_role=np.asarray(_get(pr, "priors", "theta_role")),
        # older checkpoints also hold an unused entity x entity block
        theta_rel={b: np.asarray(_get(rel, "priors.theta_rel", b))
                   for b in REL_BLOCKS},
    )
    props = {name: _prop_from_obj(p, f"props.{name}")
             for name, p in _get(obj, "", "props").items()}
    return ModelParams(inventory=inv, priors=priors, props=props,
                       annotators=list(obj.get("annotators", [])))


_FAMILY = {BinaryParams: BINARY, CategoricalParams: CATEGORICAL,
           OrdinalParams: ORDINAL, TemporalParams: TEMPORAL}


def check_params(params: ModelParams, schema: Schema) -> None:
    """Raise CheckpointError naming the first schema property that params
    lack or hold under another response family or hurdle gating, or the
    key path of the first prior table or mu, cut_raw, sigma or rho value
    whose shape differs from freshly initialized parameters for the
    inventory's type counts and the schema's outcomes."""
    fresh = PriorParams.uniform(params.inventory)
    fields = [(f"priors.theta_{n}", getattr(params.priors, f"theta_{n}"),
               getattr(fresh, f"theta_{n}"))
              for n in ("event", "entity", "role")]
    fields += [(f"priors.theta_rel.{b}", params.priors.theta_rel.get(b), w)
               for b, w in fresh.theta_rel.items()]
    for spec in schema:
        pp = params.props.get(spec.name)
        if pp is None:
            raise CheckpointError(
                f"checkpoint has no parameters for property {spec.name}")
        gated = isinstance(pp, HurdleParams)
        family = _FAMILY.get(type(pp.base if gated else pp))
        if (gated, family) != (spec.gated, spec.response):
            raise CheckpointError(
                f"checkpoint property {spec.name} is "
                f"{'gated ' if gated else ''}{family}; the schema declares "
                f"{'gated ' if spec.gated else ''}{spec.response}")
        # zeros, not random draws: checking loads no numpy.random
        template = init_prop_params(spec, params.inventory.k_for(spec.group),
                                    np.zeros)
        for (prefix, owner, attr, _), (_, want, _, width) in zip(
                _leaves(pp), _leaves(template)):
            path = (f"props.{spec.name}."
                    f"{'base.' if gated and attr != 'gate_' else ''}{prefix}")
            fields += [(path + name, getattr(owner, attr + name),
                        getattr(want, attr + name))
                       for name in ("mu", "cut_raw", "sigma")
                       if hasattr(want, attr + name)]
            rho = getattr(owner, attr + "rho")
            fields += [(f"{path}rho.{a}", rho[a], np.zeros(width or ()))
                       for a in sorted(rho)]
    for key, have, need in fields:
        if np.shape(have) != np.shape(need):
            raise CheckpointError(
                f"checkpoint {key} has shape {np.shape(have)}, but the "
                f"inventory and schema need {np.shape(need)}")


def save_params(params: ModelParams, path) -> None:
    with open(path, "w") as fh:
        json.dump(params_to_obj(params), fh, sort_keys=True)
        fh.write("\n")


def load_params(path) -> ModelParams:
    with open(path) as fh:
        return params_from_obj(json.load(fh))
