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
from .corpus import DocumentGraph, normalize_temporal
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
        for name in ("k_event", "k_entity", "k_role", "k_rel"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")

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
        shift = float(np.mean(lk.cutpoints_from_raw(self.cut_raw)))
        self.cut_raw[0] -= shift
        self.mu -= shift


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


def init_prop_params(spec, k: int, rng: np.random.Generator,
                     mu_scale: float = 0.5) -> PropParams:
    def binary():
        return BinaryParams(mu=rng.normal(0.0, mu_scale, size=k))

    def categorical(nc):
        return CategoricalParams(mu=rng.normal(0.0, mu_scale, size=(k, nc)))

    def ordinal(nl):
        return OrdinalParams(mu=rng.normal(0.0, mu_scale, size=k),
                             cut_raw=default_cut_raw(nl))

    if spec.response == BINARY:
        base = binary()
    elif spec.response == CATEGORICAL:
        base = categorical(spec.n_categories)
    elif spec.response == ORDINAL:
        base = ordinal(spec.n_levels)
    elif spec.response == TEMPORAL:
        base = TemporalParams(start=categorical(3), end=categorical(3),
                              order=categorical(3))
    else:  # pragma: no cover
        raise ValueError(spec.response)
    if spec.gated:
        return HurdleParams(gate_mu=rng.normal(0.0, mu_scale, size=k),
                            base=base)
    return base


def init_params(schema: Schema, inv: TypeInventory, seed: int = 0,
                mu_scale: float = 0.5,
                annotators: list[str] | None = None) -> ModelParams:
    """Symmetric start with small symmetry-breaking noise on mu; uniform
    priors; zero annotator intercepts."""
    rng = np.random.default_rng(seed)
    props = {}
    for spec in schema:
        props[spec.name] = init_prop_params(spec, inv.k_for(spec.group), rng,
                                            mu_scale)
    return ModelParams(inventory=inv, priors=PriorParams.uniform(inv),
                       props=props, annotators=list(annotators or []))


# ---------------------------------------------------------------------------
# observation tables and per-row log-likelihoods across candidate types

@dataclass
class PropTable:
    name: str
    spec: object
    elem: np.ndarray            # (N,) row into the kind's element registry
    ann: np.ndarray             # (N,) annotator index
    present: np.ndarray         # (N,) bool; False only for hurdle-absent rows
    bval: np.ndarray            # (N,) float, binary values
    ival: np.ndarray            # (N,) int, categorical / ordinal values
    tval: np.ndarray            # (N, 3) int, temporal outcome codes (-1 unused)
    weight: np.ndarray          # (N,) confidence weight


@dataclass
class ObsIndex:
    elements: dict[str, list[tuple[int, str]]]   # kind -> [(doc i, element)]
    pos: dict[str, dict[tuple[int, str], int]]
    tables: dict[str, PropTable]
    annotators: list[str]
    ann_index: dict[str, int]


def build_obs(corpus: list[DocumentGraph], schema: Schema,
              confidence_weighting: bool = True) -> ObsIndex:
    """Flatten a corpus into per-property observation tables.

    Rows are the observed answers plus one hurdle-absent row per annotator
    who answered a gated property's parent away from the gate; each row
    carries its confidence weight (the gate parent's for absent rows)."""
    elements: dict[str, list[tuple[int, str]]] = {
        "event": [], "entity": [], "role": [], "rel": []}
    pos: dict[str, dict[tuple[int, str], int]] = {
        k: {} for k in elements}
    annotators: list[str] = []
    ann_index: dict[str, int] = {}
    rows: dict[str, list] = {p.name: [] for p in schema}

    def elem_row(kind, doc_i, element):
        key = (doc_i, element)
        if key not in pos[kind]:
            pos[kind][key] = len(elements[kind])
            elements[kind].append(key)
        return pos[kind][key]

    def ann_row(name):
        if name not in ann_index:
            ann_index[name] = len(annotators)
            annotators.append(name)
        return ann_index[name]

    def weight_of(rec):
        if not confidence_weighting:
            return 1.0
        if rec.ridit_confidence is None:
            raise ValueError(
                f"annotation {rec.property} on {rec.element} lacks a ridit "
                f"confidence; ridit score the corpus first")
        return float(rec.ridit_confidence)

    for doc_i, doc in enumerate(corpus):
        kinds = doc.element_kinds()
        by_element = doc.annotations_by_element()
        for element, records in sorted(by_element.items()):
            kind = GROUP_FOR_ATTACH[kinds[element]]
            answered = {(r.property, r.annotator): r for r in records}
            for rec in records:
                spec = schema[rec.property]
                e = elem_row(kind, doc_i, element)
                a = ann_row(rec.annotator)
                rows[rec.property].append(
                    (e, a, True, rec.value, weight_of(rec)))
            for spec in schema:
                if spec.gate is None or spec.group != kind:
                    continue
                parent_name, gate_value = spec.gate
                for (prop, annotator), parent in answered.items():
                    if prop != parent_name:
                        continue
                    if bool(parent.value) == gate_value:
                        continue
                    if (spec.name, annotator) in answered:
                        continue
                    e = elem_row(kind, doc_i, element)
                    a = ann_row(annotator)
                    rows[spec.name].append(
                        (e, a, False, None, weight_of(parent)))

    tables = {}
    for spec in schema:
        rlist = rows[spec.name]
        n = len(rlist)
        elem = np.array([r[0] for r in rlist], dtype=int)
        ann = np.array([r[1] for r in rlist], dtype=int)
        present = np.array([r[2] for r in rlist], dtype=bool)
        weight = np.array([r[4] for r in rlist], dtype=float)
        bval = np.zeros(n)
        ival = np.zeros(n, dtype=int)
        tval = np.full((n, 3), -1, dtype=int)
        for i, r in enumerate(rlist):
            if not r[2]:
                continue
            v = r[3]
            if spec.response == BINARY:
                bval[i] = 1.0 if v else 0.0
            elif spec.response in (CATEGORICAL, ORDINAL):
                ival[i] = int(v)
            elif spec.response == TEMPORAL:
                obs = normalize_temporal(v)
                tval[i, 0] = lk.LOCK_INDEX[obs.lock_start]
                tval[i, 1] = lk.LOCK_INDEX[obs.lock_end]
                tval[i, 2] = (lk.ORDER_INDEX[obs.free_order]
                              if obs.free_order is not None else -1)
        tables[spec.name] = PropTable(spec.name, spec, elem, ann, present,
                                      bval, ival, tval, weight)
    return ObsIndex(elements, pos, tables, annotators, ann_index)


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


# one vectorized function per response family: the (N, K) log-likelihood
# of N rows under each of K types; given responsibility-weighted row
# coefficients c (N, K), also the gradient of sum(c * ll) by array name.

def _binary_terms(arrays, prefix, ann, x, c=None, n_ann=0):
    z = arrays[prefix + "mu"][None, :] + arrays[prefix + "rho"][ann][:, None]
    ll = x[:, None] * lk.log_sigmoid(z) + (1.0 - x)[:, None] * lk.log_sigmoid(-z)
    if c is None:
        return ll
    cg = c * (x[:, None] - lk.sigmoid(z))
    drho = np.zeros(n_ann)
    np.add.at(drho, ann, cg.sum(axis=1))
    return ll, {prefix + "mu": cg.sum(axis=0), prefix + "rho": drho}


def _categorical_terms(arrays, prefix, ann, x, c=None, n_ann=0):
    mu = arrays[prefix + "mu"]
    z = mu[None, :, :] + arrays[prefix + "rho"][ann][:, None, :]
    ls = lk.log_softmax(z, axis=-1)
    n = len(x)
    ll = ls[np.arange(n), :, x]
    if c is None:
        return ll
    g = -np.exp(ls)
    g[np.arange(n), :, x] += 1.0
    drho = np.zeros((n_ann, mu.shape[-1]))
    np.add.at(drho, ann, np.einsum("nk,nkc->nc", c, g))
    return ll, {prefix + "mu": np.einsum("nk,nkc->kc", c, g),
                prefix + "rho": drho}


def _ordinal_terms(arrays, prefix, ann, j, c=None, n_ann=0):
    """Cumulative linked logit; gradients wrt mu, population raw cutpoints,
    and per-annotator raw offsets."""
    mu = arrays[prefix + "mu"]
    raw = arrays[prefix + "cut_raw"][None, :] + arrays[prefix + "rho"]
    cuts = lk.cutpoints_from_raw(raw)           # (A, J-1)
    J = cuts.shape[1] + 1
    crow = cuts[ann]                            # (N, J-1)
    n = len(j)
    hi_cut = np.where(j < J, crow[np.arange(n), np.minimum(j, J - 1) - 1], 0.0)
    lo_cut = np.where(j > 1, crow[np.arange(n), np.maximum(j - 2, 0)], 0.0)
    hi = np.where((j < J)[:, None], lk.sigmoid(hi_cut[:, None] - mu[None, :]), 1.0)
    lo = np.where((j > 1)[:, None], lk.sigmoid(lo_cut[:, None] - mu[None, :]), 0.0)
    p = np.maximum(hi - lo, 1e-300)
    ll = np.log(p)
    if c is None:
        return ll
    dhi = np.where((j < J)[:, None], hi * (1.0 - hi), 0.0)
    dlo = np.where((j > 1)[:, None], lo * (1.0 - lo), 0.0)
    # cutpoint-space gradients, scattered per annotator
    u = np.sum(c * dhi / p, axis=1)             # d/d cut[j-1]
    l = -np.sum(c * dlo / p, axis=1)            # d/d cut[j-2]
    dcut = np.zeros((n_ann, J - 1))
    sel = j < J
    np.add.at(dcut, (ann[sel], j[sel] - 1), u[sel])
    sel = j > 1
    np.add.at(dcut, (ann[sel], j[sel] - 2), l[sel])
    draw = lk.raw_grad_from_cutpoint_grad(raw, dcut)   # (A, J-1) raw space
    return ll, {prefix + "mu": np.sum(c * (dlo - dhi) / p, axis=0),
                prefix + "cut_raw": draw.sum(axis=0), prefix + "rho": draw}


def _terms(pack: _Pack, table: PropTable):
    """(array prefix, family function, rows, values) for each non-empty
    additive term of one property's row log-likelihood, in summation order:
    the hurdle gate on every row, the base family on present rows, and each
    temporal block (start, end, order) on the rows that carry it.

    Rows are slice(None) where a term covers every row, so callers index
    views rather than copies."""
    rows = slice(None)
    if "gate_mu" in pack.arrays:
        yield "gate_", _binary_terms, rows, table.present.astype(float)
        rows = table.present
        if not rows.any():
            return
    if pack.spec.response == TEMPORAL:
        for col, block in enumerate(("start", "end", "order")):
            bsel = table.tval[:, col] >= 0     # -1 on unused and absent rows
            if bsel.any():
                yield (f"{block}.", _categorical_terms, bsel,
                       table.tval[bsel, col])
    elif pack.spec.response == BINARY:
        yield "", _binary_terms, rows, table.bval[rows]
    elif pack.spec.response == CATEGORICAL:
        yield "", _categorical_terms, rows, table.ival[rows]
    else:
        yield "", _ordinal_terms, rows, table.ival[rows]


def row_logliks(pack: _Pack, table: PropTable) -> np.ndarray:
    """(N, K) log-likelihood of every observation row under each type,
    including hurdle gate terms on present and absent rows."""
    k = next(iter(pack.arrays.values())).shape[0]   # the first leaf's mu
    ll = np.zeros((len(table.elem), k))
    for prefix, family, rows, values in _terms(pack, table):
        ll[rows] += family(pack.arrays, prefix, table.ann[rows], values)
    return ll


def item_logliks(packs: dict[str, _Pack], obs: ObsIndex, schema: Schema,
                 kind: str, k: int) -> np.ndarray:
    """(n_items, K) weighted log-likelihood of each element of one kind.
    Row weights were fixed when the observation index was built."""
    n_items = len(obs.elements[kind])
    out = np.zeros((n_items, k))
    for spec in schema.group(kind):
        table = obs.tables[spec.name]
        if len(table.elem) == 0:
            continue
        ll = row_logliks(packs[spec.name], table)
        np.add.at(out, table.elem, table.weight[:, None] * ll)
    return out


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
    lack, hold under another response family or hurdle gating, or size for
    another type count than the inventory's."""
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
        k = params.inventory.k_for(spec.group)
        for prefix, owner, attr, _ in _leaves(pp):
            shape = np.shape(getattr(owner, attr + "mu"))
            if shape[:1] != (k,):
                raise CheckpointError(
                    f"checkpoint property {spec.name}: {prefix}mu has shape "
                    f"{shape}, but the inventory has {k} {spec.group} types")


def save_params(params: ModelParams, path) -> None:
    with open(path, "w") as fh:
        json.dump(params_to_obj(params), fh, sort_keys=True)
        fh.write("\n")


def load_params(path) -> ModelParams:
    with open(path) as fh:
        return params_from_obj(json.load(fh))
