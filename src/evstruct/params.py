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
        pp = params.props[spec.name]
        arrays = {}

        def base_arrays(base, prefix=""):
            if isinstance(base, BinaryParams):
                arrays[prefix + "mu"] = np.array(base.mu, dtype=float)
                arrays[prefix + "rho"] = _rho_matrix(base.rho, annotators, None)
            elif isinstance(base, CategoricalParams):
                arrays[prefix + "mu"] = np.array(base.mu, dtype=float)
                arrays[prefix + "rho"] = _rho_matrix(base.rho, annotators,
                                                     base.mu.shape[-1])
            elif isinstance(base, OrdinalParams):
                arrays[prefix + "mu"] = np.array(base.mu, dtype=float)
                arrays[prefix + "cut_raw"] = np.array(base.cut_raw, dtype=float)
                arrays[prefix + "rho"] = _rho_matrix(base.rho, annotators,
                                                     len(base.cut_raw))
            elif isinstance(base, TemporalParams):
                base_arrays(base.start, prefix + "start.")
                base_arrays(base.end, prefix + "end.")
                base_arrays(base.order, prefix + "order.")
            else:  # pragma: no cover
                raise TypeError(type(base))

        if isinstance(pp, HurdleParams):
            arrays["gate_mu"] = np.array(pp.gate_mu, dtype=float)
            arrays["gate_rho"] = _rho_matrix(pp.gate_rho, annotators, None)
            base_arrays(pp.base)
        else:
            base_arrays(pp)
        packs[spec.name] = _Pack(spec.name, spec, arrays)
    return packs


def row_logliks(pack: _Pack, table: PropTable, n_ann: int) -> np.ndarray:
    """(N, K) log-likelihood of every observation row under each type,
    including hurdle gate terms on present and absent rows."""
    spec = pack.spec
    arrays = pack.arrays
    gated = "gate_mu" in arrays
    n = len(table.elem)
    k = arrays["gate_mu" if gated else
               ("start.mu" if spec.response == TEMPORAL else "mu")].shape[0]
    ll = np.zeros((n, k))
    if gated:
        z = arrays["gate_mu"][None, :] + arrays["gate_rho"][table.ann][:, None]
        x = table.present.astype(float)[:, None]
        ll += x * lk.log_sigmoid(z) + (1.0 - x) * lk.log_sigmoid(-z)
    sel = table.present if gated else np.ones(n, dtype=bool)
    if not np.any(sel):
        return ll
    ann = table.ann[sel]
    if spec.response == BINARY:
        z = arrays["mu"][None, :] + arrays["rho"][ann][:, None]
        x = table.bval[sel][:, None]
        ll[sel] += x * lk.log_sigmoid(z) + (1.0 - x) * lk.log_sigmoid(-z)
    elif spec.response == CATEGORICAL:
        z = arrays["mu"][None, :, :] + arrays["rho"][ann][:, None, :]
        ls = lk.log_softmax(z, axis=-1)
        ll[sel] += ls[np.arange(len(ann)), :, table.ival[sel]]
    elif spec.response == ORDINAL:
        mu = arrays["mu"]
        raw = arrays["cut_raw"][None, :] + arrays["rho"]
        cuts = lk.cutpoints_from_raw(raw)
        J = cuts.shape[1] + 1
        j = table.ival[sel]
        crow = cuts[ann]
        m = len(j)
        hi_cut = np.where(j < J, crow[np.arange(m), np.minimum(j, J - 1) - 1],
                          0.0)
        lo_cut = np.where(j > 1, crow[np.arange(m), np.maximum(j - 2, 0)], 0.0)
        hi = np.where((j < J)[:, None],
                      lk.sigmoid(hi_cut[:, None] - mu[None, :]), 1.0)
        lo = np.where((j > 1)[:, None],
                      lk.sigmoid(lo_cut[:, None] - mu[None, :]), 0.0)
        ll[sel] += np.log(np.maximum(hi - lo, 1e-300))
    elif spec.response == TEMPORAL:
        codes = table.tval[sel]
        add = np.zeros((len(ann), k))
        for block, col in (("start", 0), ("end", 1), ("order", 2)):
            bsel = codes[:, col] >= 0
            if not np.any(bsel):
                continue
            z = arrays[f"{block}.mu"][None, :, :] \
                + arrays[f"{block}.rho"][ann[bsel]][:, None, :]
            ls = lk.log_softmax(z, axis=-1)
            add[bsel] += ls[np.arange(int(bsel.sum())), :, codes[bsel, col]]
        ll[sel] += add
    return ll


def item_logliks(packs: dict[str, _Pack], obs: ObsIndex, schema: Schema,
                 kind: str, k: int) -> np.ndarray:
    """(n_items, K) weighted log-likelihood of each element of one kind.
    Row weights were fixed when the observation index was built."""
    n_items = len(obs.elements[kind])
    out = np.zeros((n_items, k))
    n_ann = len(obs.annotators)
    for spec in schema.group(kind):
        table = obs.tables[spec.name]
        if len(table.elem) == 0:
            continue
        ll = row_logliks(packs[spec.name], table, n_ann)
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


def _prop_from_obj(obj: dict) -> PropParams:
    fam = obj["family"]
    if fam == "binary":
        return BinaryParams(mu=np.asarray(obj["mu"]),
                            rho={a: float(v) for a, v in obj["rho"].items()},
                            sigma=float(obj["sigma"]))
    if fam == "categorical":
        return CategoricalParams(
            mu=np.asarray(obj["mu"]),
            rho={a: np.asarray(v) for a, v in obj["rho"].items()},
            sigma=np.asarray(obj["sigma"]))
    if fam == "ordinal":
        return OrdinalParams(
            mu=np.asarray(obj["mu"]), cut_raw=np.asarray(obj["cut_raw"]),
            rho={a: np.asarray(v) for a, v in obj["rho"].items()},
            sigma=np.asarray(obj["sigma"]))
    if fam == "hurdle":
        return HurdleParams(
            gate_mu=np.asarray(obj["gate_mu"]),
            gate_rho={a: float(v) for a, v in obj["gate_rho"].items()},
            gate_sigma=float(obj["gate_sigma"]),
            base=_prop_from_obj(obj["base"]))
    if fam == "temporal":
        return TemporalParams(start=_prop_from_obj(obj["start"]),
                              end=_prop_from_obj(obj["end"]),
                              order=_prop_from_obj(obj["order"]))
    raise ValueError(fam)


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
    inv = TypeInventory(**obj["inventory"])
    pr = obj["priors"]
    priors = PriorParams(
        theta_event=np.asarray(pr["theta_event"]),
        theta_entity=np.asarray(pr["theta_entity"]),
        theta_role=np.asarray(pr["theta_role"]),
        # older checkpoints also hold an unused entity x entity block
        theta_rel={b: np.asarray(pr["theta_rel"][b]) for b in REL_BLOCKS},
    )
    props = {name: _prop_from_obj(p) for name, p in obj["props"].items()}
    return ModelParams(inventory=inv, priors=priors, props=props,
                       annotators=list(obj.get("annotators", [])))


def save_params(params: ModelParams, path) -> None:
    with open(path, "w") as fh:
        json.dump(params_to_obj(params), fh, sort_keys=True)
        fh.write("\n")


def load_params(path) -> ModelParams:
    with open(path) as fh:
        return params_from_obj(json.load(fh))
