"""Model parameters: type inventory, type priors, and per-property
likelihood parameters, with checkpoint serialization; and observation
tables with their vectorized per-row log-likelihoods, the one scoring path
shared by the E-step unary potentials, the M-step and type-count selection.

Document edges are directed from the later (current) predicate to the
earlier enqueued node, matching the generative story; relation priors are
stored blockwise by the kind of the earlier endpoint (REL_TABLE).
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
import json
from typing import Union, get_origin, get_type_hints

import numpy as np

from . import likelihoods as lk
from .corpus import ConsistencyError, DocumentGraph, normalize_temporal
from .schema import (
    BINARY, CATEGORICAL, GROUP_FOR_ATTACH, GROUPS, ORDINAL, TEMPORAL, Schema,
)

CHECKPOINT_VERSION = 1

# every prior table by name, with the type-count group of each axis: a
# distribution over the type of its last axis given the types of the others
PRIOR_TABLES = {"event": ("event",), "entity": ("entity",),
                "role": ("event", "entity", "role"),
                "ee": ("event", "event", "rel"),
                "en": ("event", "entity", "rel")}
# the relation tables, kept in PriorParams.theta_rel, and the one of a window
# pair by the node kind of its earlier endpoint
REL_BLOCKS = tuple(n for n, axes in PRIOR_TABLES.items() if axes[-1] == "rel")
REL_TABLE = {"predicate": "ee", "argument": "en"}
# the keys of each prior table under a checkpoint's priors
_PRIOR_KEYS = {n: ("theta_rel", n) if n in REL_BLOCKS else (f"theta_{n}",)
               for n in PRIOR_TABLES}


class CheckpointError(ValueError):
    """A checkpoint that is malformed or does not fit the schema."""


def setting(rule: str, default=MISSING):
    """A dataclass field whose values must satisfy rule (see in_range)."""
    return field(default=default, metadata={"range": rule})


def in_range(value, rule: str) -> bool:
    """Whether value satisfies rule: ">= lo", or "in" an interval such as
    "[0, 1)" whose square brackets include their ends.  NaN satisfies none."""
    if rule.startswith(">= "):
        return value >= float(rule[3:])
    lo, hi = map(float, rule[4:-1].split(", "))
    return ((lo <= value) if rule[3] == "[" else (lo < value)) and (
        (value <= hi) if rule[-1] == "]" else (value < hi))


class Ranged:
    """A dataclass base: construction rejects the first field value outside
    the range its setting declares."""

    def __post_init__(self):
        for f in fields(self):
            rule, value = f.metadata.get("range"), getattr(self, f.name)
            if rule and not in_range(value, rule):
                raise ValueError(f"{f.name} must be {rule}, got {value}")


@dataclass(frozen=True)
class TypeInventory(Ranged):
    k_event: int = setting(">= 1")
    k_entity: int = setting(">= 1")
    k_role: int = setting(">= 1")
    k_rel: int = setting(">= 1")

    def k_for(self, group: str) -> int:
        return getattr(self, f"k_{group}")

    def shape(self, groups) -> tuple[int, ...]:
        """The type count of each group: the shape of a table over them."""
        return tuple(map(self.k_for, groups))


@dataclass
class PriorParams:
    theta_event: np.ndarray    # (Ke,)
    theta_entity: np.ndarray   # (Kn,)
    theta_role: np.ndarray     # (Ke, Kn, Kr), simplex on last axis
    theta_rel: dict            # block -> (Ka, Kb, Kq), simplex on last axis

    def tables(self) -> dict[str, np.ndarray]:
        """Each table by its name in PRIOR_TABLES, None for a missing
        relation block."""
        return {"event": self.theta_event, "entity": self.theta_entity,
                "role": self.theta_role,
                **{b: self.theta_rel.get(b) for b in REL_BLOCKS}}

    @staticmethod
    def from_tables(tables: dict[str, np.ndarray]) -> "PriorParams":
        return PriorParams(tables["event"], tables["entity"], tables["role"],
                           {b: tables[b] for b in REL_BLOCKS})

    @staticmethod
    def uniform(inv: TypeInventory) -> "PriorParams":
        return PriorParams.from_tables({
            name: np.full(inv.shape(axes), 1.0 / inv.k_for(axes[-1]))
            for name, axes in PRIOR_TABLES.items()})


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

# checkpoint family name -> parameter class
FAMILIES = {"binary": BinaryParams, "categorical": CategoricalParams,
            "ordinal": OrdinalParams, "hurdle": HurdleParams,
            "temporal": TemporalParams}
_NAMES = {cls: name for name, cls in FAMILIES.items()}


def _field_kinds(cls) -> list[tuple[str, str]]:
    """(name, kind) of each field of a family class, in declaration order:
    "block" for a nested family, "rho" for annotator intercepts keyed by
    annotator, "value" for a number or array."""
    hints = get_type_hints(cls)
    return [(f.name, "rho" if get_origin(hints[f.name]) is dict
             else "value" if hints[f.name] in (float, np.ndarray)
             else "block") for f in fields(cls)]


# the checkpoint layout of every family: the fields of its dataclass
_LAYOUT = {cls: _field_kinds(cls) for cls in FAMILIES.values()}


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
                annotators: list[str] | None = None) -> ModelParams:
    """Symmetric start with small symmetry-breaking noise on mu (sd 0.5);
    uniform priors; zero annotator intercepts."""
    rng = np.random.default_rng(seed)
    props = {}
    for spec in schema:
        props[spec.name] = init_prop_params(
            spec, inv.k_for(spec.group),
            lambda shape: rng.normal(0.0, 0.5, size=shape))
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
    # the corpus's compiled factor graphs, by window and type counts
    # (factorgraph.compile_corpus)
    graphs: dict = field(default_factory=dict, repr=False, compare=False)


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
    nothing was observed for it.  Rows follow documents, element ids and
    records, an element's absent rows last; annotators are numbered in
    the order of their first rows."""
    elements: dict[str, list[tuple[int, str]]] = {g: [] for g in GROUPS}
    # each annotated element's code, its place in that order; per code,
    # its row in its kind's registry, and per record, its element's code
    elem_row, codes, records = [], [], []
    unknown = {}                    # code -> document lacking the element
    for doc_i, doc in enumerate(corpus):
        kinds = doc.element_kinds()
        ids = [rec.element for rec in doc.annotations]
        code_of = {}
        for element in sorted(set(ids)):
            code_of[element] = len(elem_row)
            kind = kinds.get(element)
            if kind is None:
                unknown[len(elem_row)] = doc
                elem_row.append(-1)
                continue
            registry = elements[GROUP_FOR_ATTACH[kind]]
            elem_row.append(len(registry))
            registry.append((doc_i, element))
        codes += map(code_of.__getitem__, ids)
        records += doc.annotations

    code = np.fromiter(codes, dtype=int)
    prop_of = {spec.name: i for i, spec in enumerate(schema)}
    props = list(map(prop_of.get, [r.property for r in records]))
    # a missing ridit confidence reads NaN
    weight = (np.array([r.ridit_confidence for r in records], dtype=float)
              if confidence_weighting else np.ones(len(records)))
    if unknown or None in props or np.isnan(weight).any():
        # the first record in row order on an element its document lacks,
        # of a property the schema lacks, or lacking a ridit confidence
        for i in np.argsort(code, kind="stable").tolist():
            rec, doc = records[i], unknown.get(int(code[i]))
            if doc is not None:
                raise ConsistencyError(
                    f"{doc.doc_id}: annotation on element {rec.element!r} "
                    f"which is not an element of the document")
            schema[rec.property]            # SchemaError if unknown
            if confidence_weighting and rec.ridit_confidence is None:
                raise ValueError(
                    f"annotation {rec.property} on {rec.element} lacks a "
                    f"ridit confidence; ridit score the corpus first")
    prop = np.fromiter(props, dtype=int)
    names = [r.annotator for r in records]
    seen = list(dict.fromkeys(names))
    ann = np.fromiter(map({a: i for i, a in enumerate(seen)}.__getitem__,
                          names), dtype=int)
    # renumbered by first row: the least (element code, record) of each
    first = np.full(len(seen), np.iinfo(int).max)
    np.minimum.at(first, ann, code * len(records) + np.arange(len(records)))
    by_first = np.argsort(first)
    ann_names, ann = [seen[i] for i in by_first], np.argsort(by_first)[ann]
    elem_row = np.array(elem_row, dtype=int)

    # each property's answers in row order, and their base-term outcomes
    by_prop = np.lexsort((code, prop))
    bounds = np.searchsorted(prop[by_prop], np.arange(len(prop_of) + 1))
    answers, base = {}, {}
    for spec, start, end in zip(schema, bounds, bounds[1:]):
        answers[spec.name] = rows = by_prop[start:end]
        base[spec.name] = _base_terms(
            spec, [records[i].value for i in rows.tolist()])

    keys = code * len(ann_names) + ann      # (element, annotator)
    tables = {}
    for spec in schema:
        rows = answers[spec.name]
        present = np.ones(len(rows), dtype=bool)
        if spec.gated:
            # the gate parent's answers away from the gate, by annotators
            # who did not answer this property on that element, each
            # element's after its answers
            parent_name, gate_value = spec.gate
            away = answers[parent_name][base[parent_name][0][3] != gate_value]
            absent = away[~np.isin(keys[away], keys[rows])]
            rows = np.concatenate([rows, absent])
            sort = np.argsort(code[rows], kind="stable")
            rows, present = rows[sort], sort < len(present)
        ann_t = ann[rows]
        terms = [Term("gate_", _binary_table, 2, np.arange(len(rows)), ann_t,
                      present.astype(int))] if spec.gated else []
        sel = np.flatnonzero(present)
        for prefix, family, n_out, out in base[spec.name]:
            rows_t = sel[out >= 0]
            terms.append(Term(prefix, family, n_out, rows_t, ann_t[rows_t],
                              out[out >= 0]))
        tables[spec.name] = PropTable(spec.name, spec, elem_row[code[rows]],
                                      present, weight[rows], terms)
    return ObsIndex(elements, tables, ann_names)


@dataclass
class _Pack:
    """Numpy views of one property's optimizable arrays."""
    name: str
    spec: object
    arrays: dict[str, np.ndarray]


def _leaves(pp: PropParams, prefix: str = ""):
    """(array prefix, owner, attribute prefix, rho width) for each
    mu/rho/sigma block of one property's parameters, in field order (so
    the gate first); the width is None for scalar intercepts.  A hurdle's
    base keeps its property's array prefix; any other nested block adds
    "<field>.".  Every conversion between the parameter tree and its
    packed arrays walks this."""
    for name, kind in _LAYOUT[type(pp)]:
        if kind == "block":
            block = prefix if name == "base" else f"{prefix}{name}."
            yield from _leaves(getattr(pp, name), block)
        elif kind == "rho":
            attr = name[:-len("rho")]
            # the intercepts of an annotator with no entry: a zero row
            shape = np.shape(getattr(pp, f"{name}_of")(""))
            yield prefix + attr, pp, attr, shape[0] if shape else None


def _rho_matrix(rho: dict, annotators: list[str], dim: int | None) -> np.ndarray:
    out = np.zeros((len(annotators),) if dim is None
                   else (len(annotators), dim))
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
        if ll is None:
            # build_obs gives the first term every row
            ll = part
        else:
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
    buf = None                                      # (columns, rows)
    start = 0
    for t in tables:
        # each row's log-likelihoods (row first) times the row's weight
        ll = (row_logliks(packs[t.name], t).T * t.weight).T
        if buf is None:
            shape = ll.shape[1:]                    # (..., K)
            buf = np.empty((int(np.prod(shape)), len(elem)))
        buf[:, start:start + len(ll)] = ll.reshape(len(ll), len(buf)).T
        start += len(ll)
    sums = np.stack([np.bincount(elem, weights=col, minlength=n_items)
                     for col in buf], axis=-1)
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
    """A property's checkpoint object: its family name and each field of
    its dataclass, a nested family as an object of its own."""
    obj = {"family": _NAMES[type(pp)]}
    for name, kind in _LAYOUT[type(pp)]:
        value = getattr(pp, name)
        if kind == "block":
            obj[name] = _prop_obj(value)
        elif kind == "rho":
            obj[name] = {a: _arr(v) for a, v in value.items()}
        else:
            obj[name] = _arr(value)
    return obj


def _get(obj, path: str, key: str):
    if not isinstance(obj, dict) or key not in obj:
        raise CheckpointError(
            f"checkpoint lacks {path + '.' if path else ''}{key}")
    return obj[key]


def _object(value, key: str) -> dict:
    if not isinstance(value, dict):
        raise CheckpointError(f"checkpoint {key} is not an object")
    return value


def _value(value, *key: str):
    """A checkpoint number as a float, or a (nested) list of numbers as an
    array; key is the path to it, joined only for the error."""
    try:
        arr = np.asarray(value)
    except ValueError:              # a ragged list
        arr = None
    # a bool inside a list reads as a number
    if arr is None or arr.dtype.kind not in "if" or _has_bool(value):
        raise CheckpointError(
            f"checkpoint {'.'.join(key)} is not a number or a list of "
            f"numbers")
    return float(arr) if arr.ndim == 0 else arr.astype(float, copy=False)


def _has_bool(value) -> bool:
    """Whether a (nested) list holds a bool."""
    return type(value) is bool or (
        type(value) is list and any(map(_has_bool, value)))


def _prop_from_obj(obj: dict, path: str) -> PropParams:
    """A property's parameters from its checkpoint object, its fields read
    in declaration order."""
    fam = _get(obj, path, "family")
    cls = FAMILIES.get(fam) if isinstance(fam, str) else None
    if cls is None:
        raise CheckpointError(f"{path}.family: unknown family {fam!r}")
    values = {}
    for name, kind in _LAYOUT[cls]:
        key, value = f"{path}.{name}", _get(obj, path, name)
        if kind == "block":
            values[name] = _prop_from_obj(value, key)
        elif kind == "rho":
            # most entries are floats, taken as they are without a call
            values[name] = {a: v if type(v) is float else _value(v, key, a)
                            for a, v in _object(value, key).items()}
        else:
            values[name] = _value(value, key)
    return cls(**values)


def params_to_obj(params: ModelParams) -> dict:
    inv = params.inventory
    priors: dict = {}
    for name, theta in params.priors.tables().items():
        *outer, key = _PRIOR_KEYS[name]
        node = priors.setdefault(outer[0], {}) if outer else priors
        node[key] = _arr(theta)
    return {
        "version": CHECKPOINT_VERSION,
        "inventory": {f"k_{g}": inv.k_for(g) for g in GROUPS},
        "priors": priors,
        "props": {name: _prop_obj(pp)
                  for name, pp in sorted(params.props.items())},
        "annotators": sorted(params.annotators),
    }


def params_from_obj(obj: dict) -> ModelParams:
    version = _object(obj, "top level").get("version")
    # True == 1: the type check keeps a bool out
    if type(version) is not int or version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {version!r}")
    inv_obj = _get(obj, "", "inventory")
    counts = {name: _get(inv_obj, "inventory", name)
              for name in (f"k_{g}" for g in GROUPS)}
    for name, k in counts.items():
        if not isinstance(k, int) or isinstance(k, bool):
            raise CheckpointError(
                f"checkpoint inventory.{name} is {k!r}, not an integer")
    try:
        inv = TypeInventory(**counts)
    except ValueError as exc:       # a count out of range
        raise CheckpointError(f"checkpoint inventory.{exc}") from None
    tables = {}
    # older checkpoints also hold an unused entity x entity block: unread
    for name in PRIOR_TABLES:
        table, path = _get(obj, "", "priors"), "priors"
        for key in _PRIOR_KEYS[name]:
            table, path = _get(table, path, key), f"{path}.{key}"
        tables[name] = _value(table, path)
    props = {name: _prop_from_obj(p, f"props.{name}")
             for name, p in _object(_get(obj, "", "props"), "props").items()}
    annotators = obj.get("annotators", [])
    if not isinstance(annotators, list) or not all(
            isinstance(a, str) for a in annotators):
        raise CheckpointError("checkpoint annotators is not a list of strings")
    return ModelParams(inventory=inv, priors=PriorParams.from_tables(tables),
                       props=props, annotators=list(annotators))


def _pairs(have, want, path: str):
    """(key path, field name, value, shape the schema needs) of each number
    or array in a property's parameters, walking the fields of a template
    laid out by the schema."""
    if type(have) is not type(want):
        raise CheckpointError(f"checkpoint {path} is {_NAMES[type(have)]}; "
                              f"the schema needs {_NAMES[type(want)]}")
    for name, kind in _LAYOUT[type(want)]:
        key, value = f"{path}.{name}", getattr(have, name)
        if kind == "block":
            yield from _pairs(value, getattr(want, name), key)
        elif kind == "rho":
            # the template has no intercepts: this is its zero row
            need = np.shape(getattr(want, f"{name}_of")(""))
            yield from ((f"{key}.{a}", name, v, need)
                        for a, v in sorted(value.items()))
        else:
            yield key, name, value, np.shape(getattr(want, name))


def _check_values(pairs) -> None:
    """Raise CheckpointError naming the key of a value that is not finite,
    else of the first prior table that is not a distribution on its last
    axis or covariance that is not positive definite."""
    # every value in one array: a numpy call per value would cost more than
    # reading the checkpoint
    flat = [np.ravel(v) for _, _, v, _ in pairs if type(v) is not float]
    flat.append(np.array([v for _, _, v, _ in pairs if type(v) is float]))
    if not np.isfinite(np.concatenate(flat)).all():
        key = next(key for key, _, v, _ in pairs if not np.isfinite(v).all())
        raise CheckpointError(f"checkpoint {key} is not finite")
    for key, name, v, _ in pairs:
        if name == "theta" and (np.any(v < 0) or np.any(
                np.abs(np.sum(v, axis=-1) - 1.0) > 1e-6)):
            raise CheckpointError(
                f"checkpoint {key} is not a distribution on its last axis")
        if name.endswith("sigma") and not _positive_definite(v):
            raise CheckpointError(
                f"checkpoint {key} is not a positive definite covariance")


def _positive_definite(sigma) -> bool:
    """Whether a covariance is positive (a scalar) or symmetric positive
    definite (a matrix)."""
    if np.ndim(sigma) == 0:
        return sigma > 0
    try:
        np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        return False
    return np.abs(sigma - sigma.T).max() <= 1e-9 * np.abs(sigma).max()


def check_params(params: ModelParams, schema: Schema) -> None:
    """Raise CheckpointError naming the first schema property that params
    lack; else the key path of the first block of another family than the
    schema's, or of the first prior table or mu, cut_raw, sigma or rho
    value whose shape differs from freshly initialized parameters for the
    inventory's type counts and the schema's outcomes; else a value that
    _check_values rejects."""
    tables = params.priors.tables()
    pairs = [(".".join(("priors",) + _PRIOR_KEYS[name]), "theta", tables[name],
              params.inventory.shape(axes))
             for name, axes in PRIOR_TABLES.items()]
    for spec in schema:
        pp = params.props.get(spec.name)
        if pp is None:
            raise CheckpointError(
                f"checkpoint has no parameters for property {spec.name}")
        # zeros, not random draws: checking loads no numpy.random
        template = init_prop_params(spec, params.inventory.k_for(spec.group),
                                    np.zeros)
        pairs += _pairs(pp, template, f"props.{spec.name}")
    for key, _, have, need in pairs:
        # most values are floats, which np.shape is slow to measure
        if (() if type(have) is float else np.shape(have)) != need:
            raise CheckpointError(
                f"checkpoint {key} has shape {np.shape(have)}, but the "
                f"inventory and schema need {need}")
    _check_values(pairs)


def save_params(params: ModelParams, path) -> None:
    with open(path, "w") as fh:
        json.dump(params_to_obj(params), fh, sort_keys=True)
        fh.write("\n")


def load_params(path) -> ModelParams:
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CheckpointError(f"not valid JSON: {exc}") from None
    return params_from_obj(obj)
