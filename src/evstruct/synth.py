"""Sample corpora from the generative story with known parameters and
latent labels; the project's primary verification oracle.

Document skeletons are synthetic (ids, not text).  Types, annotations,
hurdle gating, and temporal tuples are sampled exactly as the generative
story prescribes, including the sentence-window queue for relation pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import likelihoods as lk
from .corpus import (
    LOCK_E1, LOCK_E2, LOCK_OUTCOMES, ORDER_E1_FIRST, ORDER_E2_FIRST,
    ORDER_OUTCOMES, AnnotationRecord, DocumentGraph, Node, Sentence,
    doc_edge_id, edge_id, free_order_applies,
)
from .factorgraph import window_pairs
from .params import (
    REL_TABLE, ModelParams, Ranged, TemporalParams, TypeInventory, _leaves,
    init_params, setting,
)
from .schema import (
    BINARY, CATEGORICAL, GROUPS, ORDINAL, TEMPORAL, Schema, default_schema,
)


@dataclass
class SynthConfig(Ranged):
    inventory: TypeInventory
    schema: Schema = field(default_factory=default_schema)
    n_docs: int = setting(">= 1", 10)
    sentences_per_doc: int = setting(">= 1", 2)
    predicates_per_sentence: int = setting(">= 1", 1)
    arguments_per_predicate: int = setting(">= 0", 1)
    eventive_prob: float = setting("in [0, 1]", 0.0)
    n_annotators: int = setting(">= 1", 3)
    annotators_per_item: int = setting(">= 1", 1)
    window: int = setting(">= 1", 2)
    seed: int = setting(">= 0", 0)
    # logit scale of the drawn true means
    separation: float = setting("in [0, inf)", 2.0)
    # sd of drawn annotator intercepts
    sigma_ann: float = setting("in [0, inf)", 0.0)
    confidence_levels: Optional[list[float]] = None  # probs over 1..5

    def __post_init__(self):
        super().__post_init__()
        if self.annotators_per_item > self.n_annotators:
            raise ValueError(f"annotators_per_item {self.annotators_per_item}"
                             f" exceeds the pool size {self.n_annotators}")


def flat_schema(n_event: int = 4) -> Schema:
    """A gate-free all-binary schema.

    With hurdle properties, a child's presence is determined by the parent
    answer, so annotations on one element are not conditionally independent
    given its type; flat mixtures then keep finding extra structure.  This
    schema stays inside the conditional-independence regime, which recovery
    and type-count studies assume.
    """
    from .schema import (ARGUMENT_NODE, DOCUMENT_EDGE, PRED_ARG_EDGE,
                         PREDICATE_NODE, PropertySpec)
    props = []
    for attach, group, n in ((PREDICATE_NODE, "event", n_event),
                             (ARGUMENT_NODE, "entity", 3),
                             (PRED_ARG_EDGE, "role", 3),
                             (DOCUMENT_EDGE, "rel", 2)):
        for i in range(n):
            props.append(PropertySpec(name=f"{group}_prop{i}",
                                      subspace=group, attaches_to=attach,
                                      response=BINARY))
    return Schema(tuple(props))


def separated_params(schema: Schema, inventory: TypeInventory,
                     annotators: list[str], separation: float,
                     sigma_ann: float, seed: int) -> ModelParams:
    """True parameters with per-type mean patterns separated by the given
    logit gap: binary means follow distinct sign patterns across types
    (repeating only in a group with more types than patterns and a
    non-binary property), ordinal means are spread evenly, and hurdle
    gates mirror their parent."""
    rng = np.random.default_rng(seed)
    params = init_params(schema, inventory, seed=seed, annotators=annotators)
    half = separation / 2.0

    # per group, give the types distinct sign patterns over the binary
    # properties, spreading the differences across as many properties as
    # possible (maximal minimum pairwise Hamming distance over a few draws)
    prop_col: dict[str, tuple[str, int]] = {}
    sign_mats: dict[str, np.ndarray] = {}
    for kind in GROUPS:
        group = schema.group(kind)
        names = [p.name for p in group if p.response == BINARY]
        if not names:
            continue
        k = inventory.k_for(kind)
        for i, name in enumerate(names):
            prop_col[name] = (kind, i)
        # ordinal spread and categorical or temporal means also separate
        # the types, so a signature may repeat
        sign_mats[kind] = _sign_patterns(
            k, len(names), rng,
            repeat=any(p.response != BINARY for p in group))

    def spread(k):
        return np.linspace(-half, half, k) if k > 1 else np.zeros(1)

    for spec in schema:
        pp = params.props[spec.name]
        base = pp.base if spec.gated else pp
        k = inventory.k_for(spec.group)
        if spec.response == BINARY:
            kind, col = prop_col[spec.name]
            base.mu = half * sign_mats[kind][:, col]
        elif spec.response == ORDINAL:
            base.mu = spread(k)
        elif spec.response == CATEGORICAL:
            base.mu = rng.normal(0.0, half, size=base.mu.shape)
        elif spec.response == TEMPORAL:
            base.start.mu = rng.normal(0.0, half, size=(k, 3))
            base.end.mu = rng.normal(0.0, half, size=(k, 3))
            base.order.mu = rng.normal(0.0, half, size=(k, 3))
        # annotator intercepts
        _draw_rhos(pp, annotators, sigma_ann, rng)
    # hurdle gates mirror the parent's Bernoulli so sampled presence is
    # consistent with the gate distribution
    for spec in schema:
        if not spec.gated:
            continue
        pp = params.props[spec.name]
        parent = params.props[spec.gate[0]]
        sign = 1.0 if spec.gate[1] else -1.0
        pp.gate_mu = sign * np.array(parent.mu)
        pp.gate_rho = {a: sign * v for a, v in parent.rho.items()}
    return params


def _sign_patterns(k: int, n_props: int, rng: np.random.Generator,
                   repeat: bool) -> np.ndarray:
    """(k, n_props) matrix of +-1 type signatures with distinct rows and a
    large minimum pairwise Hamming distance.  Where 200 random draws find
    no distinct rows, the first k patterns of a fixed enumeration of all
    2^n_props, each followed by its complement; past 2^n_props types they
    cycle if repeat allows it."""
    if k == 1:
        return np.ones((1, n_props))
    best, best_dist = None, -1
    for _ in range(200):
        mat = rng.choice([-1.0, 1.0], size=(k, n_props))
        dists = [np.sum(mat[i] != mat[j])
                 for i in range(k) for j in range(i + 1, k)]
        d = min(dists)
        if d > best_dist:
            best, best_dist = mat, d
    if best_dist >= 1:
        return best
    if k > 2 ** n_props and not repeat:
        raise ValueError(
            f"cannot give {k} types distinct signatures over {n_props} "
            f"binary properties")
    codes = [c for i in range(2 ** (n_props - 1))
             for c in (i, i ^ (2 ** n_props - 1))]
    bits = (np.array(codes)[:, None] >> np.arange(n_props)) & 1
    return (2.0 * bits - 1.0)[np.arange(k) % len(codes)]


def _draw_rhos(pp, annotators, sigma_ann, rng):
    var = max(sigma_ann ** 2, lk.SIGMA_FLOOR)
    for _, owner, attr, width in _leaves(pp):
        setattr(owner, attr + "rho", {
            a: float(rng.normal(0.0, sigma_ann)) if width is None
            else rng.normal(0.0, sigma_ann, size=width) for a in annotators})
        if attr != "gate_":         # the hurdle gate keeps its default sigma
            setattr(owner, attr + "sigma",
                    var if width is None else np.eye(width) * var)


def _sample_value(base, spec, annotator: str, type_idx: int,
                  rng: np.random.Generator):
    if spec.response == BINARY:
        p = lk.sigmoid(base.mu[type_idx] + base.rho_of(annotator))
        return bool(rng.random() < p)
    if spec.response == CATEGORICAL:
        return _categorical(base, annotator, type_idx, rng)
    if spec.response == ORDINAL:
        cuts = base.cutpoints(annotator)
        J = len(cuts) + 1
        probs = np.array([np.exp(lk.ordinal_loglik(base.mu[type_idx], cuts, j))
                          for j in range(1, J + 1)])
        return int(rng.choice(J, p=probs / probs.sum()) + 1)
    if spec.response == TEMPORAL:
        return _sample_temporal(base, annotator, type_idx, rng)
    raise ValueError(spec.response)  # pragma: no cover


def _categorical(base, annotator: str, type_idx: int,
                 rng: np.random.Generator) -> int:
    p = np.exp(lk.log_softmax(base.mu[type_idx] + base.rho_of(annotator)))
    return int(rng.choice(len(p), p=p / p.sum()))


def _sample_temporal(base: TemporalParams, annotator: str, type_idx: int,
                     rng: np.random.Generator) -> list:
    ls, le = (LOCK_OUTCOMES[_categorical(lock, annotator, type_idx, rng)]
              for lock in (base.start, base.end))
    order = (ORDER_OUTCOMES[_categorical(base.order, annotator, type_idx, rng)]
             if free_order_applies(ls, le) else None)
    return realize_tuple(ls, le, order, rng)


# the point a single lock leaves free, as an offset into a (point of event 1,
# point of event 2) pair: locking e1 frees e2's point, and the reverse
FREE_POINT = {LOCK_E1: 1, LOCK_E2: 0}


def realize_tuple(ls: str, le: str, order: Optional[str],
                  rng: np.random.Generator) -> list:
    """Construct a normalized (start1, start2, end1, end2) tuple consistent
    with sampled lock and free-order outcomes."""
    t = [0.0, 0.0, 1.0, 1.0]
    free = [first + FREE_POINT[lock] for first, lock in ((0, ls), (2, le))
            if lock in FREE_POINT]
    if len(free) == 1:
        t[free[0]] = float(rng.uniform(0.35, 0.65))
    elif free:
        a = float(rng.uniform(0.15, 0.4))
        b = float(rng.uniform(0.6, 0.85))
        if not free_order_applies(ls, le):
            # both free points belong to one event; keep them ordered
            t[free[0]], t[free[1]] = a, b
        else:
            mid = float(rng.uniform(0.45, 0.55))
            # event 1's points sit at even indices, event 2's at odd ones
            p1, p2 = sorted(free, key=lambda i: i % 2)
            t[p1], t[p2] = {ORDER_E1_FIRST: (a, b),
                            ORDER_E2_FIRST: (b, a)}.get(order, (mid, mid))
    return t


def _sample_confidence(levels, rng) -> int:
    if levels is None:
        return 5
    p = np.asarray(levels, dtype=float)
    return int(rng.choice(5, p=p / p.sum()) + 1)


def sample_corpus(config: SynthConfig):
    """Returns (corpus, truth, params).

    truth maps doc id -> element id -> latent type index for every event,
    entity, role, and relation variable.
    """
    rng = np.random.default_rng(config.seed)
    annotators = [f"ann{i}" for i in range(config.n_annotators)]
    params = separated_params(config.schema, config.inventory, annotators,
                              config.separation, config.sigma_ann, config.seed)
    inv = params.inventory
    schema = config.schema
    corpus, truth = [], {}
    for d in range(config.n_docs):
        doc, labels = _sample_document(d, config, params, schema, inv,
                                       annotators, rng)
        corpus.append(doc)
        truth[doc.doc_id] = labels
    return corpus, truth, params


def _sample_document(d, config, params, schema, inv, annotators, rng):
    doc_id = f"doc{d:04d}"
    sentences = []
    for s in range(config.sentences_per_doc):
        preds, args, edges = [], [], []
        for p in range(config.predicates_per_sentence):
            pid = f"d{d}s{s}p{p}"
            preds.append(Node(pid, "predicate", s, span=f"pred-{p}"))
            for a in range(config.arguments_per_predicate):
                aid = f"d{d}s{s}p{p}a{a}"
                eventive = rng.random() < config.eventive_prob
                args.append(Node(aid, "argument", s, span=f"arg-{a}",
                                 supersense="event" if eventive else None))
                edges.append((pid, aid))
        sentences.append(Sentence(tuple(preds), tuple(args), tuple(edges)))
    skeleton = DocumentGraph(doc_id, sentences, [], [])
    pairs = list(window_pairs(skeleton, config.window))
    doc = DocumentGraph(doc_id, sentences,
                        [(a.node_id, b.node_id) for a, b in pairs], [])

    labels: dict[str, int] = {}
    pr = params.priors
    for sent in sentences:
        for p in sent.predicates:
            labels[p.node_id] = int(rng.choice(inv.k_event, p=pr.theta_event))
        for a in sent.arguments:
            labels[a.node_id] = int(rng.choice(inv.k_entity,
                                               p=pr.theta_entity))
        for pid, aid in sent.edges:
            theta = pr.theta_role[labels[pid], labels[aid]]
            labels[edge_id(pid, aid)] = int(rng.choice(inv.k_role, p=theta))
    for a, b in pairs:
        theta = pr.theta_rel[REL_TABLE[b.kind]]
        labels[doc_edge_id(a.node_id, b.node_id)] = int(rng.choice(
            inv.k_rel, p=theta[labels[a.node_id], labels[b.node_id]]))

    elements = []
    for sent in sentences:
        elements += [(p.node_id, "event") for p in sent.predicates]
        elements += [(a.node_id, "entity") for a in sent.arguments]
        elements += [(edge_id(p, a), "role") for p, a in sent.edges]
    elements += [(doc_edge_id(a, b), "rel") for a, b in doc.doc_edges]

    records = []
    for element, kind in elements:
        t = labels[element]
        item_annotators = [annotators[i] for i in sorted(
            rng.choice(len(annotators), size=config.annotators_per_item,
                       replace=False))]
        for ann in item_annotators:
            answers = {}
            for spec in schema.group(kind):
                pp = params.props[spec.name]
                if spec.gated:
                    parent_value = answers.get(spec.gate[0])
                    if parent_value is None or \
                            bool(parent_value) != spec.gate[1]:
                        continue
                    base = pp.base
                else:
                    base = pp
                value = _sample_value(base, spec, ann, t, rng)
                answers[spec.name] = value
                records.append(AnnotationRecord(
                    element=element, property=spec.name, annotator=ann,
                    value=value,
                    raw_confidence=_sample_confidence(
                        config.confidence_levels, rng)))
    doc.annotations = records
    return doc, labels


# ---------------------------------------------------------------------------
# descriptive statistics

def corpus_stats(corpus: list[DocumentGraph], schema: Schema) -> dict:
    """Counts of elements per kind and per property-response category."""
    stats = {
        "documents": len(corpus),
        "sentences": 0, "predicates": 0, "arguments": 0,
        "edges": 0, "doc_edges": 0, "annotations": 0,
        "properties": {},
    }
    for doc in corpus:
        stats["sentences"] += len(doc.sentences)
        for sent in doc.sentences:
            stats["predicates"] += len(sent.predicates)
            stats["arguments"] += len(sent.arguments)
            stats["edges"] += len(sent.edges)
        stats["doc_edges"] += len(doc.doc_edges)
        stats["annotations"] += len(doc.annotations)
        for rec in doc.annotations:
            spec = schema[rec.property]
            hist = stats["properties"].setdefault(rec.property, {})
            if spec.response == BINARY:
                key = "true" if rec.value else "false"
            elif spec.response in (CATEGORICAL, ORDINAL):
                key = str(rec.value)
            else:
                key = "tuple"
            hist[key] = hist.get(key, 0) + 1
    return stats


def format_stats(stats: dict) -> str:
    """Count (percent) table in the descriptive-statistics layout."""
    lines = []
    for key in ("documents", "sentences", "predicates", "arguments",
                "edges", "doc_edges", "annotations"):
        lines.append(f"{key:12s} {stats[key]:>8,}")
    for prop, hist in sorted(stats["properties"].items()):
        total = sum(hist.values())
        lines.append(f"{prop} (total {total:,})")
        for key, count in sorted(hist.items()):
            pct = round(100.0 * count / total) if total else 0
            lines.append(f"  {key:12s} {count:>8,} ({pct}%)")
    return "\n".join(lines)
