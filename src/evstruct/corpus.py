"""Document-level graph corpus: ingestion, validation, ridit scoring of
confidence ratings, and temporal-tuple normalization.

File format is line-delimited JSON, one document per line.  Element ids
are strings: nodes use their node id, predicate-argument edges are
``"<pred>-><arg>"``, document edges are ``"<a>--<b>"`` with the current
predicate first and the earlier enqueued node second.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Optional, Union

from .schema import (
    ARGUMENT_NODE, BINARY, CATEGORICAL, DOCUMENT_EDGE, EVENTIVE_SUPERSENSES,
    ORDINAL, PRED_ARG_EDGE, PREDICATE_NODE, TEMPORAL, Schema, SchemaError,
)

LOCK_TOLERANCE = 1e-6  # coincidence tolerance on the normalized time scale

CONFIDENCE_LEVELS = (1, 2, 3, 4, 5)

# lock outcomes, index order matters for the categorical likelihood
LOCK_E1, LOCK_E2, LOCK_BOTH = "e1", "e2", "both"
LOCK_OUTCOMES = (LOCK_E1, LOCK_E2, LOCK_BOTH)
# relative order of the two free interior points, by owning event
ORDER_E1_FIRST, ORDER_TIE, ORDER_E2_FIRST = "e1-first", "tie", "e2-first"
ORDER_OUTCOMES = (ORDER_E1_FIRST, ORDER_TIE, ORDER_E2_FIRST)


class CorpusError(ValueError):
    pass


class ParseError(CorpusError):
    def __init__(self, message, line=None):
        super().__init__(f"line {line}: {message}" if line is not None else message)
        self.line = line


class ConsistencyError(CorpusError):
    pass


class DegenerateSpanError(CorpusError):
    pass


@dataclass(frozen=True)
class TemporalTuple:
    """Normalized start/end points of two events on the unit interval."""
    start1: float
    start2: float
    end1: float
    end2: float
    lock_start: str
    lock_end: str
    free_order: Optional[str] = None

    def as_raw(self) -> tuple[float, float, float, float]:
        return (self.start1, self.start2, self.end1, self.end2)

    @property
    def has_free_order(self) -> bool:
        return self.free_order is not None


def normalize_temporal(raw, eps: float = LOCK_TOLERANCE) -> TemporalTuple:
    """Rescale a raw (start1, start2, end1, end2) tuple so the earlier
    start sits at 0 and the later end at 1, and classify which endpoints
    are locked to the boundary.

    The relative order of the two free interior points is recorded only
    when one start and one end from *different* events are free.
    """
    s1, s2, e1, e2 = (float(v) for v in raw)
    if s1 > e1 + eps or s2 > e2 + eps:
        raise DegenerateSpanError(f"inverted span in {raw!r}")
    lo = min(s1, s2)
    hi = max(e1, e2)
    if hi - lo <= eps:
        raise DegenerateSpanError(f"all four values coincide in {raw!r}")
    scale = hi - lo
    s1, s2, e1, e2 = ((v - lo) / scale for v in (s1, s2, e1, e2))

    if abs(s1 - s2) <= eps:
        lock_start, free_start = LOCK_BOTH, None
        s1 = s2 = 0.0
    elif s1 <= eps:
        lock_start, free_start = LOCK_E1, ("e2", s2)
        s1 = 0.0
    else:
        lock_start, free_start = LOCK_E2, ("e1", s1)
        s2 = 0.0

    if abs(e1 - e2) <= eps:
        lock_end, free_end = LOCK_BOTH, None
        e1 = e2 = 1.0
    elif e1 >= 1.0 - eps:
        lock_end, free_end = LOCK_E1, ("e2", e2)
        e1 = 1.0
    else:
        lock_end, free_end = LOCK_E2, ("e1", e1)
        e2 = 1.0

    free_order = None
    if free_start is not None and free_end is not None \
            and free_start[0] != free_end[0]:
        # by construction the free start and free end belong to different
        # events; order them by owning event
        points = {free_start[0]: free_start[1], free_end[0]: free_end[1]}
        if abs(points["e1"] - points["e2"]) <= eps:
            free_order = ORDER_TIE
        elif points["e1"] < points["e2"]:
            free_order = ORDER_E1_FIRST
        else:
            free_order = ORDER_E2_FIRST

    return TemporalTuple(s1, s2, e1, e2, lock_start, lock_end, free_order)


Value = Union[bool, int, list]


@dataclass
class AnnotationRecord:
    element: str
    property: str
    annotator: str
    value: Value
    raw_confidence: int
    ridit_confidence: Optional[float] = None

    def to_obj(self) -> dict:
        obj = {
            "element": self.element,
            "property": self.property,
            "annotator": self.annotator,
            "value": self.value,
            "confidence": self.raw_confidence,
        }
        if self.ridit_confidence is not None:
            obj["ridit_confidence"] = self.ridit_confidence
        return obj

    @staticmethod
    def from_obj(obj: dict) -> "AnnotationRecord":
        return AnnotationRecord(
            element=obj["element"],
            property=obj["property"],
            annotator=obj["annotator"],
            value=obj["value"],
            raw_confidence=int(obj["confidence"]),
            ridit_confidence=obj.get("ridit_confidence"),
        )


@dataclass(frozen=True)
class Node:
    node_id: str
    kind: str                 # "predicate" | "argument"
    sentence: int
    span: str = ""
    supersense: Optional[str] = None  # arguments only

    @property
    def eventive(self) -> bool:
        return self.kind == "argument" and self.supersense in EVENTIVE_SUPERSENSES


@dataclass(frozen=True)
class Sentence:
    predicates: tuple[Node, ...]
    arguments: tuple[Node, ...]
    edges: tuple[tuple[str, str], ...]  # (predicate id, argument id)


def edge_id(pred: str, arg: str) -> str:
    return f"{pred}->{arg}"


def doc_edge_id(a: str, b: str) -> str:
    return f"{a}--{b}"


@dataclass
class DocumentGraph:
    doc_id: str
    sentences: list[Sentence]
    doc_edges: list[tuple[str, str]]
    annotations: list[AnnotationRecord]

    def nodes(self):
        for sent in self.sentences:
            yield from sent.predicates
            yield from sent.arguments

    def node_by_id(self) -> dict[str, Node]:
        return {n.node_id: n for n in self.nodes()}

    def element_kinds(self) -> dict[str, str]:
        """Map every annotatable element id to its attach-point kind."""
        kinds = {}
        for node in self.nodes():
            kinds[node.node_id] = (
                PREDICATE_NODE if node.kind == "predicate" else ARGUMENT_NODE)
        for sent in self.sentences:
            for pred, arg in sent.edges:
                kinds[edge_id(pred, arg)] = PRED_ARG_EDGE
        for a, b in self.doc_edges:
            kinds[doc_edge_id(a, b)] = DOCUMENT_EDGE
        return kinds

    def annotations_by_element(self) -> dict[str, list[AnnotationRecord]]:
        out: dict[str, list[AnnotationRecord]] = {}
        for rec in self.annotations:
            out.setdefault(rec.element, []).append(rec)
        return out

    def to_obj(self) -> dict:
        return {
            "id": self.doc_id,
            "sentences": [
                {
                    "predicates": [_node_obj(n) for n in s.predicates],
                    "arguments": [_node_obj(n) for n in s.arguments],
                    "edges": [list(e) for e in s.edges],
                }
                for s in self.sentences
            ],
            "doc_edges": [list(e) for e in self.doc_edges],
            "annotations": [a.to_obj() for a in self.annotations],
        }

    @staticmethod
    def from_obj(obj: dict) -> "DocumentGraph":
        sentences = []
        for i, s in enumerate(obj["sentences"]):
            preds = tuple(_node_from_obj(n, "predicate", i) for n in s["predicates"])
            args = tuple(_node_from_obj(n, "argument", i) for n in s["arguments"])
            edges = tuple((e[0], e[1]) for e in s["edges"])
            sentences.append(Sentence(preds, args, edges))
        return DocumentGraph(
            doc_id=obj["id"],
            sentences=sentences,
            doc_edges=[(e[0], e[1]) for e in obj["doc_edges"]],
            annotations=[AnnotationRecord.from_obj(a) for a in obj["annotations"]],
        )


def _node_obj(n: Node) -> dict:
    obj = {"id": n.node_id, "span": n.span}
    if n.supersense is not None:
        obj["supersense"] = n.supersense
    return obj


def _node_from_obj(obj: dict, kind: str, sentence: int) -> Node:
    return Node(
        node_id=obj["id"],
        kind=kind,
        sentence=sentence,
        span=obj.get("span", ""),
        supersense=obj.get("supersense"),
    )


def validate_document(doc: DocumentGraph, schema: Schema,
                      window: Optional[int] = None) -> None:
    """Check structural and annotation invariants; raise on violation."""
    nodes = doc.node_by_id()
    if len(nodes) != sum(1 for _ in doc.nodes()):
        raise ConsistencyError(f"{doc.doc_id}: duplicate node ids")
    for si, sent in enumerate(doc.sentences):
        for pred, arg in sent.edges:
            p, a = nodes.get(pred), nodes.get(arg)
            if p is None or a is None:
                raise ConsistencyError(
                    f"{doc.doc_id}: edge {pred}->{arg} references unknown node")
            if p.kind != "predicate" or a.kind != "argument":
                raise ConsistencyError(
                    f"{doc.doc_id}: edge {pred}->{arg} must join a predicate "
                    f"to an argument")
            if p.sentence != si or a.sentence != si:
                raise ConsistencyError(
                    f"{doc.doc_id}: edge {pred}->{arg} crosses sentences")
    for a, b in doc.doc_edges:
        na, nb = nodes.get(a), nodes.get(b)
        if na is None or nb is None:
            raise ConsistencyError(
                f"{doc.doc_id}: document edge {a}--{b} references unknown node")
        if window is not None and abs(na.sentence - nb.sentence) > window - 1:
            raise ConsistencyError(
                f"{doc.doc_id}: document edge {a}--{b} spans more than "
                f"{window - 1} sentences")

    kinds = doc.element_kinds()
    by_elem_prop: dict[tuple[str, str, str], AnnotationRecord] = {}
    for rec in doc.annotations:
        if rec.property not in schema:
            raise SchemaError(
                f"{doc.doc_id}: unknown property {rec.property!r}")
        spec = schema[rec.property]
        kind = kinds.get(rec.element)
        if kind is None:
            raise SchemaError(
                f"{doc.doc_id}: annotation references unknown element "
                f"{rec.element!r}")
        if kind != spec.attaches_to:
            raise SchemaError(
                f"{doc.doc_id}: property {rec.property} attaches to "
                f"{spec.attaches_to}, not {kind}")
        _check_value(doc, spec, rec)
        key = (rec.element, rec.property, rec.annotator)
        if key in by_elem_prop:
            raise ConsistencyError(
                f"{doc.doc_id}: {rec.annotator} answered {rec.property} on "
                f"{rec.element} more than once")
        by_elem_prop[key] = rec
    # gated records require a matching parent answer by the same annotator
    for rec in doc.annotations:
        spec = schema[rec.property]
        if spec.gate is None:
            continue
        parent_name, gating_value = spec.gate
        parent = by_elem_prop.get((rec.element, parent_name, rec.annotator))
        if parent is None or bool(parent.value) != gating_value:
            raise ConsistencyError(
                f"{doc.doc_id}: gated annotation {rec.property} on "
                f"{rec.element} by {rec.annotator} lacks a parent "
                f"{parent_name}={gating_value} answer")


def _check_value(doc: DocumentGraph, spec, rec: AnnotationRecord) -> None:
    if rec.raw_confidence not in CONFIDENCE_LEVELS:
        raise ConsistencyError(
            f"{doc.doc_id}: confidence {rec.raw_confidence} outside 1..5")
    v = rec.value
    if spec.response == BINARY:
        ok = isinstance(v, bool)
    elif spec.response == CATEGORICAL:
        ok = isinstance(v, int) and not isinstance(v, bool) \
            and 0 <= v < spec.n_categories
    elif spec.response == ORDINAL:
        ok = isinstance(v, int) and not isinstance(v, bool) \
            and 1 <= v <= spec.n_levels
    elif spec.response == TEMPORAL:
        ok = isinstance(v, (list, tuple)) and len(v) == 4 \
            and all(isinstance(x, (int, float)) and math.isfinite(x)
                    for x in v)
    else:  # pragma: no cover
        ok = False
    if not ok:
        raise SchemaError(
            f"{doc.doc_id}: value {v!r} does not match {spec.response} "
            f"property {spec.name}")
    if spec.response == TEMPORAL:
        try:
            normalize_temporal(v)
        except DegenerateSpanError as exc:
            raise ConsistencyError(
                f"{doc.doc_id}: {spec.name} answer by {rec.annotator} on "
                f"{rec.element}: {exc}") from exc


def load_corpus(path, schema: Schema,
                window: Optional[int] = None) -> list[DocumentGraph]:
    docs = []
    first_line: dict[str, int] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                doc = DocumentGraph.from_obj(obj)
            except (json.JSONDecodeError, KeyError, TypeError, IndexError) as exc:
                raise ParseError(str(exc), line=lineno) from exc
            if doc.doc_id in first_line:
                raise ConsistencyError(
                    f"line {lineno}: duplicate document id {doc.doc_id!r} "
                    f"(first on line {first_line[doc.doc_id]})")
            first_line[doc.doc_id] = lineno
            validate_document(doc, schema, window=window)
            docs.append(doc)
    return docs


def save_corpus(docs: list[DocumentGraph], path) -> None:
    with open(path, "w") as fh:
        for doc in docs:
            fh.write(json.dumps(doc.to_obj(), separators=(",", ":")))
            fh.write("\n")


def ridit_scores(level_counts: dict[int, int]) -> dict[int, float]:
    """Mid-CDF ridit score per raw confidence level for one annotator."""
    total = sum(level_counts.values())
    scores, below = {}, 0.0
    for level in CONFIDENCE_LEVELS:
        p = level_counts.get(level, 0) / total
        scores[level] = below + p / 2.0
        below += p
    return scores


def ridit_score_corpus(docs: list[DocumentGraph]) -> list[DocumentGraph]:
    """Fill ridit_confidence on every record.

    The empirical confidence distribution is accumulated per annotator over
    the whole corpus.  Gated records get the mean of their own ridit score
    and their parent record's ridit score.
    """
    counts: dict[str, dict[int, int]] = {}
    for doc in docs:
        for rec in doc.annotations:
            hist = counts.setdefault(rec.annotator, {})
            hist[rec.raw_confidence] = hist.get(rec.raw_confidence, 0) + 1
    tables = {ann: ridit_scores(hist) for ann, hist in counts.items()}
    for doc in docs:
        for rec in doc.annotations:
            rec.ridit_confidence = tables[rec.annotator][rec.raw_confidence]
    return docs


def apply_gated_confidence(docs: list[DocumentGraph], schema: Schema) -> None:
    """Replace gated records' ridit confidence with the mean of their own
    and their parent record's.  Call after ridit_score_corpus."""
    for doc in docs:
        parents = {
            (r.element, r.property, r.annotator): r for r in doc.annotations
        }
        for rec in doc.annotations:
            spec = schema[rec.property]
            if spec.gate is None:
                continue
            parent = parents.get((rec.element, spec.gate[0], rec.annotator))
            if parent is None:
                raise ConsistencyError(
                    f"{doc.doc_id}: gated record without parent")
            rec.ridit_confidence = (rec.ridit_confidence
                                    + parent.ridit_confidence) / 2.0


def prepare_corpus(docs: list[DocumentGraph], schema: Schema) -> list[DocumentGraph]:
    """Ridit score and apply gated-confidence averaging."""
    ridit_score_corpus(docs)
    apply_gated_confidence(docs, schema)
    return docs
