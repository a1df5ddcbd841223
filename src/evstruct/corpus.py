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
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Union

from .schema import (
    ARGUMENT_NODE, BINARY, CATEGORICAL, DOCUMENT_EDGE, EVENTIVE_SUPERSENSES,
    ORDINAL, PRED_ARG_EDGE, PREDICATE_NODE, Schema, SchemaError,
)

LOCK_TOLERANCE = 1e-6  # coincidence tolerance on the normalized time scale

CONFIDENCE_LEVELS = (1, 2, 3, 4, 5)

# lock outcomes, index order matters for the categorical likelihood
LOCK_E1, LOCK_E2, LOCK_BOTH = "e1", "e2", "both"
LOCK_OUTCOMES = (LOCK_E1, LOCK_E2, LOCK_BOTH)
# relative order of the two free interior points, by owning event
ORDER_E1_FIRST, ORDER_TIE, ORDER_E2_FIRST = "e1-first", "tie", "e2-first"
ORDER_OUTCOMES = (ORDER_E1_FIRST, ORDER_TIE, ORDER_E2_FIRST)


def free_order_applies(lock_start: str, lock_end: str) -> bool:
    """The free order is an outcome exactly when both locks are single and
    name different events: then one start and one end are free, and they
    belong to different events."""
    return LOCK_BOTH not in (lock_start, lock_end) and lock_start != lock_end


class CorpusError(ValueError):
    pass


class ParseError(CorpusError):
    def __init__(self, message, line):
        super().__init__(f"line {line}: {message}")
        self.line = line


class ConsistencyError(CorpusError):
    pass


class DegenerateSpanError(CorpusError):
    pass


class TemporalTuple(NamedTuple):
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


def normalize_temporal(raw) -> TemporalTuple:
    """Rescale a raw (start1, start2, end1, end2) tuple so the earlier
    start sits at 0 and the later end at 1, and classify which endpoints
    are locked to the boundary.

    The relative order of the two free interior points is recorded only
    when ``free_order_applies``.
    """
    eps = LOCK_TOLERANCE
    s1, s2, e1, e2 = map(float, raw)
    if s1 > e1 + eps or s2 > e2 + eps:
        raise DegenerateSpanError(f"inverted span in {raw!r}")
    lo = s2 if s2 < s1 else s1          # min and max, picked as they pick
    hi = e2 if e2 > e1 else e1
    if hi - lo <= eps:
        raise DegenerateSpanError(f"all four values coincide in {raw!r}")
    scale = hi - lo
    s1, s2 = (s1 - lo) / scale, (s2 - lo) / scale
    e1, e2 = (e1 - lo) / scale, (e2 - lo) / scale

    if abs(s1 - s2) <= eps:
        lock_start = LOCK_BOTH
        s1 = s2 = 0.0
    elif s1 <= eps:
        lock_start = LOCK_E1
        s1 = 0.0
    else:
        lock_start = LOCK_E2
        s2 = 0.0

    if abs(e1 - e2) <= eps:
        lock_end = LOCK_BOTH
        e1 = e2 = 1.0
    elif e1 >= 1.0 - eps:
        lock_end = LOCK_E1
        e1 = 1.0
    else:
        lock_end = LOCK_E2
        e2 = 1.0

    free_order = None
    if free_order_applies(lock_start, lock_end):
        # order the two free points by owning event
        p1, p2 = (e1, s2) if lock_start == LOCK_E1 else (s1, e2)
        if abs(p1 - p2) <= eps:
            free_order = ORDER_TIE
        elif p1 < p2:
            free_order = ORDER_E1_FIRST
        else:
            free_order = ORDER_E2_FIRST

    return TemporalTuple(s1, s2, e1, e2, lock_start, lock_end, free_order)


Value = Union[bool, int, list]


@dataclass(slots=True)
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
        return AnnotationRecord(obj["element"], obj["property"],
                                obj["annotator"], obj["value"],
                                obj["confidence"], obj.get("ridit_confidence"))


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
        for i, s in enumerate(_list(obj, "sentences")):
            where = f"sentence {i}'s "
            preds = tuple(_node_from_obj(n, "predicate", i)
                          for n in _list(s, "predicates", where))
            args = tuple(_node_from_obj(n, "argument", i)
                         for n in _list(s, "arguments", where))
            edges = tuple(_pair(e, f"{where}edges")
                          for e in _list(s, "edges", where))
            sentences.append(Sentence(preds, args, edges))
        return DocumentGraph(
            doc_id=obj["id"],
            sentences=sentences,
            doc_edges=[_pair(e, "doc_edges")
                       for e in _list(obj, "doc_edges")],
            annotations=list(map(AnnotationRecord.from_obj,
                                 _list(obj, "annotations"))),
        )


def _list(obj: dict, key: str, where: str = "") -> list:
    """obj[key], which must be a JSON list: iterating an object or a string
    instead would drop or garble its entries."""
    value = obj[key]
    if type(value) is not list:
        raise TypeError(f"{where}{key} is not a JSON list")
    return value


def _pair(edge, key: str) -> tuple:
    """An edge's two endpoints: it must be a JSON list of exactly two."""
    if type(edge) is not list or len(edge) != 2:
        raise TypeError(f"{key} entry {edge!r} is not a list of two ids")
    return edge[0], edge[1]


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
    # ids are looked up and joined into element ids, a supersense looked up,
    # a span written back to the prepared corpus
    for node in doc.nodes():
        if type(node.node_id) is not str:
            raise ConsistencyError(f"{doc.doc_id}: a {node.kind}'s id "
                                   f"{node.node_id!r} is not a string")
        if node.supersense is not None and type(node.supersense) is not str:
            raise ConsistencyError(
                f"{doc.doc_id}: {node.kind} {node.node_id}'s supersense "
                f"{node.supersense!r} is not a string")
        if node.span is not None and type(node.span) is not str:
            raise ConsistencyError(
                f"{doc.doc_id}: {node.kind} {node.node_id}'s span "
                f"{node.span!r} is not a string")
    for edge in [e for s in doc.sentences for e in s.edges] + doc.doc_edges:
        for end in edge:
            if type(end) is not str:
                raise ConsistencyError(f"{doc.doc_id}: an edge's endpoint "
                                       f"{end!r} is not a string")
    nodes = doc.node_by_id()
    if len(nodes) != sum(1 for _ in doc.nodes()):
        raise ConsistencyError(f"{doc.doc_id}: duplicate node ids")
    for node_id in nodes:
        # edge element ids join node ids with these
        if "->" in node_id or "--" in node_id:
            raise ConsistencyError(
                f"{doc.doc_id}: node id {node_id!r} contains '->' or '--', "
                f"which join node ids into edge element ids")
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
    rules = {spec.name: (spec, *_value_rule(spec)) for spec in schema}
    lowest, highest = CONFIDENCE_LEVELS[0], CONFIDENCE_LEVELS[-1]
    answers: dict[tuple[str, str, str], AnnotationRecord] = {}
    gated = []
    for rec in doc.annotations:
        # a lookup rejects an element or property that is not a string;
        # nothing looks the annotator up
        if type(rec.annotator) is not str:
            raise _not_a_string(doc, rec)
        try:
            rule = rules.get(rec.property)
            if rule is None:
                raise SchemaError(
                    f"{doc.doc_id}: unknown property {rec.property!r}")
            kind = kinds.get(rec.element)
        except TypeError:               # unhashable: a JSON list or object
            raise _not_a_string(doc, rec) from None
        spec, json_type, least, greatest = rule
        if kind != spec.attaches_to:
            if kind is None:
                raise SchemaError(
                    f"{doc.doc_id}: annotation references unknown element "
                    f"{rec.element!r}")
            raise SchemaError(
                f"{doc.doc_id}: property {rec.property} attaches to "
                f"{spec.attaches_to}, not {kind}")
        level, ridit, v = rec.raw_confidence, rec.ridit_confidence, rec.value
        # type, not isinstance: a bool is not a number here
        if type(level) is not int or not lowest <= level <= highest:
            raise _bad_answer(doc, spec, rec, "confidence", level,
                              "an integer in 1..5")
        if ridit is not None and (type(ridit) not in (int, float)
                                  or not 0.0 <= ridit <= 1.0):
            raise _bad_answer(doc, spec, rec, "ridit confidence", ridit,
                              "a number in [0, 1]")
        if json_type is None:
            _check_span(doc, spec, rec)
        elif type(v) is not json_type or not least <= v <= greatest:
            raise _bad_value(doc, spec, v)
        key = (rec.element, rec.property, rec.annotator)
        if answers.setdefault(key, rec) is not rec:
            raise ConsistencyError(
                f"{doc.doc_id}: {rec.annotator} answered {rec.property} on "
                f"{rec.element} more than once")
        if spec.gate is not None:
            gated.append((rec, spec.gate))
    # gated records require a matching parent answer by the same annotator
    for rec, (parent_name, gating_value) in gated:
        parent = answers.get((rec.element, parent_name, rec.annotator))
        if parent is None or bool(parent.value) != gating_value:
            raise ConsistencyError(
                f"{doc.doc_id}: gated annotation {rec.property} on "
                f"{rec.element} by {rec.annotator} lacks a parent "
                f"{parent_name}={gating_value} answer")


def _not_a_string(doc: DocumentGraph, rec: AnnotationRecord) -> CorpusError:
    field = next(f for f in ("element", "property", "annotator")
                 if type(getattr(rec, f)) is not str)
    return ConsistencyError(f"{doc.doc_id}: an annotation's {field} "
                            f"{getattr(rec, field)!r} is not a string")


def _value_rule(spec) -> tuple:
    """(JSON type, least, greatest) of a property's answers; all None for a
    temporal tuple, which _check_span checks."""
    if spec.response == BINARY:
        return bool, False, True
    if spec.response == CATEGORICAL:
        return int, 0, spec.n_categories - 1
    if spec.response == ORDINAL:
        return int, 1, spec.n_levels
    return None, None, None


def _bad_answer(doc, spec, rec, what, value, rule) -> CorpusError:
    return ConsistencyError(
        f"{doc.doc_id}: {what} {value!r} of {rec.annotator}'s {spec.name} "
        f"answer on {rec.element} is not {rule}")


def _bad_value(doc, spec, value) -> CorpusError:
    return SchemaError(f"{doc.doc_id}: value {value!r} does not match "
                       f"{spec.response} property {spec.name}")


def _check_span(doc: DocumentGraph, spec, rec: AnnotationRecord) -> None:
    """A temporal answer: four finite numbers, not bools, that normalize."""
    v = rec.value
    if not (isinstance(v, (list, tuple)) and len(v) == 4
            and all(type(x) in (int, float) and math.isfinite(x)
                    for x in v)):
        raise _bad_value(doc, spec, v)
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
            if type(doc.doc_id) is not str:
                raise ConsistencyError(f"line {lineno}: document id "
                                       f"{doc.doc_id!r} is not a string")
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
