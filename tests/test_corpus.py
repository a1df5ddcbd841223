"""Corpus ingestion, validation, ridit scoring, and temporal-tuple
normalization."""

import json

import numpy as np
import pytest

from evstruct.corpus import (
    AnnotationRecord, ConsistencyError, DegenerateSpanError, DocumentGraph,
    Node, ParseError, Sentence, edge_id, load_corpus, normalize_temporal,
    prepare_corpus, ridit_score_corpus, ridit_scores, save_corpus,
)
from evstruct.schema import SchemaError, default_schema


def make_doc(doc_id="d0", annotations=None):
    pred = Node("p0", "predicate", 0, span="ran")
    arg = Node("a0", "argument", 0, span="dog")
    sent = Sentence((pred,), (arg,), (("p0", "a0"),))
    return DocumentGraph(doc_id, [sent], [], annotations or [])


def rec(prop, value, ann="a", conf=3, element="p0"):
    return AnnotationRecord(element=element, property=prop, annotator=ann,
                            value=value, raw_confidence=conf)


SCHEMA = default_schema()


class TestNormalizeTemporal:

    def test_rescale_and_locks(self):
        t = normalize_temporal((10.0, 10.0, 20.0, 20.0))
        assert t.as_raw() == (0.0, 0.0, 1.0, 1.0)
        assert t.lock_start == "both" and t.lock_end == "both"
        assert t.free_order is None

    def test_containment_gives_no_order(self):
        # e2 strictly inside e1: both free points belong to e2
        t = normalize_temporal((0.0, 2.0, 10.0, 8.0))
        assert t.lock_start == "e1" and t.lock_end == "e1"
        assert t.free_order is None
        assert t.start2 == pytest.approx(0.2)
        assert t.end2 == pytest.approx(0.8)

    def test_free_order_e1_first(self):
        # e1 ends before e2 starts
        t = normalize_temporal((0.0, 6.0, 4.0, 10.0))
        assert t.lock_start == "e1" and t.lock_end == "e2"
        assert t.free_order == "e1-first"

    def test_free_order_tie(self):
        t = normalize_temporal((0.0, 5.0, 5.0, 10.0))
        assert t.free_order == "tie"

    def test_free_order_e2_first(self):
        t = normalize_temporal((0.0, 3.0, 7.0, 10.0))
        assert t.lock_start == "e1" and t.lock_end == "e2"
        assert t.free_order == "e2-first"

    def test_inverted_span_rejected(self):
        with pytest.raises(DegenerateSpanError):
            normalize_temporal((5.0, 0.0, 1.0, 10.0))

    def test_degenerate_point_rejected(self):
        with pytest.raises(DegenerateSpanError):
            normalize_temporal((3.0, 3.0, 3.0, 3.0))

    def test_idempotent_on_normalized(self):
        t = normalize_temporal((0.0, 0.25, 0.5, 1.0))
        again = normalize_temporal(t.as_raw())
        assert again == t


class TestValidation:

    def test_roundtrip(self, tmp_path):
        doc = make_doc(annotations=[rec("telic", True)])
        path = tmp_path / "c.jsonl"
        save_corpus([doc], path)
        loaded = load_corpus(path, SCHEMA)
        assert len(loaded) == 1
        assert loaded[0].doc_id == "d0"
        assert loaded[0].annotations[0].value is True

    def test_parse_error_carries_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        doc = make_doc()
        path.write_text(json.dumps(doc.to_obj()) + "\n{not json\n")
        with pytest.raises(ParseError) as err:
            load_corpus(path, SCHEMA)
        assert err.value.line == 2

    def test_unknown_property(self, tmp_path):
        doc = make_doc(annotations=[rec("no_such_prop", True)])
        path = tmp_path / "c.jsonl"
        save_corpus([doc], path)
        with pytest.raises(SchemaError):
            load_corpus(path, SCHEMA)

    def test_wrong_attach_point(self, tmp_path):
        # telic attaches to predicates, not arguments
        doc = make_doc(annotations=[rec("telic", True, element="a0")])
        path = tmp_path / "c.jsonl"
        save_corpus([doc], path)
        with pytest.raises(SchemaError):
            load_corpus(path, SCHEMA)

    def test_value_type_mismatch(self, tmp_path):
        doc = make_doc(annotations=[rec("telic", 3)])
        path = tmp_path / "c.jsonl"
        save_corpus([doc], path)
        with pytest.raises(SchemaError):
            load_corpus(path, SCHEMA)

    def test_gated_without_parent(self, tmp_path):
        doc = make_doc(annotations=[rec("part_similarity", True)])
        path = tmp_path / "c.jsonl"
        save_corpus([doc], path)
        with pytest.raises(ConsistencyError):
            load_corpus(path, SCHEMA)

    def test_gated_with_parent_ok(self, tmp_path):
        doc = make_doc(annotations=[rec("natural_parts", True),
                                    rec("part_similarity", False)])
        path = tmp_path / "c.jsonl"
        save_corpus([doc], path)
        assert len(load_corpus(path, SCHEMA)) == 1

    def test_window_violation(self, tmp_path):
        p0 = Node("p0", "predicate", 0)
        p1 = Node("p1", "predicate", 1)
        p2 = Node("p2", "predicate", 2)
        doc = DocumentGraph("d0", [
            Sentence((p0,), (), ()), Sentence((p1,), (), ()),
            Sentence((p2,), (), ())], [("p2", "p0")], [])
        path = tmp_path / "c.jsonl"
        save_corpus([doc], path)
        with pytest.raises(ConsistencyError):
            load_corpus(path, SCHEMA, window=2)
        # the same edge is fine with a wider window
        assert load_corpus(path, SCHEMA, window=3)

    def test_confidence_range(self, tmp_path):
        doc = make_doc(annotations=[rec("telic", True, conf=9)])
        path = tmp_path / "c.jsonl"
        save_corpus([doc], path)
        with pytest.raises(ConsistencyError):
            load_corpus(path, SCHEMA)

    def test_duplicate_document_id(self, tmp_path):
        path = tmp_path / "c.jsonl"
        save_corpus([make_doc("d0"), make_doc("d1"), make_doc("d0")], path)
        with pytest.raises(ConsistencyError,
                           match=r"line 3: duplicate document id 'd0'"):
            load_corpus(path, SCHEMA)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_non_finite_temporal_value(self, tmp_path, bad):
        p0 = Node("p0", "predicate", 0)
        p1 = Node("p1", "predicate", 1)
        answer = rec("temporal_relation", [0.0, bad, 1.0, 1.0],
                     element="p1--p0")
        doc = DocumentGraph("d0", [Sentence((p0,), (), ()),
                                   Sentence((p1,), (), ())],
                            [("p1", "p0")], [answer])
        path = tmp_path / "c.jsonl"
        save_corpus([doc], path)
        with pytest.raises(SchemaError, match="temporal_relation"):
            load_corpus(path, SCHEMA)

    @pytest.mark.parametrize("span, reason", [
        ([5.0, 0.0, 1.0, 1.0], "inverted span"),
        ([2.0, 2.0, 2.0, 2.0], "all four values coincide")])
    def test_degenerate_temporal_span(self, tmp_path, span, reason):
        p0 = Node("p0", "predicate", 0)
        p1 = Node("p1", "predicate", 1)
        answer = rec("temporal_relation", span, ann="b", element="p1--p0")
        doc = DocumentGraph("d7", [Sentence((p0,), (), ()),
                                   Sentence((p1,), (), ())],
                            [("p1", "p0")], [answer])
        path = tmp_path / "c.jsonl"
        save_corpus([doc], path)
        with pytest.raises(ConsistencyError) as exc:
            load_corpus(path, SCHEMA)
        for part in ("d7", "p1--p0", "temporal_relation", "b", reason):
            assert part in str(exc.value)

    def test_duplicate_answer(self, tmp_path):
        doc = make_doc(annotations=[rec("telic", True), rec("telic", False),
                                    rec("telic", True, ann="b")])
        path = tmp_path / "c.jsonl"
        save_corpus([doc], path)
        with pytest.raises(ConsistencyError, match="telic on p0 more than"):
            load_corpus(path, SCHEMA)
        # one answer per annotator is fine
        doc.annotations = doc.annotations[1:]
        save_corpus([doc], path)
        assert len(load_corpus(path, SCHEMA)) == 1

    @pytest.mark.parametrize("node_id", ["p0->a0", "d0s0--p0"])
    def test_node_id_with_element_separator(self, tmp_path, node_id):
        # element ids join node ids with these separators
        doc = DocumentGraph("d3", [Sentence((Node(node_id, "predicate", 0),),
                                            (), ())], [], [])
        path = tmp_path / "c.jsonl"
        save_corpus([doc], path)
        with pytest.raises(ConsistencyError) as exc:
            load_corpus(path, SCHEMA)
        assert "d3" in str(exc.value) and repr(node_id) in str(exc.value)

    @pytest.mark.parametrize("ridit", ["high", 7.5, -0.2, True,
                                       float("nan")])
    def test_ridit_confidence_not_in_unit_interval(self, tmp_path, ridit):
        doc = make_doc("d4", annotations=[rec("telic", True, ann="b")])
        doc.annotations[0].ridit_confidence = ridit
        path = tmp_path / "c.jsonl"
        save_corpus([doc], path)
        with pytest.raises(ConsistencyError) as exc:
            load_corpus(path, SCHEMA)
        for part in ("d4", "p0", "telic", "b", repr(ridit)):
            assert part in str(exc.value)

    @pytest.mark.parametrize("ridit", [0, 0.5, 1.0])
    def test_ridit_confidence_in_unit_interval(self, tmp_path, ridit):
        doc = make_doc(annotations=[rec("telic", True)])
        doc.annotations[0].ridit_confidence = ridit
        path = tmp_path / "c.jsonl"
        save_corpus([doc], path)
        assert load_corpus(path, SCHEMA)[0].annotations[0].ridit_confidence \
            == ridit

    @pytest.mark.parametrize("conf", [3.0, 2.7, True, "3", "high", None, 0,
                                      9])
    def test_confidence_not_an_integer_level(self, tmp_path, conf):
        # the rule of ordinal answers: a JSON integer, not a bool, in 1..5
        doc = make_doc("d5", annotations=[rec("telic", True, ann="b",
                                              conf=conf)])
        path = tmp_path / "c.jsonl"
        save_corpus([doc], path)
        with pytest.raises(ConsistencyError) as exc:
            load_corpus(path, SCHEMA)
        for part in ("d5", "p0", "telic", "b", f"confidence {conf!r}"):
            assert part in str(exc.value)

    @pytest.mark.parametrize("value", [["x"], {"k": 1}, 7, None],
                             ids=["list", "object", "number", "null"])
    @pytest.mark.parametrize("field", ["element", "property", "annotator"])
    def test_annotation_field_not_a_string(self, tmp_path, field, value):
        doc = make_doc("d6", annotations=[rec("telic", True)])
        obj = doc.to_obj()
        obj["annotations"][0][field] = value
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(obj) + "\n")
        with pytest.raises((ConsistencyError, SchemaError)) as exc:
            load_corpus(path, SCHEMA)
        assert str(exc.value).startswith("d6: ")
        assert f"{field} {value!r}" in str(exc.value)

    @pytest.mark.parametrize("conf", [1, 5])
    def test_confidence_level_kept_as_read(self, tmp_path, conf):
        doc = make_doc(annotations=[rec("telic", True, conf=conf)])
        path = tmp_path / "c.jsonl"
        save_corpus([doc], path)
        level = load_corpus(path, SCHEMA)[0].annotations[0].raw_confidence
        assert type(level) is int and level == conf


class TestRidit:

    def test_table_mid_cdf(self):
        scores = ridit_scores({1: 1, 2: 1, 3: 2})
        assert scores[1] == pytest.approx(0.125)
        assert scores[2] == pytest.approx(0.375)
        assert scores[3] == pytest.approx(0.75)

    def test_monotone_in_level(self):
        scores = ridit_scores({1: 5, 2: 3, 3: 9, 4: 1, 5: 2})
        vals = [scores[j] for j in range(1, 6)]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_constant_confidence_scores_half(self):
        doc = make_doc(annotations=[rec("telic", True, conf=5),
                                    rec("dynamic", False, conf=5)])
        ridit_score_corpus([doc])
        assert all(r.ridit_confidence == pytest.approx(0.5)
                   for r in doc.annotations)

    def test_per_annotator_mean_half(self):
        rng = np.random.default_rng(0)
        anns = []
        for i in range(40):
            anns.append(rec("telic", bool(i % 2), ann="a",
                            conf=int(rng.integers(1, 6))))
        doc = make_doc(annotations=anns)
        ridit_score_corpus([doc])
        mean = np.mean([r.ridit_confidence for r in doc.annotations])
        assert mean == pytest.approx(0.5, abs=1e-12)

    def test_gated_gets_parent_average(self):
        parent = rec("natural_parts", True, conf=5)
        child = rec("part_similarity", True, conf=1)
        other = rec("telic", False, conf=3)
        doc = make_doc(annotations=[parent, child, other])
        prepare_corpus([doc], SCHEMA)
        # child score must equal the mean of its own table score and the
        # parent record's score
        table = ridit_scores({5: 1, 1: 1, 3: 1})
        assert parent.ridit_confidence == pytest.approx(table[5])
        assert child.ridit_confidence == pytest.approx(
            (table[1] + table[5]) / 2)


def test_element_kinds():
    doc = make_doc()
    kinds = doc.element_kinds()
    assert kinds["p0"] == "predicate-node"
    assert kinds["a0"] == "argument-node"
    assert kinds[edge_id("p0", "a0")] == "predicate-argument-edge"


def test_eventive_supersense():
    n = Node("a0", "argument", 0, supersense="process")
    assert n.eventive
    assert not Node("a1", "argument", 0, supersense="artifact").eventive
    assert not Node("p0", "predicate", 0, supersense="event").eventive


def _set_document_id(obj, value):
    obj["id"] = value


def _set_predicate_id(obj, value):
    obj["sentences"][0]["predicates"][0]["id"] = value


def _set_edge_end(obj, value):
    obj["sentences"][0]["edges"][0][0] = value


def _set_doc_edge_end(obj, value):
    obj["doc_edges"] = [[value, "p0"]]


def _set_supersense(obj, value):
    obj["sentences"][0]["arguments"][0]["supersense"] = value


def _set_span(obj, value):
    obj["sentences"][0]["predicates"][0]["span"] = value


# (edit, value, message): a document id names the line, anything else the
# document
NOT_A_STRING = [
    (_set_document_id, ["x"], "line 1: document id ['x'] is not a string"),
    (_set_document_id, 7, "line 1: document id 7 is not a string"),
    (_set_predicate_id, ["x"], "d0: a predicate's id ['x'] is not a string"),
    (_set_edge_end, ["x"], "d0: an edge's endpoint ['x'] is not a string"),
    (_set_doc_edge_end, ["x"], "d0: an edge's endpoint ['x'] is not a string"),
    (_set_supersense, ["event"],
     "d0: argument a0's supersense ['event'] is not a string"),
    (_set_span, {"a": [1]},
     "d0: predicate p0's span {'a': [1]} is not a string"),
]
NOT_A_STRING_IDS = ["doc-id-list", "doc-id-number", "predicate-id", "edge",
                    "doc-edge", "supersense", "span"]


@pytest.mark.parametrize("edit, value, message", NOT_A_STRING,
                         ids=NOT_A_STRING_IDS)
def test_id_or_supersense_not_a_string(tmp_path, edit, value, message):
    # before, each ended in a TypeError at load or later, at fit or
    # posteriors time
    obj = make_doc("d0", annotations=[rec("telic", True)]).to_obj()
    edit(obj, value)
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(obj) + "\n")
    with pytest.raises(ConsistencyError) as exc:
        load_corpus(path, SCHEMA)
    assert str(exc.value) == message


# (key path, value, message): each check of validate_document on the graph
# itself, on a document whose second sentence holds p1 and a1
GRAPH_ERRORS = [
    (("sentences", 0, "arguments", 0, "id"), "p0", "d0: duplicate node ids"),
    (("sentences", 0, "edges", 0), ["p0", "zz"],
     "d0: edge p0->zz references unknown node"),
    (("sentences", 0, "edges", 0), ["a0", "p0"],
     "d0: edge a0->p0 must join a predicate to an argument"),
    (("sentences", 0, "edges", 0), ["p0", "a1"],
     "d0: edge p0->a1 crosses sentences"),
    (("doc_edges",), [["p0", "zz"]],
     "d0: document edge p0--zz references unknown node"),
]


@pytest.mark.parametrize("path, value, message", GRAPH_ERRORS,
                         ids=["duplicate-id", "unknown-node", "not-pred-arg",
                              "crosses-sentences", "doc-edge-unknown-node"])
def test_graph_structure_errors(tmp_path, path, value, message):
    obj = make_doc("d0", annotations=[rec("telic", True)]).to_obj()
    obj["sentences"].append({"predicates": [{"id": "p1", "span": "sat"}],
                             "arguments": [{"id": "a1", "span": "cat"}],
                             "edges": [["p1", "a1"]]})
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    corpus = tmp_path / "c.jsonl"
    corpus.write_text(json.dumps(obj) + "\n")
    with pytest.raises(ConsistencyError) as exc:
        load_corpus(corpus, SCHEMA)
    assert str(exc.value) == message
