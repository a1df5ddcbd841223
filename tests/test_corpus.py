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
