"""The single validation walk (corpus.validate_document) against the chain
of checks it replaced, kept here as the reference: over single-field
mutations of a synthesized corpus, both raise the same error with the same
message, or both pass."""

import copy
import math

import pytest

from evstruct.corpus import (
    CONFIDENCE_LEVELS, ConsistencyError, DegenerateSpanError, DocumentGraph,
    normalize_temporal, prepare_corpus, validate_document,
)
from evstruct.params import TypeInventory
from evstruct.schema import (
    BINARY, CATEGORICAL, ORDINAL, TEMPORAL, SchemaError, default_schema,
)
from evstruct.synth import SynthConfig, sample_corpus

SCHEMA = default_schema()
DELETED = object()
VALUES = [None, True, 7, -1, 2.5, float("nan"), "x", [], {}, ["x"], DELETED]
FIELDS = ["element", "property", "annotator", "value", "confidence",
          "ridit_confidence"]


def reference_validate(doc, schema, window=None):
    """validate_document's annotation checks as they were: a schema
    membership test, a kind lookup and a _check_value call per record.
    The structural checks, which did not change, run first as they are."""
    validate_document(
        DocumentGraph(doc.doc_id, doc.sentences, doc.doc_edges, []),
        schema, window)
    kinds = doc.element_kinds()
    by_elem_prop = {}
    for rec in doc.annotations:
        if type(rec.annotator) is not str:
            raise reference_not_a_string(doc, rec)
        try:
            if rec.property not in schema:
                raise SchemaError(
                    f"{doc.doc_id}: unknown property {rec.property!r}")
            kind = kinds.get(rec.element)
        except TypeError:
            raise reference_not_a_string(doc, rec) from None
        spec = schema[rec.property]
        if kind is None:
            raise SchemaError(
                f"{doc.doc_id}: annotation references unknown element "
                f"{rec.element!r}")
        if kind != spec.attaches_to:
            raise SchemaError(
                f"{doc.doc_id}: property {rec.property} attaches to "
                f"{spec.attaches_to}, not {kind}")
        reference_check_value(doc, spec, rec)
        key = (rec.element, rec.property, rec.annotator)
        if key in by_elem_prop:
            raise ConsistencyError(
                f"{doc.doc_id}: {rec.annotator} answered {rec.property} on "
                f"{rec.element} more than once")
        by_elem_prop[key] = rec
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


def reference_not_a_string(doc, rec):
    field = next(f for f in ("element", "property", "annotator")
                 if type(getattr(rec, f)) is not str)
    return ConsistencyError(f"{doc.doc_id}: an annotation's {field} "
                            f"{getattr(rec, field)!r} is not a string")


def reference_check_value(doc, spec, rec):
    level, ridit = rec.raw_confidence, rec.ridit_confidence
    if type(level) is not int or level not in CONFIDENCE_LEVELS:
        raise ConsistencyError(
            f"{doc.doc_id}: confidence {level!r} of {rec.annotator}'s "
            f"{spec.name} answer on {rec.element} is not an integer in 1..5")
    if ridit is not None and (type(ridit) not in (int, float)
                              or not 0.0 <= ridit <= 1.0):
        raise ConsistencyError(
            f"{doc.doc_id}: ridit confidence {ridit!r} of {rec.annotator}'s "
            f"{spec.name} answer on {rec.element} is not a number in [0, 1]")
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
            and all(type(x) in (int, float) and math.isfinite(x)
                    for x in v)
    else:
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


@pytest.fixture(scope="module")
def corpus_objs():
    cfg = SynthConfig(inventory=TypeInventory(3, 2, 2, 2), schema=SCHEMA,
                      n_docs=3, sentences_per_doc=2,
                      predicates_per_sentence=2, eventive_prob=0.5,
                      n_annotators=3, annotators_per_item=2, seed=4)
    docs, _, _ = sample_corpus(cfg)
    prepare_corpus(docs, SCHEMA)
    return [doc.to_obj() for doc in docs]


def outcome(check, obj):
    doc = DocumentGraph.from_obj(obj)
    try:
        check(doc, SCHEMA, window=2)
    except (ConsistencyError, SchemaError) as exc:
        return type(exc), str(exc)
    return None


def assert_same(obj):
    assert outcome(validate_document, obj) == outcome(reference_validate, obj)


def mutations(objs):
    """(document, annotation index) of the first answer to each property."""
    seen = set()
    for d, obj in enumerate(objs):
        for i, ann in enumerate(obj["annotations"]):
            if ann["property"] not in seen:
                seen.add(ann["property"])
                yield d, i


def test_single_field_mutations(corpus_objs):
    targets = list(mutations(corpus_objs))
    assert {corpus_objs[d]["annotations"][i]["property"]
            for d, i in targets} == {p.name for p in SCHEMA}
    failures = 0
    for d, i in targets:
        for field in FIELDS:
            for value in VALUES:
                obj = copy.deepcopy(corpus_objs[d])
                if value is DELETED:
                    if field != "ridit_confidence":
                        continue            # a parse error, before checks
                    del obj["annotations"][i][field]
                else:
                    obj["annotations"][i][field] = value
                assert_same(obj)
                failures += outcome(validate_document, obj) is not None
    assert failures > len(targets) * len(FIELDS) * 5


def test_structural_mutations(corpus_objs):
    for obj in corpus_objs:
        assert outcome(validate_document, obj) is None
        anns = obj["annotations"]
        # a duplicate answer
        dup = copy.deepcopy(obj)
        dup["annotations"].append(dict(anns[len(anns) // 2]))
        assert outcome(validate_document, dup) is not None
        assert_same(dup)
        for i, ann in enumerate(anns):
            spec = SCHEMA[ann["property"]]
            if spec.gate is not None:
                parent = next(j for j, a in enumerate(anns)
                              if a["property"] == spec.gate[0]
                              and a["element"] == ann["element"]
                              and a["annotator"] == ann["annotator"])
                # the parent missing, then answered away from the gate
                missing = copy.deepcopy(obj)
                del missing["annotations"][parent]
                away = copy.deepcopy(obj)
                away["annotations"][parent]["value"] = not spec.gate[1]
                for bad in (missing, away):
                    assert outcome(validate_document, bad) is not None
                    assert_same(bad)
            if spec.response == TEMPORAL:
                for span in ([5.0, 0.0, 1.0, 10.0], [3.0, 3.0, 3.0, 3.0],
                             [0, 0, 1e-9, 1e-9], [True, 0, 1, 1]):
                    bad = copy.deepcopy(obj)
                    bad["annotations"][i]["value"] = span
                    assert_same(bad)
