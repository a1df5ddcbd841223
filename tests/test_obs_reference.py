"""The observation index built by sorting (params.build_obs) against the
row-at-a-time walk it replaced, kept here as the reference: every
ObsIndex field equal bit for bit, dtypes included, and the same error for
the first faulty record in row order."""

import numpy as np
import pytest

from evstruct import likelihoods as lk
from evstruct.corpus import (
    AnnotationRecord, ConsistencyError, normalize_temporal, prepare_corpus,
)
from evstruct.params import (
    PropTable, Term, TypeInventory, _binary_table, _categorical_table,
    _ordinal_table, build_obs,
)
from evstruct.schema import (
    ARGUMENT_NODE, BINARY, CATEGORICAL, GROUP_FOR_ATTACH, ORDINAL,
    PropertySpec, Schema, SchemaError, default_schema,
)
from evstruct.synth import SynthConfig, flat_schema, sample_corpus

INV = TypeInventory(3, 2, 2, 2)
# the default schema plus a categorical property gated on an entity one
CATEGORICAL_SCHEMA = Schema(default_schema().properties + (
    PropertySpec("referent", "genericity", ARGUMENT_NODE, CATEGORICAL,
                 n_categories=4, gate=("particular", True)),))


def reference_base_terms(spec, values):
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
    return [(f"{block}.", _categorical_table, len(index),
             np.array([index.get(getattr(o, attr), -1) for o in spans],
                      dtype=int))
            for block, attr, index in (
                ("start", "lock_start", lk.LOCK_INDEX),
                ("end", "lock_end", lk.LOCK_INDEX),
                ("order", "free_order", lk.ORDER_INDEX))]


def reference_build_obs(corpus, schema, confidence_weighting=True):
    """build_obs as it was: one add_row call per row, in the order of
    documents, sorted element ids, and records."""
    elements = {"event": [], "entity": [], "role": [], "rel": []}
    ann_index = {}
    cols = {p.name: ([], [], [], [], []) for p in schema}

    def add_row(name, e, rec, present):
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
            by_prop = {}
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
        for prefix, family, n_out, out in reference_base_terms(
                spec, [values[i] for i in sel]):
            rows_t = sel[out >= 0]
            terms.append(Term(prefix, family, n_out, rows_t, ann[rows_t],
                              out[out >= 0]))
        tables[spec.name] = PropTable(spec.name, spec, elem, present, weight,
                                      terms)
    return elements, tables, list(ann_index)


def assert_same_array(a, b, what):
    assert a.dtype == b.dtype, what
    assert a.shape == b.shape, what
    assert a.tobytes() == b.tobytes(), what


def assert_matches_reference(docs, schema, confidence_weighting=True):
    obs = build_obs(docs, schema, confidence_weighting)
    elements, tables, annotators = reference_build_obs(
        docs, schema, confidence_weighting)
    assert list(obs.elements) == list(elements)
    assert obs.elements == elements
    assert obs.annotators == annotators
    assert list(obs.tables) == list(tables)
    for name, ref in tables.items():
        got = obs.tables[name]
        assert got.name == ref.name and got.spec is ref.spec
        for col in ("elem", "present", "weight"):
            assert_same_array(getattr(got, col), getattr(ref, col),
                              f"{name}.{col}")
        assert len(got.terms) == len(ref.terms)
        for t, r in zip(got.terms, ref.terms):
            assert (t.prefix, t.family, t.n_out) == \
                (r.prefix, r.family, r.n_out)
            for col in ("rows", "ann", "out"):
                assert_same_array(getattr(t, col), getattr(r, col),
                                  f"{name}.{t.prefix}{col}")
    return obs


def sample(schema, seed, n_docs=6, sentences=3, **kwargs):
    cfg = SynthConfig(inventory=INV, schema=schema, n_docs=n_docs,
                      sentences_per_doc=sentences, predicates_per_sentence=2,
                      arguments_per_predicate=2, eventive_prob=0.4,
                      n_annotators=6, annotators_per_item=3, seed=seed,
                      confidence_levels=[0.1, 0.2, 0.3, 0.2, 0.2], **kwargs)
    docs, _, _ = sample_corpus(cfg)
    prepare_corpus(docs, schema)
    return docs


def shuffled(docs, seed):
    """Each document's records in a random order: annotators are first seen
    in a different order in each document."""
    rng = np.random.default_rng(seed)
    for doc in docs:
        doc.annotations = [doc.annotations[i]
                           for i in rng.permutation(len(doc.annotations))]
    return docs


@pytest.mark.parametrize("weighting", [True, False], ids=["weighted", "flat"])
@pytest.mark.parametrize("schema", [default_schema(), CATEGORICAL_SCHEMA,
                                    flat_schema()],
                         ids=["default", "categorical", "flat-schema"])
def test_matches_reference(schema, weighting):
    docs = shuffled(sample(schema, 3), 4)
    docs[2].annotations = []                    # a document without answers
    obs = assert_matches_reference(docs, schema, weighting)
    if schema.properties[0].name == "natural_parts":
        absent = sum(int((~t.present).sum()) for t in obs.tables.values())
        assert absent > 0
        assert len(obs.tables["temporal_relation"].elem) > 0


def test_annotators_first_seen_in_different_orders():
    docs = shuffled(sample(default_schema(), 5), 6)
    firsts = [doc.annotations[0].annotator for doc in docs]
    assert len(set(firsts)) > 1
    assert_matches_reference(docs, default_schema())


def test_element_ids_sorted_as_strings():
    # sentence 10's ids sort before sentence 2's
    docs = sample(default_schema(), 7, n_docs=2, sentences=12)
    ids = [r.element for r in docs[0].annotations]
    assert any("s10" in e for e in ids) and any("s2p" in e for e in ids)
    assert_matches_reference(shuffled(docs, 8), default_schema())


def test_hurdle_parent_away_from_gate():
    """Parents answered away from the gate: by annotators who did not
    answer the child (absent rows), and by one who also did (no row)."""
    schema = default_schema()
    docs = sample(schema, 9)
    doc = docs[0]
    away = [r for r in doc.annotations
            if r.property == "natural_parts" and r.value is False]
    assert len(away) >= 2
    rec = away[0]
    doc.annotations.insert(0, AnnotationRecord(
        rec.element, "part_similarity", rec.annotator, True, 3, 0.5))
    obs = assert_matches_reference(docs, schema)
    table = obs.tables["part_similarity"]
    assert (~table.present).any() and table.present.any()


def test_empty_corpus():
    assert_matches_reference([], default_schema())
    assert_matches_reference([], default_schema(), False)


def fault_message(fn):
    try:
        fn()
    except (ValueError, ConsistencyError, SchemaError) as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("faults", [
    ("ridit",), ("element",), ("property",), ("ridit", "element"),
    ("element", "ridit"), ("property", "ridit"), ("ridit", "property"),
], ids="-".join)
def test_first_fault_in_row_order(faults):
    """Faulty records planted in two documents: the one first in row order
    is reported, with the reference's error and message."""
    schema = default_schema()
    docs = sample(schema, 10)
    for doc, fault in zip((docs[1], docs[4]), faults):
        rec = doc.annotations[len(doc.annotations) // 2]
        if fault == "ridit":
            rec.ridit_confidence = None
        elif fault == "element":
            doc.annotations.append(AnnotationRecord(
                "nowhere", "telic", "ann0", True, 3, 0.5))
        else:
            rec.property = "no_such_property"
    want = fault_message(lambda: reference_build_obs(docs, schema))
    assert want is not None
    assert fault_message(lambda: build_obs(docs, schema)) == want


def test_missing_ridit_ignored_without_weighting():
    schema = default_schema()
    docs = sample(schema, 11)
    docs[0].annotations[0].ridit_confidence = None
    assert_matches_reference(docs, schema, False)
