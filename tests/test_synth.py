"""Synthetic corpus generator: determinism, distributional correctness,
and structural invariants."""

import numpy as np
import pytest

from evstruct import likelihoods as lk
from evstruct.corpus import (
    LOCK_OUTCOMES, ORDER_OUTCOMES, normalize_temporal, validate_document,
)
from evstruct.factorgraph import derive_doc_edges
from evstruct.params import TypeInventory
from evstruct.schema import TEMPORAL, default_schema
from evstruct.synth import (
    SynthConfig, corpus_stats, flat_schema, format_stats, realize_tuple,
    sample_corpus, separated_params,
)

INV = TypeInventory(k_event=2, k_entity=2, k_role=2, k_rel=2)


def small_config(**kw):
    defaults = dict(inventory=INV, n_docs=5, sentences_per_doc=2, seed=0,
                    sigma_ann=0.3, eventive_prob=0.2)
    defaults.update(kw)
    return SynthConfig(**defaults)


def test_seed_determinism():
    a_docs, a_truth, a_params = sample_corpus(small_config())
    b_docs, b_truth, b_params = sample_corpus(small_config())
    assert a_truth == b_truth
    assert [d.to_obj() for d in a_docs] == [d.to_obj() for d in b_docs]
    for name in a_params.props:
        pa, pb = a_params.props[name], b_params.props[name]
        if hasattr(pa, "mu"):
            assert np.array_equal(pa.mu, pb.mu)


def test_different_seeds_differ():
    a, _, _ = sample_corpus(small_config(seed=1))
    b, _, _ = sample_corpus(small_config(seed=2))
    assert [d.to_obj() for d in a] != [d.to_obj() for d in b]


def test_documents_validate():
    docs, _, _ = sample_corpus(small_config())
    schema = default_schema()
    for doc in docs:
        validate_document(doc, schema, window=2)


def test_doc_edges_respect_window():
    cfg = small_config(n_docs=3, sentences_per_doc=4, window=2,
                       predicates_per_sentence=2)
    docs, _, _ = sample_corpus(cfg)
    nodes_checked = 0
    for doc in docs:
        assert doc.doc_edges == derive_doc_edges(doc, 2)
        by_id = doc.node_by_id()
        for a, b in doc.doc_edges:
            assert abs(by_id[a].sentence - by_id[b].sentence) <= 1
            nodes_checked += 1
    assert nodes_checked > 0


def test_truth_covers_every_element():
    docs, truth, _ = sample_corpus(small_config())
    for doc in docs:
        kinds = doc.element_kinds()
        assert set(truth[doc.doc_id]) == set(kinds)


def test_binary_frequencies_match_model():
    # law of large numbers against the sampling parameters
    schema = flat_schema()
    cfg = SynthConfig(inventory=TypeInventory(1, 1, 1, 1), schema=schema,
                      n_docs=1500, sentences_per_doc=1, seed=3,
                      n_annotators=1, annotators_per_item=1)
    docs, truth, params = sample_corpus(cfg)
    values = [r.value for d in docs for r in d.annotations
              if r.property == "event_prop0"]
    base = params.props["event_prop0"]
    expect = lk.sigmoid(base.mu[0] + base.rho_of("ann0"))
    assert np.mean(values) == pytest.approx(float(expect), abs=0.02)


def test_type_prior_frequencies():
    cfg = small_config(n_docs=800, sentences_per_doc=1, seed=5)
    docs, truth, params = sample_corpus(cfg)
    labels = [truth[d.doc_id][s.predicates[0].node_id]
              for d in docs for s in d.sentences]
    freq = np.bincount(labels, minlength=2) / len(labels)
    assert np.allclose(freq, params.priors.theta_event, atol=0.05)


def test_gated_conditional_consistency():
    docs, _, _ = sample_corpus(small_config(n_docs=30))
    schema = default_schema()
    for doc in docs:
        answered = {(r.element, r.property, r.annotator): r.value
                    for r in doc.annotations}
        for r in doc.annotations:
            spec = schema[r.property]
            if spec.gate is None:
                continue
            parent = answered.get((r.element, spec.gate[0], r.annotator))
            assert parent is not None
            assert bool(parent) == spec.gate[1]


def test_sampled_tuples_already_normalized():
    docs, _, _ = sample_corpus(small_config(n_docs=40, sentences_per_doc=3))
    schema = default_schema()
    n_tuples = 0
    for doc in docs:
        for r in doc.annotations:
            if schema[r.property].response != TEMPORAL:
                continue
            t = normalize_temporal(r.value)
            assert np.allclose(t.as_raw(), r.value, atol=1e-9)
            n_tuples += 1
    assert n_tuples > 0


def test_temporal_outcome_frequencies():
    # the realized tuples must decode to the sampled discrete outcomes
    inv = TypeInventory(1, 1, 1, 1)
    cfg = SynthConfig(inventory=inv, n_docs=1200, sentences_per_doc=2,
                      seed=7, n_annotators=1, annotators_per_item=1)
    docs, _, params = sample_corpus(cfg)
    schema = default_schema()
    temporal = [p.name for p in schema if p.response == TEMPORAL]
    outcomes = []
    for doc in docs:
        for r in doc.annotations:
            if r.property in temporal:
                outcomes.append(normalize_temporal(r.value).lock_start)
    counts = {o: outcomes.count(o) / len(outcomes)
              for o in ("e1", "e2", "both")}
    pp = params.props[temporal[0]]
    probs = np.exp(lk.log_softmax(pp.start.mu[0] + pp.start.rho_of("ann0")))
    for i, o in enumerate(("e1", "e2", "both")):
        assert counts[o] == pytest.approx(float(probs[i]), abs=0.02)


def test_separated_params_distinct_signatures():
    schema = flat_schema()
    inv = TypeInventory(k_event=4, k_entity=3, k_role=2, k_rel=2)
    params = separated_params(schema, inv, ["a"], separation=6.0,
                              sigma_ann=0.0, seed=0)
    mus = np.stack([params.props[f"event_prop{i}"].mu for i in range(4)],
                   axis=1)  # (k_event, props)
    assert np.all(np.abs(mus) == 3.0)
    for i in range(4):
        for j in range(i + 1, 4):
            assert not np.array_equal(mus[i], mus[j])


def test_annotators_per_item():
    cfg = small_config(n_annotators=5, annotators_per_item=2, n_docs=10)
    docs, _, _ = sample_corpus(cfg)
    for doc in docs:
        by_elem = {}
        for r in doc.annotations:
            by_elem.setdefault(r.element, set()).add(r.annotator)
        assert all(len(s) == 2 for s in by_elem.values())


def test_stats_and_formatting():
    docs, _, _ = sample_corpus(small_config())
    stats = corpus_stats(docs, default_schema())
    assert stats["documents"] == 5
    assert stats["predicates"] == 10
    assert stats["annotations"] == sum(len(d.annotations) for d in docs)
    text = format_stats(stats)
    assert "documents" in text and "%" in text


def _type_rows(params, schema, kind):
    """(k, D) per-type means of every property of one group."""
    from evstruct.params import HurdleParams, TemporalParams
    blocks = []
    for spec in schema.group(kind):
        pp = params.props[spec.name]
        base = pp.base if isinstance(pp, HurdleParams) else pp
        parts = ((base.start, base.end, base.order)
                 if isinstance(base, TemporalParams) else (base,))
        for part in parts:
            mu = np.asarray(part.mu, dtype=float)
            blocks.append(mu.reshape(mu.shape[0], -1))
    return np.hstack(blocks)


@pytest.mark.parametrize("seed", range(5))
def test_synth_default_type_counts(tmp_path, seed):
    # default counts: 8 entity types over 3 binary properties (all 2^3
    # signatures) and 5 relation types over 2 binary properties (a
    # signature repeats; the temporal means tell those types apart)
    from evstruct.cli import run
    from evstruct.params import load_params
    out = tmp_path / "d"
    assert run(["synth", "--out", str(out), "--docs", "5",
                "--seed", str(seed)]) == 0
    params = load_params(out / "true_params.json")
    for kind in ("event", "entity", "role", "rel"):
        rows = _type_rows(params, default_schema(), kind)
        for i in range(len(rows)):
            for j in range(i + 1, len(rows)):
                assert not np.array_equal(rows[i], rows[j]), (kind, i, j)


def test_synth_binary_only_group_needs_distinct_signatures(tmp_path, capsys):
    from evstruct.cli import EXIT_DATA, run
    assert run(["synth", "--out", str(tmp_path / "d"), "--docs", "2",
                "--schema", "flat", "--k-entity", "9"]) == EXIT_DATA
    assert ("cannot give 9 types distinct signatures over 3 binary "
            "properties") in capsys.readouterr().err


def reference_realize_tuple(ls, le, order, rng):
    """The enumerated form `realize_tuple` replaced: one branch per lock
    combination.  Kept as the reference its free-point form must match."""
    def interior():
        return float(rng.uniform(0.35, 0.65))

    def two_interior():
        a = float(rng.uniform(0.15, 0.4))
        b = float(rng.uniform(0.6, 0.85))
        return a, b

    s1 = s2 = 0.0
    e1 = e2 = 1.0
    if ls == "both" and le == "both":
        pass
    elif ls == "both":
        if le == "e1":
            e2 = interior()
        else:
            e1 = interior()
    elif le == "both":
        if ls == "e1":
            s2 = interior()
        else:
            s1 = interior()
    elif ls == le:
        a, b = two_interior()
        if ls == "e1":
            s2, e2 = a, b
        else:
            s1, e1 = a, b
    else:
        a, b = two_interior()
        mid = float(rng.uniform(0.45, 0.55))
        if ls == "e1" and le == "e2":
            if order == "e1-first":
                e1, s2 = a, b
            elif order == "e2-first":
                s2, e1 = a, b
            else:
                e1 = s2 = mid
        else:
            if order == "e1-first":
                s1, e2 = a, b
            elif order == "e2-first":
                e2, s1 = a, b
            else:
                s1 = e2 = mid
    return [s1, s2, e1, e2]


@pytest.mark.parametrize("order", ORDER_OUTCOMES + (None,))
@pytest.mark.parametrize("le", LOCK_OUTCOMES)
@pytest.mark.parametrize("ls", LOCK_OUTCOMES)
def test_realize_tuple_matches_enumerated_reference(ls, le, order):
    for seed in range(100):
        new_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = realize_tuple(ls, le, order, new_rng)
        assert got == reference_realize_tuple(ls, le, order, ref_rng)
        assert all(type(v) is float for v in got)
        # the same draws, in the same order
        assert new_rng.random() == ref_rng.random()
