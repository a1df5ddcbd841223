"""Factor-graph construction, queue-window relation enumeration, and
belief propagation against brute-force enumeration."""

import numpy as np
import pytest

from evstruct.corpus import (
    AnnotationRecord, DocumentGraph, Node, Sentence, doc_edge_id, edge_id,
    prepare_corpus,
)
from evstruct.factorgraph import (
    brute_force, build_graph, derive_doc_edges, loopy_bp, window_pairs,
)
from evstruct.params import (
    TypeInventory, annotation_loglik_types, init_params,
)
from evstruct.schema import (
    BINARY, CATEGORICAL, ORDINAL, PRED_ARG_EDGE, TEMPORAL, PropertySpec, Schema,
    default_schema,
)
from evstruct.synth import SynthConfig, flat_schema, sample_corpus

SCHEMA = default_schema()
INV = TypeInventory(k_event=2, k_entity=2, k_role=2, k_rel=2)


def simple_doc(n_sentences, preds_per_sentence=1, eventive=()):
    sentences = []
    for s in range(n_sentences):
        preds, args, edges = [], [], []
        for p in range(preds_per_sentence):
            pid = f"s{s}p{p}"
            preds.append(Node(pid, "predicate", s))
            aid = f"s{s}p{p}a0"
            super_ = "event" if aid in eventive else None
            args.append(Node(aid, "argument", s, supersense=super_))
            edges.append((pid, aid))
        sentences.append(Sentence(tuple(preds), tuple(args), tuple(edges)))
    return DocumentGraph("doc", sentences, [], [])


class TestWindowPairs:

    def test_two_sentences_one_pair(self):
        doc = simple_doc(2)
        pairs = [(a.node_id, b.node_id) for a, b in window_pairs(doc, 2)]
        assert pairs == [("s1p0", "s0p0")]

    def test_window_one_no_cross_sentence(self):
        doc = simple_doc(3)
        pairs = [(a.node_id, b.node_id) for a, b in window_pairs(doc, 1)]
        assert pairs == []

    def test_window_two_drops_distant(self):
        doc = simple_doc(3)
        pairs = {(a.node_id, b.node_id) for a, b in window_pairs(doc, 2)}
        assert pairs == {("s1p0", "s0p0"), ("s2p0", "s1p0")}

    def test_same_sentence_predicates_pair(self):
        doc = simple_doc(1, preds_per_sentence=2)
        pairs = [(a.node_id, b.node_id) for a, b in window_pairs(doc, 2)]
        assert pairs == [("s0p1", "s0p0")]

    def test_eventive_argument_enqueued(self):
        doc = simple_doc(2, eventive={"s0p0a0"})
        pairs = {(a.node_id, b.node_id) for a, b in window_pairs(doc, 2)}
        assert ("s1p0", "s0p0a0") in pairs
        # no predicate pairs with its own argument
        assert ("s0p0", "s0p0a0") not in pairs

    def test_derive_matches_window_pairs(self):
        doc = simple_doc(4, preds_per_sentence=2, eventive={"s1p0a0"})
        derived = derive_doc_edges(doc, 2)
        assert derived == [(a.node_id, b.node_id)
                           for a, b in window_pairs(doc, 2)]


def annotate(doc, schema, seed=0, annotators=("x", "y")):
    """Attach one random annotation per element/property/annotator."""
    cfg = SynthConfig(inventory=INV, schema=schema, n_docs=1, seed=seed)
    _, _, params = sample_corpus(cfg)
    rng = np.random.default_rng(seed)
    from evstruct.synth import _sample_value
    from evstruct.params import HurdleParams
    kinds = doc.element_kinds()
    group_of = {"predicate-node": "event", "argument-node": "entity",
                "predicate-argument-edge": "role", "document-edge": "rel"}
    records = []
    for element, kind in sorted(kinds.items()):
        for ann in annotators:
            answers = {}
            for spec in schema.group(group_of[kind]):
                pp = params.props[spec.name]
                if spec.gated:
                    parent = answers.get(spec.gate[0])
                    if parent is None or bool(parent) != spec.gate[1]:
                        continue
                    base = pp.base
                else:
                    base = pp.base if isinstance(pp, HurdleParams) else pp
                from evstruct.params import TemporalParams
                k = base.start.mu.shape[0] if isinstance(base, TemporalParams) \
                    else base.mu.shape[0]
                t = int(rng.integers(0, k))
                value = _sample_value(base, spec, ann, t, rng)
                answers[spec.name] = value
                records.append(AnnotationRecord(
                    element=element, property=spec.name, annotator=ann,
                    value=value, raw_confidence=int(rng.integers(1, 6))))
    doc.annotations = records
    return params


class TestBpExactness:

    def test_tree_matches_enumeration(self):
        # no document edges -> the graph is a forest
        doc = simple_doc(2)
        params = annotate(doc, SCHEMA, seed=3)
        prepare_corpus([doc], SCHEMA)
        graph = build_graph(doc, params, SCHEMA, window=1,
                            confidence_weighting=True)
        post = loopy_bp(graph)
        exact = brute_force(doc, params, SCHEMA, window=1)
        assert post.evidence == pytest.approx(exact.evidence, abs=1e-8)
        for var in exact.marginals:
            assert np.allclose(post.marginals[var], exact.marginals[var],
                               atol=1e-8)

    def test_cyclic_matches_enumeration(self):
        doc = simple_doc(3, eventive={"s0p0a0"})
        doc.doc_edges = derive_doc_edges(doc, 2)
        params = annotate(doc, SCHEMA, seed=4)
        prepare_corpus([doc], SCHEMA)
        graph = build_graph(doc, params, SCHEMA, window=2)
        post = loopy_bp(graph, tol=1e-10)
        assert post.converged
        exact = brute_force(doc, params, SCHEMA, window=2)
        for var in exact.marginals:
            assert np.allclose(post.marginals[var], exact.marginals[var],
                               atol=1e-3)

    def test_marginals_normalized(self):
        doc = simple_doc(2, preds_per_sentence=2)
        params = annotate(doc, SCHEMA, seed=5)
        prepare_corpus([doc], SCHEMA)
        post = loopy_bp(build_graph(doc, params, SCHEMA, window=2))
        for p in post.marginals.values():
            assert p.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(p >= 0)


class TestLabelPermutation:

    def test_permuting_types_permutes_marginals(self):
        schema = flat_schema()
        doc = simple_doc(2)
        params = annotate(doc, schema, seed=6)
        prepare_corpus([doc], schema)
        post = loopy_bp(build_graph(doc, params, schema, window=2))

        # swap the two event types everywhere they appear
        import copy
        swapped = copy.deepcopy(params)
        perm = [1, 0]
        swapped.priors.theta_event = swapped.priors.theta_event[perm]
        swapped.priors.theta_role = swapped.priors.theta_role[perm, :, :]
        for block in swapped.priors.theta_rel:
            swapped.priors.theta_rel[block] = \
                swapped.priors.theta_rel[block][perm, :, :]
        for spec in schema.group("event"):
            swapped.props[spec.name].mu = swapped.props[spec.name].mu[perm]
        post2 = loopy_bp(build_graph(doc, swapped, schema, window=2))
        for var, p in post.marginals.items():
            if post.kinds[var] == "event":
                assert np.allclose(p[perm], post2.marginals[var], atol=1e-9)
            elif post.kinds[var] == "entity":
                assert np.allclose(p, post2.marginals[var], atol=1e-9)


class TestEvidenceBehavior:

    def test_no_annotations_marginals_equal_prior(self):
        doc = simple_doc(1)
        params = init_params(SCHEMA, INV, seed=0, annotators=["x"])
        post = loopy_bp(build_graph(doc, params, SCHEMA, window=2))
        assert np.allclose(post.marginals["s0p0"],
                           params.priors.theta_event, atol=1e-12)

    def test_weight_zero_neutrality(self):
        doc = simple_doc(1)
        params = annotate(doc, SCHEMA, seed=7)
        for r in doc.annotations:
            r.ridit_confidence = 0.0
        post = loopy_bp(build_graph(doc, params, SCHEMA, window=2))
        assert np.allclose(post.marginals["s0p0"],
                           params.priors.theta_event, atol=1e-12)

    def test_contradiction_lowers_evidence(self):
        # unanimous annotators vs the same annotators split down the middle
        schema = flat_schema()
        doc = simple_doc(1)
        params = init_params(schema, INV, seed=1, annotators=list("abcd"))
        params.props["event_prop0"].mu = np.array([3.0, -3.0])

        def with_values(values):
            doc.annotations = [
                AnnotationRecord(element="s0p0", property="event_prop0",
                                 annotator=a, value=v, raw_confidence=3,
                                 ridit_confidence=0.5)
                for a, v in zip("abcd", values)]
            return loopy_bp(build_graph(doc, params, schema, window=2))

        agree = with_values([True, True, True, True])
        split = with_values([True, False, True, False])
        assert split.evidence < agree.evidence


class TestUnaryPotentialOracle:
    """Every lik: factor equals the sum of the scalar per-annotation
    log-likelihoods of its element's answers and hurdle-absent outcomes."""

    @staticmethod
    def oracle(doc, params, schema, confidence_weighting):
        def weight(r):
            return r.ridit_confidence if confidence_weighting else 1.0

        kinds = doc.element_kinds()
        pots, rows = {}, set()
        for element, records in doc.annotations_by_element().items():
            total = 0.0
            for r in records:
                spec = schema[r.property]
                total = total + weight(r) * annotation_loglik_types(
                    params.props[r.property], spec, r.value, r.annotator)
                rows.add(spec.response)
                if spec.gated:
                    rows.add("hurdle-present")
            answered = {(r.property, r.annotator): r for r in records}
            for spec in schema.for_attach(kinds[element]):
                if not spec.gated:
                    continue
                parent_name, gate_value = spec.gate
                for (prop, ann), parent in answered.items():
                    if prop == parent_name \
                            and bool(parent.value) != gate_value \
                            and (spec.name, ann) not in answered:
                        total = total + weight(parent) * \
                            annotation_loglik_types(params.props[spec.name],
                                                    spec, None, ann,
                                                    absent=True)
                        rows.add("hurdle-absent")
            pots[element] = total
        return pots, rows

    @pytest.mark.parametrize("confidence_weighting", [True, False])
    def test_lik_factors_match_scalar_sum(self, confidence_weighting):
        # the default schema plus a categorical role property
        schema = Schema(SCHEMA.properties + (PropertySpec(
            "affectedness", "protoroles", PRED_ARG_EDGE, CATEGORICAL,
            n_categories=3),))
        cfg = SynthConfig(inventory=INV, schema=schema, n_docs=3,
                          sentences_per_doc=3, predicates_per_sentence=2,
                          eventive_prob=0.5, n_annotators=4,
                          annotators_per_item=3, seed=11, sigma_ann=0.7,
                          confidence_levels=[0.1, 0.15, 0.2, 0.25, 0.3])
        docs, _, params = sample_corpus(cfg)
        prepare_corpus(docs, schema)
        seen = set()
        for doc in docs:
            graph = build_graph(doc, params, schema, window=2,
                                confidence_weighting=confidence_weighting)
            expected, rows = self.oracle(doc, params, schema,
                                         confidence_weighting)
            seen |= rows
            lik = {f.factor_id: f for f in graph.factors
                   if f.role == "likelihood"}
            assert set(lik) == {f"lik:{e}" for e in expected}
            for element, pot in expected.items():
                f = lik[f"lik:{element}"]
                assert f.var_idx == (graph.var_index[element],)
                np.testing.assert_allclose(f.logpot, pot, rtol=1e-12,
                                           atol=1e-12)
        assert seen == {BINARY, CATEGORICAL, ORDINAL, TEMPORAL,
                        "hurdle-present", "hurdle-absent"}
