"""EM driver: observation flattening, M-step optimization against
closed-form oracles, and posterior behavior."""

import copy

import numpy as np
import pytest

from evstruct.corpus import AnnotationRecord, DocumentGraph, Node, Sentence, prepare_corpus
from evstruct.learning import (
    FitConfig, build_obs, e_step, fit, item_logliks, m_step, optimize_likelihoods,
    _packs_from_params, _prop_objective, total_evidence,
)
from evstruct.params import TypeInventory, init_params
from evstruct.schema import Schema, PropertySpec, PREDICATE_NODE, default_schema
from evstruct.synth import SynthConfig, flat_schema, sample_corpus

INV1 = TypeInventory(1, 1, 1, 1)


def one_binary_schema():
    return Schema((PropertySpec(name="prop", subspace="x",
                                attaches_to=PREDICATE_NODE,
                                response="binary"),))


def corpus_with_values(values, annotator="a"):
    docs = []
    for i, value in enumerate(values):
        pred = Node(f"p{i}", "predicate", 0)
        sent = Sentence((pred,), (), ())
        ann = [AnnotationRecord(element=f"p{i}", property="prop",
                                annotator=annotator, value=bool(value),
                                raw_confidence=3, ridit_confidence=1.0)]
        docs.append(DocumentGraph(f"d{i}", [sent], [], ann))
    return docs


def test_mstep_matches_logistic_mle():
    # K=1, intercepts off: optimum is the closed-form logit of the mean
    schema = one_binary_schema()
    values = [True] * 70 + [False] * 30
    docs = corpus_with_values(values)
    obs = build_obs(docs, schema, confidence_weighting=False)
    params = init_params(schema, INV1, seed=0, annotators=obs.annotators)
    config = FitConfig(m_step_iters=800, adam_lr=0.1, learn_rho=False)
    post = {"event": np.ones((100, 1))}
    optimize_likelihoods(params, schema, obs, post, config)
    assert params.props["prop"].mu[0] == pytest.approx(np.log(0.7 / 0.3),
                                                       abs=1e-3)


def test_weight_zero_gradient_is_zero():
    schema = one_binary_schema()
    docs = corpus_with_values([True, False, True])
    for doc in docs:
        for r in doc.annotations:
            r.ridit_confidence = 0.0
    obs = build_obs(docs, schema, confidence_weighting=True)
    params = init_params(schema, INV1, seed=3, annotators=obs.annotators)
    packs = _packs_from_params(params, schema, obs.annotators)
    table = obs.tables["prop"]
    coeff = np.ones((3, 1))[table.elem] * table.weight[:, None]
    _, grads = _prop_objective(packs["prop"], table, coeff, 1)
    norm = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    assert norm < 1e-12


def test_responsibility_weighting_shifts_optimum():
    schema = one_binary_schema()
    docs = corpus_with_values([True, True, False, False])
    obs = build_obs(docs, schema, confidence_weighting=False)
    params = init_params(schema, INV1, seed=1, annotators=obs.annotators)
    config = FitConfig(m_step_iters=600, adam_lr=0.1, learn_rho=False)
    # weight the True items three times as much
    post = {"event": np.array([[3.0], [3.0], [1.0], [1.0]])}
    optimize_likelihoods(params, schema, obs, post, config)
    assert params.props["prop"].mu[0] == pytest.approx(np.log(6.0 / 2.0),
                                                       abs=1e-3)


def make_fit_corpus(seed=0, n_docs=24, k=2):
    inv = TypeInventory(k, 2, 2, 2)
    cfg = SynthConfig(inventory=inv, schema=flat_schema(), n_docs=n_docs,
                      sentences_per_doc=2, seed=seed, separation=5.0,
                      sigma_ann=0.2, n_annotators=3, annotators_per_item=2)
    docs, truth, params = sample_corpus(cfg)
    prepare_corpus(docs, cfg.schema)
    return docs, truth, params, cfg


def test_fit_determinism():
    docs, _, _, cfg = make_fit_corpus()
    fc = FitConfig(max_em_iters=2, m_step_iters=30, seed=5)
    inv = cfg.inventory
    r1 = fit(docs[:20], docs[20:], inv, cfg.schema, fc)
    r2 = fit(docs[:20], docs[20:], inv, cfg.schema, fc)
    assert r1.train_evidence == r2.train_evidence
    assert r1.dev_evidence == r2.dev_evidence
    for name in r1.params.props:
        a, b = r1.params.props[name], r2.params.props[name]
        assert np.array_equal(a.mu, b.mu)


def test_fit_threads_identical():
    docs, _, _, cfg = make_fit_corpus(seed=2)
    base = dict(max_em_iters=2, m_step_iters=30, seed=5)
    r1 = fit(docs[:20], docs[20:], cfg.inventory, cfg.schema,
             FitConfig(threads=1, **base))
    r4 = fit(docs[:20], docs[20:], cfg.inventory, cfg.schema,
             FitConfig(threads=4, **base))
    assert r1.train_evidence == r4.train_evidence
    for name in r1.params.props:
        assert np.array_equal(r1.params.props[name].mu,
                              r4.params.props[name].mu)


def test_train_evidence_rises_early():
    docs, _, _, cfg = make_fit_corpus(seed=4)
    fc = FitConfig(max_em_iters=4, m_step_iters=80, seed=0,
                   confidence_weighting=False)
    res = fit(docs[:20], docs[20:], cfg.inventory, cfg.schema, fc)
    trace = res.train_evidence
    assert len(trace) >= 2
    assert trace[1] > trace[0]


def test_posteriors_concentrate_with_data():
    # more agreeing annotations concentrate the type posterior
    docs, truth, params, cfg = make_fit_corpus(seed=6, n_docs=4)
    fc = FitConfig(seed=0)
    posts = e_step(docs, params, cfg.schema, fc)
    ents = []
    for post in posts:
        for var, p in post.marginals.items():
            if post.kinds[var] == "event":
                p = np.clip(p, 1e-12, 1)
                ents.append(float(-(p * np.log(p)).sum()))
    assert np.mean(ents) < 0.45  # well below the log(2) uniform entropy


def test_estep_posteriors_align_with_truth():
    docs, truth, params, cfg = make_fit_corpus(seed=8, n_docs=12)
    posts = e_step(docs, params, cfg.schema, FitConfig(seed=0))
    correct = total = 0
    for doc, post in zip(docs, posts):
        for var, p in post.marginals.items():
            if post.kinds[var] == "event":
                correct += int(np.argmax(p) == truth[doc.doc_id][var])
                total += 1
    assert correct / total > 0.85


def test_item_logliks_match_estep_scale():
    # flat per-item log-likelihoods must be finite and K-shaped
    docs, _, params, cfg = make_fit_corpus(seed=9, n_docs=4)
    obs = build_obs(docs, cfg.schema, True)
    packs = _packs_from_params(params, cfg.schema, obs.annotators)
    ll = item_logliks(packs, obs, cfg.schema, "event", 2)
    assert ll.shape == (len(obs.elements["event"]), 2)
    assert np.all(np.isfinite(ll))


def test_empty_train_raises():
    _, _, _, cfg = make_fit_corpus(n_docs=4)
    with pytest.raises(ValueError):
        fit([], [], cfg.inventory, cfg.schema, FitConfig())


class TestMStepOracle:
    """The production M-step objective and gradients against finite
    differences, and the objective against the E-step's row log-likelihoods,
    on every response family, hurdle-present and hurdle-absent rows."""

    H = 1e-6

    @pytest.fixture(scope="class")
    def setup(self):
        from evstruct.schema import CATEGORICAL, PRED_ARG_EDGE
        schema = Schema(default_schema().properties + (PropertySpec(
            "affectedness", "protoroles", PRED_ARG_EDGE, CATEGORICAL,
            n_categories=3),))
        cfg = SynthConfig(inventory=TypeInventory(3, 2, 2, 2), schema=schema,
                          n_docs=3, sentences_per_doc=3,
                          predicates_per_sentence=2, eventive_prob=0.5,
                          n_annotators=3, annotators_per_item=2, seed=5,
                          sigma_ann=0.7,
                          confidence_levels=[0.1, 0.15, 0.2, 0.25, 0.3])
        docs, _, params = sample_corpus(cfg)
        prepare_corpus(docs, schema)
        obs = build_obs(docs, schema, confidence_weighting=True)
        packs = _packs_from_params(params, schema, obs.annotators)
        rng = np.random.default_rng(0)
        coeffs = {name: rng.uniform(0.1, 1.0, size=(
            len(table.elem), params.inventory.k_for(table.spec.group)))
            for name, table in obs.tables.items()}
        return schema, params, obs, packs, coeffs

    def check_grads(self, arrays, grads, objective):
        for name, arr in arrays.items():
            fd = np.zeros_like(arr)
            for i in range(arr.size):
                orig = arr.flat[i]
                arr.flat[i] = orig + self.H
                up = objective()
                arr.flat[i] = orig - self.H
                dn = objective()
                arr.flat[i] = orig
                fd.flat[i] = (up - dn) / (2 * self.H)
            scale = max(1.0, float(np.max(np.abs(grads[name]))))
            assert np.max(np.abs(fd - grads[name])) <= 1e-6 * scale, name

    def test_rows_cover_every_family(self, setup):
        schema, params, obs, packs, _ = setup
        families = {spec.response for spec in schema
                    if len(obs.tables[spec.name].elem)}
        assert families == {"binary", "categorical", "ordinal",
                            "temporal-tuple"}
        gated = [obs.tables[s.name] for s in schema if s.gated]
        # hurdle-absent and hurdle-present rows
        assert any(not t.present.all() for t in gated)
        assert any(t.present.any() for t in gated)
        for pack in packs.values():
            for name, arr in pack.arrays.items():
                if "rho" in name:
                    assert np.all(arr != 0.0), (pack.name, name)

    def test_objective_gradients_match_finite_differences(self, setup):
        _, _, obs, packs, coeffs = setup
        n_ann = len(obs.annotators)
        for name, pack in packs.items():
            table = obs.tables[name]
            if len(table.elem) == 0:
                continue
            _, grads = _prop_objective(pack, table, coeffs[name], n_ann)
            assert set(grads) == set(pack.arrays)
            self.check_grads(pack.arrays, grads, lambda: _prop_objective(
                pack, table, coeffs[name], n_ann)[0])

    def test_penalty_gradients_match_finite_differences(self, setup):
        from evstruct.learning import _penalty_terms
        _, params, _, packs, _ = setup
        for pack in packs.values():
            _, grads = _penalty_terms(pack, params)
            assert grads and all("rho" in n for n in grads)
            rhos = {n: pack.arrays[n] for n in grads}
            self.check_grads(rhos, grads,
                             lambda: _penalty_terms(pack, params)[0])

    def test_objective_contracts_row_logliks(self, setup):
        from evstruct.params import row_logliks
        _, _, obs, packs, coeffs = setup
        n_ann = len(obs.annotators)
        for name, pack in packs.items():
            table = obs.tables[name]
            if len(table.elem) == 0:
                continue
            obj, _ = _prop_objective(pack, table, coeffs[name], n_ann)
            expected = float(np.sum(coeffs[name]
                                    * row_logliks(pack, table)))
            assert obj == pytest.approx(expected, rel=1e-12, abs=1e-12)


class TestMStepWriteBack:
    """What optimize_likelihoods writes back into the parameter tree: each
    block's sigma re-estimated from its rho rows, recentred ordinal
    cutpoints, the annotator list, and rho left alone without learn_rho."""

    @pytest.fixture(scope="class", params=[True, False], ids=["learn_rho",
                                                              "fixed_rho"])
    def fitted(self, request):
        from evstruct.schema import CATEGORICAL, PRED_ARG_EDGE
        schema = Schema(default_schema().properties + (PropertySpec(
            "affectedness", "protoroles", PRED_ARG_EDGE, CATEGORICAL,
            n_categories=3),))
        cfg = SynthConfig(inventory=TypeInventory(3, 2, 2, 2), schema=schema,
                          n_docs=3, sentences_per_doc=3,
                          predicates_per_sentence=2, eventive_prob=0.5,
                          n_annotators=3, annotators_per_item=2, seed=5,
                          sigma_ann=0.7,
                          confidence_levels=[0.1, 0.15, 0.2, 0.25, 0.3])
        docs, _, params = sample_corpus(cfg)
        prepare_corpus(docs, schema)
        obs = build_obs(docs, schema, confidence_weighting=True)
        rng = np.random.default_rng(1)
        post = {kind: rng.dirichlet(np.ones(params.inventory.k_for(kind)),
                                    size=len(elems))
                for kind, elems in obs.elements.items()}
        params.annotators = []
        before = copy.deepcopy(params)
        optimize_likelihoods(params, schema, obs, post,
                             FitConfig(m_step_iters=20,
                                       learn_rho=request.param))
        return request.param, before, params, obs

    @staticmethod
    def blocks(params):
        from evstruct.params import _leaves
        for pp in params.props.values():
            yield from _leaves(pp)

    def test_sigma_from_rho_rows(self, fitted):
        from evstruct import likelihoods as lk
        _, _, params, obs = fitted
        for _, owner, attr, width in self.blocks(params):
            rho = getattr(owner, attr + "rho")
            rows = np.array([rho[a] for a in obs.annotators], dtype=float)
            sigma = getattr(owner, attr + "sigma")
            if width is None:
                assert sigma == float(lk.update_sigma(rows[:, None])[0, 0])
            else:
                np.testing.assert_array_equal(sigma, lk.update_sigma(rows))

    def test_ordinal_cutpoints_recentred(self, fitted):
        from evstruct import likelihoods as lk
        from evstruct.params import OrdinalParams
        _, _, params, _ = fitted
        ordinal = [owner for _, owner, _, _ in self.blocks(params)
                   if isinstance(owner, OrdinalParams)]
        assert ordinal
        for owner in ordinal:
            mean = np.mean(lk.cutpoints_from_raw(owner.cut_raw))
            assert abs(mean) <= 1e-12

    def test_annotators_written(self, fitted):
        _, _, params, obs = fitted
        assert params.annotators == obs.annotators

    def test_rho_kept_bit_for_bit_unless_learned(self, fitted):
        learn_rho, before, params, _ = fitted
        old = list(self.blocks(before))
        new = list(self.blocks(params))
        assert len(old) == len(new)
        same = []
        for (_, o_owner, attr, _), (_, n_owner, _, _) in zip(old, new):
            o_rho = getattr(o_owner, attr + "rho")
            n_rho = getattr(n_owner, attr + "rho")
            assert o_rho and set(o_rho) <= set(n_rho)
            same += [np.asarray(n_rho[a], dtype=float).tobytes()
                     == np.asarray(value, dtype=float).tobytes()
                     for a, value in o_rho.items()]
        assert all(same) != learn_rho
