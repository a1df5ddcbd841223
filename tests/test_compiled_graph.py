"""The E-step's compiled graph: built once per observation index, window
and type counts, and never stale.  An E-step on a reused index equals one
on a fresh index bit for bit, after a parameter change and for a second
checkpoint with other type counts; a window that does not generate the
corpus's document edges fails on every call and leaves nothing cached."""

import numpy as np
import pytest

from evstruct import factorgraph
from evstruct.corpus import prepare_corpus
from evstruct.factorgraph import ConstructionError
from evstruct.learning import FitConfig, build_obs, e_step, fit, m_step
from evstruct.params import TypeInventory, init_params
from evstruct.schema import default_schema
from evstruct.synth import SynthConfig, sample_corpus

SCHEMA = default_schema()
INV = TypeInventory(3, 2, 2, 3)


def sample(seed, n_docs, window=2):
    cfg = SynthConfig(inventory=INV, schema=SCHEMA, n_docs=n_docs,
                      sentences_per_doc=3, predicates_per_sentence=2,
                      eventive_prob=0.5, n_annotators=4,
                      annotators_per_item=2, window=window, seed=seed)
    docs, _, params = sample_corpus(cfg)
    prepare_corpus(docs, SCHEMA)
    return docs, params


def assert_identical(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.iterations, g.converged, g.evidence) \
            == (w.iterations, w.converged, w.evidence)
        assert g.kinds == w.kinds
        assert list(g.marginals) == list(w.marginals)
        for var, m in w.marginals.items():
            assert np.array_equal(g.marginals[var], m)
        assert list(g.factor_beliefs) == list(w.factor_beliefs)
        for fid, bf in w.factor_beliefs.items():
            assert np.array_equal(g.factor_beliefs[fid], bf)


def counting_compiles(monkeypatch):
    calls = []
    original = factorgraph._compile

    def counted(corpus, inventory, window, obs):
        calls.append((len(corpus), window))
        return original(corpus, inventory, window, obs)

    monkeypatch.setattr(factorgraph, "_compile", counted)
    return calls


def test_fit_compiles_train_and_dev_once(monkeypatch):
    train, _ = sample(21, 5)
    dev, _ = sample(22, 2)
    calls = counting_compiles(monkeypatch)
    result = fit(train, dev, INV, SCHEMA,
                 FitConfig(max_em_iters=3, m_step_iters=5))
    assert len(result.train_evidence) >= 2
    assert sorted(calls) == [(2, 2), (5, 2)]


def test_reused_index_after_parameter_change():
    docs, _ = sample(23, 4)
    config = FitConfig(m_step_iters=5)
    obs = build_obs(docs, SCHEMA)
    params = init_params(SCHEMA, INV, seed=1, annotators=obs.annotators)
    posts = e_step(docs, params, SCHEMA, config, obs=obs)
    m_step(docs, posts, params, SCHEMA, config, obs=obs)
    again = e_step(docs, params, SCHEMA, config, obs=obs)
    assert len(obs.graphs) == 1
    assert_identical(again, e_step(docs, params, SCHEMA, config,
                                   obs=build_obs(docs, SCHEMA)))
    assert again[0].evidence != posts[0].evidence


def test_second_checkpoint_with_other_type_counts():
    # as compare-fits runs two checkpoints on one index
    docs, true_params = sample(24, 4)
    config = FitConfig()
    obs = build_obs(docs, SCHEMA)
    other = init_params(SCHEMA, TypeInventory(2, 3, 3, 2), seed=2,
                        annotators=obs.annotators)
    first = e_step(docs, true_params, SCHEMA, config, obs=obs)
    second = e_step(docs, other, SCHEMA, config, obs=obs)
    assert len(obs.graphs) == 2
    assert_identical(second, e_step(docs, other, SCHEMA, config,
                                    obs=build_obs(docs, SCHEMA)))
    assert_identical(e_step(docs, true_params, SCHEMA, config, obs=obs),
                     first)
    assert all(len(p.marginals[v]) == 3 for p in second
               for v, kind in p.kinds.items() if kind == "role")


def test_window_that_misses_document_edges_fails_every_call():
    docs, params = sample(25, 3, window=3)
    assert factorgraph.derive_doc_edges(docs[0], 2) != docs[0].doc_edges
    obs = build_obs(docs, SCHEMA)
    for _ in range(2):
        with pytest.raises(ConstructionError, match="window-2 enumeration"):
            e_step(docs, params, SCHEMA, FitConfig(window=2), obs=obs)
        assert obs.graphs == {}
    e_step(docs, params, SCHEMA, FitConfig(window=3), obs=obs)
    assert list(obs.graphs) == [(3, 3, 2, 2, 3)]
