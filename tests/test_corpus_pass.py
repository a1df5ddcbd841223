"""The E-step's corpus pass: one observation index per corpus scores every
annotated element, matching the per-document graphs bit for bit, and the
checks it moved (non-finite potentials, annotations on unknown elements)
still name the document and the element."""

import json

import numpy as np
import pytest

from evstruct import factorgraph, learning, params as params_module
from evstruct.cli import EXIT_COMPUTE, run
from evstruct.corpus import (
    AnnotationRecord, ConsistencyError, load_corpus, prepare_corpus,
)
from evstruct.factorgraph import (
    NumericalError, build_graph, build_graphs, loopy_bp,
)
from evstruct.learning import FitConfig, build_obs, e_step, fit
from evstruct.params import TypeInventory, init_params
from evstruct.schema import default_schema
from evstruct.synth import SynthConfig, sample_corpus

SCHEMA = default_schema()
INV = TypeInventory(3, 2, 2, 3)


def sample(seed, n_docs):
    cfg = SynthConfig(inventory=INV, schema=SCHEMA, n_docs=n_docs,
                      sentences_per_doc=3, predicates_per_sentence=2,
                      eventive_prob=0.5, n_annotators=4,
                      annotators_per_item=2, seed=seed)
    docs, _, params = sample_corpus(cfg)
    prepare_corpus(docs, SCHEMA)
    return docs, params


def mixed_corpora():
    """A train corpus with an unannotated document and hurdle-absent rows,
    and a dev corpus that only some of the annotators answered."""
    train, params = sample(11, 5)
    train[1].annotations = []
    dev, _ = sample(12, 3)
    for doc in dev:
        doc.annotations = [r for r in doc.annotations
                           if r.annotator != params.annotators[0]]
    obs = build_obs(train, SCHEMA)
    assert any(not t.present.all() for t in obs.tables.values())
    dev_obs = build_obs(dev, SCHEMA)
    assert 0 < len(dev_obs.annotators) < len(params.annotators)
    return train, dev, params


@pytest.mark.parametrize("initial", [False, True], ids=["true", "initial"])
def test_corpus_pass_matches_per_document_graphs(initial):
    train, dev, params = mixed_corpora()
    if initial:
        params = init_params(SCHEMA, INV, seed=0,
                             annotators=params.annotators)
    config = FitConfig()
    for corpus in (train, dev):
        graphs = build_graphs(corpus, params, SCHEMA, config.window,
                              build_obs(corpus, SCHEMA))
        posts = e_step(corpus, params, SCHEMA, config)
        for doc, graph, post in zip(corpus, graphs, posts):
            want = build_graph(doc, params, SCHEMA, config.window)
            assert graph.var_index == want.var_index
            assert graph.variables == want.variables
            assert [(f.factor_id, f.role, f.var_idx) for f in graph.factors] \
                == [(f.factor_id, f.role, f.var_idx) for f in want.factors]
            for got, f in zip(graph.factors, want.factors):
                assert np.array_equal(got.logpot, f.logpot)
            one = loopy_bp(want)
            assert (post.iterations, post.converged, post.evidence) \
                == (one.iterations, one.converged, one.evidence)
            assert list(post.marginals) == list(one.marginals)
            for var, m in one.marginals.items():
                assert np.array_equal(post.marginals[var], m)
            for fid, bf in one.factor_beliefs.items():
                assert np.array_equal(post.factor_beliefs[fid], bf)
    unannotated = build_graph(train[1], params, SCHEMA, config.window)
    assert all(f.role == "prior" for f in unannotated.factors)


def test_fit_flattens_each_corpus_once(monkeypatch):
    train, dev, _ = mixed_corpora()
    calls = {"build_obs": 0, "e_step": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    original = learning.build_obs
    monkeypatch.setattr(learning, "build_obs",
                        counted("build_obs", original))
    monkeypatch.setattr(factorgraph, "build_obs",
                        counted("build_obs", original))
    monkeypatch.setattr(learning, "e_step", counted("e_step", learning.e_step))
    result = fit(train, dev, INV, SCHEMA,
                 FitConfig(max_em_iters=3, m_step_iters=5))
    assert len(result.train_evidence) >= 2
    assert calls["e_step"] >= 5        # train and dev per iteration, final
    assert calls["build_obs"] == 2


def first_with(corpus, prop):
    for doc in corpus:
        for element in sorted(doc.annotations_by_element()):
            if any(r.property == prop and r.element == element
                   for r in doc.annotations):
                return doc.doc_id, element
    raise AssertionError(prop)


def test_non_finite_likelihood_raises_in_e_step():
    docs, params = sample(13, 3)
    params.props["telic"].mu[0] = np.nan
    doc_id, element = first_with(docs, "telic")
    with pytest.raises(NumericalError) as exc:
        e_step(docs, params, SCHEMA, FitConfig())
    assert str(exc.value) == (f"document {doc_id}: non-finite potential in "
                              f"factor lik:{element}")


def test_non_finite_likelihood_is_compute_error(tmp_path, capsys,
                                               monkeypatch):
    # the checkpoint's value check rejects a NaN before the E-step: let it
    # through, to reach the E-step's own check
    monkeypatch.setattr(params_module, "_check_values", lambda pairs: None)
    data = tmp_path / "data"
    assert run(["synth", "--out", str(data), "--docs", "3", "--seed", "1",
                "--k-event", "3", "--k-entity", "2", "--k-role", "2",
                "--k-rel", "2"]) == 0
    obj = json.loads((data / "true_params.json").read_text())
    obj["props"]["telic"]["mu"][0] = float("nan")
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(obj))
    doc_id, element = first_with(load_corpus(data / "corpus.jsonl", SCHEMA),
                                 "telic")
    capsys.readouterr()
    assert run(["posteriors", "--corpus", str(data / "corpus.jsonl"),
                "--checkpoint", str(bad), "--out",
                str(tmp_path / "post")]) == EXIT_COMPUTE
    err = capsys.readouterr().err
    assert err.startswith("compute error:")
    assert f"document {doc_id}: " in err
    assert f"factor lik:{element}" in err


def test_annotation_on_missing_element_is_consistency_error():
    train, dev, _ = mixed_corpora()
    doc = train[2]
    doc.annotations.append(AnnotationRecord(
        element="nowhere", property="telic", annotator="ann0", value=True,
        raw_confidence=3, ridit_confidence=0.5))
    with pytest.raises(ConsistencyError) as exc:
        fit(train, dev, INV, SCHEMA, FitConfig(max_em_iters=1,
                                               m_step_iters=1))
    assert f"{doc.doc_id}: " in str(exc.value)
    assert "'nowhere'" in str(exc.value)
