"""The corpus-batched BP engine against the per-factor loop it replaced,
kept here as the reference, and non-finite message reporting."""

import json

import numpy as np
import pytest
from scipy.special import logsumexp

from evstruct import params as params_module
from evstruct.cli import EXIT_COMPUTE, run
from evstruct.corpus import (
    DocumentGraph, edge_id, load_corpus, prepare_corpus,
)
from evstruct.factorgraph import (
    NumericalError, PosteriorSet, build_graph, loopy_bp, loopy_bp_batch,
)
from evstruct.learning import FitConfig, e_step
from evstruct.params import TypeInventory, init_params
from evstruct.schema import default_schema
from evstruct.synth import SynthConfig, sample_corpus

SCHEMA = default_schema()


def _normalize_log(m):
    return m - np.max(m)


def reference_loopy_bp(graph, max_iters=200, damping=0.1, tol=1e-8):
    """Synchronous flooding sum-product in log space, one factor at a time."""
    nvars = len(graph.variables)
    factors = graph.factors
    f2v = [[np.zeros(graph.variables[i].k) for i in f.var_idx] for f in factors]
    v2f = [[np.zeros(graph.variables[i].k) for i in f.var_idx] for f in factors]
    incidence = [[] for _ in range(nvars)]
    for fi, f in enumerate(factors):
        for pos, vi in enumerate(f.var_idx):
            incidence[vi].append((fi, pos))

    converged = False
    iterations = 0
    for iteration in range(1, max_iters + 1):
        iterations = iteration
        delta = 0.0
        new_v2f = [[None] * len(f.var_idx) for f in factors]
        for vi in range(nvars):
            total = np.zeros(graph.variables[vi].k)
            for fi, pos in incidence[vi]:
                total = total + f2v[fi][pos]
            for fi, pos in incidence[vi]:
                new_v2f[fi][pos] = _normalize_log(total - f2v[fi][pos])
        for fi, f in enumerate(factors):
            arity = len(f.var_idx)
            if arity == 1:
                cand = _normalize_log(f.logpot)
                msg = (1 - damping) * cand + damping * f2v[fi][0]
                delta = max(delta, float(np.max(np.abs(msg - f2v[fi][0]))))
                f2v[fi][0] = msg
                v2f[fi][0] = new_v2f[fi][0]
                continue
            acc = f.logpot
            for pos in range(arity):
                shape = [1] * arity
                shape[pos] = -1
                acc = acc + new_v2f[fi][pos].reshape(shape)
            for pos in range(arity):
                axes = tuple(ax for ax in range(arity) if ax != pos)
                shape = [1] * arity
                shape[pos] = -1
                cand = logsumexp(acc - new_v2f[fi][pos].reshape(shape),
                                 axis=axes)
                cand = _normalize_log(cand)
                if not np.all(np.isfinite(cand)):
                    raise NumericalError(
                        f"non-finite message from factor {f.factor_id}")
                msg = (1 - damping) * cand + damping * f2v[fi][pos]
                delta = max(delta, float(np.max(np.abs(msg - f2v[fi][pos]))))
                f2v[fi][pos] = msg
                v2f[fi][pos] = new_v2f[fi][pos]
        if delta < tol:
            converged = True
            break

    marginals, var_entropy, var_degree = {}, np.zeros(nvars), np.zeros(nvars)
    for vi, var in enumerate(graph.variables):
        total = np.zeros(var.k)
        for fi, pos in incidence[vi]:
            total = total + f2v[fi][pos]
        b = np.exp(total - logsumexp(total))
        b /= b.sum()
        marginals[var.var_id] = b
        var_entropy[vi] = -float(np.sum(b[b > 0] * np.log(b[b > 0])))
        var_degree[vi] = len(incidence[vi])

    evidence = 0.0
    factor_beliefs = {}
    for fi, f in enumerate(factors):
        arity = len(f.var_idx)
        acc = f.logpot
        for pos in range(arity):
            shape = [1] * arity
            shape[pos] = -1
            acc = acc + v2f[fi][pos].reshape(shape)
        bf = np.exp(acc - logsumexp(acc))
        bf /= bf.sum()
        if f.role == "prior":
            factor_beliefs[f.factor_id] = bf
        mask = bf > 0
        evidence += float(np.sum(bf[mask] * f.logpot[mask]))
        evidence += -float(np.sum(bf[mask] * np.log(bf[mask])))
    evidence -= float(np.sum((var_degree - 1.0) * var_entropy))

    return PosteriorSet(
        marginals=marginals, evidence=evidence, converged=converged,
        iterations=iterations,
        kinds={v.var_id: v.kind for v in graph.variables},
        factor_beliefs=factor_beliefs)


def cyclic_docs(seed=5, n_docs=6):
    """Default-schema documents whose window-2 relation pairs, eventive
    arguments included, close cycles through shared predicates."""
    inv = TypeInventory(3, 2, 2, 3)
    cfg = SynthConfig(inventory=inv, schema=SCHEMA, n_docs=n_docs,
                      sentences_per_doc=3, predicates_per_sentence=2,
                      eventive_prob=0.5, n_annotators=3,
                      annotators_per_item=2, seed=seed)
    docs, _, params = sample_corpus(cfg)
    prepare_corpus(docs, SCHEMA)
    assert all(len(doc.doc_edges) > len(doc.sentences) for doc in docs)
    return docs, params


def assert_same_posteriors(got, want):
    assert got.iterations == want.iterations
    assert got.converged == want.converged
    assert got.kinds == want.kinds
    assert list(got.marginals) == list(want.marginals)
    for var, m in want.marginals.items():
        np.testing.assert_allclose(got.marginals[var], m, rtol=0, atol=1e-10)
    assert got.evidence == pytest.approx(want.evidence, rel=0, abs=1e-8)
    assert list(got.factor_beliefs) == list(want.factor_beliefs)
    for fid, bf in want.factor_beliefs.items():
        np.testing.assert_allclose(got.factor_beliefs[fid], bf, rtol=0,
                                   atol=1e-8)


@pytest.mark.parametrize("initial", [False, True], ids=["true", "initial"])
def test_batch_matches_reference(initial):
    docs, params = cyclic_docs()
    if initial:
        params = init_params(SCHEMA, params.inventory, seed=0,
                             annotators=params.annotators)
    graphs = [build_graph(doc, params, SCHEMA, window=2) for doc in docs]
    for got, graph in zip(loopy_bp_batch(graphs), graphs):
        assert_same_posteriors(got, reference_loopy_bp(graph))


def test_mixed_batch_freezes_each_document():
    # potentials of three sizes: documents converge after different
    # iteration counts, and the strongest one runs out of iterations
    docs, params = cyclic_docs(seed=6, n_docs=3)
    docs[0].annotations = []
    for r in docs[1].annotations:
        r.ridit_confidence *= 1e-4
    graphs = [build_graph(doc, params, SCHEMA, window=2) for doc in docs]
    counts = [reference_loopy_bp(g).iterations for g in graphs]
    assert counts[0] < counts[1] < counts[2]
    max_iters = counts[2] - 1
    want = [reference_loopy_bp(g, max_iters=max_iters) for g in graphs]
    assert [w.converged for w in want] == [True, True, False]
    assert want[2].iterations == max_iters
    for got, w in zip(loopy_bp_batch(graphs, max_iters=max_iters), want):
        assert_same_posteriors(got, w)


def test_batch_equals_batches_of_one():
    docs, params = cyclic_docs(seed=7)
    graphs = [build_graph(doc, params, SCHEMA, window=2) for doc in docs]
    for got, graph in zip(loopy_bp_batch(graphs, damping=0.3), graphs):
        one = loopy_bp(graph, damping=0.3)
        assert (got.iterations, got.converged) == (one.iterations,
                                                   one.converged)
        assert got.evidence == one.evidence
        for var, m in one.marginals.items():
            np.testing.assert_array_equal(got.marginals[var], m)
        for fid, bf in one.factor_beliefs.items():
            np.testing.assert_array_equal(got.factor_beliefs[fid], bf)


def test_empty_batch_and_zero_iterations():
    assert loopy_bp_batch([]) == []
    docs, params = cyclic_docs(n_docs=1)
    graph = build_graph(docs[0], params, SCHEMA, window=2)
    assert_same_posteriors(loopy_bp(graph, max_iters=0),
                           reference_loopy_bp(graph, max_iters=0))


def first_role_factor(doc):
    pred, arg = doc.sentences[0].edges[0]
    return f"prior:{edge_id(pred, arg)}"


def test_non_finite_potential_raises_in_e_step():
    docs, params = cyclic_docs(n_docs=3)
    params.priors.theta_role[0, 0, 0] = np.nan
    with pytest.raises(NumericalError) as exc:
        e_step(docs, params, SCHEMA, FitConfig())
    message = str(exc.value)
    assert f"document {docs[0].doc_id}" in message
    assert f"factor {first_role_factor(docs[0])}" in message


def test_non_finite_potential_is_compute_error(tmp_path, capsys,
                                               monkeypatch):
    # the checkpoint's value check rejects a NaN before the E-step: let it
    # through, to reach the E-step's own check
    monkeypatch.setattr(params_module, "_check_values", lambda pairs: None)
    data = tmp_path / "data"
    assert run(["synth", "--out", str(data), "--docs", "3", "--seed", "1",
                "--k-event", "3", "--k-entity", "2", "--k-role", "2",
                "--k-rel", "2"]) == 0
    obj = json.loads((data / "true_params.json").read_text())
    obj["priors"]["theta_role"][0][0][0] = float("nan")
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(obj))
    first = load_corpus(data / "corpus.jsonl", SCHEMA)[0]
    capsys.readouterr()
    assert run(["posteriors", "--corpus", str(data / "corpus.jsonl"),
                "--checkpoint", str(bad), "--out",
                str(tmp_path / "post")]) == EXIT_COMPUTE
    err = capsys.readouterr().err
    assert err.startswith("compute error:")
    assert f"document {first.doc_id}: " in err
    assert f"factor {first_role_factor(first)}" in err


@pytest.mark.parametrize("where", [0, 2, 4], ids=["first", "middle", "last"])
def test_document_without_variables_anywhere_in_batch(where):
    docs, params = cyclic_docs(seed=8, n_docs=4)
    graphs = [build_graph(doc, params, SCHEMA, window=2) for doc in docs]
    empty = build_graph(DocumentGraph("empty", [], [], []), params, SCHEMA,
                        window=2)
    assert empty.variables == [] and empty.factors == []
    batch = graphs[:where] + [empty] + graphs[where:]
    got = loopy_bp_batch(batch)
    alone = got.pop(where)
    assert (alone.iterations, alone.converged, alone.evidence) == (1, True, 0)
    assert alone.marginals == {} and alone.factor_beliefs == {}
    for post, graph in zip(got, graphs):
        one = loopy_bp(graph)
        assert (post.iterations, post.converged, post.evidence) \
            == (one.iterations, one.converged, one.evidence)
        for var, m in one.marginals.items():
            np.testing.assert_array_equal(post.marginals[var], m)
        for fid, bf in one.factor_beliefs.items():
            np.testing.assert_array_equal(post.factor_beliefs[fid], bf)


def test_exact_zero_priors():
    # _log floors every prior at 1e-12, so no contraction of a ternary
    # table with shifted messages is 0 and no log(0) occurs; the suite
    # turns a RuntimeWarning into an error
    docs, params = cyclic_docs(seed=9, n_docs=4)
    pri = params.priors
    pri.theta_role[0] = 0.0
    pri.theta_role[0, :, 0] = 1.0
    pri.theta_role[:, -1] = np.eye(pri.theta_role.shape[-1])[-1]
    for table in pri.theta_rel.values():
        table[:, 0] = 0.0
        table[:, 0, -1] = 1.0
        table[-1, -1] = np.eye(table.shape[-1])[0]
    assert sum((t == 0).sum() for t in (pri.theta_role,
                                        *pri.theta_rel.values())) >= 20
    graphs = [build_graph(doc, params, SCHEMA, window=2) for doc in docs]
    posts = e_step(docs, params, SCHEMA, FitConfig())
    for got, graph in zip(posts, graphs):
        want = reference_loopy_bp(graph)
        assert got.iterations == want.iterations
        assert got.converged == want.converged
        assert got.evidence == pytest.approx(want.evidence, rel=1e-10)
        for var, m in want.marginals.items():
            assert np.isfinite(got.marginals[var]).all()
            np.testing.assert_allclose(got.marginals[var], m, rtol=0,
                                       atol=1e-10)
        for fid, bf in want.factor_beliefs.items():
            np.testing.assert_allclose(got.factor_beliefs[fid], bf, rtol=0,
                                       atol=1e-10)
