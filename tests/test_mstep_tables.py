"""The fused expected-count M-step against the row-wise objective it
replaced, kept here as the reference: one evaluation's objective and
gradients, and the parameters written after Adam steps."""

import copy

import numpy as np
import pytest

from evstruct import likelihoods as lk
from evstruct.corpus import prepare_corpus
from evstruct.learning import (
    Adam, FitConfig, _fuse, _params_from_packs, optimize_likelihoods,
)
from evstruct.params import (
    TypeInventory, _binary_table, _categorical_table, _leaves, _ordinal_table,
    _packs_from_params, build_obs,
)
from evstruct.schema import (
    ARGUMENT_NODE, BINARY, CATEGORICAL, PRED_ARG_EDGE, PREDICATE_NODE,
    PropertySpec, Schema, default_schema,
)
from evstruct.synth import SynthConfig, sample_corpus


# ---------------------------------------------------------------------------
# row-wise reference: the (N, K) log-likelihood of N rows under each of K
# types and, given coefficients c (N, K), the gradient of sum(c * ll)

def reference_binary(arrays, prefix, ann, x, c, n_ann):
    z = arrays[prefix + "mu"][None, :] + arrays[prefix + "rho"][ann][:, None]
    ll = x[:, None] * lk.log_sigmoid(z) + (1.0 - x)[:, None] * lk.log_sigmoid(-z)
    cg = c * (x[:, None] - lk.sigmoid(z))
    drho = np.zeros(n_ann)
    np.add.at(drho, ann, cg.sum(axis=1))
    return ll, {prefix + "mu": cg.sum(axis=0), prefix + "rho": drho}


def reference_categorical(arrays, prefix, ann, x, c, n_ann):
    mu = arrays[prefix + "mu"]
    z = mu[None, :, :] + arrays[prefix + "rho"][ann][:, None, :]
    ls = lk.log_softmax(z, axis=-1)
    n = len(x)
    ll = ls[np.arange(n), :, x]
    g = -np.exp(ls)
    g[np.arange(n), :, x] += 1.0
    drho = np.zeros((n_ann, mu.shape[-1]))
    np.add.at(drho, ann, np.einsum("nk,nkc->nc", c, g))
    return ll, {prefix + "mu": np.einsum("nk,nkc->kc", c, g),
                prefix + "rho": drho}


def reference_ordinal(arrays, prefix, ann, j, c, n_ann):
    mu = arrays[prefix + "mu"]
    raw = arrays[prefix + "cut_raw"][None, :] + arrays[prefix + "rho"]
    cuts = lk.cutpoints_from_raw(raw)
    J = cuts.shape[1] + 1
    crow = cuts[ann]
    n = len(j)
    hi_cut = np.where(j < J, crow[np.arange(n), np.minimum(j, J - 1) - 1], 0.0)
    lo_cut = np.where(j > 1, crow[np.arange(n), np.maximum(j - 2, 0)], 0.0)
    hi = np.where((j < J)[:, None], lk.sigmoid(hi_cut[:, None] - mu[None, :]), 1.0)
    lo = np.where((j > 1)[:, None], lk.sigmoid(lo_cut[:, None] - mu[None, :]), 0.0)
    p = np.maximum(hi - lo, 1e-300)
    ll = np.log(p)
    dhi = np.where((j < J)[:, None], hi * (1.0 - hi), 0.0)
    dlo = np.where((j > 1)[:, None], lo * (1.0 - lo), 0.0)
    u = np.sum(c * dhi / p, axis=1)
    l = -np.sum(c * dlo / p, axis=1)
    dcut = np.zeros((n_ann, J - 1))
    sel = j < J
    np.add.at(dcut, (ann[sel], j[sel] - 1), u[sel])
    sel = j > 1
    np.add.at(dcut, (ann[sel], j[sel] - 2), l[sel])
    draw = lk.raw_grad_from_cutpoint_grad(raw, dcut)
    return ll, {prefix + "mu": np.sum(c * (dlo - dhi) / p, axis=0),
                prefix + "cut_raw": draw.sum(axis=0), prefix + "rho": draw}


# each table function's row-wise reference, and the row value it reads
# from a term's outcome index
REFERENCE = {
    _binary_table: (reference_binary, lambda out: out.astype(float)),
    _categorical_table: (reference_categorical, lambda out: out),
    _ordinal_table: (reference_ordinal, lambda out: out + 1),
}


def reference_prop_objective(pack, table, c_all, n_ann):
    grads = {name: np.zeros_like(arr) for name, arr in pack.arrays.items()}
    obj = 0.0
    for term in table.terms:
        if len(term.rows) == 0:
            continue
        family, value = REFERENCE[term.family]
        c = c_all[term.rows]
        ll, g = family(pack.arrays, term.prefix, term.ann, value(term.out), c,
                       n_ann)
        obj += float(np.sum(c * ll))
        for name, garr in g.items():
            grads[name] += garr
    return obj, grads


def reference_penalty(pack, params):
    obj = 0.0
    grads = {}
    for prefix, owner, attr, _ in _leaves(params.props[pack.name]):
        name = prefix + "rho"
        mat = pack.arrays[name]
        sigma = getattr(owner, attr + "sigma")
        if mat.ndim == 1:
            var = float(np.atleast_2d(sigma)[0, 0])
            obj += float(np.sum(-0.5 * mat ** 2 / var
                                - 0.5 * np.log(2 * np.pi * var)))
            grads[name] = -mat / var
        else:
            sigma = np.atleast_2d(sigma)
            inv = np.linalg.inv(sigma)
            _, logdet = np.linalg.slogdet(sigma)
            obj += float(np.sum(-0.5 * np.einsum("ad,de,ae->a", mat, inv, mat)
                                - 0.5 * logdet
                                - 0.5 * mat.shape[1] * np.log(2 * np.pi)))
            grads[name] = -mat @ inv
    return obj, grads


def reference_evaluate(packs, params, schema, obs, post_mats, learn_rho):
    """Objective and gradients by property, one property at a time."""
    n_ann = len(obs.annotators)
    obj = 0.0
    grads = {}
    for spec in schema:
        pack, table = packs[spec.name], obs.tables[spec.name]
        c = post_mats[spec.group][table.elem] * table.weight[:, None]
        obj_p, grads[spec.name] = reference_prop_objective(pack, table, c,
                                                           n_ann)
        obj += obj_p
        if learn_rho:
            obj_p, pg = reference_penalty(pack, params)
            obj += obj_p
            for name, garr in pg.items():
                grads[spec.name][name] += garr
    return obj, grads


def reference_optimize(params, schema, obs, post_mats, config):
    """Adam over one vector of pack views, stepped with the reference
    gradients; writes the best iterate back into params."""
    packs = _packs_from_params(params, schema, obs.annotators)
    opt = [(pack, name) for pack in packs.values() for name in pack.arrays
           if config.learn_rho or "rho" not in name]
    x = np.zeros(sum(pack.arrays[name].size for pack, name in opt))
    end = 0
    for pack, name in opt:
        arr = pack.arrays[name]
        start, end = end, end + arr.size
        x[start:end] = arr.ravel()
        pack.arrays[name] = x[start:end].reshape(arr.shape)
    adam = Adam(x, config.adam_lr, config.adam_beta1, config.adam_beta2,
                config.adam_eps)
    best_obj, best = -np.inf, None
    for it in range(config.m_step_iters + 1):
        if it:
            adam.step(g)
        obj, grads = reference_evaluate(packs, params, schema, obs, post_mats,
                                        config.learn_rho)
        g = np.concatenate([grads[pack.name][name].ravel()
                            for pack, name in opt])
        if obj > best_obj:
            best_obj, best = obj, x.copy()
    x[...] = best
    _params_from_packs(params, schema, obs.annotators, packs)
    params.annotators = list(obs.annotators)
    return best_obj


def gradient_views(groups):
    """property -> array name -> the row of its group's gradient view"""
    grads = {}
    for grp in groups:
        for i, (pack, prefix) in enumerate(grp.members):
            for name, view in grp.grads.items():
                grads.setdefault(pack.name, {})[prefix + name] = view[i]
    return grads


# ---------------------------------------------------------------------------

UNANSWERED = "unanswered"


def stacking_schema():
    """Two or more blocks per (family, table shape): ungated and gated
    binaries, two 12-level ordinals, two 3-category role categoricals that
    share their shape with the temporal blocks (K_role = K_rel), and an
    event binary nobody answers."""
    extra = (
        PropertySpec("affectedness", "protoroles", PRED_ARG_EDGE, CATEGORICAL,
                     n_categories=3),
        PropertySpec("manner", "protoroles", PRED_ARG_EDGE, CATEGORICAL,
                     n_categories=3),
        PropertySpec("concrete", "genericity", ARGUMENT_NODE, BINARY,
                     gate=("particular", True)),
        PropertySpec(UNANSWERED, "subevent", PREDICATE_NODE, BINARY),
    )
    return Schema(default_schema().properties + extra)


@pytest.fixture(scope="module")
def corpus():
    schema = stacking_schema()
    cfg = SynthConfig(inventory=TypeInventory(3, 2, 2, 2), schema=schema,
                      n_docs=4, sentences_per_doc=3, predicates_per_sentence=2,
                      arguments_per_predicate=1, eventive_prob=0.5,
                      n_annotators=4, annotators_per_item=2, seed=11,
                      sigma_ann=0.7,
                      confidence_levels=[0.1, 0.15, 0.2, 0.25, 0.3])
    docs, _, params = sample_corpus(cfg)
    for doc in docs:
        doc.annotations = [r for r in doc.annotations
                           if r.property != UNANSWERED]
    prepare_corpus(docs, schema)
    obs = build_obs(docs, schema, confidence_weighting=True)
    rng = np.random.default_rng(2)
    post = {kind: rng.dirichlet(np.ones(params.inventory.k_for(kind)),
                                size=len(elems))
            for kind, elems in obs.elements.items()}
    return schema, params, obs, post


def test_corpus_stacks_every_family(corpus):
    schema, params, obs, post = corpus
    packs = _packs_from_params(params, schema, obs.annotators)
    groups, _, _ = _fuse(packs, params, schema, obs, post, True)
    sizes = {grp.family: [] for grp in groups}
    for grp in groups:
        sizes[grp.family].append(len(grp.members))
    assert all(max(n) >= 2 for n in sizes.values()), sizes
    assert set(sizes) == {_binary_table, _categorical_table, _ordinal_table}
    # the unanswered property has no rows but shares a stacked group
    assert len(obs.tables[UNANSWERED].elem) == 0
    group_of = {pack.name: len(grp.members) for grp in groups
                for pack, _ in grp.members}
    assert group_of[UNANSWERED] >= 2
    # temporal blocks and role categoricals share one group
    shared = [{pack.name for pack, _ in grp.members}
              for grp in groups if grp.family is _categorical_table]
    assert {"temporal_relation", "affectedness", "manner"} in shared
    for pack in packs.values():
        for name, arr in pack.arrays.items():
            if "rho" in name:
                assert np.all(arr != 0.0), (pack.name, name)


@pytest.mark.parametrize("learn_rho", [True, False],
                         ids=["learn_rho", "fixed_rho"])
def test_one_evaluation_matches_reference(corpus, learn_rho):
    schema, params, obs, post = corpus
    packs = _packs_from_params(params, schema, obs.annotators)
    ref_obj, ref_grads = reference_evaluate(
        _packs_from_params(params, schema, obs.annotators), params, schema,
        obs, post, learn_rho)
    groups, _, _ = _fuse(packs, params, schema, obs, post, learn_rho)
    obj = sum(grp.evaluate(learn_rho) for grp in groups)
    assert obj == pytest.approx(ref_obj, rel=1e-9, abs=0)
    for pname, views in gradient_views(groups).items():
        want = {name for name in packs[pname].arrays
                if learn_rho or "rho" not in name}
        assert set(views) == want, pname
        for name, view in views.items():
            ref = ref_grads[pname][name]
            scale = max(1.0, float(np.max(np.abs(ref), initial=0.0)))
            assert np.max(np.abs(view - ref), initial=0.0) <= 1e-9 * scale, \
                (pname, name)


def _leaf_arrays(params):
    for name in sorted(params.props):
        for prefix, owner, attr, _ in _leaves(params.props[name]):
            key = f"{name}/{prefix}"
            yield key + "mu", getattr(owner, attr + "mu")
            yield key + "sigma", getattr(owner, attr + "sigma")
            rho = getattr(owner, attr + "rho")
            for a in sorted(rho):
                yield f"{key}rho[{a}]", rho[a]
            if hasattr(owner, "cut_raw"):
                yield key + "cut_raw", owner.cut_raw


@pytest.mark.parametrize("learn_rho", [True, False],
                         ids=["learn_rho", "fixed_rho"])
def test_adam_steps_match_reference(corpus, learn_rho):
    schema, params, obs, post = corpus
    config = FitConfig(m_step_iters=20, learn_rho=learn_rho)
    fused, ref = copy.deepcopy(params), copy.deepcopy(params)
    obj = optimize_likelihoods(fused, schema, obs, post, config)
    ref_obj = reference_optimize(ref, schema, obs, post, config)
    assert obj == pytest.approx(ref_obj, rel=1e-9, abs=0)
    got, want = dict(_leaf_arrays(fused)), dict(_leaf_arrays(ref))
    assert got.keys() == want.keys()
    for key in want:
        np.testing.assert_allclose(got[key], want[key], rtol=1e-8, atol=1e-8,
                                   err_msg=key)
    start = dict(_leaf_arrays(params))
    assert any("mu" in key and not np.array_equal(want[key], start[key])
               for key in want)
