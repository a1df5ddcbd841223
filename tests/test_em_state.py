"""fit keeps one M-step state through its EM: the loop that rebuilt the
state every M-step is kept here as the reference, and the parameters it
writes back must not view that state."""

import copy
import json

import numpy as np
import pytest

from evstruct import learning
from evstruct.corpus import prepare_corpus
from evstruct.learning import (
    FitConfig, FitResult, _MStep, _one_fit, build_obs, e_step, fit, m_step,
    total_evidence,
)
from evstruct.params import TypeInventory, init_params, params_to_obj
from evstruct.schema import default_schema
from evstruct.synth import SynthConfig, sample_corpus
from test_selection_stack import leaf_values

SCHEMA = default_schema()
INV = TypeInventory(3, 2, 2, 2)


def corpus(seed):
    """A small default-schema corpus, split 6 train and 2 dev documents."""
    cfg = SynthConfig(inventory=INV, schema=SCHEMA, n_docs=8,
                      sentences_per_doc=2, predicates_per_sentence=2,
                      arguments_per_predicate=1, eventive_prob=0.3,
                      n_annotators=4, annotators_per_item=2, sigma_ann=0.5,
                      seed=seed, confidence_levels=[0.1, 0.15, 0.2, 0.25, 0.3])
    docs, _, _ = sample_corpus(cfg)
    prepare_corpus(docs, SCHEMA)
    return docs[:6], docs[6:]


def reference_fit(train, dev, inventory, schema, config):
    """fit with a fresh M-step state per EM iteration: m_step builds one,
    runs it and writes it back."""
    obs = build_obs(train, schema, config.confidence_weighting)
    dev_obs = build_obs(dev, schema, config.confidence_weighting)
    params = init_params(schema, inventory, seed=config.seed,
                         annotators=obs.annotators)
    train_trace, dev_trace = [], []
    best_params = copy.deepcopy(params)
    stopped = "max-iters"
    for _ in range(config.max_em_iters):
        posts = e_step(train, params, schema, config, obs=obs)
        train_trace.append(total_evidence(posts))
        m_step(train, posts, params, schema, config, obs=obs)
        dev_posts = (e_step(dev, params, schema, config, obs=dev_obs)
                     if dev else [])
        dev_trace.append(total_evidence(dev_posts) if dev
                         else train_trace[-1])
        if len(dev_trace) >= 2 and dev_trace[-1] < dev_trace[-2]:
            stopped = "dev-decrease"
            break
        best_params = copy.deepcopy(params)
    final_posts = e_step(train, best_params, schema, config, obs=obs)
    return FitResult(params=best_params, train_evidence=train_trace,
                     dev_evidence=dev_trace, posteriors=final_posts,
                     stopped_reason=stopped)


# (seed, with a dev corpus, config, how the reference stops, its iterations)
CASES = {
    "learn_rho": (5, True, FitConfig(max_em_iters=4, m_step_iters=20),
                  "max-iters", 4),
    "fixed_rho": (5, True, FitConfig(max_em_iters=4, m_step_iters=20,
                                     learn_rho=False), "max-iters", 4),
    "unweighted": (4, True, FitConfig(max_em_iters=4, m_step_iters=20,
                                      confidence_weighting=False),
                   "dev-decrease", 4),
    "no_dev": (4, False, FitConfig(max_em_iters=4, m_step_iters=20),
               "max-iters", 4),
    "dev_decrease": (1, True, FitConfig(max_em_iters=12, m_step_iters=20,
                                        adam_lr=0.2), "dev-decrease", 3),
}


@pytest.mark.parametrize("case", CASES)
def test_fit_matches_reference_bit_for_bit(case):
    seed, with_dev, config, stopped, n_iters = CASES[case]
    train, dev = corpus(seed)
    dev = dev if with_dev else []
    got = fit(train, dev, INV, SCHEMA, config)
    want = reference_fit(train, dev, INV, SCHEMA, config)
    assert (want.stopped_reason, len(want.train_evidence)) == (stopped,
                                                               n_iters)
    assert got.stopped_reason == want.stopped_reason
    assert got.train_evidence == want.train_evidence
    assert got.dev_evidence == want.dev_evidence
    assert (json.dumps(params_to_obj(got.params))
            == json.dumps(params_to_obj(want.params)))
    assert len(got.posteriors) == len(want.posteriors)
    for a, b in zip(got.posteriors, want.posteriors):
        assert a.evidence == b.evidence
        assert a.marginals.keys() == b.marginals.keys()
        for var in a.marginals:
            assert a.marginals[var].tobytes() == b.marginals[var].tobytes()


def test_fit_keeps_one_mstep_state(monkeypatch):
    train, dev = corpus(0)
    calls = {"_padded_packs": 0, "_fuse_fits": 0, "_params_from_packs": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(learning, name),
                    **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(learning, name, counted)
    result = fit(train, dev, INV, SCHEMA,
                 FitConfig(max_em_iters=3, m_step_iters=5))
    n_iters = len(result.train_evidence)
    assert n_iters >= 2
    assert calls == {"_padded_packs": 1, "_fuse_fits": 1,
                     "_params_from_packs": n_iters}


def test_written_parameters_do_not_view_the_mstep_state():
    train, _ = corpus(0)
    obs = build_obs(train, SCHEMA, True)
    params = init_params(SCHEMA, INV, seed=0, annotators=obs.annotators)
    rng = np.random.default_rng(3)
    post = {kind: rng.dirichlet(np.ones(INV.k_for(kind)), size=len(elems))
            for kind, elems in obs.elements.items()}
    mstep = _MStep([params], SCHEMA, obs, FitConfig(m_step_iters=20))
    mstep.run(_one_fit(post))
    mstep.write_back()
    values = dict(leaf_values(params))
    assert any(key.endswith("cut_raw") for key in values)
    assert any("rho[" in key and np.ndim(v) for key, v in values.items())
    views = [key for key, v in values.items() if np.shares_memory(v, mstep.x)]
    assert views == []
    before = {key: np.asarray(v).tobytes() for key, v in values.items()}
    mstep.refit()
    after = {key: np.asarray(v).tobytes()
             for key, v in leaf_values(params)}
    assert after == before
