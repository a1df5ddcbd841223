"""Type-count selection as one EM over a stack of fits (every restart of
every candidate K, with K padded to the largest candidate), against the
same mixtures fitted one candidate at a time."""

import numpy as np
import pytest

from evstruct import learning, likelihoods as lk, selection
from evstruct.cli import EXIT_COMPUTE, run
from evstruct.corpus import prepare_corpus
from evstruct.learning import FitConfig, build_obs
from evstruct.learning import (
    Adam, _fill_counts, _fuse_fits, _padded_packs, _params_from_packs,
)
from evstruct.params import TypeInventory, _leaves, _Pack, init_params
from evstruct.schema import (
    CATEGORICAL, PREDICATE_NODE, PropertySpec, Schema, default_schema,
)
from evstruct.selection import (
    SelectionConfig, _fit_candidates, fit_mixture, mixture_dev_evidence,
    select_k,
)
from evstruct.synth import SynthConfig, flat_schema, sample_corpus

CANDIDATES = [1, 2, 3, 4, 5]


def categorical_event_schema():
    """The default schema plus a 3-category event property: its event kind
    has binary, hurdle, ordinal and categorical terms, its rel kind the
    temporal ones."""
    return Schema(default_schema().properties + (PropertySpec(
        "aspect", "subevent", PREDICATE_NODE, CATEGORICAL, n_categories=3),))


def split_corpus(schema, seed, confidence=None):
    cfg = SynthConfig(inventory=TypeInventory(3, 2, 2, 2), schema=schema,
                      n_docs=14, sentences_per_doc=2,
                      predicates_per_sentence=2, arguments_per_predicate=1,
                      eventive_prob=0.5, n_annotators=3,
                      annotators_per_item=2, seed=seed, separation=3.0,
                      sigma_ann=0.4, confidence_levels=confidence)
    docs, _, _ = sample_corpus(cfg)
    prepare_corpus(docs, schema)
    return docs[:10], docs[10:]


def config(weighting=True, learn_rho=True):
    return SelectionConfig(
        restarts=2, em_iters=5, seed=3,
        fit=FitConfig(m_step_iters=20, confidence_weighting=weighting,
                      learn_rho=learn_rho))


GRADED = [0.1, 0.15, 0.2, 0.25, 0.3]
CASES = {
    "flat": (flat_schema(n_event=5), "event", None, False, True),
    "default-event": (categorical_event_schema(), "event", GRADED, True,
                      True),
    "default-rel": (categorical_event_schema(), "rel", GRADED, True, True),
    "fixed-rho": (flat_schema(n_event=5), "event", None, False, False),
}


@pytest.mark.parametrize("case", list(CASES))
def test_select_k_matches_fits_run_alone(case, monkeypatch):
    schema, kind, confidence, weighting, learn_rho = CASES[case]
    train, dev = split_corpus(schema, seed=4, confidence=confidence)
    sc = config(weighting, learn_rho)
    stacked = []
    dev_evidence = selection._dev_evidence

    def recorded(*args, **kwargs):
        stacked.append(dev_evidence(*args, **kwargs))
        return stacked[-1]

    monkeypatch.setattr(selection, "_dev_evidence", recorded)
    report = select_k(train, dev, kind, CANDIDATES, schema, sc)
    (per_item,) = stacked
    assert per_item.shape == (len(CANDIDATES), len(build_obs(
        dev, schema, weighting).elements[kind]))
    for row, k in zip(per_item, CANDIDATES):
        alone = mixture_dev_evidence(fit_mixture(train, kind, k, schema, sc),
                                     dev, schema, sc)
        np.testing.assert_allclose(row, alone, rtol=1e-9, atol=0,
                                   err_msg=f"K={k}")
        assert report.dev_evidence[k] == pytest.approx(alone.mean(),
                                                       rel=1e-9)


def leaf_values(params):
    for name in sorted(params.props):
        for prefix, owner, attr, _ in _leaves(params.props[name]):
            key = f"{name}/{prefix}"
            yield key + "mu", getattr(owner, attr + "mu")
            yield key + "sigma", getattr(owner, attr + "sigma")
            for a, value in sorted(getattr(owner, attr + "rho").items()):
                yield f"{key}rho[{a}]", value
            if hasattr(owner, "cut_raw"):
                yield key + "cut_raw", owner.cut_raw


@pytest.mark.parametrize("learn_rho", [True, False],
                         ids=["learn_rho", "fixed_rho"])
def test_padded_fit_equals_unpadded(learn_rho):
    schema = categorical_event_schema()
    train, _ = split_corpus(schema, seed=5, confidence=GRADED)
    sc = config(learn_rho=learn_rho)
    obs = build_obs(train, schema, True)
    padded = _fit_candidates(obs, "event", [1, 5], schema, sc)[0]
    alone = fit_mixture(train, "event", 1, schema, sc, obs=obs)
    assert padded.k == alone.k == 1
    np.testing.assert_allclose(padded.log_pi, alone.log_pi, rtol=1e-12,
                               atol=1e-12)
    assert padded.train_loglik == pytest.approx(alone.train_loglik,
                                                rel=1e-12)
    got, want = dict(leaf_values(padded.params)), dict(leaf_values(
        alone.params))
    assert got.keys() == want.keys()
    for key in want:
        assert np.shape(got[key]) == np.shape(want[key]), key
        np.testing.assert_allclose(got[key], want[key], rtol=1e-12,
                                   atol=1e-12, err_msg=key)


class RebuiltEachIteration:
    """Reference M-step of a stack: every EM iteration converts each fit's
    parameters to padded packs, fuses them afresh, runs Adam and writes the
    result back into the parameters, which the E-step then reads."""

    def __init__(self, fits, schema, obs, config, names=None):
        self.fits, self.schema, self.obs = fits, schema, obs
        self.config = config

    @property
    def stacked(self):
        per_fit = _padded_packs(self.fits, self.schema, self.obs.annotators)
        return {name: _Pack(name, pack.spec,
                            {a: np.stack([p[name].arrays[a] for p in per_fit])
                             for a in pack.arrays})
                for name, pack in per_fit[0].items()}

    def run(self, post_mats):
        fits, schema, obs, config = (self.fits, self.schema, self.obs,
                                     self.config)
        packs = _padded_packs(fits, schema, obs.annotators)
        groups, x, g, x_fit = _fuse_fits(packs, fits, schema, obs,
                                         config.learn_rho)
        _fill_counts(groups, schema, obs, post_mats)
        adam = Adam(x, config.adam_lr, config.adam_beta1, config.adam_beta2,
                    config.adam_eps)
        best_obj, best = np.full(len(fits), -np.inf), x.copy()
        for it in range(config.m_step_iters + 1):
            if it:
                adam.step(g)
            obj = sum((grp.evaluate(config.learn_rho) for grp in groups),
                      np.zeros(len(fits)))
            better = obj > best_obj
            best_obj[better] = obj[better]
            np.copyto(best, x, where=better[x_fit])
        x[...] = best
        for params, fit_packs in zip(fits, packs):
            _params_from_packs(params, schema, obs.annotators, fit_packs)
            params.annotators = list(obs.annotators)
        return best_obj

    def refit(self):
        pass

    def write_back(self):
        pass


@pytest.mark.parametrize("learn_rho", [True, False],
                         ids=["learn_rho", "fixed_rho"])
@pytest.mark.parametrize("case", ["flat", "default-event"])
def test_kept_state_matches_rebuilding_each_iteration(case, learn_rho,
                                                      monkeypatch):
    # candidates 1 and 5: the K=1 fits carry padding rows in every mu
    schema, kind, confidence, weighting, _ = CASES[case]
    train, _ = split_corpus(schema, seed=9, confidence=confidence)
    sc = config(weighting, learn_rho)
    obs = build_obs(train, schema, weighting)
    kept = _fit_candidates(obs, kind, [1, 5], schema, sc)
    monkeypatch.setattr(selection, "_MStep", RebuiltEachIteration)
    rebuilt = _fit_candidates(obs, kind, [1, 5], schema, sc)
    # both do the same arithmetic in the same order, so they agree bit for
    # bit; a tolerance would hide a skipped recentring, which moves the
    # results only by rounding
    for got, want in zip(kept, rebuilt):
        assert got.k == want.k
        assert got.train_loglik == want.train_loglik
        np.testing.assert_array_equal(got.log_pi, want.log_pi)
        values, reference = dict(leaf_values(got.params)), dict(leaf_values(
            want.params))
        assert values.keys() == reference.keys()
        assert (case == "flat") != any(key.endswith("cut_raw")
                                       for key in reference)
        for key in reference:
            assert np.shape(values[key]) == np.shape(reference[key]), key
            np.testing.assert_array_equal(values[key], reference[key],
                                          err_msg=f"K={want.k} {key}")


def test_refit_between_m_steps():
    # what the E-step of the next EM iteration reads from the kept state
    schema, kind, confidence, weighting, _ = CASES["default-event"]
    train, _ = split_corpus(schema, seed=9, confidence=confidence)
    obs = build_obs(train, schema, weighting)
    sub = selection._sub_schema(schema, kind)
    fits = [init_params(sub, selection._inventory_for(kind, k), seed=k,
                        annotators=obs.annotators) for k in (1, 5)]
    mstep = learning._MStep(fits, sub, obs, FitConfig(m_step_iters=20))
    resp = np.random.default_rng(0).dirichlet(np.ones(5), size=(2, len(
        obs.elements[kind])))
    resp[0] = np.eye(5)[0]
    mstep.run({kind: resp})
    mstep.refit()
    ordinal = [grp for grp in mstep.groups if "cut_raw" in grp.arrays]
    assert ordinal
    for grp in mstep.groups:
        mu, rho = grp.arrays["mu"], grp.arrays["rho"]
        np.testing.assert_array_equal(mu[~grp.real], 0.0)
        want = lk.update_sigma(rho.reshape(rho.shape[:2] + (-1,)))
        np.testing.assert_array_equal(-grp.neg_prec, np.linalg.inv(want))
    for grp in ordinal:
        means = lk.cutpoints_from_raw(grp.arrays["cut_raw"]).mean(axis=-1)
        assert np.max(np.abs(means)) <= 1e-12


def test_select_k_fuses_the_stack_once(monkeypatch):
    schema = flat_schema(n_event=5)
    train, dev = split_corpus(schema, seed=6)
    sc = config(False)
    calls = {"_padded_packs": 0, "_fuse_fits": 0, "_params_from_packs": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(learning, name),
                    **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(learning, name, counted)
    select_k(train, dev, "event", CANDIDATES, schema, sc)
    assert sc.em_iters > 1
    assert calls == {"_padded_packs": 1, "_fuse_fits": 1,
                     "_params_from_packs": len(CANDIDATES) * sc.restarts}


def test_restarts_match_single_restart_fits():
    # restart r of a stack draws the seed of a one-restart fit with seed
    # config.seed + r; the stack keeps the first best by train likelihood
    schema = categorical_event_schema()
    train, _ = split_corpus(schema, seed=8, confidence=GRADED)
    sc = config()
    obs = build_obs(train, schema, True)
    for k in (2, 4):
        stacked = fit_mixture(train, "event", k, schema, sc, obs=obs)
        alone = [fit_mixture(train, "event", k, schema, SelectionConfig(
            restarts=1, em_iters=sc.em_iters, seed=sc.seed + r, fit=sc.fit),
            obs=obs) for r in range(sc.restarts)]
        lls = [m.train_loglik for m in alone]
        assert len(set(lls)) == len(lls)
        best = alone[int(np.argmax(lls))]
        assert stacked.train_loglik == pytest.approx(best.train_loglik,
                                                     rel=1e-12)
        np.testing.assert_allclose(stacked.log_pi, best.log_pi, rtol=1e-9,
                                   atol=1e-12)
        got, want = dict(leaf_values(stacked.params)), dict(leaf_values(
            best.params))
        for key in want:
            np.testing.assert_allclose(got[key], want[key], rtol=1e-9,
                                       atol=1e-12, err_msg=key)


def test_select_k_builds_each_index_once(monkeypatch):
    schema = flat_schema(n_event=5)
    train, dev = split_corpus(schema, seed=6)
    calls = []
    original = learning.build_obs

    def counted(*args, **kwargs):
        calls.append(len(args[0]))
        return original(*args, **kwargs)

    for module in (selection, learning):
        monkeypatch.setattr(module, "build_obs", counted)
    select_k(train, dev, "event", CANDIDATES, schema, config(False))
    assert sorted(calls) == sorted([len(train), len(dev)])


def nan_restart(monkeypatch, k, restart, prop, seed):
    """Make selection's initial parameters of one restart of candidate k
    carry a NaN in prop's mu."""
    original = selection.init_params

    def init(*args, **kwargs):
        params = original(*args, **kwargs)
        if kwargs["seed"] == seed + 104729 * k + restart:
            params.props[prop].mu[0] = np.nan
        return params

    monkeypatch.setattr(selection, "init_params", init)


def test_non_finite_objective_names_the_fit(monkeypatch):
    schema = flat_schema(n_event=5)
    train, dev = split_corpus(schema, seed=7)
    sc = config(False)
    nan_restart(monkeypatch, 3, 1, "event_prop2", sc.seed)
    with pytest.raises(ArithmeticError) as exc:
        select_k(train, dev, "event", CANDIDATES, schema, sc)
    message = str(exc.value)
    assert "candidate K=3, restart 1" in message
    assert all(spec.name in message for spec in schema.group("event"))


def test_non_finite_objective_is_compute_error(tmp_path, monkeypatch,
                                               capsys):
    data = tmp_path / "data"
    assert run(["synth", "--out", str(data), "--docs", "8", "--seed", "2",
                "--schema", "flat", "--annotators", "3",
                "--annotators-per-item", "2", "--k-event", "2",
                "--k-entity", "2", "--k-role", "2", "--k-rel", "2"]) == 0
    nan_restart(monkeypatch, 2, 0, "event_prop0", 0)
    capsys.readouterr()
    assert run(["select-k", "--corpus", str(data / "corpus.jsonl"),
                "--schema", "flat", "--out", str(tmp_path / "sel"),
                "--kind", "event", "--candidates", "1,2,3",
                "--restarts", "2", "--mixture-em-iters", "2",
                "--m-step-iters", "3"]) == EXIT_COMPUTE
    err = capsys.readouterr().err
    assert err.startswith("compute error: non-finite M-step objective in "
                          "candidate K=2, restart 0 (properties: [")
    assert "event_prop0" in err and "Traceback" not in err
