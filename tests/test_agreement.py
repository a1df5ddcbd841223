"""Krippendorff's alpha against a definitional token-pair oracle, plus
thresholded curves and panel comparisons."""

import itertools

import numpy as np
import pytest

from evstruct.agreement import (
    AgreementError, ReliabilityMatrix, UNDEFINED, bootstrap_alpha_ci,
    krippendorff_alpha, krippendorff_alpha_strict, pairwise_alpha_vs_panel,
    thresholded_alpha, UndefinedAgreementError,
)


def oracle_alpha(by_item, metric):
    """Definitional alpha: enumerate ordered response pairs within items
    for observed disagreement, and across the pooled values for expected
    disagreement."""
    pairable = {i: r for i, r in by_item.items() if len(r) >= 2}
    values = sorted({v for r in pairable.values() for v in r})
    pooled = [v for r in pairable.values() for v in r]
    n = len(pooled)
    counts = {v: pooled.count(v) for v in values}

    if metric == "nominal":
        def dist(a, b):
            return 0.0 if a == b else 1.0
    else:
        levels = sorted(values)

        def dist(a, b):
            if a == b:
                return 0.0
            lo, hi = min(a, b), max(a, b)
            total = counts[lo] / 2 + counts[hi] / 2
            total += sum(counts[v] for v in levels if lo < v < hi)
            return total ** 2

    num = den = 0.0
    for resp in pairable.values():
        m = len(resp)
        for a, b in itertools.permutations(resp, 2):
            num += dist(a, b) / (m - 1)
    d_o = num / n
    d_e = sum(counts[a] * counts[b] * dist(a, b)
              for a in values for b in values) / (n * (n - 1))
    if d_e == 0:
        return None
    return 1.0 - d_o / d_e


def from_items(by_item, confidences=None):
    table = ReliabilityMatrix()
    for item, resp in by_item.items():
        for i, v in enumerate(resp):
            conf = None
            if confidences is not None:
                conf = confidences[item][i]
            table.add(item, f"a{i}", v, conf)
    return table


def test_perfect_agreement():
    table = from_items({"i1": ["A", "A"], "i2": ["B", "B"]})
    assert krippendorff_alpha(table, "nominal") == 1.0


def test_swapped_pair_example():
    # two items, responses (A,B) and (B,A): every pairing disagrees
    table = from_items({"i1": ["A", "B"], "i2": ["B", "A"]})
    got = krippendorff_alpha(table, "nominal")
    assert got == pytest.approx(oracle_alpha(
        {"i1": ["A", "B"], "i2": ["B", "A"]}, "nominal"), abs=1e-12)
    assert got == pytest.approx(-0.5)


def test_random_data_alpha_near_zero():
    rng = np.random.default_rng(0)
    by_item = {f"i{k}": [int(rng.integers(0, 3)) for _ in range(3)]
               for k in range(600)}
    table = from_items(by_item)
    assert abs(krippendorff_alpha(table, "nominal")) < 0.05


@pytest.mark.parametrize("metric", ["nominal", "ordinal"])
def test_oracle_equivalence_random_matrices(metric):
    rng = np.random.default_rng(42)
    for _ in range(50):
        n_items = int(rng.integers(2, 8))
        n_ann = int(rng.integers(2, 5))
        n_vals = int(rng.integers(2, 5))
        by_item = {}
        for i in range(n_items):
            m = int(rng.integers(2, n_ann + 1))
            by_item[f"i{i}"] = [int(rng.integers(1, n_vals + 1))
                                for _ in range(m)]
        expect = oracle_alpha(by_item, metric)
        got = krippendorff_alpha(from_items(by_item), metric)
        if expect is None:
            assert got in (UNDEFINED, 1.0)
        else:
            assert got == pytest.approx(expect, abs=1e-10)


def test_nominal_relabeling_invariance():
    by_item = {"i1": ["x", "y"], "i2": ["x", "x"], "i3": ["y", "z"],
               "i4": ["z", "z"]}
    relabeled = {k: [{"x": "q", "y": "r", "z": "s"}[v] for v in resp]
                 for k, resp in by_item.items()}
    assert krippendorff_alpha(from_items(by_item)) == pytest.approx(
        krippendorff_alpha(from_items(relabeled)), abs=1e-12)


def test_binary_nominal_equals_ordinal():
    rng = np.random.default_rng(5)
    by_item = {f"i{k}": [int(rng.integers(0, 2)) for _ in range(3)]
               for k in range(20)}
    table = from_items(by_item)
    assert krippendorff_alpha(table, "nominal") == pytest.approx(
        krippendorff_alpha(table, "ordinal"), abs=1e-12)


def test_single_response_items_excluded():
    table = from_items({"i1": ["A"], "i2": ["B"]})
    assert krippendorff_alpha(table) is UNDEFINED
    with pytest.raises(UndefinedAgreementError):
        krippendorff_alpha_strict(table)


def test_duplicate_annotator_keeps_sign():
    base = {"i1": [1, 1], "i2": [2, 2], "i3": [1, 2]}
    dup = {k: resp + [resp[0]] for k, resp in base.items()}
    a = krippendorff_alpha(from_items(base))
    b = krippendorff_alpha(from_items(dup))
    assert np.sign(a) == np.sign(b)


class TestThresholded:

    def make(self):
        # low-confidence cells are noise, high-confidence agree
        by_item, confs = {}, {}
        rng = np.random.default_rng(1)
        for k in range(30):
            good = k % 2
            by_item[f"i{k}"] = [good, good, int(rng.integers(0, 2))]
            confs[f"i{k}"] = [0.9, 0.8, 0.1]
        return from_items(by_item, confs)

    def test_zero_threshold_keeps_all(self):
        table = self.make()
        curve = thresholded_alpha(table, [0.0, 0.5], "nominal")
        assert curve[0].alpha == pytest.approx(
            krippendorff_alpha(table, "nominal"))

    def test_noise_filtering_raises_alpha(self):
        curve = thresholded_alpha(self.make(), [0.0, 0.5], "nominal")
        assert curve[1].alpha == 1.0
        assert curve[1].alpha > curve[0].alpha

    def test_above_all_confidences_undefined(self):
        curve = thresholded_alpha(self.make(), [0.95], "nominal")
        assert curve[0].alpha is UNDEFINED
        assert curve[0].coverage == 0.0

    def test_coverage_rule(self):
        # dropping the third annotator leaves 2 responses per item, fine;
        # but a threshold that strips whole items flips to undefined
        by_item = {f"i{k}": [0, 0] for k in range(9)}
        confs = {f"i{k}": ([0.9, 0.9] if k < 2 else [0.2, 0.2])
                 for k in range(9)}
        table = from_items(by_item, confs)
        curve = thresholded_alpha(table, [0.5], "nominal")
        # only 2/9 items survive: below the 1/3 coverage rule
        assert curve[0].alpha is UNDEFINED
        assert curve[0].coverage == pytest.approx(2 / 9)

    def test_threshold_validation(self):
        with pytest.raises(AgreementError):
            thresholded_alpha(self.make(), [0.5, 0.2], "nominal")
        with pytest.raises(AgreementError):
            thresholded_alpha(self.make(), [1.2], "nominal")


class TestPanel:

    def test_identical_individual_unanimous_panel(self):
        panel = ReliabilityMatrix()
        for item in ("i1", "i2"):
            v = "A" if item == "i1" else "B"
            for ann in ("p1", "p2"):
                panel.add(item, ann, v)
        ind = ReliabilityMatrix()
        ind.add("i1", "x", "A")
        ind.add("i2", "x", "B")
        result = pairwise_alpha_vs_panel(panel, {"x": ind})
        assert result["x"] == 1.0

    def test_contrarian_individual_lowers_alpha(self):
        panel = ReliabilityMatrix()
        for k in range(6):
            v = k % 2
            for ann in ("p1", "p2"):
                panel.add(f"i{k}", ann, v)
        contrarian = ReliabilityMatrix()
        for k in range(6):
            contrarian.add(f"i{k}", "x", 1 - (k % 2))
        result = pairwise_alpha_vs_panel(panel, {"x": contrarian})
        assert result["x"] < krippendorff_alpha(panel)

    def test_empty_individuals(self):
        panel = from_items({"i1": [0, 1], "i2": [1, 1]})
        assert pairwise_alpha_vs_panel(panel, {}) == {}

    def test_overlapping_annotator_rejected(self):
        panel = from_items({"i1": [0, 1]})
        bad = ReliabilityMatrix()
        bad.add("i1", "a0", 1)
        with pytest.raises(AgreementError):
            pairwise_alpha_vs_panel(panel, {"bad": bad})

    def test_one_annotator_panel_rejected(self):
        panel = from_items({"i1": [0], "i2": [1]})
        ind = ReliabilityMatrix()
        ind.add("i1", "x", 0)
        with pytest.raises(AgreementError, match="at least two annotators"):
            pairwise_alpha_vs_panel(panel, {"x": ind})


def test_bootstrap_interval_contains_point():
    rng = np.random.default_rng(9)
    by_item = {f"i{k}": [int(rng.integers(0, 2)) for _ in range(3)]
               for k in range(40)}
    # inject real agreement so alpha is stable
    for k in range(0, 40, 2):
        by_item[f"i{k}"] = [1, 1, 1]
    table = from_items(by_item)
    point = krippendorff_alpha(table)
    lo, hi, n_def = bootstrap_alpha_ci(table, n_boot=1000, seed=2)
    assert lo <= point <= hi
    assert n_def > 900


def test_unknown_metric_rejected_before_any_work():
    # "ordinal-ranks" computed the interval metric under an ordinal name
    table = from_items({"i1": [1, 2], "i2": [2, 2]}, {"i1": [0.5, 0.5],
                                                      "i2": [0.5, 0.5]})
    for call in (lambda m: krippendorff_alpha(table, m),
                 lambda m: thresholded_alpha(table, [0.9], m),
                 lambda m: pairwise_alpha_vs_panel(table, {}, m),
                 lambda m: bootstrap_alpha_ci(table, m, n_boot=10)):
        with pytest.raises(AgreementError, match="unknown metric"):
            call("ordinal-ranks")


@pytest.mark.parametrize("thresholds, message", [
    ([float("nan")], "thresholds must lie in"),
    ([0.2, float("nan"), 0.1], "thresholds must be strictly increasing"),
    ([0.1, float("nan")], "thresholds must be strictly increasing"),
])
def test_nan_threshold_rejected(thresholds, message):
    table = TestThresholded().make()
    with pytest.raises(AgreementError, match=message):
        thresholded_alpha(table, thresholds, "nominal")


def reference_bootstrap(data, metric="nominal", n_boot=1000, level=0.95,
                        seed=0):
    """bootstrap_alpha_ci as it was: one rebuilt table per resample, each
    drawn item copied under a fresh item id."""
    items = data.items()
    by_item = {}
    for (item, ann), value in data.responses.items():
        by_item.setdefault(item, []).append((ann, value))
    rng = np.random.default_rng(seed)
    stats = []
    for _ in range(n_boot):
        pick = rng.choice(len(items), size=len(items), replace=True)
        resampled = ReliabilityMatrix()
        for copy_i, item_i in enumerate(pick):
            for ann, value in by_item[items[item_i]]:
                resampled.add(f"item{copy_i}", ann, value)
        alpha = krippendorff_alpha(resampled, metric)
        if alpha is not UNDEFINED:
            stats.append(alpha)
    if not stats:
        raise UndefinedAgreementError("alpha undefined in every resample")
    tail = 100.0 * (1.0 - level) / 2.0
    lo, hi = np.percentile(stats, [tail, 100.0 - tail])
    return float(lo), float(hi), len(stats)


def _random_items(seed, n_items, max_responses, values):
    rng = np.random.default_rng(seed)
    return {f"i{k}": [values[j] for j in rng.integers(
                0, len(values), size=int(rng.integers(1, max_responses + 1)))]
            for k in range(n_items)}


BOOTSTRAP_TABLES = {
    # items with a single response carry values no pair sees
    "single-response-items": ({**_random_items(1, 12, 3, [0, 1, 2]),
                               "solo": [7]}, "nominal"),
    "strings": (_random_items(2, 15, 4, ["x", "y", "z"]), "nominal"),
    "ordinal-levels": (_random_items(3, 20, 4, [1, 2, 3, 4, 5]), "ordinal"),
    "ordinal-single-responses": (_random_items(4, 10, 2, [1, 3, 4]),
                                 "ordinal"),
    # a third of the resamples see one value only, a few no pair at all
    "one-value-resamples": ({"i0": [1, 1], "i1": [1, 1], "i2": [2, 1],
                             "i3": [3], "i4": [2]}, "ordinal"),
}


@pytest.mark.parametrize("name", sorted(BOOTSTRAP_TABLES))
def test_bootstrap_matches_per_resample_reference(name):
    by_item, metric = BOOTSTRAP_TABLES[name]
    table = from_items(by_item)
    for seed in range(3):
        lo, hi, n_def = bootstrap_alpha_ci(table, metric, n_boot=300,
                                           seed=seed)
        ref_lo, ref_hi, ref_def = reference_bootstrap(table, metric,
                                                      n_boot=300, seed=seed)
        assert n_def == ref_def
        assert abs(lo - ref_lo) <= 1e-12 and abs(hi - ref_hi) <= 1e-12
