"""Inter-annotator agreement: Krippendorff's alpha with nominal and
ordinal distance metrics, confidence-thresholded agreement curves, and
bootstrap intervals over items."""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import compress
from typing import Optional

import numpy as np

NOMINAL = "nominal"
ORDINAL_METRIC = "ordinal"

METRICS = (NOMINAL, ORDINAL_METRIC)

LEVEL = 0.95  # coverage of every bootstrap interval

# fraction of items that must keep >= 2 responses for a thresholded
# alpha to count as defined
MIN_ITEM_COVERAGE = 1.0 / 3.0

UNDEFINED = None  # alpha value when too few pairable responses remain


class AgreementError(ValueError):
    pass


class UndefinedAgreementError(AgreementError):
    pass


@dataclass
class ReliabilityMatrix:
    """Sparse items x annotators response table in long form.

    Responses are nominal category labels or ordinal integer levels;
    confidences are optional ridit scores in [0, 1].
    """
    responses: dict[tuple[str, str], object] = field(default_factory=dict)
    confidences: dict[tuple[str, str], float] = field(default_factory=dict)

    def add(self, item: str, annotator: str, value,
            confidence: Optional[float] = None) -> None:
        self.responses[(item, annotator)] = value
        if confidence is not None:
            self.confidences[(item, annotator)] = float(confidence)

    def items(self) -> list[str]:
        return sorted({i for i, _ in self.responses})

    def annotators(self) -> list[str]:
        return sorted({a for _, a in self.responses})

    def filtered(self, threshold: float) -> "ReliabilityMatrix":
        """Copy without cells whose confidence is <= threshold."""
        out = ReliabilityMatrix()
        for key, value in self.responses.items():
            conf = self.confidences.get(key)
            if conf is None:
                raise AgreementError(
                    f"cell {key} has no confidence score to threshold on")
            if conf > threshold:
                out.add(key[0], key[1], value, conf)
        return out


def _value_counts(table: ReliabilityMatrix):
    """(values, counts): the observed values in sorted order, and each
    item's count of each value, one row per item in sorted order."""
    items = table.items()
    values = sorted(set(table.responses.values()),
                    key=lambda v: (str(type(v)), v))
    row = {item: i for i, item in enumerate(items)}
    col = {v: j for j, v in enumerate(values)}
    counts = np.zeros((len(items), len(values)))
    for (item, _), value in table.responses.items():
        counts[row[item], col[value]] += 1.0
    return values, counts


def _alpha(values, counts: np.ndarray, metric: str, weights=1.0):
    """alpha from per-item value counts, each item counted weights times;
    items with fewer than two responses contribute nothing."""
    m = counts.sum(axis=1)
    weights = np.where(m >= 2, weights, 0.0)
    margins = weights @ counts
    seen = margins > 0
    if seen.sum() < 2:
        # a single value observed: expected disagreement is zero
        return 1.0 if seen.any() else UNDEFINED
    counts, margins = counts[:, seen], margins[seen]
    values = list(compress(values, seen))
    # each item adds n n^T / (m - 1) less its own pairings on the diagonal
    scaled = counts * (weights / np.maximum(m - 1.0, 1.0))[:, None]
    co = counts.T @ scaled - np.diag(scaled.sum(axis=0))
    if metric == NOMINAL:
        dmat = 1.0 - np.eye(len(values))
    else:
        # squared difference of mid-ranks: the pooled responses ranked in
        # level order, each value at the mean rank of its responses
        order = np.argsort(np.asarray(values, dtype=float))
        ranks = np.empty(len(values))
        ranks[order] = np.cumsum(margins[order]) - (margins[order] - 1.0) / 2
        dmat = (ranks[:, None] - ranks[None, :]) ** 2
    d_o = float((co * dmat).sum())
    d_e = float((margins[:, None] * margins[None, :] * dmat).sum()
                / (margins.sum() - 1.0))
    if d_e <= 0.0:
        return UNDEFINED
    return 1.0 - d_o / d_e


def _check_metric(metric: str) -> None:
    if metric not in METRICS:
        raise AgreementError(f"unknown metric {metric!r}")


def krippendorff_alpha(data: ReliabilityMatrix, metric: str = NOMINAL):
    """alpha = 1 - D_o / D_e via the coincidence-matrix computation.

    Returns UNDEFINED (None) when there are not enough pairable responses
    or no disagreement is expected at all.
    """
    _check_metric(metric)
    return _alpha(*_value_counts(data), metric)


def krippendorff_alpha_strict(data: ReliabilityMatrix,
                              metric: str = NOMINAL) -> float:
    """Like krippendorff_alpha but raises on undefined agreement."""
    alpha = krippendorff_alpha(data, metric)
    if alpha is UNDEFINED:
        raise UndefinedAgreementError("not enough pairable responses")
    return alpha


@dataclass
class ThresholdPoint:
    threshold: float
    alpha: Optional[float]
    coverage: float      # fraction of items retaining >= 2 responses


def thresholded_alpha(data: ReliabilityMatrix, thresholds,
                      metric: str = NOMINAL) -> list[ThresholdPoint]:
    """Agreement curve over increasing confidence thresholds.

    A point's alpha is undefined (None) when fewer than a third of the
    original items keep at least two responses after filtering.
    """
    _check_metric(metric)
    thresholds = list(thresholds)
    # written so that NaN fails both checks
    if not all(b > a for a, b in zip(thresholds, thresholds[1:])):
        raise AgreementError("thresholds must be strictly increasing")
    if not all(0.0 <= t < 1.0 for t in thresholds):
        raise AgreementError("thresholds must lie in [0, 1)")
    n_items = len(data.items())
    curve = []
    for t in thresholds:
        values, counts = _value_counts(data.filtered(t))
        retained = int((counts.sum(axis=1) >= 2).sum())
        coverage = retained / n_items if n_items else 0.0
        if coverage < MIN_ITEM_COVERAGE:
            alpha = UNDEFINED
        else:
            alpha = _alpha(values, counts, metric)
        curve.append(ThresholdPoint(t, alpha, coverage))
    return curve


def pairwise_alpha_vs_panel(panel: ReliabilityMatrix,
                            individuals: dict[str, ReliabilityMatrix],
                            metric: str = NOMINAL) -> dict[str, object]:
    """Per-individual alpha over the panel's responses plus that
    individual's own responses only."""
    _check_metric(metric)
    panel_annotators = set(panel.annotators())
    if len(panel_annotators) < 2:
        raise AgreementError("panel needs at least two annotators")
    out = {}
    for name, table in individuals.items():
        overlap = panel_annotators & set(table.annotators())
        if overlap:
            raise AgreementError(
                f"individual {name} shares annotators with the panel: "
                f"{sorted(overlap)}")
        merged = ReliabilityMatrix(dict(panel.responses),
                                   dict(panel.confidences))
        for (item, ann), value in table.responses.items():
            merged.add(item, ann, value, table.confidences.get((item, ann)))
        out[name] = _alpha(*_value_counts(merged), metric)
    return out


def bootstrap_alpha_ci(data: ReliabilityMatrix, metric: str = NOMINAL,
                       n_boot: int = 1000, seed: int = 0):
    """Percentile interval of alpha under item resampling.  Resamples in
    which alpha is undefined are dropped; returns (lo, hi, n_defined)."""
    _check_metric(metric)
    values, counts = _value_counts(data)
    n_items = len(counts)
    rng = np.random.default_rng(seed)
    stats = []
    for _ in range(n_boot):
        # a resample counts each item as often as it was drawn
        pick = rng.choice(n_items, size=n_items, replace=True)
        alpha = _alpha(values, counts, metric,
                       np.bincount(pick, minlength=n_items))
        if alpha is not UNDEFINED:
            stats.append(alpha)
    if not stats:
        raise UndefinedAgreementError("alpha undefined in every resample")
    tail = 100.0 * (1.0 - LEVEL) / 2.0
    lo, hi = np.percentile(stats, [tail, 100.0 - tail])
    return float(lo), float(hi), len(stats)
