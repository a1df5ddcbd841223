"""Inter-annotator agreement: Krippendorff's alpha with nominal and
ordinal distance metrics, confidence-thresholded agreement curves, and
bootstrap intervals over items."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

NOMINAL = "nominal"
ORDINAL_METRIC = "ordinal"
# alternative ordinal distance: squared difference of mean coincidence ranks
ORDINAL_RANKS = "ordinal-ranks"

METRICS = (NOMINAL, ORDINAL_METRIC, ORDINAL_RANKS)

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

    def by_item(self) -> dict[str, list]:
        out: dict[str, list] = {}
        for (item, _), value in sorted(self.responses.items()):
            out.setdefault(item, []).append(value)
        return out

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


def _coincidences(by_item: dict[str, list]):
    """Coincidence matrix over observed values; returns (values, matrix)."""
    values = sorted({v for resp in by_item.values() for v in resp},
                    key=lambda v: (str(type(v)), v))
    index = {v: i for i, v in enumerate(values)}
    n = len(values)
    co = np.zeros((n, n))
    for resp in by_item.values():
        m = len(resp)
        if m < 2:
            continue
        for i, a in enumerate(resp):
            for j, b in enumerate(resp):
                if i != j:
                    co[index[a], index[b]] += 1.0 / (m - 1)
    return values, co


def _distance_matrix(values, metric: str, margins: np.ndarray) -> np.ndarray:
    n = len(values)
    if metric == NOMINAL:
        return 1.0 - np.eye(n)
    if metric == ORDINAL_METRIC:
        # squared cumulative-margin distance: half of each endpoint's
        # margin plus every full margin strictly between them
        levels = np.asarray(values, dtype=float)
        order = np.argsort(levels)
        d = np.zeros((n, n))
        for ai in range(n):
            for bi in range(ai + 1, n):
                a, b = order[ai], order[bi]
                between = margins[order[ai + 1:bi]].sum()
                dist = (margins[a] + margins[b]) / 2.0 + between
                d[a, b] = d[b, a] = dist ** 2
        return d
    if metric == ORDINAL_RANKS:
        levels = np.asarray(values, dtype=float)
        d = (levels[:, None] - levels[None, :]) ** 2
        return d
    raise AgreementError(f"unknown metric {metric!r}")


def krippendorff_alpha(data: ReliabilityMatrix, metric: str = NOMINAL):
    """alpha = 1 - D_o / D_e via the coincidence-matrix computation.

    Returns UNDEFINED (None) when there are not enough pairable responses
    or no disagreement is expected at all.
    """
    if metric not in METRICS:
        raise AgreementError(f"unknown metric {metric!r}")
    by_item = data.by_item()
    pairable = {i: r for i, r in by_item.items() if len(r) >= 2}
    if len(pairable) < 1:
        return UNDEFINED
    values, co = _coincidences(pairable)
    total = co.sum()
    if total <= 1 or len(values) < 2:
        # a single value observed: expected disagreement is zero
        if len(values) < 2:
            return UNDEFINED if total <= 0 else 1.0
        return UNDEFINED
    margins = co.sum(axis=1)
    dmat = _distance_matrix(values, metric, margins)
    d_o = float((co * dmat).sum())
    d_e = float((margins[:, None] * margins[None, :] * dmat).sum()
                / (total - 1.0))
    if d_e <= 0.0:
        return UNDEFINED
    return 1.0 - d_o / d_e


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
    thresholds = list(thresholds)
    if any(b <= a for a, b in zip(thresholds, thresholds[1:])):
        raise AgreementError("thresholds must be strictly increasing")
    if any(t < 0.0 or t >= 1.0 for t in thresholds):
        raise AgreementError("thresholds must lie in [0, 1)")
    n_items = len(data.items())
    curve = []
    for t in thresholds:
        kept = data.filtered(t)
        retained = sum(1 for r in kept.by_item().values() if len(r) >= 2)
        coverage = retained / n_items if n_items else 0.0
        if coverage < MIN_ITEM_COVERAGE:
            alpha = UNDEFINED
        else:
            alpha = krippendorff_alpha(kept, metric)
        curve.append(ThresholdPoint(t, alpha, coverage))
    return curve


def pairwise_alpha_vs_panel(panel: ReliabilityMatrix,
                            individuals: dict[str, ReliabilityMatrix],
                            metric: str = NOMINAL) -> dict[str, object]:
    """Per-individual alpha over the panel's responses plus that
    individual's own responses only."""
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
        out[name] = krippendorff_alpha(merged, metric)
    return out


def bootstrap_alpha_ci(data: ReliabilityMatrix, metric: str = NOMINAL,
                       n_boot: int = 1000, level: float = 0.95,
                       seed: int = 0):
    """Percentile interval of alpha under item resampling.  Resamples in
    which alpha is undefined are dropped; returns (lo, hi, n_defined)."""
    items = data.items()
    by_item: dict[str, list[tuple[str, object, Optional[float]]]] = {}
    for (item, ann), value in data.responses.items():
        by_item.setdefault(item, []).append(
            (ann, value, data.confidences.get((item, ann))))
    rng = np.random.default_rng(seed)
    stats = []
    for _ in range(n_boot):
        pick = rng.choice(len(items), size=len(items), replace=True)
        resampled = ReliabilityMatrix()
        for copy_i, item_i in enumerate(pick):
            for ann, value, conf in by_item[items[item_i]]:
                resampled.add(f"item{copy_i}", ann, value, conf)
        alpha = krippendorff_alpha(resampled, metric)
        if alpha is not UNDEFINED:
            stats.append(alpha)
    if not stats:
        raise UndefinedAgreementError("alpha undefined in every resample")
    tail = 100.0 * (1.0 - level) / 2.0
    lo, hi = np.percentile(stats, [tail, 100.0 - tail])
    return float(lo), float(hi), len(stats)
