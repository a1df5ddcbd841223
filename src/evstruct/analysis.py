"""Post-fit analysis: per-type property summaries, fit-vs-fit confusion
matrices, posterior entropy statistics, and posterior feature export."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import likelihoods as lk
from .corpus import DocumentGraph, edge_id
from .factorgraph import PosteriorSet
from .params import HurdleParams, ModelParams
from .schema import BINARY, GROUPS, Schema

NA = "n/a"

# a conditional property "generally does not apply" to a type when the
# fitted gate probability of the revealing branch falls below this
DEFAULT_NA_THRESHOLD = 0.25


class AnalysisError(ValueError):
    pass


@dataclass
class TypeSummary:
    """Per classification: property -> per-type cell values.

    Cells are probabilities at zero annotator offset; conditional
    properties show NA where they rarely apply.
    """
    tables: dict[str, dict[str, list]]
    na_threshold: float

    def long_rows(self):
        """(group, property, type index, cell) rows for plotting."""
        for group in GROUPS:
            for prop, cells in sorted(self.tables.get(group, {}).items()):
                for t, cell in enumerate(cells):
                    yield group, prop, t, cell


def summarize_types(params: ModelParams, schema: Schema,
                    na_threshold: float = DEFAULT_NA_THRESHOLD) -> TypeSummary:
    """Binary-property probabilities per type, gated by applicability."""
    for spec in schema:
        if spec.name not in params.props:
            raise AnalysisError(
                f"checkpoint lacks parameters for property {spec.name!r}")
    tables: dict[str, dict[str, list]] = {g: {} for g in GROUPS}
    for spec in schema:
        if spec.response != BINARY:
            continue
        pp = params.props[spec.name]
        base = pp.base if isinstance(pp, HurdleParams) else pp
        probs = lk.sigmoid(np.asarray(base.mu, dtype=float))
        cells = []
        for t, p in enumerate(probs):
            if isinstance(pp, HurdleParams):
                gate_p = float(lk.sigmoid(pp.gate_mu[t]))
                if gate_p < na_threshold:
                    cells.append(NA)
                    continue
            cells.append(float(p))
        tables[spec.group][spec.name] = cells
    return TypeSummary(tables, na_threshold)


def _collect_marginals(posteriors: list[PosteriorSet], kind: str):
    out = {}
    for doc_i, post in enumerate(posteriors):
        for var, p in post.marginals.items():
            if post.kinds[var] == kind:
                out[(doc_i, var)] = p
    return out


def greedy_alignment(overlap: np.ndarray) -> np.ndarray:
    """Permutation aligning columns to rows by repeatedly taking the
    largest remaining overlap entry."""
    k = overlap.shape[0]
    perm = np.full(k, -1, dtype=int)
    work = overlap.copy()
    for _ in range(k):
        i, j = np.unravel_index(np.argmax(work), work.shape)
        perm[i] = j
        work[i, :] = -np.inf
        work[:, j] = -np.inf
    return perm


def confusion(posteriors_a: list[PosteriorSet],
              posteriors_b: list[PosteriorSet], kind: str,
              align: bool = True) -> np.ndarray:
    """Row-normalized expected co-assignment of one classification's
    elements between two fits; columns are aligned to rows greedily."""
    ma = _collect_marginals(posteriors_a, kind)
    mb = _collect_marginals(posteriors_b, kind)
    if set(ma) != set(mb):
        only_a = sorted(set(ma) - set(mb))[:3]
        only_b = sorted(set(mb) - set(ma))[:3]
        raise AnalysisError(
            f"posterior sets cover different {kind} elements "
            f"(e.g. {only_a} vs {only_b})")
    if not ma:
        raise AnalysisError(f"no {kind} elements in the posterior sets")
    ka = len(next(iter(ma.values())))
    kb = len(next(iter(mb.values())))
    if ka != kb:
        raise AnalysisError(f"type counts differ: {ka} vs {kb}")
    mass = np.zeros((ka, kb))
    for key, pa in ma.items():
        mass += np.outer(pa, mb[key])
    if align:
        mass = mass[:, greedy_alignment(mass)]
    rows = mass.sum(axis=1, keepdims=True)
    return mass / np.where(rows > 0, rows, 1.0)


def entropy_stats(posteriors: list[PosteriorSet],
                  kind: str) -> tuple[float, float]:
    """(mean, median) normalized posterior entropy for one classification."""
    ents = []
    for p in _collect_marginals(posteriors, kind).values():
        k = len(p)
        if k < 2:
            ents.append(0.0)
            continue
        p = np.clip(p, 1e-300, 1.0)
        ents.append(float(-(p * np.log(p)).sum() / np.log(k)))
    if not ents:
        raise AnalysisError(f"no {kind} elements in the posterior sets")
    return float(np.mean(ents)), float(np.median(ents))


@dataclass
class FeatureTable:
    header: list[str]
    rows: list[tuple[str, str, np.ndarray]]   # (element id, row kind, vector)

    @property
    def width(self) -> int:
        return len(self.header)


def export_features(docs: list[DocumentGraph],
                    posteriors: list[PosteriorSet]) -> FeatureTable:
    """Posterior feature vectors for downstream classifiers.

    Argument rows concatenate the governing predicate's event posterior,
    the argument's role and entity posteriors, and max/mean pooling of the
    predicate's *other* arguments' role and entity posteriors.  Predicate
    rows pool over all of that predicate's arguments.  Empty pools are
    zero-filled and flagged in the final indicator column.
    """
    if len(docs) != len(posteriors):
        raise AnalysisError("document and posterior counts differ")

    def marg(post, var):
        if var not in post.marginals:
            raise AnalysisError(f"missing posterior for element {var!r}")
        return np.asarray(post.marginals[var], dtype=float)

    # each kind's type count, from its first variable in any document
    counts = {}
    for post in posteriors:
        for var, kind in post.kinds.items():
            if kind in ("event", "role", "entity") and kind not in counts:
                counts[kind] = len(marg(post, var))
    if len(counts) < 3:
        raise AnalysisError("posteriors lack event, role, or entity variables")
    k_event, k_role, k_entity = counts["event"], counts["role"], counts["entity"]

    header = ([f"event{t}" for t in range(k_event)]
              + [f"role{t}" for t in range(k_role)]
              + [f"entity{t}" for t in range(k_entity)]
              + [f"max_role{t}" for t in range(k_role)]
              + [f"max_entity{t}" for t in range(k_entity)]
              + [f"mean_role{t}" for t in range(k_role)]
              + [f"mean_entity{t}" for t in range(k_entity)]
              + ["empty_pool"])

    def pooled(blocks):
        if not blocks:
            z = np.zeros(k_role + k_entity)
            return z, z, 1.0
        stack = np.stack(blocks)
        return stack.max(axis=0), stack.mean(axis=0), 0.0

    rows = []
    for doc, post in zip(docs, posteriors):
        for sent in doc.sentences:
            args_of = {p.node_id: [] for p in sent.predicates}
            for pred, arg in sent.edges:
                args_of[pred].append(arg)
            for pred in sent.predicates:
                pid = pred.node_id
                ev = marg(post, pid)
                blocks = {
                    arg: np.concatenate([marg(post, edge_id(pid, arg)),
                                         marg(post, arg)])
                    for arg in args_of[pid]
                }
                for arg in args_of[pid]:
                    own = blocks[arg]
                    mx, mn, empty = pooled(
                        [blocks[o] for o in args_of[pid] if o != arg])
                    rows.append((arg, "argument", np.concatenate(
                        [ev, own, mx, mn, [empty]])))
                mx, mn, empty = pooled(list(blocks.values()))
                rows.append((pid, "predicate", np.concatenate(
                    [ev, np.zeros(k_role + k_entity), mx, mn, [empty]])))
    return FeatureTable(header, rows)
