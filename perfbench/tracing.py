"""Spans around the public functions of each evstruct module.

The tracer replaces each function under the name its caller looks it up
by (``evstruct.learning.build_graph``, not only
``evstruct.factorgraph.build_graph``), records one span per call, and puts
every original back on ``uninstall``.  Spans stay in memory; the worker
writes them out when its run ends.

Nothing here changes what the wrapped function computes: the wrapper
passes arguments and results through untouched, and the counts it reads
from a result are taken after the span's end time.
"""

from __future__ import annotations

import functools
import importlib
from time import perf_counter

# (owner the caller looks the name up in, attribute, span name)
TARGETS = (
    ("evstruct.cli", "run", "cli.run"),
    ("evstruct.cli", "load_corpus", "corpus.load_corpus"),
    ("evstruct.cli", "prepare_corpus", "corpus.prepare_corpus"),
    ("evstruct.cli", "save_corpus", "corpus.save_corpus"),
    ("evstruct.cli", "fit", "learning.fit"),
    ("evstruct.cli", "e_step", "learning.e_step"),
    ("evstruct.cli", "select_k", "selection.select_k"),
    ("evstruct.cli", "load_params", "params.load_params"),
    ("evstruct.cli", "save_params", "params.save_params"),
    ("evstruct.learning", "e_step", "learning.e_step"),
    ("evstruct.learning", "m_step", "learning.m_step"),
    ("evstruct.learning", "update_priors", "learning.update_priors"),
    ("evstruct.learning", "posterior_matrices", "learning.posterior_matrices"),
    ("evstruct.learning", "optimize_likelihoods",
     "learning.optimize_likelihoods"),
    ("evstruct.learning", "build_obs", "learning.build_obs"),
    ("evstruct.learning", "build_graph", "factorgraph.build_graph"),
    ("evstruct.learning", "loopy_bp", "factorgraph.loopy_bp"),
    ("evstruct.learning", "init_params", "params.init_params"),
    ("evstruct.learning:Adam", "step", "learning.adam_step"),
    ("evstruct.factorgraph", "annotation_loglik_types",
     "params.annotation_loglik_types"),
    ("evstruct.selection", "fit_mixture", "selection.fit_mixture"),
    ("evstruct.selection", "mixture_dev_evidence",
     "selection.mixture_dev_evidence"),
    ("evstruct.selection", "bootstrap_diff_ci", "selection.bootstrap_diff_ci"),
    ("evstruct.selection", "build_obs", "learning.build_obs"),
    ("evstruct.selection", "item_logliks", "learning.item_logliks"),
    ("evstruct.selection", "optimize_likelihoods",
     "learning.optimize_likelihoods"),
    ("evstruct.selection", "init_params", "params.init_params"),
)


def _factor_entries(graph):
    return {"factor_entries": sum(int(f.logpot.size) for f in graph.factors)}


def _bp_counts(post):
    return {"bp_iterations": int(post.iterations),
            "bp_unconverged": 0 if post.converged else 1}


def _annotations(docs):
    return {"annotations": sum(len(doc.annotations) for doc in docs)}


def _em_iterations(result):
    return {"em_iterations": len(result.train_evidence)}


# counts read from the object a traced call returns
COUNTS = {
    "factorgraph.build_graph": _factor_entries,
    "factorgraph.loopy_bp": _bp_counts,
    "corpus.load_corpus": _annotations,
    "learning.fit": _em_iterations,
}


def _owner(path):
    module, _, attr = path.partition(":")
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    return getattr(owner, attr, None) if attr else owner


class Tracer:
    """Records (run id, span id, parent id, name, start, end, counts)."""

    def __init__(self):
        self.spans = []
        self.run_id = None
        self.missing = []
        self._stack = []
        self._patched = []

    def install(self, targets=TARGETS):
        for owner_path, attr, name in targets:
            owner = _owner(owner_path)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                # a later version may drop a function from the call path;
                # its metrics then read zero instead of vanishing
                self.missing.append(f"{owner_path}.{attr}")
                continue
            setattr(owner, attr, self._wrap(name, original))
            self._patched.append((owner, attr, original))

    def uninstall(self) -> bool:
        """Restore every wrapped name; True when all originals are back."""
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        restored = all(getattr(owner, attr) is original
                       for owner, attr, original in self._patched)
        self._patched = []
        return restored

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[span_id] = (self.run_id, span_id, parent, name, start,
                                  end, None)
            if count is not None:
                spans[span_id] = spans[span_id][:6] + (count(result),)
            return result

        return traced


def summarize(spans) -> dict:
    """Per span name: total seconds, self seconds, calls and summed counts.

    Self time is a span's duration minus the durations of its direct
    children; spans of one name never nest, so totals do not double count.
    """
    child_time = {}
    for _, _, parent, _, start, end, _ in spans:
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    out = {}
    for _, span_id, _, name, start, end, counts in spans:
        agg = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        agg["s"] += end - start
        agg["self_s"] += end - start - child_time.get(span_id, 0.0)
        agg["calls"] += 1
        for key, value in (counts or {}).items():
            agg[key] = agg.get(key, 0) + value
    return out
