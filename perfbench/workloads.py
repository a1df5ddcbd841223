"""The three workloads: how their inputs are generated from a seed, the one
CLI call each makes, and the checks and quality figures read from that
call's outputs against the generator's truth.

Sizes are scaled so that one call takes a few seconds on a 2-core
machine at the commit that defined the benchmark (select-k-flat, whose
cost is per-property overhead more than per-document work, takes longer).
Every type count stays well inside 2^(binary properties) of its group,
so any seed can draw distinct type signatures.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from evstruct.corpus import save_corpus
from evstruct.params import (
    TypeInventory, load_params, params_to_obj, save_params,
)
from evstruct.synth import SynthConfig, flat_schema, sample_corpus

# graded confidence: ridit scoring has non-trivial work to do
GRADED = [0.1, 0.15, 0.2, 0.25, 0.3]
INVENTORY = TypeInventory(k_event=3, k_entity=3, k_role=2, k_rel=2)
K_FLAGS = ["--k-event", "3", "--k-entity", "3", "--k-role", "2",
           "--k-rel", "2"]
CANDIDATES = [1, 2, 3, 4, 5]
DEV_FRACTION = 0.2
GENERATING_K = 3


def _fit_default(seed):
    cfg = SynthConfig(inventory=INVENTORY, n_docs=12, sentences_per_doc=4,
                      predicates_per_sentence=2, arguments_per_predicate=2,
                      eventive_prob=0.3, n_annotators=5, annotators_per_item=2,
                      window=2, seed=seed, separation=4.0,
                      confidence_levels=GRADED)
    call = ["fit", "--corpus", "{prepared}/corpus.jsonl", "--out", "{out}",
            "--em-iters", "1", "--m-step-iters", "50",
            "--dev-fraction", str(DEV_FRACTION)] + K_FLAGS
    return cfg, "default", call


def _select_k_flat(seed):
    # the acceptance-test recovery corpus, scaled down in documents
    cfg = SynthConfig(inventory=TypeInventory(GENERATING_K, 2, 2, 2),
                      schema=flat_schema(n_event=6), n_docs=40,
                      sentences_per_doc=3, n_annotators=3,
                      annotators_per_item=3, seed=seed, separation=4.0,
                      sigma_ann=0.1)
    call = ["select-k", "--corpus", "{prepared}/corpus.jsonl",
            "--out", "{out}", "--schema", "{inputs}/schema.json",
            "--kind", "event",
            "--candidates", ",".join(str(k) for k in CANDIDATES),
            "--restarts", "2", "--mixture-em-iters", "20",
            "--m-step-iters", "80", "--no-confidence-weighting"]
    return cfg, "{inputs}/schema.json", call


def _posteriors_dense(seed):
    cfg = SynthConfig(inventory=INVENTORY, n_docs=60, sentences_per_doc=2,
                      predicates_per_sentence=1, arguments_per_predicate=1,
                      eventive_prob=0.0, n_annotators=12,
                      annotators_per_item=10, window=2, seed=seed,
                      separation=4.0, confidence_levels=GRADED)
    call = ["posteriors", "--corpus", "{prepared}/corpus.jsonl",
            "--checkpoint", "{inputs}/checkpoint.json", "--out", "{out}"]
    return cfg, "default", call


WORKLOADS = {
    "fit-default": _fit_default,
    "select-k-flat": _select_k_flat,
    "posteriors-dense": _posteriors_dense,
}


class Inputs:
    """One workload's generated files, their sizes, and the truth."""

    def __init__(self, workload, seed, inputs_dir):
        cfg, schema_arg, call = WORKLOADS[workload](seed)
        os.makedirs(inputs_dir)
        docs, truth, params = sample_corpus(cfg)
        raw = os.path.join(inputs_dir, "corpus.jsonl")
        save_corpus(docs, raw)
        cfg.schema.save(os.path.join(inputs_dir, "schema.json"))
        save_params(params, os.path.join(inputs_dir, "checkpoint.json"))

        def fill(argv):
            return [a.replace("{inputs}", inputs_dir) for a in argv]

        self.workload = workload
        self.ingest = fill(["ingest", "--corpus", raw, "--out", "{prepared}",
                            "--schema", schema_arg])
        self.call = fill(call)
        # the checkpoint the call reads, if any
        self.checkpoint_in = (os.path.join(inputs_dir, "checkpoint.json")
                              if "--checkpoint" in call else None)
        self.truth = truth
        # the dev split evstruct fit makes (cli._split)
        self.n_dev = max(1, int(round(len(docs) * DEV_FRACTION)))
        self.event_ids = [[p.node_id for s in doc.sentences
                           for p in s.predicates] for doc in docs]
        self.doc_ids = [doc.doc_id for doc in docs]
        n_vars = sum(len(doc.element_kinds()) for doc in docs)
        annotated = sum(len(doc.annotations_by_element()) for doc in docs)
        self.sizes = {
            "documents": len(docs),
            "variables": n_vars,
            # one prior factor per variable, one likelihood factor per
            # annotated element
            "factors": n_vars + annotated,
            "annotations": sum(len(doc.annotations) for doc in docs),
            "corpus_bytes": os.path.getsize(raw),
        }


class CheckError(Exception):
    pass


def _load_json(out_dir, name):
    path = os.path.join(out_dir, name)
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise CheckError(f"{name}: {exc}") from exc


def _finite(values, what):
    for v in values:
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            raise CheckError(f"{what}: non-finite value {v!r}")


def check_calls(inputs: Inputs, calls) -> tuple[dict, list]:
    """Check every workload call of a run.  Returns the quality figures of
    the first call's outputs and, per call, None or the reason it failed.

    The worker keeps the outputs of the first call and of any call whose
    output digests differ from it; each distinct set of outputs is checked
    in full once.  A call whose outputs differ from the first call's fails,
    since the CLI is deterministic."""
    verdicts, errors = {}, []
    first = calls[0].get("digests") if calls else None
    for i, rec in enumerate(calls):
        error = rec["error"]
        if error is None:
            key = json.dumps(rec["digests"], sort_keys=True)
            if key not in verdicts:
                try:
                    verdicts[key] = (check_outputs(inputs, rec["out"]), None)
                except CheckError as exc:
                    verdicts[key] = ({}, str(exc))
            error = verdicts[key][1]
            if error is None and rec["digests"] != first:
                error = "outputs differ from the first call's"
        errors.append(None if error is None else f"call {i}: {error}")
    quality = verdicts.get(json.dumps(first, sort_keys=True), ({}, None))[0]
    return quality, errors


def check_outputs(inputs: Inputs, out_dir) -> dict:
    """Validate one call's outputs; returns the workload's quality figures.
    Raises CheckError on the first failed check."""
    _load_json(out_dir, "manifest.json")
    if inputs.workload == "fit-default":
        return _check_fit(inputs, out_dir)
    if inputs.workload == "select-k-flat":
        return _check_select_k(out_dir)
    return _check_posteriors(inputs, out_dir)


def _check_fit(inputs, out_dir):
    _load_json(out_dir, "checkpoint.json")
    path = os.path.join(out_dir, "checkpoint.json")
    try:
        again = json.dumps(params_to_obj(load_params(path)), sort_keys=True)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckError(f"checkpoint.json does not load: {exc}") from exc
    with open(path) as fh:
        if again + "\n" != fh.read():
            raise CheckError("checkpoint.json does not round-trip")
    trace = _load_json(out_dir, "trace.json")
    dev, train = trace.get("dev_evidence"), trace.get("train_evidence")
    if not dev or not train:
        raise CheckError("trace.json lacks evidence traces")
    _finite(dev + train, "trace.json evidence")
    return {"heldout_evidence": max(dev) / inputs.n_dev}


def _check_select_k(out_dir):
    sel = _load_json(out_dir, "selection.json")
    ev = sel.get("dev_evidence", {})
    if sorted(int(k) for k in ev) != CANDIDATES:
        raise CheckError("selection.json lacks a candidate's evidence")
    _finite(list(ev.values()), "selection.json dev_evidence")
    _finite([x for row in sel.get("intervals", []) for x in row],
            "selection.json intervals")
    chosen = sel.get("chosen_k")
    if chosen not in CANDIDATES:
        raise CheckError(f"chosen_k {chosen!r} is not a candidate")
    if not os.path.exists(os.path.join(out_dir, "selection.txt")):
        raise CheckError("selection.txt missing")
    return {"heldout_evidence": ev[str(chosen)],
            "k_correct": 1.0 if chosen == GENERATING_K else 0.0}


def _check_posteriors(inputs, out_dir):
    post = _load_json(out_dir, "posteriors.json")
    if sorted(post) != sorted(inputs.doc_ids):
        raise CheckError("posteriors.json does not cover every document")
    for doc_id, marginals in post.items():
        for var, probs in marginals.items():
            p = np.array([float(x) for x in probs])
            if not np.all(np.isfinite(p)) or np.any(p < 0) \
                    or abs(p.sum() - 1.0) > 1e-9:
                raise CheckError(f"{doc_id} {var}: bad marginal {probs}")
    truth, pred = [], []
    for doc_id, events in zip(inputs.doc_ids, inputs.event_ids):
        for e in events:
            truth.append(inputs.truth[doc_id][e])
            pred.append(int(np.argmax([float(x) for x in post[doc_id][e]])))
    return {"event_ari": adjusted_rand(truth, pred)}


def adjusted_rand(a, b) -> float:
    """Adjusted Rand index between two integer labelings."""
    a, b = np.asarray(a), np.asarray(b)
    cont = np.zeros((a.max() + 1, b.max() + 1))
    np.add.at(cont, (a, b), 1.0)

    def pairs(v):
        return float((v * (v - 1) / 2).sum())

    n = len(a)
    sum_ij = pairs(cont)
    sum_a, sum_b = pairs(cont.sum(axis=1)), pairs(cont.sum(axis=0))
    expected = sum_a * sum_b / (n * (n - 1) / 2)
    top = (sum_a + sum_b) / 2
    return 1.0 if top == expected else (sum_ij - expected) / (top - expected)
