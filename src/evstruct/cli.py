"""Batch command-line interface.

Every run writes its outputs plus a run manifest (resolved configuration,
input digests, seed, version, duration) into the output directory.
Configuration precedence: command-line flags > config file > built-in
defaults.  The config file path may also come from the EVSTRUCT_CONFIG
environment variable; everything else is flags-only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__
from . import analysis
from .agreement import (
    AgreementError, ReliabilityMatrix, bootstrap_alpha_ci, krippendorff_alpha,
    thresholded_alpha,
)
from .corpus import CorpusError, DocumentGraph, load_corpus, prepare_corpus, save_corpus
from .factorgraph import NumericalError
from .learning import FitConfig, e_step, fit
from .params import (
    CheckpointError, TypeInventory, check_params, load_params, save_params,
)
from .schema import Schema, SchemaError, default_schema
from .selection import SelectionConfig, select_k
from .synth import SynthConfig, corpus_stats, flat_schema, format_stats, sample_corpus

EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_COMPUTE = 4

CONFIG_ENV_VAR = "EVSTRUCT_CONFIG"


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _dump_json(obj, path) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2, default=float)
        fh.write("\n")


def _write_manifest(out_dir, subcommand, config, inputs, seed, started) -> None:
    manifest = {
        "subcommand": subcommand,
        "config": config,
        "inputs": {os.path.basename(p): _sha256(p) for p in inputs},
        "seed": seed,
        "version": __version__,
        "duration_seconds": round(time.time() - started, 3),
    }
    _dump_json(manifest, os.path.join(out_dir, "manifest.json"))


def _load_config_file(path):
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR)
    if path is None:
        return {}
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read config file {path}: {exc}", EXIT_USAGE)
    if not isinstance(obj, dict):
        raise CliError(f"config file {path} must hold an object", EXIT_USAGE)
    return obj


def _resolve(args, config, name, default):
    """flags > config file > default."""
    value = getattr(args, name.replace("-", "_"), None)
    if value is not None:
        return value
    if name in config:
        return config[name]
    return default


def _schema_input(value) -> list:
    """Schema values naming built-ins are not input files to digest."""
    return [] if value in (None, "default", "flat") else [value]


def _schema_from_arg(value) -> Schema:
    if value in (None, "default"):
        return default_schema()
    if value == "flat":
        return flat_schema()
    return Schema.load(value)


def _load_prepared(path, schema, window=None):
    docs = load_corpus(path, schema, window=window)
    if any(rec.ridit_confidence is None
           for doc in docs for rec in doc.annotations):
        prepare_corpus(docs, schema)
    return docs


def _load_checkpoint(path, schema):
    try:
        params = load_params(path)
        check_params(params, schema)
    except CheckpointError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    return params


def _split(docs, dev_fraction):
    n_dev = max(1, int(round(len(docs) * dev_fraction)))
    if n_dev >= len(docs):
        raise CliError("dev split would consume the whole corpus", EXIT_DATA)
    return docs[:-n_dev], docs[-n_dev:]


def _fit_config(args, config) -> FitConfig:
    return FitConfig(
        window=_resolve(args, config, "window", 2),
        max_em_iters=_resolve(args, config, "em-iters", 20),
        adam_lr=_resolve(args, config, "adam-lr", 0.05),
        m_step_iters=_resolve(args, config, "m-step-iters", 200),
        bp_max_iters=_resolve(args, config, "bp-max-iters", 200),
        bp_damping=_resolve(args, config, "bp-damping", 0.1),
        seed=_resolve(args, config, "seed", 0),
        confidence_weighting=not _resolve(
            args, config, "no-confidence-weighting", False),
        learn_rho=not _resolve(args, config, "no-learn-rho", False),
        threads=_resolve(args, config, "threads", 1),
    )


def _inventory(args, config) -> TypeInventory:
    return TypeInventory(
        k_event=_resolve(args, config, "k-event", 4),
        k_entity=_resolve(args, config, "k-entity", 8),
        k_role=_resolve(args, config, "k-role", 2),
        k_rel=_resolve(args, config, "k-rel", 5),
    )


# ---------------------------------------------------------------------------
# subcommands

def _cmd_synth(args, config):
    started = time.time()
    out = args.out
    os.makedirs(out, exist_ok=True)
    seed = _resolve(args, config, "seed", 0)
    schema = _schema_from_arg(_resolve(args, config, "schema", "default"))
    syn = SynthConfig(
        inventory=_inventory(args, config),
        schema=schema,
        n_docs=_resolve(args, config, "docs", 10),
        sentences_per_doc=_resolve(args, config, "sentences", 2),
        predicates_per_sentence=_resolve(args, config, "predicates", 1),
        arguments_per_predicate=_resolve(args, config, "arguments", 1),
        eventive_prob=_resolve(args, config, "eventive-prob", 0.0),
        n_annotators=_resolve(args, config, "annotators", 3),
        annotators_per_item=_resolve(args, config, "annotators-per-item", 1),
        window=_resolve(args, config, "window", 2),
        seed=seed,
        separation=_resolve(args, config, "separation", 4.0),
        sigma_ann=_resolve(args, config, "sigma-ann", 0.0),
    )
    docs, truth, params = sample_corpus(syn)
    prepare_corpus(docs, schema)
    save_corpus(docs, os.path.join(out, "corpus.jsonl"))
    _dump_json(truth, os.path.join(out, "truth.json"))
    save_params(params, os.path.join(out, "true_params.json"))
    schema.save(os.path.join(out, "schema.json"))
    with open(os.path.join(out, "stats.txt"), "w") as fh:
        fh.write(format_stats(corpus_stats(docs, schema)) + "\n")
    resolved = {"docs": syn.n_docs, "sentences": syn.sentences_per_doc,
                "predicates": syn.predicates_per_sentence,
                "arguments": syn.arguments_per_predicate,
                "eventive-prob": syn.eventive_prob,
                "annotators": syn.n_annotators,
                "annotators-per-item": syn.annotators_per_item,
                "window": syn.window, "separation": syn.separation,
                "sigma-ann": syn.sigma_ann,
                "k-event": syn.inventory.k_event,
                "k-entity": syn.inventory.k_entity,
                "k-role": syn.inventory.k_role,
                "k-rel": syn.inventory.k_rel}
    _write_manifest(out, "synth", resolved, [], seed, started)
    return 0


def _cmd_ingest(args, config):
    started = time.time()
    out = args.out
    os.makedirs(out, exist_ok=True)
    schema = _schema_from_arg(args.schema)
    window = _resolve(args, config, "window", 2)
    docs = load_corpus(args.corpus, schema, window=window)
    prepare_corpus(docs, schema)
    save_corpus(docs, os.path.join(out, "corpus.jsonl"))
    with open(os.path.join(out, "stats.txt"), "w") as fh:
        fh.write(format_stats(corpus_stats(docs, schema)) + "\n")
    _write_manifest(out, "ingest", {"window": window},
                    [args.corpus] + _schema_input(args.schema),
                    0, started)
    return 0


def _cmd_fit(args, config):
    started = time.time()
    out = args.out
    os.makedirs(out, exist_ok=True)
    schema = _schema_from_arg(args.schema)
    fc = _fit_config(args, config)
    inv = _inventory(args, config)
    docs = _load_prepared(args.corpus, schema, window=fc.window)
    if args.dev:
        train = docs
        dev = _load_prepared(args.dev, schema, window=fc.window)
    else:
        train, dev = _split(docs, _resolve(args, config, "dev-fraction", 0.2))
    result = fit(train, dev, inv, schema, fc)
    save_params(result.params, os.path.join(out, "checkpoint.json"))
    _dump_json({"train_evidence": result.train_evidence,
                "dev_evidence": result.dev_evidence,
                "stopped": result.stopped_reason},
               os.path.join(out, "trace.json"))
    resolved = {"window": fc.window, "em-iters": fc.max_em_iters,
                "m-step-iters": fc.m_step_iters, "adam-lr": fc.adam_lr,
                "threads": fc.threads,
                "confidence-weighting": fc.confidence_weighting,
                "learn-rho": fc.learn_rho,
                "k-event": inv.k_event, "k-entity": inv.k_entity,
                "k-role": inv.k_role, "k-rel": inv.k_rel}
    inputs = [args.corpus] + ([args.dev] if args.dev else []) \
        + _schema_input(args.schema)
    _write_manifest(out, "fit", resolved, inputs, fc.seed, started)
    return 0


def _posteriors_obj(docs, posteriors):
    out = {}
    for doc, post in zip(docs, posteriors):
        out[doc.doc_id] = {
            var: [repr(float(v)) for v in post.marginals[var]]
            for var in sorted(post.marginals)
        }
    return out


def _cmd_posteriors(args, config):
    started = time.time()
    out = args.out
    os.makedirs(out, exist_ok=True)
    schema = _schema_from_arg(args.schema)
    fc = _fit_config(args, config)
    docs = _load_prepared(args.corpus, schema, window=fc.window)
    params = _load_checkpoint(args.checkpoint, schema)
    posts = e_step(docs, params, schema, fc)
    _dump_json(_posteriors_obj(docs, posts),
               os.path.join(out, "posteriors.json"))
    _write_manifest(out, "posteriors",
                    {"window": fc.window, "threads": fc.threads},
                    [args.corpus, args.checkpoint]
                    + _schema_input(args.schema),
                    fc.seed, started)
    return 0


def _cmd_select_k(args, config):
    started = time.time()
    out = args.out
    os.makedirs(out, exist_ok=True)
    schema = _schema_from_arg(args.schema)
    seed = _resolve(args, config, "seed", 0)
    fc = _fit_config(args, config)
    sc = SelectionConfig(
        restarts=_resolve(args, config, "restarts", 5),
        em_iters=_resolve(args, config, "mixture-em-iters", 30),
        bootstrap_samples=_resolve(args, config, "bootstrap-samples", 1000),
        seed=seed,
        fit=fc,
    )
    candidates = [int(v) for v in args.candidates.split(",")]
    docs = _load_prepared(args.corpus, schema)
    train, dev = _split(docs, _resolve(args, config, "dev-fraction", 0.2))
    report = select_k(train, dev, args.kind, candidates, schema, sc)
    _dump_json(report.to_obj(), os.path.join(out, "selection.json"))
    with open(os.path.join(out, "selection.txt"), "w") as fh:
        fh.write(report.table() + "\n")
    _write_manifest(out, "select-k",
                    {"kind": args.kind, "candidates": candidates,
                     "restarts": sc.restarts,
                     "bootstrap-samples": sc.bootstrap_samples},
                    [args.corpus] + _schema_input(args.schema),
                    seed, started)
    return 0


def _cmd_summarize(args, config):
    started = time.time()
    out = args.out
    os.makedirs(out, exist_ok=True)
    schema = _schema_from_arg(args.schema)
    params = _load_checkpoint(args.checkpoint, schema)
    threshold = _resolve(args, config, "na-threshold",
                         analysis.DEFAULT_NA_THRESHOLD)
    summary = analysis.summarize_types(params, schema, na_threshold=threshold)
    _dump_json(summary.tables, os.path.join(out, "summary.json"))
    with open(os.path.join(out, "summary_long.tsv"), "w") as fh:
        fh.write("group\tproperty\ttype\tvalue\n")
        for group, prop, t, cell in summary.long_rows():
            fh.write(f"{group}\t{prop}\t{t}\t{cell}\n")
    _write_manifest(out, "summarize", {"na-threshold": threshold},
                    [args.checkpoint] + _schema_input(args.schema),
                    0, started)
    return 0


def _cmd_compare_fits(args, config):
    started = time.time()
    out = args.out
    os.makedirs(out, exist_ok=True)
    schema = _schema_from_arg(args.schema)
    fc = _fit_config(args, config)
    docs = _load_prepared(args.corpus, schema, window=fc.window)
    posts_a = e_step(docs, _load_checkpoint(args.checkpoint_a, schema),
                     schema, fc)
    posts_b = e_step(docs, _load_checkpoint(args.checkpoint_b, schema),
                     schema, fc)
    mat = analysis.confusion(posts_a, posts_b, args.kind)
    with open(os.path.join(out, "confusion.tsv"), "w") as fh:
        fh.write("\t".join(f"b{t}" for t in range(mat.shape[1])) + "\n")
        for row in mat:
            fh.write("\t".join(repr(float(v)) for v in row) + "\n")
    _write_manifest(out, "compare-fits", {"kind": args.kind},
                    [args.corpus, args.checkpoint_a, args.checkpoint_b],
                    fc.seed, started)
    return 0


def _cmd_entropy(args, config):
    started = time.time()
    out = args.out
    os.makedirs(out, exist_ok=True)
    schema = _schema_from_arg(args.schema)
    fc = _fit_config(args, config)
    docs = _load_prepared(args.corpus, schema, window=fc.window)
    params = _load_checkpoint(args.checkpoint, schema)
    posts = e_step(docs, params, schema, fc)
    stats = {}
    for kind in analysis.GROUPS:
        try:
            mean, median = analysis.entropy_stats(posts, kind)
        except analysis.AnalysisError:
            continue
        stats[kind] = {"mean": mean, "median": median}
    _dump_json(stats, os.path.join(out, "entropy.json"))
    _write_manifest(out, "entropy", {}, [args.corpus, args.checkpoint],
                    fc.seed, started)
    return 0


def _read_reliability(path) -> ReliabilityMatrix:
    """Long-format TSV: item, annotator, value[, confidence]; header row."""
    table = ReliabilityMatrix()
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split("\t")
        if header[:3] != ["item", "annotator", "value"]:
            raise CliError(
                f"{path}: expected columns item, annotator, value"
                f"[, confidence]", EXIT_DATA)
        has_conf = len(header) > 3 and header[3] == "confidence"
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            parts = line.rstrip("\n").split("\t")
            if len(parts) < 3:
                raise CliError(f"{path}:{lineno}: short row", EXIT_DATA)
            value: object = parts[2]
            try:
                value = int(parts[2])
            except ValueError:
                pass
            conf = float(parts[3]) if has_conf and len(parts) > 3 else None
            table.add(parts[0], parts[1], value, conf)
    return table


def _cmd_agreement(args, config):
    started = time.time()
    out = args.out
    os.makedirs(out, exist_ok=True)
    table = _read_reliability(args.table)
    metric = _resolve(args, config, "metric", "nominal")
    point = krippendorff_alpha(table, metric)
    result = {"metric": metric,
              "alpha": point if point is not None else "undefined"}
    if _resolve(args, config, "bootstrap", False):
        lo, hi, n_def = bootstrap_alpha_ci(
            table, metric, seed=_resolve(args, config, "seed", 0))
        result["interval"] = [lo, hi]
        result["defined_resamples"] = n_def
    thresholds = _resolve(args, config, "thresholds", None)
    if thresholds:
        ts = [float(v) for v in thresholds.split(",")]
        curve = thresholded_alpha(table, ts, metric)
        with open(os.path.join(out, "curve.tsv"), "w") as fh:
            fh.write("threshold\talpha\tcoverage\n")
            for pt in curve:
                a = "undefined" if pt.alpha is None else repr(pt.alpha)
                fh.write(f"{pt.threshold}\t{a}\t{pt.coverage}\n")
    _dump_json(result, os.path.join(out, "agreement.json"))
    _write_manifest(out, "agreement", {"metric": metric}, [args.table],
                    _resolve(args, config, "seed", 0), started)
    return 0


def _cmd_export_features(args, config):
    started = time.time()
    out = args.out
    os.makedirs(out, exist_ok=True)
    schema = _schema_from_arg(args.schema)
    fc = _fit_config(args, config)
    docs = _load_prepared(args.corpus, schema, window=fc.window)
    params = _load_checkpoint(args.checkpoint, schema)
    posts = e_step(docs, params, schema, fc)
    table = analysis.export_features(docs, posts)
    with open(os.path.join(out, "features.tsv"), "w") as fh:
        fh.write("element\trow_kind\t" + "\t".join(table.header) + "\n")
        for element, row_kind, vec in table.rows:
            fh.write(f"{element}\t{row_kind}\t"
                     + "\t".join(repr(float(v)) for v in vec) + "\n")
    _write_manifest(out, "export-features", {},
                    [args.corpus, args.checkpoint], fc.seed, started)
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def _add_common(p, checkpoint=False, corpus=False):
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--seed", type=int)
    p.add_argument("--threads", type=int)
    p.add_argument("--schema", help="schema file, 'default', or 'flat'")
    if corpus:
        p.add_argument("--corpus", required=True, help="corpus JSONL file")
    if checkpoint:
        p.add_argument("--checkpoint", required=True,
                       help="fitted parameter checkpoint")


def _add_fit_flags(p):
    p.add_argument("--window", type=int)
    p.add_argument("--em-iters", type=int, dest="em_iters")
    p.add_argument("--m-step-iters", type=int, dest="m_step_iters")
    p.add_argument("--adam-lr", type=float, dest="adam_lr")
    p.add_argument("--bp-max-iters", type=int, dest="bp_max_iters")
    p.add_argument("--bp-damping", type=float, dest="bp_damping")
    p.add_argument("--no-confidence-weighting", action="store_const",
                   const=True, dest="no_confidence_weighting")
    p.add_argument("--no-learn-rho", action="store_const", const=True,
                   dest="no_learn_rho")
    p.add_argument("--k-event", type=int, dest="k_event")
    p.add_argument("--k-entity", type=int, dest="k_entity")
    p.add_argument("--k-role", type=int, dest="k_role")
    p.add_argument("--k-rel", type=int, dest="k_rel")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evstruct",
        description="Induce event-structure type classifications from "
                    "decompositional annotations on document graphs.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand")

    p = sub.add_parser("synth", help="sample a synthetic corpus")
    _add_common(p)
    p.add_argument("--docs", type=int)
    p.add_argument("--sentences", type=int)
    p.add_argument("--predicates", type=int)
    p.add_argument("--arguments", type=int)
    p.add_argument("--eventive-prob", type=float, dest="eventive_prob")
    p.add_argument("--annotators", type=int)
    p.add_argument("--annotators-per-item", type=int,
                   dest="annotators_per_item")
    p.add_argument("--window", type=int)
    p.add_argument("--separation", type=float)
    p.add_argument("--sigma-ann", type=float, dest="sigma_ann")
    p.add_argument("--k-event", type=int, dest="k_event")
    p.add_argument("--k-entity", type=int, dest="k_entity")
    p.add_argument("--k-role", type=int, dest="k_role")
    p.add_argument("--k-rel", type=int, dest="k_rel")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("ingest", help="validate and prepare a corpus")
    _add_common(p, corpus=True)
    p.add_argument("--window", type=int)
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("fit", help="fit the full model with EM")
    _add_common(p, corpus=True)
    p.add_argument("--dev", help="held-out corpus file")
    p.add_argument("--dev-fraction", type=float, dest="dev_fraction")
    _add_fit_flags(p)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("posteriors", help="posterior marginals under a "
                                          "checkpoint")
    _add_common(p, corpus=True, checkpoint=True)
    _add_fit_flags(p)
    p.set_defaults(func=_cmd_posteriors)

    p = sub.add_parser("select-k", help="choose a type count")
    _add_common(p, corpus=True)
    p.add_argument("--kind", required=True,
                   choices=("event", "entity", "role", "rel"))
    p.add_argument("--candidates", required=True,
                   help="comma-separated increasing K values")
    p.add_argument("--restarts", type=int)
    p.add_argument("--mixture-em-iters", type=int, dest="mixture_em_iters")
    p.add_argument("--bootstrap-samples", type=int, dest="bootstrap_samples")
    p.add_argument("--dev-fraction", type=float, dest="dev_fraction")
    _add_fit_flags(p)
    p.set_defaults(func=_cmd_select_k)

    p = sub.add_parser("summarize", help="per-type property summary")
    _add_common(p, checkpoint=True)
    p.add_argument("--na-threshold", type=float, dest="na_threshold")
    p.set_defaults(func=_cmd_summarize)

    p = sub.add_parser("compare-fits", help="confusion matrix between fits")
    _add_common(p, corpus=True)
    p.add_argument("--checkpoint-a", required=True, dest="checkpoint_a")
    p.add_argument("--checkpoint-b", required=True, dest="checkpoint_b")
    p.add_argument("--kind", required=True,
                   choices=("event", "entity", "role", "rel"))
    _add_fit_flags(p)
    p.set_defaults(func=_cmd_compare_fits)

    p = sub.add_parser("entropy", help="posterior entropy statistics")
    _add_common(p, corpus=True, checkpoint=True)
    _add_fit_flags(p)
    p.set_defaults(func=_cmd_entropy)

    p = sub.add_parser("agreement", help="Krippendorff's alpha analyses")
    _add_common(p)
    p.add_argument("--table", required=True,
                   help="long-format reliability TSV")
    p.add_argument("--metric", choices=("nominal", "ordinal",
                                        "ordinal-ranks"))
    p.add_argument("--thresholds", help="comma-separated ridit thresholds")
    p.add_argument("--bootstrap", action="store_const", const=True)
    p.set_defaults(func=_cmd_agreement)

    p = sub.add_parser("export-features", help="posterior feature table")
    _add_common(p, corpus=True, checkpoint=True)
    _add_fit_flags(p)
    p.set_defaults(func=_cmd_export_features)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "subcommand", None):
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        config = _load_config_file(getattr(args, "config", None))
        return args.func(args, config)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    # before ValueError: LinAlgError subclasses it
    except (NumericalError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"compute error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except (CorpusError, SchemaError, AgreementError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
