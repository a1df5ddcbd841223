"""Batch command-line interface.

Every run writes its outputs plus a run manifest (resolved configuration,
input digests, seed, version, duration) into the output directory.
Configuration precedence: command-line flags > config file > built-in
defaults.  The config file path may also come from the EVSTRUCT_CONFIG
environment variable; everything else is flags-only.

Each option is declared once, in OPTIONS: its type, default and choices
drive the parser, the reading of config-file values and the manifest.
COMMANDS lists the options each subcommand accepts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from . import analysis
from .agreement import (
    AgreementError, ReliabilityMatrix, bootstrap_alpha_ci, krippendorff_alpha,
    thresholded_alpha,
)
from .corpus import CorpusError, load_corpus, prepare_corpus, save_corpus
from .factorgraph import NumericalError
from .learning import FitConfig, build_obs, e_step, fit
from .params import (
    CheckpointError, TypeInventory, check_params, load_params, save_params,
)
from .schema import Schema, SchemaError, default_schema
from .selection import SelectionConfig, check_candidates, select_k
from .synth import SynthConfig, corpus_stats, flat_schema, format_stats, sample_corpus

EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_COMPUTE = 4

CONFIG_ENV_VAR = "EVSTRUCT_CONFIG"


class CliError(Exception):
    def __init__(self, message, code):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# the options

@dataclass(frozen=True)
class Option:
    """`--NAME` on the command line and, when read through Options, key
    NAME in the config file.  A bool option is a switch; a `--no-X` switch
    is read, and recorded, as X's truth value."""
    type: type = str
    default: object = None
    help: str | None = None
    choices: tuple | None = None
    items: type | None = None     # a comma-separated list of this type
    field: str | None = None      # the config dataclass field, if not NAME's
    required: bool = False
    path: bool = False            # an input file, digested in the manifest


KINDS = ("event", "entity", "role", "rel")
BUILTIN_SCHEMAS = {"default": default_schema, "flat": flat_schema}

OPTIONS = {
    "out": Option(required=True, help="output directory"),
    "config": Option(help="JSON config file"),
    "seed": Option(int, 0),
    "threads": Option(int, 1, help="accepted for compatibility; no effect"),
    "schema": Option(str, "default", help="schema file, 'default', or 'flat'"),
    # input files
    "corpus": Option(required=True, path=True, help="corpus JSONL file"),
    "dev": Option(path=True, help="held-out corpus file"),
    "checkpoint": Option(required=True, path=True,
                         help="fitted parameter checkpoint"),
    "checkpoint-a": Option(required=True, path=True),
    "checkpoint-b": Option(required=True, path=True),
    "table": Option(required=True, path=True,
                    help="long-format reliability TSV"),
    # model and EM
    "window": Option(int, 2),
    "em-iters": Option(int, 20, field="max_em_iters"),
    "m-step-iters": Option(int, 200),
    "adam-lr": Option(float, 0.05),
    "bp-max-iters": Option(int, 200),
    "bp-damping": Option(float, 0.1),
    "no-confidence-weighting": Option(bool, False),
    "no-learn-rho": Option(bool, False),
    "k-event": Option(int, 4),
    "k-entity": Option(int, 8),
    "k-role": Option(int, 2),
    "k-rel": Option(int, 5),
    "dev-fraction": Option(float, 0.2),
    # synth
    "docs": Option(int, 10, field="n_docs"),
    "sentences": Option(int, 2, field="sentences_per_doc"),
    "predicates": Option(int, 1, field="predicates_per_sentence"),
    "arguments": Option(int, 1, field="arguments_per_predicate"),
    "eventive-prob": Option(float, 0.0),
    "annotators": Option(int, 3, field="n_annotators"),
    "annotators-per-item": Option(int, 1),
    "separation": Option(float, 4.0),
    "sigma-ann": Option(float, 0.0),
    # select-k and analyses
    "kind": Option(required=True, choices=KINDS),
    "candidates": Option(required=True, items=int,
                         help="comma-separated increasing K values"),
    "restarts": Option(int, 5),
    "mixture-em-iters": Option(int, 30, field="em_iters"),
    "bootstrap-samples": Option(int, 1000),
    "na-threshold": Option(float, analysis.DEFAULT_NA_THRESHOLD),
    "metric": Option(str, "nominal", choices=("nominal", "ordinal",
                                              "ordinal-ranks")),
    "thresholds": Option(items=float, help="comma-separated ridit thresholds"),
    "bootstrap": Option(bool, False),
}

COMMON = ("out", "config", "seed", "threads", "schema")
K_FLAGS = ("k-event", "k-entity", "k-role", "k-rel")
EM_FLAGS = ("window", "em-iters", "m-step-iters", "adam-lr", "bp-max-iters",
            "bp-damping", "no-confidence-weighting", "no-learn-rho")
FIT_FLAGS = EM_FLAGS + K_FLAGS
# what an E-step reads, and what select_k reads of FitConfig
E_STEP = ("window", "bp-max-iters", "bp-damping", "no-confidence-weighting",
          "seed")
SELECT_K_FIT = ("m-step-iters", "adam-lr", "no-confidence-weighting",
                "no-learn-rho")


def _from_flags(build, *args, **kwargs):
    """build(...) from flag values; a value it rejects is a usage error."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise CliError(f"invalid option value: {exc}", EXIT_USAGE) from None


def _config_value(name, opt, value):
    """A config-file value read with its flag's type: a switch takes a JSON
    boolean, a text option a JSON string, a number what its flag's text
    would give.  Anything else is a usage error."""
    try:
        if opt.type in (bool, str):
            if not isinstance(value, opt.type):
                raise ValueError
        else:
            value = opt.type(str(value))
        if opt.choices and value not in opt.choices:
            raise ValueError
    except ValueError:
        expected = ("true or false" if opt.type is bool
                    else "one of " + ", ".join(opt.choices) if opt.choices
                    else opt.type.__name__)
        raise CliError(f"config file key {name!r}: expected {expected}, "
                       f"got {value!r}", EXIT_USAGE) from None
    return value


class Options:
    """The options one command reads: flag, then config file, then default.
    Each value read is recorded; the record is the manifest's config."""

    def __init__(self, args, config):
        self.args, self.config, self.read = args, config, {}

    def __call__(self, name):
        opt = OPTIONS[name]
        value = getattr(self.args, name.replace("-", "_"))
        if value is None:
            value = (_config_value(name, opt, self.config[name])
                     if name in self.config else opt.default)
        if opt.items and value:
            try:
                value = [opt.items(v) for v in value.split(",")]
            except ValueError:
                raise CliError(f"--{name} {value!r}: expected comma-separated"
                               f" {opt.items.__name__} values",
                               EXIT_USAGE) from None
        if opt.type is bool and name.startswith("no-"):
            name, value = name[3:], not value
        self.read[name] = value
        return value

    def build(self, cls, names, **fields):
        """cls(...) from the named options plus fields; a value cls rejects
        is a usage error."""
        for name in names:
            field = OPTIONS[name].field or name.removeprefix("no-")
            fields[field.replace("-", "_")] = self(name)
        return _from_flags(cls, **fields)


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


# ---------------------------------------------------------------------------
# inputs and outputs

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


def _write_manifest(args, read, started, bp) -> None:
    """The options the command read go under config, except the seed (top
    level) and a schema file (an input).  Each input's digest is keyed by
    its file name, or by its path as given where inputs share a name."""
    config = dict(read)
    seed = config.pop("seed", 0)
    schema = config.pop("schema", None)
    inputs = [getattr(args, name.replace("-", "_"))
              for name in COMMANDS[args.subcommand][2] if OPTIONS[name].path]
    if schema is not None and schema not in BUILTIN_SCHEMAS:
        inputs.append(schema)
    inputs = [p for p in inputs if p]
    names = [os.path.basename(p) for p in inputs]
    manifest = {
        "subcommand": args.subcommand,
        "config": config,
        "inputs": {name if names.count(name) == 1 else p: _sha256(p)
                   for p, name in zip(inputs, names)},
        "seed": seed,
        "version": __version__,
        "duration_seconds": round(time.time() - started, 3),
    }
    if bp is not None:
        manifest["bp"] = bp
    _dump_json(manifest, os.path.join(args.out, "manifest.json"))


def _bp_record(docs, *post_lists) -> dict:
    """BP convergence over the E-steps whose posteriors the outputs use."""
    posts = [(doc, p) for lst in post_lists for doc, p in zip(docs, lst)]
    return {"documents": len(docs),
            "unconverged": sorted({doc.doc_id for doc, p in posts
                                   if not p.converged}),
            "max_iterations": max((p.iterations for _, p in posts),
                                  default=0)}


def _on_path(fn, path, *args, verb="read", **kwargs):
    """fn(path, ...); an OSError there (an input file that cannot be read, an
    output directory that cannot be created) is a data error."""
    try:
        return fn(path, *args, **kwargs)
    except OSError as exc:
        raise CliError(f"cannot {verb} {path}: {exc.strerror or exc}",
                       EXIT_DATA) from None


def _schema(opts) -> Schema:
    value = opts("schema")
    builtin = BUILTIN_SCHEMAS.get(value)
    return builtin() if builtin else _on_path(Schema.load, value)


def _load_prepared(path, schema, window=None):
    docs = _on_path(load_corpus, path, schema, window=window)
    if any(rec.ridit_confidence is None
           for doc in docs for rec in doc.annotations):
        prepare_corpus(docs, schema)
    return docs


def _load_checkpoint(path, schema):
    try:
        params = _on_path(load_params, path)
        check_params(params, schema)
    except CheckpointError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    return params


def _split(docs, dev_fraction):
    n_dev = max(1, int(round(len(docs) * dev_fraction)))
    if n_dev >= len(docs):
        raise CliError("dev split would consume the whole corpus", EXIT_DATA)
    return docs[:-n_dev], docs[-n_dev:]


def _e_steps(args, opts, *checkpoints):
    """The corpus, indexed once, and its posteriors under each checkpoint."""
    fc = opts.build(FitConfig, E_STEP)
    schema = _schema(opts)
    docs = _load_prepared(args.corpus, schema, window=fc.window)
    params = [_load_checkpoint(path, schema) for path in checkpoints]
    obs = build_obs(docs, schema, fc.confidence_weighting)
    return docs, [e_step(docs, p, schema, fc, obs=obs) for p in params]


def _write_stats(docs, schema, out) -> None:
    with open(os.path.join(out, "stats.txt"), "w") as fh:
        fh.write(format_stats(corpus_stats(docs, schema)) + "\n")


# ---------------------------------------------------------------------------
# subcommands: each returns the manifest's BP record, or None

def _cmd_synth(args, opts):
    syn = opts.build(
        SynthConfig,
        ("docs", "sentences", "predicates", "arguments", "eventive-prob",
         "annotators", "annotators-per-item", "window", "seed", "separation",
         "sigma-ann"),
        inventory=opts.build(TypeInventory, K_FLAGS))
    syn.schema = schema = _schema(opts)
    docs, truth, params = sample_corpus(syn)
    prepare_corpus(docs, schema)
    save_corpus(docs, os.path.join(args.out, "corpus.jsonl"))
    _dump_json(truth, os.path.join(args.out, "truth.json"))
    save_params(params, os.path.join(args.out, "true_params.json"))
    schema.save(os.path.join(args.out, "schema.json"))
    _write_stats(docs, schema, args.out)


def _cmd_ingest(args, opts):
    window = opts.build(FitConfig, ("window",)).window   # checked as for fit
    schema = _schema(opts)
    docs = _on_path(load_corpus, args.corpus, schema, window=window)
    prepare_corpus(docs, schema)
    save_corpus(docs, os.path.join(args.out, "corpus.jsonl"))
    _write_stats(docs, schema, args.out)


def _cmd_fit(args, opts):
    fc = opts.build(FitConfig, EM_FLAGS + ("seed", "threads"))
    inv = opts.build(TypeInventory, K_FLAGS)
    schema = _schema(opts)
    docs = _load_prepared(args.corpus, schema, window=fc.window)
    train, dev = ((docs, _load_prepared(args.dev, schema, window=fc.window))
                  if args.dev else _split(docs, opts("dev-fraction")))
    result = fit(train, dev, inv, schema, fc)
    save_params(result.params, os.path.join(args.out, "checkpoint.json"))
    _dump_json({"train_evidence": result.train_evidence,
                "dev_evidence": result.dev_evidence,
                "stopped": result.stopped_reason},
               os.path.join(args.out, "trace.json"))
    return _bp_record(train, result.posteriors)


def _cmd_posteriors(args, opts):
    docs, (posts,) = _e_steps(args, opts, args.checkpoint)
    out = {doc.doc_id: {var: [repr(float(v)) for v in post.marginals[var]]
                        for var in sorted(post.marginals)}
           for doc, post in zip(docs, posts)}
    _dump_json(out, os.path.join(args.out, "posteriors.json"))
    return _bp_record(docs, posts)


def _cmd_select_k(args, opts):
    sc = opts.build(SelectionConfig, ("restarts", "mixture-em-iters",
                                      "bootstrap-samples", "seed"),
                    fit=opts.build(FitConfig, SELECT_K_FIT))
    opts.read["level"] = sc.level
    candidates = opts("candidates")
    _from_flags(check_candidates, candidates)
    schema = _schema(opts)
    docs = _load_prepared(args.corpus, schema)
    train, dev = _split(docs, opts("dev-fraction"))
    report = select_k(train, dev, opts("kind"), candidates, schema, sc)
    _dump_json(report.to_obj(), os.path.join(args.out, "selection.json"))
    with open(os.path.join(args.out, "selection.txt"), "w") as fh:
        fh.write(report.table() + "\n")


def _cmd_summarize(args, opts):
    threshold = opts("na-threshold")
    schema = _schema(opts)
    params = _load_checkpoint(args.checkpoint, schema)
    summary = analysis.summarize_types(params, schema, na_threshold=threshold)
    _dump_json(summary.tables, os.path.join(args.out, "summary.json"))
    with open(os.path.join(args.out, "summary_long.tsv"), "w") as fh:
        fh.write("group\tproperty\ttype\tvalue\n")
        for group, prop, t, cell in summary.long_rows():
            fh.write(f"{group}\t{prop}\t{t}\t{cell}\n")


def _cmd_compare_fits(args, opts):
    docs, posts = _e_steps(args, opts, args.checkpoint_a, args.checkpoint_b)
    mat = analysis.confusion(*posts, opts("kind"))
    with open(os.path.join(args.out, "confusion.tsv"), "w") as fh:
        fh.write("\t".join(f"b{t}" for t in range(mat.shape[1])) + "\n")
        for row in mat:
            fh.write("\t".join(repr(float(v)) for v in row) + "\n")
    return _bp_record(docs, *posts)


def _cmd_entropy(args, opts):
    docs, (posts,) = _e_steps(args, opts, args.checkpoint)
    stats = {}
    for kind in analysis.GROUPS:
        try:
            mean, median = analysis.entropy_stats(posts, kind)
        except analysis.AnalysisError:
            continue
        stats[kind] = {"mean": mean, "median": median}
    _dump_json(stats, os.path.join(args.out, "entropy.json"))
    return _bp_record(docs, posts)


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
            try:
                conf = float(parts[3]) if has_conf and len(parts) > 3 else None
            except ValueError:
                raise CliError(f"{path}:{lineno}: confidence {parts[3]!r} "
                               f"is not a number", EXIT_DATA) from None
            table.add(parts[0], parts[1], value, conf)
    return table


def _cmd_agreement(args, opts):
    thresholds, metric, bootstrap, seed = map(
        opts, ("thresholds", "metric", "bootstrap", "seed"))
    table = _on_path(_read_reliability, args.table)
    point = krippendorff_alpha(table, metric)
    result = {"metric": metric,
              "alpha": point if point is not None else "undefined"}
    if bootstrap:
        lo, hi, n_def = bootstrap_alpha_ci(table, metric, seed=seed)
        result["interval"] = [lo, hi]
        result["defined_resamples"] = n_def
    if thresholds:
        curve = thresholded_alpha(table, thresholds, metric)
        with open(os.path.join(args.out, "curve.tsv"), "w") as fh:
            fh.write("threshold\talpha\tcoverage\n")
            for pt in curve:
                a = "undefined" if pt.alpha is None else repr(pt.alpha)
                fh.write(f"{pt.threshold}\t{a}\t{pt.coverage}\n")
    _dump_json(result, os.path.join(args.out, "agreement.json"))


def _cmd_export_features(args, opts):
    docs, (posts,) = _e_steps(args, opts, args.checkpoint)
    table = analysis.export_features(docs, posts)
    with open(os.path.join(args.out, "features.tsv"), "w") as fh:
        fh.write("element\trow_kind\t" + "\t".join(table.header) + "\n")
        for element, row_kind, vec in table.rows:
            fh.write(f"{element}\t{row_kind}\t"
                     + "\t".join(repr(float(v)) for v in vec) + "\n")
    return _bp_record(docs, posts)


# ---------------------------------------------------------------------------
# argument parsing

# subcommand: (function, help, the options it accepts besides COMMON)
COMMANDS = {
    "synth": (_cmd_synth, "sample a synthetic corpus",
              ("docs", "sentences", "predicates", "arguments",
               "eventive-prob", "annotators", "annotators-per-item",
               "window", "separation", "sigma-ann") + K_FLAGS),
    "ingest": (_cmd_ingest, "validate and prepare a corpus",
               ("corpus", "window")),
    "fit": (_cmd_fit, "fit the full model with EM",
            ("corpus", "dev", "dev-fraction") + FIT_FLAGS),
    "posteriors": (_cmd_posteriors, "posterior marginals under a checkpoint",
                   ("corpus", "checkpoint") + FIT_FLAGS),
    "select-k": (_cmd_select_k, "choose a type count",
                 ("corpus", "kind", "candidates", "restarts",
                  "mixture-em-iters", "bootstrap-samples", "dev-fraction")
                 + FIT_FLAGS),
    "summarize": (_cmd_summarize, "per-type property summary",
                  ("checkpoint", "na-threshold")),
    "compare-fits": (_cmd_compare_fits, "confusion matrix between fits",
                     ("corpus", "checkpoint-a", "checkpoint-b", "kind")
                     + FIT_FLAGS),
    "entropy": (_cmd_entropy, "posterior entropy statistics",
                ("corpus", "checkpoint") + FIT_FLAGS),
    "agreement": (_cmd_agreement, "Krippendorff's alpha analyses",
                  ("table", "metric", "thresholds", "bootstrap")),
    "export-features": (_cmd_export_features, "posterior feature table",
                        ("corpus", "checkpoint") + FIT_FLAGS),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evstruct",
        description="Induce event-structure type classifications from "
                    "decompositional annotations on document graphs.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand")
    for command, (_, summary, names) in COMMANDS.items():
        p = sub.add_parser(command, help=summary)
        for name in COMMON + names:
            opt = OPTIONS[name]
            if opt.type is bool:
                p.add_argument(f"--{name}", action="store_const", const=True,
                               help=opt.help)
                continue
            text = opt.help
            if opt.default is not None:
                text = f"{text or ''} (default {opt.default!r})".lstrip()
            p.add_argument(f"--{name}", type=opt.type, choices=opt.choices,
                           required=opt.required, help=text)
    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "subcommand", None):
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        started = time.time()
        opts = Options(args, _load_config_file(args.config))
        _on_path(os.makedirs, args.out, exist_ok=True,
                 verb="create output directory")
        bp = COMMANDS[args.subcommand][0](args, opts)
        _write_manifest(args, opts.read, started, bp)
        return 0
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
