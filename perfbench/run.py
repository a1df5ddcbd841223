"""Layered benchmark of evstruct's fit, select-k and posteriors paths.

    python3 perfbench/run.py --workload fit-default --seed 1 --seconds 25 \
        --trace 0

Run from a checkout that holds ``src/evstruct``.  One client drives the
documented CLI (``evstruct.cli.run``) in a closed loop: each call starts
when the previous one has returned.  The run

1. generates the workload's corpus (and, for posteriors-dense, the
   generating checkpoint) from ``--seed`` with ``evstruct.synth`` into a
   temporary directory under ``.perfbench-work/``, removed at exit;
2. with ``--trace 0``, times set-up (``import evstruct.cli`` through
   ``evstruct ingest``) in several fresh interpreters, then runs the
   workload's one call repeatedly in a fresh process for ``--seconds``
   and reports the end-to-end metrics named in BENCHMARK.json;
3. with ``--trace 1``, alternates an untraced call with a traced session
   (ingest and call, every layer wrapped by tracing.py) and reports the
   per-layer metrics, including the tracing overhead;
4. checks every call's outputs (workloads.check_outputs) and, in the
   traced run, that traced and untraced outputs are byte-identical.

Human-readable lines (environment, input sizes, every metric with its
unit and sample count) come first; the last line is one JSON object.
Exits 2 without a result when the checkout has no evstruct sources, and
1 when no workload call succeeded.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUP_PROCESSES = 4          # fresh interpreters timed for setup_s only
RUN_LIMIT_S = 170            # the whole run, generation and checks included
# figures read from outputs against the generator's truth, not from spans
QUALITY = ("error_rate", "heldout_evidence", "event_ari", "k_correct")


def _worker(job, tmp, deadline) -> dict:
    """Run worker.py on one job in a fresh interpreter; returns its result."""
    n = len(list(tmp.glob("job-*.json")))
    job_path = tmp / f"job-{n}.json"
    job["result"] = str(tmp / f"result-{n}.json")
    job_path.write_text(json.dumps(job))
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("run time limit reached before a worker started")
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"),
                           str(job_path)], cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(Path(job["result"]).read_text())


def _environment() -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((SRC / "evstruct").rglob("*.py")))
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "cpu": cpu, "commit": commit, "src_lines": src_lines}


class Tally:
    """CLI calls attempted and failed, with the first few reasons."""

    def __init__(self):
        self.attempted = 0
        self.errors = []

    def add(self, error=None):
        self.attempted += 1
        if error is not None:
            self.errors.append(error)


def _check_traced(result, tally):
    """A traced session fails unless both its calls exit 0, every wrapped
    name is restored, and its outputs equal the untraced ones."""
    untraced = result["calls"][0].get("digests")
    for i, rec in enumerate(result["traced"]):
        if rec["ingest"] != 0 or rec["code"] != 0:
            error = f"ingest {rec['ingest']}, call {rec['code']}"
        elif not rec["restored"]:
            error = "a wrapped name was not restored"
        elif rec["prepared_digest"] != result["prepared_digest"]:
            error = "traced ingest output differs"
        elif rec["digests"] != untraced:
            error = "traced outputs differ from untraced outputs"
        else:
            error = None
        tally.add(None)
        tally.add(None if error is None else f"traced session {i}: {error}")


def _dir_bytes(path) -> int:
    return sum(p.stat().st_size for p in Path(path).iterdir())


def _layer_metrics(agg, declared, sizes, span_names) -> dict:
    """Per-layer metrics of one traced session from its span summary.
    A wrapped function that never ran reads 0."""
    def get(span, key):
        return agg.get(span, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    adam_steps = get("learning.adam_step", "calls")
    derived = {
        "corpus.annotations": ratio(get("corpus.load_corpus", "annotations"),
                                    get("corpus.load_corpus", "calls")),
        "factorgraph.factor_entries":
            get("factorgraph.build_graph", "factor_entries"),
        "factorgraph.bp_iterations":
            get("factorgraph.loopy_bp", "bp_iterations"),
        "factorgraph.bp_s_per_iter":
            ratio(get("factorgraph.loopy_bp", "s"),
                  get("factorgraph.loopy_bp", "bp_iterations")),
        "factorgraph.bp_unconverged":
            get("factorgraph.loopy_bp", "bp_unconverged"),
        "learning.em_iterations": get("learning.fit", "em_iterations"),
        "learning.adam_steps": adam_steps,
        "learning.adam_step_s":
            ratio(get("learning.optimize_likelihoods", "s"), adam_steps),
        "selection.fit_mixture.s_per_fit":
            ratio(get("selection.fit_mixture", "s"),
                  get("selection.fit_mixture", "calls")),
    }
    derived.update(sizes)
    out = {}
    for name in declared:
        span, _, key = name.rpartition(".")
        if name in derived:
            out[name] = derived[name]
        elif key in ("s", "self_s", "calls") and span in span_names:
            out[name] = get(span, key)
    return out


def _sessions(spans_path) -> dict:
    """Group spans by traced session (the run id before '/')."""
    sessions = {}
    with open(spans_path) as fh:
        for line in fh:
            span = json.loads(line)
            sessions.setdefault(span[0].split("/")[0], []).append(span)
    return sessions


def _per_layer(result, spans_path, declared, checkpoint_in) -> dict:
    """Median over traced sessions of each per-layer metric, plus the
    tracing overhead against the untraced calls of the same process."""
    import tracing
    per_session = []
    call_s = []
    for sid, spans in _sessions(spans_path).items():
        rec = result["traced"][int(sid)]
        if "digests" not in rec:       # failed; counted by _check_traced
            continue
        call_s += [end - start for run_id, _, parent, name, start, end, _
                   in spans
                   if run_id.endswith("/call") and name == "cli.run"
                   and parent is None]
        out_dir = Path(rec["out"])
        checkpoint = out_dir / "checkpoint.json"
        if not checkpoint.exists():
            checkpoint = checkpoint_in and Path(checkpoint_in)
        sizes = {
            "corpus.bytes":
                (out_dir.parent / f"prepared-{sid}" / "corpus.jsonl")
                .stat().st_size,
            "params.checkpoint_bytes":
                checkpoint.stat().st_size if checkpoint else 0,
            "cli.output_bytes": _dir_bytes(out_dir),
        }
        per_session.append(_layer_metrics(
            tracing.summarize(spans), declared, sizes,
            {name for _, _, name in tracing.TARGETS}))
    if not per_session:
        raise RuntimeError("no traced session succeeded")
    metrics = {name: statistics.median(m[name] for m in per_session)
               for name in per_session[0]}
    untraced = statistics.median(c["s"] for c in result["calls"])
    metrics["trace.overhead"] = statistics.median(call_s) / untraced - 1.0
    return metrics


def _print_metrics(title, metrics, units, samples):
    print(title)
    for name, value in metrics.items():
        print(f"  {name:40s} {value:>16.6g} {units.get(name, ''):10s} "
              f"n={samples.get(name, 1)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "evstruct" / "__init__.py").is_file():
        print(f"error: no evstruct sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    deadline = time.monotonic() + RUN_LIMIT_S
    WORK.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-",
                                dir=WORK))
    try:
        return _run(args, spec, tmp, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


def _run(args, spec, tmp, deadline) -> int:
    from workloads import Inputs, check_calls
    inputs = Inputs(args.workload, args.seed, str(tmp / "inputs"))
    job = {"src": str(SRC), "ingest": inputs.ingest, "call": inputs.call,
           "seconds": args.seconds, "prepared_dir": str(tmp / "prepared"),
           "calls_dir": str(tmp / "calls"),
           "traced_dir": str(tmp / "traced"),
           "spans": str(tmp / "spans.jsonl")}
    for d in ("calls", "traced"):
        (tmp / d).mkdir()
    tally = Tally()
    setup = []
    if not args.trace:
        for i in range(SETUP_PROCESSES):
            res = _worker(dict(job, mode="setup",
                               prepared_dir=str(tmp / f"setup-{i}")),
                          tmp, deadline)
            tally.add(res["ingest"]["error"])
            setup.append(res["setup_s"])
    result = _worker(dict(job, mode="trace" if args.trace else "run"),
                     tmp, deadline)
    tally.add(result["ingest"]["error"])
    setup.append(result["setup_s"])
    quality, errors = check_calls(inputs, result["calls"])
    for error in errors:
        tally.add(error)
    ok_calls = [c["s"] for c in result["calls"] if c["error"] is None]
    if not ok_calls:
        for error in tally.errors[:5]:
            print(f"error: {error}", file=sys.stderr)
        print("error: no workload call succeeded", file=sys.stderr)
        return 1
    if args.trace:
        _check_traced(result, tally)
    quality["error_rate"] = len(tally.errors) / tally.attempted

    print(f"workload {args.workload}  seed {args.seed}  seconds "
          f"{args.seconds:g}  trace {args.trace}  closed loop, 1 client")
    print("environment " + json.dumps(_environment(), sort_keys=True))
    print("inputs " + json.dumps(inputs.sizes, sort_keys=True))
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    kind = "per_layer" if args.trace else "end_to_end"
    declared = [m["name"] for m in spec[kind]]
    if args.trace:
        metrics = _per_layer(result, job["spans"], declared,
                             inputs.checkpoint_in)
        metrics.update({name: quality.get(name, 0.0) for name in QUALITY})
        samples = {name: len(result["traced"]) for name in declared}
        for missing in result.get("missing", []):
            print(f"not on the call path (reads 0): {missing}")
    else:
        metrics = {
            "setup_s": statistics.median(setup),
            "run_s": statistics.median(ok_calls),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        samples = {"setup_s": len(setup), "run_s": len(ok_calls)}
    if set(metrics) != set(declared):
        raise RuntimeError(f"computed metrics differ from BENCHMARK.json "
                           f"{kind}: {sorted(set(metrics) ^ set(declared))}")
    _print_metrics("metrics", metrics, units, samples)
    _print_metrics("outputs against the generator's truth", quality,
                   units, {})
    for error in tally.errors[:5]:
        print(f"failure: {error}")
    print(json.dumps({
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": len(tally.errors),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
