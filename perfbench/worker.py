"""One fresh interpreter that runs evstruct's CLI in a closed loop.

    python3 perfbench/worker.py JOB.json

The job file (written by run.py) names the source tree, the ingest and
workload argv lists, the output directories and the time budget.  The
worker imports nothing from evstruct or numpy before it starts the
set-up clock, so ``setup_s`` covers ``import evstruct.cli`` through the
ingest call.  Calls run one after another, each starting when the last
has returned.  Output checks happen in run.py, after this process has
exited, so they add neither time nor memory to what is measured here.

Modes:
  setup  import and ingest once, then exit;
  run    set up, then repeat the workload call until the budget is spent;
  trace  set up, then alternate an untraced call with a traced session
         (ingest and call with every layer wrapped) until the budget is
         spent.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import shutil
import sys
import time


def _digests(out_dir) -> dict:
    """sha256 of every output file except manifest.json (it holds times)."""
    digests = {}
    for name in sorted(os.listdir(out_dir)):
        if name == "manifest.json":
            continue
        with open(os.path.join(out_dir, name), "rb") as fh:
            digests[name] = hashlib.sha256(fh.read()).hexdigest()
    return digests


def _call(cli, argv) -> dict:
    """Run one CLI call; a non-zero exit or an exception is a failure."""
    error = None
    start = time.perf_counter()
    try:
        code = cli.run(argv)
    except SystemExit as exc:          # argparse rejects its argv this way
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:           # the loop keeps going and reports it
        code, error = None, f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - start
    if code != 0 and error is None:
        error = f"exit code {code}"
    return {"s": seconds, "error": error}


def _fill(argv, prepared, out=""):
    return [a.replace("{prepared}", prepared).replace("{out}", out)
            for a in argv]


def _workload_call(cli, job, out_dir, first) -> dict:
    """One workload call into out_dir.  Later calls whose outputs equal the
    first call's are deleted; run.py fully checks the first and any that
    differ."""
    rec = _call(cli, _fill(job["call"], job["prepared_dir"], out_dir))
    rec["out"] = out_dir
    if rec["error"] is None:
        rec["digests"] = _digests(out_dir)
        if first is not None and rec["digests"] == first.get("digests"):
            shutil.rmtree(out_dir)
            rec["out"] = None
    return rec


def main(job_path) -> int:
    with open(job_path) as fh:
        job = json.load(fh)
    sys.path.insert(0, job["src"])
    mode = job["mode"]

    start = time.perf_counter()
    from evstruct import cli
    ingest = _call(cli, _fill(job["ingest"], job["prepared_dir"]))
    result = {"setup_s": time.perf_counter() - start, "ingest": ingest,
              "calls": [], "traced": []}

    if mode != "setup" and ingest["error"] is None:
        tracer = None
        if mode == "trace":
            import tracing
            tracer = tracing.Tracer()
            result["prepared_digest"] = _digests(job["prepared_dir"])
        deadline = time.perf_counter() + job["seconds"]
        first = None
        while True:
            i = len(result["calls"])
            rec = _workload_call(cli, job, os.path.join(job["calls_dir"], str(i)),
                                 first)
            result["calls"].append(rec)
            first = first or rec
            if tracer is not None:
                _traced_session(cli, job, tracer, i, result)
            # a call starts whenever the budget is not yet spent, so the
            # run measures for at least the budget
            if rec["error"] is not None or time.perf_counter() >= deadline:
                break
        if tracer is not None:
            result["missing"] = tracer.missing
            with open(job["spans"], "w") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span) + "\n")

    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(job["result"], "w") as fh:
        json.dump(result, fh)
    return 0


def _traced_session(cli, job, tracer, i, result) -> None:
    """Ingest and call once with every layer wrapped."""
    prep = os.path.join(job["traced_dir"], f"prepared-{i}")
    out = os.path.join(job["traced_dir"], f"call-{i}")
    ingest_argv = _fill(job["ingest"], prep)
    call_argv = _fill(job["call"], prep, out)
    tracer.install()
    try:
        tracer.run_id = f"{i}/ingest"
        ingest = cli.run(ingest_argv)
        tracer.run_id = f"{i}/call"
        code = cli.run(call_argv)
    except Exception as exc:
        ingest = code = f"{type(exc).__name__}: {exc}"
    finally:
        restored = tracer.uninstall()
    rec = {"ingest": ingest, "code": code, "restored": restored, "out": out}
    if code == 0 and ingest == 0:
        rec["prepared_digest"] = _digests(prep)
        rec["digests"] = _digests(out)
    result["traced"].append(rec)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
