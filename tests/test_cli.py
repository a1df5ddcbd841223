"""End-to-end command-line interface behavior."""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from evstruct import cli
from evstruct.cli import (
    CONFIG_ENV_VAR, EXIT_COMPUTE, EXIT_DATA, EXIT_USAGE, run,
)
from evstruct.schema import (
    CATEGORICAL, PRED_ARG_EDGE, PropertySpec, Schema, default_schema,
)


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def synth(out, *extra):
    code = run(["synth", "--out", str(out), "--docs", "4", "--annotators",
                "2", "--annotators-per-item", "2", "--seed", "7",
                "--schema", "flat", "--k-event", "2", "--k-entity", "2",
                "--k-role", "2", "--k-rel", "2", *extra])
    assert code == 0
    return out


def test_no_arguments_is_usage_error(capsys):
    assert run([]) == EXIT_USAGE
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run(["frobnicate"])
    assert exc.value.code == EXIT_USAGE


def test_synth_deterministic(tmp_path):
    a = synth(tmp_path / "a")
    b = synth(tmp_path / "b")
    for name in ("corpus.jsonl", "truth.json", "true_params.json"):
        assert sha256(a / name) == sha256(b / name)


def test_synth_seed_changes_output(tmp_path):
    a = synth(tmp_path / "a")
    b = tmp_path / "b"
    assert run(["synth", "--out", str(b), "--docs", "4", "--annotators", "2",
                "--annotators-per-item", "2", "--seed", "8", "--schema",
                "flat", "--k-event", "2", "--k-entity", "2", "--k-role", "2",
                "--k-rel", "2"]) == 0
    assert sha256(a / "corpus.jsonl") != sha256(b / "corpus.jsonl")


def test_manifest_records_inputs(tmp_path):
    data = synth(tmp_path / "data")
    out = tmp_path / "ingest"
    assert run(["ingest", "--corpus", str(data / "corpus.jsonl"),
                "--schema", "flat", "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["subcommand"] == "ingest"
    assert manifest["inputs"]["corpus.jsonl"] == sha256(data / "corpus.jsonl")
    assert "version" in manifest and "duration_seconds" in manifest


def test_manifest_keys_inputs_sharing_a_name_by_path(tmp_path):
    a = synth(tmp_path / "a")
    b = synth(tmp_path / "b", "--seed", "8")
    ckpt_a, ckpt_b = a / "true_params.json", b / "true_params.json"
    assert sha256(ckpt_a) != sha256(ckpt_b)
    out = tmp_path / "cmp"
    assert run(["compare-fits", "--corpus", str(a / "corpus.jsonl"),
                "--schema", "flat", "--kind", "event", "--out", str(out),
                "--checkpoint-a", str(ckpt_a),
                "--checkpoint-b", str(ckpt_b)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["inputs"] == {"corpus.jsonl": sha256(a / "corpus.jsonl"),
                                  str(ckpt_a): sha256(ckpt_a),
                                  str(ckpt_b): sha256(ckpt_b)}


def test_ingest_window_below_one_is_usage_error(tmp_path, capsys):
    # the corpus does not exist: the window is checked before it is read
    capsys.readouterr()
    assert run(["ingest", "--corpus", str(tmp_path / "missing.jsonl"),
                "--window", "0", "--out", str(tmp_path / "out")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: invalid option value: window must be >= 1")
    assert "got 0" in err and "Traceback" not in err


def test_bad_corpus_is_data_error(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"doc_id": "d0"}\n')
    assert run(["ingest", "--corpus", str(bad),
                "--out", str(tmp_path / "out")]) == EXIT_DATA


def test_duplicate_document_ids_is_data_error(tmp_path, capsys):
    data = synth(tmp_path / "data")
    lines = (data / "corpus.jsonl").read_text().splitlines()
    dup = tmp_path / "dup.jsonl"
    dup.write_text("\n".join(lines + lines[:1]) + "\n")
    assert run(["ingest", "--corpus", str(dup), "--schema", "flat",
                "--out", str(tmp_path / "out")]) == EXIT_DATA
    assert f"line {len(lines) + 1}: duplicate document id" \
        in capsys.readouterr().err


def test_linalg_failure_is_compute_error(tmp_path, monkeypatch, capsys):
    # LinAlgError subclasses ValueError; it must still report exit 4
    data = synth(tmp_path / "data")

    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(cli, "fit", singular)
    assert run(["fit", "--corpus", str(data / "corpus.jsonl"),
                "--schema", "flat", "--out", str(tmp_path / "fit"),
                "--k-event", "2", "--k-entity", "2", "--k-role", "2",
                "--k-rel", "2"]) == EXIT_COMPUTE
    assert "compute error: Singular matrix" in capsys.readouterr().err


def _broken_checkpoint(tmp_path, edit):
    data = tmp_path / "data"
    assert run(["synth", "--out", str(data), "--docs", "3", "--seed", "1",
                "--k-event", "3", "--k-entity", "2", "--k-role", "2",
                "--k-rel", "2"]) == 0
    obj = json.loads((data / "true_params.json").read_text())
    edit(obj["props"]["telic"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    return data, bad


@pytest.mark.parametrize("edit, message", [
    (lambda p: p.pop("mu"), "props.telic.mu"),
    (lambda p: p.update(mu=p["mu"][:2]), "telic"),
], ids=["missing-key", "wrong-k"])
def test_malformed_checkpoint_is_data_error(tmp_path, capsys, edit, message):
    data, bad = _broken_checkpoint(tmp_path, edit)
    capsys.readouterr()
    assert run(["posteriors", "--corpus", str(data / "corpus.jsonl"),
                "--checkpoint", str(bad), "--out",
                str(tmp_path / "post")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error:") and message in err


def test_fit_then_posteriors(tmp_path):
    data = synth(tmp_path / "data")
    fitdir = tmp_path / "fit"
    assert run(["fit", "--corpus", str(data / "corpus.jsonl"),
                "--schema", "flat", "--out", str(fitdir),
                "--em-iters", "2", "--m-step-iters", "10",
                "--k-event", "2", "--k-entity", "2", "--k-role", "2",
                "--k-rel", "2", "--seed", "0"]) == 0
    trace = json.loads((fitdir / "trace.json").read_text())
    assert len(trace["train_evidence"]) >= 1

    postdir = tmp_path / "post"
    assert run(["posteriors", "--corpus", str(data / "corpus.jsonl"),
                "--checkpoint", str(fitdir / "checkpoint.json"),
                "--schema", "flat", "--out", str(postdir)]) == 0
    posts = json.loads((postdir / "posteriors.json").read_text())
    truth = json.loads((data / "truth.json").read_text())
    assert set(posts) == set(truth)
    for doc_id, elems in truth.items():
        assert set(posts[doc_id]) == set(elems)
        for probs in posts[doc_id].values():
            total = sum(float(v) for v in probs)
            assert total == pytest.approx(1.0, abs=1e-6)


def test_config_file_flag_precedence(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"docs": 2, "seed": 3, "k-event": 2,
                               "k-entity": 2, "k-role": 2, "k-rel": 2}))
    out = tmp_path / "out"
    assert run(["synth", "--out", str(out), "--config", str(cfg),
                "--seed", "9", "--schema", "flat"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    # flag wins over config file; config wins over built-in default
    assert manifest["seed"] == 9
    assert manifest["config"]["docs"] == 2


def test_config_env_var(tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"docs": 3, "k-event": 2, "k-entity": 2,
                               "k-role": 2, "k-rel": 2}))
    monkeypatch.setenv(CONFIG_ENV_VAR, str(cfg))
    out = tmp_path / "out"
    assert run(["synth", "--out", str(out), "--schema", "flat"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["docs"] == 3


def test_missing_config_file(tmp_path):
    assert run(["synth", "--out", str(tmp_path / "out"),
                "--config", str(tmp_path / "nope.json")]) == EXIT_USAGE


def test_agreement_subcommand(tmp_path):
    table = tmp_path / "resp.tsv"
    lines = ["item\tannotator\tvalue"]
    for k in range(8):
        for ann in ("x", "y"):
            lines.append(f"i{k}\t{ann}\t{k % 2}")
    table.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    assert run(["agreement", "--table", str(table), "--metric", "nominal",
                "--out", str(out)]) == 0
    report = json.loads((out / "agreement.json").read_text())
    assert report["alpha"] == pytest.approx(1.0)


def test_summarize_subcommand(tmp_path):
    data = synth(tmp_path / "data")
    out = tmp_path / "out"
    assert run(["summarize",
                "--checkpoint", str(data / "true_params.json"),
                "--schema", "flat", "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary) >= {"event", "entity", "role", "rel"}
    assert (out / "summary_long.tsv").exists()


def test_export_features_subcommand(tmp_path):
    data = synth(tmp_path / "data")
    out = tmp_path / "out"
    assert run(["export-features", "--corpus", str(data / "corpus.jsonl"),
                "--checkpoint", str(data / "true_params.json"),
                "--schema", "flat", "--out", str(out)]) == 0
    text = (out / "features.tsv").read_text().splitlines()
    header = text[0].split("\t")
    assert header[:2] == ["element", "row_kind"]
    assert header[-1] == "empty_pool"
    assert all(len(line.split("\t")) == len(header) for line in text[1:])


@pytest.mark.parametrize("flag", ["--checkpoint", "--corpus"])
def test_missing_input_file_is_data_error(tmp_path, capsys, flag):
    data = synth(tmp_path / "data")
    args = {"--corpus": str(data / "corpus.jsonl"),
            "--checkpoint": str(data / "true_params.json")}
    missing = str(tmp_path / "nope.json")
    args[flag] = missing
    capsys.readouterr()
    assert run(["posteriors", "--schema", "flat", "--out",
                str(tmp_path / "post")]
               + [x for pair in args.items() for x in pair]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"cannot read {missing}" in err and "Traceback" not in err


@pytest.mark.parametrize("k_event, key, edit", [
    ("2", "theta_event", lambda pr: pr.update(theta_event=[1.0])),
    ("3", "theta_event",
     lambda pr: pr.update(theta_event=pr["theta_event"][:2])),
    ("3", "theta_role", lambda pr: pr.update(theta_role=pr["theta_role"][1:])),
    ("3", "theta_rel.en",
     lambda pr: pr["theta_rel"].update(en=pr["theta_rel"]["en"][1:])),
], ids=["event-1-of-2", "event-2-of-3", "role", "rel-en"])
def test_prior_shape_mismatch_is_data_error(tmp_path, capsys, k_event, key,
                                            edit):
    data = tmp_path / "data"
    assert run(["synth", "--out", str(data), "--docs", "3", "--seed", "1",
                "--k-event", k_event, "--k-entity", "2", "--k-role", "2",
                "--k-rel", "2"]) == 0
    obj = json.loads((data / "true_params.json").read_text())
    edit(obj["priors"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    capsys.readouterr()
    assert run(["posteriors", "--corpus", str(data / "corpus.jsonl"),
                "--checkpoint", str(bad), "--out",
                str(tmp_path / "post")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {bad}: ") and f"priors.{key}" in err


def test_manifest_records_bp_convergence(tmp_path):
    data = synth(tmp_path / "data")
    runs = {}
    for name, extra in (("once", ["--bp-max-iters", "1"]), ("full", [])):
        out = tmp_path / name
        assert run(["posteriors", "--corpus", str(data / "corpus.jsonl"),
                    "--checkpoint", str(data / "true_params.json"),
                    "--schema", "flat", "--out", str(out), *extra]) == 0
        runs[name] = json.loads((out / "manifest.json").read_text())["bp"]
    doc_ids = sorted(json.loads((data / "truth.json").read_text()))
    assert runs["once"] == {"documents": 4, "unconverged": doc_ids,
                            "max_iterations": 1}
    assert runs["full"]["documents"] == 4
    assert runs["full"]["unconverged"] == []
    assert 1 < runs["full"]["max_iterations"] <= 200


@pytest.mark.parametrize("command", ["posteriors", "ingest"])
def test_uncreatable_output_dir_is_data_error(tmp_path, capsys, command):
    data = synth(tmp_path / "data")
    afile = tmp_path / "afile"
    afile.write_text("")
    out = str(afile / "sub")
    argv = [command, "--corpus", str(data / "corpus.jsonl"),
            "--schema", "flat", "--out", out]
    if command == "posteriors":
        argv += ["--checkpoint", str(data / "true_params.json")]
    capsys.readouterr()
    assert run(argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot create output directory {out}: ")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, value", [
    (["fit", "--adam-lr", "-1"], "-1"),
    (["fit", "--k-event", "0"], "0"),
    (["fit", "--m-step-iters", "-1"], "-1"),
    (["fit", "--window", "0"], "0"),
    (["select-k", "--kind", "event", "--candidates", "3,2"], "[3, 2]"),
    (["select-k", "--kind", "event", "--candidates", "a"], "'a'"),
    (["select-k", "--kind", "event", "--candidates", "0,1"], "[0, 1]"),
    (["select-k", "--kind", "event", "--candidates", "2", "--restarts", "0"],
     "0"),
    (["select-k", "--kind", "event", "--candidates", "2",
      "--bootstrap-samples", "10"], "10"),
    (["synth", "--annotators", "2", "--annotators-per-item", "3"], "3"),
    (["agreement", "--table", "{missing}", "--thresholds", "0.5,x"], "0.5,x"),
], ids=["adam-lr", "k-event", "m-step-iters", "window", "candidates-order",
        "candidates-int", "candidates-zero", "restarts", "bootstrap-samples",
        "annotators-per-item", "thresholds"])
def test_invalid_flag_value_is_usage_error(tmp_path, capsys, argv, value):
    # the corpus does not exist: the flag value is checked before any input
    # is read
    missing = str(tmp_path / "missing.jsonl")
    argv = [a.replace("{missing}", missing) for a in argv]
    if argv[0] in ("fit", "select-k"):
        argv += ["--corpus", missing]
    capsys.readouterr()
    assert run(argv + ["--out", str(tmp_path / "out")]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and value in err
    assert "Traceback" not in err


def test_checkpoint_type_count_out_of_range_is_data_error(tmp_path, capsys):
    data = synth(tmp_path / "data")
    obj = json.loads((data / "true_params.json").read_text())
    obj["inventory"]["k_event"] = 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    capsys.readouterr()
    assert run(["posteriors", "--corpus", str(data / "corpus.jsonl"),
                "--checkpoint", str(bad), "--schema", "flat",
                "--out", str(tmp_path / "post")]) == EXIT_DATA
    assert "k_event must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("command, key, value", [
    ("fit", "adam-lr", "x"),
    ("fit", "k-event", "three"),
    ("fit", "em-iters", 2.5),
    ("select-k", "restarts", "two"),
    ("synth", "docs", [4]),
], ids=["adam-lr-str", "k-event-str", "em-iters-float", "restarts-str",
        "docs-list"])
def test_config_value_of_wrong_type_is_usage_error(tmp_path, capsys, command,
                                                   key, value):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    missing = str(tmp_path / "missing.jsonl")
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out")]
    if command != "synth":
        argv += ["--corpus", missing]
    if command == "select-k":
        argv += ["--kind", "event", "--candidates", "2"]
    capsys.readouterr()
    assert run(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(key) in err
    assert "Traceback" not in err


def test_config_values_take_their_flag_types(tmp_path):
    cfg = tmp_path / "cfg.json"
    # a string holding a valid value is read as the flag would read it
    cfg.write_text(json.dumps({"docs": "2", "seed": 3, "separation": "3.5",
                               "k-event": "2", "k-entity": 2, "k-role": 2,
                               "k-rel": 2}))
    out = tmp_path / "out"
    assert run(["synth", "--out", str(out), "--config", str(cfg),
                "--schema", "flat"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["docs"] == 2
    assert manifest["config"]["separation"] == 3.5


def test_cli_imports_no_scipy():
    # the runtime depends on numpy alone; scipy is a test-only dependency
    import evstruct
    src = os.path.dirname(os.path.dirname(evstruct.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    code = ("import evstruct.cli, sys; "
            "print(sorted(m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')))")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def _widen_temporal_start(props):
    start = props["temporal_relation"]["start"]
    start["mu"] = [row + [0.0] for row in start["mu"]]
    start["rho"] = {a: v + [0.0] for a, v in start["rho"].items()} \
        or {"ann0": [0.0] * 4}
    start["sigma"] = np.eye(4).tolist()


def _drop_cutpoints(props):
    base = props["part_duration"]["base"]
    base["cut_raw"] = base["cut_raw"][:-2]


def _wide_rho_row(props):
    props["manner"]["rho"]["ann0"] = [0.0] * 4


@pytest.mark.parametrize("edit, key, have, need", [
    (_widen_temporal_start, "props.temporal_relation.start.mu", "(2, 4)",
     "(2, 3)"),
    (_drop_cutpoints, "props.part_duration.base.cut_raw", "(9,)", "(11,)"),
    (_wide_rho_row, "props.manner.rho.ann0", "(4,)", "(3,)"),
], ids=["temporal-block", "ordinal-cutpoints", "categorical-rho"])
def test_checkpoint_outcome_width_is_data_error(tmp_path, capsys, edit, key,
                                                have, need):
    # the default schema plus a 3-category role property
    schema = tmp_path / "schema.json"
    Schema(default_schema().properties + (PropertySpec(
        "manner", "role", PRED_ARG_EDGE, CATEGORICAL, n_categories=3),)
    ).save(schema)
    data = tmp_path / "data"
    assert run(["synth", "--out", str(data), "--docs", "3", "--seed", "1",
                "--schema", str(schema), "--k-event", "3", "--k-entity", "2",
                "--k-role", "2", "--k-rel", "2"]) == 0
    obj = json.loads((data / "true_params.json").read_text())
    edit(obj["props"])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    capsys.readouterr()
    assert run(["posteriors", "--corpus", str(data / "corpus.jsonl"),
                "--schema", str(schema), "--checkpoint", str(bad),
                "--out", str(tmp_path / "post")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error:")
    assert f"{key} has shape {have}" in err and f"need {need}" in err


def test_compare_fits_indexes_the_corpus_once(tmp_path, monkeypatch):
    from evstruct import learning
    data = synth(tmp_path / "data")
    assert run(["fit", "--corpus", str(data / "corpus.jsonl"),
                "--schema", "flat", "--out", str(tmp_path / "fit"),
                "--em-iters", "1", "--m-step-iters", "5",
                "--k-event", "2", "--k-entity", "2", "--k-role", "2",
                "--k-rel", "2"]) == 0
    argv = ["compare-fits", "--corpus", str(data / "corpus.jsonl"),
            "--schema", "flat", "--kind", "event",
            "--checkpoint-a", str(data / "true_params.json"),
            "--checkpoint-b", str(tmp_path / "fit" / "checkpoint.json")]
    calls = []
    original = learning.build_obs

    def counted(*args, **kwargs):
        calls.append(len(args[0]))
        return original(*args, **kwargs)

    with monkeypatch.context() as patch:
        for module in (cli, learning):
            patch.setattr(module, "build_obs", counted)
        assert run(argv + ["--out", str(tmp_path / "once")]) == 0
    assert calls == [4]
    # each E-step indexing the corpus itself gives the same table
    e_step = learning.e_step
    monkeypatch.setattr(cli, "e_step", lambda docs, params, schema, config,
                        obs=None: e_step(docs, params, schema, config))
    assert run(argv + ["--out", str(tmp_path / "twice")]) == 0
    assert (tmp_path / "once" / "confusion.tsv").read_bytes() \
        == (tmp_path / "twice" / "confusion.tsv").read_bytes()


def test_select_k_manifest_records_settings(tmp_path):
    data = synth(tmp_path / "data")
    out = tmp_path / "sel"
    assert run(["select-k", "--corpus", str(data / "corpus.jsonl"),
                "--schema", "flat", "--out", str(out), "--kind", "event",
                "--candidates", "1,2", "--restarts", "1",
                "--mixture-em-iters", "3", "--m-step-iters", "7",
                "--no-learn-rho"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"] == {
        "kind": "event", "candidates": [1, 2], "restarts": 1,
        "mixture-em-iters": 3, "bootstrap-samples": 1000, "level": 0.95,
        "dev-fraction": 0.2, "m-step-iters": 7, "adam-lr": 0.05,
        "confidence-weighting": True, "learn-rho": False}


def _agreement_table(path, confidence="0.5"):
    rows = ["item\tannotator\tvalue\tconfidence"]
    for k in range(6):
        for ann in ("x", "y"):
            rows.append(f"i{k}\t{ann}\t{k % 3}\t{confidence}")
    path.write_text("\n".join(rows) + "\n")
    return path


E_STEP_FLAGS = (["--bp-damping", "0.3", "--bp-max-iters", "7",
                 "--no-confidence-weighting", "--window", "3"],
                {"bp-damping": 0.3, "bp-max-iters": 7,
                 "confidence-weighting": False, "window": 3})


@pytest.mark.parametrize("command", ["fit", "posteriors", "entropy",
                                     "export-features", "compare-fits",
                                     "agreement"])
def test_manifest_records_every_option_read(tmp_path, command):
    data = synth(tmp_path / "data")
    corpus = str(data / "corpus.jsonl")
    ckpt = str(data / "true_params.json")
    extra, expected = E_STEP_FLAGS
    if command == "fit":
        argv = ["--corpus", corpus, "--em-iters", "1", "--m-step-iters", "5",
                "--dev-fraction", "0.5", "--k-event", "2", "--k-entity", "2",
                "--k-role", "2", "--k-rel", "2"] + extra
        expected = dict(expected, **{"dev-fraction": 0.5})
    elif command == "compare-fits":
        argv = ["--corpus", corpus, "--checkpoint-a", ckpt,
                "--checkpoint-b", ckpt, "--kind", "event"] + extra
        expected = dict(expected, kind="event")
    elif command == "agreement":
        table = _agreement_table(tmp_path / "resp.tsv")
        argv = ["--table", str(table), "--thresholds", "0.1,0.5",
                "--bootstrap", "--seed", "4"]
        expected = {"thresholds": [0.1, 0.5], "bootstrap": True,
                    "metric": "nominal"}
    else:
        argv = ["--corpus", corpus, "--checkpoint", ckpt] + extra
    out = tmp_path / "out"
    assert run([command, "--schema", "flat", "--out", str(out)] + argv) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    for key, value in expected.items():
        assert manifest["config"][key] == value, key
    if command == "agreement":
        assert manifest["seed"] == 4


def _run_with_config(tmp_path, obj, argv):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(obj))
    return run(argv + ["--config", str(cfg), "--out", str(tmp_path / "out")])


def test_config_switch_takes_a_json_boolean(tmp_path, capsys):
    # "false" is a string: read as a switch it would turn rho learning off
    capsys.readouterr()
    assert _run_with_config(tmp_path, {"no-learn-rho": "false"},
                            ["fit", "--corpus", str(tmp_path / "missing")]) \
        == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'no-learn-rho'" in err


def test_config_list_for_text_option_is_usage_error(tmp_path, capsys):
    table = _agreement_table(tmp_path / "resp.tsv")
    capsys.readouterr()
    assert _run_with_config(tmp_path, {"thresholds": [0.1, 0.2]},
                            ["agreement", "--table", str(table)]) \
        == EXIT_USAGE
    err = capsys.readouterr().err
    assert "'thresholds'" in err and "Traceback" not in err


def test_config_value_outside_choices_is_usage_error(tmp_path, capsys):
    table = _agreement_table(tmp_path / "resp.tsv")
    capsys.readouterr()
    assert _run_with_config(tmp_path, {"metric": "bogus"},
                            ["agreement", "--table", str(table)]) \
        == EXIT_USAGE
    err = capsys.readouterr().err
    assert "'metric'" in err and "'bogus'" in err


def test_config_schema_applies_to_ingest(tmp_path):
    data = synth(tmp_path / "data")
    corpus = str(data / "corpus.jsonl")
    assert _run_with_config(tmp_path, {"schema": "flat"},
                            ["ingest", "--corpus", corpus]) == 0
    flag = tmp_path / "flag"
    assert run(["ingest", "--corpus", corpus, "--schema", "flat",
                "--out", str(flag)]) == 0
    assert (tmp_path / "out" / "corpus.jsonl").read_bytes() \
        == (flag / "corpus.jsonl").read_bytes()


def test_non_numeric_confidence_names_file_and_line(tmp_path, capsys):
    table = _agreement_table(tmp_path / "resp.tsv", confidence="high")
    capsys.readouterr()
    assert run(["agreement", "--table", str(table),
                "--out", str(tmp_path / "out")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{table}:2: confidence 'high' is not a number" in err


# every flag each subcommand accepts
COMMON_FLAGS = ["--out", "--config", "--seed", "--threads", "--schema"]
FIT_FLAGS = ["--window", "--em-iters", "--m-step-iters", "--adam-lr",
             "--bp-max-iters", "--bp-damping", "--no-confidence-weighting",
             "--no-learn-rho", "--k-event", "--k-entity", "--k-role",
             "--k-rel"]
SUBCOMMAND_FLAGS = {
    "synth": ["--docs", "--sentences", "--predicates", "--arguments",
              "--eventive-prob", "--annotators", "--annotators-per-item",
              "--window", "--separation", "--sigma-ann", "--k-event",
              "--k-entity", "--k-role", "--k-rel"],
    "ingest": ["--corpus", "--window"],
    "fit": ["--corpus", "--dev", "--dev-fraction"] + FIT_FLAGS,
    "posteriors": ["--corpus", "--checkpoint"] + FIT_FLAGS,
    "select-k": ["--corpus", "--kind", "--candidates", "--restarts",
                 "--mixture-em-iters", "--bootstrap-samples",
                 "--dev-fraction"] + FIT_FLAGS,
    "summarize": ["--checkpoint", "--na-threshold"],
    "compare-fits": ["--corpus", "--checkpoint-a", "--checkpoint-b",
                     "--kind"] + FIT_FLAGS,
    "entropy": ["--corpus", "--checkpoint"] + FIT_FLAGS,
    "agreement": ["--table", "--metric", "--thresholds", "--bootstrap"],
    "export-features": ["--corpus", "--checkpoint"] + FIT_FLAGS,
}


def test_every_subcommand_help(capsys):
    # argparse formats help only when asked, so a bad option declaration
    # shows only here
    import re
    usage = cli.build_parser().format_usage()
    commands = re.search(r"\{([^}]*)\}", usage).group(1).split(",")
    assert set(commands) == set(SUBCOMMAND_FLAGS)
    for command in commands:
        with pytest.raises(SystemExit) as exc:
            run([command, "--help"])
        assert exc.value.code == 0, command
        text = capsys.readouterr().out
        for flag in COMMON_FLAGS + SUBCOMMAND_FLAGS[command]:
            assert re.search(rf"(?<![\w-]){flag}(?![\w-])", text), \
                (command, flag)
