"""End-to-end command-line interface behavior."""

import dataclasses
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
from evstruct.learning import FitConfig
from evstruct.schema import (
    CATEGORICAL, DOCUMENT_EDGE, PRED_ARG_EDGE, PropertySpec, Schema,
    default_schema,
)
from evstruct.selection import SelectionConfig
from evstruct.synth import SynthConfig


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


@pytest.mark.parametrize("confidence", [2.7, True, "high"])
def test_ingest_confidence_not_an_integer_is_data_error(tmp_path, capsys,
                                                        confidence):
    data = synth(tmp_path / "data")
    lines = (data / "corpus.jsonl").read_text().splitlines()
    doc = json.loads(lines[0])
    first = doc["annotations"][0]
    first["confidence"] = confidence
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join([json.dumps(doc)] + lines[1:]) + "\n")
    capsys.readouterr()
    assert run(["ingest", "--corpus", str(bad), "--schema", "flat",
                "--out", str(tmp_path / "out")]) == EXIT_DATA
    assert (f"{doc['id']}: confidence {confidence!r} of "
            f"{first['annotator']}'s {first['property']} answer on "
            f"{first['element']} is not an integer in 1..5"
            in capsys.readouterr().err)


@pytest.mark.parametrize("field,value", [
    ("annotator", 7), ("property", ["x"]), ("element", ["x"])])
@pytest.mark.parametrize("command", ["ingest", "fit"])
def test_annotation_field_not_a_string_is_data_error(tmp_path, capsys,
                                                     command, field, value):
    # before, an int annotator ingested and then failed in fit with a
    # TypeError; a list property or element failed in ingest with one
    data = synth(tmp_path / "data")
    lines = (data / "corpus.jsonl").read_text().splitlines()
    doc = json.loads(lines[0])
    doc["annotations"][0][field] = value
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join([json.dumps(doc)] + lines[1:]) + "\n")
    capsys.readouterr()
    argv = [command, "--corpus", str(bad), "--schema", "flat",
            "--out", str(tmp_path / "out")]
    if command == "fit":
        argv += ["--em-iters", "1", "--m-step-iters", "1", "--k-event", "2",
                 "--k-entity", "2", "--k-role", "2", "--k-rel", "2"]
    assert run(argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {doc['id']}: ")
    assert f"{field} {value!r} is not a string" in err


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


def _telic_as_ordinal(obj):
    props = obj["props"]
    props["telic"] = {"family": "ordinal", "mu": props["telic"]["mu"],
                      "cut_raw": [0.0], "rho": {}, "sigma": [[1.0]]}
    return obj


def _similarity_without_gate(obj):
    props = obj["props"]
    props["part_similarity"] = props["part_similarity"]["base"]
    return obj


@pytest.mark.parametrize("edit, message", [
    (_telic_as_ordinal,
     "checkpoint props.telic is ordinal; the schema needs binary"),
    (_similarity_without_gate,
     "checkpoint props.part_similarity is binary; the schema needs hurdle"),
    (lambda obj: [], "checkpoint top level is not an object"),
    (lambda obj: {**obj, "annotators": 5},
     "checkpoint annotators is not a list of strings"),
    (lambda obj: {**obj, "annotators": ["ann0", 7]},
     "checkpoint annotators is not a list of strings"),
    (lambda obj: {**obj, "version": 2}, "unsupported checkpoint version 2"),
], ids=["other-family", "missing-gate", "top-level-list", "annotators-int",
        "annotators-non-string", "version"])
def test_checkpoint_structure_is_data_error(tmp_path, capsys, edit, message):
    data = tmp_path / "data"
    assert run(["synth", "--out", str(data), "--docs", "3", "--seed", "1",
                "--k-event", "3", "--k-entity", "2", "--k-role", "2",
                "--k-rel", "2"]) == 0
    obj = json.loads((data / "true_params.json").read_text())
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(edit(obj)))
    capsys.readouterr()
    assert run(["posteriors", "--corpus", str(data / "corpus.jsonl"),
                "--checkpoint", str(bad), "--out",
                str(tmp_path / "post")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error:") and f"{bad}: {message}" in err
    assert "Traceback" not in err


NAN, INF = float("nan"), float("inf")


def _set_first(value):
    """An edit that replaces the first number of a list."""
    def edit(old):
        return [value] + old[1:]
    return edit


@pytest.mark.parametrize("key, edit", [
    # values
    ("priors.theta_event", lambda old: [-1.0, 0.5, 1.5]),
    ("priors.theta_entity", lambda old: [0.3, 0.3]),
    ("priors.theta_rel.ee", lambda old: [[[NAN, 1.0]] * 3] * 3),
    ("inventory.k_event", lambda old: "3"),
    ("inventory.k_role", lambda old: True),
    ("props.telic.mu", _set_first(NAN)),
    ("props.part_duration.base.cut_raw", _set_first(INF)),
    ("props.telic.sigma", lambda old: -1),
    ("props.part_similarity.gate_sigma", lambda old: 0.0),
    ("props.temporal_relation.start.sigma",
     lambda old: [[1.0, 0.5, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]),
    ("props.part_duration.base.sigma",
     lambda old: (-np.eye(len(old))).tolist()),
    # structure
    ("props.telic.rho", lambda old: [0.1, 0.2]),
    ("props.telic.rho.ann0", lambda old: [0.1, 0.2]),
    ("props.telic.rho.ann0", lambda old: "x"),
    ("props.telic.mu", lambda old: [[0.0], [0.0, 1.0], [0.0]]),
    ("props.telic.sigma", lambda old: True),
    ("props.temporal_relation.start", lambda old: {**old, "family": "binary"}),
], ids=["theta-negative", "theta-sum", "theta-nan", "k-string", "k-bool",
        "mu-nan", "cut-raw-inf", "sigma-negative", "gate-sigma-zero",
        "sigma-asymmetric", "sigma-not-pd", "rho-list", "rho-entry-list",
        "rho-entry-string", "mu-ragged", "sigma-bool", "nested-family"])
def test_bad_checkpoint_value_is_data_error(tmp_path, capsys, key, edit):
    data = tmp_path / "data"
    assert run(["synth", "--out", str(data), "--docs", "3", "--seed", "1",
                "--k-event", "3", "--k-entity", "2", "--k-role", "2",
                "--k-rel", "2"]) == 0
    obj = json.loads((data / "true_params.json").read_text())
    *parents, last = key.split(".")
    node = obj
    for part in parents:
        node = node[part]
    node[last] = edit(node[last])
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    capsys.readouterr()
    assert run(["posteriors", "--corpus", str(data / "corpus.jsonl"),
                "--checkpoint", str(bad), "--out",
                str(tmp_path / "post")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error:") and f"checkpoint {key} " in err
    assert "Traceback" not in err


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


ONE_DOCUMENT = json.dumps({
    "id": "doc0000",
    "sentences": [{"predicates": [{"id": "d0s0p0"}], "arguments": [],
                   "edges": []}],
    "doc_edges": [],
    "annotations": [{"element": "d0s0p0", "property": "event_prop0",
                     "annotator": "ann0", "value": False, "confidence": 5}]})
CONFIDENT_TABLE = "item\tannotator\tvalue\tconfidence\ni0\tx\t1\t0.5\n"


@pytest.mark.parametrize("name, text, argv, code, message", [
    ("resp.tsv", "item\tcoder\tvalue\n", ["agreement", "--table"], EXIT_DATA,
     "error: {path}: expected columns item, annotator, value[, confidence]"),
    ("resp.tsv", "item\tannotator\tvalue\ni0\tx\n", ["agreement", "--table"],
     EXIT_DATA, "error: {path}:2: short row"),
    ("resp.tsv", CONFIDENT_TABLE,
     ["agreement", "--thresholds", "nan", "--table"], EXIT_DATA,
     "data error: thresholds must lie in [0, 1)"),
    ("resp.tsv", CONFIDENT_TABLE,
     ["agreement", "--thresholds", "0.2,nan,0.1", "--table"], EXIT_DATA,
     "data error: thresholds must be strictly increasing"),
    ("resp.tsv", CONFIDENT_TABLE,
     ["agreement", "--thresholds", "1.5", "--table"], EXIT_DATA,
     "data error: thresholds must lie in [0, 1)"),
    ("corpus.jsonl", ONE_DOCUMENT, ["fit", "--schema", "flat", "--corpus"],
     EXIT_DATA, "error: dev split would consume the whole corpus"),
    ("cfg.json", "[1]", ["synth", "--config"], EXIT_USAGE,
     "error: config file {path} must hold an object"),
    ("resp.tsv", "item\tannotator\tvalue\ni0\tx\t1\ni1\tx\t2\ni0\tx\t2\n",
     ["agreement", "--table"], EXIT_DATA,
     "error: {path}:4: annotator 'x' already answered item 'i0' on line 2"),
    ("resp.tsv", CONFIDENT_TABLE + "i0\ty\t1\tnan\n",
     ["agreement", "--table"], EXIT_DATA,
     "error: {path}:3: confidence 'nan' is not in [0, 1]"),
    ("resp.tsv", "item\tannotator\tvalue\ni0\ta\t1\ni0\tb\t1\ni1\ta\t0\n",
     ["agreement", "--thresholds", "0.2", "--table"], EXIT_DATA,
     "data error: cell ('i0', 'a') has no confidence score to threshold on"),
    ("resp.tsv", "item\tannotator\tvalue\ni0\ta\t1\ni1\ta\t0\ni2\ta\t1\n",
     ["agreement", "--bootstrap", "--table"], EXIT_DATA,
     "data error: alpha undefined in every resample"),
], ids=["table-header", "table-short-row", "threshold-nan",
        "thresholds-nan-unordered", "threshold-above-range", "one-document",
        "config-list", "table-repeated-pair", "table-confidence-nan",
        "thresholds-without-confidence", "bootstrap-one-annotator"])
def test_bad_input_file_or_value_names_the_problem(tmp_path, capsys, name,
                                                   text, argv, code, message):
    path = tmp_path / name
    path.write_text(text)
    capsys.readouterr()
    assert run(argv + [str(path), "--out", str(tmp_path / "out")]) == code
    assert capsys.readouterr().err == message.format(path=path) + "\n"


def test_ordinal_ranks_metric_is_gone(tmp_path):
    # it computed the interval metric under an ordinal name
    table = _agreement_table(tmp_path / "resp.tsv")
    with pytest.raises(SystemExit) as exc:
        run(["agreement", "--table", str(table), "--metric", "ordinal-ranks",
             "--out", str(tmp_path / "out")])
    assert exc.value.code == EXIT_USAGE


def test_fit_and_posteriors_score_a_raw_corpus(tmp_path):
    # ridit_confidence may be omitted: fit and posteriors score the corpus
    # as ingest would
    data = synth(tmp_path / "data")
    docs = [json.loads(line)
            for line in (data / "corpus.jsonl").read_text().splitlines()]
    for doc in docs:
        for i, ann in enumerate(doc["annotations"]):
            ann["confidence"] = 1 + i % 5     # so that the scores differ
            del ann["ridit_confidence"]
    raw = tmp_path / "raw.jsonl"
    raw.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
    assert run(["ingest", "--corpus", str(raw), "--schema", "flat",
                "--out", str(tmp_path / "prepared")]) == 0
    prepared = tmp_path / "prepared" / "corpus.jsonl"
    assert len({ann["ridit_confidence"]
                for line in prepared.read_text().splitlines()
                for ann in json.loads(line)["annotations"]}) > 1
    flags = ["--schema", "flat", "--em-iters", "2", "--m-step-iters", "3",
             "--k-event", "2", "--k-entity", "2", "--k-role", "2",
             "--k-rel", "2"]
    for name, corpus in (("raw", raw), ("prepared", prepared)):
        assert run(["fit", "--corpus", str(corpus),
                    "--out", str(tmp_path / f"fit-{name}")] + flags) == 0
        assert run(["posteriors", "--corpus", str(corpus), "--checkpoint",
                    str(tmp_path / "fit-raw" / "checkpoint.json"),
                    "--out", str(tmp_path / f"post-{name}")] + flags) == 0
    for out, name in (("fit", "checkpoint.json"), ("fit", "trace.json"),
                      ("post", "posteriors.json")):
        assert (tmp_path / f"{out}-raw" / name).read_bytes() \
            == (tmp_path / f"{out}-prepared" / name).read_bytes()


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


@pytest.mark.parametrize("where, value, message", [
    ("document", ["x"], "line 1: document id ['x'] is not a string"),
    ("document", 7, "line 1: document id 7 is not a string"),
    ("predicate", ["x"], "a predicate's id ['x'] is not a string"),
    ("edge", ["x"], "an edge's endpoint ['x'] is not a string"),
    ("supersense", ["event"], "supersense ['event'] is not a string"),
    ("span", float("nan"), "predicate d0s0p0's span nan is not a string"),
], ids=["doc-id-list", "doc-id-number", "predicate-id", "edge",
        "supersense", "span"])
@pytest.mark.parametrize("command", ["ingest", "fit"])
def test_id_or_supersense_not_a_string_is_data_error(tmp_path, capsys,
                                                     command, where, value,
                                                     message):
    # before, ingest ended in a TypeError traceback, or ingest passed and
    # fit or posteriors ended in one
    data = synth(tmp_path / "data")
    lines = (data / "corpus.jsonl").read_text().splitlines()
    doc = json.loads(lines[0])
    sent = doc["sentences"][0]
    if where == "document":
        doc["id"] = value
    elif where == "predicate":
        sent["predicates"][0]["id"] = value
    elif where == "edge":
        sent["edges"][0][0] = value
    elif where == "span":
        sent["predicates"][0]["span"] = value
    else:
        sent["arguments"][0]["supersense"] = value
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join([json.dumps(doc)] + lines[1:]) + "\n")
    capsys.readouterr()
    argv = [command, "--corpus", str(bad), "--schema", "flat",
            "--out", str(tmp_path / "out")]
    if command == "fit":
        argv += ["--em-iters", "1", "--m-step-iters", "1", "--k-event", "2",
                 "--k-entity", "2", "--k-role", "2", "--k-rel", "2"]
    assert run(argv) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("path, value, message", [
    (("sentences", 0, "arguments", 0, "id"), "d0s0p0", "duplicate node ids"),
    (("sentences", 0, "edges", 0), ["d0s0p0", "zz"],
     "edge d0s0p0->zz references unknown node"),
    (("sentences", 0, "edges", 0), ["d0s0p0a0", "d0s0p0"],
     "edge d0s0p0a0->d0s0p0 must join a predicate to an argument"),
    (("sentences", 0, "edges", 0), ["d0s0p0", "d0s1p0a0"],
     "edge d0s0p0->d0s1p0a0 crosses sentences"),
    (("doc_edges",), [["d0s0p0", "zz"]],
     "document edge d0s0p0--zz references unknown node"),
], ids=["duplicate-id", "unknown-node", "not-pred-arg", "crosses-sentences",
        "doc-edge-unknown-node"])
def test_graph_structure_error_is_data_error(tmp_path, capsys, path, value,
                                             message):
    data = synth(tmp_path / "data")
    lines = (data / "corpus.jsonl").read_text().splitlines()
    doc = target = json.loads(lines[0])
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join([json.dumps(doc)] + lines[1:]) + "\n")
    capsys.readouterr()
    assert run(["ingest", "--corpus", str(bad), "--schema", "flat",
                "--out", str(tmp_path / "out")]) == EXIT_DATA
    assert capsys.readouterr().err == f"data error: doc0000: {message}\n"


@pytest.mark.parametrize("argv, value", [
    (["posteriors", "--bp-damping", "1.0"], "bp_damping must be in [0, 1)"),
    (["posteriors", "--bp-damping", "1.5"], "got 1.5"),
    (["posteriors", "--bp-damping", "-0.1"], "got -0.1"),
    (["posteriors", "--bp-max-iters", "-3"], "bp_max_iters must be >= 1"),
    (["posteriors", "--bp-max-iters", "0"], "got 0"),
    (["fit", "--em-iters", "0"], "max_em_iters must be >= 1, got 0"),
    (["fit", "--em-iters", "-2"], "got -2"),
], ids=["damping-one", "damping-above-one", "damping-negative",
        "bp-iters-negative", "bp-iters-zero", "em-iters-zero",
        "em-iters-negative"])
def test_bp_or_em_setting_out_of_range_is_usage_error(tmp_path, capsys, argv,
                                                      value):
    # before, each exited 0: damping 1 wrote uniform marginals, damping 1.5
    # converged nowhere, and no iterations saved the initial parameters
    missing = str(tmp_path / "missing.jsonl")
    argv = argv + ["--corpus", missing, "--out", str(tmp_path / "out")]
    if argv[0] == "posteriors":
        argv += ["--checkpoint", missing]
    capsys.readouterr()
    assert run(argv) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: invalid option value: ") and value in err
    assert "Traceback" not in err


@pytest.mark.parametrize("schema, message", [
    ([{"subspace": "x"}], "schema entry 0 lacks name"),
    ({"a": 1}, "schema is not a list of property entries"),
    (["telic"], "schema entry 0 is not an object"),
    ([{"name": "cat", "subspace": "s", "attaches_to": "predicate-node",
       "response": "categorical", "n_categories": "3"}],
     "schema entry 0 (cat): n_categories '3' is not an integer"),
    ([{"name": "p", "subspace": "s", "attaches_to": "predicate-node",
       "response": "binary"},
      {"name": "q", "subspace": "s", "attaches_to": "predicate-node",
       "response": "binary", "gate": ["p"]}],
     "schema entry 1 (q): gate ['p'] is not a [parent property, boolean] "
     "pair"),
    ([{"name": 3, "subspace": "s", "attaches_to": "predicate-node",
       "response": "binary"}], "schema entry 0: name 3 is not a string"),
], ids=["no-name", "object", "entry-not-object", "n-categories-text",
        "gate-short", "name-number"])
def test_malformed_schema_file_is_data_error(tmp_path, capsys, schema,
                                             message):
    # before, each ended in a KeyError, AttributeError, TypeError or
    # IndexError traceback
    data = synth(tmp_path / "data")
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(schema))
    capsys.readouterr()
    assert run(["ingest", "--corpus", str(data / "corpus.jsonl"),
                "--schema", str(path), "--out", str(tmp_path / "out")]) \
        == EXIT_DATA
    err = capsys.readouterr().err
    assert err == f"data error: {path}: {message}\n"


def test_usage_error_leaves_next_run_unchanged(tmp_path, capsys):
    # every run parses with one parser, built once per process
    data = synth(tmp_path / "data")

    def ingest(*extra):
        return run(["ingest", "--corpus", str(data / "corpus.jsonl"),
                    "--schema", "flat", *extra])

    assert ingest("--out", str(tmp_path / "a")) == 0
    with pytest.raises(SystemExit):
        ingest("--window", "x", "--out", str(tmp_path / "b"))
    assert ingest("--window", "0", "--out", str(tmp_path / "b")) \
        == EXIT_USAGE
    with pytest.raises(SystemExit):
        ingest()                                    # no --out
    assert ingest("--out", str(tmp_path / "c")) == 0
    assert cli.build_parser() is cli.build_parser()
    for name in ("corpus.jsonl", "stats.txt"):
        assert sha256(tmp_path / "a" / name) == sha256(tmp_path / "c" / name)
    config = [json.loads((tmp_path / d / "manifest.json").read_text())
              ["config"] for d in "ac"]
    assert config[0] == config[1]


# the type counts of the default schema's corpora below
K_FLAGS = ["--k-event", "3", "--k-entity", "2", "--k-role", "2",
           "--k-rel", "2"]


def _features(tmp_path, corpus, checkpoint, name):
    out = tmp_path / name
    assert run(["export-features", "--corpus", str(corpus), "--checkpoint",
                str(checkpoint), "--out", str(out)] + K_FLAGS) == 0
    return (out / "features.tsv").read_text().splitlines()


def test_export_features_on_an_empty_corpus_is_data_error(tmp_path, capsys):
    # it raised an IndexError reading the first document's posteriors
    data = tmp_path / "data"
    assert run(["synth", "--out", str(data), "--docs", "1"]
               + K_FLAGS) == 0
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    capsys.readouterr()
    assert run(["export-features", "--corpus", str(empty), "--checkpoint",
                str(data / "true_params.json"), "--out",
                str(tmp_path / "out")] + K_FLAGS) == EXIT_DATA
    assert capsys.readouterr().err == (
        "data error: posteriors lack event, role, or entity variables\n")


def test_export_features_takes_type_counts_from_any_document(tmp_path):
    # it read them from the first document only, which here has no
    # arguments, and so found no role or entity variables
    data = tmp_path / "data"
    assert run(["synth", "--out", str(data), "--docs", "4", "--seed", "1"]
               + K_FLAGS) == 0
    ckpt = data / "true_params.json"
    lines = (data / "corpus.jsonl").read_text().splitlines()
    first = json.loads(lines[0])
    gone = set()
    for sent in first["sentences"]:
        gone.update(a["id"] for a in sent["arguments"])
        gone.update(f"{p}->{a}" for p, a in sent["edges"])
        sent["arguments"], sent["edges"] = [], []
    assert not any(a in gone or b in gone for a, b in first["doc_edges"])
    first["annotations"] = [a for a in first["annotations"]
                            if a["element"] not in gone]
    edited = tmp_path / "edited.jsonl"
    edited.write_text("\n".join([json.dumps(first)] + lines[1:]) + "\n")
    rest = tmp_path / "rest.jsonl"
    rest.write_text("\n".join(lines[1:]) + "\n")
    preds = [[p["id"], "predicate"]
             for s in first["sentences"] for p in s["predicates"]]

    got = _features(tmp_path, edited, ckpt, "edited")
    alone = _features(tmp_path, rest, ckpt, "rest")
    assert got[0] == alone[0]                           # header
    assert [row.split("\t")[:2] for row in got[1:1 + len(preds)]] == preds
    assert got[1 + len(preds):] == alone[1:]


def test_entropy_without_arguments_reports_event_and_rel(tmp_path):
    data = tmp_path / "data"
    assert run(["synth", "--out", str(data), "--docs", "3", "--arguments",
                "0", "--seed", "2"] + K_FLAGS) == 0
    out = tmp_path / "out"
    assert run(["entropy", "--corpus", str(data / "corpus.jsonl"),
                "--checkpoint", str(data / "true_params.json"),
                "--out", str(out)] + K_FLAGS) == 0
    assert set(json.loads((out / "entropy.json").read_text())) \
        == {"event", "rel"}


def _outputs(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())
            if p.name != "manifest.json"}


def test_blank_lines_are_skipped(tmp_path):
    data = synth(tmp_path / "data")
    corpus = (data / "corpus.jsonl").read_text().splitlines()
    table = _agreement_table(tmp_path / "resp.tsv").read_text().splitlines()
    blank_corpus = tmp_path / "blank.jsonl"
    blank_corpus.write_text("\n" + "\n\n".join(corpus) + "\n  \n")
    blank_table = tmp_path / "blank.tsv"
    blank_table.write_text(table[0] + "\n\n" + "\n".join(table[1:3]) + "\n \n"
                           + "\n".join(table[3:]) + "\n\n")
    for name, plain, blank in (("corpus", data / "corpus.jsonl", blank_corpus),
                               ("table", tmp_path / "resp.tsv", blank_table)):
        outs = []
        for path in (plain, blank):
            out = tmp_path / f"{name}-{path.stem}"
            argv = (["ingest", "--corpus", str(path), "--schema", "flat"]
                    if name == "corpus" else
                    ["agreement", "--table", str(path), "--thresholds", "0.2"])
            assert run(argv + ["--out", str(out)]) == 0
            outs.append(_outputs(out))
        assert outs[0] == outs[1] and outs[0]


SCHEMA_ENTRY = {"subspace": "s", "attaches_to": "predicate-node"}


@pytest.mark.parametrize("schema, message", [
    ([dict(SCHEMA_ENTRY, name="c", response="categorical", n_categories=1)],
     "c: categorical needs >= 2 categories"),
    ([dict(SCHEMA_ENTRY, name="p", response="binary"),
      dict(SCHEMA_ENTRY, name="p", response="binary")],
     "duplicate property name 'p'"),
    ([dict(SCHEMA_ENTRY, name="p", response="binary"),
      dict(SCHEMA_ENTRY, name="q", response="binary", gate=["p", True],
           attaches_to="argument-node")],
     "q: gate parent p attaches to a different element kind"),
    ([dict(SCHEMA_ENTRY, name="p", response="categorical", n_categories=3),
      dict(SCHEMA_ENTRY, name="q", response="binary", gate=["p", True])],
     "q: gate parent must be binary"),
], ids=["one-category", "repeated-name", "gate-other-kind",
        "gate-not-binary"])
def test_inconsistent_schema_file_is_data_error(tmp_path, capsys, schema,
                                                message):
    data = synth(tmp_path / "data")
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(schema))
    capsys.readouterr()
    assert run(["ingest", "--corpus", str(data / "corpus.jsonl"),
                "--schema", str(path), "--out", str(tmp_path / "out")]) \
        == EXIT_DATA
    assert capsys.readouterr().err == f"data error: {path}: {message}\n"


def test_kind_without_elements_is_data_error(tmp_path, capsys):
    # one predicate per document: no event pairs, so no relation elements
    data = tmp_path / "data"
    assert run(["synth", "--out", str(data), "--docs", "4", "--sentences",
                "1", "--predicates", "1", "--arguments", "1"] + K_FLAGS) == 0
    corpus, ckpt = str(data / "corpus.jsonl"), str(data / "true_params.json")
    for argv, message in (
            (["select-k", "--corpus", corpus, "--candidates", "1,2"],
             "no annotated rel elements"),
            (["compare-fits", "--corpus", corpus, "--checkpoint-a", ckpt,
              "--checkpoint-b", ckpt] + K_FLAGS,
             "no rel elements in the posterior sets")):
        capsys.readouterr()
        assert run(argv + ["--kind", "rel", "--out",
                           str(tmp_path / argv[0])]) == EXIT_DATA
        assert capsys.readouterr().err == f"data error: {message}\n"


def test_entropy_of_a_single_role_type_is_zero(tmp_path):
    flags = ["--k-event", "3", "--k-entity", "2", "--k-role", "1",
             "--k-rel", "2"]
    data = tmp_path / "data"
    assert run(["synth", "--out", str(data), "--docs", "4"] + flags) == 0
    corpus = str(data / "corpus.jsonl")
    assert run(["fit", "--corpus", corpus, "--out", str(tmp_path / "fit"),
                "--em-iters", "1", "--m-step-iters", "5"] + flags) == 0
    out = tmp_path / "out"
    assert run(["entropy", "--corpus", corpus, "--checkpoint",
                str(tmp_path / "fit" / "checkpoint.json"),
                "--out", str(out)] + flags) == 0
    stats = json.loads((out / "entropy.json").read_text())
    assert stats["role"] == {"mean": 0.0, "median": 0.0}
    assert stats["event"]["mean"] > 0.0


def _sigmas(obj):
    if isinstance(obj, dict):
        for key, value in obj.items():
            if key.endswith("sigma"):
                yield value
            yield from _sigmas(value)


def test_fit_without_annotations(tmp_path):
    data = tmp_path / "data"
    assert run(["synth", "--out", str(data), "--docs", "4"] + K_FLAGS) == 0
    docs = [json.loads(line) for line in
            (data / "corpus.jsonl").read_text().splitlines()]
    for doc in docs:
        doc["annotations"] = []
    bare = tmp_path / "bare.jsonl"
    bare.write_text("".join(json.dumps(doc) + "\n" for doc in docs))
    out = tmp_path / "out"
    assert run(["fit", "--corpus", str(bare), "--out", str(out),
                "--em-iters", "2", "--m-step-iters", "5"] + K_FLAGS) == 0
    trace = json.loads((out / "trace.json").read_text())
    evidence = trace["train_evidence"] + trace["dev_evidence"]
    assert len(evidence) == 4
    assert evidence == pytest.approx([0.0] * 4, abs=1e-12)
    ckpt = json.loads((out / "checkpoint.json").read_text())
    assert ckpt["annotators"] == []
    sigmas = list(_sigmas(ckpt))
    assert sigmas
    for sigma in sigmas:
        sigma = np.atleast_2d(sigma)
        assert np.array_equal(sigma, np.eye(len(sigma)))


def test_fit_with_a_schema_without_relation_properties(tmp_path):
    schema = tmp_path / "schema.json"
    Schema(tuple(p for p in default_schema()
                 if p.attaches_to != DOCUMENT_EDGE)).save(schema)
    data = tmp_path / "data"
    assert run(["synth", "--out", str(data), "--docs", "4", "--schema",
                str(schema)] + K_FLAGS) == 0
    out = tmp_path / "out"
    assert run(["fit", "--corpus", str(data / "corpus.jsonl"), "--schema",
                str(schema), "--out", str(out), "--em-iters", "1",
                "--m-step-iters", "5"] + K_FLAGS) == 0
    assert json.loads((out / "trace.json").read_text())["train_evidence"]


def test_agreement_on_string_labels(tmp_path):
    table = tmp_path / "resp.tsv"
    rows = ["item\tannotator\tvalue"]
    for k in range(6):
        for ann in ("x", "y"):
            rows.append(f"i{k}\t{ann}\t{'yes' if k % 2 else 'no'}")
    table.write_text("\n".join(rows) + "\n")
    out = tmp_path / "out"
    assert run(["agreement", "--table", str(table), "--metric", "nominal",
                "--out", str(out)]) == 0
    assert json.loads((out / "agreement.json").read_text())["alpha"] == 1.0


def test_temporal_value_holding_bools_is_data_error(tmp_path, capsys):
    # a bool passed the temporal-tuple check, and the prepared corpus kept it
    data = tmp_path / "data"
    assert run(["synth", "--out", str(data), "--docs", "6", "--sentences",
                "2", "--predicates", "2", "--arguments", "1", "--k-event",
                "2", "--k-entity", "2", "--k-role", "2", "--k-rel", "2",
                "--seed", "0"]) == 0
    docs = [json.loads(line) for line in
            (data / "corpus.jsonl").read_text().splitlines()]
    doc, ann = next((doc, ann) for doc in docs for ann in doc["annotations"]
                    if ann["property"] == "temporal_relation")
    ann["value"] = [False, 0.2, True, 1.0]
    corpus = tmp_path / "bools.jsonl"
    corpus.write_text("".join(json.dumps(d) + "\n" for d in docs))
    capsys.readouterr()
    assert run(["ingest", "--corpus", str(corpus), "--out",
                str(tmp_path / "out")]) == EXIT_DATA
    assert capsys.readouterr().err == (
        f"data error: {doc['id']}: value [False, 0.2, True, 1.0] does not "
        f"match temporal-tuple property temporal_relation\n")


def _value_table(path, values):
    rows = ["item\tannotator\tvalue"]
    for k, value in enumerate(values):
        rows += [f"i{k}\tx\t{value}", f"i{k}\ty\t{value}"]
    path.write_text("\n".join(rows) + "\n")
    return path


def test_ordinal_agreement_needs_numeric_values(tmp_path, capsys):
    # numpy's conversion error named neither the file nor the line
    table = _value_table(tmp_path / "words.tsv", ["low", "high", "low"])
    capsys.readouterr()
    assert run(["agreement", "--table", str(table), "--metric", "ordinal",
                "--out", str(tmp_path / "out")]) == EXIT_DATA
    assert capsys.readouterr().err == (
        f"error: {table}:2: value 'low' is not a number, which --metric "
        f"ordinal needs\n")
    out = tmp_path / "nominal"
    assert run(["agreement", "--table", str(table), "--metric", "nominal",
                "--out", str(out)]) == 0
    assert json.loads((out / "agreement.json").read_text())["alpha"] == 1.0


def test_ordinal_agreement_reads_numeric_strings(tmp_path):
    table = _value_table(tmp_path / "halves.tsv", ["2.5", "1", "3.5"])
    out = tmp_path / "out"
    assert run(["agreement", "--table", str(table), "--metric", "ordinal",
                "--out", str(out)]) == 0
    assert json.loads((out / "agreement.json").read_text())["alpha"] == 1.0


def test_option_defaults_match_their_dataclass_fields():
    # --separation has defaulted to 4.0 against SynthConfig's 2.0 from the
    # start; changing either default would change synthesized corpora
    exceptions = {("separation", SynthConfig)}
    assert cli.OPTIONS["separation"].default == 4.0
    assert SynthConfig.separation == 2.0
    checked = set()
    for cls in (FitConfig, SynthConfig, SelectionConfig):
        defaults = {f.name: f.default for f in dataclasses.fields(cls)
                    if f.default is not dataclasses.MISSING}
        for name, opt in cli.OPTIONS.items():
            field = (opt.field or name.removeprefix("no-")).replace("-", "_")
            if field not in defaults or (name, cls) in exceptions:
                continue
            default = opt.default
            if opt.type is bool and name.startswith("no-"):
                default = not default
            assert default == defaults[field], (name, cls.__name__)
            checked.add(name)
    # each way an option reaches a field: Option.field, its own name, and
    # a --no-X switch
    assert {"em-iters", "mixture-em-iters", "bp-damping", "sigma-ann",
            "restarts", "no-learn-rho"} <= checked
