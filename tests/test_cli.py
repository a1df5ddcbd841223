"""End-to-end command-line interface behavior."""

import hashlib
import json
import os

import numpy as np
import pytest

from evstruct import cli
from evstruct.cli import (
    CONFIG_ENV_VAR, EXIT_COMPUTE, EXIT_DATA, EXIT_USAGE, run,
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
