"""Inputs that used to pass or fail with the wrong exit code: corpus
containers that are not JSON lists, out-of-range numeric options, and
schema or checkpoint files that are not JSON."""

import json

import pytest

from evstruct.cli import EXIT_DATA, EXIT_USAGE, run
from evstruct.corpus import ParseError, load_corpus
from evstruct.synth import flat_schema

CONTAINERS = ["sentences", "doc_edges", "annotations", "predicates",
              "arguments", "edges"]
LINE = 2                                # the edited document's line


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    assert run(["synth", "--out", str(out), "--docs", "6", "--annotators",
                "3", "--annotators-per-item", "2", "--seed", "3",
                "--schema", "flat", "--k-event", "2", "--k-entity", "2",
                "--k-role", "2", "--k-rel", "2"]) == 0
    return out


def edited_corpus(data, tmp_path, container, value):
    lines = (data / "corpus.jsonl").read_text().splitlines()
    obj = json.loads(lines[LINE - 1])
    owner = obj if container in ("sentences", "doc_edges", "annotations") \
        else obj["sentences"][0]
    assert owner[container], container       # something to drop
    owner[container] = value
    lines[LINE - 1] = json.dumps(obj)
    path = tmp_path / "corpus.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return path


@pytest.mark.parametrize("value", [{}, ""], ids=["object", "string"])
@pytest.mark.parametrize("container", CONTAINERS)
def test_container_not_a_list_is_parse_error(data, tmp_path, container,
                                             value):
    path = edited_corpus(data, tmp_path, container, value)
    with pytest.raises(ParseError) as exc:
        load_corpus(path, flat_schema(), window=2)
    assert exc.value.line == LINE
    assert f"{container} is not a JSON list" in str(exc.value)


@pytest.mark.parametrize("container", CONTAINERS)
def test_ingest_container_not_a_list_exits_3(data, tmp_path, capsys,
                                             container):
    path = edited_corpus(data, tmp_path, container, {})
    assert run(["ingest", "--corpus", str(path), "--schema", "flat",
                "--out", str(tmp_path / "out")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"line {LINE}: " in err and f"{container} is not" in err
    assert "Traceback" not in err


def command(data, tmp_path, name):
    corpus = str(data / "corpus.jsonl")
    out = str(tmp_path / "out")
    if name == "fit":
        return ["fit", "--corpus", corpus, "--out", out, "--schema", "flat",
                "--em-iters", "1", "--m-step-iters", "1"]
    return ["select-k", "--corpus", corpus, "--out", out, "--schema",
            "flat", "--kind", "event", "--candidates", "1,2",
            "--restarts", "1", "--mixture-em-iters", "1",
            "--m-step-iters", "1"]


OUT_OF_RANGE = ["nan", "inf", "-inf", "0", "-0.5", "1", "1.5"]


@pytest.mark.parametrize("flag, value", [
    *(("dev-fraction", v) for v in OUT_OF_RANGE),
    # a learning rate of 1 or 1.5 is valid
    *(("adam-lr", v) for v in OUT_OF_RANGE if float(v) not in (1, 1.5))])
@pytest.mark.parametrize("name", ["fit", "select-k"])
def test_numeric_option_out_of_range_is_usage_error(data, tmp_path, capsys,
                                                    name, flag, value):
    code = run(command(data, tmp_path, name) + [f"--{flag}={value}"])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE, err
    assert {"dev-fraction": "--dev-fraction", "adam-lr": "adam_lr"}[flag] \
        in err
    assert "Traceback" not in err


def test_dev_fraction_in_range_still_runs(data, tmp_path):
    assert run(command(data, tmp_path, "fit")
               + ["--dev-fraction", "0.5"]) == 0


def test_schema_not_json_names_file(data, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\n")
    assert run(["ingest", "--corpus", str(data / "corpus.jsonl"),
                "--schema", str(bad), "--out", str(tmp_path / "out")]) \
        == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{bad}: not valid JSON" in err and "Traceback" not in err


def test_checkpoint_not_json_names_file(data, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{\n")
    assert run(["posteriors", "--corpus", str(data / "corpus.jsonl"),
                "--schema", "flat", "--checkpoint", str(bad),
                "--out", str(tmp_path / "out")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"{bad}: not valid JSON" in err and "Traceback" not in err
