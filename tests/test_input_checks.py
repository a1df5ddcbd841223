"""Inputs that used to pass or fail with the wrong exit code: corpus
containers that are not JSON lists, edges that are not two-entry lists,
out-of-range numeric options, schema or checkpoint files that are not
JSON, and checkpoint values of the wrong JSON type."""

import json
import math
import re

import pytest

from evstruct import cli
from evstruct.cli import EXIT_DATA, EXIT_USAGE, run
from evstruct.corpus import ParseError, load_corpus
from evstruct.params import (
    CheckpointError, TypeInventory, check_params, params_from_obj,
    params_to_obj,
)
from evstruct.schema import Schema, SchemaError
from evstruct.synth import SynthConfig, flat_schema, sample_corpus

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


# ---------------------------------------------------------------------------
# numeric option ranges

PROBES = ["nan", "inf", "-inf", "-1", "0", "-0.5", "1.5"]
# the valid values of each numeric option, stated independently of the code
# (an int option also rejects every value that is not an integer)
AT_LEAST_1 = ("docs", "sentences", "predicates", "annotators",
              "annotators-per-item", "window", "k-event", "k-entity",
              "k-role", "k-rel", "em-iters", "bp-max-iters", "restarts",
              "mixture-em-iters")
VALID = {
    **{flag: lambda v: v >= 1 for flag in AT_LEAST_1},
    **{flag: lambda v: v >= 0 for flag in ("arguments", "seed",
                                           "m-step-iters")},
    "bootstrap-samples": lambda v: v >= 1000,
    "eventive-prob": lambda v: 0 <= v <= 1,
    "separation": lambda v: 0 <= v < math.inf,
    "sigma-ann": lambda v: 0 <= v < math.inf,
    "adam-lr": lambda v: 0 < v < math.inf,
    "bp-damping": lambda v: 0 <= v < 1,
    "dev-fraction": lambda v: 0 < v < 1,
    "na-threshold": lambda v: 0 <= v <= 1,
}
FLOATS = ("eventive-prob", "separation", "sigma-ann", "adam-lr",
          "bp-damping", "dev-fraction", "na-threshold")
K_FLAGS = ("k-event", "k-entity", "k-role", "k-rel")
# the numeric options each command reads
READS = {
    "synth": ("docs", "sentences", "predicates", "arguments",
              "eventive-prob", "annotators", "annotators-per-item", "window",
              "seed", "separation", "sigma-ann") + K_FLAGS,
    "fit": ("window", "em-iters", "m-step-iters", "adam-lr", "bp-max-iters",
            "bp-damping", "seed", "dev-fraction") + K_FLAGS,
    "posteriors": ("window", "bp-max-iters", "bp-damping", "seed"),
    "select-k": ("restarts", "mixture-em-iters", "bootstrap-samples", "seed",
                 "m-step-iters", "adam-lr", "dev-fraction"),
    "summarize": ("na-threshold",),
    "agreement": ("seed",),
}


def valid(flag, text):
    value = float(text)
    if flag not in FLOATS and not value.is_integer():
        return False
    return VALID[flag](value)


def probe_argv(command, tmp_path):
    """The command with inputs that do not exist, so that it exits 3 once
    its options pass; synth, which reads no input, writes one document."""
    missing = str(tmp_path / "missing")
    inputs = {"synth": ["--docs", "1", "--schema", "flat"],
              "fit": ["--corpus", missing],
              "posteriors": ["--corpus", missing, "--checkpoint", missing],
              "select-k": ["--corpus", missing, "--kind", "event",
                           "--candidates", "1,2"],
              "summarize": ["--checkpoint", missing],
              "agreement": ["--table", missing]}
    return [command, "--out", str(tmp_path / "out")] + inputs[command]


def names(err, flag):
    """Whether err names the flag or the config field it sets."""
    field = (cli.OPTIONS[flag].field or flag).replace("-", "_")
    return f"--{flag}" in err or field in err


def exit_code(argv):
    try:
        return run(argv)
    except SystemExit as exc:           # argparse rejects the value's type
        return exc.code


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command, flags in READS.items() for flag in flags])
def test_numeric_option_probe(tmp_path, capsys, command, flag):
    # before, synth --separation nan wrote NaN parameters, synth --docs -1
    # an empty corpus, summarize --na-threshold 1.5 a summary, and
    # synth or fit --seed -1 exited 3
    for value in PROBES:
        code = exit_code(probe_argv(command, tmp_path)
                         + [f"--{flag}={value}"])
        err = capsys.readouterr().err
        assert "Traceback" not in err, (value, err)
        if valid(flag, value):
            assert code in (0, EXIT_DATA), (value, err)
        else:
            assert code == EXIT_USAGE, (value, err)
            assert names(err, flag), (value, err)


@pytest.mark.parametrize("command, key, value", [
    ("posteriors", "seed", -1),
    ("posteriors", "bp-damping", 1),
    ("summarize", "na-threshold", float("nan")),
    ("synth", "eventive-prob", 1.5),
])
def test_config_value_out_of_range_is_usage_error(tmp_path, capsys, command,
                                                  key, value):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({key: value}))
    code = run(probe_argv(command, tmp_path) + ["--config", str(cfg)])
    err = capsys.readouterr().err
    assert code == EXIT_USAGE, err
    assert names(err, key)


# ---------------------------------------------------------------------------
# edges

def malformed_edges(data, tmp_path, container, edit):
    lines = (data / "corpus.jsonl").read_text().splitlines()
    obj = json.loads(lines[LINE - 1])
    owner = obj if container == "doc_edges" else obj["sentences"][0]
    a, b = owner[container][0]
    return edited_corpus(data, tmp_path, container,
                         [edit(a, b)] + owner[container][1:])


EDGE_EDITS = {"three": lambda a, b: [a, b, b], "one": lambda a, b: [a],
              "string": lambda a, b: "ab", "object": lambda a, b: {a: b}}


@pytest.mark.parametrize("edit", EDGE_EDITS)
@pytest.mark.parametrize("container", ["edges", "doc_edges"])
def test_edge_not_a_pair_is_parse_error(data, tmp_path, container, edit):
    # before, a third entry was dropped, "ab" read as the edge a->b, and one
    # entry or an object raised an IndexError or KeyError
    path = malformed_edges(data, tmp_path, container, EDGE_EDITS[edit])
    with pytest.raises(ParseError) as exc:
        load_corpus(path, flat_schema(), window=2)
    assert exc.value.line == LINE
    assert f"{container} entry" in str(exc.value)


@pytest.mark.parametrize("edit", EDGE_EDITS)
@pytest.mark.parametrize("container", ["edges", "doc_edges"])
def test_ingest_edge_not_a_pair_exits_3(data, tmp_path, capsys, container,
                                        edit):
    path = malformed_edges(data, tmp_path, container, EDGE_EDITS[edit])
    assert run(["ingest", "--corpus", str(path), "--schema", "flat",
                "--out", str(tmp_path / "out")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert f"line {LINE}: " in err and f"{container} entry" in err
    assert "Traceback" not in err


# ---------------------------------------------------------------------------
# checkpoint values

@pytest.fixture(scope="module")
def truth():
    """A synthesized 3-document corpus's true checkpoint and its schema."""
    cfg = SynthConfig(inventory=TypeInventory(3, 2, 2, 2), n_docs=3,
                      n_annotators=2, seed=1)
    _, _, params = sample_corpus(cfg)
    return params_to_obj(params), cfg.schema


@pytest.mark.parametrize("path, message", [
    (("version",), "unsupported checkpoint version True"),
    (("props", "telic", "mu", 0), "checkpoint props.telic.mu is not"),
    (("props", "part_duration", "base", "sigma", 0, 0),
     "checkpoint props.part_duration.base.sigma is not"),
], ids=["version", "mu", "sigma"])
def test_checkpoint_bool_is_checkpoint_error(truth, path, message):
    # before, each read as the number 1
    obj = json.loads(json.dumps(truth[0]))
    with pytest.raises(CheckpointError, match=re.escape(message)):
        check_params(params_from_obj(mutated(obj, path, True)[0]), truth[1])


def test_checkpoint_type_count_names_key(data, tmp_path, capsys):
    # before: "data error: k_event must be >= 1, got 0"
    obj = json.loads((data / "true_params.json").read_text())
    obj["inventory"]["k_event"] = 0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(obj))
    assert run(["posteriors", "--corpus", str(data / "corpus.jsonl"),
                "--checkpoint", str(bad), "--schema", "flat",
                "--out", str(tmp_path / "out")]) == EXIT_DATA
    err = capsys.readouterr().err
    assert (f"{bad}: checkpoint inventory.k_event must be >= 1, got 0"
            in err)


DELETE = object()
REPLACEMENTS = [None, True, 7, -1, 2.5, float("nan"), "x", [], {}, ["x"],
                DELETE]


def field_paths(obj, path=()):
    """The path of obj and of every value inside it; the first entry of a
    list stands for all of them, unless they are objects, whose fields
    differ (schema entries)."""
    yield path
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield from field_paths(value, path + (key,))
    elif isinstance(obj, list) and obj:
        objects = all(isinstance(v, dict) for v in obj)
        for i, value in enumerate(obj if objects else obj[:1]):
            yield from field_paths(value, path + (i,))


def mutated(obj, path, value):
    """obj with the value at path replaced, or deleted, in place; and a
    function that undoes the change."""
    if not path:
        return (None if value is DELETE else value), lambda: None
    *outer, key = path
    owner = obj
    for k in outer:
        owner = owner[k]
    old = owner[key]
    if value is DELETE:
        del owner[key]
    else:
        owner[key] = value

    def undo():
        if value is DELETE and isinstance(owner, list):
            owner.insert(key, old)
        else:
            owner[key] = old
    return obj, undo


def test_single_field_mutations_raise_only_load_errors(truth):
    ckpt, schema = truth
    ckpt = json.loads(json.dumps(ckpt))
    schema_obj = schema.to_obj()
    cases = 0
    for obj, load, error in [
            (ckpt, lambda o: check_params(params_from_obj(o), schema),
             CheckpointError),
            (schema_obj, Schema.from_obj, SchemaError)]:
        for path in list(field_paths(obj)):
            for value in REPLACEMENTS:
                case, undo = mutated(obj, path, value)
                try:
                    load(case)
                except error:
                    pass
                except Exception as exc:
                    pytest.fail(f"{path} = {value!r}: {exc!r}")
                finally:
                    undo()
                cases += 1
    assert cases > 1000
