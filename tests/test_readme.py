"""The README's command-line examples run as written."""

import re
import shlex
from pathlib import Path

from evstruct.cli import run

README = Path(__file__).resolve().parents[1] / "README.md"

SUBCOMMANDS = {"synth", "ingest", "fit", "posteriors", "select-k",
               "summarize", "compare-fits", "entropy", "export-features",
               "agreement"}


def readme_commands():
    """argv of each `evstruct` command in the README's sh blocks, with
    backslash continuations joined."""
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("evstruct "):
                commands.append(shlex.split(line)[1:])
    return commands


def write_responses(path):
    """A long-format agreement table: two annotators who agree and one
    who is off by one level on odd items, with lower confidence."""
    rows = ["item\tannotator\tvalue\tconfidence"]
    for i in range(24):
        for annotator, shift, conf in (("a", 0, 0.8), ("b", 0, 0.6),
                                       ("c", i % 2, 0.1)):
            rows.append(f"i{i}\t{annotator}\t{(i + shift) % 4}\t{conf}")
    path.write_text("\n".join(rows) + "\n")


def test_readme_commands_run_as_written(tmp_path, monkeypatch):
    commands = readme_commands()
    assert {argv[0] for argv in commands} == SUBCOMMANDS
    monkeypatch.chdir(tmp_path)
    write_responses(tmp_path / "responses.tsv")
    for argv in commands:
        assert run(argv) == 0, " ".join(argv)
    for out in ("data", "prepared", "fit", "fit2", "post", "sel", "summary",
                "cmp", "ent", "feats", "agr"):
        assert (tmp_path / out / "manifest.json").is_file()
