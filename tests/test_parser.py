"""The command line accepts exactly the variants and observables of the
library, and every example of README."""

import argparse
import json
import pathlib
import re
import shlex
import textwrap

from qmap import OBSERVABLES, VARIANTS
from qmap.cli import _runspec_from_args, build_parser
from qmap.config import READ_BY_ALL, READS

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def subparsers(parser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices
    raise AssertionError("parser has no subcommands")


def test_choices_come_from_the_library():
    commands = subparsers(build_parser())
    assert set(commands) == {"classical", "spectrum", "sweep", "scaling",
                             "ergodicity"}
    for sub in commands.values():
        choices = {a.dest: a.choices for a in sub._actions}
        assert tuple(choices["variant"]) == VARIANTS
        if "observable" in choices:
            assert tuple(choices["observable"]) == OBSERVABLES


def test_each_command_has_the_flags_of_the_fields_it_reads():
    for command, sub in subparsers(build_parser()).items():
        options = {a.dest: a.option_strings for a in sub._actions
                   if a.dest not in ("help", "config")}
        # the grids are set from config files only
        expected = set(READ_BY_ALL + READS[command]) - {"command", "r_grid",
                                                       "T_grid"}
        assert set(options) == expected, command
        # N and N_list share --N; a command reads one of them
        assert [options[f] for f in ("N", "N_list") if f in options] \
            == [["--N"]]


def test_every_readme_example_resolves(tmp_path, monkeypatch):
    # each indented `qmap ...` line parses and resolves to a RunSpec,
    # without running; `qmap --config run.json` reads the JSON block shown
    # above it
    text = README.read_text()
    examples = re.findall(r"^    qmap (.*)$", text, re.M)
    block = re.search(r"\n((?:    .*\n)+)\n    qmap --config run\.json\n",
                      text).group(1)
    (tmp_path / "run.json").write_text(textwrap.dedent(block))
    config = json.loads((tmp_path / "run.json").read_text())
    monkeypatch.chdir(tmp_path)
    assert len(examples) >= 8
    for example in examples:
        argv = shlex.split(example)
        spec = _runspec_from_args(build_parser().parse_args(argv))
        assert spec.command == (config["command"] if argv[0] == "--config"
                                else argv[0]), example
