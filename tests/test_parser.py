"""The command line accepts exactly the variants and observables of the
library, and every example of README; every qmap name and constant that
README cites exists, with the value README gives it."""

import argparse
import importlib
import json
import pathlib
import re
import shlex
import textwrap

from qmap import OBSERVABLES, VARIANTS
from qmap.cli import _runspec_from_args, build_parser
from qmap.config import COMMANDS, READ_BY_ALL, READS

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
SOURCE = README.parent / "src" / "qmap"
# a backticked name in capitals: a module constant or an environment variable
CAPITALS = r"_?[A-Z][A-Z0-9]*(?:_[A-Z0-9]+)*"


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
    # above it.  Together they show every command.
    text = README.read_text()
    examples = re.findall(r"^    qmap (.*)$", text, re.M)
    block = re.search(r"\n((?:    .*\n)+)\n    qmap --config run\.json\n",
                      text).group(1)
    (tmp_path / "run.json").write_text(textwrap.dedent(block))
    config = json.loads((tmp_path / "run.json").read_text())
    monkeypatch.chdir(tmp_path)
    assert len(examples) >= 8
    shown = set()
    for example in examples:
        argv = shlex.split(example)
        spec = _runspec_from_args(build_parser().parse_args(argv))
        assert spec.command == (config["command"] if argv[0] == "--config"
                                else argv[0]), example
        shown.add(spec.command)
    assert shown == set(COMMANDS)


def resolve(dotted: str):
    """The object a dotted name such as qmap.sweep._fit_log_model names:
    its longest importable prefix, then getattr down the rest."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for name in parts[cut:]:
            obj = getattr(obj, name)
        return obj
    raise AssertionError(f"nothing of {dotted} imports")


def test_every_dotted_qmap_name_in_readme_resolves():
    names = set(re.findall(r"`(qmap(?:\.\w+)+)`", README.read_text()))
    assert len(names) >= 8
    for name in sorted(names):
        resolve(name)


def module_constants() -> dict:
    """Every module-level name in capitals of a qmap module, with the
    values it has there."""
    constants = {}
    for path in SOURCE.glob("*.py"):
        module = importlib.import_module(
            "qmap" if path.stem == "__init__" else f"qmap.{path.stem}")
        for name, value in vars(module).items():
            if re.fullmatch(CAPITALS, name):
                constants.setdefault(name, []).append(value)
    return constants


def test_every_backticked_constant_in_readme_is_defined():
    text = README.read_text()
    constants = module_constants()
    # environment variables are named as string literals where qmap reads
    # or sets them
    source = "".join(p.read_text() for p in SOURCE.glob("*.py"))
    variables = set(re.findall(rf'"({CAPITALS})"', source))
    cited = set(re.findall(rf"`({CAPITALS})`", text))
    assert {"_CLUSTER_GAP", "MAX_REFINEMENTS", "QMAP_THREADS"} <= cited
    for name in sorted(cited):
        assert name in constants or name in variables, name


def test_every_readme_constant_value_is_the_constants():
    constants = module_constants()
    given = re.findall(rf"`({CAPITALS})` = ([-+0-9.e]+)", README.read_text())
    assert len(given) >= 5
    for name, value in given:
        assert name in constants, name
        for defined in constants[name]:
            assert float(defined) == float(value.rstrip(".")), name
