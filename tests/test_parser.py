"""The command line accepts exactly the variants and observables of the library."""

import argparse

from qmap import OBSERVABLES, VARIANTS
from qmap.cli import build_parser


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
        assert tuple(choices["observable"]) == OBSERVABLES
