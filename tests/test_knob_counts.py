"""Knob counts do not grow: run-description fields, CLI subcommands and flags.

Adding a field, a subcommand or a flag is a deliberate decision; this
test makes it a visible one (update the pinned number in the same change).
"""

import argparse
import dataclasses
import pathlib
import re

from repro.cli import build_parser
from repro.parallel.backend import ParallelRunSpec
from repro.reliability.config import ReliabilityConfig
from repro.service.frontend import ServiceConfig
from repro.sim.runspec import RunSpec

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"


def _subcommands() -> dict:
    parser = build_parser()
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_run_description_field_counts():
    counts = {
        cls.__name__: len(dataclasses.fields(cls))
        for cls in (RunSpec, ParallelRunSpec, ReliabilityConfig, ServiceConfig)
    }
    assert counts == {
        "RunSpec": 18,
        "ParallelRunSpec": 10,
        "ReliabilityConfig": 4,
        "ServiceConfig": 11,
    }


def test_cli_subcommands():
    assert sorted(_subcommands()) == [
        "compare",
        "envelopes",
        "experiments",
        "ingest",
        "list",
        "replay",
        "report",
        "run",
        "scenarios",
        "serve",
        "trace",
    ]


def test_cli_distinct_flags():
    flags = {
        option
        for subparser in _subcommands().values()
        for action in subparser._actions
        for option in action.option_strings
        if option not in ("-h", "--help")
    }
    assert len(flags) == 41, sorted(flags)


def test_no_environment_variables():
    pattern = re.compile(r"\bos\.environ\b|\bgetenv\(")
    readers = [
        str(path.relative_to(SRC))
        for path in sorted(SRC.rglob("*.py"))
        if pattern.search(path.read_text(encoding="utf-8"))
    ]
    assert readers == []
