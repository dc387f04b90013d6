"""The README names only diagnostic codes, rules, classes and command-line
flags that exist, and names every long command-line flag."""

from __future__ import annotations

import argparse
import builtins
import re
from pathlib import Path

import amrkit
from amrkit import DiagnosticCode, Rule
from amrkit.cli import build_parser

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")

# backticked CamelCase words such as `UnbalancedParen` or `AmrGraph`
_CAMEL_RE = re.compile(r"`([A-Z][a-z]+(?:[A-Z][a-z]*)+)`")

# the flag at the start of a backticked span such as `--jobs N`
_FLAG_RE = re.compile(r"`(--[a-z][a-z0-9-]*)")


def test_every_camel_case_name_exists():
    known = (
        {code.value for code in DiagnosticCode}
        | {rule.value for rule in Rule}
        | set(amrkit.__all__)
        | set(dir(builtins))
    )
    named = set(_CAMEL_RE.findall(README))
    assert named, "the pattern found no names in the README"
    assert sorted(named - known) == []


def test_parser_section_lists_every_diagnostic_code():
    section = README[README.index("### Parsing and serialization") : README.index("### Validation")]
    assert {code.value for code in DiagnosticCode} <= set(_CAMEL_RE.findall(section))


def _cli_flags() -> set[str]:
    parser = build_parser()
    [commands] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        flag
        for sub in commands.choices.values()
        for action in sub._actions
        for flag in action.option_strings
    }


def test_every_flag_exists():
    named = set(_FLAG_RE.findall(README))
    assert named, "the pattern found no flags in the README"
    assert sorted(named - _cli_flags()) == []


def test_every_long_flag_is_named():
    long_flags = {flag for flag in _cli_flags() if flag.startswith("--")} - {"--help"}
    assert sorted(long_flags - set(_FLAG_RE.findall(README))) == []
