"""The README names only diagnostic codes, rules and classes that exist."""

from __future__ import annotations

import builtins
import re
from pathlib import Path

import amrkit
from amrkit import DiagnosticCode, Rule

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")

# backticked CamelCase words such as `UnbalancedParen` or `AmrGraph`
_CAMEL_RE = re.compile(r"`([A-Z][a-z]+(?:[A-Z][a-z]*)+)`")


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
