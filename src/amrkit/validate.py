"""Quality checks for AMR graphs.

Two checks catch the most common defects in automatically produced AMRs:
an ``and`` node with fewer than two ``:op`` operands, and a predicate
frame used with a core argument its lexicon entry does not define.  A
third rule label, Structural, is reserved for entries whose text does not
parse at all; corpus filtering attaches it to those.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass
from importlib.resources import files
from typing import IO, Iterable, Mapping, Optional, Union

from .graph import AmrGraph, Concept, Variable


class Rule(enum.Enum):
    """Categories of quality violations, in reporting order."""

    AND_ARITY = "AndArity"
    UNKNOWN_FRAME = "UnknownFrame"
    ILLEGAL_ARG = "IllegalArg"
    STRUCTURAL = "Structural"


_RULE_ORDER = {rule: index for index, rule in enumerate(Rule)}


@dataclass(frozen=True)
class Violation:
    """One detected problem: the rule, the variable it concerns (empty for
    whole-entry problems), and a human-readable detail."""

    rule: Rule
    node: str
    detail: str

    def sort_key(self) -> tuple[str, int, str]:
        return (self.node, _RULE_ORDER[self.rule], self.detail)

    def __str__(self) -> str:
        where = f" at {self.node}" if self.node else ""
        return f"{self.rule.value}{where}: {self.detail}"


@dataclass(frozen=True)
class ValidationReport:
    """The outcome of validating one graph; no violations means it passed."""

    violations: tuple[Violation, ...]
    graph_id: str = ""

    @property
    def passed(self) -> bool:
        return not self.violations

    def counts(self) -> dict[Rule, int]:
        out: dict[Rule, int] = {}
        for violation in self.violations:
            out[violation.rule] = out.get(violation.rule, 0) + 1
        return out


@dataclass(frozen=True)
class FrameEntry:
    """A predicate frame and the core argument roles it defines."""

    frame_id: str
    allowed_args: frozenset[str]

    def __post_init__(self) -> None:
        if not Concept(self.frame_id).is_frame:
            raise ValueError(f"not a frame id (needs a sense suffix): {self.frame_id!r}")

    def allows(self, role: str) -> bool:
        return role in self.allowed_args


class LexiconError(ValueError):
    """Raised for a malformed frame lexicon file."""


@dataclass(frozen=True)
class FrameLexicon:
    """Frame ids mapped to their allowed core argument roles."""

    entries: Mapping[str, FrameEntry]
    source_name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", dict(self.entries))

    def __contains__(self, frame_id: str) -> bool:
        return frame_id in self.entries

    def __len__(self) -> int:
        return len(self.entries)

    def get(self, frame_id: str) -> Optional[FrameEntry]:
        return self.entries.get(frame_id)

    @classmethod
    def from_pairs(
        cls, pairs: Iterable[tuple[str, Iterable[str]]], source_name: str = ""
    ) -> "FrameLexicon":
        """Build a lexicon from (frame_id, roles) pairs; roles may be given
        with or without the leading colon."""
        entries = {}
        for frame_id, roles in pairs:
            normalized = frozenset(r if r.startswith(":") else f":{r}" for r in roles)
            entries[frame_id] = FrameEntry(frame_id, normalized)
        return cls(entries, source_name)


# a lexicon entry lists core roles ARG0..ARG6, the span PropBank framesets
# use; a graph's :ARGn is a core role whatever n is
_ROLE_FIELD_RE = re.compile(r"^:?ARG[0-6]$")


def _parse_lexicon(lines: Iterable[str], source: str) -> FrameLexicon:
    entries: dict[str, FrameEntry] = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\n")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise LexiconError(
                f"{source}:{lineno}: expected 'frame<TAB>roles', got {line!r}"
            )
        frame_id, role_field = fields[0].strip(), fields[1].strip()
        if frame_id in entries:
            raise LexiconError(f"{source}:{lineno}: duplicate frame {frame_id!r}")
        roles = set()
        if role_field:
            # an empty role field is legal and means a zero-argument frame
            for part in role_field.split(","):
                part = part.strip()
                if not _ROLE_FIELD_RE.match(part):
                    raise LexiconError(
                        f"{source}:{lineno}: bad role {part!r} for frame {frame_id!r}"
                    )
                roles.add(part if part.startswith(":") else f":{part}")
        try:
            entries[frame_id] = FrameEntry(frame_id, frozenset(roles))
        except ValueError as err:
            raise LexiconError(f"{source}:{lineno}: {err}") from err
    return FrameLexicon(entries, source)


def load_frame_lexicon(source: Union[str, IO[str]]) -> FrameLexicon:
    """Load a tab-separated frame lexicon from a path or an open stream.

    Each line is ``frame_id<TAB>role,role,...`` where roles are core
    arguments (``ARG0`` or ``:ARG0``).  An empty role list declares a
    frame with no core arguments.  Blank lines and ``#`` comments are
    skipped.  Raises LexiconError with the offending line number on bad
    input; an empty file is a valid empty lexicon.
    """
    if isinstance(source, str):
        with open(source, encoding="utf-8-sig") as handle:
            return _parse_lexicon(handle, source)
    return _parse_lexicon(source, getattr(source, "name", "<stream>"))


def default_frame_lexicon() -> FrameLexicon:
    """The small frame lexicon bundled with the package."""
    text = (files("amrkit") / "data" / "frames.tsv").read_text(encoding="utf-8")
    return _parse_lexicon(text.splitlines(), "bundled frames.tsv")


_OP_ROLE_RE = re.compile(r"^:op\d+$")
_ARG_ROLE_RE = re.compile(r"^:ARG\d+$")
_ARG_OF_ROLE_RE = re.compile(r"^:ARG\d+-of$")

AND_MIN_OPERANDS = 2


def check_and_operands(graph: AmrGraph) -> list[Violation]:
    """Flag every ``and`` node with fewer than two ``:op`` edges."""
    op_counts: dict[str, int] = {}
    for edge in graph.edges:
        if _OP_ROLE_RE.match(edge.role):
            op_counts[edge.source.name] = op_counts.get(edge.source.name, 0) + 1
    out = []
    for var, concept in graph.instances.items():
        if concept.label != "and":
            continue
        count = op_counts.get(var.name, 0)
        if count < AND_MIN_OPERANDS:
            out.append(
                Violation(
                    Rule.AND_ARITY,
                    var.name,
                    f"'and' node has {count} :op operands (minimum {AND_MIN_OPERANDS})",
                )
            )
    return out


def check_frame_args(
    graph: AmrGraph,
    lexicon: FrameLexicon,
    unknown_frame_policy: str = "ignore",
) -> list[Violation]:
    """Check every predicate frame's core arguments against the lexicon.

    A concept with a trailing sense number (``want-01``) is a frame.
    Frames absent from the lexicon are skipped under policy ``ignore``
    and reported as UnknownFrame under policy ``flag``; their arguments
    are never judged either way.  Non-core roles are never checked.
    """
    if unknown_frame_policy not in ("ignore", "flag"):
        raise ValueError(
            f"unknown_frame_policy must be 'ignore' or 'flag', got {unknown_frame_policy!r}"
        )
    core_roles: dict[str, set[str]] = {}
    for edge in graph.edges:
        role = edge.role
        if _ARG_ROLE_RE.match(role):
            core_roles.setdefault(edge.source.name, set()).add(role)
        elif _ARG_OF_ROLE_RE.match(role) and isinstance(edge.target, Variable):
            # an incoming :ARGn-of edge asserts the same fact as an outgoing
            # :ARGn edge, so both count as the frame using role :ARGn
            core_roles.setdefault(edge.target.name, set()).add(role[: -len("-of")])
    out = []
    for var, concept in graph.instances.items():
        if not concept.is_frame:
            continue
        entry = lexicon.get(concept.label)
        if entry is None:
            if unknown_frame_policy == "flag":
                out.append(
                    Violation(
                        Rule.UNKNOWN_FRAME,
                        var.name,
                        f"frame '{concept.label}' is not in the lexicon",
                    )
                )
            continue
        for role in sorted(core_roles.get(var.name, ())):
            if not entry.allows(role):
                out.append(
                    Violation(
                        Rule.ILLEGAL_ARG,
                        var.name,
                        f"frame '{concept.label}' does not allow {role}",
                    )
                )
    return out


def validate(
    graph: AmrGraph,
    lexicon: FrameLexicon,
    unknown_frame_policy: str = "ignore",
    graph_id: str = "",
) -> ValidationReport:
    """Run all graph-level checks and return a deterministic report.

    Structural soundness (connectivity, unique definitions) is already
    guaranteed by graph construction, so only the content rules can fire
    here.  Violations are sorted by variable name, then rule, then
    detail, so identical inputs always produce identical reports.
    """
    found = check_and_operands(graph) + check_frame_args(graph, lexicon, unknown_frame_policy)
    return ValidationReport(tuple(sorted(found, key=Violation.sort_key)), graph_id)
