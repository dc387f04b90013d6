"""Core AMR graph model and its decomposition into Smatch-style triples.

An AMR is a rooted, labeled graph: variables carry concepts, edges carry
roles and point at other variables or at constants.  Graphs are immutable
after construction and every constructed value satisfies the structural
invariants (unique variable definitions, connectivity from the root), so
downstream code never has to re-validate.

Value objects are frozen, so graphs may share them, and parsed graphs do:
the parser builds each distinct ``Variable`` and ``Concept`` once per
process (see ``penman``), checked by its own constructor, from bounded
caches.  Compare values and graphs by equality, not identity.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Literal, Mapping, Optional, Union

# Characters that delimit tokens in PENMAN notation and therefore can never
# appear inside a variable name, concept label or bare constant.
_ILLEGAL_RE = re.compile(r'[\s():/"]')

# Lemma segments joined by hyphens, then a 2-3 digit sense.  A segment is a
# letter ([^\W\d_] is any Unicode letter) then letters, digits or apostrophes.
_FRAME_RE = re.compile(r"^(?:[^\W\d_](?:[^\W_]|')*-)+\d{2,3}$")


def _check_token(text: str, what: str) -> None:
    if not text:
        raise ValueError(f"{what} must be non-empty")
    bad = _ILLEGAL_RE.search(text)
    if bad:
        raise ValueError(f"{what} {text!r} contains illegal character {bad.group()!r}")


@dataclass(frozen=True)
class Variable:
    """A graph variable such as ``w`` or ``g2``; unique within one graph."""

    name: str

    def __post_init__(self) -> None:
        _check_token(self.name, "variable name")

    def __hash__(self) -> int:
        return hash(self.name)

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Concept:
    """A node label: a frame id like ``want-01`` or a plain concept like ``boy``."""

    label: str

    def __post_init__(self) -> None:
        _check_token(self.label, "concept label")

    @cached_property
    def is_frame(self) -> bool:
        """True when the label, in NFC, is lowercase lemma segments with a
        trailing two- or three-digit sense, e.g. ``go-01`` or ``lát-01``.
        Worked out once per object."""
        label = self.label
        if not label.isascii():
            from unicodedata import normalize  # loaded only once a label needs it
            label = normalize("NFC", label)
        return label.islower() and _FRAME_RE.match(label) is not None

    def __str__(self) -> str:
        return self.label


ConstantKind = Literal["string", "number", "symbol"]

_NUMBER_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")

# Bare (unquoted) attribute values that would otherwise look like variable
# references: the sentence-mode markers.
_MODE_SYMBOLS = frozenset({"imperative", "expressive", "interrogative"})


def _bare_kind(text: str) -> Optional[ConstantKind]:
    """How PENMAN reads a non-empty bare token that names no variable:
    ``"number"``, ``"symbol"``, or None for an undefined variable."""
    if _NUMBER_RE.match(text):
        return "number"
    if not text[0].isalpha() or text in _MODE_SYMBOLS:
        return "symbol"
    return None


@dataclass(frozen=True)
class Constant:
    """An attribute value: a quoted string, a number, or a bare symbol.

    The kind records surface form only.  Quoted strings keep their interior
    characters verbatim (spaces and parentheses included); the surrounding
    quotes are not part of ``value``.  Numbers and symbols are written
    bare, so each value must read back as its own kind: a symbol is not
    numeric and starts with a non-letter, unless it is a sentence-mode
    marker.
    """

    value: str
    kind: ConstantKind

    def __post_init__(self) -> None:
        if self.kind == "string":
            if '"' in self.value:
                raise ValueError("quoted constant cannot contain a quote character")
        elif self.kind == "number" or self.kind == "symbol":
            _check_token(self.value, f"{self.kind} constant")
            if _bare_kind(self.value) != self.kind:
                raise ValueError(f"{self.value!r} does not read back as a {self.kind} constant")
        else:
            raise ValueError(f"unknown constant kind: {self.kind!r}")

    def __str__(self) -> str:
        if self.kind == "string":
            return f'"{self.value}"'
        return self.value


Target = Union[Variable, Constant]

_ROLE_RE = re.compile(r':[^\s()/"]+')


@dataclass(frozen=True)
class Edge:
    """One labeled edge."""

    source: Variable
    role: str
    target: Target

    def __post_init__(self) -> None:
        if not _ROLE_RE.fullmatch(self.role):
            raise ValueError(f"malformed role: {self.role!r}")


TripleKind = Literal["instance", "attribute", "relation"]

INSTANCE_LABEL = "instance"
TOP_ROLE = ":top"
TOP_MARKER = Constant("<TOP>", "symbol")


@dataclass(frozen=True)
class Triple:
    """An atomic fact (source, label, target); the unit Smatch compares."""

    kind: TripleKind
    source: Variable
    label: str
    target: Union[Concept, Constant, Variable]

    def __post_init__(self) -> None:
        if self.kind == "instance":
            if self.label != INSTANCE_LABEL or not isinstance(self.target, Concept):
                raise ValueError("instance triples need label 'instance' and a Concept target")
        elif self.kind == "attribute":
            if not isinstance(self.target, Constant):
                raise ValueError("attribute triples need a Constant target")
        elif self.kind == "relation":
            if not isinstance(self.target, Variable):
                raise ValueError("relation triples need a Variable target")
        else:
            raise ValueError(f"unknown triple kind: {self.kind!r}")


def _reachable(root: str, edges: Iterable[Edge]) -> set[str]:
    """Names of the variables connected to the one named ``root`` by ``edges``.

    Connectivity ignores edge direction: a variable attached only via an
    edge it sources (e.g. after deleting its incoming relation) is still
    part of the graph.
    """
    neighbors: dict[str, list[str]] = {}
    for edge in edges:
        if isinstance(edge.target, Variable):
            source, target = edge.source.name, edge.target.name
            neighbors.setdefault(source, []).append(target)
            neighbors.setdefault(target, []).append(source)
    seen = {root}
    stack = [root]
    while stack:
        for nxt in neighbors.get(stack.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


@dataclass(frozen=True)
class AmrGraph:
    """A rooted AMR graph.

    ``instances`` maps each variable to its concept, in definition order.
    ``edges`` is the full edge list in surface order, so the edges sharing a
    source appear in their sibling order.  Construction validates that
    every mentioned variable is defined, that no bare constant is spelled
    like a variable, and that every variable is connected to the root.
    Connectivity is settled by a forward pass over the edges (a reached
    source reaches its target), enough for PENMAN surface order; the
    undirected walk ``_reachable`` runs only when that pass misses a variable.
    """

    root: Variable
    instances: Mapping[Variable, Concept]
    edges: tuple[Edge, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "instances", dict(self.instances))
        object.__setattr__(self, "edges", tuple(self.edges))
        names = {v.name for v in self.instances}
        if self.root.name not in names:
            raise ValueError(f"root {self.root} has no concept")
        reached = {self.root.name}  # reached from the root along edge direction
        for edge in self.edges:
            source, target = edge.source.name, edge.target
            if source not in names:
                raise ValueError(f"edge source {edge.source} is not a defined variable")
            if isinstance(target, Variable):
                if target.name not in names:
                    raise ValueError(f"edge target {target} is not a defined variable")
                if source in reached:
                    reached.add(target.name)
            elif target.kind != "string" and target.value in names:
                # written bare, it would read back as a reference
                raise ValueError(f"{target.kind} constant {target} is spelled like a variable")
        unreachable = len(reached) < len(names) and names - _reachable(self.root.name, self.edges)
        if unreachable:
            raise ValueError(f"variables not connected to root: {', '.join(sorted(unreachable))}")

    @classmethod
    def build(
        cls,
        root: Variable,
        instances: Mapping[Variable, Concept],
        edges: Iterable[tuple[Variable, str, Target]] = (),
    ) -> "AmrGraph":
        """Construct a graph from bare (source, role, target) edges."""
        return cls(root, instances, tuple(Edge(s, r, t) for s, r, t in edges))

    def variables(self) -> list[Variable]:
        """Variables in definition order."""
        return list(self.instances)

    def top_concept(self) -> Concept:
        """The concept at the root node."""
        return self.instances[self.root]

    def outgoing(self, var: Variable) -> list[Edge]:
        return [e for e in self.edges if e.source == var]

    def triples(self, include_top: bool = False) -> list[Triple]:
        """Decompose the graph into instance, attribute, and relation triples.

        One instance triple per variable, one attribute triple per
        constant-target edge, one relation triple per variable-target edge.
        With ``include_top`` an extra attribute triple ``(root, :top, <TOP>)``
        marks the root, so a wrong root costs exactly one triple in Smatch.
        """
        out: list[Triple] = []
        for var, concept in self.instances.items():
            out.append(Triple("instance", var, INSTANCE_LABEL, concept))
        for edge in self.edges:
            if isinstance(edge.target, Constant):
                out.append(Triple("attribute", edge.source, edge.role, edge.target))
            else:
                out.append(Triple("relation", edge.source, edge.role, edge.target))
        if include_top:
            out.append(Triple("attribute", self.root, TOP_ROLE, TOP_MARKER))
        return out

    def reentrant_variables(self) -> set[Variable]:
        """Variables mentioned as a target more than once, plus the root when
        it is a target at all.  These are the ones a serializer must emit as
        bare back-references after their first expansion."""
        counts: dict[str, int] = {self.root.name: 1}  # one mention makes the root reentrant
        for edge in self.edges:
            if isinstance(edge.target, Variable):
                counts[edge.target.name] = counts.get(edge.target.name, 0) + 1
        return {v for v in self.instances if counts.get(v.name, 0) > 1}
