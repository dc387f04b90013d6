"""Reading and writing AMR graphs in PENMAN notation.

``parse`` accepts the usual pretty-printed multi-line form and collects
every problem it can find before raising, so callers see all diagnostics
for a bad graph at once.  Tokens are located in the text (offset, line and
column) only when a problem is reported, so a clean parse computes no
position.  ``serialize_canonical`` writes the one canonical surface form:
a single line, depth-first, each variable expanded at its first mention,
a space before and after every parenthesis.

Parsed graphs may share their immutable value objects: each distinct
variable name and concept label is built and checked by its own
constructor once per process, and later parses reuse that object, so
compare graphs and values by equality, not identity.  Each of the two
caches keeps at most ``_CACHE_SIZE`` values.  Constants, whose values vary
far more than names and labels do, are built afresh for every edge.
"""

from __future__ import annotations

import enum
import re
from bisect import bisect_left
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Optional, Union

from .graph import AmrGraph, Concept, Constant, Edge, Variable, _bare_kind, _reachable

WIKI_ROLE = ":wiki"

# The most values each of the parser's caches keeps.
_CACHE_SIZE = 4096

# the parser's constructors: the first call with a value builds and checks
# it, later calls return that frozen object
_variable = lru_cache(maxsize=_CACHE_SIZE)(Variable)
_concept = lru_cache(maxsize=_CACHE_SIZE)(Concept)


class DiagnosticCode(enum.Enum):
    """Machine-readable categories for parse problems."""

    UNBALANCED_PAREN = "UnbalancedParen"
    MISSING_CONCEPT = "MissingConcept"
    DUPLICATE_VARIABLE = "DuplicateVariable"
    UNDEFINED_VARIABLE = "UndefinedVariable"
    EMPTY_ROLE = "EmptyRole"
    MALFORMED_TOKEN = "MalformedToken"


@dataclass(frozen=True)
class ParseDiagnostic:
    """One problem found while parsing, located by line and column (1-based)."""

    code: DiagnosticCode
    message: str
    line: int
    column: int
    offset: int

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: {self.code.value}: {self.message}"


class ParseError(ValueError):
    """Raised when PENMAN text cannot be parsed; carries every diagnostic."""

    def __init__(self, diagnostics: list[ParseDiagnostic]):
        self.diagnostics = list(diagnostics)
        first = self.diagnostics[0]
        extra = len(self.diagnostics) - 1
        msg = str(first) if extra == 0 else f"{first} (and {extra} more)"
        super().__init__(msg)


# The whitespace before a token, then in the group one alternative per
# token kind; ``\Z`` makes the end of input a token, "", so trailing
# whitespace takes one match, not one failed try per character.  A string
# without its closing quote runs to the end of the input.
_TOKEN_RE = re.compile(r'\s*(\(|\)|/|"[^"]*"?|:[^\s()/"]*|[^\s():/"]+|\Z)')
# a token is an atom unless its first character is one of these; the end
# of input, "", is not an atom either, being in every string
_NOT_ATOM = '()/":'


def _shown(token: str) -> str:
    """A token as messages quote it: a string without its quotes."""
    return token[1:-1] if token[:1] == '"' else token


class _Parser:
    """Parser with best-effort recovery: it keeps going after a problem so
    one pass reports everything, and only builds a graph when no
    diagnostics were produced.  Nesting is kept on an explicit stack, so
    depth is limited by memory, not by Python's recursion limit.

    A token is its text, and its first character gives its kind: one of
    ``( ) / " :``, anything else for an atom, and the empty string for
    the end of input.  The parser refers to tokens by index, and locates
    them in the text only when a problem is reported."""

    def __init__(self, text: str):
        self.text = text
        self.diags: list[ParseDiagnostic] = []
        self.offsets: Optional[list[int]] = None  # token offsets, found at the first report
        self.newlines: list[int] = []  # offsets of "\n", found with the token offsets
        self.tokens = self.lex()
        self.pos = 0
        self.instances: dict[str, Concept] = {}
        self.defined_at: dict[str, int] = {}
        self.edges: list[tuple[str, str, Union[str, Constant]]] = []
        # targets recorded as bare strings are variable references or bare
        # constants; they are told apart once every definition is known
        self.pending: list[tuple[int, int]] = []  # (edge index, token index)
        self.synthetic = 0

    def lex(self) -> list[str]:
        """Split the text into tokens, ending with the end-of-input token.
        A string token always ends in its closing quote."""
        tokens = _TOKEN_RE.findall(self.text)
        # trailing whitespace leaves a second end token, an empty match
        if tokens[-2:] == ["", ""]:
            tokens.pop()
        # only the last token before the end can be a string that runs to it
        if len(tokens) > 1 and tokens[-2][0] == '"' and not tokens[-2][1:].endswith('"'):
            self.report(
                DiagnosticCode.MALFORMED_TOKEN, "unterminated quoted string", len(tokens) - 2
            )
            tokens[-2] += '"'
        return tokens

    def position(self, index: int) -> tuple[int, int, int]:
        """Offset and 1-based line and column of the token at ``index``."""
        if self.offsets is None:
            self.offsets = [m.start(1) for m in _TOKEN_RE.finditer(self.text)]
            self.newlines = [m.start() for m in re.finditer("\n", self.text)]
        offset = self.offsets[index]
        before = bisect_left(self.newlines, offset)
        return offset, before + 1, offset - (self.newlines[before - 1] if before else -1)

    def report(self, code: DiagnosticCode, message: str, index: int) -> None:
        offset, line, column = self.position(index)
        self.diags.append(ParseDiagnostic(code, message, line, column, offset))

    def parse(self) -> AmrGraph:
        token = self.tokens[0]
        if token != "(":
            found = repr(_shown(token)) if token else "end of input"
            self.report(DiagnosticCode.MALFORMED_TOKEN, f"expected '(' but found {found}", 0)
            raise ParseError(self.diags)
        root = self.parse_node()
        token = self.tokens[self.pos]
        if token == ")":
            self.report(DiagnosticCode.UNBALANCED_PAREN, "unmatched ')'", self.pos)
        elif token:
            self.report(
                DiagnosticCode.MALFORMED_TOKEN,
                f"unexpected text after the graph: {_shown(token)!r}",
                self.pos,
            )
        self.resolve_pending()
        if self.diags:
            raise ParseError(self.diags)
        variables = {name: _variable(name) for name in self.instances}
        edges = [
            Edge(variables[source], role, variables[target] if isinstance(target, str) else target)
            for source, role, target in self.edges
        ]
        return AmrGraph(
            variables[root],
            {variables[name]: concept for name, concept in self.instances.items()},
            edges,
        )

    def parse_node(self) -> str:
        """Parse the node opening at the current '(' with everything nested
        in it, and return its variable name."""
        tokens, edges = self.tokens, self.edges
        stack = [self.open_node()]  # names of the open nodes, innermost last
        while True:
            pos = self.pos
            token = tokens[pos]
            if token[:1] == ":":
                if token == ":":
                    self.report(DiagnosticCode.EMPTY_ROLE, "role name is empty", pos)
                self.pos = pos = pos + 1
                source = stack[-1]
                target = tokens[pos]
                if target == "(":
                    stack.append(self.open_node())
                    edges.append((source, token, stack[-1]))
                elif target[:1] == '"':
                    self.pos += 1
                    edges.append((source, token, Constant(target[1:-1], "string")))
                elif target[:1] not in _NOT_ATOM:
                    self.pos += 1
                    self.pending.append((len(edges), pos))
                    edges.append((source, token, target))
                else:
                    self.report(DiagnosticCode.MALFORMED_TOKEN, f"role {token!r} has no value", pos)
            elif token == ")" or not token:
                if token:
                    self.pos += 1
                else:
                    self.report(DiagnosticCode.UNBALANCED_PAREN, "missing ')'", pos)
                name = stack.pop()
                if not stack:
                    return name
            elif token == "/":
                self.report(DiagnosticCode.MALFORMED_TOKEN, "unexpected '/'", pos)
                self.pos += 1
            else:
                # a value with no role in front of it
                self.report(
                    DiagnosticCode.MALFORMED_TOKEN, f"expected a role, found {_shown(token)!r}", pos
                )
                if token == "(":
                    stack.append(self.open_node())
                else:
                    self.pos += 1

    def open_node(self) -> str:
        """Consume '(', the variable and its concept; return the name."""
        self.pos = at = self.pos + 1
        name = self.tokens[at]
        if name[:1] not in _NOT_ATOM:
            self.pos += 1
        else:
            self.report(DiagnosticCode.MALFORMED_TOKEN, "expected a variable name after '('", at)
            self.synthetic += 1
            name = f"_missing{self.synthetic}"
        if name in self.instances:
            _, line, column = self.position(self.defined_at[name])
            self.report(
                DiagnosticCode.DUPLICATE_VARIABLE,
                f"variable {name!r} already defined at {line}:{column}",
                at,
            )
        else:
            self.defined_at[name] = at
        self.instances.setdefault(name, self.parse_concept(name))
        return name

    def parse_concept(self, name: str) -> Concept:
        if self.tokens[self.pos] != "/":
            self.report(
                DiagnosticCode.MISSING_CONCEPT, f"variable {name!r} has no '/ concept'", self.pos
            )
            return Concept("_missing")
        self.pos += 1
        label = self.tokens[self.pos]
        if label[:1] in _NOT_ATOM:
            self.report(DiagnosticCode.MISSING_CONCEPT, "expected a concept after '/'", self.pos)
            return Concept("_missing")
        self.pos += 1
        return _concept(label)

    def resolve_pending(self) -> None:
        """Decide whether each bare target token is a variable reference or
        a constant.  A token naming a variable defined anywhere in the text
        (before or after the mention) is a reference; otherwise numbers,
        non-alphabetic tokens, and sentence-mode words are constants."""
        for index, at in self.pending:
            source, role, text = self.edges[index]
            if text in self.instances:
                continue  # stays a reference
            kind = _bare_kind(text)
            if kind is not None:
                self.edges[index] = (source, role, Constant(text, kind))
            else:
                self.report(DiagnosticCode.UNDEFINED_VARIABLE, f"undefined variable {text!r}", at)


def parse(text: str) -> AmrGraph:
    """Parse PENMAN text into a graph.

    Raises ParseError carrying every diagnostic found; the error's
    ``diagnostics`` list is ordered by position of discovery.
    """
    return _Parser(text).parse()


def strip_wiki(graph: AmrGraph) -> AmrGraph:
    """Return the graph without its ``:wiki`` edges.

    Any subgraph attached to the rest only through a removed edge is
    dropped too.  A graph with no wiki edges is returned unchanged.
    """
    kept = [e for e in graph.edges if e.role != WIKI_ROLE]
    if len(kept) == len(graph.edges):
        return graph
    instances = graph.instances
    # a dropped edge to a constant disconnects nothing, so needs no walk
    if any(isinstance(e.target, Variable) for e in graph.edges if e.role == WIKI_ROLE):
        reach = _reachable(graph.root.name, kept)
        instances = {v: c for v, c in instances.items() if v.name in reach}
        kept = [e for e in kept if e.source.name in reach]
    return AmrGraph(graph.root, instances, tuple(kept))


def serialize_canonical(graph: AmrGraph) -> str:
    """Write the canonical single-line PENMAN form.

    Depth-first from the root, edges in stored order, each variable
    expanded in full at its first mention and written as a bare name
    afterwards.  Every token, parentheses included, is separated by a
    single space, so the output splits cleanly on whitespace.

    Raises ValueError for a graph with a variable that is never reached
    as an edge target: such a node has no expansion site in this notation.
    """
    outgoing: dict[str, list[Edge]] = {v.name: [] for v in graph.instances}
    for edge in graph.edges:
        outgoing[edge.source.name].append(edge)
    parts: list[str] = []
    expanded: set[str] = set()

    def expand(var: Variable) -> Iterator[Edge]:
        expanded.add(var.name)
        parts.extend(("(", var.name, "/", graph.instances[var].label))
        return iter(outgoing[var.name])

    # one iterator over the remaining outgoing edges per open node
    stack = [expand(graph.root)]
    while stack:
        for edge in stack[-1]:
            parts.append(edge.role)
            target = edge.target
            if isinstance(target, Constant):
                parts.append(str(target))
            elif target.name not in expanded:
                stack.append(expand(target))
                break
            else:
                parts.append(target.name)
        else:
            parts.append(")")
            stack.pop()
    missing = set(outgoing) - expanded
    if missing:
        names = ", ".join(sorted(missing))
        raise ValueError(
            f"no expansion site for variables only connected against edge direction: {names}"
        )
    return " ".join(parts)


def canonicalize(text: str, remove_wiki: bool = True) -> str:
    """Parse PENMAN text and rewrite it in canonical single-line form,
    dropping ``:wiki`` edges unless told otherwise."""
    graph = parse(text)
    if remove_wiki:
        graph = strip_wiki(graph)
    return serialize_canonical(graph)
