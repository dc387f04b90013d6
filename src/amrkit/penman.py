"""Reading and writing AMR graphs in PENMAN notation.

``parse`` accepts the usual pretty-printed multi-line form and collects
every problem it can find before raising, so callers see all diagnostics
for a bad graph at once.  ``serialize_canonical`` writes the one canonical
surface form: a single line, depth-first, each variable expanded at its
first mention, a space before and after every parenthesis.
"""

from __future__ import annotations

import enum
import re
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator, Optional, Union

# _MODE_SYMBOLS stays importable from here for the tests' lexer oracle
from .graph import _MODE_SYMBOLS, AmrGraph, Concept, Constant, Edge, Variable, _bare_kind, _reachable

WIKI_ROLE = ":wiki"


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


# One alternative per token kind; whitespace matches none of them, so
# ``finditer`` skips it.  A string without its closing quote runs to the
# end of the input.
_TOKEN_RE = re.compile(
    r'(?P<lparen>\()|(?P<rparen>\))|(?P<slash>/)|(?P<string>"[^"]*"?)'
    r'|(?P<role>:[^\s()/"]*)|(?P<atom>[^\s():/"]+)'
)

# a token is (kind, text, offset); kinds are the group names above plus eof
_Token = tuple[str, str, int]


class _Parser:
    """Parser with best-effort recovery: it keeps going after a problem so
    one pass reports everything, and only builds a graph when no
    diagnostics were produced.  Nesting is kept on an explicit stack, so
    depth is limited by memory, not by Python's recursion limit."""

    def __init__(self, text: str):
        self.text = text
        self.diags: list[ParseDiagnostic] = []
        self.newlines: Optional[list[int]] = None  # offsets of "\n", found at the first report
        self.tokens = self.lex()
        self.pos = 0
        self.instances: dict[str, Concept] = {}
        self.defined_at: dict[str, int] = {}
        self.edges: list[tuple[str, str, Union[str, Constant]]] = []
        # targets recorded as bare strings are variable references or bare
        # constants; they are told apart once every definition is known
        self.pending: list[tuple[int, _Token]] = []
        self.synthetic = 0

    def lex(self) -> list[_Token]:
        """Split the text into tokens, ending with an end-of-input token."""
        tokens = []
        for match in _TOKEN_RE.finditer(self.text):
            kind, text, offset = match.lastgroup, match.group(), match.start()
            if kind == "string":
                if len(text) > 1 and text[-1] == '"':
                    text = text[1:-1]
                else:
                    self.report(
                        DiagnosticCode.MALFORMED_TOKEN, "unterminated quoted string", offset
                    )
                    text = text[1:]
            tokens.append((kind, text, offset))
        tokens.append(("eof", "", len(self.text)))
        return tokens

    def position(self, offset: int) -> tuple[int, int]:
        """1-based line and column of an offset."""
        if self.newlines is None:
            self.newlines = [m.start() for m in re.finditer("\n", self.text)]
        before = bisect_left(self.newlines, offset)
        return before + 1, offset - (self.newlines[before - 1] if before else -1)

    def report(self, code: DiagnosticCode, message: str, offset: int) -> None:
        line, column = self.position(offset)
        self.diags.append(ParseDiagnostic(code, message, line, column, offset))

    def parse(self) -> AmrGraph:
        kind, text, offset = self.tokens[0]
        if kind != "lparen":
            found = "end of input" if kind == "eof" else repr(text)
            self.report(DiagnosticCode.MALFORMED_TOKEN, f"expected '(' but found {found}", offset)
            raise ParseError(self.diags)
        root = self.parse_node()
        kind, text, offset = self.tokens[self.pos]
        if kind == "rparen":
            self.report(DiagnosticCode.UNBALANCED_PAREN, "unmatched ')'", offset)
        elif kind != "eof":
            self.report(
                DiagnosticCode.MALFORMED_TOKEN, f"unexpected text after the graph: {text!r}", offset
            )
        self.resolve_pending()
        if self.diags:
            raise ParseError(self.diags)
        variables = {name: Variable(name) for name in self.instances}
        edges = []
        for source, role, target in self.edges:
            if not isinstance(target, Constant):
                target = variables[target]
            edges.append((variables[source], role, target))
        return AmrGraph.build(
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
            kind, text, offset = tokens[self.pos]
            if kind == "role":
                self.pos += 1
                if text == ":":
                    self.report(DiagnosticCode.EMPTY_ROLE, "role name is empty", offset)
                source = stack[-1]
                target = tokens[self.pos]
                if target[0] == "lparen":
                    stack.append(self.open_node())
                    edges.append((source, text, stack[-1]))
                elif target[0] == "string":
                    self.pos += 1
                    edges.append((source, text, Constant(target[1], "string")))
                elif target[0] == "atom":
                    self.pos += 1
                    self.pending.append((len(edges), target))
                    edges.append((source, text, target[1]))
                else:
                    self.report(
                        DiagnosticCode.MALFORMED_TOKEN, f"role {text!r} has no value", target[2]
                    )
            elif kind == "rparen" or kind == "eof":
                if kind == "rparen":
                    self.pos += 1
                else:
                    self.report(DiagnosticCode.UNBALANCED_PAREN, "missing ')'", offset)
                name = stack.pop()
                if not stack:
                    return name
            elif kind == "slash":
                self.report(DiagnosticCode.MALFORMED_TOKEN, "unexpected '/'", offset)
                self.pos += 1
            else:
                # a value with no role in front of it
                self.report(
                    DiagnosticCode.MALFORMED_TOKEN, f"expected a role, found {text!r}", offset
                )
                if kind == "lparen":
                    stack.append(self.open_node())
                else:
                    self.pos += 1

    def open_node(self) -> str:
        """Consume '(', the variable and its concept; return the name."""
        self.pos += 1
        kind, name, offset = self.tokens[self.pos]
        if kind == "atom":
            self.pos += 1
        else:
            self.report(
                DiagnosticCode.MALFORMED_TOKEN, "expected a variable name after '('", offset
            )
            self.synthetic += 1
            name = f"_missing{self.synthetic}"
        if name in self.instances:
            line, column = self.position(self.defined_at[name])
            self.report(
                DiagnosticCode.DUPLICATE_VARIABLE,
                f"variable {name!r} already defined at {line}:{column}",
                offset,
            )
        else:
            self.defined_at[name] = offset
        self.instances.setdefault(name, self.parse_concept(name))
        return name

    def parse_concept(self, name: str) -> Concept:
        kind, _, offset = self.tokens[self.pos]
        if kind != "slash":
            self.report(
                DiagnosticCode.MISSING_CONCEPT, f"variable {name!r} has no '/ concept'", offset
            )
            return Concept("_missing")
        self.pos += 1
        kind, label, offset = self.tokens[self.pos]
        if kind != "atom":
            self.report(DiagnosticCode.MISSING_CONCEPT, "expected a concept after '/'", offset)
            return Concept("_missing")
        self.pos += 1
        return Concept(label)

    def resolve_pending(self) -> None:
        """Decide whether each bare target token is a variable reference or
        a constant.  A token naming a variable defined anywhere in the text
        (before or after the mention) is a reference; otherwise numbers,
        non-alphabetic tokens, and sentence-mode words are constants."""
        for index, (_, text, offset) in self.pending:
            source, role, _ = self.edges[index]
            if text in self.instances:
                continue  # stays a reference
            kind = _bare_kind(text)
            if kind is not None:
                self.edges[index] = (source, role, Constant(text, kind))
            else:
                self.report(
                    DiagnosticCode.UNDEFINED_VARIABLE, f"undefined variable {text!r}", offset
                )


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
    reach = _reachable(graph.root, kept)
    return AmrGraph(
        graph.root,
        {v: c for v, c in graph.instances.items() if v in reach},
        tuple(e for e in kept if e.source in reach),
    )


def serialize_canonical(graph: AmrGraph) -> str:
    """Write the canonical single-line PENMAN form.

    Depth-first from the root, edges in stored order, each variable
    expanded in full at its first mention and written as a bare name
    afterwards.  Every token, parentheses included, is separated by a
    single space, so the output splits cleanly on whitespace.

    Raises ValueError for a graph with a variable that is never reached
    as an edge target: such a node has no expansion site in this notation.
    """
    outgoing: dict[Variable, list[Edge]] = {v: [] for v in graph.instances}
    for edge in graph.edges:
        outgoing[edge.source].append(edge)
    parts: list[str] = []
    expanded: set[Variable] = set()

    def expand(var: Variable) -> Iterator[Edge]:
        expanded.add(var)
        parts.extend(("(", var.name, "/", graph.instances[var].label))
        return iter(outgoing[var])

    # one iterator over the remaining outgoing edges per open node
    stack = [expand(graph.root)]
    while stack:
        for edge in stack[-1]:
            parts.append(edge.role)
            target = edge.target
            if isinstance(target, Constant):
                parts.append(str(target))
            elif target not in expanded:
                stack.append(expand(target))
                break
            else:
                parts.append(target.name)
        else:
            parts.append(")")
            stack.pop()
    missing = set(graph.instances) - expanded
    if missing:
        names = ", ".join(sorted(v.name for v in missing))
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
