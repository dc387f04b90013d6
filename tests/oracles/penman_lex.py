"""The character-stepping PENMAN lexer and recursive-descent parser that
``amrkit.penman`` replaced with a regex lexer and an explicit-stack parser.

Kept as an oracle: for any input shallow enough for Python's recursion
limit, ``parse`` here and ``amrkit.parse`` must produce the same graph or
the same diagnostics, down to line, column and offset.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from amrkit.graph import _MODE_SYMBOLS, _NUMBER_RE, AmrGraph, Concept, Constant, Variable
from amrkit.penman import DiagnosticCode, ParseDiagnostic, ParseError


@dataclass(frozen=True)
class Token:
    kind: str  # lparen rparen slash role string atom
    text: str
    offset: int
    line: int
    column: int


_DELIMS = set('():/"')


def lex(text: str, diags: list[ParseDiagnostic]) -> tuple[list[Token], Token]:
    """Split text into tokens; returns (tokens, end-of-input marker)."""
    tokens: list[Token] = []
    i, line, col = 0, 1, 1
    n = len(text)

    def step(upto: int) -> None:
        nonlocal i, line, col
        while i < upto:
            if text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = text[i]
        if ch.isspace():
            step(i + 1)
            continue
        if ch == "(":
            tokens.append(Token("lparen", "(", i, line, col))
            step(i + 1)
        elif ch == ")":
            tokens.append(Token("rparen", ")", i, line, col))
            step(i + 1)
        elif ch == "/":
            tokens.append(Token("slash", "/", i, line, col))
            step(i + 1)
        elif ch == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 1
            if j >= n:
                diags.append(
                    ParseDiagnostic(
                        DiagnosticCode.MALFORMED_TOKEN,
                        "unterminated quoted string",
                        line,
                        col,
                        i,
                    )
                )
                tokens.append(Token("string", text[i + 1 :], i, line, col))
                step(n)
            else:
                tokens.append(Token("string", text[i + 1 : j], i, line, col))
                step(j + 1)
        elif ch == ":":
            j = i + 1
            while j < n and not text[j].isspace() and text[j] not in '()/"':
                j += 1
            tokens.append(Token("role", text[i:j], i, line, col))
            step(j)
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in _DELIMS:
                j += 1
            tokens.append(Token("atom", text[i:j], i, line, col))
            step(j)
    return tokens, Token("eof", "", n, line, col)


class _Parser:
    def __init__(self, text: str):
        self.diags: list[ParseDiagnostic] = []
        self.tokens, self.eof = lex(text, self.diags)
        self.pos = 0
        self.instances: dict[str, Concept] = {}
        self.definition_tokens: dict[str, Token] = {}
        self.edges: list[tuple[str, str, Union[str, Constant]]] = []
        self.pending: list[tuple[int, Token]] = []
        self.synthetic = 0

    def peek(self) -> Token:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else self.eof

    def take(self) -> Token:
        tok = self.peek()
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def report(self, code: DiagnosticCode, message: str, tok: Token) -> None:
        self.diags.append(ParseDiagnostic(code, message, tok.line, tok.column, tok.offset))

    def parse(self) -> AmrGraph:
        tok = self.peek()
        if tok.kind != "lparen":
            found = "end of input" if tok.kind == "eof" else repr(tok.text)
            self.report(DiagnosticCode.MALFORMED_TOKEN, f"expected '(' but found {found}", tok)
            raise ParseError(self.diags)
        root = self.parse_node()
        trailing = self.peek()
        if trailing.kind == "rparen":
            self.report(DiagnosticCode.UNBALANCED_PAREN, "unmatched ')'", trailing)
        elif trailing.kind != "eof":
            self.report(
                DiagnosticCode.MALFORMED_TOKEN,
                f"unexpected text after the graph: {trailing.text!r}",
                trailing,
            )
        self.resolve_pending()
        if self.diags:
            raise ParseError(self.diags)
        edges = []
        for source, role, target in self.edges:
            resolved: Union[Variable, Constant]
            if isinstance(target, Constant):
                resolved = target
            else:
                resolved = Variable(target)
            edges.append((Variable(source), role, resolved))
        return AmrGraph.build(
            Variable(root),
            {Variable(name): concept for name, concept in self.instances.items()},
            edges,
        )

    def fresh_name(self) -> str:
        self.synthetic += 1
        return f"_missing{self.synthetic}"

    def parse_node(self) -> str:
        self.take()  # the '('
        tok = self.peek()
        if tok.kind == "atom":
            self.take()
            name = tok.text
        else:
            self.report(DiagnosticCode.MALFORMED_TOKEN, "expected a variable name after '('", tok)
            name = self.fresh_name()
        if name in self.instances:
            prev = self.definition_tokens[name]
            self.report(
                DiagnosticCode.DUPLICATE_VARIABLE,
                f"variable {name!r} already defined at {prev.line}:{prev.column}",
                tok,
            )
        else:
            self.definition_tokens[name] = tok
        concept = self.parse_concept(name)
        if name not in self.instances:
            self.instances[name] = concept
        self.parse_relations(name)
        return name

    def parse_concept(self, name: str) -> Concept:
        tok = self.peek()
        if tok.kind != "slash":
            self.report(
                DiagnosticCode.MISSING_CONCEPT, f"variable {name!r} has no '/ concept'", tok
            )
            return Concept("_missing")
        self.take()
        tok = self.peek()
        if tok.kind != "atom":
            self.report(DiagnosticCode.MISSING_CONCEPT, "expected a concept after '/'", tok)
            return Concept("_missing")
        self.take()
        return Concept(tok.text)

    def parse_relations(self, source: str) -> None:
        while True:
            tok = self.peek()
            if tok.kind == "rparen":
                self.take()
                return
            if tok.kind == "eof":
                self.report(DiagnosticCode.UNBALANCED_PAREN, "missing ')'", tok)
                return
            if tok.kind == "role":
                self.take()
                if tok.text == ":":
                    self.report(DiagnosticCode.EMPTY_ROLE, "role name is empty", tok)
                self.parse_target(source, tok.text)
                continue
            if tok.kind == "slash":
                self.report(DiagnosticCode.MALFORMED_TOKEN, "unexpected '/'", tok)
                self.take()
                continue
            self.report(
                DiagnosticCode.MALFORMED_TOKEN, f"expected a role, found {tok.text!r}", tok
            )
            if tok.kind == "lparen":
                self.parse_node()
            else:
                self.take()

    def parse_target(self, source: str, role: str) -> None:
        tok = self.peek()
        if tok.kind == "lparen":
            slot = len(self.edges)
            self.edges.append((source, role, ""))
            child = self.parse_node()
            self.edges[slot] = (source, role, child)
        elif tok.kind == "string":
            self.take()
            self.edges.append((source, role, Constant(tok.text, "string")))
        elif tok.kind == "atom":
            self.take()
            self.pending.append((len(self.edges), tok))
            self.edges.append((source, role, tok.text))
        else:
            self.report(
                DiagnosticCode.MALFORMED_TOKEN, f"role {role!r} has no value", tok
            )

    def resolve_pending(self) -> None:
        for index, tok in self.pending:
            source, role, _ = self.edges[index]
            text = tok.text
            if text in self.instances:
                continue
            if _NUMBER_RE.match(text):
                self.edges[index] = (source, role, Constant(text, "number"))
            elif not text[0].isalpha() or text in _MODE_SYMBOLS:
                self.edges[index] = (source, role, Constant(text, "symbol"))
            else:
                self.report(
                    DiagnosticCode.UNDEFINED_VARIABLE, f"undefined variable {text!r}", tok
                )


def parse(text: str) -> AmrGraph:
    """Parse PENMAN text into a graph, raising ParseError with every
    diagnostic found.  Recursive: deep nesting raises RecursionError."""
    return _Parser(text).parse()
