"""PENMAN parsing, diagnostics, wiki stripping, canonical serialization."""

from __future__ import annotations

import random
import time
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amrkit import (
    AmrGraph,
    Concept,
    Constant,
    DiagnosticCode,
    Edge,
    ParseError,
    Variable,
    canonicalize,
    parse,
    serialize_canonical,
    strip_wiki,
)
from amrkit import penman
from amrkit.corpus import CorpusEntry
from amrkit.penman import _Parser, _shown
from genutil import WANT_GO_CANONICAL, WANT_GO_PRETTY, random_graph
from oracles import penman_lex


def codes_of(err: ParseError) -> list[DiagnosticCode]:
    return [d.code for d in err.diagnostics]


class TestParse:
    def test_pretty_want_go(self):
        graph = parse(WANT_GO_PRETTY)
        assert graph.root == Variable("w")
        assert len(graph.variables()) == 5
        # :ARG0 :mod :wiki :name :op1 :ARG1 and the reentrant :ARG0 under g
        assert len(graph.edges) == 7
        assert graph.instances[Variable("g")] == Concept("go-01")

    def test_minimal(self):
        graph = parse("( a / answer )")
        assert graph.root == Variable("a")
        assert graph.edges == ()

    def test_whitespace_insensitive(self):
        tight = '(w / want-01 :ARG0(b / boy))'
        loose = '(  w\t/ want-01\n\n   :ARG0 ( b / boy )  )'
        assert parse(tight).triples(True) == parse(loose).triples(True)

    def test_quoted_string_preserved(self):
        graph = parse('( c / city :name "New (York) :here" )')
        edge = graph.edges[0]
        assert isinstance(edge.target, Constant)
        assert edge.target.kind == "string"
        assert edge.target.value == "New (York) :here"

    def test_bare_token_classification(self):
        graph = parse(
            "( d / date-entity :month 4 :quant 2.5 :polarity - :mode imperative :value 1st )"
        )
        kinds = [(e.target.value, e.target.kind) for e in graph.edges]
        assert kinds == [
            ("4", "number"),
            ("2.5", "number"),
            ("-", "symbol"),
            ("imperative", "symbol"),
            ("1st", "symbol"),
        ]

    def test_forward_variable_reference(self):
        graph = parse("( a / x :ARG0 b :ARG1 ( b / y ) )")
        first = graph.edges[0]
        assert first.target == Variable("b")

    def test_cycle(self):
        graph = parse("( a / x :ARG0 ( b / y :ARG0 a ) )")
        assert graph.edges[1].target == Variable("a")
        assert graph.reentrant_variables() == {Variable("a")}


class TestDiagnostics:
    def test_missing_close_paren(self):
        with pytest.raises(ParseError) as info:
            parse("( w / want-01 :ARG0 ( b / boy )")
        assert DiagnosticCode.UNBALANCED_PAREN in codes_of(info.value)

    def test_extra_close_paren(self):
        with pytest.raises(ParseError) as info:
            parse("( w / want-01 ) )")
        assert codes_of(info.value) == [DiagnosticCode.UNBALANCED_PAREN]

    def test_missing_concept(self):
        with pytest.raises(ParseError) as info:
            parse("( w :ARG0 ( b / boy ) )")
        assert DiagnosticCode.MISSING_CONCEPT in codes_of(info.value)
        with pytest.raises(ParseError) as info:
            parse("( w / :ARG0 ( b / boy ) )")
        assert DiagnosticCode.MISSING_CONCEPT in codes_of(info.value)

    def test_duplicate_variable(self):
        with pytest.raises(ParseError) as info:
            parse("( w / want-01 :ARG0 ( w / boy ) )")
        err = info.value
        assert codes_of(err) == [DiagnosticCode.DUPLICATE_VARIABLE]
        # the diagnostic points at the second definition
        assert err.diagnostics[0].column == 23

    def test_undefined_variable(self):
        with pytest.raises(ParseError) as info:
            parse("( w / want-01 :ARG0 boy2 )")
        assert codes_of(info.value) == [DiagnosticCode.UNDEFINED_VARIABLE]

    def test_empty_role(self):
        with pytest.raises(ParseError) as info:
            parse("( w / want-01 : ( b / boy ) )")
        assert DiagnosticCode.EMPTY_ROLE in codes_of(info.value)

    def test_unterminated_string(self):
        with pytest.raises(ParseError) as info:
            parse('( c / city :name "New York )')
        assert DiagnosticCode.MALFORMED_TOKEN in codes_of(info.value)

    def test_empty_input(self):
        with pytest.raises(ParseError) as info:
            parse("")
        assert codes_of(info.value) == [DiagnosticCode.MALFORMED_TOKEN]

    def test_metadata_line_is_not_penman(self):
        with pytest.raises(ParseError):
            parse("# ::id a\n( a / answer )")

    def test_multiple_diagnostics_collected(self):
        with pytest.raises(ParseError) as info:
            parse("( w :ARG0 zzz :ARG1 ( b / boy )")
        found = codes_of(info.value)
        assert DiagnosticCode.MISSING_CONCEPT in found
        assert DiagnosticCode.UNDEFINED_VARIABLE in found
        assert DiagnosticCode.UNBALANCED_PAREN in found

    def test_positions_are_line_and_column(self):
        with pytest.raises(ParseError) as info:
            parse("( w / want-01\n  :ARG0 qq )")
        diag = info.value.diagnostics[0]
        assert (diag.line, diag.column) == (2, 9)
        assert "2:9" in str(diag)

    def test_offsets_within_input(self):
        text = "( w / want-01 :ARG0 ( b / boy"
        with pytest.raises(ParseError) as info:
            parse(text)
        for diag in info.value.diagnostics:
            assert 0 <= diag.offset <= len(text)


class TestLazyOffsets:
    """Tokens are located in the text only when a problem is reported."""

    def test_clean_parse_leaves_offsets_unbuilt(self):
        parser = _Parser(WANT_GO_PRETTY)
        parser.parse()
        assert parser.offsets is None

    def test_duplicate_points_back_at_first_definition(self):
        with pytest.raises(ParseError) as info:
            parse("( a / x :ARG0 ( a / y ) )")
        [diag] = info.value.diagnostics
        assert (diag.code, diag.message, diag.line, diag.column, diag.offset) == (
            DiagnosticCode.DUPLICATE_VARIABLE,
            "variable 'a' already defined at 1:3",
            1,
            17,
            16,
        )
        with pytest.raises(ParseError) as info:
            parse("( a / x\n  :ARG0 ( a / y ) )")
        assert str(info.value) == "2:11: DuplicateVariable: variable 'a' already defined at 1:3"

    def test_unterminated_string_gets_its_closing_quote(self):
        parser = _Parser('( c / city :name "New York )')
        assert parser.tokens[-2:] == ['"New York )"', ""]
        [diag] = parser.diags
        assert (diag.message, diag.offset) == ("unterminated quoted string", 17)
        with pytest.raises(ParseError) as info:
            parse('"abc')
        assert [d.message for d in info.value.diagnostics] == [
            "unterminated quoted string",
            "expected '(' but found 'abc'",
        ]


def values_of(graph: AmrGraph) -> list:
    """Every Variable, Concept and Constant object the graph holds."""
    out: list = [graph.root, *graph.instances, *graph.instances.values()]
    for edge in graph.edges:
        out += [edge.source, edge.target]
    return out


def fresh_copy(graph: AmrGraph) -> AmrGraph:
    """The same graph, built from value objects made afresh."""

    def fresh(value):
        if isinstance(value, Variable):
            return Variable(value.name)
        return Constant(value.value, value.kind)

    return AmrGraph.build(
        fresh(graph.root),
        {fresh(var): Concept(concept.label) for var, concept in graph.instances.items()},
        [(fresh(e.source), e.role, fresh(e.target)) for e in graph.edges],
    )


def diagnostics_of(text: str) -> tuple[str, list]:
    with pytest.raises(ParseError) as info:
        parse(text)
    return str(info.value), info.value.diagnostics


class TestSharedValues:
    """The parser builds each distinct variable and concept once per
    process and shares the object; a shared value is equal to a freshly
    built one, and every check still runs on every value it has not built
    before.  Constants are built afresh for every edge."""

    MEMOS = (penman._variable, penman._concept)

    def test_parses_share_one_object_per_value(self):
        one = parse('( w / want-01 :ARG0 ( b / boy :name "Kis" ) :ARG1 ( g / go-01 :ARG0 b ) )')
        two = parse('( g / go-01 :polarity - :ARG0 ( b / boy ) :mod ( w / want-01 :name "Kis" ) )')
        first = {}
        constants = []
        for value in values_of(one) + values_of(two):
            if isinstance(value, Constant):
                constants.append(value)
            else:
                assert first.setdefault(value, value) is value
        assert {type(v).__name__ for v in first} == {"Variable", "Concept"}
        assert len(first) == 6  # b g w, boy go-01 want-01
        assert constants[0] == constants[2] and constants[0] is not constants[2]  # "Kis"

    @pytest.mark.parametrize(
        "text",
        [
            WANT_GO_PRETTY,
            '( s / say-01 :ARG0 ( i / i ) :ARG1 "x y" :mode imperative'
            " :time ( d / date-entity :year 2024 ) )",
        ],
    )
    def test_shared_graph_equals_graph_of_fresh_values(self, text):
        parse(text)
        graph = parse(text)  # every value now comes from the caches
        fresh = fresh_copy(graph)
        assert not any(a is b for a, b in zip(values_of(fresh), values_of(graph)))
        assert fresh == graph
        assert serialize_canonical(fresh) == serialize_canonical(graph)
        assert fresh.triples() == graph.triples()
        assert fresh.triples(include_top=True) == graph.triples(include_top=True)
        for var, concept in fresh.instances.items():
            assert concept.is_frame == graph.instances[var].is_frame

    def test_caches_stay_within_their_bound(self):
        # more distinct variables and labels than a cache keeps; the
        # oldest are dropped
        count = penman._CACHE_SIZE + 50
        nodes = " ".join(f":ARG{k} ( v{k} / c{k}-x )" for k in range(count))
        graph = parse(f"( r / root {nodes} )")
        assert len(graph.instances) == count + 1
        for memo in self.MEMOS:
            info = memo.cache_info()
            assert info.maxsize == penman._CACHE_SIZE
            assert info.currsize == penman._CACHE_SIZE

    @pytest.mark.parametrize(
        "text",
        [
            "( w / want-01 :ARG0 ( w / boy ) )",
            "( w / want-01 :ARG0 boy2 :quant 5 )",
            '( c / city :name "New York )',
            "( w / :ARG0 ( b / boy ) :mod - )",
            '( w / want-01 : ( b / boy :name "Kis" ) ) )',
            '( x / y :mod "a" :quant 5 :polarity - :op1 zz / )',
        ],
    )
    def test_warm_caches_report_what_cold_caches_do(self, text):
        for memo in self.MEMOS:
            memo.cache_clear()
        cold = diagnostics_of(text)
        # valid graphs holding the bad text's variables, labels and constants
        parse('( w / want-01 :ARG0 ( b / boy :name "Kis" ) :mod ( x / y :quant 5 :polarity - ) )')
        parse('( c / city :name "New York )" :mod ( z / zz :op1 "a" ) )')
        assert all(memo.cache_info().currsize for memo in self.MEMOS)
        assert diagnostics_of(text) == cold

    @pytest.mark.parametrize(
        "make, args, message",
        [
            (Variable, ("",), "variable name must be non-empty"),
            (Variable, ("a b",), "variable name 'a b' contains illegal character ' '"),
            (Concept, ("x)",), "concept label 'x)' contains illegal character ')'"),
            (Constant, ("boy", "symbol"), "'boy' does not read back as a symbol constant"),
            (Constant, ('a"b', "string"), "quoted constant cannot contain a quote character"),
            (Constant, ("1:2", "number"), "number constant '1:2' contains illegal character ':'"),
            (Edge, (Variable("a"), "ARG0", Variable("b")), "malformed role: 'ARG0'"),
        ],
    )
    def test_constructors_check_every_value(self, make, args, message):
        # warm every cache with good values and roles; a bad value is never
        # cached, so each call, direct or memoized, checks it again
        parse('( a / x :ARG0 ( b / boy ) :mod "ab" :quant 12 :polarity - )')
        memoized = {Variable: penman._variable, Concept: penman._concept}.get(make, make)
        for build in (make, memoized, make, memoized):
            with pytest.raises(ValueError) as info:
                build(*args)
            assert str(info.value) == message


class TestStripWiki:
    def test_removes_wiki_attribute(self):
        graph = parse(WANT_GO_PRETTY)
        stripped = strip_wiki(graph)
        assert len(stripped.edges) == len(graph.edges) - 1
        assert all(e.role != ":wiki" for e in stripped.edges)
        # the :name subtree survives
        assert Variable("n") in stripped.instances

    def test_identity_without_wiki(self):
        graph = parse("( a / x :mod ( b / y ) )")
        assert strip_wiki(graph) is graph

    def test_two_wiki_edges(self):
        graph = parse(
            '( a / x :wiki "P1" :mod ( b / y :wiki "P2" :name ( n / name ) ) )'
        )
        stripped = strip_wiki(graph)
        assert [e.role for e in stripped.edges] == [":mod", ":name"]
        assert len(stripped.instances) == 3

    def test_wiki_subtree_pruned_when_unreachable(self):
        graph = parse("( a / x :wiki ( q / page :mod ( z / zz ) ) :mod ( b / y ) )")
        stripped = strip_wiki(graph)
        assert set(stripped.instances) == {Variable("a"), Variable("b")}

    def test_wiki_subtree_kept_when_still_connected(self):
        graph = parse("( a / x :wiki ( q / page ) :mod ( b / y :poss q ) )")
        stripped = strip_wiki(graph)
        assert Variable("q") in stripped.instances
        assert [e.role for e in stripped.edges] == [":mod", ":poss"]

    def test_renumbers_sibling_edges(self):
        # the kept siblings keep their order, with no gap where :wiki was
        graph = parse('( a / x :wiki "W" :mod ( b / y :wiki "V" :poss ( c / z ) ) :ARG0 c )')
        stripped = strip_wiki(graph)
        a, b = Variable("a"), Variable("b")
        assert [e.role for e in stripped.outgoing(a)] == [":mod", ":ARG0"]
        assert [e.role for e in stripped.outgoing(b)] == [":poss"]

    def test_only_a_dropped_edge_to_a_variable_needs_the_walk(self, monkeypatch):
        # an edge to a constant disconnects nothing; the rebuilt graph
        # still checks connectivity through its own walk
        walks = []
        real = penman._reachable
        monkeypatch.setattr(penman, "_reachable", lambda *args: walks.append(args) or real(*args))
        stripped = strip_wiki(parse('( a / x :wiki "W" :mod ( b / y :wiki - ) )'))
        assert walks == []
        assert [e.role for e in stripped.edges] == [":mod"]
        assert set(stripped.instances) == {Variable("a"), Variable("b")}
        stripped = strip_wiki(parse('( a / x :wiki "W" :mod ( b / y :wiki ( q / page ) ) )'))
        assert len(walks) == 1
        assert set(stripped.instances) == {Variable("a"), Variable("b")}


class TestSerialize:
    def test_minimal(self):
        assert serialize_canonical(parse("(a / answer)")) == "( a / answer )"

    def test_want_go_after_strip(self):
        graph = strip_wiki(parse(WANT_GO_PRETTY))
        assert serialize_canonical(graph) == WANT_GO_CANONICAL

    def test_parens_are_standalone_tokens(self):
        out = serialize_canonical(strip_wiki(parse(WANT_GO_PRETTY)))
        tokens = out.split(" ")
        assert tokens.count("(") == 5
        assert tokens.count(")") == 5
        assert not any(t != "(" and "(" in t for t in tokens)

    def test_quoted_constant_not_split(self):
        out = serialize_canonical(parse('( c / city :name "New York" )'))
        assert ':name "New York" )' in out

    def test_first_encounter_expansion(self):
        out = serialize_canonical(parse("( a / x :ARG0 ( b / y ) :ARG1 b )"))
        assert out == "( a / x :ARG0 ( b / y ) :ARG1 b )"

    def test_cycle_backreference(self):
        out = serialize_canonical(parse("( a / x :ARG0 ( b / y :ARG0 a ) )"))
        assert out == "( a / x :ARG0 ( b / y :ARG0 a ) )"

    def test_variable_without_expansion_site_rejected(self):
        # b is attached only by the edge it sources, so no spot in the
        # notation can define it
        a, b = Variable("a"), Variable("b")
        graph = AmrGraph(
            a,
            {a: Concept("x"), b: Concept("y")},
            (Edge(b, ":ARG0", a),),
        )
        with pytest.raises(ValueError, match="expansion site"):
            serialize_canonical(graph)


class TestCanonicalize:
    def test_want_go_byte_exact(self):
        assert canonicalize(WANT_GO_PRETTY) == WANT_GO_CANONICAL

    def test_idempotent(self):
        once = canonicalize(WANT_GO_PRETTY)
        assert canonicalize(once) == once

    def test_keep_wiki(self):
        out = canonicalize(WANT_GO_PRETTY, remove_wiki=False)
        assert ':wiki "Hungary"' in out

    def test_whitespace_mutations_same_output(self):
        messy = WANT_GO_PRETTY.replace("\n", " \t \n ").replace("   ", "  ")
        assert canonicalize(messy) == WANT_GO_CANONICAL

    def test_propagates_parse_errors(self):
        with pytest.raises(ParseError):
            canonicalize("( a / ")


def assert_same_graph(back: AmrGraph, graph: AmrGraph) -> None:
    """Same root, same instances, same (role, target) list per source."""
    assert back.root == graph.root
    assert dict(back.instances) == dict(graph.instances)
    for var in graph.instances:
        ours = [(e.role, e.target) for e in graph.outgoing(var)]
        theirs = [(e.role, e.target) for e in back.outgoing(var)]
        assert ours == theirs


def accepted(make, *args):
    """``make(*args)``, or None when it refuses its arguments."""
    try:
        return make(*args)
    except ValueError:
        return None


@st.composite
def constructed_graphs(draw) -> Optional[AmrGraph]:
    """A graph built with the public constructors from tokens over the
    PENMAN alphabet, its name characters drawn more often.  A refused
    atom or edge is left out, and a refused graph is None.  A random tree
    over the variables keeps most graphs connected."""
    chars = st.sampled_from("ab01-.+" * 6 + PENMAN_ALPHABET)
    tokens = st.lists(chars, min_size=1, max_size=3).map("".join)
    atoms = [(draw(tokens), draw(tokens)) for _ in range(draw(st.integers(1, 6)))]
    instances = {
        Variable(name): Concept(label)
        for name, label in atoms
        if accepted(Variable, name) and accepted(Concept, label)
    }
    if not instances:
        return None
    variables = list(instances)
    edges = [
        accepted(Edge, variables[draw(st.integers(0, i - 1))], ":" + draw(tokens), v)
        for i, v in enumerate(variables)
        if i
    ]
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["variable", "string", "number", "symbol"]))
        if kind == "variable":
            target = draw(st.sampled_from(variables))
        else:
            target = accepted(Constant, draw(tokens), kind)
        if target is not None:
            edges.append(accepted(Edge, draw(st.sampled_from(variables)), ":" + draw(tokens), target))
    edges = [edge for edge in draw(st.permutations(edges)) if edge is not None]
    return accepted(AmrGraph, variables[0], instances, edges)


class TestRoundTrip:
    def test_random_graphs(self):
        rng = random.Random(11)
        for _ in range(300):
            graph = random_graph(rng)
            text = serialize_canonical(graph)
            back = parse(text)
            assert_same_graph(back, graph)
            assert serialize_canonical(back) == text

    @settings(max_examples=400, deadline=None)
    @given(constructed_graphs())
    def test_every_constructed_graph_reads_back(self, graph):
        # a graph the constructors accept is refused by serialize_canonical
        # for a variable it cannot place, or reads back unchanged
        if graph is None:
            return
        try:
            text = serialize_canonical(graph)
        except ValueError as err:
            assert "expansion site" in str(err)
            return
        assert_same_graph(parse(text), graph)


def arg0_chain(depth: int) -> str:
    """A canonical chain ``( v0 / c :ARG0 ( v1 / c :ARG0 ... ) )``."""
    opens = "".join(f"( v{i} / c :ARG0 " for i in range(depth - 1))
    return opens + f"( v{depth - 1} / c" + " )" * depth


class TestDeepNesting:
    DEPTH = 10_000

    def test_parse_and_round_trip(self):
        text = arg0_chain(self.DEPTH)
        graph = parse(text)
        assert len(graph.instances) == self.DEPTH
        assert graph.edges[-1].target == Variable(f"v{self.DEPTH - 1}")
        assert canonicalize(text) == text

    def test_corpus_entry_does_not_raise(self):
        entry = CorpusEntry({"id": "deep"}, arg0_chain(self.DEPTH))
        assert entry.graph is not None
        assert entry.parse_error is None

    def test_missing_close_parens_raise_parse_error(self):
        text = arg0_chain(self.DEPTH).rstrip(" )")
        with pytest.raises(ParseError) as info:
            parse(text)
        assert set(codes_of(info.value)) == {DiagnosticCode.UNBALANCED_PAREN}
        assert len(info.value.diagnostics) == self.DEPTH


def outcome(parse_fn, text: str):
    """A comparable summary of parsing ``text``: the graph, or every
    diagnostic as (code, message, line, column, offset).  Exceptions other
    than ParseError propagate."""
    try:
        graph = parse_fn(text)
    except ParseError as err:
        return "error", [(d.code, d.message, d.line, d.column, d.offset) for d in err.diagnostics]
    return "graph", graph


_KINDS = {"(": "lparen", ")": "rparen", "/": "slash", '"': "string", ":": "role", "": "eof"}


def tokens_of(text: str) -> list[tuple[str, str, int]]:
    """The parser's tokens in the oracle's shape: (kind, text, offset),
    the kind read off the first character and a string without quotes."""
    parser = _Parser(text)
    return [
        (_KINDS.get(token[:1], "atom"), _shown(token), parser.position(index)[0])
        for index, token in enumerate(parser.tokens)
    ]


def oracle_tokens_of(text: str) -> list[tuple[str, str, int]]:
    tokens, eof = penman_lex.lex(text, [])
    return [(t.kind, t.text, t.offset) for t in tokens + [eof]]


def mutate(text: str, rng: random.Random) -> str:
    """Delete or insert a few PENMAN characters, to reach the diagnostics."""
    chars = list(text)
    for _ in range(rng.randint(1, 4)):
        pos = rng.randrange(len(chars) + 1)
        if rng.random() < 0.4 and chars:
            del chars[min(pos, len(chars) - 1)]
        else:
            chars.insert(pos, rng.choice(PENMAN_ALPHABET))
    return "".join(chars)


PENMAN_ALPHABET = '()/:"ab01-. \n\t\r\x1c\u00a0\u2028'

HAND_CASES = [
    "",
    "   \n\t ",
    '( c / city :name "New York )',
    '( c / city :name "New\nYork" :op1 "',
    "( w / want-01\r\n  :ARG0 ( b / boy )\r\n  :ARG1 qq )",
    "(\tw\t/\twant-01\t:ARG0\tzz\t)",
    "( w\x1c/\u00a0want-01\u2028:ARG0 ( b / boy ) )",
    "( w / want-01\u2028:ARG0 zz\n:ARG1 yy )",
    "( a / and :op1:x ( b / boy ) )",
    "( a / and a:ARG0 ( b / boy ) )",
    "( a / and : ( b / boy ) )",
    "( a / and :ARG0 : ( b / boy ) )",
    "( a / x ) ) trailing",
    "( a / x ) b",
    "x ( a / b )",
    "( / x )",
    "( a / x :ARG0 ( a / y ) :ARG1 ( a / z\n) )",
    "( a / x :ARG0 )",
    "( a / x / y :ARG0 b c )",
    "( a ( b / c ) )",
    "(((",
    ")",
    # whitespace the lexer consumes in front of the end of input
    "( a / b )   ",
    "( a / b :ARG0 zz )\n\n",
    "( a / b :ARG0 ( c / d )\u2028",
    "( a / b :ARG0 ( c / d ) \n \u2028 \n",
    '( c / city :name "New York )  \n\t',
    "\u2028",
    " \x0c\n\u2028\n ",
]


class TestLexerOracle:
    """The regex lexer and explicit-stack parser against the
    character-stepping lexer and recursive parser they replaced."""

    def check(self, text: str) -> None:
        assert tokens_of(text) == oracle_tokens_of(text)
        assert outcome(parse, text) == outcome(penman_lex.parse, text)

    @pytest.mark.parametrize("text", HAND_CASES)
    def test_hand_cases(self, text):
        self.check(text)

    def test_random_graphs_and_mutations(self):
        rng = random.Random(5)
        for _ in range(300):
            text = serialize_canonical(random_graph(rng))
            self.check(text)
            self.check(mutate(text, rng))

    def test_whitespace_class_matches_isspace(self):
        # the lexer's \s must skip exactly what str.isspace, which the
        # oracle uses, calls whitespace: over every code point
        chars = [chr(code) for code in range(0x110000) if chr(code) not in '()/:"']
        tokens = tokens_of("".join(chars))
        assert {kind for kind, _, _ in tokens} == {"atom", "eof"}
        assert "".join(text for _, text, _ in tokens) == "".join(
            char for char in chars if not char.isspace()
        )

    @pytest.mark.parametrize("tail", ["", " :ARG0 ( c / d"])
    def test_trailing_whitespace_is_linear(self, tail):
        # a lexer that backtracks over trailing whitespace takes hours here
        text = f"( a / b{tail} )" + " " * 1_000_000
        start = time.perf_counter()
        kind, _ = outcome(parse, text)
        assert time.perf_counter() - start < 2
        assert kind == ("error" if tail else "graph")

    @settings(max_examples=200, deadline=None)
    @given(st.text(alphabet=PENMAN_ALPHABET, max_size=40))
    def test_arbitrary_text(self, text):
        # totality: ParseError is the only exception parse may raise
        self.check(text)

    @settings(max_examples=25, deadline=None)
    @given(depth=st.integers(1, 5_000), tail=st.text(alphabet=PENMAN_ALPHABET, max_size=20))
    def test_deep_text(self, depth, tail):
        # an unclosed chain: ParseError, or a graph when the tail closes it
        text = "".join(f"( v{i} / c :ARG0 " for i in range(depth)) + tail
        outcome(parse, text)
        entry = CorpusEntry({}, text)
        assert (entry.graph is None) != (entry.parse_error is None)
