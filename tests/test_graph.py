"""Graph model: construction invariants and the triple decomposition."""

from __future__ import annotations

import dataclasses
import pickle
import random
import re
import string
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amrkit import (
    AmrGraph,
    Concept,
    Constant,
    Edge,
    Triple,
    Variable,
    parse,
    serialize_canonical,
    strip_wiki,
)
from amrkit import graph as graph_module
from amrkit.graph import _reachable
from genutil import WANT_GO_CANONICAL, WANT_GO_PRETTY, random_graph

# the frame-id pattern from before lemmas could hold non-ASCII letters
ASCII_FRAME_RE = re.compile(r"^(?:[a-z][a-z0-9']*-)+\d{2,3}$")
# the printable ASCII characters a concept label may hold
LABEL_CHARS = "".join(c for c in string.printable if not c.isspace() and c not in '():/"')


def want_go_graph() -> AmrGraph:
    """The wiki-stripped want/go example built by hand: five variables,
    one reentrant (b), one quoted constant."""
    w, b, c, n, g = (Variable(x) for x in "wbcng")
    return AmrGraph.build(
        w,
        {
            w: Concept("want-01"),
            b: Concept("boy"),
            c: Concept("country"),
            n: Concept("name"),
            g: Concept("go-01"),
        },
        [
            (w, ":ARG0", b),
            (b, ":mod", c),
            (c, ":name", n),
            (n, ":op1", Constant("Hungary", "string")),
            (w, ":ARG1", g),
            (g, ":ARG0", b),
        ],
    )


class TestAtoms:
    def test_variable_rejects_bad_names(self):
        for bad in ["", "a b", "a(", 'x"', "a/b", "a:b"]:
            with pytest.raises(ValueError):
                Variable(bad)

    def test_concept_rejects_bad_labels(self):
        for bad in ["", "want 01", "a)", "x:y"]:
            with pytest.raises(ValueError):
                Concept(bad)

    def test_frame_detection(self):
        assert Concept("want-01").is_frame
        assert Concept("have-org-role-91").is_frame
        assert Concept("state-911").is_frame
        assert not Concept("boy").is_frame
        assert not Concept("multi-sentence").is_frame
        assert not Concept("have-concession").is_frame
        assert not Concept("want-1").is_frame

    def test_unicode_frame_ids(self):
        for frame in ["lát-01", "öl-01", "añadir-01", "ért-egyet-01", "ß'-91"]:
            assert Concept(frame).is_frame, frame
        for other in ["Lát-01", "See-01", "Öl-01", "see_x-01", "01-01", "lát-1", "lát", "-01"]:
            assert not Concept(other).is_frame, other

    def test_decomposed_frame_ids(self):
        # NFD spells an accented letter as a base letter and a combining
        # mark; the verdict is the NFC spelling's
        for frame in ["lát-01", "öl-01", "ért-egyet-01", "añadir-01"]:
            decomposed = unicodedata.normalize("NFD", frame)
            assert decomposed != frame
            assert Concept(decomposed).is_frame, frame
        for other in ["Lát-01", "Öl-01", "lát-1"]:
            assert not Concept(unicodedata.normalize("NFD", other)).is_frame, other
        # a mark that composes with no letter stays a mark, and a mark is
        # neither a letter nor a digit
        assert not Concept("x\u0301-01").is_frame

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.text(alphabet="aAz09'-_.", min_size=1, max_size=12),
            st.text(alphabet=LABEL_CHARS, min_size=1, max_size=12),
            st.from_regex(r"(?:[a-zA-Z_'0-9][a-z0-9'_A-Z]*-)+[0-9]{1,4}", fullmatch=True),
        )
    )
    def test_ascii_labels_classify_as_before(self, label):
        assert Concept(label).is_frame == (ASCII_FRAME_RE.match(label) is not None)

    def test_is_frame_survives_pickling(self):
        decomposed = unicodedata.normalize("NFD", "lát-01")
        for label in ["want-01", "boy", "lát-01", decomposed, "Lát-01"]:
            expected = Concept(label).is_frame
            # pickled before and after the verdict is worked out and kept
            for concept in (Concept(label), parse(f"( a / {label} )").instances[Variable("a")]):
                for _ in range(2):
                    back = pickle.loads(pickle.dumps(concept))
                    assert back == concept and hash(back) == hash(concept)
                    assert back.is_frame is expected
                    assert concept.is_frame is expected
        # a copy with another label works its verdict out afresh
        want = Concept("want-01")
        assert want.is_frame
        assert not dataclasses.replace(want, label="boy").is_frame

    def test_string_constant_keeps_interior_verbatim(self):
        value = "New (York) :city  double  spaces"
        constant = Constant(value, "string")
        assert constant.value == value
        assert str(constant) == f'"{value}"'

    def test_string_constant_rejects_quote(self):
        with pytest.raises(ValueError):
            Constant('has"quote', "string")

    def test_number_constant_forms(self):
        for good in ["0", "12", "-7", "3.5", ".5", "+2", "2e3", "1.5E-2"]:
            assert str(Constant(good, "number")) == good
        for bad in ["", "x", "1.2.3", "1e", "--3"]:
            with pytest.raises(ValueError):
                Constant(bad, "number")

    def test_symbol_constant(self):
        for good in ["-", "+", "1st", "<TOP>", "imperative", "expressive", "interrogative"]:
            assert str(Constant(good, "symbol")) == good
        # written bare, a word reads back as a variable, a numeral as a
        # number, and a colon starts a role
        for bad in ["a b", "", "boy", "5", "-7", "12:30"]:
            with pytest.raises(ValueError):
                Constant(bad, "symbol")

    def test_unknown_constant_kind(self):
        with pytest.raises(ValueError):
            Constant("x", "word")


class TestEdge:
    def test_role_must_start_with_colon(self):
        v = Variable("a")
        with pytest.raises(ValueError):
            Edge(v, "ARG0", Variable("b"))
        with pytest.raises(ValueError):
            Edge(v, ":", Variable("b"))
        with pytest.raises(ValueError):
            Edge(v, ":a b", Variable("b"))
        # a trailing newline would be read back as a separator
        with pytest.raises(ValueError):
            Edge(v, ":mod\n", Variable("b"))


class TestGraphInvariants:
    def test_root_needs_concept(self):
        with pytest.raises(ValueError, match="root"):
            AmrGraph(Variable("a"), {Variable("b"): Concept("boy")}, ())

    def test_edge_endpoints_must_be_defined(self):
        a, b = Variable("a"), Variable("b")
        with pytest.raises(ValueError, match="source"):
            AmrGraph(a, {a: Concept("x")}, (Edge(b, ":mod", a),))
        with pytest.raises(ValueError, match="target"):
            AmrGraph(a, {a: Concept("x")}, (Edge(a, ":mod", b),))

    def test_bare_constant_spelled_like_a_variable_rejected(self):
        # written bare, such a constant would read back as a reference
        a = Variable("a")
        for constant in [Constant("-", "symbol"), Constant("5", "number")]:
            b = Variable(constant.value)
            instances = {a: Concept("x"), b: Concept("y")}
            with pytest.raises(ValueError, match="spelled like a variable"):
                AmrGraph.build(a, instances, [(a, ":ARG0", b), (a, ":polarity", constant)])
        # a quoted string is never read as a reference
        b = Variable("b")
        instances = {a: Concept("x"), b: Concept("y")}
        quoted = Constant("b", "string")
        graph = AmrGraph.build(a, instances, [(a, ":ARG0", b), (a, ":name", quoted)])
        assert len(graph.edges) == 2

    def test_disconnected_variable_rejected(self):
        a, b, c = Variable("a"), Variable("b"), Variable("c")
        instances = {a: Concept("x"), b: Concept("y"), c: Concept("z")}
        with pytest.raises(ValueError, match="not connected"):
            AmrGraph(a, instances, (Edge(a, ":mod", b),))

    def test_connectivity_ignores_edge_direction(self):
        # b holds only an outgoing edge back into the root side; it is
        # still attached
        a, b = Variable("a"), Variable("b")
        graph = AmrGraph(
            a,
            {a: Concept("x"), b: Concept("y")},
            (Edge(b, ":ARG0", a),),
        )
        assert set(graph.variables()) == {a, b}

    def test_build_numbers_edges_per_source(self):
        # sibling order is the order of the edges sharing a source
        graph = want_go_graph()
        assert [e.role for e in graph.outgoing(Variable("w"))] == [":ARG0", ":ARG1"]
        assert [e.role for e in graph.outgoing(Variable("g"))] == [":ARG0"]
        assert [e.role for e in graph.outgoing(Variable("n"))] == [":op1"]


class TestConnectivity:
    """A forward pass over the edges settles connectivity when every edge
    comes after one that reaches its source; the undirected walk decides
    whatever that pass leaves unreached."""

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        reversed_share=st.floats(0, 1),
        extra=st.integers(0, 3),
    )
    def test_rejects_exactly_what_the_walk_leaves(self, seed, reversed_share, extra):
        rng = random.Random(seed)
        graph = random_graph(rng, max_vars=12)
        instances = dict(graph.instances)
        edges = list(graph.edges)
        extras = [Variable(f"u{i}") for i in range(extra)]
        for var in extras:
            instances[var] = Concept("boy")
            # some extras hang off another variable, some stay unattached
            if rng.random() < 0.5:
                edges.append(Edge(rng.choice(list(instances)), ":mod", var))
        rng.shuffle(edges)
        edges = [
            Edge(e.target, e.role, e.source)
            if isinstance(e.target, Variable) and rng.random() < reversed_share
            else e
            for e in edges
        ]
        unreachable = {v.name for v in instances} - _reachable(graph.root.name, edges)
        if unreachable:
            with pytest.raises(ValueError) as info:
                AmrGraph(graph.root, instances, edges)
            names = ", ".join(sorted(unreachable))
            assert str(info.value) == f"variables not connected to root: {names}"
        else:
            assert AmrGraph(graph.root, instances, edges).edges == tuple(edges)

    def test_parsed_penman_needs_no_walk(self, monkeypatch):
        rng = random.Random(11)
        texts = [WANT_GO_PRETTY, "( a / x :ARG0 ( b / y :ARG1 a ) :ARG1 c :ARG2 ( c / z ) )"]
        texts += [serialize_canonical(random_graph(rng, max_vars=30)) for _ in range(200)]
        calls = []

        def counted(root, edges):
            calls.append(root)
            return _reachable(root, edges)

        monkeypatch.setattr(graph_module, "_reachable", counted)
        for text in texts:
            parse(text)
        assert calls == []
        # the walk still runs for a graph the forward pass cannot settle
        a, b = Variable("a"), Variable("b")
        AmrGraph(a, {a: Concept("x"), b: Concept("y")}, (Edge(b, ":ARG0", a),))
        assert calls == ["a"]


class TestNameKeyedCore:
    """Graphs look variables up by name, so any equal Variable will do."""

    def test_equal_variables_are_one_dict_key(self):
        first, second = Variable("a"), Variable("a")
        assert first is not second
        assert first == second and hash(first) == hash(second)
        table = {first: 1}
        table[second] = 2
        assert table == {Variable("a"): 2}
        assert Variable("a") != Variable("b")

    def test_fresh_edge_variables_build_and_serialize(self):
        graph = want_go_graph()

        def fresh(end):
            return Variable(end.name) if isinstance(end, Variable) else end

        rebuilt = AmrGraph.build(
            Variable("w"),
            graph.instances,
            [(fresh(e.source), e.role, fresh(e.target)) for e in graph.edges],
        )
        keys = {id(v) for v in rebuilt.instances}
        assert not keys & {id(e.source) for e in rebuilt.edges}
        assert rebuilt == graph
        assert serialize_canonical(rebuilt) == WANT_GO_CANONICAL
        assert strip_wiki(rebuilt) is rebuilt
        assert rebuilt.reentrant_variables() == {Variable("b")}

    def error_text(self, root, instances, edges) -> str:
        with pytest.raises(ValueError) as info:
            AmrGraph.build(root, instances, edges)
        return str(info.value)

    def test_construction_error_texts(self):
        a, b = Variable("a"), Variable("b")
        x = {a: Concept("x")}
        assert self.error_text(a, x, [(b, ":mod", a)]) == "edge source b is not a defined variable"
        assert self.error_text(a, x, [(a, ":mod", b)]) == "edge target b is not a defined variable"
        five = {a: Concept("x"), Variable("5"): Concept("y")}
        edges = [(a, ":ARG0", Variable("5")), (a, ":quant", Constant("5", "number"))]
        assert self.error_text(a, five, edges) == "number constant 5 is spelled like a variable"
        apart = {a: Concept("x"), Variable("d"): Concept("y"), b: Concept("y")}
        apart[Variable("c")] = Concept("z")
        assert self.error_text(a, apart, []) == "variables not connected to root: b, c, d"


class TestTriples:
    def test_minimal_graph_has_one_instance_triple(self):
        a = Variable("a")
        graph = AmrGraph(a, {a: Concept("answer")}, ())
        triples = graph.triples(include_top=False)
        assert triples == [Triple("instance", a, "instance", Concept("answer"))]

    def test_want_go_counts(self):
        graph = want_go_graph()
        assert len(graph.triples(include_top=False)) == 11
        with_top = graph.triples(include_top=True)
        assert len(with_top) == 12
        kinds = [t.kind for t in with_top]
        assert kinds.count("instance") == 5
        assert kinds.count("relation") == 5
        assert kinds.count("attribute") == 2  # :op1 constant plus the root marker

    def test_top_triple_marks_root(self):
        graph = want_go_graph()
        top = graph.triples(include_top=True)[-1]
        assert top.kind == "attribute"
        assert top.source == Variable("w")
        assert top.label == ":top"
        assert str(top.target) == "<TOP>"

    def test_top_concept(self):
        assert want_go_graph().top_concept() == Concept("want-01")

    def test_triple_kind_consistency_enforced(self):
        a = Variable("a")
        with pytest.raises(ValueError):
            Triple("instance", a, "instance", Constant("-", "symbol"))
        with pytest.raises(ValueError):
            Triple("attribute", a, ":mod", Variable("b"))
        with pytest.raises(ValueError):
            Triple("relation", a, ":mod", Constant("-", "symbol"))
        with pytest.raises(ValueError):
            Triple("thing", a, ":mod", Variable("b"))

    def test_count_law_on_random_graphs(self):
        rng = random.Random(5)
        for _ in range(100):
            graph = random_graph(rng)
            assert len(graph.triples(False)) == len(graph.instances) + len(graph.edges)
            assert len(graph.triples(True)) == len(graph.triples(False)) + 1

    def test_triples_are_deterministic(self):
        graph = want_go_graph()
        assert graph.triples(True) == graph.triples(True)
        assert graph.reentrant_variables() == graph.reentrant_variables()


class TestReentrancy:
    def test_want_go_reentrant_is_b(self):
        assert want_go_graph().reentrant_variables() == {Variable("b")}

    def test_single_node_none(self):
        a = Variable("a")
        assert AmrGraph(a, {a: Concept("answer")}, ()).reentrant_variables() == set()

    def test_chain_none(self):
        a, b, c = Variable("a"), Variable("b"), Variable("c")
        graph = AmrGraph.build(
            a,
            {a: Concept("a1"), b: Concept("b1"), c: Concept("c1")},
            [(a, ":ARG0", b), (b, ":ARG0", c)],
        )
        assert graph.reentrant_variables() == set()

    def test_root_as_target_counts(self):
        a, b = Variable("a"), Variable("b")
        graph = AmrGraph.build(
            a,
            {a: Concept("x"), b: Concept("y")},
            [(a, ":ARG0", b), (b, ":ARG0", a)],
        )
        assert graph.reentrant_variables() == {a}
