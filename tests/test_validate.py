"""Frame lexicon loading and graph quality checks."""

from __future__ import annotations

import io
import random
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amrkit import (
    AmrGraph,
    Concept,
    Constant,
    FrameEntry,
    FrameLexicon,
    LexiconError,
    Rule,
    Variable,
    Violation,
    check_and_operands,
    check_frame_args,
    default_frame_lexicon,
    load_frame_lexicon,
    parse,
    strip_wiki,
    validate,
)
from genutil import WANT_GO_PRETTY, random_graph
from oracles import validate_scan


def lex(*pairs: tuple[str, list[str]]) -> FrameLexicon:
    return FrameLexicon.from_pairs(pairs)


def figure_graph():
    return strip_wiki(parse(WANT_GO_PRETTY))


class TestLexiconFile:
    def test_basic_line(self):
        lexicon = load_frame_lexicon(io.StringIO("want-01\tARG0,ARG1\n"))
        entry = lexicon.get("want-01")
        assert entry is not None
        assert entry.allowed_args == frozenset({":ARG0", ":ARG1"})

    def test_roles_with_colons(self):
        lexicon = load_frame_lexicon(io.StringIO("go-01\t:ARG0, ARG1 ,:ARG2\n"))
        assert lexicon.get("go-01").allowed_args == frozenset({":ARG0", ":ARG1", ":ARG2"})

    def test_zero_argument_frame(self):
        lexicon = load_frame_lexicon(io.StringIO("snow-01\t\n"))
        assert lexicon.get("snow-01").allowed_args == frozenset()

    def test_comments_and_blanks_skipped(self):
        text = "# header\n\nwant-01\tARG0\n   \n# tail\n"
        lexicon = load_frame_lexicon(io.StringIO(text))
        assert len(lexicon) == 1

    def test_empty_stream_is_valid(self):
        lexicon = load_frame_lexicon(io.StringIO(""))
        assert len(lexicon) == 0

    def test_missing_tab(self):
        with pytest.raises(LexiconError, match=r"<stream>:1: expected"):
            load_frame_lexicon(io.StringIO("want-01 ARG0\n"))

    def test_bad_role_token(self):
        with pytest.raises(LexiconError, match=r"bad role 'ARG7'"):
            load_frame_lexicon(io.StringIO("want-01\tARG0,ARG7\n"))
        with pytest.raises(LexiconError, match=r"bad role ':mod'"):
            load_frame_lexicon(io.StringIO("want-01\t:mod\n"))

    def test_duplicate_frame(self):
        with pytest.raises(LexiconError, match=r":3: duplicate frame 'go-01'"):
            load_frame_lexicon(io.StringIO("go-01\tARG0\nwant-01\tARG0\ngo-01\tARG1\n"))

    def test_bad_frame_id(self):
        with pytest.raises(LexiconError, match=r"sense suffix"):
            load_frame_lexicon(io.StringIO("boy\tARG0\n"))

    def test_accented_frame_ids(self):
        lexicon = load_frame_lexicon(io.StringIO("lát-01\tARG0,ARG1\nöl-01\tARG0\n"))
        assert lexicon.get("lát-01").allowed_args == frozenset({":ARG0", ":ARG1"})
        with pytest.raises(LexiconError, match=r"sense suffix"):
            load_frame_lexicon(io.StringIO("Lát-01\tARG0\n"))

    def test_error_names_path(self, tmp_path):
        path = tmp_path / "frames.tsv"
        path.write_text("oops\n", encoding="utf-8")
        with pytest.raises(LexiconError, match=r"frames\.tsv:1:"):
            load_frame_lexicon(str(path))

    def test_load_from_path(self, tmp_path):
        path = tmp_path / "frames.tsv"
        path.write_text("want-01\tARG0,ARG1\n", encoding="utf-8")
        lexicon = load_frame_lexicon(str(path))
        assert "want-01" in lexicon
        assert lexicon.source_name == str(path)

    def test_load_from_path_with_byte_order_mark(self, tmp_path):
        path = tmp_path / "frames.tsv"
        path.write_text("\ufeffwant-01\tARG0,ARG1\n", encoding="utf-8")
        lexicon = load_frame_lexicon(str(path))
        assert lexicon.get("want-01").allowed_args == {":ARG0", ":ARG1"}

    def test_default_lexicon(self):
        lexicon = default_frame_lexicon()
        assert "want-01" in lexicon
        assert "go-01" in lexicon
        assert lexicon.get("want-01").allows(":ARG0")
        assert lexicon.get("want-01").allows(":ARG1")
        assert not lexicon.get("want-01").allows(":ARG5")


class TestLexiconTypes:
    def test_frame_entry_requires_frame_id(self):
        with pytest.raises(ValueError, match="sense suffix"):
            FrameEntry("boy", frozenset())

    def test_allows(self):
        entry = FrameEntry("want-01", frozenset({":ARG0"}))
        assert entry.allows(":ARG0")
        assert not entry.allows(":ARG1")

    def test_from_pairs_normalizes(self):
        lexicon = lex(("want-01", ["ARG0", ":ARG1"]))
        assert lexicon.get("want-01").allowed_args == frozenset({":ARG0", ":ARG1"})

    def test_membership_and_len(self):
        lexicon = lex(("want-01", ["ARG0"]), ("go-01", []))
        assert "want-01" in lexicon and "go-01" in lexicon
        assert "say-01" not in lexicon
        assert len(lexicon) == 2
        assert lexicon.get("say-01") is None


class TestAndOperands:
    def test_single_operand_flagged(self):
        graph = parse("( a / and :op1 ( x / run-01 ) )")
        violations = check_and_operands(graph)
        assert len(violations) == 1
        v = violations[0]
        assert v.rule is Rule.AND_ARITY
        assert v.node == "a"
        assert v.detail == "'and' node has 1 :op operands (minimum 2)"

    def test_two_operands_pass(self):
        graph = parse("( a / and :op1 ( x / run-01 ) :op2 ( y / walk-01 ) )")
        assert check_and_operands(graph) == []

    def test_zero_operands_flagged(self):
        graph = parse("( a / and :mod ( x / thing ) )")
        [v] = check_and_operands(graph)
        assert "has 0 :op operands" in v.detail

    def test_figure_graph_passes(self):
        assert check_and_operands(figure_graph()) == []

    def test_nested_and_nodes(self):
        graph = parse(
            "( a / and :op1 ( b / and :op1 ( x / run-01 ) ) :op2 ( y / walk-01 ) )"
        )
        [v] = check_and_operands(graph)
        assert v.node == "b"

    def test_non_numbered_op_roles_do_not_count(self):
        graph = parse("( a / and :op ( x / run-01 ) :opX ( y / walk-01 ) )")
        [v] = check_and_operands(graph)
        assert "has 0 :op operands" in v.detail

    @pytest.mark.parametrize("ops", [0, 1, 2, 3, 5])
    def test_soundness_by_recount(self, ops):
        inner = " ".join(f":op{i + 1} ( x{i} / thing )" for i in range(ops))
        graph = parse(f"( a / and {inner} :mod ( m / today ) )".replace("  ", " "))
        violations = check_and_operands(graph)
        assert bool(violations) == (ops < 2)


class TestFrameArgs:
    def test_figure_graph_passes_both_policies(self):
        graph = figure_graph()
        lexicon = default_frame_lexicon()
        assert check_frame_args(graph, lexicon, "ignore") == []
        assert check_frame_args(graph, lexicon, "flag") == []

    def test_illegal_arg(self):
        graph = parse("( w / want-01 :ARG5 ( b / boy ) )")
        [v] = check_frame_args(graph, default_frame_lexicon())
        assert v.rule is Rule.ILLEGAL_ARG
        assert v.node == "w"
        assert v.detail == "frame 'want-01' does not allow :ARG5"

    def test_any_numbered_arg_is_core(self):
        # the lexicon file lists :ARG0 to :ARG6, but a graph's :ARG9 is a
        # core role all the same, so no frame allows it
        graph = parse("( w / want-01 :ARG9 ( b / boy ) )")
        [v] = check_frame_args(graph, default_frame_lexicon())
        assert (v.rule, v.node, v.detail) == (
            Rule.ILLEGAL_ARG,
            "w",
            "frame 'want-01' does not allow :ARG9",
        )
        inverse = parse("( b / boy :ARG12-of ( w / want-01 ) )")
        [v] = check_frame_args(inverse, default_frame_lexicon())
        assert v.detail == "frame 'want-01' does not allow :ARG12"

    def test_unknown_frame_policies(self):
        graph = parse("( z / zorch-01 :ARG0 ( b / boy ) )")
        lexicon = default_frame_lexicon()
        assert check_frame_args(graph, lexicon, "ignore") == []
        [v] = check_frame_args(graph, lexicon, "flag")
        assert v.rule is Rule.UNKNOWN_FRAME
        assert v.detail == "frame 'zorch-01' is not in the lexicon"

    def test_accented_frame_is_checked(self):
        graph = parse("( l / lát-01 :ARG7 ( b / boy ) )")
        [v] = check_frame_args(graph, lex(("lát-01", ["ARG0", "ARG1"])))
        assert v.detail == "frame 'lát-01' does not allow :ARG7"
        [v] = check_frame_args(graph, default_frame_lexicon(), "flag")
        assert v.detail == "frame 'lát-01' is not in the lexicon"

    def test_decomposed_frame_is_checked_and_looked_up_as_written(self):
        decomposed = unicodedata.normalize("NFD", "lát-01")
        graph = parse(f"( l / {decomposed} :ARG7 ( b / boy ) )")
        [v] = check_frame_args(graph, lex((decomposed, ["ARG0", "ARG1"])))
        assert v.rule is Rule.ILLEGAL_ARG
        # the lexicon's composed spelling is another label
        [v] = check_frame_args(graph, lex(("lát-01", ["ARG0", "ARG1"])), "flag")
        assert v.rule is Rule.UNKNOWN_FRAME

    def test_bad_policy_rejected(self):
        with pytest.raises(ValueError, match="unknown_frame_policy"):
            check_frame_args(figure_graph(), default_frame_lexicon(), "strict")

    def test_incoming_inverse_role_checked_against_target(self):
        # t :ARG5-of r asserts r :ARG5 t, so the :ARG5 belongs to run-01
        graph = parse("( t / thing :ARG5-of ( r / run-01 ) )")
        [v] = check_frame_args(graph, default_frame_lexicon())
        assert (v.node, v.rule) == ("r", Rule.ILLEGAL_ARG)
        assert v.detail == "frame 'run-01' does not allow :ARG5"

    def test_outgoing_inverse_role_not_charged_to_source(self):
        # r :ARG5-of t asserts t :ARG5 r; 'thing' is not a frame, so
        # nothing is checked even though run-01 is in the lexicon
        graph = parse("( r / run-01 :ARG5-of ( t / thing ) )")
        assert check_frame_args(graph, default_frame_lexicon()) == []

    def test_legal_inverse_role(self):
        graph = parse("( b / boy :ARG0-of ( r / run-01 ) )")
        assert check_frame_args(graph, default_frame_lexicon()) == []

    def test_noncore_roles_never_checked(self):
        graph = parse("( w / want-01 :mod ( t / today ) :op1 ( x / thing ) )")
        assert check_frame_args(graph, default_frame_lexicon()) == []

    def test_repeated_illegal_role_reported_once(self):
        graph = parse("( w / want-01 :ARG5 ( b / boy ) :ARG5 ( g / girl ) )")
        assert len(check_frame_args(graph, default_frame_lexicon())) == 1

    def test_multiple_illegal_roles_sorted(self):
        graph = parse("( w / want-01 :ARG6 ( b / boy ) :ARG5 ( g / girl ) )")
        details = [v.detail for v in check_frame_args(graph, default_frame_lexicon())]
        assert details == [
            "frame 'want-01' does not allow :ARG5",
            "frame 'want-01' does not allow :ARG6",
        ]

    def test_zero_argument_frame_rejects_any_arg(self):
        lexicon = lex(("snow-01", []))
        graph = parse("( s / snow-01 :ARG1 ( t / thing ) )")
        [v] = check_frame_args(graph, lexicon)
        assert v.detail == "frame 'snow-01' does not allow :ARG1"


class TestValidate:
    def test_figure_graph_passes(self):
        report = validate(figure_graph(), default_frame_lexicon(), graph_id="fig")
        assert report.passed
        assert report.graph_id == "fig"
        assert report.violations == ()

    def test_and_arity_fails(self):
        report = validate(parse("( a / and :op1 ( s / say-01 ) )"), default_frame_lexicon())
        assert not report.passed
        assert [v.rule for v in report.violations] == [Rule.AND_ARITY]

    def test_two_rules_ordered_by_node(self):
        graph = parse("( a / and :op1 ( w / want-01 :ARG5 ( b / boy ) ) )")
        report = validate(graph, default_frame_lexicon())
        assert [(v.node, v.rule) for v in report.violations] == [
            ("a", Rule.AND_ARITY),
            ("w", Rule.ILLEGAL_ARG),
        ]
        assert report.counts() == {Rule.AND_ARITY: 1, Rule.ILLEGAL_ARG: 1}

    def test_deterministic(self):
        graph = parse("( a / and :op1 ( w / want-01 :ARG5 ( b / boy ) ) )")
        lexicon = default_frame_lexicon()
        assert validate(graph, lexicon) == validate(graph, lexicon)

    def test_violation_str(self):
        report = validate(parse("( a / and :op1 ( s / say-01 ) )"), default_frame_lexicon())
        assert str(report.violations[0]) == (
            "AndArity at a: 'and' node has 1 :op operands (minimum 2)"
        )


ALL_CORE = [f":ARG{i}" for i in range(7)]


def illegal_count(graph, lexicon) -> int:
    return sum(1 for v in check_frame_args(graph, lexicon) if v.rule is Rule.ILLEGAL_ARG)


class TestLexiconGrowth:
    """How violation counts respond to a growing lexicon.

    Widening the role set of frames already listed can only remove
    IllegalArg violations.  Listing a frame that was previously unlisted
    can introduce new ones under the ignore policy, because the frame's
    arguments were not being judged before — so growth is monotone only
    entry-wise, not lexicon-wise.
    """

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_widening_roles_never_adds_violations(self, seed):
        rng = random.Random(seed)
        graph = random_graph(rng, max_vars=10)
        frames = sorted({c.label for c in graph.instances.values() if c.is_frame})
        base_pairs = []
        for frame in frames:
            if rng.random() < 0.8:
                base_pairs.append((frame, rng.sample(ALL_CORE, rng.randrange(0, 4))))
        base = FrameLexicon.from_pairs(base_pairs)
        widened = FrameLexicon.from_pairs(
            [
                (frame, sorted(set(roles) | set(rng.sample(ALL_CORE, rng.randrange(0, 7)))))
                for frame, roles in base_pairs
            ]
        )
        assert illegal_count(graph, widened) <= illegal_count(graph, base)

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_entries_for_absent_frames_change_nothing(self, seed):
        rng = random.Random(seed)
        graph = random_graph(rng, max_vars=10)
        used = {c.label for c in graph.instances.values()}
        assert "zzznope-01" not in used and "qqmiss-02" not in used
        base_pairs = [
            (label, rng.sample(ALL_CORE, rng.randrange(0, 5)))
            for label in sorted({c.label for c in graph.instances.values() if c.is_frame})
            if rng.random() < 0.7
        ]
        base = FrameLexicon.from_pairs(base_pairs)
        grown = FrameLexicon.from_pairs(
            base_pairs + [("zzznope-01", ["ARG0"]), ("qqmiss-02", [])]
        )
        for policy in ("ignore", "flag"):
            assert check_frame_args(graph, base, policy) == check_frame_args(
                graph, grown, policy
            )

    def test_listing_a_new_frame_can_add_violations(self):
        # the reason lexicon-wise monotonicity does not hold under ignore
        graph = parse("( w / want-01 :ARG5 ( b / boy ) )")
        small = lex(("go-01", ["ARG0"]))
        grown = lex(("go-01", ["ARG0"]), ("want-01", ["ARG0", "ARG1"]))
        assert illegal_count(graph, small) == 0
        assert illegal_count(graph, grown) == 1


# graphs the random generator rarely or never produces
ORACLE_HAND_CASES = [
    # :ARGn-of edges onto constants count for no variable
    '( w / want-01 :ARG0-of "x" :ARG5-of 7 :ARG1 ( b / boy :ARG2-of - ) )',
    # self-loops, both directions
    "( w / want-01 :ARG5 w :ARG6-of w :ARG0 ( g / go-01 :ARG3-of g ) )",
    # reentrant :op edges into an and node
    "( a / and :op1 ( r / run-01 :ARG0 ( d / dog ) ) :op1 r :op2 a )",
    "( a / and :op1 ( b / and :op1 a ) :mod b :op3-of b )",
    "( s / say-01 :ARG1-of ( a / and :op1 s :op1-of s ) )",
]


class TestValidationOracle:
    """The one-pass role index against the per-variable edge rescans it
    replaced."""

    LEXICONS = [
        default_frame_lexicon(),
        FrameLexicon.from_pairs(
            [("want-01", ["ARG0"]), ("go-01", []), ("say-01", ["ARG0", "ARG2"]), ("run-01", [])]
        ),
    ]

    def check(self, graph: AmrGraph) -> None:
        for lexicon in self.LEXICONS:
            for policy in ("ignore", "flag"):
                assert validate(graph, lexicon, policy, "g") == validate_scan.validate(
                    graph, lexicon, policy, "g"
                )
                assert check_frame_args(graph, lexicon, policy) == (
                    validate_scan.check_frame_args(graph, lexicon, policy)
                )
        assert check_and_operands(graph) == validate_scan.check_and_operands(graph)

    @pytest.mark.parametrize("text", ORACLE_HAND_CASES)
    def test_hand_cases(self, text):
        self.check(parse(text))

    def test_random_graphs(self):
        rng = random.Random(23)
        for _ in range(300):
            self.check(random_graph(rng, max_vars=30))

    def test_random_and_nodes_with_reentrant_operands(self):
        rng = random.Random(29)
        roles = [":op1", ":op2", ":op3", ":ARG0", ":ARG1-of", ":ARG2", ":mod"]
        for _ in range(200):
            count = rng.randint(1, 12)
            variables = [Variable(f"v{i}") for i in range(count)]
            labels = ["and", "want-01", "go-01", "say-01", "boy"]
            instances = {v: Concept(rng.choice(labels)) for v in variables}
            edges = [
                (variables[rng.randrange(i)], rng.choice(roles), variables[i])
                for i in range(1, count)
            ]
            for _ in range(rng.randint(0, 2 * count)):
                target = variables[rng.randrange(count)]
                if rng.random() < 0.1:
                    target = Constant("7", "number")
                edges.append((variables[rng.randrange(count)], rng.choice(roles), target))
            self.check(AmrGraph.build(variables[0], instances, edges))
