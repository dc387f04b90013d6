"""Smatch scoring: triple matching, exact and hill-climbing alignment,
pair and corpus scores."""

from __future__ import annotations

import dis
import random
import sys
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amrkit import (
    AmrGraph,
    Concept,
    Constant,
    MatchConfig,
    SmatchScore,
    VarMapping,
    Variable,
    match_exact,
    match_hillclimb,
    matched_triples,
    parse,
    score_corpus,
    score_pair,
    strip_wiki,
)
from amrkit import smatch
from amrkit._parallel import parallel_map
from amrkit.smatch import _climb, _random_assign, _Weights
from genutil import CONCEPTS, ROLES, WANT_GO_PRETTY, random_graph, rename_variables
from oracles import smatch_climb
from oracles.smatch_climb import match_hillclimb_rekeyed
from oracles.smatch_exact import match_exact_two_loops


def figure():
    return strip_wiki(parse(WANT_GO_PRETTY))


def figure_minus_arg1():
    """The figure graph without the w -> g :ARG1 edge; g stays connected
    through its own :ARG0 edge to b."""
    graph = figure()
    kept = [
        (e.source, e.role, e.target)
        for e in graph.edges
        if not (e.source == Variable("w") and e.role == ":ARG1")
    ]
    return AmrGraph.build(graph.root, dict(graph.instances), kept)


def identity_mapping(graph: AmrGraph) -> VarMapping:
    return VarMapping(tuple((v.name, v.name) for v in graph.variables()))


class TestVarMapping:
    def test_accessors(self):
        mapping = VarMapping((("a", "x"), ("b", "y")))
        assert mapping.as_dict() == {"a": "x", "b": "y"}
        assert mapping.get("a") == "x"
        assert mapping.get("zz") is None
        assert len(mapping) == 2

    def test_get_missing_name(self):
        mapping = VarMapping((("a", "x"), ("b", "y")))
        # a reference name is not a predicted name
        assert mapping.get("x") is None
        assert VarMapping(()).get("a") is None

    def test_duplicate_pred_rejected(self):
        with pytest.raises(ValueError, match="one-to-one"):
            VarMapping((("a", "x"), ("a", "y")))

    def test_duplicate_gold_rejected(self):
        with pytest.raises(ValueError, match="one-to-one"):
            VarMapping((("a", "x"), ("b", "x")))

    def test_empty_is_fine(self):
        assert len(VarMapping(())) == 0


class TestSmatchScore:
    def test_from_counts(self):
        score = SmatchScore.from_counts(11, 11, 12)
        assert score.precision == 1.0
        assert score.recall == pytest.approx(11 / 12, abs=1e-12)
        assert score.f1 == pytest.approx(22 / 23, abs=1e-12)

    def test_perfect(self):
        score = SmatchScore.from_counts(12, 12, 12)
        assert (score.precision, score.recall, score.f1) == (1.0, 1.0, 1.0)

    def test_zero_denominators(self):
        score = SmatchScore.from_counts(0, 0, 12)
        assert (score.precision, score.recall, score.f1) == (0.0, 0.0, 0.0)
        score = SmatchScore.from_counts(0, 12, 0)
        assert (score.precision, score.recall, score.f1) == (0.0, 0.0, 0.0)
        score = SmatchScore.from_counts(0, 0, 0)
        assert score.f1 == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            SmatchScore.from_counts(-1, 2, 2)

    def test_matched_above_total_rejected(self):
        with pytest.raises(ValueError, match="exceeds"):
            SmatchScore.from_counts(3, 2, 5)
        with pytest.raises(ValueError, match="exceeds"):
            SmatchScore.from_counts(3, 5, 2)


class TestMatchConfig:
    def test_defaults(self):
        config = MatchConfig()
        assert (config.restarts, config.seed) == (4, 0)
        assert config.include_top and config.exact_threshold == 8

    def test_restarts_validated(self):
        with pytest.raises(ValueError, match="restarts"):
            MatchConfig(restarts=0)


class TestMatchedTriples:
    def test_identity_on_figure(self):
        graph = figure()
        assert matched_triples(graph, graph, identity_mapping(graph)) == 12
        assert matched_triples(graph, graph, identity_mapping(graph), include_top=False) == 11

    def test_correct_mapping_after_rename(self):
        graph = figure()
        renamed = rename_variables(graph, random.Random(3))
        pairs = tuple(
            (new.name, old.name)
            for old, new in zip(graph.variables(), renamed.variables())
        )
        assert matched_triples(renamed, graph, VarMapping(pairs)) == 12

    def test_deleted_edge_costs_one(self):
        reduced = figure_minus_arg1()
        assert matched_triples(reduced, figure(), identity_mapping(reduced)) == 11

    def test_empty_mapping_matches_nothing(self):
        graph = figure()
        assert matched_triples(graph, graph, VarMapping(())) == 0

    def test_partial_mapping(self):
        graph = figure()
        # only b is aligned: its instance triple is the single match
        assert matched_triples(graph, graph, VarMapping((("b", "b"),))) == 1

    def test_wrong_mapping_scores_low(self):
        graph = figure()
        swapped = VarMapping((("w", "g"), ("g", "w"), ("b", "b"), ("c", "c"), ("n", "n")))
        # loses both instance triples of w/g, the top marker, and w's two
        # edges; keeps g's :ARG0 b as w's... enumerate: count must be
        # strictly below the optimum
        assert matched_triples(graph, graph, swapped) < 12


class TestMatchExact:
    def test_self_is_total_with_identity(self):
        graph = figure()
        mapping, count = match_exact(graph, graph)
        assert count == 12
        assert mapping.as_dict() == {v.name: v.name for v in graph.variables()}

    def test_boy_girl(self):
        pred, gold = parse("( a / boy )"), parse("( b / girl )")
        _, count = match_exact(pred, gold)
        assert count == 1
        _, count = match_exact(pred, gold, MatchConfig(include_top=False))
        assert count == 0

    def test_concept_substitution_costs_one(self):
        gold = figure()
        pred = parse(
            '( w / want-01 :ARG0 ( b / girl :mod ( c / country :name '
            '( n / name :op1 "Hungary" ) ) ) :ARG1 ( g / go-01 :ARG0 b ) )'
        )
        _, count = match_exact(pred, gold)
        assert count == 11

    def test_threshold_guard(self):
        rng = random.Random(9)
        big = None
        while big is None or len(big.variables()) <= 8:
            big = random_graph(rng, max_vars=12)
        with pytest.raises(ValueError, match="at most 8 variables"):
            match_exact(big, big)
        # one small side is enough, whichever side it is
        small = parse("( a / boy )")
        _, count = match_exact(small, big)
        assert count >= 0
        _, count = match_exact(big, small)
        assert count >= 0

    def test_refuses_a_small_side_against_a_much_larger_one(self):
        # 8 against 40 variables would be math.perm(40, 8), about 3.1e12,
        # assignments; it is refused before any search starts
        rng = random.Random(4)
        small = random_graph(rng, max_vars=8, min_vars=8)
        large = random_graph(rng, max_vars=40, min_vars=40)
        for pred, gold in [(small, large), (large, small)]:
            with pytest.raises(ValueError, match="8 against 40 variables"):
                match_exact(pred, gold)
        # score_pair never sends such a pair to the exhaustive search
        assert score_pair(small, large).pred_total == len(small.triples(True))

    def test_threshold_is_configurable(self):
        graph = parse("( a / x :mod ( b / y ) :poss ( c / z ) )")
        with pytest.raises(ValueError, match="at most 2 variables"):
            match_exact(graph, graph, MatchConfig(exact_threshold=2))
        _, count = match_exact(graph, graph, MatchConfig(exact_threshold=3))
        assert count == len(graph.triples(True))

    def test_search_is_bounded_on_renamed_copies_of_12_to_14_variables(self):
        # enumerating every mapping would take up to 14!, about 8.7e10,
        # leaves; a renamed copy keeps definition order, so the first leaf
        # is optimal and every other subtree must be skipped by its bound
        rng = random.Random(1214)
        config = MatchConfig(exact_threshold=14)
        for n in (12, 13, 14) * 3:
            gold = random_graph(rng, n, min_vars=n)
            pred = rename_variables(gold, rng)
            mapping, count = match_exact(pred, gold, config)
            assert count == len(gold.triples(True))
            assert matched_triples(pred, gold, mapping) == count

    def test_search_depth_is_not_limited_by_recursion(self):
        # one search level per variable of the smaller side: more levels
        # than the interpreter's default recursion limit of 1,000
        rng = random.Random(1100)
        gold = random_graph(rng, 1100, min_vars=1100)
        pred = rename_variables(gold, rng)
        _, count = match_exact(pred, gold, MatchConfig(exact_threshold=1100))
        assert count == len(gold.triples(True))

    def test_smaller_pred_side(self):
        pred = parse("( b / boy )")
        gold = figure()
        mapping, count = match_exact(pred, gold)
        # either the instance (b to b) or the top marker (b to w) can
        # match, but never both at once
        assert count == 1
        assert len(mapping) == 1
        assert matched_triples(pred, gold, mapping) == count

    def test_smaller_gold_side(self):
        pred = figure()
        gold = parse("( b / boy )")
        mapping, count = match_exact(pred, gold)
        assert count == 1
        # unmapped predicted variables stay out of the mapping
        assert len(mapping) == 1
        assert matched_triples(pred, gold, mapping) == count


def with_repeated_relations(graph: AmrGraph, rng: random.Random, count: int = 2) -> AmrGraph:
    """``graph`` plus up to ``count`` relations between variables it
    already links: a repeat of an edge, the same pair under another
    role, or the pair the other way round."""
    edges = [(e.source, e.role, e.target) for e in graph.edges]
    linked = [e for e in edges if isinstance(e[2], Variable) and e[2] != e[0]]
    for source, role, target in rng.sample(linked, min(count, len(linked))):
        other_role = rng.choice(ROLES)
        extra = [(source, role, target), (source, other_role, target), (target, role, source)]
        edges.append(rng.choice(extra))
    return AmrGraph.build(graph.root, dict(graph.instances), edges)


def _size_class(pred: AmrGraph, gold: AmrGraph) -> str:
    n_pred, n_gold = len(pred.variables()), len(gold.variables())
    return "pred smaller" if n_pred < n_gold else "gold smaller" if n_pred > n_gold else "equal"


class TestExactOracle:
    """``match_exact`` against the two-loop search it replaced, and the
    returned counts against a recount of the returned mappings."""

    @pytest.mark.parametrize("include_top", [True, False])
    def test_same_mapping_and_count_as_oracle(self, include_top):
        rng = random.Random(505)
        config = MatchConfig(include_top=include_top)
        per_class = 40
        seen: Counter = Counter()
        while len(seen) < 3 or min(seen.values()) < per_class:
            pred, gold = random_graph(rng, 6), random_graph(rng, 6)
            if rng.random() < 0.25:
                # a renamed copy has many tied optima
                pred = rename_variables(gold, rng)
            size_class = _size_class(pred, gold)
            if seen[size_class] >= per_class:
                continue
            seen[size_class] += 1
            assert match_exact(pred, gold, config) == match_exact_two_loops(pred, gold, config)

    @pytest.mark.parametrize("include_top", [True, False])
    def test_same_mapping_and_count_as_oracle_at_7_and_8_variables(self, include_top):
        # up to 8 variables, where the bound skips most of the enumeration:
        # lopsided pairs of 3-8 against 8 variables in both directions, then
        # unrelated, renamed and nearly equal 7-variable pairs, all with
        # repeated relations
        rng = random.Random(707)
        config = MatchConfig(include_top=include_top)
        pairs = []
        for n in range(3, 9):
            small = random_graph(rng, n, min_vars=n)
            large = with_repeated_relations(random_graph(rng, 8, min_vars=8), rng)
            pairs += [(small, large), (large, small)] if n < 8 else [(small, large)]
        for _ in range(3):
            gold = with_repeated_relations(random_graph(rng, 7, min_vars=7), rng)
            unrelated = random_graph(rng, 7, min_vars=7)
            preds = [rename_variables(gold, rng), near_copy(gold, rng), unrelated]
            pairs += [(with_repeated_relations(pred, rng), gold) for pred in preds]
        for pred, gold in pairs:
            assert match_exact(pred, gold, config) == match_exact_two_loops(pred, gold, config)

    def test_oracle_refuses_like_match_exact(self):
        graph = parse("( a / x :mod ( b / y ) :poss ( c / z ) )")
        config = MatchConfig(exact_threshold=2)
        for search in (match_exact, match_exact_two_loops):
            with pytest.raises(ValueError, match="at most 2 variables"):
                search(graph, graph, config)

    @pytest.mark.parametrize("include_top", [True, False])
    def test_counts_belong_to_mappings(self, include_top):
        rng = random.Random(606)
        config = MatchConfig(restarts=2, include_top=include_top, seed=11)
        for _ in range(20):
            pred, gold = random_graph(rng, 15), random_graph(rng, 15)
            if rng.random() < 0.3:
                pred = rename_variables(gold, rng)
            mapping, count = match_hillclimb(pred, gold, config)
            assert matched_triples(pred, gold, mapping, include_top) == count
            # one small side keeps the exhaustive search cheap
            small = random_graph(rng, 3)
            for left, right in ((small, gold), (gold, small)):
                mapping, count = match_exact(left, right, config)
                assert matched_triples(left, right, mapping, include_top) == count


@st.composite
def small_graphs(draw, max_vars: int = 6) -> AmrGraph:
    """Graphs of at most ``max_vars`` variables over few concepts and
    roles, so that triples coincide often; extra edges may repeat a
    relation or close a self-loop."""
    count = draw(st.integers(1, max_vars))
    variables = [Variable(f"v{i}") for i in range(count)]
    concepts = st.sampled_from(CONCEPTS[:4])
    roles = st.sampled_from(ROLES[:3])
    positions = st.integers(0, count - 1)
    instances = {v: Concept(draw(concepts)) for v in variables}
    edges: list = [
        (variables[draw(st.integers(0, i - 1))], draw(roles), variables[i])
        for i in range(1, count)
    ]
    for source, role, target in draw(st.lists(st.tuples(positions, roles, positions), max_size=3)):
        edges.append((variables[source], role, variables[target]))
    for source, role, value in draw(
        st.lists(st.tuples(positions, roles, st.sampled_from(["-", "+"])), max_size=2)
    ):
        edges.append((variables[source], role, Constant(value, "symbol")))
    return AmrGraph.build(variables[0], instances, edges)


def near_copy(graph: AmrGraph, rng: random.Random, changes: int = 3) -> AmrGraph:
    """A renamed copy of ``graph`` with ``changes`` concepts replaced and
    about one role in ten redrawn: close to ``graph`` but not equal."""
    renamed = rename_variables(graph, rng)
    instances = dict(renamed.instances)
    for var in rng.sample(list(instances), min(changes, len(instances))):
        instances[var] = Concept(rng.choice(CONCEPTS))
    edges = [
        (e.source, rng.choice(ROLES) if rng.random() < 0.1 else e.role, e.target)
        for e in renamed.edges
    ]
    return AmrGraph.build(renamed.root, instances, edges)


class TestClimbOracle:
    """``match_hillclimb`` against the triple-keyed climb it replaced: the
    same moves in the same order with the same tie-breaks, so the same
    mapping and count."""

    @pytest.mark.parametrize("seed", [3, 8])
    @pytest.mark.parametrize("include_top", [True, False])
    def test_same_mapping_and_count_as_oracle(self, include_top, seed):
        rng = random.Random(2 * seed + include_top)
        config = MatchConfig(restarts=2, include_top=include_top, seed=seed)
        # unrelated pairs tie often, so they check the tie-breaks
        for kind in ("near", "far", "far") * 2:
            gold = random_graph(rng, 25, min_vars=9)
            if kind == "near":
                pred = near_copy(gold, rng)
            else:
                pred = random_graph(rng, 25, min_vars=9)
            result = match_hillclimb(pred, gold, config)
            assert result == match_hillclimb_rekeyed(pred, gold, config), kind
            assert matched_triples(pred, gold, result[0], include_top) == result[1]

    @pytest.mark.parametrize("include_top", [True, False])
    def test_every_climb_ends_where_the_oracle_does(self, include_top):
        # the winning restart hides where the others ended, so compare
        # single climbs from the same random start
        rng = random.Random(40 + include_top)
        for _ in range(30):
            pred, gold = random_graph(rng, 20, min_vars=2), random_graph(rng, 20, min_vars=2)
            gold_names = [v.name for v in gold.variables()]
            start = _random_assign(len(pred.instances), len(gold_names), rng)
            assign = list(start)
            count = _climb(_Weights(pred, gold, include_top), assign)
            # the oracle climbs on names: translate the positions for it
            state = smatch_climb._MatchState(
                smatch_climb._PredSide(pred, include_top),
                smatch_climb._gold_keys(gold, include_top),
                [None if a is None else gold_names[a] for a in start],
            )
            smatch_climb._climb(state, gold_names)
            names = [None if a is None else gold_names[a] for a in assign]
            assert (names, count) == (state.assign, state.matched)

    def test_swap_that_breaks_a_matched_relation(self):
        # swapping loses the matched :ARG0 but wins both concepts
        pred, gold = parse("( i / x :ARG0 ( h / y ) )"), parse("( p / y :ARG0 ( q / x ) )")
        gold_names = ["p", "q"]
        assign = [0, 1]
        assert _climb(_Weights(pred, gold, include_top=False), assign) == 2
        assert [gold_names[a] for a in assign] == ["q", "p"]

    @pytest.mark.parametrize("include_top", [True, False])
    def test_lopsided_pairs(self, include_top):
        # a small side leaves free reference names, or predicted variables
        # with no name at all
        rng = random.Random(70 + include_top)
        config = MatchConfig(restarts=3, include_top=include_top, seed=5)
        for _ in range(5):
            small, large = random_graph(rng, 6), random_graph(rng, 30, min_vars=9)
            for pred, gold in ((small, large), (large, small)):
                result = match_hillclimb(pred, gold, config)
                assert result == match_hillclimb_rekeyed(pred, gold, config)

    @pytest.mark.parametrize("kind", ["near", "far"])
    def test_largest_bench_sizes(self, kind):
        rng = random.Random(90 if kind == "near" else 91)
        config = MatchConfig(restarts=2, seed=2)
        gold = random_graph(rng, 40, min_vars=30)
        pred = near_copy(gold, rng) if kind == "near" else random_graph(rng, 40, min_vars=30)
        assert match_hillclimb(pred, gold, config) == match_hillclimb_rekeyed(pred, gold, config)

    @settings(max_examples=80, deadline=None)
    @given(
        pred=small_graphs(max_vars=8),
        gold=small_graphs(max_vars=8),
        restarts=st.integers(1, 3),
        seed=st.integers(0, 2**16),
    )
    def test_small_graphs_property(self, pred, gold, restarts, seed):
        for include_top in (True, False):
            config = MatchConfig(restarts=restarts, seed=seed, include_top=include_top)
            assert match_hillclimb(pred, gold, config) == match_hillclimb_rekeyed(pred, gold, config)


def ceiling(pred: AmrGraph, gold: AmrGraph, include_top: bool) -> int:
    """The count no mapping can beat, from the static bound and the two
    triple totals."""
    static = sum(_Weights(pred, gold, include_top).tops())
    return min(static, len(pred.triples(include_top)), len(gold.triples(include_top)))


class TestRestartStop:
    """``match_hillclimb`` starts no restart once its best count reaches
    the ceiling; a later restart could only tie, so no result changes."""

    @staticmethod
    def counted_climbs(monkeypatch, climber=_climb) -> list:
        climbs: list = []

        def climb(weights, assign):
            climbs.append(len(assign))
            return climber(weights, assign)

        monkeypatch.setattr(smatch, "_climb", climb)
        return climbs

    def test_renamed_copy_climbs_once(self, monkeypatch):
        rng = random.Random(5)
        gold = random_graph(rng, 30, min_vars=20)
        pred = rename_variables(gold, rng)
        climbs = self.counted_climbs(monkeypatch)
        _, count = match_hillclimb(pred, gold, MatchConfig(restarts=4))
        assert count == len(gold.triples(include_top=True))
        assert len(climbs) == 1

    def test_pair_below_its_ceiling_runs_every_restart(self, monkeypatch):
        rng = random.Random(6)
        pred, gold = random_graph(rng, 20, min_vars=12), random_graph(rng, 20, min_vars=12)
        climbs = self.counted_climbs(monkeypatch)
        _, count = match_hillclimb(pred, gold, MatchConfig(restarts=4))
        assert count < ceiling(pred, gold, include_top=True)
        assert len(climbs) == 4

    def test_stops_at_the_ceiling_and_not_before(self, monkeypatch):
        rng = random.Random(8)
        pred, gold = random_graph(rng, 12, min_vars=9), random_graph(rng, 12, min_vars=9)
        top = ceiling(pred, gold, include_top=True)
        scripted = iter([top - 1, top - 1, top, top])
        climbs = self.counted_climbs(monkeypatch, lambda weights, assign: next(scripted))
        _, count = match_hillclimb(pred, gold, MatchConfig(restarts=4))
        assert (count, len(climbs)) == (top, 3)

    def test_static_bound_holds_against_the_optimum(self):
        rng = random.Random(7)
        for _ in range(40):
            pred, gold = random_graph(rng, 6), random_graph(rng, 6)
            for include_top in (True, False):
                _, optimum = match_exact(pred, gold, MatchConfig(include_top=include_top))
                assert optimum <= sum(_Weights(pred, gold, include_top).tops())

    @pytest.mark.parametrize("seed", range(3))
    def test_same_result_as_running_every_restart(self, seed):
        # the oracle runs every restart; renamed copies stop at the first
        rng = random.Random(300 + seed)
        stopped = 0
        for include_top in (True, False):
            config = MatchConfig(seed=seed, include_top=include_top)
            for kind in ("renamed", "near", "far", "far"):
                gold = random_graph(rng, 18, min_vars=9)
                if kind == "renamed":
                    pred = rename_variables(gold, rng)
                elif kind == "near":
                    pred = near_copy(gold, rng)
                else:
                    pred = random_graph(rng, 18, min_vars=9)
                result = match_hillclimb(pred, gold, config)
                assert result == match_hillclimb_rekeyed(pred, gold, config), kind
                stopped += result[1] == ceiling(pred, gold, include_top)
        assert stopped >= 2


def climb_both(
    pred: AmrGraph, gold: AmrGraph, start: list, include_top: bool
) -> tuple[tuple[list, int], tuple[list, int]]:
    """One climb from ``start`` (reference names, ``None`` for none) by
    ``_climb`` and by the name-keyed oracle, each as (names, count)."""
    gold_names = [v.name for v in gold.variables()]
    assign = [None if name is None else gold_names.index(name) for name in start]
    count = _climb(_Weights(pred, gold, include_top), assign)
    state = smatch_climb._MatchState(
        smatch_climb._PredSide(pred, include_top),
        smatch_climb._gold_keys(gold, include_top),
        list(start),
    )
    smatch_climb._climb(state, gold_names)
    names = [None if a is None else gold_names[a] for a in assign]
    return (names, count), (state.assign, state.matched)


class TestClimbFields:
    """The bookkeeping ``_climb`` carries from step to step: per-variable
    fields, the owner of each name and the cached candidate rows.  Each
    case is checked against the oracle climb from the same start."""

    def test_swap_across_two_tables(self):
        # i and h are joined by :ARG0 one way and :ARG1 the other: the
        # swap wins both concepts and both relations, and both relations
        # sit in the tables joining the pair, which the four field entries
        # alone miss
        pred = parse("( i / x :ARG0 ( h / y :ARG1 i ) )")
        gold = parse("( p / y :ARG1 ( q / x :ARG0 p ) )")
        ours, oracle = climb_both(pred, gold, ["p", "q"], include_top=False)
        assert ours == oracle == (["q", "p"], 4)

    def test_unnamed_variable_takes_a_held_name(self):
        # five predicted variables, three reference ones: i starts without
        # a name and takes q from h, which is left without one.  k's field
        # must lose the :ARG0 term that needed h at q, or k would take p
        # for nothing; and g, which also wants q, must find i holding it
        pred = parse(
            "( i / y :polarity - :ARG1 ( k / z :ARG0 ( h / z ) ) :ARG2 ( f / z ) :ARG3 ( g / y ) )"
        )
        gold = parse("( p / x :ARG0 ( q / y :polarity - ) :ARG1 ( r / w ) )")
        ours, oracle = climb_both(pred, gold, [None, "r", "q", "p", None], include_top=False)
        assert ours == oracle == (["q", "r", None, "p", None], 2)

    def test_unmoved_variable_rebuilds_its_row(self):
        # step 1: a takes p (the root marker) from d, which gets r.  b does
        # not move, but d wants b's name q, so b's row must now offer r:
        # step 2 is b taking r and handing q to d, which the scan reaches
        # before c's move to q with the same gain
        pred = parse("( a / z :ARG1 ( b / z :ARG1 ( c / y ) ) :ARG1 ( d / y ) )")
        gold = parse("( p / x :ARG0 ( q / y :ARG0 ( r / x ) ) )")
        ours, oracle = climb_both(pred, gold, ["r", "q", None, "p"], include_top=True)
        assert ours == oracle == (["p", "r", None, "q"], 2)

    @settings(max_examples=40, deadline=None)
    @given(
        pred_size=st.integers(1, 30),
        gold_size=st.integers(1, 30),
        seed=st.integers(0, 2**16),
    )
    def test_fields_stay_true_to_the_table(self, pred_size, gold_size, seed):
        # a field that drifted from the table shows up as a count that is
        # not the final assignment's, or as a step the oracle does not take
        rng = random.Random(seed)
        pred = random_graph(rng, pred_size, min_vars=pred_size)
        gold = random_graph(rng, gold_size, min_vars=gold_size)
        gold_names = [v.name for v in gold.variables()]
        positions = _random_assign(pred_size, gold_size, rng)
        start = [None if a is None else gold_names[a] for a in positions]
        for include_top in (True, False):
            ours, oracle = climb_both(pred, gold, start, include_top)
            assert ours == oracle
            names, count = ours
            final = [None if name is None else gold_names.index(name) for name in names]
            assert count == _Weights(pred, gold, include_top).count(final)

    @settings(max_examples=40, deadline=None)
    @given(
        pred_size=st.integers(1, 25),
        gold_size=st.integers(1, 25),
        seed=st.integers(0, 2**16),
        include_top=st.booleans(),
    )
    def test_kept_rows_equal_rebuilt_rows(self, pred_size, gold_size, seed, include_top):
        # at the top of every step, so after every move, each row _climb
        # keeps up to date is the row built from scratch: the variable's
        # candidates and the names of the holders that want its name,
        # without its own name, sorted
        rng = random.Random(seed)
        pred = random_graph(rng, pred_size, min_vars=pred_size)
        gold = random_graph(rng, gold_size, min_vars=gold_size)
        weights = _Weights(pred, gold, include_top)
        cand, wanted_by, _, _ = weights.climb_index
        # a step starts on the line that first stores best_gain (a fused
        # STORE_FAST_STORE_FAST names two locals)
        store = next(
            ins.offset
            for ins in dis.get_instructions(_climb)
            if ins.opname.startswith("STORE_FAST")
            and "best_gain" in (ins.argval if isinstance(ins.argval, tuple) else (ins.argval,))
        )
        step = [
            line
            for offset, line in dis.findlinestarts(_climb.__code__)
            if offset <= store and line is not None
        ][-1]
        seen: list[tuple[list, list]] = []

        def in_climb(frame, event, arg):
            if event == "line" and frame.f_lineno == step:
                state = frame.f_locals
                seen.append((list(state["assign"]), [list(names) for names in state["rows"]]))
            return in_climb

        def calls(frame, event, arg):
            return in_climb if frame.f_code is _climb.__code__ else None

        # the tracer already installed, if any (a coverage tool's, say), is
        # set aside for this one call and then put back
        previous = sys.gettrace()
        sys.settrace(calls)
        try:
            _climb(weights, _random_assign(pred_size, gold_size, rng))
        finally:
            sys.settrace(previous)
        assert seen
        for assign, rows in seen:
            for v, names in enumerate(rows):
                wanting = {assign[h] for h in wanted_by.get(assign[v], ())}
                assert names == sorted(cand[v].union(wanting) - {assign[v], None})


# Hand-built pairs whose triples repeat or coincide: (pred, gold, the
# exact optimum with the root marker, the exact optimum without it).
MULTIPLICITY_CASES = {
    "duplicate relation in pred": (
        "( a / x :op1 ( b / y ) :op1 b )", "( a / x :op1 ( b / y ) )", 4, 3,
    ),
    "duplicate relation on both sides": (
        "( a / x :op1 ( b / y ) :op1 b )", "( p / x :op1 ( q / y ) :op1 q )", 5, 4,
    ),
    "duplicate relation in gold": (
        "( a / x :op1 ( b / y ) )", "( p / x :op1 ( q / y ) :op1 q )", 4, 3,
    ),
    "duplicated attribute": ("( a / x :polarity - :polarity - )", "( p / x :polarity - )", 3, 2),
    "duplicated attribute on both sides": (
        "( a / x :polarity - :polarity - )", "( p / x :polarity - :polarity - )", 4, 3,
    ),
    "self-loop": ("( a / x :ARG0 a )", "( p / x :ARG0 p )", 3, 2),
    "self-loop against a relation": ("( a / x :ARG0 a )", "( p / x :ARG0 ( q / x ) )", 2, 1),
    "relation against a self-loop": ("( p / x :ARG0 ( q / x ) )", "( a / x :ARG0 a )", 2, 1),
    "user top attribute next to the root marker": (
        "( a / x :top <TOP> )", "( p / x )", 2, 1,
    ),
    "user top attribute on both sides": ("( a / x :top <TOP> )", "( p / x :top <TOP> )", 3, 2),
    "user top attribute off the root": (
        "( a / x :ARG0 ( b / y :top <TOP> ) )", "( p / x :ARG0 ( q / y :top <TOP> ) )", 5, 4,
    ),
    "pred side larger": (
        "( a / x :ARG0 ( b / y ) :ARG1 ( c / z :mod b ) )", "( p / y :mod ( q / z ) )", 2, 2,
    ),
    "pred side larger with a relation left": (
        "( a / x :ARG0 ( b / y :mod ( c / z ) ) )", "( p / y :mod ( q / z ) )", 3, 3,
    ),
}


class TestMultiplicity:
    """Repeated and coinciding triples must be counted the same by the
    weight tables, both oracles and ``matched_triples``."""

    @pytest.mark.parametrize("include_top", [True, False])
    @pytest.mark.parametrize("case", sorted(MULTIPLICITY_CASES))
    def test_hand_case(self, case, include_top):
        pred_text, gold_text, with_top, without_top = MULTIPLICITY_CASES[case]
        pred, gold = parse(pred_text), parse(gold_text)
        config = MatchConfig(include_top=include_top, seed=4)
        expected = with_top if include_top else without_top
        for left, right in ((pred, gold), (gold, pred)):
            exact = match_exact(left, right, config)
            assert exact == match_exact_two_loops(left, right, config)
            assert exact[1] == expected
            assert matched_triples(left, right, exact[0], include_top) == expected
            climbed = match_hillclimb(left, right, config)
            assert climbed == match_hillclimb_rekeyed(left, right, config)
            assert matched_triples(left, right, climbed[0], include_top) == climbed[1]

    def test_identity_counts_every_repeat(self):
        graph = parse("( a / x :op1 ( b / y ) :op1 b :polarity - :polarity - :ARG0 a :top <TOP> )")
        identity = identity_mapping(graph)
        assert matched_triples(graph, graph, identity) == len(graph.triples(True)) == 9
        assert matched_triples(graph, graph, identity, include_top=False) == 8


def shuffled_renamed(graph: AmrGraph, rng: random.Random) -> AmrGraph:
    """The same graph under a random variable renaming, edges in a random order."""
    renamed = rename_variables(graph, rng, prefix="r")
    edges = [(e.source, e.role, e.target) for e in renamed.edges]
    rng.shuffle(edges)
    return AmrGraph.build(renamed.root, dict(renamed.instances), edges)


class TestSmatchProperties:
    """Metamorphic properties of the exact optimum on small graphs."""

    @settings(max_examples=60, deadline=None)
    @given(pred=small_graphs(), gold=small_graphs(), seed=st.integers(0, 2**32 - 1))
    def test_renaming_and_edge_order_keep_the_count(self, pred, gold, seed):
        rng = random.Random(seed)
        config = MatchConfig(include_top=seed % 2 == 0)
        _, count = match_exact(pred, gold, config)
        assert match_exact(shuffled_renamed(pred, rng), gold, config)[1] == count
        assert match_exact(pred, shuffled_renamed(gold, rng), config)[1] == count

    @settings(max_examples=60, deadline=None)
    @given(pred=small_graphs(), gold=small_graphs(), include_top=st.booleans())
    def test_swapping_sides_swaps_precision_and_recall(self, pred, gold, include_top):
        config = MatchConfig(include_top=include_top)
        forward, backward = score_pair(pred, gold, config), score_pair(gold, pred, config)
        assert (forward.precision, forward.recall) == (backward.recall, backward.precision)
        assert forward.matched == backward.matched

    @settings(max_examples=60, deadline=None)
    @given(
        pred=small_graphs(),
        gold=small_graphs(),
        edge=st.tuples(st.integers(0, 5), st.sampled_from(ROLES[:3]), st.integers(-1, 5)),
        include_top=st.booleans(),
    )
    def test_one_more_pred_edge_raises_the_optimum_by_at_most_one(
        self, pred, gold, edge, include_top
    ):
        variables = pred.variables()
        source, role, target = edge
        # a target of -1 stands for a constant
        new_target = Constant("-", "symbol") if target < 0 else variables[target % len(variables)]
        edges = [(e.source, e.role, e.target) for e in pred.edges]
        grown = AmrGraph.build(
            pred.root,
            dict(pred.instances),
            edges + [(variables[source % len(variables)], role, new_target)],
        )
        config = MatchConfig(include_top=include_top)
        _, before = match_exact(pred, gold, config)
        _, after = match_exact(grown, gold, config)
        assert after - before in (0, 1)

    @settings(max_examples=60, deadline=None)
    @given(
        pred=small_graphs(),
        gold=small_graphs(),
        seed=st.integers(0, 2**16),
        include_top=st.booleans(),
    )
    def test_hillclimb_never_exceeds_exact(self, pred, gold, seed, include_top):
        config = MatchConfig(restarts=2, seed=seed, include_top=include_top)
        mapping, climbed = match_hillclimb(pred, gold, config)
        assert climbed <= match_exact(pred, gold, config)[1]
        assert matched_triples(pred, gold, mapping, include_top) == climbed


class TestMatchHillclimb:
    def test_self_optimal(self):
        graph = figure()
        mapping, count = match_hillclimb(graph, graph)
        assert count == 12
        assert mapping.as_dict() == {v.name: v.name for v in graph.variables()}

    def test_deterministic(self):
        rng = random.Random(21)
        pred, gold = random_graph(rng, 10), random_graph(rng, 10)
        first = match_hillclimb(pred, gold, MatchConfig(seed=5))
        second = match_hillclimb(pred, gold, MatchConfig(seed=5))
        assert first == second

    def test_never_exceeds_exact(self):
        rng = random.Random(31)
        for _ in range(40):
            pred, gold = random_graph(rng, 6), random_graph(rng, 6)
            _, exact = match_exact(pred, gold)
            _, climbed = match_hillclimb(pred, gold, MatchConfig(seed=7))
            assert climbed <= exact

    def test_renaming_invariance(self):
        rng = random.Random(41)
        for _ in range(25):
            pred, gold = random_graph(rng, 7), random_graph(rng, 7)
            _, base = match_hillclimb(pred, gold, MatchConfig(seed=3))
            renamed_pred = rename_variables(pred, rng, prefix="p")
            _, left = match_hillclimb(renamed_pred, gold, MatchConfig(seed=3))
            renamed_gold = rename_variables(gold, rng, prefix="q")
            _, right = match_hillclimb(pred, renamed_gold, MatchConfig(seed=3))
            # hill-climbing explores name-independent structure, and on
            # graphs this small each run lands on the same optimum
            _, exact = match_exact(pred, gold)
            assert base <= exact and left <= exact and right <= exact

    def test_single_restart_works(self):
        graph = figure()
        _, count = match_hillclimb(graph, graph, MatchConfig(restarts=1))
        assert count == 12


class TestScorePair:
    def test_self_exact_path(self):
        graph = figure()
        score = score_pair(graph, graph)
        assert score.f1 == 1.0
        assert (score.matched, score.pred_total, score.gold_total) == (12, 12, 12)

    def test_self_hillclimb_path(self):
        rng = random.Random(202)
        graph = random_graph(rng, 15)
        while len(graph.variables()) <= 9:
            graph = random_graph(rng, 15)
        score = score_pair(graph, graph)
        assert score.f1 == 1.0

    def test_reduced_vs_full(self):
        score = score_pair(figure_minus_arg1(), figure())
        assert score.precision == pytest.approx(1.0, abs=1e-12)
        assert score.recall == pytest.approx(11 / 12, abs=1e-12)
        assert score.f1 == pytest.approx(22 / 23, abs=1e-12)
        assert (score.matched, score.pred_total, score.gold_total) == (11, 11, 12)

    def test_placeholder_vs_full(self):
        score = score_pair(parse("( e / emptygraph )"), figure())
        assert (score.matched, score.pred_total, score.gold_total) == (1, 2, 12)
        assert score.precision == pytest.approx(0.5, abs=1e-12)
        assert score.recall == pytest.approx(1 / 12, abs=1e-12)
        assert score.f1 == pytest.approx(1 / 7, abs=1e-12)

    def test_include_top_off(self):
        score = score_pair(figure_minus_arg1(), figure(), MatchConfig(include_top=False))
        assert (score.matched, score.pred_total, score.gold_total) == (10, 10, 11)

    def test_self_score_property(self):
        rng = random.Random(60)
        for _ in range(30):
            graph = random_graph(rng, 8)
            assert score_pair(graph, graph).f1 == 1.0


class TestScoreCorpus:
    def test_two_perfect_pairs(self):
        graph = figure()
        aggregate, per_pair = score_corpus([(graph, graph), (graph, graph)])
        assert aggregate.f1 == 1.0
        assert len(per_pair) == 2
        assert all(s.f1 == 1.0 for s in per_pair)

    def test_micro_pools_counts(self):
        graph = figure()
        aggregate, per_pair = score_corpus([(graph, graph), (figure_minus_arg1(), graph)])
        assert (aggregate.matched, aggregate.pred_total, aggregate.gold_total) == (23, 23, 24)
        assert aggregate.f1 == pytest.approx(46 / 47, abs=1e-12)
        assert per_pair[1].f1 == pytest.approx(22 / 23, abs=1e-12)

    def test_macro_averages_ratios(self):
        graph = figure()
        aggregate, _ = score_corpus(
            [(graph, graph), (figure_minus_arg1(), graph)], macro=True
        )
        assert aggregate.precision == pytest.approx(1.0, abs=1e-12)
        assert aggregate.recall == pytest.approx((1 + 11 / 12) / 2, abs=1e-12)
        assert aggregate.f1 == pytest.approx((1 + 22 / 23) / 2, abs=1e-12)
        # pooled counts still reported
        assert aggregate.matched == 23

    def test_missing_prediction(self):
        aggregate, per_pair = score_corpus([(None, figure())])
        assert (aggregate.matched, aggregate.pred_total, aggregate.gold_total) == (0, 0, 12)
        assert aggregate.f1 == 0.0
        assert per_pair[0].gold_total == 12

    def test_missing_prediction_hurts_recall_only(self):
        graph = figure()
        aggregate, _ = score_corpus([(graph, graph), (None, graph)])
        assert aggregate.precision == 1.0
        assert aggregate.recall == pytest.approx(0.5, abs=1e-12)

    def test_empty_corpus(self):
        aggregate, per_pair = score_corpus([])
        assert per_pair == []
        assert aggregate.f1 == 0.0

    def test_parallel_matches_serial(self):
        rng = random.Random(88)
        pairs = []
        for _ in range(10):
            gold = random_graph(rng, 9)
            pred = rename_variables(gold, rng) if rng.random() < 0.5 else random_graph(rng, 9)
            pairs.append((pred, gold))
        serial = score_corpus(pairs, MatchConfig(seed=17), jobs=1)
        parallel = score_corpus(pairs, MatchConfig(seed=17), jobs=2)
        assert serial == parallel

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_heaviest_pairs_go_first_and_come_back_in_input_order(self, jobs, monkeypatch):
        rng = random.Random(12)
        pairs: list = [(None, random_graph(rng, 6, min_vars=6))]
        for pred_size, gold_size in ((4, 4), (9, 9), (9, 9), (12, 12), (20, 18)):
            gold = random_graph(rng, gold_size, min_vars=gold_size)
            pred = random_graph(rng, pred_size, min_vars=pred_size)
            pairs.append((pred, gold))
        sent: list = []

        def recording(fn, items, jobs):
            sent.extend(k for k, _ in items)
            return parallel_map(fn, items, jobs)

        monkeypatch.setattr(smatch, "parallel_map", recording)
        config = MatchConfig(seed=21)
        _, scores = score_corpus(pairs, config, jobs=jobs)
        # descending n_pred * n_gold; the tie keeps its input order
        assert sent == [5, 4, 2, 3, 1, 0]
        assert scores[0] == SmatchScore.from_counts(0, 0, len(pairs[0][1].triples(True)))
        for k, (pred, gold) in enumerate(pairs[1:], start=1):
            assert scores[k] == score_pair(pred, gold, replace(config, seed=config.seed ^ k))

    def test_monotone_damage(self):
        rng = random.Random(70)
        checked = 0
        while checked < 25:
            gold = random_graph(rng, 6)
            if not gold.edges:
                continue
            _, full = match_exact(gold, gold)
            damaged = None
            for drop in rng.sample(range(len(gold.edges)), len(gold.edges)):
                kept = [
                    (e.source, e.role, e.target)
                    for i, e in enumerate(gold.edges)
                    if i != drop
                ]
                try:
                    damaged = AmrGraph.build(
                        gold.root,
                        dict(gold.instances),
                        kept,
                    )
                    break
                except ValueError:
                    continue  # removal would disconnect the graph
            if damaged is None:
                continue
            _, reduced = match_exact(damaged, gold)
            assert reduced <= full
            checked += 1
