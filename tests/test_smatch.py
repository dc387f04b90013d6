"""Smatch scoring: triple matching, exact and hill-climbing alignment,
pair and corpus scores."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from amrkit import (
    AmrGraph,
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
from genutil import WANT_GO_PRETTY, random_graph, rename_variables
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

    def test_threshold_is_configurable(self):
        graph = parse("( a / x :mod ( b / y ) :poss ( c / z ) )")
        with pytest.raises(ValueError, match="at most 2 variables"):
            match_exact(graph, graph, MatchConfig(exact_threshold=2))
        _, count = match_exact(graph, graph, MatchConfig(exact_threshold=3))
        assert count == len(graph.triples(True))

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
