"""Smatch scoring: structural overlap between two AMR graphs.

Both graphs are decomposed into triples, predicted variables are aligned
to reference variables by an injective mapping, and precision, recall,
and F1 are computed over the matched triples.  One weight table per pair
of graphs gives every mapping's matched count as a sum of terms, one per
variable choice and one per linked pair of choices (the design of
reference Smatch).  The best mapping is found through that table either
exhaustively (small graphs; exact by construction) or by steepest-ascent
hill-climbing with restarts, whose steps try only names that share a
weighted fact with the moved variable or with the holder of its name:
the skipped moves cannot raise the count, so every mapping is the one a
full scan finds.

Scoring is deterministic: the search is seeded, and corpus runs derive
one seed per pair from the pair's position and collect per-pair scores
through one ordered process-pool map, so results do not depend on how
many worker processes are used.
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass, replace
from functools import partial
from typing import Optional, Sequence

from ._parallel import parallel_map
from .graph import TOP_MARKER, TOP_ROLE, AmrGraph, Constant


@dataclass(frozen=True)
class VarMapping:
    """An injective alignment from predicted to reference variable names.

    Partial when the two graphs have different variable counts: the extra
    variables on the larger side stay unmapped.
    """

    pairs: tuple[tuple[str, str], ...]

    def __post_init__(self) -> None:
        pred_side = [p for p, _ in self.pairs]
        gold_side = [g for _, g in self.pairs]
        if len(set(pred_side)) != len(pred_side) or len(set(gold_side)) != len(gold_side):
            raise ValueError("variable mapping must be one-to-one")

    def as_dict(self) -> dict[str, str]:
        return dict(self.pairs)

    def get(self, pred_name: str) -> Optional[str]:
        return next((gold for pred, gold in self.pairs if pred == pred_name), None)

    def __len__(self) -> int:
        return len(self.pairs)


@dataclass(frozen=True)
class SmatchScore:
    """Precision, recall, and F1 plus the counts behind them.

    ``from_counts`` derives the ratios and is the constructor for single
    pairs and micro averages; macro averaging replaces the micro ratios
    because averaged ratios no longer equal matched/total.
    """

    precision: float
    recall: float
    f1: float
    matched: int
    pred_total: int
    gold_total: int

    @classmethod
    def from_counts(cls, matched: int, pred_total: int, gold_total: int) -> "SmatchScore":
        if matched < 0 or pred_total < 0 or gold_total < 0:
            raise ValueError("triple counts cannot be negative")
        if matched > pred_total or matched > gold_total:
            raise ValueError(
                f"matched {matched} exceeds a total ({pred_total} predicted, {gold_total} reference)"
            )
        precision = matched / pred_total if pred_total else 0.0
        recall = matched / gold_total if gold_total else 0.0
        denom = precision + recall
        f1 = 2 * precision * recall / denom if denom else 0.0
        return cls(precision, recall, f1, matched, pred_total, gold_total)


@dataclass(frozen=True)
class MatchConfig:
    """Settings for the mapping search.

    Graphs whose variable counts both stay within ``exact_threshold`` are
    matched exhaustively; larger ones use hill-climbing with ``restarts``
    seeded attempts.  ``include_top`` adds the root-marker triple so a
    wrong root costs one triple.
    """

    restarts: int = 4
    seed: int = 0
    include_top: bool = True
    exact_threshold: int = 8

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")
        if self.exact_threshold < 0:
            raise ValueError("exact_threshold cannot be negative")


def _facts(
    graph: AmrGraph, include_top: bool
) -> tuple[dict[str, Counter], dict[tuple[str, str], Counter]]:
    """The graph's triples grouped by the variables they touch.

    Per variable name (in definition order): a Counter of its instance,
    attribute, self-loop and root-marker facts.  Per ordered pair of
    distinct variable names: a Counter of the roles of the relations from
    the first to the second.
    """
    unary = {
        var.name: Counter({("i", concept.label): 1}) for var, concept in graph.instances.items()
    }
    binary: dict[tuple[str, str], Counter] = {}
    for edge in graph.edges:
        source = edge.source.name
        if isinstance(edge.target, Constant):
            unary[source][("a", edge.role, str(edge.target))] += 1
        elif edge.target == edge.source:
            unary[source][("r", edge.role)] += 1
        else:
            binary.setdefault((source, edge.target.name), Counter())[edge.role] += 1
    if include_top:
        unary[graph.root.name][("a", TOP_ROLE, str(TOP_MARKER))] += 1
    return unary, binary


def _overlap(pred: dict, gold: dict) -> dict[object, Counter]:
    """For each predicted group of facts, how many facts each reference
    group shares with it; a shared fact counts the smaller of its two
    multiplicities."""
    by_fact: dict = {}
    for gold_key, facts in gold.items():
        for fact, m in facts.items():
            by_fact.setdefault(fact, []).append((gold_key, m))
    shared: dict[object, Counter] = {}
    for key, facts in pred.items():
        weights = shared[key] = Counter()
        for fact, n in facts.items():
            for gold_key, m in by_fact.get(fact, ()):
                weights[gold_key] += min(n, m)
    return shared


class _Weights:
    """The matched-triple count of a mapping, split into table terms.

    ``unary[i][a]`` counts the triples of predicted variable ``i`` alone
    that match when it maps to reference variable ``a``.  ``pairs`` holds
    ``(i, j, table)`` for predicted variables ``i != j`` with relations
    from ``i`` to ``j``, where ``table[(a, b)]`` counts those that match
    under ``i -> a`` and ``j -> b``.  ``links[i]`` lists every table that
    involves ``i`` as ``(j, table keyed (name for i, name for j))``.
    Each term is the minimum of the two multiplicities, and under a
    one-to-one mapping no two terms share a reference triple, so the sum
    of the terms is the matched count.
    """

    def __init__(self, pred: AmrGraph, gold: AmrGraph, include_top: bool):
        pred_unary, pred_binary = _facts(pred, include_top)
        gold_unary, gold_binary = _facts(gold, include_top)
        self.names = list(pred_unary)
        self.unary = list(_overlap(pred_unary, gold_unary).values())
        index = {name: i for i, name in enumerate(self.names)}
        self.pairs = [
            (index[p], index[q], table)
            for (p, q), table in _overlap(pred_binary, gold_binary).items()
            if table
        ]
        self.links: list[list[tuple[int, dict]]] = [[] for _ in self.names]
        for i, j, table in self.pairs:
            self.links[i].append((j, table))
            self.links[j].append((i, {(b, a): n for (a, b), n in table.items()}))

    def count(self, assign: Sequence[Optional[str]]) -> int:
        """Matched triples when predicted variable ``i`` maps to
        ``assign[i]`` (``None`` leaves it unmapped)."""
        total = sum(weights.get(name, 0) for weights, name in zip(self.unary, assign))
        for i, j, table in self.pairs:
            total += table.get((assign[i], assign[j]), 0)
        return total


def matched_triples(
    pred: AmrGraph,
    gold: AmrGraph,
    mapping: VarMapping,
    include_top: bool = True,
) -> int:
    """Count the triples of ``pred`` that match a triple of ``gold`` when
    predicted variables are renamed through ``mapping``.  Each reference
    triple can be consumed at most once."""
    weights = _Weights(pred, gold, include_top)
    lookup = mapping.as_dict()
    return weights.count([lookup.get(name) for name in weights.names])


def match_exact(
    pred: AmrGraph,
    gold: AmrGraph,
    config: MatchConfig = MatchConfig(),
) -> tuple[VarMapping, int]:
    """Find the best variable mapping by exhausting every injective
    assignment from the smaller variable set into the larger.

    Exact by construction.  Cost grows with the number of those
    assignments, ``math.perm(larger, smaller)`` for the two variable
    counts, so a pair is refused when its smaller side exceeds
    ``config.exact_threshold`` or its assignments outnumber
    ``math.factorial(config.exact_threshold)``.
    """
    pred_names = [v.name for v in pred.variables()]
    gold_names = [v.name for v in gold.variables()]
    smaller, larger = sorted((len(pred_names), len(gold_names)))
    limit = config.exact_threshold
    if smaller > limit or math.perm(larger, smaller) > math.factorial(limit):
        raise ValueError(
            f"exhaustive matching needs a side with at most {limit} variables and at "
            f"most {limit}! assignments, got {smaller} against {larger} variables"
        )
    # the matched count is symmetric, so the smaller side's variables take
    # each ordered choice of the larger side's names; ties go to the first
    swapped = len(pred_names) > len(gold_names)
    small, large, large_names = (gold, pred, pred_names) if swapped else (pred, gold, gold_names)
    weights = _Weights(small, large, config.include_top)
    best_count = -1
    best: tuple[str, ...] = ()
    for chosen in itertools.permutations(large_names, smaller):
        count = weights.count(chosen)
        if count > best_count:
            best_count = count
            best = chosen
    mapped = dict(zip(weights.names, best))
    if swapped:
        mapped = {pred_name: gold_name for gold_name, pred_name in mapped.items()}
    mapping = VarMapping(tuple((name, mapped[name]) for name in pred_names if name in mapped))
    return mapping, best_count


def _greedy_assign(pred: AmrGraph, gold: AmrGraph) -> list[Optional[str]]:
    # seed by concept: give each predicted variable the first free
    # reference variable carrying the same concept, then fill leftovers
    gold_by_concept: dict[str, list[str]] = {}
    for var, concept in gold.instances.items():
        gold_by_concept.setdefault(concept.label, []).append(var.name)
    assign: list[Optional[str]] = []
    for concept in pred.instances.values():
        candidates = gold_by_concept.get(concept.label)
        assign.append(candidates.pop(0) if candidates else None)
    taken = set(assign)
    free = iter([v.name for v in gold.variables() if v.name not in taken])
    return [name if name is not None else next(free, None) for name in assign]


def _random_assign(
    pred_count: int, gold_names: list[str], rng: random.Random
) -> list[Optional[str]]:
    pred_order = list(range(pred_count))
    gold_order = list(gold_names)
    rng.shuffle(pred_order)
    rng.shuffle(gold_order)
    assign: list[Optional[str]] = [None] * pred_count
    for pred_pos, gold_name in zip(pred_order, gold_order):
        assign[pred_pos] = gold_name
    return assign


def _reassign(
    assign: list[Optional[str]], i: int, name: Optional[str], holder: Optional[int]
) -> None:
    # variable i takes ``name``; its holder, if any, takes i's old name
    if holder is not None:
        assign[holder] = assign[i]
    assign[i] = name


def _climb(weights: _Weights, assign: list[Optional[str]], gold_names: list[str]) -> int:
    """Steepest ascent: repeatedly take the single re-assignment or swap
    that raises the matched count the most, until none does.  Returns the
    final matched count.

    Variable ``i`` holding ``c`` tries only the names with a term for
    ``i`` and those of holders with a term for ``c``: any other move
    leaves both moved variables without terms, so its gain is at most 0
    and the strict ``>`` never takes it.  Tried names keep ``gold_names``
    order, so each step takes the move a full scan would.
    """
    unary, links = weights.unary, weights.links
    position = {name: k for k, name in enumerate(gold_names)}
    # cand[i]: the positions of the names with a term for variable i
    cand = [
        {position[a] for a in u} | {position[a] for _, t in ts for a, _ in t}
        for u, ts in zip(unary, links)
    ]
    wanted_by = {a: [i for i, c in enumerate(cand) if k in c] for k, a in enumerate(gold_names)}
    matched = weights.count(assign)
    while True:
        owner = {name: i for i, name in enumerate(assign) if name is not None}
        # every current term of variable v, so a move's gain is after - before
        base = [
            unary[v].get(name, 0) + sum(t.get((name, assign[j]), 0) for j, t in links[v])
            for v, name in enumerate(assign)
        ]
        best_gain, best_move = 0, None
        for i, current in enumerate(assign):
            helped = [assign[h] for h in wanted_by.get(current, ()) if h != i]
            for k in sorted(cand[i].union(position[a] for a in helped if a is not None)):
                name = gold_names[k]
                if name == current:
                    continue
                # i takes name and its holder current; a joint table's old
                # term is in both bases, so it is added back once
                holder = owner.get(name)
                gain = unary[i].get(name, 0) - base[i]
                for j, t in links[i]:
                    if j == holder:
                        gain += t.get((name, current), 0) + t.get((current, name), 0)
                    else:
                        gain += t.get((name, assign[j]), 0)
                if holder is not None:
                    gain += unary[holder].get(current, 0) - base[holder]
                    for j, t in links[holder]:
                        if j != i:
                            gain += t.get((current, assign[j]), 0)
                if gain > best_gain:
                    best_gain, best_move = gain, (i, name, holder)
        if best_move is None:
            return matched
        _reassign(assign, *best_move)
        matched += best_gain


def match_hillclimb(
    pred: AmrGraph,
    gold: AmrGraph,
    config: MatchConfig = MatchConfig(),
) -> tuple[VarMapping, int]:
    """Find a good variable mapping by seeded hill-climbing.

    The first restart starts from a concept-matching greedy assignment,
    the rest from random assignments drawn from ``config.seed``.  Returns
    the best mapping found and its matched count; the count is a lower
    bound on the exact optimum and is deterministic for a given config.
    """
    weights = _Weights(pred, gold, config.include_top)
    gold_names = [v.name for v in gold.variables()]
    rng = random.Random(config.seed)
    best_count = -1
    best_assign: list[Optional[str]] = [None] * len(weights.names)
    for attempt in range(config.restarts):
        if attempt == 0:
            assign = _greedy_assign(pred, gold)
        else:
            assign = _random_assign(len(weights.names), gold_names, rng)
        matched = _climb(weights, assign, gold_names)
        if matched > best_count:
            best_count = matched
            best_assign = assign
    pairs = zip(weights.names, best_assign)
    return VarMapping(tuple((name, gold) for name, gold in pairs if gold is not None)), best_count


def score_pair(
    pred: AmrGraph,
    gold: AmrGraph,
    config: MatchConfig = MatchConfig(),
) -> SmatchScore:
    """Score one predicted graph against its reference.

    Uses the exhaustive search when both variable counts are within
    ``config.exact_threshold``, hill-climbing otherwise.
    """
    if max(len(pred.instances), len(gold.instances)) <= config.exact_threshold:
        _, matched = match_exact(pred, gold, config)
    else:
        _, matched = match_hillclimb(pred, gold, config)
    # the triple totals: one per variable, one per edge, plus the root marker
    pred_total = len(pred.instances) + len(pred.edges) + config.include_top
    gold_total = len(gold.instances) + len(gold.edges) + config.include_top
    return SmatchScore.from_counts(matched, pred_total, gold_total)


def _score_indexed(
    config: MatchConfig, task: tuple[int, tuple[Optional[AmrGraph], AmrGraph]]
) -> SmatchScore:
    index, (pred, gold) = task
    if pred is None:
        # a missing prediction contributes its reference size to recall
        # and nothing else
        gold_total = len(gold.instances) + len(gold.edges) + config.include_top
        return SmatchScore.from_counts(0, 0, gold_total)
    return score_pair(pred, gold, replace(config, seed=config.seed ^ index))


def score_corpus(
    pairs: Sequence[tuple[Optional[AmrGraph], AmrGraph]],
    config: MatchConfig = MatchConfig(),
    jobs: int = 1,
    macro: bool = False,
) -> tuple[SmatchScore, list[SmatchScore]]:
    """Score a corpus of (predicted, reference) pairs.

    A ``None`` prediction counts as an empty graph.  Every pair is scored
    with the seed ``config.seed ^ position``, so per-pair results, and
    therefore the aggregate, are identical no matter how many worker
    processes run (``jobs``) or in what order pairs complete.

    The aggregate is the micro average (pooled counts) by default, or the
    arithmetic mean of per-pair ratios with ``macro``.
    """
    scores = parallel_map(partial(_score_indexed, config), list(enumerate(pairs)), jobs)
    aggregate = SmatchScore.from_counts(
        sum(s.matched for s in scores),
        sum(s.pred_total for s in scores),
        sum(s.gold_total for s in scores),
    )
    if macro:
        n = len(scores) or 1
        aggregate = replace(
            aggregate,
            precision=sum(s.precision for s in scores) / n,
            recall=sum(s.recall for s in scores) / n,
            f1=sum(s.f1 for s in scores) / n,
        )
    return aggregate, scores
