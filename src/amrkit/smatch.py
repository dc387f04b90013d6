"""Smatch scoring: structural overlap between two AMR graphs.

Both graphs are decomposed into triples, predicted variables are aligned
to reference variables by an injective mapping, and precision, recall,
and F1 are computed over the matched triples.  One weight table per pair
of graphs gives every mapping's matched count as a sum of terms, one per
variable choice and one per linked pair of choices (the design of
reference Smatch).  The search names each variable by its position in
definition order; names appear only where a ``VarMapping`` is built
or read.
The best mapping is found through that table either by a branch-and-bound
search over the mappings in enumeration order (small graphs; exact, and
the first optimal mapping a full enumeration finds) or by steepest-ascent
hill-climbing whose restarts stop at a count no mapping can beat.  A step
tries only reference variables that share a weighted fact with the moved
variable or the holder of its target: the skipped moves cannot raise the
count, so every mapping is the one a full scan finds.  The climb keeps,
per predicted variable, a field of what its terms would add up to at each
reference variable; a move's gain, exactly the change of the count, is
read off the fields of the two variables it moves, and a move updates
only its neighbours' fields.

Scoring is deterministic: the search is seeded, and corpus runs derive
one seed per pair from its position and deal the pairs, heaviest first,
through one ordered parallel map over forked worker processes, so results
depend neither on the number of processes nor on the order the pairs are
scored in.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left, insort
from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property, partial
from itertools import accumulate
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
    matched exactly by ``match_exact``; larger ones use hill-climbing with
    up to ``restarts`` seeded attempts.  ``include_top`` adds the
    root-marker triple so a wrong root costs one triple.
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
) -> tuple[dict[int, Counter], dict[tuple[int, int], Counter]]:
    """The graph's triples grouped by the variables they touch.

    Per variable position (in definition order): a Counter of its
    instance, attribute, self-loop and root-marker facts.  Per ordered
    pair of distinct variable positions: a Counter of the roles of the
    relations from the first to the second.
    """
    position = {var.name: k for k, var in enumerate(graph.instances)}
    unary = {k: Counter({("i", c.label): 1}) for k, c in enumerate(graph.instances.values())}
    binary: dict[tuple[int, int], Counter] = {}
    for edge in graph.edges:
        source = position[edge.source.name]
        if isinstance(edge.target, Constant):
            unary[source][("a", edge.role, str(edge.target))] += 1
        elif edge.target == edge.source:
            unary[source][("r", edge.role)] += 1
        else:
            binary.setdefault((source, position[edge.target.name]), Counter())[edge.role] += 1
    if include_top:
        unary[position[graph.root.name]][("a", TOP_ROLE, str(TOP_MARKER))] += 1
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

    Variables on both sides are positions in definition order.
    ``unary[i][a]`` counts the triples of predicted variable ``i`` alone
    that match when it maps to reference variable ``a``.  ``pairs`` holds
    ``(i, j, table)`` for predicted variables ``i != j`` with relations
    from ``i`` to ``j``, where ``table[(a, b)]`` counts those that match
    under ``i -> a`` and ``j -> b``.  ``links[i]`` lists every table that
    involves ``i`` as ``(j, table keyed (target of i, target of j))``.
    Each term is the minimum of the two multiplicities, and under a
    one-to-one mapping no two terms share a reference triple, so the sum
    of the terms is the matched count.
    """

    def __init__(self, pred: AmrGraph, gold: AmrGraph, include_top: bool):
        pred_unary, pred_binary = _facts(pred, include_top)
        gold_unary, gold_binary = _facts(gold, include_top)
        self.unary = list(_overlap(pred_unary, gold_unary).values())
        self.gold_count = len(gold.instances)
        self.pairs = [
            (i, j, table) for (i, j), table in _overlap(pred_binary, gold_binary).items() if table
        ]
        self.links: list[list[tuple[int, dict]]] = [[] for _ in self.unary]
        for i, j, table in self.pairs:
            self.links[i].append((j, table))
            self.links[j].append((i, {(b, a): n for (a, b), n in table.items()}))

    def tops(self) -> list[int]:
        """Per variable ``k``: its largest unary term plus the largest entry of
        each table whose later variable is ``k``; no count exceeds their sum."""
        tops = [max(unary.values(), default=0) for unary in self.unary]
        for i, j, table in self.pairs:
            tops[max(i, j)] += max(table.values())
        return tops

    def count(self, assign: Sequence[Optional[int]]) -> int:
        """Matched triples when predicted variable ``i`` maps to
        reference variable ``assign[i]`` (``None`` leaves it unmapped)."""
        total = sum(weights.get(a, 0) for weights, a in zip(self.unary, assign))
        for i, j, table in self.pairs:
            total += table.get((assign[i], assign[j]), 0)
        return total

    @cached_property
    def climb_index(self) -> tuple[list, dict, list, list]:
        """The lookups of ``_climb``, built once per pair of graphs.

        ``cand[i]``: the reference variables with a term for predicted
        variable ``i``; ``wanted_by[a]``: the variables whose ``cand``
        holds ``a``; ``neighbours[j][k][b]``, for each ``k`` sharing a
        table with ``j``: the ``(a, n)`` where ``n`` triples match under
        ``k -> a`` and ``j -> b``; ``joint[i][h]``: ``table[(a, c)] +
        table[(c, a)]`` summed over the tables joining ``i`` to ``h``,
        keyed ``(a, c)``.
        """
        links = self.links
        cand = [set(u).union(a for _, t in ts for a, _ in t) for u, ts in zip(self.unary, links)]
        wanted_by = {a: [i for i, c in enumerate(cand) if a in c] for a in set().union(*cand)}
        neighbours: list[dict[int, dict]] = [{} for _ in links]
        joint: list[dict[int, Counter]] = [{} for _ in links]
        for k, ts in enumerate(links):
            for j, table in ts:
                by_target = neighbours[j].setdefault(k, {})
                both = joint[k].setdefault(j, Counter())
                for (a, b), n in table.items():
                    by_target.setdefault(b, []).append((a, n))
                    both[a, b] += n
                    both[b, a] += n
        return cand, wanted_by, neighbours, joint


def matched_triples(
    pred: AmrGraph,
    gold: AmrGraph,
    mapping: VarMapping,
    include_top: bool = True,
) -> int:
    """Count the triples of ``pred`` that match a triple of ``gold`` when
    predicted variables are renamed through ``mapping``.  Each reference
    triple can be consumed at most once."""
    position = {var.name: k for k, var in enumerate(gold.instances)}
    lookup = mapping.as_dict()
    assign = [position.get(lookup.get(var.name)) for var in pred.instances]
    return _Weights(pred, gold, include_top).count(assign)


def _mapping(pred: AmrGraph, gold: AmrGraph, assign: Sequence[Optional[int]]) -> VarMapping:
    """Name the reference variable ``assign[i]`` of each predicted variable ``i``."""
    gold_vars = gold.variables()
    pairs = zip(pred.instances, assign)
    return VarMapping(tuple((var.name, gold_vars[a].name) for var, a in pairs if a is not None))


def match_exact(
    pred: AmrGraph,
    gold: AmrGraph,
    config: MatchConfig = MatchConfig(),
) -> tuple[VarMapping, int]:
    """Find the best variable mapping by a branch-and-bound search over
    the injective assignments from the smaller variable set into the
    larger.

    The assignments are searched in enumeration order, and a subtree is
    skipped when its value so far plus the largest terms its unplaced
    variables could add does not beat the best assignment found so far.
    The result is the first optimal assignment in that order, the one a
    full enumeration finds.  The worst case still visits every
    assignment, ``math.perm(larger, smaller)`` for the two variable
    counts, so a pair is refused when its smaller side exceeds
    ``config.exact_threshold`` or its assignments outnumber
    ``math.factorial(config.exact_threshold)``.
    """
    smaller, larger = sorted((len(pred.instances), len(gold.instances)))
    limit = config.exact_threshold
    if smaller > limit or math.perm(larger, smaller) > math.factorial(limit):
        raise ValueError(
            f"exhaustive matching needs a side with at most {limit} variables and at "
            f"most {limit}! assignments, got {smaller} against {larger} variables"
        )
    # the matched count is symmetric, so the smaller side's variables take
    # each ordered choice of the larger side's variables; ties go to the first
    swapped = len(pred.instances) > len(gold.instances)
    small, large = (gold, pred) if swapped else (pred, gold)
    weights = _Weights(small, large, config.include_top)
    # each table is charged when its later variable k is placed, keyed
    # (target of k, target of the earlier one); rest[k] bounds what the
    # variables from k on can still add
    charged = [[(j, t) for j, t in links if j < k] for k, links in enumerate(weights.links)]
    rest = list(accumulate(reversed(weights.tops()), initial=0))[::-1]
    # depth-first over the smaller side's variables in position order;
    # variable k tries the free targets after chosen[k] in position order,
    # so leaves come in enumeration order.  A target is skipped when its
    # subtree cannot beat the best leaf so far, and a leaf is taken only
    # when strictly better, so the first optimal leaf wins
    chosen = [-1] * smaller
    value = [0] * smaller
    free = [True] * larger
    best_count = -1
    best: tuple[Optional[int], ...] = ()
    k = 0
    while k >= 0:
        unary, tables, bound = weights.unary[k], charged[k], rest[k + 1]
        for a in range(chosen[k] + 1, larger):
            if not free[a]:
                continue
            reached = value[k] + unary.get(a, 0)
            for e, table in tables:
                reached += table.get((a, chosen[e]), 0)
            if reached + bound > best_count:
                break
        else:
            # every target tried: free the previous variable's and go back
            k -= 1
            if k >= 0:
                free[chosen[k]] = True
            continue
        chosen[k] = a
        if k + 1 == smaller:
            best_count, best = reached, tuple(chosen)
        else:
            free[a] = False
            k += 1
            chosen[k], value[k] = -1, reached
    if swapped:
        best = tuple(best.index(k) if k in best else None for k in range(larger))
    return _mapping(pred, gold, best), best_count


def _greedy_assign(pred: AmrGraph, gold: AmrGraph) -> list[Optional[int]]:
    # seed by concept: give each predicted variable the first free
    # reference variable carrying the same concept, then fill leftovers
    gold_by_concept: dict[str, list[int]] = {}
    for k, concept in enumerate(gold.instances.values()):
        gold_by_concept.setdefault(concept.label, []).append(k)
    assign: list[Optional[int]] = []
    for concept in pred.instances.values():
        candidates = gold_by_concept.get(concept.label)
        assign.append(candidates.pop(0) if candidates else None)
    taken = set(assign)
    free = iter([k for k in range(len(gold.instances)) if k not in taken])
    return [a if a is not None else next(free, None) for a in assign]


def _random_assign(pred_count: int, gold_count: int, rng: random.Random) -> list[Optional[int]]:
    pred_order = list(range(pred_count))
    gold_order = list(range(gold_count))
    rng.shuffle(pred_order)
    rng.shuffle(gold_order)
    assign: list[Optional[int]] = [None] * pred_count
    for pred_pos, gold_pos in zip(pred_order, gold_order):
        assign[pred_pos] = gold_pos
    return assign


def _climb(weights: _Weights, assign: list[Optional[int]]) -> int:
    """Steepest ascent: repeatedly take the single re-assignment or swap
    that raises the matched count the most, until none does.  Returns the
    final matched count.

    Variable ``i`` holding ``c`` tries only the reference variables with
    a term for ``i`` and those of holders with a term for ``c``: any other
    move leaves both moved variables without terms, so its gain is at
    most 0 and the strict ``>`` never takes it.  Tried targets go in
    position order, so each step takes the move a full scan would.

    ``field[v][a]`` is the sum of the terms ``v`` would have at ``a``
    with every other variable in place (the last slot, no name, stays 0).
    ``i`` taking ``a`` from its holder ``h``, who takes ``c``, gains
    ``field[i][a] - field[i][c] + field[h][c] - field[h][a]`` plus the
    terms of a table joining them at ``(a, c)`` and ``(c, a)``: the count
    after minus the count before, as integers, so no step changes.  A move
    updates only the fields of the moved variables' table neighbours, and
    the sorted candidate rows of the moved variables (rebuilt) and of the
    holders of names they have a term for (patched).
    """
    cand, wanted_by, neighbours, joint = weights.climb_index
    size = weights.gold_count
    field = [[unary.get(a, 0) for a in range(size)] + [0] for unary in weights.unary]
    owner: list[Optional[int]] = [None] * size

    def shift(m: int, old: Optional[int], new: Optional[int]) -> None:
        # m left old for new: move its terms in its neighbours' fields
        for k, by_target in neighbours[m].items():
            fk = field[k]
            for a, n in by_target.get(old, ()):
                fk[a] -= n
            for a, n in by_target.get(new, ()):
                fk[a] += n

    def row(v: int) -> list[int]:
        # v's candidates plus the names of the holders that want v's name
        names = cand[v].union(assign[h] for h in wanted_by.get(assign[v], ()))
        names.difference_update((assign[v], None))
        return sorted(names)

    for m, a in enumerate(assign):
        shift(m, None, a)
        if a is not None:
            owner[a] = m
    rows = [row(v) for v in range(len(assign))]
    matched = weights.count(assign)
    while True:
        # a step starts here; tests read the kept rows where best_gain is
        # first stored
        best_gain, best_move = 0, None
        for i, (current, names, fi, shared) in enumerate(zip(assign, rows, field, joint)):
            c = -1 if current is None else current
            before = fi[c]
            for a in names:
                holder = owner[a]
                gain = fi[a] - before
                if holder is not None:
                    fh = field[holder]
                    gain += fh[c] - fh[a]
                    if holder in shared:
                        gain += shared[holder].get((a, current), 0)
                if gain > best_gain:
                    best_gain, best_move = gain, (i, a, holder)
        if best_move is None:
            return matched
        i, a, holder = best_move
        current = assign[i]
        assign[i], owner[a] = a, i
        shift(i, current, a)
        if holder is not None:
            assign[holder] = current
            shift(holder, a, current)
        if current is not None:
            owner[current] = holder
        moved = [(i, current, a)] if holder is None else [(i, current, a), (holder, a, current)]
        for m, _, _ in moved:
            rows[m] = row(m)
        # an unmoved variable holding a name that m has a term for offers
        # m's name in its row: swap m's old name there for its new one,
        # unless that variable's own candidates hold it (during a swap a
        # name may sit in a row twice, until the second move takes one out)
        for m, old, new in moved:
            for b in cand[m]:
                v = owner[b]
                if v is None or v == i or v == holder:
                    continue
                names, own = rows[v], cand[v]
                if old is not None and old not in own:
                    del names[bisect_left(names, old)]
                if new is not None and new not in own:
                    insort(names, new)
        matched += best_gain


def match_hillclimb(
    pred: AmrGraph,
    gold: AmrGraph,
    config: MatchConfig = MatchConfig(),
) -> tuple[VarMapping, int]:
    """Find a good variable mapping by seeded hill-climbing.

    The first restart starts from a concept-matching greedy assignment,
    the rest from random assignments drawn from ``config.seed``, until one
    reaches a count no mapping beats, the least of ``sum(_Weights.tops())``
    and the two triple totals.  Returns the best mapping and its matched
    count: a lower bound on the exact optimum, deterministic for a config.
    """
    weights = _Weights(pred, gold, config.include_top)
    ceiling = min(sum(weights.tops()), _total(pred, config), _total(gold, config))
    rng = random.Random(config.seed)
    best_count = -1
    best_assign: list[Optional[int]] = []
    for attempt in range(config.restarts):
        if attempt == 0:
            assign = _greedy_assign(pred, gold)
        else:
            assign = _random_assign(len(pred.instances), len(gold.instances), rng)
        matched = _climb(weights, assign)
        if matched > best_count:
            best_count, best_assign = matched, assign
        if best_count == ceiling:
            break
    return _mapping(pred, gold, best_assign), best_count


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
    return SmatchScore.from_counts(matched, _total(pred, config), _total(gold, config))


def _total(graph: AmrGraph, config: MatchConfig) -> int:
    # the triple total: one per variable, one per edge, plus the root marker
    return len(graph.instances) + len(graph.edges) + config.include_top


def _score_indexed(
    config: MatchConfig, task: tuple[int, tuple[Optional[AmrGraph], AmrGraph]]
) -> SmatchScore:
    index, (pred, gold) = task
    if pred is None:
        # a missing prediction contributes its reference size to recall
        # and nothing else
        return SmatchScore.from_counts(0, 0, _total(gold, config))
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
    therefore the aggregate, are identical for any ``jobs`` and any order
    of completion; pairs are dealt out to the processes heaviest first
    (``n_pred * n_gold``).

    The aggregate is the micro average (pooled counts) by default, or the
    arithmetic mean of per-pair ratios with ``macro``.
    """
    size = [0 if p is None else len(p.instances) * len(g.instances) for p, g in pairs]
    order = sorted(range(len(pairs)), key=size.__getitem__, reverse=True)
    results = parallel_map(partial(_score_indexed, config), [(k, pairs[k]) for k in order], jobs)
    scores = [score for _, score in sorted(zip(order, results))]
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
