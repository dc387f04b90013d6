"""Smatch scoring: structural overlap between two AMR graphs.

Both graphs are decomposed into triples, predicted variables are aligned
to reference variables by an injective mapping, and precision, recall,
and F1 are computed over the matched triples.  Finding the best mapping
is done either exhaustively (small graphs; exact by construction) or by
steepest-ascent hill-climbing with restarts (the classic approximation).

Scoring is deterministic: the search is seeded, and corpus runs derive
one seed per pair from the pair's position and collect per-pair scores
through one ordered process-pool map, so results do not depend on how
many worker processes are used.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from dataclasses import dataclass, replace
from functools import partial
from typing import Iterable, Optional, Sequence

from ._parallel import parallel_map
from .graph import AmrGraph, Triple, Variable


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


# Triple keys: instance ("i", var, label), attribute ("a", var, role, text),
# relation ("r", var, role, var).  Variable slots hold reference names on
# the reference side and mapped reference names (or None) on the predicted
# side, so equal keys mean the triples match under the current mapping.


def _gold_keys(triples: Iterable[Triple]) -> Counter:
    keys: Counter = Counter()
    for t in triples:
        if t.kind == "instance":
            keys[("i", t.source.name, str(t.target))] += 1
        elif t.kind == "attribute":
            keys[("a", t.source.name, t.label, str(t.target))] += 1
        else:
            assert isinstance(t.target, Variable)
            keys[("r", t.source.name, t.label, t.target.name)] += 1
    return keys


class _PredSide:
    """The predicted graph prepared for fast re-keying under a changing
    variable assignment."""

    def __init__(self, triples: Sequence[Triple], variables: Sequence[Variable]):
        self.var_index = {v.name: i for i, v in enumerate(variables)}
        self.var_names = [v.name for v in variables]
        self.templates: list[tuple] = []
        # template: like a key but with variable slots as pred indices
        for t in triples:
            if t.kind == "instance":
                self.templates.append(("i", self.var_index[t.source.name], str(t.target)))
            elif t.kind == "attribute":
                self.templates.append(("a", self.var_index[t.source.name], t.label, str(t.target)))
            else:
                assert isinstance(t.target, Variable)
                self.templates.append(
                    ("r", self.var_index[t.source.name], t.label, self.var_index[t.target.name])
                )
        self.touching: list[list[int]] = [[] for _ in variables]
        for idx, template in enumerate(self.templates):
            seen = set()
            for slot in self._var_slots(template):
                if slot not in seen:
                    seen.add(slot)
                    self.touching[slot].append(idx)

    @staticmethod
    def _var_slots(template: tuple) -> tuple[int, ...]:
        if template[0] == "r":
            return (template[1], template[3])
        return (template[1],)

    def key(self, template: tuple, assign: list[Optional[str]]) -> tuple:
        if template[0] == "r":
            return ("r", assign[template[1]], template[2], assign[template[3]])
        if template[0] == "a":
            return ("a", assign[template[1]], template[2], template[3])
        return ("i", assign[template[1]], template[2])


class _MatchState:
    """Current assignment plus the matched-triple count, maintained
    incrementally as variables are re-assigned."""

    def __init__(self, pred: _PredSide, gold_mult: Counter, assign: list[Optional[str]]):
        self.pred = pred
        self.gold = gold_mult
        self.assign = assign
        self.keys = [pred.key(t, assign) for t in pred.templates]
        self.counts: Counter = Counter()
        self.matched = 0
        for key in self.keys:
            self._add_key(key)

    def _remove_key(self, key: tuple) -> None:
        if self.counts[key] <= self.gold[key]:
            self.matched -= 1
        self.counts[key] -= 1
        if not self.counts[key]:
            del self.counts[key]

    def _add_key(self, key: tuple) -> None:
        if self.counts[key] < self.gold[key]:
            self.matched += 1
        self.counts[key] += 1

    def _rekey(self, touched: Iterable[int]) -> None:
        for idx in touched:
            self._remove_key(self.keys[idx])
        for idx in touched:
            key = self.pred.key(self.pred.templates[idx], self.assign)
            self._add_key(key)
            self.keys[idx] = key

    def set_var(self, var: int, gold_name: Optional[str]) -> None:
        self.assign[var] = gold_name
        self._rekey(self.pred.touching[var])

    def swap_vars(self, a: int, b: int) -> None:
        self.assign[a], self.assign[b] = self.assign[b], self.assign[a]
        touched = self.pred.touching[a] + [
            t for t in self.pred.touching[b] if t not in self.pred.touching[a]
        ]
        self._rekey(touched)


def _prepare(pred: AmrGraph, gold: AmrGraph, include_top: bool) -> tuple[_PredSide, Counter]:
    pred_side = _PredSide(pred.triples(include_top), pred.variables())
    gold_mult = _gold_keys(gold.triples(include_top))
    return pred_side, gold_mult


def _count(pred: _PredSide, gold_mult: Counter, assign: Sequence[Optional[str]]) -> int:
    """Matched triples under ``assign``; each reference triple is consumed
    at most once."""
    counts = Counter(pred.key(t, assign) for t in pred.templates)
    return sum(min(n, gold_mult[k]) for k, n in counts.items())


def _mapping_from_assign(pred: _PredSide, assign: Sequence[Optional[str]]) -> VarMapping:
    return VarMapping(
        tuple(
            (pred.var_names[i], gold_name)
            for i, gold_name in enumerate(assign)
            if gold_name is not None
        )
    )


def matched_triples(
    pred: AmrGraph,
    gold: AmrGraph,
    mapping: VarMapping,
    include_top: bool = True,
) -> int:
    """Count the triples of ``pred`` that match a triple of ``gold`` when
    predicted variables are renamed through ``mapping``.  Each reference
    triple can be consumed at most once."""
    pred_side, gold_mult = _prepare(pred, gold, include_top)
    lookup = mapping.as_dict()
    return _count(pred_side, gold_mult, [lookup.get(name) for name in pred_side.var_names])


def match_exact(
    pred: AmrGraph,
    gold: AmrGraph,
    config: MatchConfig = MatchConfig(),
) -> tuple[VarMapping, int]:
    """Find the best variable mapping by exhausting every injective
    assignment from the smaller variable set into the larger.

    Exact by construction.  Cost grows factorially with the smaller
    variable count, so graphs whose smaller side exceeds
    ``config.exact_threshold`` are refused.
    """
    pred_names = [v.name for v in pred.variables()]
    gold_names = [v.name for v in gold.variables()]
    smaller = min(len(pred_names), len(gold_names))
    if smaller > config.exact_threshold:
        raise ValueError(
            f"exhaustive matching needs a side with at most "
            f"{config.exact_threshold} variables, got {smaller}"
        )
    # the matched count is symmetric, so the smaller side's variables take
    # each ordered choice of the larger side's names; ties go to the first
    swapped = len(pred_names) > len(gold_names)
    small, large, large_names = (gold, pred, pred_names) if swapped else (pred, gold, gold_names)
    small_side, large_mult = _prepare(small, large, config.include_top)
    best_count = -1
    best: tuple[str, ...] = ()
    for chosen in itertools.permutations(large_names, smaller):
        count = _count(small_side, large_mult, chosen)
        if count > best_count:
            best_count = count
            best = chosen
    mapped = dict(zip(small_side.var_names, best))
    if swapped:
        mapped = {pred_name: gold_name for gold_name, pred_name in mapped.items()}
    mapping = VarMapping(tuple((name, mapped[name]) for name in pred_names if name in mapped))
    return mapping, best_count


def _greedy_assign(
    pred: AmrGraph, gold: AmrGraph, pred_side: _PredSide
) -> list[Optional[str]]:
    # seed by concept: give each predicted variable the first free
    # reference variable carrying the same concept, then fill leftovers
    gold_by_concept: dict[str, list[str]] = {}
    for var in gold.variables():
        gold_by_concept.setdefault(gold.instances[var].label, []).append(var.name)
    taken: set[str] = set()
    assign: list[Optional[str]] = [None] * len(pred_side.var_names)
    for i, name in enumerate(pred_side.var_names):
        label = pred.instances[Variable(name)].label
        for candidate in gold_by_concept.get(label, ()):
            if candidate not in taken:
                assign[i] = candidate
                taken.add(candidate)
                break
    free = [v.name for v in gold.variables() if v.name not in taken]
    for i in range(len(assign)):
        if assign[i] is None and free:
            assign[i] = free.pop(0)
    return assign


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


def _climb(state: _MatchState, gold_names: list[str]) -> None:
    """Steepest ascent: repeatedly take the single re-assignment or swap
    that raises the matched count the most, until none does."""
    owner: dict[str, int] = {}
    for i, name in enumerate(state.assign):
        if name is not None:
            owner[name] = i
    while True:
        best_gain = 0
        best_move: Optional[tuple] = None
        before = state.matched
        for i in range(len(state.assign)):
            current = state.assign[i]
            for gold_name in gold_names:
                if gold_name == current:
                    continue
                holder = owner.get(gold_name)
                if holder is None:
                    state.set_var(i, gold_name)
                    gain = state.matched - before
                    state.set_var(i, current)
                    if gain > best_gain:
                        best_gain = gain
                        best_move = ("set", i, gold_name)
                elif holder != i:
                    state.swap_vars(i, holder)
                    gain = state.matched - before
                    state.swap_vars(i, holder)
                    if gain > best_gain:
                        best_gain = gain
                        best_move = ("swap", i, holder)
        if best_move is None:
            return
        if best_move[0] == "set":
            _, i, gold_name = best_move
            if state.assign[i] is not None:
                del owner[state.assign[i]]
            state.set_var(i, gold_name)
            owner[gold_name] = i
        else:
            _, i, holder = best_move
            name_i, name_h = state.assign[i], state.assign[holder]
            state.swap_vars(i, holder)
            if name_i is not None:
                owner[name_i] = holder
            if name_h is not None:
                owner[name_h] = i


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
    pred_side, gold_mult = _prepare(pred, gold, config.include_top)
    gold_names = [v.name for v in gold.variables()]
    rng = random.Random(config.seed)
    best_count = -1
    best_assign: list[Optional[str]] = [None] * len(pred_side.var_names)
    for attempt in range(config.restarts):
        if attempt == 0:
            assign = _greedy_assign(pred, gold, pred_side)
        else:
            assign = _random_assign(len(pred_side.var_names), gold_names, rng)
        state = _MatchState(pred_side, gold_mult, assign)
        _climb(state, gold_names)
        if state.matched > best_count:
            best_count = state.matched
            best_assign = list(state.assign)
    return _mapping_from_assign(pred_side, best_assign), best_count


def score_pair(
    pred: AmrGraph,
    gold: AmrGraph,
    config: MatchConfig = MatchConfig(),
) -> SmatchScore:
    """Score one predicted graph against its reference.

    Uses the exhaustive search when both variable counts are within
    ``config.exact_threshold``, hill-climbing otherwise.
    """
    n_pred = len(pred.variables())
    n_gold = len(gold.variables())
    if max(n_pred, n_gold) <= config.exact_threshold:
        _, matched = match_exact(pred, gold, config)
    else:
        _, matched = match_hillclimb(pred, gold, config)
    pred_total = len(pred.triples(config.include_top))
    gold_total = len(gold.triples(config.include_top))
    return SmatchScore.from_counts(matched, pred_total, gold_total)


def _score_indexed(
    config: MatchConfig, task: tuple[int, tuple[Optional[AmrGraph], AmrGraph]]
) -> SmatchScore:
    index, (pred, gold) = task
    if pred is None:
        # a missing prediction contributes its reference size to recall
        # and nothing else
        gold_total = len(gold.triples(config.include_top))
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
