"""The triple-keyed hill-climbing Smatch search, kept as an oracle.

This is ``match_hillclimb`` as it stood before the weight-table kernel:
the predicted graph's triples become templates whose variable slots are
re-keyed into a ``Counter`` on every trial move, and a move's gain is the
change of the incrementally maintained matched count.  The triple keying
is taken from the public ``AmrGraph.triples`` so the oracle does not
depend on the matcher's private helpers.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Iterable, Optional

from amrkit import AmrGraph, MatchConfig, VarMapping, Variable

# Triple keys: instance ("i", var, label), attribute ("a", var, role, text),
# relation ("r", var, role, var).  Variable slots hold reference names on
# the reference side and mapped reference names (or None) on the predicted
# side, so equal keys mean the triples match under the current mapping.


def _gold_keys(gold: AmrGraph, include_top: bool) -> Counter:
    keys: Counter = Counter()
    for t in gold.triples(include_top):
        if t.kind == "instance":
            keys[("i", t.source.name, str(t.target))] += 1
        elif t.kind == "attribute":
            keys[("a", t.source.name, t.label, str(t.target))] += 1
        else:
            keys[("r", t.source.name, t.label, t.target.name)] += 1
    return keys


class _PredSide:
    """The predicted graph prepared for re-keying under a changing
    variable assignment."""

    def __init__(self, pred: AmrGraph, include_top: bool):
        self.var_names = [v.name for v in pred.variables()]
        var_index = {name: i for i, name in enumerate(self.var_names)}
        self.templates: list[tuple] = []
        for t in pred.triples(include_top):
            if t.kind == "instance":
                self.templates.append(("i", var_index[t.source.name], str(t.target)))
            elif t.kind == "attribute":
                self.templates.append(("a", var_index[t.source.name], t.label, str(t.target)))
            else:
                assert isinstance(t.target, Variable)
                self.templates.append(
                    ("r", var_index[t.source.name], t.label, var_index[t.target.name])
                )
        self.touching: list[list[int]] = [[] for _ in self.var_names]
        for idx, template in enumerate(self.templates):
            slots = (template[1], template[3]) if template[0] == "r" else (template[1],)
            for slot in dict.fromkeys(slots):
                self.touching[slot].append(idx)

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


def _greedy_assign(pred: AmrGraph, gold: AmrGraph) -> list[Optional[str]]:
    gold_by_concept: dict[str, list[str]] = {}
    for var in gold.variables():
        gold_by_concept.setdefault(gold.instances[var].label, []).append(var.name)
    taken: set[str] = set()
    assign: list[Optional[str]] = [None] * len(pred.instances)
    for i, var in enumerate(pred.variables()):
        for candidate in gold_by_concept.get(pred.instances[var].label, ()):
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
    owner = {name: i for i, name in enumerate(state.assign) if name is not None}
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


def match_hillclimb_rekeyed(
    pred: AmrGraph,
    gold: AmrGraph,
    config: MatchConfig = MatchConfig(),
) -> tuple[VarMapping, int]:
    pred_side = _PredSide(pred, config.include_top)
    gold_mult = _gold_keys(gold, config.include_top)
    gold_names = [v.name for v in gold.variables()]
    rng = random.Random(config.seed)
    best_count = -1
    best_assign: list[Optional[str]] = [None] * len(pred_side.var_names)
    for attempt in range(config.restarts):
        if attempt == 0:
            assign = _greedy_assign(pred, gold)
        else:
            assign = _random_assign(len(pred_side.var_names), gold_names, rng)
        state = _MatchState(pred_side, gold_mult, assign)
        _climb(state, gold_names)
        if state.matched > best_count:
            best_count = state.matched
            best_assign = list(state.assign)
    mapping = VarMapping(
        tuple(
            (pred_side.var_names[i], gold_name)
            for i, gold_name in enumerate(best_assign)
            if gold_name is not None
        )
    )
    return mapping, best_count
