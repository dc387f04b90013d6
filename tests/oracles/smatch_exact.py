"""The two-branch exhaustive Smatch search, kept as an oracle.

This is ``match_exact`` as it stood before its two permutation loops
became one: with the predicted side no larger it permutes reference
names directly, otherwise it permutes predicted positions.  The triple
keying is inlined from the public ``AmrGraph.triples`` so the oracle does
not depend on the matcher's private helpers.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Optional

from amrkit import AmrGraph, MatchConfig, VarMapping, Variable


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


def _templates(pred: AmrGraph, var_index: dict[str, int], include_top: bool) -> list[tuple]:
    out = []
    for t in pred.triples(include_top):
        if t.kind == "instance":
            out.append(("i", var_index[t.source.name], str(t.target)))
        elif t.kind == "attribute":
            out.append(("a", var_index[t.source.name], t.label, str(t.target)))
        else:
            assert isinstance(t.target, Variable)
            out.append(("r", var_index[t.source.name], t.label, var_index[t.target.name]))
    return out


def _key(template: tuple, assign: list[Optional[str]]) -> tuple:
    if template[0] == "r":
        return ("r", assign[template[1]], template[2], assign[template[3]])
    if template[0] == "a":
        return ("a", assign[template[1]], template[2], template[3])
    return ("i", assign[template[1]], template[2])


def match_exact_two_loops(
    pred: AmrGraph,
    gold: AmrGraph,
    config: MatchConfig = MatchConfig(),
) -> tuple[VarMapping, int]:
    pred_names = [v.name for v in pred.variables()]
    var_index = {name: i for i, name in enumerate(pred_names)}
    templates = _templates(pred, var_index, config.include_top)
    gold_mult = _gold_keys(gold, config.include_top)
    gold_names = [v.name for v in gold.variables()]
    smaller = min(len(pred_names), len(gold_names))
    if smaller > config.exact_threshold:
        raise ValueError(
            f"exhaustive matching needs a side with at most "
            f"{config.exact_threshold} variables, got {smaller}"
        )
    best_count = -1
    best_assign: list[Optional[str]] = [None] * len(pred_names)
    if len(pred_names) <= len(gold_names):
        for chosen in itertools.permutations(gold_names, len(pred_names)):
            assign = list(chosen)
            count = sum(
                min(n, gold_mult[k])
                for k, n in Counter(_key(t, assign) for t in templates).items()
            )
            if count > best_count:
                best_count = count
                best_assign = assign
    else:
        for chosen in itertools.permutations(range(len(pred_names)), len(gold_names)):
            assign = [None] * len(pred_names)
            for gold_pos, pred_pos in enumerate(chosen):
                assign[pred_pos] = gold_names[gold_pos]
            count = sum(
                min(n, gold_mult[k])
                for k, n in Counter(_key(t, assign) for t in templates).items()
            )
            if count > best_count:
                best_count = count
                best_assign = assign
    mapping = VarMapping(
        tuple(
            (pred_names[i], gold_name)
            for i, gold_name in enumerate(best_assign)
            if gold_name is not None
        )
    )
    return mapping, best_count
