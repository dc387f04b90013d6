"""The process-pool path shared by ``filter_corpus`` and ``score_corpus``:
identical results for one worker and for more workers than items, on
corpora of zero to four entries."""

from __future__ import annotations

import concurrent.futures
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from amrkit import (
    MatchConfig,
    default_frame_lexicon,
    entries_from_text,
    filter_corpus,
    parse,
    score_corpus,
)
from amrkit._parallel import parallel_map
from genutil import STRUCTURAL_BAD, VALID_TEMPLATES, corpus_text, random_graph, rename_variables

# the unparseable entry sits in the middle, so every size from 2 up has it
RECORDS = [
    ("zorch", "( z / zorch-01 :ARG0 ( b / boy ) )"),
    ("broken", STRUCTURAL_BAD),
    ("ok", VALID_TEMPLATES[1]),
]


def _pairs() -> list:
    rng = random.Random(12)
    large = random_graph(rng, 15)
    while len(large.variables()) <= 8:
        large = random_graph(rng, 15)
    small = parse(VALID_TEMPLATES[0])
    # pair 0 is large enough for the seeded hill-climbing search
    return [
        (rename_variables(large, rng), large),
        (None, small),
        (small, parse(VALID_TEMPLATES[2])),
    ]


@pytest.mark.parametrize("size", [0, 1, 2, 3])
def test_filter_corpus_any_jobs(size):
    entries = entries_from_text(corpus_text(RECORDS[:size]))
    lexicon = default_frame_lexicon()
    serial = filter_corpus(entries, lexicon, "flag", jobs=1)
    pooled = filter_corpus(entries, lexicon, "flag", jobs=4)
    assert pooled == serial
    assert [report.graph_id for _, report in pooled.results] == [rid for rid, _ in RECORDS[:size]]
    assert [entry.id for entry in pooled.kept] == [rid for rid, _ in RECORDS[:size] if rid == "ok"]


@pytest.mark.parametrize("size", [0, 1, 2, 3])
def test_score_corpus_any_jobs(size):
    pairs = _pairs()[:size]
    config = MatchConfig(restarts=2, seed=5)
    serial = score_corpus(pairs, config, jobs=1)
    pooled = score_corpus(pairs, config, jobs=4)
    assert pooled == serial
    assert len(pooled[1]) == size
    if size >= 2:
        # the missing prediction scores nothing and keeps its reference size
        assert (pooled[1][1].matched, pooled[1][1].pred_total) == (0, 0)
        assert pooled[1][1].gold_total == len(pairs[1][1].triples(True))


@pytest.mark.parametrize(
    "jobs, count, workers, chunk",
    [(64, 3, 3, 1), (4, 4, 4, 1), (2, 40, 2, 2), (3, 100, 3, 4), (8, 2, 2, 1)],
)
def test_pool_never_outnumbers_items(monkeypatch, jobs, count, workers, chunk):
    # a stand-in pool that records its size and runs in this process, so
    # no worker starts however many are asked for
    made = []

    class RecordingPool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc_info):
            return False

        def map(self, fn, items, chunksize):
            made.append(chunksize)
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    assert parallel_map(abs, range(-count, 0), jobs) == list(range(count, 0, -1))
    assert made == [workers, chunk]
    made.clear()
    assert parallel_map(abs, [-1], jobs) == [1]
    assert parallel_map(abs, range(-count, 0), 1) == list(range(count, 0, -1))
    assert made == []


# one pair: a graph seed, whether the reference is above the exact
# threshold, and what the prediction is
PAIR_SPECS = st.tuples(
    st.integers(0, 2**32 - 1), st.booleans(), st.sampled_from(["missing", "renamed", "other"])
)


def _spec_pair(seed: int, large: bool, prediction: str) -> tuple:
    rng = random.Random(seed)
    min_vars, max_vars = (9, 14) if large else (1, 6)
    gold = random_graph(rng, max_vars, min_vars)
    if prediction == "missing":
        return None, gold
    if prediction == "renamed":
        return rename_variables(gold, rng), gold
    return random_graph(rng, max_vars, min_vars), gold


@settings(max_examples=6, deadline=None)
@example(specs=[(1, True, "other"), (2, False, "missing")], seed=3)
@given(specs=st.lists(PAIR_SPECS, max_size=4), seed=st.integers(0, 2**16))
def test_score_corpus_jobs_property(specs, seed):
    # each example starts a process pool per aggregate, so examples are few
    pairs = [_spec_pair(*spec) for spec in specs]
    config = MatchConfig(restarts=2, seed=seed)
    for macro in (False, True):
        assert score_corpus(pairs, config, jobs=2, macro=macro) == score_corpus(
            pairs, config, jobs=1, macro=macro
        )
