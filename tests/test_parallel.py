"""The process-pool path shared by ``filter_corpus`` and ``score_corpus``:
identical results for one worker and for more workers than items, on
corpora of zero to three entries."""

from __future__ import annotations

import random

import pytest

from amrkit import (
    MatchConfig,
    default_frame_lexicon,
    entries_from_text,
    filter_corpus,
    parse,
    score_corpus,
)
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
