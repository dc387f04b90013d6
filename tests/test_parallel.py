"""The parallel map shared by ``filter_corpus`` and ``score_corpus``:
identical results for one worker and for more workers than items, on
corpora of zero to four entries; how many processes it forks; and how its
failures reach the caller with no child left running."""

from __future__ import annotations

import os
import random
import subprocess
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import amrkit
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


def _record_forks(monkeypatch, cpus: int) -> list:
    # the map sees ``cpus`` CPUs; each real fork's child pid is recorded
    forks = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(os, "fork", fork)
    return forks


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# (64, 40, 2) is the CPU ceiling: 64 jobs over 40 items on 2 CPUs fork once
@pytest.mark.parametrize(
    "jobs, count, cpus",
    [(64, 3, 4), (4, 4, 4), (2, 40, 2), (3, 100, 4), (8, 2, 4), (64, 40, 2)],
)
def test_pool_never_outnumbers_items(monkeypatch, jobs, count, cpus):
    forks = _record_forks(monkeypatch, cpus)
    # a lambda: the function reaches the workers through the fork, unpickled
    assert parallel_map(lambda x: -x, range(-count, 0), jobs) == list(range(count, 0, -1))
    assert len(forks) == min(jobs, count, cpus) - 1
    forks.clear()
    assert parallel_map(abs, [-1], jobs) == [1]
    assert parallel_map(abs, range(-count, 0), 1) == list(range(count, 0, -1))
    assert forks == []
    _no_child_left()


def test_no_fork_runs_in_this_process(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    monkeypatch.delattr(os, "fork")
    assert parallel_map(abs, range(-5, 0), 4) == [5, 4, 3, 2, 1]


class ShareError(Exception):
    pass


def _fail_at(bad: dict):
    def fn(item):
        if item in bad:
            raise ShareError(bad[item])
        return item

    return fn


def test_child_exception_reaches_caller(monkeypatch):
    forks = _record_forks(monkeypatch, 2)
    # item 3 is in the forked child's share, item 4 in this process's
    with pytest.raises(ShareError, match="^item 3$"):
        parallel_map(_fail_at({3: "item 3", 4: "item 4"}), range(6), 2)
    assert len(forks) == 1
    _no_child_left()


def test_caller_exception_reaps_every_child(monkeypatch):
    forks = _record_forks(monkeypatch, 3)
    with pytest.raises(ShareError, match="^item 0$"):
        parallel_map(_fail_at({0: "item 0"}), range(9), 3)
    assert len(forks) == 2
    _no_child_left()


def test_child_dying_without_a_result(monkeypatch):
    parent = os.getpid()

    def fn(item):
        if item == 1 and os.getpid() != parent:
            os._exit(3)
        return item

    forks = _record_forks(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="exited with status 3 without a result"):
        parallel_map(fn, range(4), 2)
    assert len(forks) == 1
    _no_child_left()


def test_unflushed_stdout_written_once():
    script = (
        "import os, sys\n"
        "os.cpu_count = lambda: 2\n"
        "from amrkit._parallel import parallel_map\n"
        "sys.stdout.write('before ')\n"
        "print(parallel_map(abs, range(-4, 0), 2))\n"
        "try:\n"
        "    os.waitpid(-1, os.WNOHANG)\n"
        "except ChildProcessError:\n"
        "    print('reaped')\n"
    )
    package_root = os.path.dirname(os.path.dirname(amrkit.__file__))
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=60,
        env=dict(os.environ, PYTHONPATH=package_root),
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == "before [4, 3, 2, 1]\nreaped\n"


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
    # each example forks a worker per aggregate, so examples are few
    pairs = [_spec_pair(*spec) for spec in specs]
    config = MatchConfig(restarts=2, seed=seed)
    for macro in (False, True):
        assert score_corpus(pairs, config, jobs=2, macro=macro) == score_corpus(
            pairs, config, jobs=1, macro=macro
        )
