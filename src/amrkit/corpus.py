"""AMR corpus files: reading, writing, filtering, splitting, statistics.

A corpus file holds one entry per blank-line-separated record.  Lines
starting with ``#`` carry ``::key value`` metadata (several keys may share
a line); the remaining lines are the PENMAN graph.  Entries keep their
raw text and parse lazily, so a file of broken graphs still loads and the
failures stay addressable as data; only records with no graph text at
all, or clashing ``::id`` values, are file-format errors.  Filtering
validates entries through one ordered process-pool map, so its outcome
is in corpus order for any worker count.
"""

from __future__ import annotations

import random
import re
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import Mapping, Optional, Sequence

from ._parallel import parallel_map
from .graph import AmrGraph
from .penman import ParseError, parse, serialize_canonical, strip_wiki
from .validate import FrameLexicon, Rule, ValidationReport, Violation, validate


class CorpusFormatError(ValueError):
    """Raised when a corpus file breaks the record format."""


@dataclass(frozen=True)
class CorpusEntry:
    """One corpus record: metadata plus the graph's raw PENMAN text.

    Parsing happens on first access to ``graph`` or ``parse_error`` and is
    cached; a broken graph gives ``graph is None`` and a ParseError in
    ``parse_error`` instead of raising.
    """

    metadata: Mapping[str, str]
    graph_text: str
    source_line: int = 0
    graph_line: int = 0
    _cache: Optional[tuple] = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "metadata", dict(self.metadata))

    @property
    def id(self) -> Optional[str]:
        return self.metadata.get("id")

    @property
    def snt(self) -> Optional[str]:
        return self.metadata.get("snt")

    @property
    def extra_meta(self) -> list[tuple[str, str]]:
        """Metadata keys other than ``id`` and ``snt``, in file order."""
        return [(k, v) for k, v in self.metadata.items() if k not in ("id", "snt")]

    def _parse_once(self) -> tuple[Optional[AmrGraph], Optional[ParseError]]:
        if self._cache is None:
            try:
                result = (parse(self.graph_text), None)
            except ParseError as err:
                # drop the traceback: its frames would tie callers' locals into a cycle
                result = (None, err.with_traceback(None))
            object.__setattr__(self, "_cache", result)
        return self._cache

    @property
    def graph(self) -> Optional[AmrGraph]:
        return self._parse_once()[0]

    @property
    def parse_error(self) -> Optional[ParseError]:
        return self._parse_once()[1]


_META_KEY_RE = re.compile(r"::(\S+)")


def _read_meta_line(line: str, meta: dict[str, str]) -> None:
    # a '#' line may carry several '::key value' fields; each value runs
    # to the next '::' or the end of the line
    marks = list(_META_KEY_RE.finditer(line))
    for pos, mark in enumerate(marks):
        end = marks[pos + 1].start() if pos + 1 < len(marks) else len(line)
        meta[mark.group(1)] = line[mark.end() : end].strip()


def entries_from_text(text: str) -> list[CorpusEntry]:
    """Split corpus text into entries without parsing any graphs.

    Raises CorpusFormatError for a record that has metadata but no graph
    text, and for two records sharing an ``::id``.
    """
    entries: list[CorpusEntry] = []
    meta: dict[str, str] = {}
    graph_lines: list[str] = []
    block_start = 0
    graph_start = 0

    def flush() -> None:
        nonlocal meta, graph_lines
        if meta and not graph_lines:
            label = meta.get("id") or f"line {block_start}"
            raise CorpusFormatError(f"record {label} has no PENMAN block")
        if graph_lines:
            entries.append(
                CorpusEntry(
                    metadata=meta,
                    graph_text="\n".join(graph_lines),
                    source_line=block_start,
                    graph_line=graph_start,
                )
            )
        meta = {}
        graph_lines = []

    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            flush()
            continue
        if not meta and not graph_lines:
            block_start = lineno
        if line.lstrip().startswith("#"):
            # '#' lines without '::' fields are plain comments
            _read_meta_line(line, meta)
        else:
            if not graph_lines:
                graph_start = lineno
            graph_lines.append(line)
    flush()
    seen: dict[str, int] = {}
    for entry in entries:
        if entry.id is None:
            continue
        if entry.id in seen:
            raise CorpusFormatError(
                f"duplicate ::id {entry.id!r} at lines {seen[entry.id]} and {entry.source_line}"
            )
        seen[entry.id] = entry.source_line
    return entries


def read_amr_file(path: str) -> list[CorpusEntry]:
    """Read a corpus file into entries; graphs are parsed lazily."""
    with open(path, encoding="utf-8") as handle:
        return entries_from_text(handle.read())


def format_amr_document(
    entries: Sequence[CorpusEntry],
    canonical: bool = True,
    remove_wiki: bool = True,
) -> str:
    """Render entries back to corpus text, one metadata key per line.

    With ``canonical`` each graph is rewritten in canonical single-line
    form (optionally after wiki removal); entries that do not parse make
    this impossible, so they raise a ValueError naming every offender.
    With ``canonical=False`` the raw graph text is written back unchanged.
    """
    blocks: list[str] = []
    bad: list[str] = []
    for position, entry in enumerate(entries):
        lines = [f"# ::{key} {value}".rstrip() for key, value in entry.metadata.items()]
        if canonical:
            graph = entry.graph
            if graph is None:
                bad.append(entry.id or f"entry {position + 1}")
                continue
            if remove_wiki:
                graph = strip_wiki(graph)
            lines.append(serialize_canonical(graph))
        else:
            lines.append(entry.graph_text)
        blocks.append("\n".join(lines))
    if bad:
        raise ValueError(f"cannot write unparseable entries: {', '.join(bad)}")
    if not blocks:
        return ""
    return "\n\n".join(blocks) + "\n"


def write_amr_file(
    entries: Sequence[CorpusEntry],
    path: str,
    canonical: bool = True,
    remove_wiki: bool = True,
) -> None:
    """Write entries to a corpus file; see ``format_amr_document``."""
    text = format_amr_document(entries, canonical, remove_wiki)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


@dataclass(frozen=True)
class FilterOutcome:
    """Validation results for a corpus, in corpus order."""

    results: tuple[tuple[CorpusEntry, ValidationReport], ...]

    @property
    def kept(self) -> list[CorpusEntry]:
        return [entry for entry, report in self.results if report.passed]

    @property
    def discarded(self) -> list[tuple[CorpusEntry, ValidationReport]]:
        return [(entry, report) for entry, report in self.results if not report.passed]

    @property
    def kept_n(self) -> int:
        return sum(1 for _, report in self.results if report.passed)

    @property
    def discarded_n(self) -> int:
        return len(self.results) - self.kept_n

    def violation_counts(self) -> dict[Rule, int]:
        counts: dict[Rule, int] = {}
        for _, report in self.results:
            for violation in report.violations:
                counts[violation.rule] = counts.get(violation.rule, 0) + 1
        return counts


def _validate_one(
    lexicon: FrameLexicon, policy: str, item: tuple[str, str]
) -> ValidationReport:
    graph_id, text = item
    try:
        graph = parse(text)
    except ParseError as err:
        return ValidationReport((Violation(Rule.STRUCTURAL, "", str(err)),), graph_id)
    return validate(graph, lexicon, policy, graph_id)


def filter_corpus(
    entries: Sequence[CorpusEntry],
    lexicon: FrameLexicon,
    unknown_frame_policy: str = "ignore",
    jobs: int = 1,
) -> FilterOutcome:
    """Validate every entry and separate the clean ones from the rest.

    Entries whose text does not parse are discarded with a single
    Structural violation carrying the parser's message.  Validation runs
    in ``jobs`` worker processes; results are returned in corpus order,
    so the outcome is identical for any worker count.
    """
    reports = parallel_map(
        partial(_validate_one, lexicon, unknown_frame_policy),
        [(entry.id or "", entry.graph_text) for entry in entries],
        jobs,
    )
    return FilterOutcome(tuple(zip(entries, reports)))


def _shuffled_indices(count: int, seed: int) -> list[int]:
    return random.Random(seed).sample(range(count), count)


def split_corpus(
    entries: Sequence[CorpusEntry],
    test_size: int,
    seed: int,
) -> tuple[list[CorpusEntry], list[CorpusEntry]]:
    """Split entries into (train, test): a seeded shuffle sends its first
    ``test_size`` entries to test and the rest to train.

    Both halves keep the shuffled order.  The test half equals
    ``sample_corpus`` of the same size and seed, so a split can be
    reproduced piecemeal.
    """
    if not 0 <= test_size <= len(entries):
        raise ValueError(
            f"test_size must be between 0 and {len(entries)}, got {test_size}"
        )
    order = _shuffled_indices(len(entries), seed)
    test = [entries[index] for index in order[:test_size]]
    train = [entries[index] for index in order[test_size:]]
    return train, test


def sample_corpus(
    entries: Sequence[CorpusEntry],
    size: int,
    seed: int,
) -> list[CorpusEntry]:
    """Draw a seeded sample of ``size`` entries without replacement.

    The sample is the first ``size`` entries of the seeded shuffle, so
    for a fixed seed and corpus the sample of size n is a prefix of the
    sample of size n+1; growing a dataset keeps its smaller versions.
    """
    if not 0 <= size <= len(entries):
        raise ValueError(f"size must be between 0 and {len(entries)}, got {size}")
    order = _shuffled_indices(len(entries), seed)
    return [entries[index] for index in order[:size]]


@dataclass(frozen=True)
class NodeFrequencyTable:
    """Top-node concept frequencies: rows of (label, count) sorted by
    count descending, ties broken alphabetically."""

    rows: tuple[tuple[str, int], ...]
    counted: int
    skipped: int

    def top(self, k: int) -> tuple[tuple[str, int], ...]:
        return self.rows[:k]


def top_node_stats(
    entries: Sequence[CorpusEntry],
    k: Optional[int] = None,
) -> NodeFrequencyTable:
    """Tally the root concept of every parseable entry.

    Unparseable entries are skipped and counted in ``skipped``.  With
    ``k`` the table keeps only the k most frequent labels; the totals
    still cover the whole corpus.
    """
    counts: Counter = Counter()
    skipped = 0
    for entry in entries:
        graph = entry.graph
        if graph is None:
            skipped += 1
            continue
        counts[graph.top_concept().label] += 1
    rows = sorted(counts.items(), key=lambda pair: (-pair[1], pair[0]))
    if k is not None:
        rows = rows[:k]
    return NodeFrequencyTable(tuple(rows), sum(counts.values()), skipped)
