"""AMR corpus files: reading, writing, filtering, splitting, statistics.

A corpus file holds one entry per blank-line-separated record.  Lines
starting with ``#`` carry ``::key value`` metadata (several keys may share
a line); the remaining lines are the PENMAN graph.  Entries keep their
raw text and parse lazily, so a file of broken graphs still loads and the
failures stay addressable as data; only records with no graph text at
all, or clashing ``::id`` values, are file-format errors.  Filtering
validates entries through one ordered parallel map over forked worker
processes, so its outcome is in corpus order for any worker count.
"""

from __future__ import annotations

import random
import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import groupby
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

    def __post_init__(self) -> None:
        object.__setattr__(self, "metadata", dict(self.metadata))

    @property
    def id(self) -> Optional[str]:
        """The ``::id`` value; None when it is absent or empty."""
        return self.metadata.get("id") or None

    @property
    def snt(self) -> Optional[str]:
        return self.metadata.get("snt")

    @property
    def extra_meta(self) -> list[tuple[str, str]]:
        """Metadata keys other than ``id`` and ``snt``, in file order."""
        return [(k, v) for k, v in self.metadata.items() if k not in ("id", "snt")]

    # a frozen dataclass still takes this: cached_property writes __dict__ directly
    @cached_property
    def _parsed(self) -> tuple[Optional[AmrGraph], Optional[ParseError]]:
        try:
            return parse(self.graph_text), None
        except ParseError as err:
            # drop the traceback: its frames would tie callers' locals into a cycle
            return None, err.with_traceback(None)

    @property
    def graph(self) -> Optional[AmrGraph]:
        return self._parsed[0]

    @property
    def parse_error(self) -> Optional[ParseError]:
        return self._parsed[1]


def _entry_label(entry: CorpusEntry, position: int) -> str:
    """How messages name an entry: its ``::id``, else ``#`` and its
    1-based position in the corpus."""
    return entry.id or f"#{position + 1}"


_META_KEY_RE = re.compile(r"::(\S+)")


def entries_from_text(text: str) -> list[CorpusEntry]:
    """Split corpus text into entries without parsing any graphs.

    Raises CorpusFormatError for a record that has metadata but no graph
    text, and for two records sharing an ``::id``.  One leading byte-order
    mark is dropped.  Lines end at ``\\n``, ``\\r\\n`` or ``\\r`` only, so
    any other separator stays inside its metadata value or string.
    """
    entries: list[CorpusEntry] = []
    lines = text.removeprefix("\ufeff").replace("\r\n", "\n").replace("\r", "\n").split("\n")
    numbered = enumerate(lines, start=1)
    for filled, block in groupby(numbered, lambda item: bool(item[1].strip())):
        if not filled:
            continue
        meta: dict[str, str] = {}
        graph_lines: list[str] = []
        source_line = graph_line = 0
        for lineno, line in block:
            # a block has no blank line, so [0] exists; it beats startswith
            if line.lstrip()[0] != "#":
                graph_lines.append(line)
                graph_line = graph_line or lineno
            # a '#' line may carry several '::key value' fields; each value
            # runs to the next '::' or the end of the line
            elif len(fields := _META_KEY_RE.split(line)) > 1:
                meta.update(zip(fields[1::2], map(str.strip, fields[2::2])))
            else:
                continue  # a plain comment, which does not start the record
            source_line = source_line or lineno
        if graph_lines:
            entries.append(CorpusEntry(meta, "\n".join(graph_lines), source_line, graph_line))
        elif meta:
            label = meta.get("id") or f"line {source_line}"
            raise CorpusFormatError(f"record {label} has no PENMAN block")
    first_line: dict[Optional[str], int] = {}
    for entry in entries:
        first = first_line.setdefault(entry.id, entry.source_line)
        if first != entry.source_line and entry.id is not None:
            raise CorpusFormatError(
                f"duplicate ::id {entry.id!r} at lines {first} and {entry.source_line}"
            )
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
    this impossible, so they raise a ValueError naming every offender, and
    a graph the canonical form cannot write raises one naming its entry.
    With ``canonical=False`` the raw graph text is written back unchanged.
    """
    blocks: list[str] = []
    bad: list[str] = []
    for position, entry in enumerate(entries):
        label = _entry_label(entry, position)
        lines = [f"# ::{key} {value}".rstrip() for key, value in entry.metadata.items()]
        if not canonical:
            lines.append(entry.graph_text)
        elif entry.graph is None:
            bad.append(label)
        else:
            graph = strip_wiki(entry.graph) if remove_wiki else entry.graph
            try:
                lines.append(serialize_canonical(graph))
            except ValueError as err:
                raise ValueError(f"{label}: {err}") from err
        # each block ends in a newline, and a blank line separates blocks
        blocks.append("\n".join(lines) + "\n")
    if bad:
        raise ValueError(f"cannot write unparseable entries: {', '.join(bad)}")
    return "\n".join(blocks)


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

    def violation_counts(self) -> Counter[Rule]:
        return Counter(
            violation.rule for _, report in self.results for violation in report.violations
        )


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
    in up to ``jobs`` processes (see ``parallel_map``); results are
    returned in corpus order, so the outcome is identical for any worker
    count.
    """
    reports = parallel_map(
        partial(_validate_one, lexicon, unknown_frame_policy),
        [(entry.id or "", entry.graph_text) for entry in entries],
        jobs,
    )
    return FilterOutcome(tuple(zip(entries, reports)))


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
    shuffled = random.Random(seed).sample(entries, len(entries))
    return shuffled[test_size:], shuffled[:test_size]


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
    return random.Random(seed).sample(entries, len(entries))[:size]


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
    counts = Counter(
        entry.graph.top_concept().label for entry in entries if entry.graph is not None
    )
    rows = sorted(counts.items(), key=lambda pair: (-pair[1], pair[0]))
    if k is not None:
        rows = rows[:k]
    counted = sum(counts.values())
    return NodeFrequencyTable(tuple(rows), counted, len(entries) - counted)
