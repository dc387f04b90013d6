"""AMR corpus files: reading, writing, filtering, splitting, statistics.

A corpus file holds one entry per blank-line-separated record.  Lines
starting with ``#`` carry ``::key value`` metadata (several keys may share
a line); the remaining lines are the PENMAN graph.  Entries keep their
raw text and parse lazily, so a file of broken graphs still loads and the
failures stay addressable as data; only records with no graph text at
all, or clashing ``::id`` values, are file-format errors.  Filtering
validates entries through one ordered parallel map over forked worker
processes, so its outcome is in corpus order for any worker count.
Filtering, canonical writing and statistics parse each entry once and
cache no graph on it, so their memory follows the text, not the graphs.
Reading cuts a file into pieces of about ``_PIECE_BYTES``, each ending
before a blank line, and scans each piece once with one pattern, with no
string per line; a reader can take the entries a piece at a time, so it
need hold only one piece and the ids seen so far.  A document is laid out
block by block, so a writer need never hold it whole.
"""

from __future__ import annotations

import random
import re
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, partial
from typing import BinaryIO, Iterable, Iterator, Mapping, Optional, Sequence, Union

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

    def _parse_once(self) -> tuple[Optional[AmrGraph], Optional[ParseError]]:
        # the cached parse if there is one, else a parse that is not cached
        if "_parsed" in self.__dict__:
            return self.__dict__["_parsed"]
        try:
            return parse(self.graph_text), None
        except ParseError as err:
            # drop the traceback: its frames would tie callers' locals into a cycle
            return None, err.with_traceback(None)

    # a frozen dataclass still takes this: cached_property writes __dict__ directly
    _parsed = cached_property(_parse_once)

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
# a '#' line (group 1 from its '#') or a run of lines that are neither
# blank nor '#' lines; consecutive matches more than one character apart
# have a blank line between them.  Anchored at line starts, or a search
# would retry a long blank line from each of its characters (quadratic)
_LINES_RE = re.compile(r"(?m)^[ \t]*(?:(#.*)|[^ \t\n#].*(?:\n[ \t]*[^ \t\n#].*)*)")
# a record's "line id" in the ids that _entry_chunks checks at the end
_ID_RECORD_RE = re.compile(r"(\d+) (.*)\n")
# a blank line, ended by any line break: a cut just before it, after a
# '\n', splits no line break and no record
_BLANK_LINE_RE = re.compile(rb"[ \t]*[\r\n]")
# the bytes read before a piece is cut: about the most text one piece
# holds, unless a single record is longer
_PIECE_BYTES = 1 << 20


class _PieceDecodeError(UnicodeDecodeError):
    """A UTF-8 error in one piece of a stream: ``start`` and ``end`` count
    from the piece, which starts at byte ``offset`` of the stream, and the
    message names the stream position, as a decode of the whole would."""

    def __init__(self, err: UnicodeDecodeError, offset: int):
        super().__init__(err.encoding, err.object, err.start, err.end, err.reason)
        self.offset = offset

    def __str__(self) -> str:
        start, end = self.offset + self.start, self.offset + self.end
        if self.end == self.start + 1 and self.start < len(self.object):
            what = f"byte 0x{self.object[self.start]:02x} in position {start}"
        else:
            what = f"bytes in position {start}-{end - 1}"
        return f"'{self.encoding}' codec can't decode {what}: {self.reason}"


def _pieces(stream: BinaryIO) -> Iterator[str]:
    """The UTF-8 text of a byte stream in pieces, each but the last cut
    just after a line break that a blank line follows, so that no record
    spans two pieces.  A piece is cut at the last such break once
    ``_PIECE_BYTES`` have been read; a record longer than that stretches
    its piece.  Neither its bytes nor its text are kept once a piece is
    handed out."""
    buffer = bytearray()
    offset = 0  # the stream position of buffer[0]
    search = 0  # no blank line starts in buffer before this
    while block := stream.read(min(_PIECE_BYTES, 1 << 16)):
        buffer += block
        if len(buffer) < _PIECE_BYTES:
            continue
        # cut after the last '\n' that a blank line follows, or not at all
        end = len(buffer)
        while cut := buffer.rfind(b"\n", search, end) + 1:
            if _BLANK_LINE_RE.match(buffer, cut):
                break
            end = cut - 1
        # a blank line that a later block completes starts at the last '\n'
        search = buffer.rfind(b"\n", max(search, cut))
        search = (len(buffer) if search < 0 else search) - cut
        if cut:
            yield _take(buffer, cut, offset)
            offset += cut
    if buffer:
        yield _take(buffer, len(buffer), offset)


def _take(buffer: bytearray, size: int, offset: int) -> str:
    """Remove the first ``size`` bytes of ``buffer``, which start at byte
    ``offset`` of the stream, and return their text, decoded in place."""
    try:
        with memoryview(buffer) as view, view[:size] as piece:
            text = str(piece, "utf-8")
    except UnicodeDecodeError as err:
        raise _PieceDecodeError(err, offset) from None
    del buffer[:size]
    return text


def _entry_chunks(pieces: Iterable[str]) -> Iterator[list[CorpusEntry]]:
    """The entries of a corpus fed in pieces, each but the last ending just
    before a blank line: one list per piece, no graph parsed.

    The line count runs on from piece to piece, and a leading byte-order
    mark is dropped from the first.  A record with metadata but no graph
    text raises CorpusFormatError as the scan reaches it; two records
    sharing an ``::id`` raise it only after the last list, so a later
    record without graph text is reported instead.  One pattern, scanned
    once over each piece, finds ``#`` lines and runs of graph lines, so
    no string is made per line.
    """
    # "line id" of each record with an id, one to a line, in one buffer:
    # a few bytes per record, where a set or dict of ids costs over 100
    # while the scan runs
    ids = bytearray()
    line = 1  # the line number at offset counted
    for number, text in enumerate(pieces):
        text = text.replace("\r\n", "\n").replace("\r", "\n")
        if not number:
            text = text.removeprefix("\ufeff")
        entries: list[CorpusEntry] = []
        counted = 0
        matches = _LINES_RE.finditer(text)
        match = next(matches, None)
        while match:
            meta: dict[str, str] = {}
            parts: list[str] = []  # the runs of graph lines around the '#' lines
            hashed = False  # whether the record has a '#' line
            source = graph = len(text)  # the first metadata line, the first graph line
            while True:
                if match.start(1) < 0:
                    graph = min(graph, match.start())
                    parts.append(match[0])
                else:
                    hashed = True
                    # a '#' line may carry several '::key value' fields; each
                    # value runs to the next '::' or the end of the line
                    if len(fields := _META_KEY_RE.split(match[1])) > 1:
                        source = min(source, match.start())
                        meta.update(zip(fields[1::2], map(str.strip, fields[2::2])))
                end = match.end()
                match = next(matches, None)
                if not match or match.start() > end + 1:  # a blank line ends the record
                    break
            # plain comments alone; or no '#' line and nothing but other
            # whitespace, such as a form feed page break
            if not (parts or meta) or (not hashed and parts[0].isspace()):
                continue
            source = min(source, graph)
            line += text.count("\n", counted, source)
            counted = source
            if not parts:
                label = meta.get("id") or f"line {line}"
                raise CorpusFormatError(f"record {label} has no PENMAN block")
            graph_line = line + text.count("\n", source, graph)
            if name := meta.get("id"):
                ids += f"{line} {name}\n".encode("utf-8", "surrogatepass")
            entries.append(CorpusEntry(meta, "\n".join(parts), line, graph_line))
        line += text.count("\n", counted)
        # the entries hold copies of what they need of the piece
        del text, matches
        if entries:
            yield entries
    records = ids.decode("utf-8", "surrogatepass")
    seen: set[str] = set()
    for record in _ID_RECORD_RE.finditer(records):
        number, name = record.groups()
        if name in seen:
            first = next(m[1] for m in _ID_RECORD_RE.finditer(records) if m[2] == name)
            raise CorpusFormatError(f"duplicate ::id {name!r} at lines {first} and {number}")
        seen.add(name)


def entries_from_text(text: str) -> list[CorpusEntry]:
    """Split corpus text into entries without parsing any graphs.

    Raises CorpusFormatError for a record that has metadata but no graph
    text, and for two records sharing an ``::id``.  One leading byte-order
    mark is dropped.  Lines end at ``\\n``, ``\\r\\n`` or ``\\r`` only, so
    any other separator stays inside its metadata value or string.  Only
    spaces and tabs make a line blank; a line of other whitespace, such as
    a form feed, stays in its record, and a record of nothing but such
    lines is skipped like a blank line.  The text is read as the one piece
    of the reader that ``read_amr_file`` and the ``validate`` and
    ``canonicalize`` commands feed piece by piece.
    """
    return [entry for entries in _entry_chunks([text]) for entry in entries]


def read_amr_file(path: str) -> list[CorpusEntry]:
    """Read a UTF-8 corpus file into entries; graphs are parsed lazily.
    The file is read and scanned piece by piece, so only the entries are
    held at the end."""
    with open(path, "rb") as stream:
        return [entry for entries in _entry_chunks(_pieces(stream)) for entry in entries]


def _canonical_lines(
    entries: Sequence[CorpusEntry], remove_wiki: bool, start: int = 0
) -> Iterator[Union[str, ParseError, ValueError]]:
    """Each entry's canonical line, its ParseError, or a ValueError naming an
    entry the canonical form cannot write, the first entry at corpus
    position ``start``; each parsed once, no graph kept."""
    for position, entry in enumerate(entries, start):
        graph, line = entry._parse_once()
        if graph is not None:
            try:
                line = serialize_canonical(strip_wiki(graph) if remove_wiki else graph)
            except ValueError as err:
                # not chained: the traceback of err would keep the graph alive
                line = ValueError(f"{_entry_label(entry, position)}: {err}")
        yield line


def _document_blocks(
    entries: Sequence[CorpusEntry], texts: Optional[Iterable[str]] = None, separator: str = ""
) -> Iterator[str]:
    """Corpus text block by block: one ``# ::key value`` line per metadata
    key, then the entry's item of ``texts`` (default: its graph text).
    ``separator`` goes before the first block: a blank line continues a
    document already begun."""
    if texts is None:
        texts = (entry.graph_text for entry in entries)
    for entry, text in zip(entries, texts):
        lines = [f"# ::{key} {value}".rstrip() for key, value in entry.metadata.items()]
        lines.append(text)
        yield separator + "\n".join(lines) + "\n"
        separator = "\n"


def _checked_blocks(
    entries: Sequence[CorpusEntry], canonical: bool, remove_wiki: bool
) -> Iterator[str]:
    """The blocks of ``format_amr_document``; every check runs before this
    returns, so a writer that opens its file afterwards writes none on error."""
    if not canonical:
        return _document_blocks(entries)
    texts = list(_canonical_lines(entries, remove_wiki))
    labels = (_entry_label(entry, position) for position, entry in enumerate(entries))
    if bad := [label for label, text in zip(labels, texts) if isinstance(text, ParseError)]:
        raise ValueError(f"cannot write unparseable entries: {', '.join(bad)}")
    if unwritable := next((text for text in texts if isinstance(text, ValueError)), None):
        raise unwritable
    return _document_blocks(entries, texts)


def format_amr_document(
    entries: Sequence[CorpusEntry],
    canonical: bool = True,
    remove_wiki: bool = True,
) -> str:
    """Render entries back to corpus text, one metadata key per line.

    With ``canonical`` each graph is rewritten in canonical single-line
    form (optionally after wiki removal); entries that do not parse make
    this impossible, so they raise a ValueError naming every offender;
    only when every entry parses does the first graph the canonical form
    cannot write raise one naming its entry.
    With ``canonical=False`` the raw graph text is written back unchanged.
    """
    return "".join(_checked_blocks(entries, canonical, remove_wiki))


def write_amr_file(
    entries: Sequence[CorpusEntry],
    path: str,
    canonical: bool = True,
    remove_wiki: bool = True,
) -> None:
    """Write entries to a corpus file block by block; see
    ``format_amr_document``.  On error no file is made."""
    blocks = _checked_blocks(entries, canonical, remove_wiki)
    with open(path, "w", encoding="utf-8") as handle:
        handle.writelines(blocks)


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


def _validate_one(lexicon: FrameLexicon, policy: str, entry: CorpusEntry) -> ValidationReport:
    graph, error = entry._parse_once()
    if graph is None:
        return ValidationReport((Violation(Rule.STRUCTURAL, "", str(error)),), entry.id or "")
    return validate(graph, lexicon, policy, entry.id or "")


def filter_corpus(
    entries: Sequence[CorpusEntry],
    lexicon: FrameLexicon,
    unknown_frame_policy: str = "ignore",
    jobs: int = 1,
) -> FilterOutcome:
    """Validate every entry and separate the clean ones from the rest.

    Entries whose text does not parse are discarded with a single
    Structural violation carrying the parser's message.  Validation runs
    in up to ``jobs`` processes (see ``parallel_map``), dealt out longest
    graph text first; results are returned in corpus order, so the
    outcome is identical for any worker count.
    """
    order = sorted(range(len(entries)), key=lambda k: len(entries[k].graph_text), reverse=True)
    validate_one = partial(_validate_one, lexicon, unknown_frame_policy)
    reports = parallel_map(validate_one, [entries[k] for k in order], jobs)
    return FilterOutcome(tuple((entries[k], report) for k, report in sorted(zip(order, reports))))


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


def top_node_stats(
    entries: Sequence[CorpusEntry],
    k: Optional[int] = None,
) -> NodeFrequencyTable:
    """Tally the root concept of every parseable entry.

    Unparseable entries are skipped and counted in ``skipped``.  With
    ``k`` the table keeps only the k most frequent labels; the totals
    still cover the whole corpus.
    """
    graphs = (entry._parse_once()[0] for entry in entries)
    counts = Counter(graph.top_concept().label for graph in graphs if graph is not None)
    rows = sorted(counts.items(), key=lambda pair: (-pair[1], pair[0]))
    if k is not None:
        rows = rows[:k]
    counted = sum(counts.values())
    return NodeFrequencyTable(tuple(rows), counted, len(entries) - counted)
