"""Corpus records: reading, writing, filtering, splitting, statistics."""

from __future__ import annotations

import contextlib
import functools
import gc
import io
import os
import random
import re
import signal
import tempfile
import time
import tracemalloc
import weakref
from typing import Iterable, Iterator
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import amrkit.cli
import amrkit.corpus
from amrkit import (
    AmrGraph,
    CorpusEntry,
    CorpusFormatError,
    ParseError,
    Rule,
    default_frame_lexicon,
    entries_from_text,
    filter_corpus,
    format_amr_document,
    read_amr_file,
    sample_corpus,
    serialize_canonical,
    split_corpus,
    top_node_stats,
    write_amr_file,
)
from amrkit.cli import main
from genutil import (
    AND_ARITY_BAD,
    ILLEGAL_ARG_BAD,
    STRUCTURAL_BAD,
    VALID_TEMPLATES,
    WANT_GO_CANONICAL,
    WANT_GO_PRETTY,
    corpus_text,
    random_graph,
)
from oracles import corpus_read

FIGURE_RECORD = (
    "# ::id fig1 ::snt The Hungarian boy wants to go\n"
    "# ::note translated example\n" + WANT_GO_PRETTY + "\n"
)


def ids(entries) -> list[str]:
    return [e.id for e in entries]


def make_corpus(n: int) -> list[CorpusEntry]:
    records = [(f"e{i}", VALID_TEMPLATES[i % len(VALID_TEMPLATES)]) for i in range(n)]
    return entries_from_text(corpus_text(records))


class TestReading:
    def test_single_record(self):
        [entry] = entries_from_text(FIGURE_RECORD)
        assert entry.id == "fig1"
        assert entry.snt == "The Hungarian boy wants to go"
        assert entry.extra_meta == [("note", "translated example")]
        assert entry.graph_text == WANT_GO_PRETTY
        assert len(entry.graph.variables()) == 5

    def test_multiple_keys_share_a_line(self):
        text = "# ::id a ::snt two words here ::x 1\n( a / answer )\n"
        [entry] = entries_from_text(text)
        assert entry.metadata == {"id": "a", "snt": "two words here", "x": "1"}

    def test_plain_comment_ignored(self):
        text = "# generated by a model\n# ::id a\n( a / answer )\n"
        [entry] = entries_from_text(text)
        assert entry.metadata == {"id": "a"}

    def test_several_records(self):
        text = corpus_text([("a", "( x / boy )"), ("b", "( y / girl )")])
        entries = entries_from_text(text)
        assert ids(entries) == ["a", "b"]

    def test_record_without_metadata(self):
        entries = entries_from_text("( x / boy )\n\n( y / girl )\n")
        assert len(entries) == 2
        assert entries[0].id is None

    def test_line_numbers(self):
        text = "# ::id a\n( x / boy )\n\n\n# ::id b\n( y / girl\n  :mod ( z / small ) )\n"
        entries = entries_from_text(text)
        assert (entries[0].source_line, entries[0].graph_line) == (1, 2)
        assert (entries[1].source_line, entries[1].graph_line) == (5, 6)

    def test_empty_text(self):
        assert entries_from_text("") == []
        assert entries_from_text("\n\n\n") == []

    def test_comment_only_block_skipped(self):
        text = "# just a banner comment\n\n# ::id a\n( x / boy )\n"
        entries = entries_from_text(text)
        assert ids(entries) == ["a"]

    def test_crlf_line_ends(self):
        text = "# ::id a ::snt hi\r\n( x / boy\r\n  :mod ( y / small ) )\r\n\r\n( z / girl )\r\n"
        first, second = entries_from_text(text)
        assert first.metadata == {"id": "a", "snt": "hi"}
        assert first.graph_text == "( x / boy\n  :mod ( y / small ) )"
        assert (first.source_line, first.graph_line) == (1, 2)
        assert (second.source_line, second.graph_line) == (5, 5)

    def test_leading_byte_order_mark_dropped(self):
        [entry] = entries_from_text("\ufeff# ::id a1\n( x / boy )\n")
        assert entry.metadata == {"id": "a1"}
        assert entry.graph is not None
        assert (entry.source_line, entry.graph_line) == (1, 2)

    @pytest.mark.parametrize(
        "separator", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    )
    def test_only_newlines_end_lines(self, separator):
        [entry] = entries_from_text(f"# ::snt first{separator}second\n( b / boy )\n")
        assert entry.snt == f"first{separator}second"
        assert entry.graph_text == "( b / boy )"
        assert entry.graph is not None

    @pytest.mark.parametrize("space", ["\x0c", "\x0b", "\u2028", "\xa0"])
    def test_blank_looking_line_stays_in_its_record(self, space):
        # only spaces and tabs make a line blank
        text = f"# ::id a\n( x / boy\n{space}\n :mod ( y / small ) )\n\n# ::id b\n( z / girl )\n"
        first, second = entries_from_text(text)
        assert ids([first, second]) == ["a", "b"]
        assert first.graph_text == f"( x / boy\n{space}\n :mod ( y / small ) )"
        assert format_amr_document([first]) == "# ::id a\n( x / boy :mod ( y / small ) )\n"

    def test_form_feed_line_opens_the_graph(self):
        # nothing is left of it after lstrip(), yet it is no comment
        [entry] = entries_from_text("# ::id a\n\x0c\n( x / boy )\n")
        assert entry.graph_text == "\x0c\n( x / boy )"
        assert entry.graph is not None
        assert (entry.source_line, entry.graph_line) == (1, 2)

    def test_form_feed_page_break_is_skipped(self, tmp_path, capsys):
        text = "# ::id a\n( x / boy )\n\n\x0c\n\n# ::id b\n( y / girl )\n"
        first, second = entries_from_text(text)
        assert ids([first, second]) == ["a", "b"]
        assert (second.source_line, second.graph_line) == (6, 7)
        path = tmp_path / "paged.amr"
        path.write_text(text, encoding="utf-8")
        assert main(["canonicalize", str(path)]) == 0
        assert capsys.readouterr().out == "# ::id a\n( x / boy )\n\n# ::id b\n( y / girl )\n"

    @pytest.mark.parametrize("lines", ["\x0c", "\x0b\n\u2028", "\x0c\n\xa0\n\x0c", "\u3000"])
    def test_record_of_other_whitespace_is_blank(self, lines):
        [entry] = entries_from_text(f"{lines}\n\n( x / boy )\n\n{lines}\n")
        assert entry.graph_text == "( x / boy )"
        # behind a '#' line such whitespace is still the record's graph text
        [entry] = entries_from_text(f"# ::id a\n{lines}\n")
        assert entry.graph_text == lines
        assert entry.parse_error is not None

    def test_spaces_and_tabs_make_a_blank_line(self):
        first, second = entries_from_text("( x / boy )\n \t \n( y / girl )\n")
        assert (first.graph_text, second.graph_text) == ("( x / boy )", "( y / girl )")

    def test_string_keeps_a_line_separator(self):
        graph = '( p / person :name ( n / name :op1 "Kis\u2028Péter" ) )'
        entries = entries_from_text(f"# ::id k\n{graph}\n")
        assert format_amr_document(entries) == f"# ::id k\n{graph}\n"

    def test_several_fields_on_a_line_after_graph_text(self):
        text = "( x / boy )\n# ::id a ::snt the boy ::tok the boy\n"
        [entry] = entries_from_text(text)
        assert entry.metadata == {"id": "a", "snt": "the boy", "tok": "the boy"}
        assert entry.graph_text == "( x / boy )"
        assert (entry.source_line, entry.graph_line) == (1, 1)

    def test_source_line_skips_plain_comments(self):
        text = "# banner\n#\n# ::id a\n( x / boy )\n\n# note\n( y / girl )\n"
        first, second = entries_from_text(text)
        assert (first.source_line, first.graph_line) == (3, 4)
        assert (second.source_line, second.graph_line) == (7, 7)

    def test_empty_id_is_no_id(self):
        entries = entries_from_text("# ::id\n( x / boy )\n\n# ::id ::snt hi\n( y / girl )\n")
        assert ids(entries) == [None, None]
        assert entries[0].metadata == {"id": ""}
        # the empty value is still metadata, so it is written back
        assert format_amr_document(entries[:1]) == "# ::id\n( x / boy )\n"

    def test_read_file(self, tmp_path):
        path = tmp_path / "corpus.amr"
        path.write_text(FIGURE_RECORD, encoding="utf-8")
        entries = read_amr_file(str(path))
        assert ids(entries) == ["fig1"]


class TestLazyParsing:
    def test_graph_cached(self):
        [entry] = entries_from_text(FIGURE_RECORD)
        assert entry.graph is entry.graph
        assert entry.parse_error is None

    def test_failure_is_data(self):
        text = corpus_text([("good", "( x / boy )"), ("bad", STRUCTURAL_BAD)])
        good, bad = entries_from_text(text)
        assert good.graph is not None
        assert bad.graph is None
        assert isinstance(bad.parse_error, ParseError)
        assert bad.parse_error is bad.parse_error

    def test_failure_keeps_no_reference_cycle(self):
        # a cached error that kept its traceback would hold the frames that
        # parsed it, and through them the caller's entries and graphs, until
        # the cyclic garbage collector ran
        def first_error(entries):
            return entries[0].parse_error

        text = corpus_text([("bad", STRUCTURAL_BAD), ("good", "( x / boy )")])
        entries = entries_from_text(text)
        probe = weakref.ref(entries[1])
        gc.disable()
        try:
            error = first_error(entries)
            del entries
            assert probe() is None
        finally:
            gc.enable()
        assert error.__traceback__ is None
        assert error.diagnostics


class TestNoGraphKept:
    @staticmethod
    def live_graphs() -> list[AmrGraph]:
        gc.collect()
        return [obj for obj in gc.get_objects() if isinstance(obj, AmrGraph)]

    def test_corpus_passes_drop_every_graph(self, tmp_path, capsys):
        text = corpus_text(
            [("w", "( a / boy :wiki \"Q1\" )"), ("v", VALID_TEMPLATES[0]), ("x", "( x / boy )")]
        )
        # graphs that other tests keep alive are not this test's; holding
        # them in `before` keeps their ids from being reused
        before = self.live_graphs()
        held = {id(graph) for graph in before}
        entries = entries_from_text(text)
        format_amr_document(entries)
        top_node_stats(entries)
        filter_corpus(entries, default_frame_lexicon())
        path = tmp_path / "in.amr"
        path.write_text(text, encoding="utf-8")
        assert main(["canonicalize", str(path)]) == 0
        assert capsys.readouterr().out == format_amr_document(entries)
        assert [graph for graph in self.live_graphs() if id(graph) not in held] == []
        assert len(entries) == 3

    def test_cached_graph_is_reused(self, monkeypatch):
        [entry] = entries_from_text(FIGURE_RECORD)
        assert entry.graph is not None
        monkeypatch.setattr("amrkit.corpus.parse", None)
        assert top_node_stats([entry]).rows == (("want-01", 1),)
        assert format_amr_document([entry]).endswith(WANT_GO_CANONICAL + "\n")


class TestFormatErrors:
    def test_metadata_without_graph(self):
        with pytest.raises(CorpusFormatError, match="record a1 has no PENMAN block"):
            entries_from_text("# ::id a1\n\n( x / boy )\n")

    def test_metadata_without_graph_unnamed(self):
        with pytest.raises(CorpusFormatError, match="record line 3 has no PENMAN block"):
            entries_from_text("( x / boy )\n\n# ::snt only a sentence\n")

    def test_duplicate_ids(self):
        text = corpus_text([("a1", "( x / boy )"), ("a1", "( y / girl )")])
        with pytest.raises(
            CorpusFormatError, match=r"duplicate ::id 'a1' at lines 1 and 4"
        ):
            entries_from_text(text)

    def test_duplicate_after_a_banner_reports_record_lines(self):
        text = "# banner\n# ::id a\n( x / boy )\n\n# ::id a\n( y / girl )"
        with pytest.raises(CorpusFormatError, match=r"^duplicate ::id 'a' at lines 2 and 5$"):
            entries_from_text(text)

    def test_missing_penman_block_reported_before_duplicates(self):
        # ids are compared only after every record is read
        text = corpus_text([("a", "( x / boy )"), ("a", "( y / girl )")]) + "\n# ::id c\n"
        with pytest.raises(CorpusFormatError, match=r"^record c has no PENMAN block$"):
            entries_from_text(text)

    def test_missing_ids_do_not_clash(self):
        entries = entries_from_text("( x / boy )\n\n( y / girl )\n")
        assert len(entries) == 2


def pretty(graph_text: str) -> str:
    """A single-line graph laid out one role to an indented line; quoted
    strings stay whole."""
    pieces = graph_text.split('"')
    pieces[::2] = [piece.replace(" :", "\n    :") for piece in pieces[::2]]
    return '"'.join(pieces)


def read_outcome(reader, text: str):
    """What a reader makes of ``text``: each entry's fields, or the
    message of the CorpusFormatError it raises."""
    try:
        entries = reader(text)
    except CorpusFormatError as err:
        return str(err)
    return [(e.metadata, e.graph_text, e.source_line, e.graph_line) for e in entries]


_rng = random.Random(12)
ORACLE_GRAPHS = [STRUCTURAL_BAD, "( a / x :wiki ( w / y :ARG0 a ) )"] + [
    form(serialize_canonical(random_graph(_rng, max_vars=6)))
    for form in (str, pretty)
    for _ in range(6)
]
# lines that are not blank: only spaces and tabs make a line blank
OTHER_WHITESPACE = ["\x0c", "\x0b", "\u2028", "\xa0", " \x0c\t", "\x85\u3000"]
HASH_LINES = [
    "# ::snt a boy ::tok a boy",
    "#::x 1",
    "# ::snt",
    "#::a::b c",
    "# :: not a key",
    "# a plain comment",
    "#",
]
IDS = st.one_of(st.sampled_from(["a", "", "a b"]), st.integers(0, 99).map("r{}".format))
INDENTS = st.sampled_from(["", " ", "\t", " \t "])


@st.composite
def record_lines(draw) -> list[str]:
    """The lines of one record: graphs, '#' lines and lines of other
    whitespace, in any order."""
    lines: list[str] = []
    kinds = ["graph", "id", "hash", "space"]
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=5)):
        if kind == "graph":
            lines.extend(draw(st.sampled_from(ORACLE_GRAPHS)).split("\n"))
        elif kind == "id":
            lines.append(f"{draw(INDENTS)}# ::id {draw(IDS)}")
        elif kind == "hash":
            lines.append(draw(INDENTS) + draw(st.sampled_from(HASH_LINES)))
        else:
            lines.append(draw(st.sampled_from(OTHER_WHITESPACE)))
    return lines


@st.composite
def corpus_texts(draw) -> str:
    """Records between runs of blank lines, each line ended by any of the
    three line breaks, behind an optional byte-order mark."""
    lines: list[str] = []
    for position, record in enumerate(draw(st.lists(record_lines(), max_size=5))):
        if position or draw(st.booleans()):
            lines.extend(draw(st.lists(st.sampled_from(["", " ", "\t \t"]), min_size=1, max_size=2)))
        lines.extend(record)
    ends = st.sampled_from(["\n", "\r\n", "\r"])
    text = "".join(line + draw(ends) for line in lines)
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return draw(st.sampled_from(["", "\ufeff"])) + text


class TestReaderOracle:
    @pytest.mark.parametrize(
        "text",
        [
            "",
            "\ufeff",
            "\r",
            "#",
            "# ::id a\n\x0c\n",
            "\x0c\n\n( x / y )",
            "  # ::id a\n( x / y )\n\t# end",
            "( x / y )\n  # ::id a ::snt b",
            "# ::id a\r\n\r\n# ::id a\r\n( x / y )",
            "# ::id a\r( x / y )\r\r# ::id a\r( z / w )\r",
            " \t\n\t \n",
            "( a / b\n\u2028\n)",
            "#::id\n( x / y )\n\n#::id\n( z / w )",
            "# banner\n# ::id a\n( x / y\n# mid\n  :ARG0 ( z / w ) )\n# ::snt end\n",
            # a blank line of tabs between a graph run and the next record;
            # a tab-indented '#' line right after a graph line; a last '#'
            # line with no line break
            "# ::id a\n( x / y )\n\t\t\n# ::id b\n( z / w )",
            "( x / y\n\t# ::id a\n  :ARG0 ( z / w ) )",
            "# ::id a\n( x / y )\n# ::snt end",
        ],
    )
    def test_hand_cases(self, text):
        assert read_outcome(entries_from_text, text) == read_outcome(
            corpus_read.entries_from_text, text
        )

    @settings(max_examples=400, deadline=None)
    @given(corpus_texts())
    def test_reader_equals_oracle(self, text):
        assert read_outcome(entries_from_text, text) == read_outcome(
            corpus_read.entries_from_text, text
        )


def read_in_pieces(text: str) -> list[CorpusEntry]:
    """``text`` read as the commands read a file: as UTF-8 bytes cut into
    pieces of about ``_PIECE_BYTES``, scanned one piece at a time."""
    pieces = amrkit.corpus._pieces(io.BytesIO(text.encode("utf-8")))
    return [entry for entries in amrkit.corpus._entry_chunks(pieces) for entry in entries]


class TestChunkedReader:
    """The reader fed in pieces equals the reader fed the whole text, and
    the line-at-a-time oracle, wherever the pieces are cut."""

    @staticmethod
    def assert_same(text: str, size: int) -> None:
        with mock.patch.object(amrkit.corpus, "_PIECE_BYTES", size):
            chunked = read_outcome(read_in_pieces, text)
        assert chunked == read_outcome(entries_from_text, text)
        assert chunked == read_outcome(corpus_read.entries_from_text, text)

    @pytest.mark.parametrize(
        "text",
        [
            # a read may end between '\r' and '\n'
            "# ::id a\r\n( x / y )\r\n\r\n# ::id b\r\n( z / w )\r\n\r\n\r\n( v / u\r\n  :mod ( t / s ) )\r\n",
            "\ufeff# ::id a\n( x / y )\n\n# ::id b\n( z / w )\n",
            # a blank line of spaces longer than a read, and one of tabs
            "( a / b )\n" + " " * 150 + "\n( c / d )\n\t\t\t\n\n( e / f )\n",
            "# ::id a\n( x / y )\n\n# ::id b\n( z / w )\n# ::snt end",
            "# ::id a\r( x / y )\r\r# ::id b\r( z / w )\r",
            "# ::snt Kis Péter látja\n( l / lát-01 :ARG0 ( p / person ) )\n\n# ::id ő\n( x / y )\n",
            "# ::id a\n( x / y )\n\n# ::id b\n( z / w )\n\n# ::id a\n( v / u )\n\n# ::id c\n",
            "# ::id a\n( x / y )\n\n" * 5 + "\x0c\n\n# ::id b\n\x0c\n( z / w )\n",
            # runs of empty lines count toward later line numbers
            "# ::id a\n( x / y )\n\n\n\n( z / w )\n\n\n# ::id a\n( v / u )\n",
        ],
        ids=["crlf", "byte-order-mark", "long-blank-lines", "hash-line-ends-input", "lone-cr",
             "multibyte", "duplicate-then-no-graph", "form-feeds", "empty-line-runs"],
    )
    def test_hand_cases(self, text):
        for size in range(1, len(text.encode("utf-8")) + 2):
            self.assert_same(text, size)

    @settings(max_examples=150, deadline=None)
    @given(corpus_texts(), st.integers(1, 64))
    def test_pieces_equal_whole_text(self, text, size):
        self.assert_same(text, size)

    def test_pieces_are_cut_before_blank_lines(self):
        text = corpus_text([(f"r{k}", VALID_TEMPLATES[k % 6]) for k in range(20)])
        with mock.patch.object(amrkit.corpus, "_PIECE_BYTES", 100):
            pieces = list(amrkit.corpus._pieces(io.BytesIO(text.encode("utf-8"))))
        assert "".join(pieces) == text
        assert len(pieces) > 5
        assert all(piece.endswith("\n") for piece in pieces)
        assert all(piece.startswith("\n#") for piece in pieces[1:])


def cli_outcomes(pred: str, gold: str) -> list:
    """Every subcommand run through ``main`` on corpus files holding
    ``pred`` and ``gold``: each exit code, stdout, stderr and output file."""
    outcomes = []
    with tempfile.TemporaryDirectory() as tmp:
        inputs = {"pred": pred, "gold": gold}
        for name, text in inputs.items():
            with open(os.path.join(tmp, name), "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        path = functools.partial(os.path.join, tmp)
        commands = [
            ["canonicalize", path("pred"), "-o", path("out")],
            ["canonicalize", "-", "--keep-wiki"],
            ["stats", path("pred"), "--format", "json"],
            ["split", path("pred"), "--test-size", "1", "--train-out", path("a"),
             "--test-out", path("b")],
            ["sample", path("pred"), "-n", "1", "--seed", "3", "-o", path("out")],
        ]
        for jobs in ("1", "2"):
            commands.append(["validate", path("pred"), "--jobs", jobs, "--report", path("r"),
                             "--kept-out", path("k")])
            commands.append(["score", path("pred"), path("gold"), "--jobs", jobs])
        for argv in commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                stdin = io.TextIOWrapper(io.BytesIO(pred.encode("utf-8")), encoding="utf-8")
                with mock.patch("sys.stdin", stdin):
                    code = main(argv)
            files = {}
            for name in sorted(set(os.listdir(tmp)) - set(inputs)):
                with open(path(name), "rb") as handle:
                    files[name] = handle.read()
                os.remove(path(name))
            streams = [stream.getvalue().replace(tmp, "TMP") for stream in (out, err)]
            outcomes.append((argv[0], code, *streams, files))
    return outcomes


def oracle_chunks(pieces: Iterable[str]) -> Iterator[list[CorpusEntry]]:
    """``_entry_chunks`` by the oracle: the pieces joined and read whole,
    as one list."""
    entries = corpus_read.entries_from_text("".join(pieces))
    if entries:
        yield entries


class TestCliMatchesOracleReader:
    @settings(max_examples=100, deadline=None)
    @given(corpus_texts(), corpus_texts(), st.booleans())
    def test_every_subcommand_equals_oracle(self, pred, other, same):
        # the commands read files and stdin alike through _entry_chunks,
        # which the oracle takes over
        gold = pred if same else other
        expected = cli_outcomes(pred, gold)
        with contextlib.ExitStack() as patches:
            for module in (amrkit.corpus, amrkit.cli):
                patches.enter_context(mock.patch.object(module, "_entry_chunks", oracle_chunks))
            assert cli_outcomes(pred, gold) == expected


class TestCliIgnoresPieceSize:
    @settings(max_examples=50, deadline=None)
    @given(corpus_texts(), corpus_texts(), st.integers(1, 64))
    def test_every_subcommand_equals_one_piece(self, pred, gold, size):
        # one piece holds the whole file, as the oracle property reads it
        with mock.patch.object(amrkit.corpus, "_PIECE_BYTES", 1 << 30):
            expected = cli_outcomes(pred, gold)
        with mock.patch.object(amrkit.corpus, "_PIECE_BYTES", size):
            assert cli_outcomes(pred, gold) == expected


@contextlib.contextmanager
def deadline(seconds: float):
    """Fail the block once it has run ``seconds``: a regex search checks
    for signals as it steps, so a search that backtracks for hours is
    stopped by the alarm instead of hanging the run."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestReaderIsLinear:
    @pytest.mark.parametrize(
        "make, records",
        [
            # an unanchored record pattern retries this line from each space
            (lambda: "( a / b )\n" + " " * 1_000_000 + "\n( c / d )\n", 2),
            (lambda: "( a / b\n" + "\t" * 1_000_000 + "x )\n", 1),
            (lambda: "( a / b )\n" + "# a comment\n" * 200_000, 1),
            (lambda: "# ::snt " + "w" * 1_000_000 + "\n( a / b )\n", 1),
            # a graph run retries this line's spaces once, and no more
            (lambda: "( a / b )\n" + " " * 1_000_000 + "# c\n( c / d )\n", 1),
        ],
        ids=["blank-line-of-spaces", "line-of-tabs", "hash-lines", "long-snt", "spaces-then-hash"],
    )
    def test_reads_in_linear_time(self, make, records):
        text = make()
        start = time.perf_counter()
        with deadline(2):
            entries = entries_from_text(text)
        assert time.perf_counter() - start < 2
        assert len(entries) == records


def conjunction(rng: random.Random, ops: int) -> str:
    """One valid graph: an ``and`` over ``ops`` valid templates whose
    variables are renamed apart."""
    parts = []
    for op in range(ops):
        template = rng.choice(VALID_TEMPLATES)
        renamed = re.sub(r"(?<![\w-])([a-z])(?![\w-])", rf"\g<1>{op}", template)
        parts.append(f":op{op + 1} {renamed}")
    return f"( and / and {' '.join(parts)} )"


class TestMemory:
    # large pretty-printed graphs, so a reader that makes a string per
    # line spends several times the text on them
    @pytest.fixture(scope="class")
    def text(self) -> str:
        rng = random.Random(3)
        return corpus_text([(f"p{i}", pretty(conjunction(rng, 8))) for i in range(400)])

    def test_reader_makes_no_string_per_line(self, text):
        tracemalloc.start()
        try:
            entries = entries_from_text(text)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(entries) == 400
        assert peak - held < 0.5 * len(text)

    def test_validate_streams_the_kept_document(self, text, tmp_path):
        path = tmp_path / "in.amr"
        path.write_text(text, encoding="utf-8")
        kept = tmp_path / "kept.amr"
        argv = ["validate", str(path), "--report", str(tmp_path / "r"), "--kept-out", str(kept)]
        main(argv)  # loads the lexicon and builds the parser, both cached
        tracemalloc.start()
        try:
            assert main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert kept.read_text(encoding="utf-8") == text
        assert peak < 3.5 * os.path.getsize(path)

    @pytest.mark.parametrize("command", ["validate", "canonicalize"])
    def test_commands_hold_one_chunk(self, text, tmp_path, command):
        # with pieces a fifth of the fixture, a corpus eight times as long
        # takes less than half as much memory again as the fixture alone
        paths = []
        for copies in (1, 8):
            renamed = [text.replace("# ::id p", f"# ::id c{copy}p") for copy in range(copies)]
            paths.append(tmp_path / f"in{copies}.amr")
            paths[-1].write_text("\n".join(renamed), encoding="utf-8")
        peaks = []
        with mock.patch.object(amrkit.corpus, "_PIECE_BYTES", 1 << 16):
            for first, path in zip((True, False), paths):
                if command == "validate":
                    argv = ["validate", str(path), "--report", str(tmp_path / "r"),
                            "--kept-out", str(tmp_path / "out")]
                else:
                    argv = ["canonicalize", str(path), "-o", str(tmp_path / "out")]
                if first:
                    main(argv)  # loads the lexicon and builds the parser, both cached
                tracemalloc.start()
                try:
                    assert main(argv) == 0
                    peaks.append(tracemalloc.get_traced_memory()[1])
                finally:
                    tracemalloc.stop()
        assert os.path.getsize(paths[1]) > 7 * os.path.getsize(paths[0])
        assert peaks[1] < 1.5 * peaks[0]

    # raw, the writer holds one block at a time; canonical, it also holds
    # every canonical line, about as much as it writes
    @pytest.mark.parametrize("canonical, bound", [(False, 0.5), (True, 2)])
    def test_writer_streams_the_document(self, text, tmp_path, canonical, bound):
        entries = entries_from_text(text)
        path = tmp_path / "out.amr"
        tracemalloc.start()
        try:
            write_amr_file(entries, str(path), canonical=canonical)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(read_amr_file(str(path))) == len(entries)
        assert peak < bound * os.path.getsize(path)


class TestWriting:
    def test_canonical_block(self):
        [entry] = entries_from_text(FIGURE_RECORD)
        document = format_amr_document([entry])
        assert document == (
            "# ::id fig1\n"
            "# ::snt The Hungarian boy wants to go\n"
            "# ::note translated example\n" + WANT_GO_CANONICAL + "\n"
        )

    def test_keep_wiki(self):
        [entry] = entries_from_text(FIGURE_RECORD)
        document = format_amr_document([entry], remove_wiki=False)
        assert ':wiki "Hungary"' in document

    def test_raw_round_trip_is_identity(self):
        text = (
            "# ::id a\n( x / boy\n   :mod ( y / small ) )\n"
            "\n"
            "# ::id b\n" + STRUCTURAL_BAD + "\n"
        )
        entries = entries_from_text(text)
        document = format_amr_document(entries, canonical=False)
        again = entries_from_text(document)
        assert [e.graph_text for e in again] == [e.graph_text for e in entries]
        assert [e.metadata for e in again] == [e.metadata for e in entries]
        assert format_amr_document(again, canonical=False) == document

    def test_canonical_is_idempotent(self):
        [entry] = entries_from_text(FIGURE_RECORD)
        once = format_amr_document([entry])
        twice = format_amr_document(entries_from_text(once))
        assert once == twice

    def test_unparseable_entry_rejected_canonically(self):
        text = corpus_text(
            [("ok", "( x / boy )"), ("bad1", STRUCTURAL_BAD), ("bad2", "( y /")]
        )
        entries = entries_from_text(text)
        with pytest.raises(ValueError, match="cannot write unparseable entries: bad1, bad2"):
            format_amr_document(entries)

    def test_empty_document(self):
        assert format_amr_document([]) == ""

    def test_graph_without_canonical_form_names_its_entry(self):
        # without its :wiki edge, w is connected only against edge direction
        text = corpus_text([("ok", "( x / boy )")]) + "\n( a / x :wiki ( w / y :ARG0 a ) )\n"
        entries = entries_from_text(text)
        with pytest.raises(ValueError, match=r"^#2: no expansion site .*: w$"):
            format_amr_document(entries)
        assert format_amr_document(entries, remove_wiki=False).endswith(
            "( a / x :wiki ( w / y :ARG0 a ) )\n"
        )

    def test_unparseable_entries_named_before_an_unwritable_one(self):
        text = corpus_text(
            [("a1", "( a / x :wiki ( w / y :ARG0 a ) )"), ("a2", "( b / boy"), ("a3", "( c /")]
        )
        with pytest.raises(ValueError) as info:
            format_amr_document(entries_from_text(text))
        assert str(info.value) == "cannot write unparseable entries: a2, a3"

    def test_first_unwritable_entry_raised_when_all_parse(self):
        unwritable = "( a / x :wiki ( w / y :ARG0 a ) )"
        text = corpus_text([("a1", "( x / boy )"), ("a2", unwritable), ("a3", unwritable)])
        with pytest.raises(ValueError, match=r"^a2: no expansion site .*: w$"):
            format_amr_document(entries_from_text(text))

    def test_write_and_read_file(self, tmp_path):
        entries = entries_from_text(FIGURE_RECORD)
        path = tmp_path / "out.amr"
        write_amr_file(entries, str(path))
        again = read_amr_file(str(path))
        assert ids(again) == ["fig1"]
        assert again[0].graph_text == WANT_GO_CANONICAL


class TestFilter:
    def test_partition(self):
        records = [
            ("v0", VALID_TEMPLATES[0]),
            ("bad-and", AND_ARITY_BAD),
            ("v1", VALID_TEMPLATES[1]),
            ("bad-arg", ILLEGAL_ARG_BAD),
            ("bad-parse", STRUCTURAL_BAD),
            ("v2", VALID_TEMPLATES[2]),
        ]
        outcome = filter_corpus(entries_from_text(corpus_text(records)), default_frame_lexicon())
        assert outcome.kept_n + outcome.discarded_n == len(records)
        assert ids(outcome.kept) == ["v0", "v1", "v2"]
        rules = {
            entry.id: [v.rule for v in report.violations]
            for entry, report in outcome.discarded
        }
        assert rules == {
            "bad-and": [Rule.AND_ARITY],
            "bad-arg": [Rule.ILLEGAL_ARG],
            "bad-parse": [Rule.STRUCTURAL],
        }
        assert outcome.violation_counts() == {
            Rule.AND_ARITY: 1,
            Rule.ILLEGAL_ARG: 1,
            Rule.STRUCTURAL: 1,
        }

    def test_structural_detail_carries_parser_message(self):
        outcome = filter_corpus(
            entries_from_text(corpus_text([("b", STRUCTURAL_BAD)])),
            default_frame_lexicon(),
        )
        [(entry, report)] = outcome.discarded
        assert "UnbalancedParen" in report.violations[0].detail

    def test_report_ids(self):
        entries = entries_from_text(corpus_text([("a", VALID_TEMPLATES[0])]))
        outcome = filter_corpus(entries, default_frame_lexicon())
        assert outcome.results[0][1].graph_id == "a"

    def test_all_valid(self):
        outcome = filter_corpus(make_corpus(12), default_frame_lexicon())
        assert outcome.discarded_n == 0
        assert outcome.kept_n == 12

    def test_unknown_frame_policy_flag(self):
        entries = entries_from_text(corpus_text([("z", "( z / zorch-01 )")]))
        ignore = filter_corpus(entries, default_frame_lexicon(), "ignore")
        flag = filter_corpus(entries, default_frame_lexicon(), "flag")
        assert ignore.discarded_n == 0
        assert flag.discarded_n == 1
        assert flag.results[0][1].violations[0].rule is Rule.UNKNOWN_FRAME

    def test_longest_graph_text_dealt_first(self, monkeypatch):
        dealt = []

        def recording_map(fn, items, jobs):
            dealt.extend(entry.id for entry in items)
            return [fn(item) for item in items]

        monkeypatch.setattr("amrkit.corpus.parallel_map", recording_map)
        records = [
            ("short", "( x / boy )"),
            ("long", "( x / boy :mod ( y / small :mod ( z / very ) ) )"),
            ("tie", "( y / boy )"),
            ("mid", "( x / boy :mod ( y / small ) )"),
        ]
        entries = entries_from_text(corpus_text(records))
        outcome = filter_corpus(entries, default_frame_lexicon(), jobs=2)
        assert dealt == ["long", "mid", "short", "tie"]
        assert [report.graph_id for _, report in outcome.results] == [rid for rid, _ in records]

    def test_parallel_matches_serial(self):
        records = [
            (f"e{i}", [VALID_TEMPLATES[i % 6], AND_ARITY_BAD, STRUCTURAL_BAD][i % 3])
            for i in range(30)
        ]
        entries = entries_from_text(corpus_text(records))
        serial = filter_corpus(entries, default_frame_lexicon(), jobs=1)
        parallel = filter_corpus(entries, default_frame_lexicon(), jobs=2)
        assert [r for _, r in serial.results] == [r for _, r in parallel.results]


class TestSplit:
    def test_sizes(self):
        entries = make_corpus(100)
        train, test = split_corpus(entries, 30, seed=5)
        assert (len(train), len(test)) == (70, 30)

    def test_disjoint_and_covering(self):
        entries = make_corpus(100)
        train, test = split_corpus(entries, 30, seed=5)
        assert sorted(ids(train) + ids(test)) == sorted(ids(entries))
        assert not set(ids(train)) & set(ids(test))

    def test_same_seed_reproduces(self):
        entries = make_corpus(100)
        assert split_corpus(entries, 30, seed=5) == split_corpus(entries, 30, seed=5)

    def test_different_seed_differs(self):
        entries = make_corpus(100)
        _, test_a = split_corpus(entries, 30, seed=5)
        _, test_b = split_corpus(entries, 30, seed=6)
        assert ids(test_a) != ids(test_b)

    def test_test_half_equals_sample(self):
        entries = make_corpus(50)
        _, test = split_corpus(entries, 20, seed=9)
        assert test == sample_corpus(entries, 20, seed=9)

    def test_zero_test_size(self):
        entries = make_corpus(40)
        train, test = split_corpus(entries, 0, seed=3)
        assert test == []
        assert sorted(ids(train)) == sorted(ids(entries))
        assert ids(train) != ids(entries)  # shuffled order, not input order

    def test_bad_sizes(self):
        entries = make_corpus(10)
        with pytest.raises(ValueError, match="between 0 and 10"):
            split_corpus(entries, 11, seed=0)
        with pytest.raises(ValueError, match="between 0 and 10"):
            split_corpus(entries, -1, seed=0)


class TestSample:
    def test_full_sample_is_permutation(self):
        entries = make_corpus(60)
        sample = sample_corpus(entries, 60, seed=2)
        assert sorted(ids(sample)) == sorted(ids(entries))
        assert ids(sample) != ids(entries)

    def test_empty_sample(self):
        assert sample_corpus(make_corpus(10), 0, seed=2) == []

    def test_nested_prefix(self):
        entries = make_corpus(80)
        small = sample_corpus(entries, 20, seed=4)
        large = sample_corpus(entries, 50, seed=4)
        assert large[:20] == small

    def test_deterministic(self):
        entries = make_corpus(30)
        assert sample_corpus(entries, 10, seed=8) == sample_corpus(entries, 10, seed=8)

    def test_bad_size(self):
        with pytest.raises(ValueError, match="between 0 and 5"):
            sample_corpus(make_corpus(5), 6, seed=0)


class TestStats:
    def test_basic_counts(self):
        text = corpus_text(
            [
                ("a", "( x / and :op1 ( p / boy ) :op2 ( q / girl ) )"),
                ("b", "( y / and :op1 ( r / boy ) :op2 ( s / girl ) )"),
                ("c", "( z / say-01 )"),
            ]
        )
        table = top_node_stats(entries_from_text(text), k=15)
        assert table.rows == (("and", 2), ("say-01", 1))
        assert (table.counted, table.skipped) == (3, 0)

    def test_k_truncates_rows_only(self):
        text = corpus_text([("a", "( x / and :op1 ( p / b ) :op2 ( q / c ) )"),
                            ("b", "( y / and :op1 ( r / b ) :op2 ( s / c ) )"),
                            ("c", "( z / say-01 )")])
        table = top_node_stats(entries_from_text(text), k=1)
        assert table.rows == (("and", 2),)
        assert table.counted == 3

    def test_unparseable_skipped(self):
        text = corpus_text([("a", "( x / boy )"), ("b", STRUCTURAL_BAD)])
        table = top_node_stats(entries_from_text(text))
        assert table.rows == (("boy", 1),)
        assert (table.counted, table.skipped) == (1, 1)

    def test_tie_broken_alphabetically(self):
        text = corpus_text([("1", "( x / zebra )"), ("2", "( y / apple )")])
        table = top_node_stats(entries_from_text(text))
        assert table.rows == (("apple", 1), ("zebra", 1))

    def test_conservation(self):
        entries = make_corpus(30)
        table = top_node_stats(entries)
        assert sum(count for _, count in table.rows) == table.counted == 30
