"""Command-line behavior: outputs, exit codes, file handling."""

from __future__ import annotations

import gc
import io
import json
import os
import random
import subprocess
import sys
import time

import pytest

import amrkit
from amrkit.cli import _align_pairs, main
from genutil import (
    AND_ARITY_BAD,
    ILLEGAL_ARG_BAD,
    STRUCTURAL_BAD,
    VALID_TEMPLATES,
    WANT_GO_CANONICAL,
    WANT_GO_PRETTY,
    corpus_text,
    planted_corpus,
    random_graph,
    rename_variables,
)

FIGURE_RECORD = "# ::id fig1\n" + WANT_GO_PRETTY + "\n"
REDUCED_CANONICAL = (
    '( w / want-01 :ARG0 ( b / boy :mod ( c / country :name '
    '( n / name :op1 "Hungary" ) ) ) )'
)


@pytest.fixture()
def corpus_file(tmp_path):
    def write(name: str, text: str) -> str:
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return write


class TestCanonicalize:
    def test_figure_file(self, corpus_file, capsys):
        path = corpus_file("in.amr", FIGURE_RECORD)
        assert main(["canonicalize", path]) == 0
        out = capsys.readouterr().out
        assert out == "# ::id fig1\n" + WANT_GO_CANONICAL + "\n"

    def test_idempotent(self, corpus_file, capsys):
        path = corpus_file("in.amr", FIGURE_RECORD)
        main(["canonicalize", path])
        first = capsys.readouterr().out
        second_path = corpus_file("again.amr", first)
        main(["canonicalize", second_path])
        assert capsys.readouterr().out == first

    def test_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO(FIGURE_RECORD))
        assert main(["canonicalize", "-"]) == 0
        assert WANT_GO_CANONICAL in capsys.readouterr().out

    def test_byte_order_mark_file(self, corpus_file, capsys):
        path = corpus_file("in.amr", "\ufeff# ::id a1\n( x / boy )\n")
        assert main(["canonicalize", path]) == 0
        assert capsys.readouterr().out == "# ::id a1\n( x / boy )\n"

    def test_byte_order_mark_stdin(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO("\ufeff# ::id a1\n( x / boy )\n"))
        assert main(["canonicalize", "-"]) == 0
        assert capsys.readouterr().out == "# ::id a1\n( x / boy )\n"

    def test_line_separator_in_metadata_keeps_line_numbers(self, corpus_file, capsys):
        text = (
            "# ::id r1 ::snt a\u2028b\n( b / boy )\n\n"
            "# ::id r2\n# ::snt x\n( c / cat :ARG0 ) )\n"
        )
        path = corpus_file("in.amr", text)
        assert main(["canonicalize", path]) == 2
        assert capsys.readouterr().err == (
            "r2: 6:17: MalformedToken: role ':ARG0' has no value\n"
            "r2: 6:19: UnbalancedParen: unmatched ')'\n"
        )

    def test_keep_wiki(self, corpus_file, capsys):
        path = corpus_file("in.amr", FIGURE_RECORD)
        assert main(["canonicalize", path, "--keep-wiki"]) == 0
        assert ':wiki "Hungary"' in capsys.readouterr().out

    def test_output_file(self, corpus_file, tmp_path):
        path = corpus_file("in.amr", FIGURE_RECORD)
        out_path = tmp_path / "out.amr"
        assert main(["canonicalize", path, "-o", str(out_path)]) == 0
        assert WANT_GO_CANONICAL in out_path.read_text(encoding="utf-8")

    def test_parse_error_reports_position(self, corpus_file, capsys):
        text = corpus_text([("ok", "( x / boy )"), ("broken", STRUCTURAL_BAD)])
        path = corpus_file("in.amr", text)
        assert main(["canonicalize", path]) == 2
        err = capsys.readouterr().err
        assert "broken: " in err
        assert "UnbalancedParen" in err
        # the record's graph starts at file line 5
        assert "broken: 5:" in err

    def test_missing_file(self, capsys):
        assert main(["canonicalize", "/nonexistent/nowhere.amr"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_duplicate_id_file(self, corpus_file, capsys):
        text = corpus_text([("a", "( x / boy )"), ("a", "( y / girl )")])
        path = corpus_file("in.amr", text)
        assert main(["canonicalize", path]) == 2
        assert "duplicate ::id" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["canonicalize", "validate", "stats"])
    def test_non_utf8_file_exits_2(self, tmp_path, capsys, command):
        path = tmp_path / "in.amr"
        path.write_bytes(b"# ::id a\n( x / boy\xff )\n")
        assert main([command, str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"amrkit: cannot read {path}: 'utf-8' codec can't decode byte 0xff "
            "in position 18: invalid start byte\n"
        )

    def test_graph_without_canonical_form_exits_2(self, corpus_file, tmp_path, capsys):
        # dropping :wiki leaves w connected only by its own :ARG0 edge to
        # the root, which the canonical form cannot write
        graph = "( a / x :wiki ( w / y :ARG0 a ) )"
        path = corpus_file("in.amr", corpus_text([("a1", graph)]))
        out_path = tmp_path / "out.amr"
        assert main(["canonicalize", path, "-o", str(out_path)]) == 2
        assert capsys.readouterr().err == (
            "amrkit: a1: no expansion site for variables only connected against "
            "edge direction: w\n"
        )
        assert not out_path.exists()
        assert main(["canonicalize", path, "--keep-wiki"]) == 0
        assert capsys.readouterr().out == f"# ::id a1\n{graph}\n"

    def test_entry_without_id_is_named_by_position(self, corpus_file, capsys):
        # parse diagnostics and the writer's errors name it the same way
        path = corpus_file("broken.amr", "( a / boy )\n\n( b / boy\n")
        assert main(["canonicalize", path]) == 2
        assert capsys.readouterr().err == "#2: 3:10: UnbalancedParen: missing ')'\n"
        path = corpus_file("unwritable.amr", "( a / x :wiki ( w / y :ARG0 a ) )\n")
        assert main(["canonicalize", path]) == 2
        assert capsys.readouterr().err.startswith("amrkit: #1: no expansion site")


class TestValidate:
    def test_all_valid(self, corpus_file, capsys):
        path = corpus_file("in.amr", corpus_text([("a", VALID_TEMPLATES[0])]))
        assert main(["validate", path]) == 0
        out = capsys.readouterr().out
        assert "# entries 1 kept 1 discarded 0" in out
        assert "# AndArity 0 UnknownFrame 0 IllegalArg 0 Structural 0" in out

    def test_discards_exit_1(self, corpus_file, capsys):
        text = corpus_text(
            [("good", VALID_TEMPLATES[0]), ("bad-and", AND_ARITY_BAD), ("bad-arg", ILLEGAL_ARG_BAD)]
        )
        path = corpus_file("in.amr", text)
        assert main(["validate", path]) == 1
        out = capsys.readouterr().out
        assert "bad-and\tAndArity\ta\t'and' node has 1 :op operands (minimum 2)" in out
        assert "bad-arg\tIllegalArg\tw\tframe 'want-01' does not allow :ARG5" in out
        assert "# entries 3 kept 1 discarded 2" in out

    def test_json_report(self, corpus_file, capsys):
        text = corpus_text([("good", VALID_TEMPLATES[0]), ("bad", AND_ARITY_BAD)])
        path = corpus_file("in.amr", text)
        assert main(["validate", path, "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["entries"] == 2 and payload["kept"] == 1
        assert payload["rule_counts"] == {
            "AndArity": 1,
            "UnknownFrame": 0,
            "IllegalArg": 0,
            "Structural": 0,
        }
        assert payload["violations"][0]["entry"] == "bad"

    def test_kept_out(self, corpus_file, tmp_path, capsys):
        text = corpus_text([("good", VALID_TEMPLATES[0]), ("bad", AND_ARITY_BAD)])
        path = corpus_file("in.amr", text)
        kept_path = tmp_path / "kept.amr"
        main(["validate", path, "--kept-out", str(kept_path)])
        capsys.readouterr()
        kept_text = kept_path.read_text(encoding="utf-8")
        assert "::id good" in kept_text
        assert "::id bad" not in kept_text

    def test_custom_lexicon(self, corpus_file, capsys):
        # a lexicon where want-01 allows nothing makes the figure fail
        lexicon_path = corpus_file("frames.tsv", "want-01\t\ngo-01\tARG0,ARG1\n")
        path = corpus_file("in.amr", FIGURE_RECORD)
        assert main(["validate", path, "--lexicon", lexicon_path]) == 1
        assert "does not allow :ARG0" in capsys.readouterr().out

    def test_bad_lexicon_exits_2(self, corpus_file, capsys):
        lexicon_path = corpus_file("frames.tsv", "no-tab-here\n")
        path = corpus_file("in.amr", FIGURE_RECORD)
        assert main(["validate", path, "--lexicon", lexicon_path]) == 2
        assert "expected" in capsys.readouterr().err

    def test_non_utf8_lexicon_exits_2(self, corpus_file, tmp_path, capsys):
        lexicon_path = tmp_path / "frames.tsv"
        lexicon_path.write_bytes(b"want-01\tARG0\xff\n")
        path = corpus_file("in.amr", FIGURE_RECORD)
        assert main(["validate", path, "--lexicon", str(lexicon_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"amrkit: cannot read {lexicon_path}: not utf-8 text (invalid start byte)\n"
        )

    def test_unknown_frames_flag(self, corpus_file, capsys):
        path = corpus_file("in.amr", corpus_text([("z", "( z / zorch-01 )")]))
        assert main(["validate", path]) == 0
        capsys.readouterr()
        assert main(["validate", path, "--unknown-frames", "flag"]) == 1
        assert "UnknownFrame" in capsys.readouterr().out

    def test_report_file_and_structural(self, corpus_file, tmp_path, capsys):
        path = corpus_file("in.amr", corpus_text([("broken", STRUCTURAL_BAD)]))
        report_path = tmp_path / "report.tsv"
        assert main(["validate", path, "--report", str(report_path)]) == 1
        assert "broken\tStructural" in report_path.read_text(encoding="utf-8")


class TestScore:
    def test_self_score(self, corpus_file, capsys):
        gold = corpus_file("gold.amr", "# ::id fig1\n" + WANT_GO_CANONICAL + "\n")
        assert main(["score", gold, gold]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "# id\tmatched\tpred_total\tgold_total\tprecision\trecall\tf1"
        assert out[1] == "fig1\t12\t12\t12\t1.0000\t1.0000\t1.0000"
        assert out[2] == "ALL\t12\t12\t12\t1.0000\t1.0000\t1.0000"

    def test_two_pair_micro(self, corpus_file, capsys):
        gold = corpus_file(
            "gold.amr",
            corpus_text([("p1", WANT_GO_CANONICAL), ("p2", WANT_GO_CANONICAL)]),
        )
        pred = corpus_file(
            "pred.amr",
            corpus_text([("p1", WANT_GO_CANONICAL), ("p2", REDUCED_CANONICAL)]),
        )
        assert main(["score", pred, gold]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[2] == "p2\t9\t9\t12\t1.0000\t0.7500\t0.8571"
        assert out[3] == "ALL\t21\t21\t24\t1.0000\t0.8750\t0.9333"

    def test_pairing_by_id_ignores_order(self, corpus_file, capsys):
        gold = corpus_file(
            "gold.amr", corpus_text([("a", "( x / boy )"), ("b", "( y / girl )")])
        )
        pred = corpus_file(
            "pred.amr", corpus_text([("b", "( q / girl )"), ("a", "( p / boy )")])
        )
        assert main(["score", pred, gold]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[1].startswith("a\t2\t2\t2\t1.0000")
        assert out[2].startswith("b\t2\t2\t2\t1.0000")

    def test_missing_prediction_id(self, corpus_file, capsys):
        gold = corpus_file(
            "gold.amr", corpus_text([("a", "( x / boy )"), ("b", "( y / girl )")])
        )
        pred = corpus_file("pred.amr", corpus_text([("a", "( p / boy )")]))
        assert main(["score", pred, gold]) == 2
        assert "missing predictions for: b" in capsys.readouterr().err

    def test_extra_prediction_id(self, corpus_file, capsys):
        gold = corpus_file("gold.amr", corpus_text([("a", "( x / boy )")]))
        pred = corpus_file(
            "pred.amr", corpus_text([("a", "( p / boy )"), ("zz", "( q / girl )")])
        )
        assert main(["score", pred, gold]) == 2
        assert "predictions without references: zz" in capsys.readouterr().err

    def test_pairing_many_ids_in_reverse_order(self):
        # pairing must stay linear: rebuilding the reference id set for
        # every prediction took about 30 s of CPU on 20,000 entries
        gold = [amrkit.CorpusEntry({"id": f"s{k}"}, "( x / boy )") for k in range(20000)]
        pred = [amrkit.CorpusEntry({"id": e.id}, "( p / boy )") for e in reversed(gold)]
        start = time.perf_counter()
        pairs, labels = _align_pairs(pred, gold)
        assert time.perf_counter() - start < 5
        assert labels == [e.id for e in gold]
        assert [(p.id, g.id) for p, g in pairs] == [(e.id, e.id) for e in gold]
        assert all(p.graph_text == "( p / boy )" for p, _ in pairs)

    def test_positional_pairing_length_mismatch(self, corpus_file, capsys):
        gold = corpus_file("gold.amr", "( x / boy )\n\n( y / girl )\n")
        pred = corpus_file("pred.amr", "( p / boy )\n")
        assert main(["score", pred, gold]) == 2
        assert "cannot pair by position" in capsys.readouterr().err

    def test_unparseable_gold(self, corpus_file, capsys):
        gold = corpus_file("gold.amr", corpus_text([("a", STRUCTURAL_BAD)]))
        pred = corpus_file("pred.amr", corpus_text([("a", "( p / boy )")]))
        assert main(["score", pred, gold]) == 2
        assert "unparseable reference graphs: a" in capsys.readouterr().err

    def test_unparseable_prediction_scores_zero(self, corpus_file, capsys):
        gold = corpus_file("gold.amr", corpus_text([("a", WANT_GO_CANONICAL)]))
        pred = corpus_file("pred.amr", corpus_text([("a", STRUCTURAL_BAD)]))
        assert main(["score", pred, gold]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[1] == "a\t0\t0\t12\t0.0000\t0.0000\t0.0000"

    def test_min_f1_gate(self, corpus_file, capsys):
        gold = corpus_file("gold.amr", corpus_text([("p", WANT_GO_CANONICAL)]))
        pred = corpus_file("pred.amr", corpus_text([("p", REDUCED_CANONICAL)]))
        assert main(["score", pred, gold, "--min-f1", "0.99"]) == 1
        capsys.readouterr()
        assert main(["score", pred, gold, "--min-f1", "0.5"]) == 0

    @pytest.mark.parametrize("value", ["nan", "-1", "1.5", "inf"])
    def test_min_f1_outside_0_to_1_is_refused(self, corpus_file, capsys, value):
        # NaN compares false against any F1, so it would pass every corpus
        gold = corpus_file("gold.amr", corpus_text([("p", WANT_GO_CANONICAL)]))
        pred = corpus_file("pred.amr", corpus_text([("p", REDUCED_CANONICAL)]))
        assert main(["score", pred, gold, "--min-f1", value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("amrkit: --min-f1 must be between 0 and 1, got ")

    @pytest.mark.parametrize("value", ["0", "1"])
    def test_min_f1_bounds_are_accepted(self, corpus_file, capsys, value):
        gold = corpus_file("gold.amr", corpus_text([("p", WANT_GO_CANONICAL)]))
        assert main(["score", gold, gold, "--min-f1", value]) == 0

    def test_json_report(self, corpus_file, capsys):
        gold = corpus_file("gold.amr", corpus_text([("p", WANT_GO_CANONICAL)]))
        pred = corpus_file("pred.amr", corpus_text([("p", REDUCED_CANONICAL)]))
        assert main(["score", pred, gold, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pairs"][0]["id"] == "p"
        assert payload["pairs"][0]["matched"] == 9
        assert payload["aggregate"]["f1"] == 0.8571

    def test_macro_flag(self, corpus_file, capsys):
        gold = corpus_file(
            "gold.amr",
            corpus_text([("p1", WANT_GO_CANONICAL), ("p2", WANT_GO_CANONICAL)]),
        )
        pred = corpus_file(
            "pred.amr",
            corpus_text([("p1", WANT_GO_CANONICAL), ("p2", REDUCED_CANONICAL)]),
        )
        assert main(["score", pred, gold, "--macro"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[3] == "ALL\t21\t21\t24\t1.0000\t0.8750\t0.9286"

    def test_include_top_switch(self, corpus_file, capsys):
        gold = corpus_file("gold.amr", corpus_text([("p", "( g / girl )")]))
        pred = corpus_file("pred.amr", corpus_text([("p", "( b / boy )")]))
        assert main(["score", pred, gold]) == 0
        assert "ALL\t1\t2\t2\t0.5000" in capsys.readouterr().out
        assert main(["score", pred, gold, "--no-include-top"]) == 0
        assert "ALL\t0\t1\t1\t0.0000" in capsys.readouterr().out

    def test_bad_restarts(self, corpus_file, capsys):
        gold = corpus_file("gold.amr", corpus_text([("p", WANT_GO_CANONICAL)]))
        assert main(["score", gold, gold, "--restarts", "0"]) == 2
        assert "restarts" in capsys.readouterr().err

    def test_output_file(self, corpus_file, tmp_path):
        gold = corpus_file("gold.amr", "# ::id fig1\n" + WANT_GO_CANONICAL + "\n")
        out_path = tmp_path / "scores.tsv"
        assert main(["score", gold, gold, "-o", str(out_path)]) == 0
        assert "ALL\t12\t12\t12" in out_path.read_text(encoding="utf-8")

    def test_wiki_edges_are_scored_as_given(self, corpus_file, capsys):
        # scoring never strips :wiki behind the caller's back; the pretty
        # figure graph carries 13 triples including the wiki attribute
        gold = corpus_file("gold.amr", FIGURE_RECORD)
        assert main(["score", gold, gold]) == 0
        assert "ALL\t13\t13\t13\t1.0000" in capsys.readouterr().out


class TestStats:
    CORPUS = corpus_text(
        [
            ("a", "( x / and :op1 ( p / b ) :op2 ( q / c ) )"),
            ("b", "( y / and :op1 ( r / b ) :op2 ( s / c ) )"),
            ("c", "( z / say-01 )"),
        ]
    )

    def test_table(self, corpus_file, capsys):
        path = corpus_file("in.amr", self.CORPUS)
        assert main(["stats", path]) == 0
        assert capsys.readouterr().out == "and\t2\nsay-01\t1\n# counted 3 skipped 0\n"

    def test_k_limits_rows(self, corpus_file, capsys):
        path = corpus_file("in.amr", self.CORPUS)
        assert main(["stats", path, "-k", "1"]) == 0
        out = capsys.readouterr().out
        assert "say-01" not in out
        assert "# counted 3" in out

    def test_json(self, corpus_file, capsys):
        path = corpus_file("in.amr", self.CORPUS)
        assert main(["stats", path, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["rows"] == [["and", 2], ["say-01", 1]]
        assert payload["skipped"] == 0


class TestSplitAndSample:
    def corpus(self, corpus_file, n=20):
        records = [(f"e{i}", VALID_TEMPLATES[i % len(VALID_TEMPLATES)]) for i in range(n)]
        return corpus_file("in.amr", corpus_text(records))

    def test_split_files_and_summary(self, corpus_file, tmp_path, capsys):
        path = self.corpus(corpus_file)
        train, test = tmp_path / "train.amr", tmp_path / "test.amr"
        code = main(
            ["split", path, "--test-size", "5", "--train-out", str(train), "--test-out", str(test), "--seed", "3"]
        )
        assert code == 0
        assert capsys.readouterr().out == "train\t15\ntest\t5\n"
        train_ids = [l for l in train.read_text().splitlines() if l.startswith("# ::id")]
        test_ids = [l for l in test.read_text().splitlines() if l.startswith("# ::id")]
        assert (len(train_ids), len(test_ids)) == (15, 5)
        assert not set(train_ids) & set(test_ids)

    def test_split_deterministic(self, corpus_file, tmp_path, capsys):
        path = self.corpus(corpus_file)
        outs = []
        for round_no in (1, 2):
            train = tmp_path / f"train{round_no}.amr"
            test = tmp_path / f"test{round_no}.amr"
            main(["split", path, "--test-size", "5", "--train-out", str(train), "--test-out", str(test), "--seed", "3"])
            outs.append((train.read_bytes(), test.read_bytes()))
        capsys.readouterr()
        assert outs[0] == outs[1]

    def test_split_test_half_matches_sample(self, corpus_file, tmp_path, capsys):
        path = self.corpus(corpus_file)
        train, test = tmp_path / "train.amr", tmp_path / "test.amr"
        main(["split", path, "--test-size", "5", "--train-out", str(train), "--test-out", str(test), "--seed", "7"])
        capsys.readouterr()
        sample_out = tmp_path / "sample.amr"
        main(["sample", path, "-n", "5", "-o", str(sample_out), "--seed", "7"])
        capsys.readouterr()
        assert sample_out.read_bytes() == test.read_bytes()

    def test_split_too_large(self, corpus_file, tmp_path, capsys):
        path = self.corpus(corpus_file)
        code = main(
            ["split", path, "--test-size", "21", "--train-out", str(tmp_path / "a"), "--test-out", str(tmp_path / "b")]
        )
        assert code == 2
        assert "between 0 and 20" in capsys.readouterr().err

    def test_sample_prefix_property(self, corpus_file, tmp_path, capsys):
        path = self.corpus(corpus_file)
        small_out = tmp_path / "small.amr"
        large_out = tmp_path / "large.amr"
        main(["sample", path, "-n", "4", "-o", str(small_out), "--seed", "11"])
        main(["sample", path, "-n", "9", "-o", str(large_out), "--seed", "11"])
        capsys.readouterr()
        small_text = small_out.read_text(encoding="utf-8")
        assert large_out.read_text(encoding="utf-8").startswith(small_text.rstrip("\n"))

    def test_sample_too_large(self, corpus_file, capsys):
        path = self.corpus(corpus_file)
        assert main(["sample", path, "-n", "21"]) == 2
        assert "between 0 and 20" in capsys.readouterr().err


class TestUsage:
    def test_no_command(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2

    def test_unknown_command(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    def test_missing_required_flag(self, corpus_file):
        path = corpus_file("in.amr", FIGURE_RECORD)
        with pytest.raises(SystemExit) as info:
            main(["split", path])
        assert info.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["stats", "{path}", "--jobs", "2"],
            ["canonicalize", "{path}", "--format", "json"],
            ["canonicalize", "{path}", "--seed", "3"],
            ["sample", "{path}", "-n", "1", "--format", "json"],
        ],
    )
    def test_option_a_command_does_not_read_is_refused(self, corpus_file, capsys, argv):
        path = corpus_file("in.amr", FIGURE_RECORD)
        with pytest.raises(SystemExit) as info:
            main([arg.format(path=path) for arg in argv])
        assert info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["validate", "score"])
    def test_jobs_below_one_is_refused(self, corpus_file, capsys, command):
        path = corpus_file("in.amr", FIGURE_RECORD)
        inputs = [path, path] if command == "score" else [path]
        assert main([command, *inputs, "--jobs", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "amrkit: --jobs must be at least 1\n"
        assert captured.out == ""


class TestModuleEntryPoint:
    def test_python_dash_m(self, corpus_file):
        path = corpus_file("in.amr", FIGURE_RECORD)
        package_root = os.path.dirname(os.path.dirname(amrkit.__file__))
        env = dict(os.environ, PYTHONPATH=package_root)
        result = subprocess.run(
            [sys.executable, "-m", "amrkit", "canonicalize", path],
            capture_output=True,
            text=True,
            timeout=60,
            env=env,
        )
        assert result.returncode == 0
        assert result.stdout == "# ::id fig1\n" + WANT_GO_CANONICAL + "\n"


# prints which of the modules a worker pool or its pickling loads are loaded
PROCESS_MODULES = (
    "[m for m in ('concurrent.futures', 'multiprocessing', 'pickle') if m in sys.modules]"
)


class TestProcessCost:
    def test_import_leaves_the_process_pool_unloaded(self):
        package_root = os.path.dirname(os.path.dirname(amrkit.__file__))
        result = subprocess.run(
            [sys.executable, "-c", f"import sys, amrkit.cli; print({PROCESS_MODULES})"],
            capture_output=True,
            text=True,
            timeout=60,
            env=dict(os.environ, PYTHONPATH=package_root),
        )
        assert result.stdout == "[]\n"

    def test_parallel_score_loads_no_process_pool(self, corpus_file):
        records = [("a", VALID_TEMPLATES[0]), ("b", VALID_TEMPLATES[1])]
        gold = corpus_file("gold.amr", corpus_text(records))
        # two CPUs whatever the machine has, so the map forks; pickle then
        # carries the worker's results back
        script = (
            "import os, sys\n"
            "os.cpu_count = lambda: 2\n"
            "from amrkit.cli import main\n"
            f"code = main(['score', {gold!r}, {gold!r}, '--jobs', '2', '-o', os.devnull])\n"
            f"print(code, {PROCESS_MODULES})\n"
        )
        package_root = os.path.dirname(os.path.dirname(amrkit.__file__))
        result = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=60,
            env=dict(os.environ, PYTHONPATH=package_root),
        )
        assert (result.stdout, result.stderr) == ("0 ['pickle']\n", "")

    def test_repeated_calls_leave_no_parser_garbage(self, corpus_file, capsys):
        path = corpus_file("in.amr", FIGURE_RECORD)
        assert main(["stats", path]) == 0
        flags = gc.get_debug()
        gc.collect()
        gc.garbage.clear()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            assert main(["stats", path]) == 0
            gc.collect()
            left = [type(obj).__name__ for obj in gc.garbage if type(obj).__module__ == "argparse"]
        finally:
            gc.set_debug(flags)
            gc.garbage.clear()
        assert left == []


class TestHashSeed:
    """Reports must not depend on string hash order: pools that start
    workers by spawn give each worker its own hash seed, so such a report
    would change with ``--jobs``."""

    def test_reports_identical_under_every_hash_seed(self, corpus_file):
        rng = random.Random(9)
        files = {}
        for name, min_vars, max_vars in (("exact", 4, 8), ("hill", 9, 20)):
            gold_records, pred_records = [], []
            for index in range(6):
                gold = random_graph(rng, max_vars, min_vars)
                if index % 2:
                    pred = rename_variables(gold, rng)
                else:
                    pred = random_graph(rng, max_vars, min_vars)
                gold_records.append((f"{name}{index}", amrkit.serialize_canonical(gold)))
                pred_records.append((f"{name}{index}", amrkit.serialize_canonical(pred)))
            files[name] = (
                corpus_file(f"{name}-pred.amr", corpus_text(pred_records)),
                corpus_file(f"{name}-gold.amr", corpus_text(gold_records)),
            )
        defects = [(AND_ARITY_BAD, 2), (ILLEGAL_ARG_BAD, 2), (STRUCTURAL_BAD, 2)]
        document, _ = planted_corpus(3, 40, defects)
        commands = [["score", *files[name], "--restarts", "2"] for name in files]
        commands.append(["validate", corpus_file("silver.amr", document)])
        package_root = os.path.dirname(os.path.dirname(amrkit.__file__))
        outputs = set()
        for hash_seed in range(4):
            env = dict(os.environ, PYTHONPATH=package_root, PYTHONHASHSEED=str(hash_seed))
            runs = [
                subprocess.run(
                    [sys.executable, "-m", "amrkit", *command],
                    capture_output=True,
                    timeout=120,
                    env=env,
                )
                for command in commands
            ]
            outputs.add(tuple((run.returncode, run.stdout) for run in runs))
        assert len(outputs) == 1
        (codes_and_reports,) = outputs
        assert [code for code, _ in codes_and_reports] == [0, 0, 1]


class TestConsoleScript:
    def test_canonicalize_subprocess(self, corpus_file):
        path = corpus_file("in.amr", FIGURE_RECORD)
        result = subprocess.run(
            ["amrkit", "canonicalize", path],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0
        assert result.stdout == "# ::id fig1\n" + WANT_GO_CANONICAL + "\n"
