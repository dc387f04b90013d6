"""The ``amrkit`` command line.

Subcommands:

- ``canonicalize``: rewrite graphs in canonical single-line form
- ``validate``: run quality checks, report and separate bad entries
- ``score``: Smatch a file of predictions against references
- ``stats``: frequency table of root concepts
- ``split``: seeded train/test split
- ``sample``: seeded subset of a corpus

``-`` stands for stdin or stdout.  Exit status: 0 on success, 1 when the
data failed a quality bar (validation discards, score under ``--min-f1``),
2 for unusable input or arguments.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Optional, Sequence

from .corpus import (
    CorpusEntry,
    CorpusFormatError,
    FilterOutcome,
    _entry_label,
    entries_from_text,
    filter_corpus,
    format_amr_document,
    read_amr_file,
    sample_corpus,
    split_corpus,
    top_node_stats,
)
from .smatch import MatchConfig, SmatchScore, score_corpus
from .validate import LexiconError, Rule, default_frame_lexicon, load_frame_lexicon


class CliError(Exception):
    """A fatal command-line problem with its exit status."""

    def __init__(self, message: str, exit_code: int = 2):
        super().__init__(message)
        self.exit_code = exit_code


def _read_entries(path: str) -> list[CorpusEntry]:
    try:
        if path == "-":
            return entries_from_text(sys.stdin.read())
        return read_amr_file(path)
    except OSError as err:
        raise CliError(f"cannot read {path}: {err.strerror or err}") from err
    except UnicodeDecodeError as err:
        raise CliError(f"cannot read {path}: {err}") from err
    except CorpusFormatError as err:
        raise CliError(f"{path}: {err}") from err


def _write_text(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as err:
        raise CliError(f"cannot write {path}: {err.strerror or err}") from err


# built once per process: each build leaves its formatters and argument
# groups in reference cycles that only the cyclic garbage collector frees
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # each subcommand takes only the shared options its handler reads
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0, help="seed for anything randomized")
    jobs = argparse.ArgumentParser(add_help=False)
    jobs.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="processes (this one and JOBS-1 forked workers), at most one per entry and CPU",
    )
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("tsv", "json"), default="tsv", help="report format")

    parser = argparse.ArgumentParser(
        prog="amrkit", description="Work with AMR graphs in PENMAN notation."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "canonicalize",
        help="rewrite graphs in canonical single-line form",
    )
    p.add_argument("input", help="corpus file or - for stdin")
    p.add_argument("-o", "--output", default="-", help="output file, - for stdout")
    p.add_argument(
        "--keep-wiki", action="store_true", help="keep :wiki edges instead of dropping them"
    )
    p.set_defaults(handler=cmd_canonicalize)

    p = sub.add_parser(
        "validate", parents=[jobs, fmt], help="run quality checks over a corpus"
    )
    p.add_argument("input", help="corpus file or - for stdin")
    p.add_argument("--lexicon", help="frame lexicon TSV (defaults to the bundled one)")
    p.add_argument(
        "--unknown-frames",
        choices=("ignore", "flag"),
        default="ignore",
        help="how to treat frames missing from the lexicon",
    )
    p.add_argument("--report", default="-", help="where to write the report")
    p.add_argument("--kept-out", help="write the entries that passed to this file")
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser(
        "score", parents=[seed, jobs, fmt], help="Smatch predictions against references"
    )
    p.add_argument("pred", help="predictions corpus file or -")
    p.add_argument("gold", help="references corpus file")
    p.add_argument("-o", "--output", default="-", help="where to write the report")
    p.add_argument("--restarts", type=int, default=4, help="most hill-climbing restarts")
    p.add_argument(
        "--exact-threshold",
        type=int,
        default=8,
        help="use exhaustive matching up to this many variables per side",
    )
    p.add_argument(
        "--include-top",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="count the root-marker triple",
    )
    p.add_argument(
        "--macro",
        action="store_true",
        help="aggregate by averaging per-pair scores instead of pooling counts",
    )
    p.add_argument(
        "--min-f1",
        type=float,
        help="exit with status 1 if the aggregate F1 falls below this (0 to 1)",
    )
    p.set_defaults(handler=cmd_score)

    p = sub.add_parser(
        "stats", parents=[fmt], help="frequency table of root concepts"
    )
    p.add_argument("input", help="corpus file or - for stdin")
    p.add_argument(
        "-k", type=int, default=15, help="table size; 0 or less means no limit"
    )
    p.set_defaults(handler=cmd_stats)

    p = sub.add_parser("split", parents=[seed, fmt], help="seeded train/test split")
    p.add_argument("input", help="corpus file or - for stdin")
    p.add_argument("--test-size", type=int, required=True, help="entries in the test half")
    p.add_argument("--train-out", required=True, help="file for the train half")
    p.add_argument("--test-out", required=True, help="file for the test half")
    p.set_defaults(handler=cmd_split)

    p = sub.add_parser("sample", parents=[seed], help="seeded subset of a corpus")
    p.add_argument("input", help="corpus file or - for stdin")
    p.add_argument("-n", "--size", type=int, required=True, help="entries to draw")
    p.add_argument("-o", "--output", default="-", help="output file, - for stdout")
    p.set_defaults(handler=cmd_sample)

    return parser


def cmd_canonicalize(args: argparse.Namespace) -> int:
    entries = _read_entries(args.input)
    failed = False
    for position, entry in enumerate(entries):
        error = entry.parse_error
        if error is None:
            continue
        failed = True
        label = _entry_label(entry, position)
        base = (entry.graph_line or entry.source_line or 1) - 1
        for diag in error.diagnostics:
            print(
                f"{label}: {base + diag.line}:{diag.column}: "
                f"{diag.code.value}: {diag.message}",
                file=sys.stderr,
            )
    if failed:
        return 2
    try:
        text = format_amr_document(entries, canonical=True, remove_wiki=not args.keep_wiki)
    except ValueError as err:
        # a graph that parses can still lack a canonical form: without its
        # :wiki edge, a node may be connected only by its own outgoing edges
        raise CliError(str(err)) from err
    _write_text(args.output, text)
    return 0


def _render(fmt: str, payload: dict, lines: list[str]) -> str:
    """The report text: ``payload`` as indented JSON, or ``lines`` as TSV."""
    if fmt == "json":
        return json.dumps(payload, indent=2) + "\n"
    return "\n".join(lines) + "\n"


def _validation_report(outcome: FilterOutcome, fmt: str) -> str:
    counts = outcome.violation_counts()
    kept = len(outcome.kept)
    total = len(outcome.results)
    violations = [
        {
            "entry": _entry_label(entry, position),
            "rule": violation.rule.value,
            "node": violation.node,
            "detail": violation.detail,
        }
        for position, (entry, report) in enumerate(outcome.results)
        for violation in report.violations
    ]
    payload = {
        "entries": total,
        "kept": kept,
        "discarded": total - kept,
        "rule_counts": {rule.value: counts.get(rule, 0) for rule in Rule},
        "violations": violations,
    }
    # a TSV row is the JSON object's values, tab-separated
    lines = ["\t".join(row.values()) for row in violations]
    rule_text = " ".join(f"{rule} {n}" for rule, n in payload["rule_counts"].items())
    lines.append(f"# entries {total} kept {kept} discarded {total - kept}")
    lines.append(f"# {rule_text}")
    return _render(fmt, payload, lines)


def cmd_validate(args: argparse.Namespace) -> int:
    try:
        lexicon = (
            load_frame_lexicon(args.lexicon) if args.lexicon else default_frame_lexicon()
        )
    except (OSError, LexiconError) as err:
        raise CliError(str(err)) from err
    except UnicodeDecodeError as err:
        # the file is decoded chunk by chunk, so err.start is no file offset
        raise CliError(
            f"cannot read {args.lexicon}: not {err.encoding} text ({err.reason})"
        ) from err
    if args.jobs < 1:
        raise CliError("--jobs must be at least 1")
    entries = _read_entries(args.input)
    outcome = filter_corpus(entries, lexicon, args.unknown_frames, jobs=args.jobs)
    _write_text(args.report, _validation_report(outcome, args.format))
    if args.kept_out:
        _write_text(args.kept_out, format_amr_document(outcome.kept, canonical=False))
    return 1 if outcome.discarded else 0


def _align_pairs(
    pred_entries: list[CorpusEntry], gold_entries: list[CorpusEntry]
) -> tuple[list[tuple[Optional[CorpusEntry], CorpusEntry]], list[str]]:
    """Pair predictions with references by ::id when both files carry ids
    everywhere, by position otherwise."""
    pred_ids = [e.id for e in pred_entries]
    gold_ids = [e.id for e in gold_entries]
    if all(pred_ids) and all(gold_ids):
        by_id = dict(zip(pred_ids, pred_entries))
        missing = [i for i in gold_ids if i not in by_id]
        gold_id_set = set(gold_ids)
        extra = [i for i in pred_ids if i not in gold_id_set]
        if missing or extra:
            parts = []
            if missing:
                parts.append(f"missing predictions for: {', '.join(missing[:5])}")
            if extra:
                parts.append(f"predictions without references: {', '.join(extra[:5])}")
            raise CliError("; ".join(parts))
        pairs = [(by_id[i], gold) for i, gold in zip(gold_ids, gold_entries)]
        return pairs, list(gold_ids)
    if len(pred_entries) != len(gold_entries):
        raise CliError(
            f"cannot pair by position: {len(pred_entries)} predictions vs "
            f"{len(gold_entries)} references (add ::id to both files to pair by id)"
        )
    labels = [_entry_label(gold, position) for position, gold in enumerate(gold_entries)]
    return list(zip(pred_entries, gold_entries)), labels


def _score_row(label: str, score: SmatchScore) -> str:
    return (
        f"{label}\t{score.matched}\t{score.pred_total}\t{score.gold_total}\t"
        f"{score.precision:.4f}\t{score.recall:.4f}\t{score.f1:.4f}"
    )


def _score_obj(label: Optional[str], score: SmatchScore) -> dict:
    obj = {} if label is None else {"id": label}
    obj.update(
        matched=score.matched,
        pred_total=score.pred_total,
        gold_total=score.gold_total,
        precision=round(score.precision, 4),
        recall=round(score.recall, 4),
        f1=round(score.f1, 4),
    )
    return obj


def _score_report(
    labels: list[str], per_pair: list[SmatchScore], aggregate: SmatchScore, fmt: str
) -> str:
    payload = {
        "pairs": [_score_obj(l, s) for l, s in zip(labels, per_pair)],
        "aggregate": _score_obj(None, aggregate),
    }
    lines = ["# id\tmatched\tpred_total\tgold_total\tprecision\trecall\tf1"]
    lines.extend(_score_row(l, s) for l, s in zip(labels, per_pair))
    lines.append(_score_row("ALL", aggregate))
    return _render(fmt, payload, lines)


def cmd_score(args: argparse.Namespace) -> int:
    if args.jobs < 1:
        raise CliError("--jobs must be at least 1")
    # written so that NaN fails too: it would compare false against any F1
    if args.min_f1 is not None and not 0 <= args.min_f1 <= 1:
        raise CliError(f"--min-f1 must be between 0 and 1, got {args.min_f1}")
    try:
        config = MatchConfig(
            restarts=args.restarts,
            seed=args.seed,
            include_top=args.include_top,
            exact_threshold=args.exact_threshold,
        )
    except ValueError as err:
        raise CliError(str(err)) from err
    pred_entries = _read_entries(args.pred)
    gold_entries = _read_entries(args.gold)
    paired, labels = _align_pairs(pred_entries, gold_entries)
    bad_gold = [
        label for label, (_, gold) in zip(labels, paired) if gold.graph is None
    ]
    if bad_gold:
        raise CliError(
            f"unparseable reference graphs: {', '.join(bad_gold[:5])}"
            + (f" (+{len(bad_gold) - 5} more)" if len(bad_gold) > 5 else "")
        )
    pairs = [
        (pred.graph if pred is not None else None, gold.graph)
        for pred, gold in paired
    ]
    aggregate, per_pair = score_corpus(pairs, config, jobs=args.jobs, macro=args.macro)
    _write_text(args.output, _score_report(labels, per_pair, aggregate, args.format))
    if args.min_f1 is not None and aggregate.f1 < args.min_f1:
        return 1
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    entries = _read_entries(args.input)
    limit = args.k if args.k > 0 else None
    table = top_node_stats(entries, limit)
    payload = {
        "rows": [[label, count] for label, count in table.rows],
        "counted": table.counted,
        "skipped": table.skipped,
    }
    lines = [f"{label}\t{count}" for label, count in table.rows]
    lines.append(f"# counted {table.counted} skipped {table.skipped}")
    _write_text(None, _render(args.format, payload, lines))
    return 0


def cmd_split(args: argparse.Namespace) -> int:
    entries = _read_entries(args.input)
    try:
        train, test = split_corpus(entries, args.test_size, args.seed)
    except ValueError as err:
        raise CliError(str(err)) from err
    _write_text(args.train_out, format_amr_document(train, canonical=False))
    _write_text(args.test_out, format_amr_document(test, canonical=False))
    payload = {"train": len(train), "test": len(test)}
    lines = [f"train\t{len(train)}", f"test\t{len(test)}"]
    _write_text(None, _render(args.format, payload, lines))
    return 0


def cmd_sample(args: argparse.Namespace) -> int:
    entries = _read_entries(args.input)
    try:
        chosen = sample_corpus(entries, args.size, args.seed)
    except ValueError as err:
        raise CliError(str(err)) from err
    _write_text(args.output, format_amr_document(chosen, canonical=False))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except CliError as err:
        print(f"amrkit: {err}", file=sys.stderr)
        return err.exit_code
    except BrokenPipeError:
        return 0


def run() -> None:
    raise SystemExit(main())
