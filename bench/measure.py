"""The measured process: runs a workload's CLI steps through
``amrkit.cli.main`` in-process, or replays them traced.

Usage: python3 bench/measure.py WORKDIR {cli,trace}

WORKDIR holds ``plan.json`` (written by run.py) and the generated inputs;
the result goes to ``WORKDIR/result.json``.  This runs in its own
process so that its peak RSS and CPU time belong to the workload alone.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
from dataclasses import replace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import amrkit  # noqa: E402
from amrkit import (  # noqa: E402
    AmrGraph,
    MatchConfig,
    ParseError,
    Rule,
    default_frame_lexicon,
    entries_from_text,
    filter_corpus,
    format_amr_document,
    match_exact,
    match_hillclimb,
    parse,
    score_corpus,
    serialize_canonical,
    split_corpus,
    strip_wiki,
    validate,
)
from amrkit.cli import main as cli_main  # noqa: E402

from tracer import Tracer, busy, p50_ms, tail  # noqa: E402

LARGE_VARS = 250


def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime


def _digest(paths: list[str]) -> str:
    h = hashlib.sha256()
    for path in paths:
        with open(path, "rb") as handle:
            h.update(handle.read())
    return h.hexdigest()


def run_steps(steps: list[dict], outputs: list[str]) -> dict:
    """One pass over the CLI steps; wall per step, CPU for the pass."""
    walls, codes, stdout = [], [], []
    cpu0 = _cpu()
    for step in steps:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            t0 = time.perf_counter()
            try:
                code = cli_main(step["argv"])
            except SystemExit as stop:
                code = stop.code
            except Exception as exc:  # an operation that raised is a failed check, not a crash
                code = f"raised {type(exc).__name__}: {exc}"
            walls.append(time.perf_counter() - t0)
        codes.append(code)
        stdout.append(out.getvalue())
    return {
        "walls": walls,
        "cpu": _cpu() - cpu0,
        "codes": codes,
        "stdout": stdout,
        "digest": _digest(outputs),
    }


def measure_cli(plan: dict) -> dict:
    """Repeat the pass until ``seconds`` have been measured (at least
    three passes)."""
    passes = []
    spent = 0.0
    while spent < plan["seconds"] or len(passes) < 3:
        record = run_steps(plan["steps"], plan["outputs"])
        passes.append(record)
        spent += sum(record["walls"])
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {"passes": passes, "peak_rss_kib": max(own, workers)}


# ---------------------------------------------------------------------------
# traced replay


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _entries(t: Tracer, text: str) -> list:
    with t.span("corpus.entries_from_text", bytes=len(text.encode("utf-8"))):
        return entries_from_text(text)


def _parse(t: Tracer, text: str):
    """Parse inside a span; None for text that does not parse."""
    try:
        with t.span("penman.parse", bytes=len(text.encode("utf-8"))) as span:
            graph = parse(text)
    except ParseError:
        return None
    span.attrs["vars"] = len(graph.instances)
    return graph


def _document(entries: list, lines: list[str]) -> str:
    # the block layout of format_amr_document, around lines made by the
    # traced calls; the replay compares the result with the CLI's file
    blocks = [
        "\n".join([f"# ::{k} {v}".rstrip() for k, v in e.metadata.items()] + [line])
        for e, line in zip(entries, lines)
    ]
    return "\n\n".join(blocks) + "\n" if blocks else ""


def replay_silver(t: Tracer, plan: dict, mismatches: list[str]) -> list:
    files = plan["files"]
    lexicon = default_frame_lexicon()
    graphs = []
    with t.span("cli.validate"):
        entries = _entries(t, _read(files["corpus"]))
        kept = []
        for entry in entries:
            graph = _parse(t, entry.graph_text)
            if graph is None:
                continue
            graphs.append(graph)
            with t.span("validate.validate", vars=len(graph.instances)) as span:
                report = validate(graph, lexicon, "ignore", entry.id or "")
            span.attrs["rules"] = [v.rule.value for v in report.violations]
            if report.passed:
                kept.append(entry)
        with t.span("corpus.format_amr_document"):
            kept_text = format_amr_document(kept, canonical=False)
    if kept_text != _read(files["kept"]):
        mismatches.append("validate: replayed kept entries differ from the CLI's")
    with t.span("cli.canonicalize"):
        entries = _entries(t, _read(files["kept"]))
        parsed = [_parse(t, entry.graph_text) for entry in entries]
        lines = []
        with t.span("corpus.format_amr_document"):
            for graph in parsed:
                with t.span("penman.strip_wiki") as span:
                    stripped = strip_wiki(graph)
                span.attrs["removed"] = len(graph.edges) - len(stripped.edges)
                with t.span("penman.serialize_canonical") as span:
                    line = serialize_canonical(stripped)
                span.attrs["bytes"] = len(line.encode("utf-8"))
                lines.append(line)
            canon_text = _document(entries, lines)
    if canon_text != _read(files["canon"]):
        mismatches.append("canonicalize: replayed canonical file differs from the CLI's")
    with t.span("cli.split"):
        entries = _entries(t, _read(files["canon"]))
        with t.span("corpus.split_corpus"):
            train, test = split_corpus(entries, plan["test_size"], plan["seed"])
        with t.span("corpus.format_amr_document"):
            train_text = format_amr_document(train, canonical=False)
        with t.span("corpus.format_amr_document"):
            test_text = format_amr_document(test, canonical=False)
    if train_text != _read(files["train"]) or test_text != _read(files["test"]):
        mismatches.append("split: replayed halves differ from the CLI's")
    return graphs


def _report_rows(path: str) -> dict[str, tuple[int, int, int]]:
    rows = {}
    for line in _read(path).splitlines():
        if line.startswith("#"):
            continue
        fields = line.split("\t")
        rows[fields[0]] = (int(fields[1]), int(fields[2]), int(fields[3]))
    return rows


def replay_score(t: Tracer, plan: dict, mismatches: list[str]) -> tuple[list, list]:
    files = plan["files"]
    pairs_meta = plan["pairs"]
    config = MatchConfig()
    rows = {}
    with t.span("cli.score"):
        pred_entries = _entries(t, _read(files["pred"]))
        gold_entries = _entries(t, _read(files["gold"]))
        by_id = {e.id: e for e in pred_entries}
        golds = [_parse(t, g.graph_text) for g in gold_entries]
        preds = [_parse(t, by_id[g.id].graph_text) for g in gold_entries]
        with t.span("smatch.score_corpus"):
            # score_corpus's one-process path: the pair's position seeds it
            for index, (gold_entry, pred, gold) in enumerate(zip(gold_entries, preds, golds)):
                meta = pairs_meta[gold_entry.id]
                with t.span("smatch.score_pair", n=meta["size"], kind=meta["kind"]):
                    if pred is None:
                        with t.span("graph.triples"):
                            rows[gold_entry.id] = (0, 0, len(gold.triples(config.include_top)))
                        continue
                    pair_config = replace(config, seed=config.seed ^ index)
                    n = max(len(pred.instances), len(gold.instances))
                    search = "smatch.match_exact" if n <= config.exact_threshold else "smatch.match_hillclimb"
                    with t.span(search, n=n, kind=meta["kind"]) as span:
                        if search == "smatch.match_exact":
                            _, matched = match_exact(pred, gold, pair_config)
                        else:
                            _, matched = match_hillclimb(pred, gold, pair_config)
                    span.attrs["optimal"] = matched == meta["optimum"]
                    with t.span("graph.triples"):
                        pred_total = len(pred.triples(config.include_top))
                    with t.span("graph.triples"):
                        gold_total = len(gold.triples(config.include_top))
                    rows[gold_entry.id] = (matched, pred_total, gold_total)
    cli_rows = _report_rows(files["report"])
    for rid, row in rows.items():
        if cli_rows.get(rid) != row:
            mismatches.append(f"score: replayed {rid} {row} differs from the CLI's {cli_rows.get(rid)}")
    return [g for g in preds + golds if g is not None], list(zip(preds, golds))


def probe_build(t: Tracer, graphs: list) -> None:
    """AmrGraph.build on its own, over the parsed graphs' edges."""
    for graph in graphs:
        edges = [(e.source, e.role, e.target) for e in graph.edges]
        with t.span("graph.build"):
            AmrGraph.build(graph.root, graph.instances, edges)


def measure_trace(plan: dict) -> dict:
    """Untraced CLI pass and traced replay, alternating twice; the faster
    of each is kept, so that a slow spell on a shared machine does not pass
    for tracing overhead or CLI self time."""
    steps = plan["steps_jobs1"]
    untraced_runs, replays = [], []
    mismatches: list[str] = []
    for _ in range(2):
        untraced_runs.append(run_steps(steps, plan["outputs"]))
        t = Tracer()
        t0 = time.perf_counter()
        if plan["workload"] == "silver-clean":
            graphs, pairs = replay_silver(t, plan, mismatches), []
        else:
            graphs, pairs = replay_score(t, plan, mismatches)
        replays.append((time.perf_counter() - t0, t, graphs, pairs))
    untraced = min(untraced_runs, key=lambda run: sum(run["walls"]))
    traced_wall, t, graphs, pairs = min(replays, key=lambda replay: replay[0])
    replay = list(t.spans)
    # probes: single layers timed on their own, outside the replay
    probe_build(t, graphs)
    if plan["workload"] == "silver-clean":
        entries = entries_from_text(_read(plan["files"]["corpus"]))
        lexicon = default_frame_lexicon()
        for jobs in (1, 2):
            with t.span(f"corpus.filter_corpus.jobs{jobs}"):
                filter_corpus(entries, lexicon, "ignore", jobs=jobs)
    else:
        for jobs in (1, 2):
            with t.span(f"smatch.score_corpus.jobs{jobs}"):
                score_corpus(pairs, MatchConfig(), jobs=jobs)
    metrics, extras = layer_metrics(t, replay, plan, untraced, traced_wall, mismatches)
    t.write(
        plan["trace_path"],
        {"workload": plan["workload"], "seed": plan["seed"], "facts": plan["facts"]},
    )
    return {"passes": untraced_runs, "metrics": metrics, "extras": extras, "mismatches": mismatches}


def layer_metrics(t: Tracer, replay: list, plan: dict, untraced: dict, traced_wall: float, mismatches: list[str]):
    """Per-layer metrics from the replay's spans (and the probes' for
    graph.build and the pool timings).  Every name is always present: a
    layer the workload does not use reads 0."""
    m: dict[str, tuple[float, str]] = {}

    def calls_and_busy(name: str, spans: list) -> None:
        m[f"{name}.calls"] = (len(spans), "count")
        m[f"{name}.s"] = (busy(spans), "s")

    def named(name: str) -> list:
        return [s for s in replay if s.name == name]

    parse_spans = named("penman.parse")
    parsed = [s for s in parse_spans if not s.failed]
    calls_and_busy("penman.parse", parse_spans)
    parse_busy = busy(parse_spans)
    m["penman.parse.graphs_per_s"] = (len(parsed) / parse_busy if parse_busy else 0.0, "1/s")
    parse_mb = sum(s.attrs["bytes"] for s in parse_spans) / 1e6
    m["penman.parse.mb_per_s"] = (parse_mb / parse_busy if parse_busy else 0.0, "MB/s")
    m["penman.parse.failed"] = (len(parse_spans) - len(parsed), "count")
    strip = named("penman.strip_wiki")
    calls_and_busy("penman.strip_wiki", strip)
    m["penman.strip_wiki.edges_removed"] = (sum(s.attrs["removed"] for s in strip), "count")
    ser = named("penman.serialize_canonical")
    calls_and_busy("penman.serialize_canonical", ser)
    m["penman.serialize_canonical.bytes_out"] = (sum(s.attrs["bytes"] for s in ser), "bytes")

    calls_and_busy("graph.build", t.named("graph.build"))
    calls_and_busy("graph.triples", named("graph.triples"))

    val = named("validate.validate")
    calls_and_busy("validate.validate", val)
    m["validate.validate.small.p50_ms"] = (p50_ms(s for s in val if s.attrs["vars"] < LARGE_VARS), "ms")
    m["validate.validate.large.p50_ms"] = (p50_ms(s for s in val if s.attrs["vars"] >= LARGE_VARS), "ms")
    rule_counts = {rule.value: 0 for rule in Rule}
    for s in val:
        for rule in s.attrs["rules"]:
            rule_counts[rule] += 1
    rule_counts[Rule.STRUCTURAL.value] += m["penman.parse.failed"][0] if val else 0
    for rule, count in rule_counts.items():
        m[f"validate.rule.{rule}"] = (count, "count")

    ents = named("corpus.entries_from_text")
    calls_and_busy("corpus.entries_from_text", ents)
    ents_busy = busy(ents)
    ents_mb = sum(s.attrs["bytes"] for s in ents) / 1e6
    m["corpus.entries_from_text.mb_per_s"] = (ents_mb / ents_busy if ents_busy else 0.0, "MB/s")
    fc1, fc2 = busy(t.named("corpus.filter_corpus.jobs1")), busy(t.named("corpus.filter_corpus.jobs2"))
    m["corpus.filter_corpus.jobs1.s"] = (fc1, "s")
    m["corpus.filter_corpus.jobs2.s"] = (fc2, "s")
    m["corpus.pool.speedup"] = (fc1 / fc2 if fc2 else 0.0, "ratio")
    fmt = named("corpus.format_amr_document")
    calls_and_busy("corpus.format_amr_document", fmt)
    m["corpus.format_amr_document.self_s"] = (sum(t.self_time(s) for s in fmt), "s")
    calls_and_busy("corpus.split_corpus", named("corpus.split_corpus"))

    exact = named("smatch.match_exact")
    calls_and_busy("smatch.match_exact", exact)
    for n in (5, 6, 7, 8):
        m[f"smatch.match_exact.n{n}.p50_ms"] = (p50_ms(s for s in exact if s.attrs["n"] == n), "ms")
    hill = named("smatch.match_hillclimb")
    calls_and_busy("smatch.match_hillclimb", hill)
    for kind in ("near", "far"):
        m[f"smatch.match_hillclimb.{kind}.p50_ms"] = (p50_ms(s for s in hill if s.attrs["kind"] == kind), "ms")
    for low, high in ((9, 15), (16, 25), (26, 40)):
        m[f"smatch.match_hillclimb.n{low}-{high}.p50_ms"] = (
            p50_ms(s for s in hill if low <= s.attrs["n"] <= high),
            "ms",
        )
    hill_near = [s for s in hill if s.attrs["kind"] == "near"]
    m["smatch.match_hillclimb.optimal_share"] = (
        sum(s.attrs["optimal"] for s in hill_near) / len(hill_near) if hill_near else 0.0,
        "ratio",
    )
    pairs = named("smatch.score_pair")
    calls_and_busy("smatch.score_pair", pairs)
    m["smatch.score_pair.p50_ms"] = (p50_ms(pairs), "ms")
    q, tail_ms = tail(pairs)
    m["smatch.score_pair.tail_ms"] = (tail_ms, "ms")
    m["smatch.score_pair.tail_q"] = (q, "ratio")
    routed = len(exact) + len(hill)
    m["smatch.exact_share"] = (len(exact) / routed if routed else 0.0, "ratio")
    sc1, sc2 = busy(t.named("smatch.score_corpus.jobs1")), busy(t.named("smatch.score_corpus.jobs2"))
    m["smatch.score_corpus.jobs1.s"] = (sc1, "s")
    m["smatch.score_corpus.jobs2.s"] = (sc2, "s")
    m["smatch.pool.speedup"] = (sc1 / sc2 if sc2 else 0.0, "ratio")

    walls = dict(zip((s["name"] for s in plan["steps_jobs1"]), untraced["walls"]))
    for command in ("validate", "canonicalize", "split", "score"):
        spans = named(f"cli.{command}")
        wall = walls.get(command, 0.0)
        library = sum(c.duration for s in spans for c in t.children(s))
        m[f"cli.{command}.s"] = (wall, "s")
        m[f"cli.{command}.self_s"] = (wall - library if spans else 0.0, "s")
    untraced_wall = sum(untraced["walls"])
    m["trace.overhead"] = (traced_wall / untraced_wall - 1, "ratio")
    m["trace.untraced_s"] = (untraced_wall, "s")
    m["trace.traced_s"] = (traced_wall, "s")
    m["trace.replay_mismatches"] = (len(mismatches), "count")

    # ROADMAP measured parse and validate on corpora of <=40-variable graphs
    silver = plan["workload"] == "silver-clean"
    small_parse = [s for s in parsed if silver and s.attrs["vars"] <= 40]
    small_val = [s for s in val if s.attrs["vars"] <= 40]
    extras = {
        "parse_small_graphs_per_s": len(small_parse) / busy(small_parse) if small_parse else None,
        "validate_small_graphs_per_s": len(small_val) / busy(small_val) if small_val else None,
        "score_pair_n7_ms": p50_ms(s for s in pairs if s.attrs["n"] == 7) or None,
        "score_pair_n8_ms": p50_ms(s for s in pairs if s.attrs["n"] == 8) or None,
        "hillclimb_n20_s": p50_ms(s for s in hill if s.attrs["n"] == 20) / 1000 or None,
        "hillclimb_n40_s": p50_ms(s for s in hill if s.attrs["n"] == 40) / 1000 or None,
        "modules_self_s": _module_self_times(replay),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}, extras


def _module_self_times(replay: list) -> dict[str, float]:
    """Self time per module over the replay: what each layer's own code
    cost, so the modules plus the CLI remainder add up to the traced wall."""
    out: dict[str, float] = {}
    child_time: dict[int, float] = {}
    for s in replay:
        if s.parent is not None:
            child_time[s.parent] = child_time.get(s.parent, 0.0) + s.duration
    for s in replay:
        module = s.name.split(".")[0]
        out[module] = out.get(module, 0.0) + s.duration - child_time.get(s.sid, 0.0)
    return out


def main() -> int:
    workdir, mode = sys.argv[1], sys.argv[2]
    src = os.path.join(ROOT, "src")
    if not os.path.abspath(amrkit.__file__).startswith(src + os.sep):
        print(f"amrkit imported from {amrkit.__file__}, not from {src}", file=sys.stderr)
        return 2
    with open(os.path.join(workdir, "plan.json"), encoding="utf-8") as handle:
        plan = json.load(handle)
    result = measure_cli(plan) if mode == "cli" else measure_trace(plan)
    with open(os.path.join(workdir, "result.json"), "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
