"""Output checks: the CLI's files against what the generator planted.

Each function returns ``(attempted, failures, quality)`` where every
attempted operation is one entry or pair a command had to get right, or
one exit status, and each failure names the offending id.  Nothing here
imports amrkit: the expected answers come from bench/gen.py alone.
"""

from __future__ import annotations

from gen import Pair, SilverRecord


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as handle:
        return handle.read()


def _blocks(path: str) -> list[tuple[str, str]]:
    """(id, graph text) per blank-line-separated record."""
    out = []
    for block in _read(path).split("\n\n"):
        lines = [line for line in block.splitlines() if line.strip()]
        if not lines:
            continue
        rid = ""
        graph = []
        for line in lines:
            if line.startswith("# ::id "):
                rid = line[len("# ::id ") :].strip()
            elif not line.startswith("#"):
                graph.append(line)
        out.append((rid, "\n".join(graph)))
    return out


def check_codes(passes: list[dict], steps: list[dict], failures: list[str]) -> int:
    attempted = 0
    for number, record in enumerate(passes, start=1):
        for step, code in zip(steps, record["codes"]):
            attempted += 1
            if code != step["exit"]:
                failures.append(f"pass {number}: {step['name']} exited {code}, expected {step['exit']}")
    digests = {record["digest"] for record in passes}
    if len(digests) > 1:
        failures.append(f"outputs differ between passes ({len(digests)} variants)")
    return attempted


def check_silver(files: dict, records: list[SilverRecord], test_size: int, split_stdout: str):
    failures: list[str] = []
    attempted = 0
    expected = {r.rid: r for r in records}
    found: dict[str, list[tuple[str, str]]] = {}
    summary = ""
    for line in _read(files["report"]).splitlines():
        if line.startswith("# entries"):
            summary = line
        elif not line.startswith("#"):
            rid, rule, node, _ = line.split("\t", 3)
            found.setdefault(rid, []).append((rule, node))
    for r in records:
        attempted += 1
        want = [] if not r.verdict[0] else [r.verdict]
        if found.get(r.rid, []) != want:
            failures.append(f"validate {r.rid}: got {found.get(r.rid, [])}, expected {want}")
    unknown = set(found) - set(expected)
    failures.extend(f"validate: report names unknown id {rid}" for rid in sorted(unknown))
    kept = [r for r in records if not r.verdict[0]]
    want_summary = f"# entries {len(records)} kept {len(kept)} discarded {len(records) - len(kept)}"
    if summary != want_summary:
        failures.append(f"validate summary {summary!r}, expected {want_summary!r}")

    kept_blocks = _blocks(files["kept"])
    if [rid for rid, _ in kept_blocks] != [r.rid for r in kept]:
        failures.append("validate --kept-out: ids differ from the clean records")
    for rid, text in kept_blocks:
        attempted += 1
        if rid in expected and text != expected[rid].text:
            failures.append(f"kept {rid}: graph text changed")

    canon_blocks = _blocks(files["canon"])
    if [rid for rid, _ in canon_blocks] != [r.rid for r in kept]:
        failures.append("canonicalize: ids differ from the kept records")
    for rid, line in canon_blocks:
        attempted += 1
        if rid not in expected or line != expected[rid].canonical:
            failures.append(f"canonicalize {rid}: line differs from the generator's")

    attempted += 1
    train, test = _blocks(files["train"]), _blocks(files["test"])
    want_stdout = f"train\t{len(kept) - test_size}\ntest\t{test_size}\n"
    if (len(train), len(test)) != (len(kept) - test_size, test_size) or split_stdout != want_stdout:
        failures.append(f"split: sizes {len(train)}/{len(test)}, expected {len(kept) - test_size}/{test_size}")
    if sorted(rid for rid, _ in train + test) != sorted(r.rid for r in kept):
        failures.append("split: halves are not a partition of the canonical records")
    for rid, line in train + test:
        if rid in expected and line != expected[rid].canonical:
            failures.append(f"split {rid}: line differs from the canonical one")
    return attempted, failures, {}


def check_score(files: dict, pairs: list[Pair], exact: bool):
    """Rows must carry the generator's triple totals; a near pair's
    matched count may never exceed its known optimum, and under exact
    search must equal it."""
    failures: list[str] = []
    rows = []
    for line in _read(files["report"]).splitlines():
        if not line.startswith("#"):
            fields = line.split("\t")
            rows.append((fields[0], int(fields[1]), int(fields[2]), int(fields[3]), float(fields[6])))
    if len(rows) != len(pairs) + 1:
        failures.append(f"score: {len(rows)} rows, expected {len(pairs) + 1}")
        return len(pairs), failures, {}
    near = optimal = 0
    for (rid, matched, pred_total, gold_total, _), pair in zip(rows, pairs):
        if rid != pair.rid:
            failures.append(f"score: row {rid} where {pair.rid} was expected")
            continue
        if (pred_total, gold_total) != (pair.pred_total, pair.gold_total):
            failures.append(
                f"score {rid}: totals {pred_total}/{gold_total}, expected {pair.pred_total}/{pair.gold_total}"
            )
        if not 0 <= matched <= min(pred_total, gold_total):
            failures.append(f"score {rid}: matched {matched} out of range")
        if pair.kind == "near":
            near += 1
            optimal += matched == pair.optimum
            if matched > pair.optimum or exact and matched != pair.optimum:
                failures.append(f"score {rid}: matched {matched}, optimum {pair.optimum}")
    rid, matched, pred_total, gold_total, f1 = rows[-1]
    sums = tuple(sum(row[k] for row in rows[:-1]) for k in (1, 2, 3))
    if rid != "ALL" or (matched, pred_total, gold_total) != sums:
        failures.append(f"score: ALL row {rows[-1][:4]} does not sum the pairs {sums}")
    exact_f1 = 2 * matched / (pred_total + gold_total) if pred_total + gold_total else 0.0
    if abs(exact_f1 - f1) > 6e-5:
        failures.append(f"score: ALL f1 {f1} but counts give {exact_f1:.6f}")
    quality = {
        "smatch_f1": (exact_f1, f"ratio, ALL row of {len(pairs)} pairs"),
        "optimal_share": (optimal / near if near else 0.0, f"ratio of {near} known-optimum pairs"),
    }
    return len(pairs), failures, quality
