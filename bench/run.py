"""Seeded end-to-end benchmark for amrkit.

Usage (from the repository root):

    python3 bench/run.py --workload silver-clean --seed 1 --seconds 25 --trace 0

Workloads: silver-clean, score-exact, score-hill (see bench/README.md).
The inputs are generated from ``--seed`` by bench/gen.py; the CLI steps
run through ``amrkit.cli.main`` in-process, in a child process of their
own, from ``src/`` without installation.  Every run checks the outputs
against the generator's answers.

``--trace 0`` repeats the workload's CLI steps for ``--seconds`` and
reports the end-to-end metrics; ``--trace 1`` replays the steps through
the library's public functions with a span around each call and reports
the per-layer metrics.  Human-readable lines come first; the last line of
stdout is one JSON object with keys correct, attempted, failed, metrics.
The exit status is 0 only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import checks  # noqa: E402
import gen  # noqa: E402

WORKLOADS = ("silver-clean", "score-exact", "score-hill")
SILVER_ENTRIES = 1500
SETUP_SPAWNS = 11
SETUP_CODE = (
    "import sys; sys.path.insert(0, 'src'); import amrkit.cli; "
    "from amrkit.validate import default_frame_lexicon; default_frame_lexicon()"
)
RUN_LIMIT_S = 170
# worker processes for the CLI steps that take --jobs
JOBS = {"silver-clean": 2, "score-exact": 1, "score-hill": 2}
# figures from ROADMAP's State section, for the traced run's cross-check
ROADMAP_FIGURES = {
    "parse_small_graphs_per_s": (919, "graphs/s"),
    "validate_small_graphs_per_s": (8600, "graphs/s"),
    "score_pair_n7_ms": (84, "ms"),
    "score_pair_n8_ms": (866, "ms"),
    "hillclimb_n20_s": (0.52, "s"),
    "hillclimb_n40_s": (4.4, "s"),
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def machine_facts() -> dict:
    sha = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or sha
        except OSError:
            pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "git_sha": sha,
    }


def measure_setup() -> float:
    """Median wall time of a fresh interpreter importing the CLI and
    loading the bundled lexicon: the fixed cost of every CLI call."""
    times = []
    for _ in range(SETUP_SPAWNS):
        t0 = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, capture_output=True, timeout=60)
        times.append(time.perf_counter() - t0)
        if done.returncode != 0:
            raise BenchError("setup interpreter failed: " + done.stderr.decode(errors="replace").strip())
    return statistics.median(times)


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def build_plan(workload: str, seed: int, seconds: int, workdir: str) -> tuple[dict, object]:
    """Generate the inputs and the CLI steps; returns (plan, expectations)."""
    f = {name: os.path.join(workdir, name + ".txt") for name in (
        "corpus", "report", "kept", "canon", "train", "test", "pred", "gold")}
    jobs = str(JOBS[workload])
    plan: dict = {"workload": workload, "seed": seed, "seconds": seconds, "files": f}
    if workload == "silver-clean":
        text, records = gen.silver_corpus(seed, SILVER_ENTRIES)
        _write(f["corpus"], text)
        kept = sum(1 for r in records if not r.verdict[0])
        plan["test_size"] = kept // 10
        plan["steps"] = [
            {"name": "validate", "exit": 1, "argv": [
                "validate", f["corpus"], "--jobs", jobs, "--report", f["report"], "--kept-out", f["kept"]]},
            {"name": "canonicalize", "exit": 0, "argv": ["canonicalize", f["kept"], "-o", f["canon"]]},
            {"name": "split", "exit": 0, "argv": [
                "split", f["canon"], "--test-size", str(plan["test_size"]), "--seed", str(seed),
                "--train-out", f["train"], "--test-out", f["test"]]},
        ]
        plan["outputs"] = [f["report"], f["kept"], f["canon"], f["train"], f["test"]]
        plan["items"] = len(records)
        expected = records
    else:
        pred, gold, pairs = gen.score_pairs(seed, workload)
        _write(f["pred"], pred)
        _write(f["gold"], gold)
        plan["steps"] = [{"name": "score", "exit": 0, "argv": [
            "score", f["pred"], f["gold"], "--jobs", jobs, "-o", f["report"]]}]
        plan["outputs"] = [f["report"]]
        plan["items"] = len(pairs)
        plan["pairs"] = {p.rid: {"kind": p.kind, "size": p.size, "optimum": p.optimum} for p in pairs}
        expected = pairs
    plan["steps_jobs1"] = [
        {**step, "argv": ["1" if prev == "--jobs" else arg for prev, arg in zip([""] + step["argv"], step["argv"])]}
        for step in plan["steps"]
    ]
    return plan, expected


def run_child(workdir: str, mode: str, deadline: float) -> dict:
    """Run bench/measure.py in its own process group, so that a timeout
    also stops its pool workers."""
    child = subprocess.Popen(
        [sys.executable, os.path.join(BENCH, "measure.py"), workdir, mode],
        cwd=ROOT,
        start_new_session=True,
    )
    try:
        code = child.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
        raise BenchError("the measured process ran past the time limit")
    if code != 0:
        raise BenchError(f"the measured process exited with status {code}")
    with open(os.path.join(workdir, "result.json"), encoding="utf-8") as handle:
        return json.load(handle)


def check_outputs(plan: dict, expected, result: dict, steps: list[dict]):
    passes = result["passes"]
    failures: list[str] = []
    attempted = checks.check_codes(passes, steps, failures)
    if plan["workload"] == "silver-clean":
        split_stdout = passes[-1]["stdout"][2]
        n, more, quality = checks.check_silver(plan["files"], expected, plan["test_size"], split_stdout)
    else:
        n, more, quality = checks.check_score(plan["files"], expected, plan["workload"] == "score-exact")
    return attempted + n, failures + more, quality


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S
    if not os.path.isfile(os.path.join(ROOT, "src", "amrkit", "cli.py")):
        print(f"bench: no amrkit sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    facts = machine_facts()
    work_root = os.path.join(ROOT, ".bench_work")
    workdir = os.path.join(work_root, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        setup_s = measure_setup() if args.trace == 0 else None
        plan, expected = build_plan(args.workload, args.seed, args.seconds, workdir)
        plan["facts"] = facts
        plan["trace_path"] = os.path.join(work_root, f"trace-{args.workload}-seed{args.seed}.jsonl")
        _write(os.path.join(workdir, "plan.json"), json.dumps(plan))
        mode = "trace" if args.trace else "cli"
        result = run_child(workdir, mode, deadline)
        steps = plan["steps_jobs1"] if args.trace else plan["steps"]
        attempted, failures, quality = check_outputs(plan, expected, result, steps)
    except BenchError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}")
    print("# machine " + " ".join(f"{k}={v}" for k, v in facts.items()))
    if args.trace == 0:
        passes = result["passes"]
        walls = [sum(p["walls"]) for p in passes]
        unit = "entries/s" if args.workload == "silver-clean" else "pairs/s"
        metrics = {
            "setup_s": (setup_s, "s"),
            "items_per_s": (plan["items"] / statistics.median(walls), "items/s"),
            "cpu_s": (statistics.median(p["cpu"] for p in passes), "s"),
            "peak_rss_mib": (result["peak_rss_kib"] / 1024, "MiB"),
        }
        notes = {
            "setup_s": f"median of {SETUP_SPAWNS} fresh interpreters",
            "items_per_s": f"{unit}, {plan['items']} items, median of {len(passes)} passes",
            "cpu_s": "user+sys of the CLI process and its reaped workers, median pass",
            "peak_rss_mib": "largest of the CLI process and its workers",
        }
        for name, (value, unit_name) in metrics.items():
            print(f"{name} {value:.6g} {unit_name}  ({notes[name]})")
        for name, (value, base) in quality.items():
            print(f"{name} {value:.6g} {base}")
    else:
        metrics = {k: (v["value"], v["unit"]) for k, v in result["metrics"].items()}
        metrics["smatch.f1"] = (quality.get("smatch_f1", (0.0,))[0], "ratio")
        metrics["smatch.optimal_share"] = (quality.get("optimal_share", (0.0,))[0], "ratio")
        for name, (value, unit_name) in metrics.items():
            print(f"{name} {value:.6g} {unit_name}")
        for name, (value, base) in quality.items():
            print(f"{name} {value:.6g} {base}")
        print_crosscheck(result["extras"])
        for line in result["mismatches"]:
            print(f"# replay mismatch: {line}")
        print(f"# spans written to {os.path.relpath(plan['trace_path'], ROOT)}")
    print(f"failed_share {len(failures) / attempted:.6g} ratio of {attempted} operations")
    for line in failures[:50]:
        print(f"# FAILED {line}")
    payload = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(payload))
    return 0 if not failures else 1


def print_crosscheck(extras: dict) -> None:
    """Compare with ROADMAP's State figures; flag any more than 15 % off."""
    modules = extras.get("modules_self_s", {})
    print("# self time by module in the replay: " + " ".join(f"{k}={v:.3f}s" for k, v in modules.items()))
    for key, (reference, unit) in ROADMAP_FIGURES.items():
        value = extras.get(key)
        if value is None:
            continue
        change = value / reference - 1
        flag = "  OUTSIDE +-15%" if abs(change) > 0.15 else ""
        print(f"# crosscheck {key} {value:.4g} {unit} vs ROADMAP {reference} ({change:+.0%}){flag}")


if __name__ == "__main__":
    raise SystemExit(main())
