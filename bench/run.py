#!/usr/bin/env python3
"""skewtab benchmark: run one workload in fresh interpreters, check it, report.

    python3 bench/run.py --workload involution [--seed 0] [--seconds 30] [--trace 0]

Starts bench/child.py once per measured run, one process at a time, until
--seconds have passed (at least MIN_RUNS untraced runs). Each child imports
skewtab from this checkout's src/, so its caches start cold. Every child's
outputs pass through the correctness gate below; any failure makes the
command exit 1 after printing `"correct": false`.

Times are scaled to a reference speed by the speed probes of speed.py; the
raw times are printed too. With --trace 0 the last line holds every
end-to-end metric of BENCHMARK.json (medians over the runs; set-up also over
SETUP_RUNS children that stop where the timed section would start); with
--trace 1 it holds every per-layer metric, from traced runs alternating with
untraced ones, whose difference in wall time is the tracing overhead. Lines
before it give the same figures for people, plus the error rate, raw times
and, for the session, latency per request label.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("involution", "skew-lr", "perp", "session")
DEFAULT_SEED = 0
MIN_RUNS = 3
# Set-up is short and noisy, so each untraced run also starts this many
# children that stop where the timed section would start.
SETUP_RUNS = 10
# The whole command must end within 180 s; a child gets what is left of it.
DEADLINE_S = 175


class RunFailed(Exception):
    """A child exited with a nonzero status, so it has no result to check."""


def spawn(workload: str, seed: int, size: str, trace: bool, timeout: float, setup_only: bool = False) -> dict:
    """Run one child to completion and return its JSON result."""
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed), "--size", size,
        "--trace", "1" if trace else "0",
    ] + (["--setup-only"] if setup_only else [])
    spawned_at = time.monotonic()
    proc = subprocess.run(
        cmd + ["--spawned-at", repr(spawned_at)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout,
    )
    if proc.returncode != 0:
        raise RunFailed(f"{workload} run exited with status {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def check_child(workload: str, size: str, seed: int, child: dict, expected: dict) -> list[str]:
    """Problems with one child's outputs; empty when it passes the gate."""
    problems = []
    want = expected["counts"][size][workload]
    if child["ops"] != want["ops"]:
        problems.append(f"{workload}: {child['ops']} operations, expected {want['ops']}")
    if workload == "session":
        for argv in child["failed_requests"]:
            problems.append(f"session: request failed: {argv}")
        for bad in child["cross_check_failures"]:
            problems.append(f"session: {bad['problem']}: {bad['argv']}")
        digest = expected["session_digest"][size]
        if seed == DEFAULT_SEED and child["digest"] != digest:
            problems.append(f"session: output digest {child['digest']} != recorded {digest}")
    else:
        report = child["report"]
        for line in report["failures"]:
            problems.append(f"{workload}: sweep failure: {line}")
        for key, value in want["report"].items():
            if report[key] != value:
                problems.append(f"{workload}: report {key} = {report[key]}, expected {value}")
    return problems


def output_of(workload: str, child: dict):
    """What the program produced in a child, for comparing runs."""
    return child["digest"] if workload == "session" else child["report"]


def failed_ops(workload: str, child: dict) -> int:
    if workload == "session":
        return len(child["failed_requests"]) + len(child["cross_check_failures"])
    return len(child["report"]["failures"])


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def end_to_end(children: list[dict], setups: list[dict]) -> dict[str, float]:
    """Medians over runs of each run's figures; set-up also over the
    set-up-only children."""
    med = statistics.median
    return {
        "setup_s": med(c["setup_s"] for c in children + setups),
        "wall_s": med(c["wall_s"] for c in children),
        "ops_per_s": med(c["ops"] / c["wall_s"] for c in children),
        "latency_p50_ms": med(percentile(c["latencies_ms"], 0.5) for c in children),
        "latency_p90_ms": med(percentile(c["latencies_ms"], 0.9) for c in children),
        "peak_rss_mb": med(c["peak_rss_mb"] for c in children),
    }


def per_layer(traced: list[dict], untraced: list[dict]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics: counts from the traced runs, which must agree run to
    run, and medians of the times."""
    problems = []
    first = traced[0]["layers"]
    out = {}
    for name, value in first.items():
        values = [c["layers"][name] for c in traced]
        if name.endswith("_s"):
            out[name] = statistics.median(values)
        else:
            if any(v != value for v in values):
                problems.append(f"trace: {name} differs between traced runs: {values}")
            out[name] = value
    out["bench.trace_overhead_s"] = (
        statistics.median(c["wall_s"] for c in traced) - statistics.median(c["wall_s"] for c in untraced)
    )
    return out, problems


def measure(workload: str, seed: int, seconds: float, size: str, trace: bool, expected: dict):
    """Run children until the time is up, then, untraced, the set-up-only
    children; return (traced, untraced, setups, problems)."""
    start = time.monotonic()
    traced: list[dict] = []
    untraced: list[dict] = []
    durations: list[float] = []
    problems: list[str] = []
    while True:
        traced_run = trace and len(traced) <= len(untraced)
        t0 = time.monotonic()
        child = spawn(workload, seed, size, traced_run, DEADLINE_S - (t0 - start))
        durations.append(time.monotonic() - t0)
        problems += check_child(workload, size, seed, child, expected)
        (traced if traced_run else untraced).append(child)
        elapsed = time.monotonic() - start
        enough = len(untraced) >= (1 if trace else MIN_RUNS) and len(traced) >= (1 if trace else 0)
        if enough and elapsed + max(durations[-2:]) > seconds:
            break
    setups = [] if trace else [
        spawn(workload, seed, size, False, DEADLINE_S - (time.monotonic() - start), setup_only=True)
        for _ in range(SETUP_RUNS)
    ]
    outputs = {json.dumps(output_of(workload, c), sort_keys=True) for c in traced + untraced}
    if len(outputs) > 1:
        problems.append(f"{workload}: runs of the same seed produced different outputs")
    return traced, untraced, setups, problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["full", "small"], default="full",
                        help="small shrinks every workload, for the benchmark's own tests")
    args = parser.parse_args()

    if not (ROOT / "src" / "skewtab" / "__init__.py").is_file():
        print(f"no skewtab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = json.loads((HERE / "expected.json").read_text())

    try:
        traced, untraced, setups, problems = measure(
            args.workload, args.seed, args.seconds, args.size, bool(args.trace), expected
        )
    except (RunFailed, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    children = traced + untraced
    attempted = sum(c["ops"] for c in children)
    failed = sum(failed_ops(args.workload, c) for c in children)

    if args.trace:
        values, trace_problems = per_layer(traced, untraced)
        problems += trace_problems
        metrics = spec["per_layer"]
    else:
        values = end_to_end(untraced, setups)
        metrics = spec["end_to_end"]

    print(f"workload {args.workload}, seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced runs and {len(setups)} set-up-only runs, each in a fresh interpreter")
    result = {}
    for m in metrics:
        result[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"  {m['name']:34} {values[m['name']]:>16.6g} {m['unit']}")
    print(f"  {'error_rate':34} {failed / attempted:>16.6g} ({failed} failed of {attempted} attempted)")
    for label, runs in (("untraced", untraced), ("traced", traced)):
        if runs:
            walls = " ".join(f"{c['wall_s']:.3f}" for c in runs)
            raw = " ".join(f"{c['raw_wall_s']:.3f}" for c in runs)
            probes = " ".join(f"{statistics.median(c['probe_ms']):.3f}" for c in runs)
            print(f"  {label} runs: wall_s {walls}")
            print(f"  {label} runs: raw wall_s {raw}")
            print(f"  {label} runs: median probe ms {probes}")
    if args.workload == "session":
        print("  per request label: requests per run, then latency p50 / p90 in ms (median over runs)")
        for label, ms in children[0]["label_latencies_ms"].items():
            p50 = statistics.median(percentile(c["label_latencies_ms"][label], 0.5) for c in children)
            p90 = statistics.median(percentile(c["label_latencies_ms"][label], 0.9) for c in children)
            print(f"    {label:24} {len(ms):>5} {p50:>10.4g} {p90:>10.4g}")
    for line in problems:
        print(f"FAIL {line}", file=sys.stderr)
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": result}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
