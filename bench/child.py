"""One measured run of one workload, in a fresh interpreter.

Started by run.py, one at a time, so every lru_cache in skewtab starts empty,
as it does in a user's sweep or CLI session. Prints one JSON object: set-up
time, the timed section's wall time and per-operation latencies (scaled to
the reference speed by speed.py, and raw), peak RSS, the sweep report or
session outcome, cache_info() of the program's caches and, with --trace 1,
the per-layer metrics. With --setup-only it stops where the timed section
would start and prints the set-up time alone.

    python3 bench/child.py --workload involution --spawned-at <monotonic s>
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
sys.path.insert(0, str(ROOT / "src"))

import speed  # noqa: E402

# The speed as set-up starts, sampled before skewtab is imported.
START_PROBE_NS = speed.SWEEP_PROBE.run()

import skewtab  # noqa: E402
import skewtab.cli  # noqa: E402
import layers  # noqa: E402
import session  # noqa: E402

# Sweep limits per size: "full" is scripts/run_checks.py's full limits; "small"
# is its --fast limits, for the benchmark's own tests.
SWEEPS = {
    "involution": {"full": (5, 2, 3), "small": (4, 2, 3)},
    "skew-lr": {"full": (5, 4), "small": (4, 3)},
    "perp": {"full": (4, 3), "small": (3, 2)},
}
SESSION_REQUESTS = {"full": 1000, "small": 120}

# The function each sweep calls once per operation, patched to mark each
# operation's start on the timeline.
OP_MARKERS = {
    "involution": ("skewtab.involution", "enumerate_contexts"),  # yields each context
    "skew-lr": ("skewtab.rules", "skew_lr_product"),  # called once per product
    "perp": ("skewtab.rules", "verify_perp_identities"),  # called once per case
}


@contextlib.contextmanager
def op_marks(workload: str, timeline: speed.Timeline):
    """Mark the timeline at the start of each sweep operation."""
    module_name, attr = OP_MARKERS[workload]
    module = importlib.import_module(module_name)
    inner = getattr(module, attr)

    if workload == "involution":
        def marked(*args, **kwargs):
            for item in inner(*args, **kwargs):
                timeline.mark()
                yield item
    else:
        def marked(*args, **kwargs):
            timeline.mark()
            return inner(*args, **kwargs)

    setattr(module, attr, marked)
    try:
        yield
    finally:
        setattr(module, attr, inner)


@contextlib.contextmanager
def traced(tracer):
    if tracer is None:
        yield
        return
    tracer.install()
    try:
        yield
    finally:
        tracer.uninstall()


def new_timeline(workload: str, tracer) -> speed.Timeline:
    probe = speed.CLI_PROBE if workload == "session" else speed.SWEEP_PROBE
    # A traced run records each probe as a span of its own, so that its time
    # is not charged to the layer that was running when it was taken.
    return speed.Timeline(probe, None if tracer is None else tracer.wrap(probe.run, "bench.probe"))


def timings(timeline: speed.Timeline) -> dict:
    """Wall time and per-operation latencies, scaled and raw. Interval 0 runs
    up to the first operation; each later one is an operation."""
    scaled = timeline.scaled_ns()
    return {
        "wall_s": sum(scaled) / 1e9,
        "raw_wall_s": sum(timeline.raw_ns) / 1e9,
        "op_ms": [ns / 1e6 for ns in scaled[1:]],
        "probe_ms": [ns / 1e6 for ns in timeline.samples],
    }


def setup_times(spawned_at: float, timed_from: float, timeline: speed.Timeline) -> dict:
    """Set-up runs from just before the process is started up to the timed
    section: interpreter start, imports and, for the session, generating the
    request stream. It is scaled by the mean speed of the probe taken as it
    starts (whose own time is left out) and the one as the timed section
    begins."""
    raw = timed_from - spawned_at - START_PROBE_NS / 1e9
    scale = (speed.SWEEP_PROBE.speed(START_PROBE_NS) + timeline.speeds()[0]) / 2
    return {"raw_setup_s": raw, "setup_s": raw * scale}


def run_sweep(workload: str, size: str, tracer, timeline: speed.Timeline) -> dict:
    verify = {
        "involution": skewtab.verify_involution,
        "skew-lr": skewtab.verify_skew_lr,
        "perp": skewtab.verify_perp_range,
    }[workload]
    limits = SWEEPS[workload][size]
    # The tracer goes in first so that it finds the program's own bindings;
    # the operation marks then wrap whatever is bound.
    with traced(tracer), op_marks(workload, timeline):
        report = verify(*limits)
    timeline.end()
    run = timings(timeline)
    run.update(ops=len(run["op_ms"]), latencies_ms=sorted(run.pop("op_ms")), report=report)
    return run


def run_session(requests: list[list[str]], labels: list[str], tracer, timeline: speed.Timeline) -> dict:
    cli = skewtab.cli
    outputs: list[tuple[int | None, str]] = []
    with traced(tracer):
        for argv in requests:
            timeline.mark()
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.run(list(argv))
                except Exception:
                    code = None
                    traceback.print_exc()
            outputs.append((code, out.getvalue()))
            if code != 0:
                print(f"request {argv} -> {code}: {err.getvalue()}", file=sys.stderr)
    timeline.end()
    run = timings(timeline)
    request_ms = run.pop("op_ms")
    run.update(
        ops=len(requests),
        latencies_ms=sorted(request_ms),
        label_latencies_ms={
            label: sorted(ms for ms, other in zip(request_ms, labels) if other == label)
            for label in sorted(set(labels))
        },
        requests=requests,
        outputs=outputs,
    )
    return run


def session_outcome(run: dict) -> dict:
    """Request failures, cross-check failures and the output digest."""
    digest = hashlib.sha256()
    failed = []
    mismatches = []
    for argv, (code, stdout) in zip(run.pop("requests"), run.pop("outputs")):
        digest.update(json.dumps([argv, code, stdout]).encode())
        if code != 0:
            failed.append(argv)
            continue
        problem = session.cross_check(argv, code, stdout)
        if problem:
            mismatches.append({"argv": argv, "problem": problem})
    return {"failed_requests": failed, "cross_check_failures": mismatches, "digest": digest.hexdigest()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*SWEEPS, "session"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--size", choices=["full", "small"], default="full")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() just before this process was started")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop where the timed section would start; report set-up only")
    args = parser.parse_args()

    if not Path(skewtab.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"skewtab imported from {skewtab.__file__}, not from this checkout", file=sys.stderr)
        return 2
    tracer = layers.Tracer() if args.trace else None
    timeline = new_timeline(args.workload, tracer)
    if args.workload == "session":
        requests, labels = session.generate(args.seed, SESSION_REQUESTS[args.size])
    timed_from = time.monotonic()
    timeline.begin()
    if args.setup_only:
        print(json.dumps(setup_times(args.spawned_at, timed_from, timeline)))
        return 0
    if args.workload == "session":
        run = run_session(requests, labels, tracer, timeline)
    else:
        run = run_sweep(args.workload, args.size, tracer, timeline)
    run["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    run.update(setup_times(args.spawned_at, timed_from, timeline))
    caches = run["caches"] = layers.cache_info()
    if tracer is not None:
        # Layer times are scaled by the run's overall scale.
        scale = run["wall_s"] / run["raw_wall_s"]
        run["layers"] = {
            name: value * scale if name.endswith("_s") else value
            for name, value in tracer.metrics(caches).items()
        }
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"spans-{args.workload}.tsv")
    if args.workload == "session":
        run.update(session_outcome(run))
    print(json.dumps(run))
    return 0


if __name__ == "__main__":
    sys.exit(main())
