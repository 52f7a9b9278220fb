"""Tests of the benchmark itself, at reduced size.

    python3 -m pytest bench -q

They run every workload through bench/run.py with --size small, check that
the correctness gate rejects bad outputs, and that the tracer's counters
agree with the program's own numbers.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import session  # noqa: E402
import speed  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXPECTED = json.loads((HERE / "expected.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_workload_reports_every_end_to_end_metric(workload):
    out = result_of(bench("--workload", workload, "--size", "small", "--seconds", "0"))
    assert out["correct"] is True
    assert out["failed"] == 0
    assert out["attempted"] == run.MIN_RUNS * EXPECTED["counts"]["small"][workload]["ops"]
    assert [m["name"] for m in SPEC["end_to_end"]] == list(out["metrics"])
    for m in SPEC["end_to_end"]:
        assert out["metrics"][m["name"]]["unit"] == m["unit"]
        assert out["metrics"][m["name"]]["value"] > 0


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    out = result_of(bench("--workload", workload, "--size", "small", "--seconds", "0", "--trace", "1"))
    assert out["correct"] is True
    assert [m["name"] for m in SPEC["per_layer"]] == list(out["metrics"])
    v = {name: m["value"] for name, m in out["metrics"].items()}
    assert v["insertion.calls"] == v["insertion.reverse_calls"] + v["insertion.bump_calls"]
    assert v["involution.phi_calls"] == v["involution.down_slides"] + v["involution.up_slides"]
    assert v["rules.pairs_admitted"] <= v["rules.pairs_built"]
    if workload == "involution":
        contexts = EXPECTED["counts"]["small"]["involution"]["report"]["contexts"]
        assert v["involution.phi_calls"] == 2 * contexts
    if workload == "skew-lr":
        assert v["rules.admit_ratio"] == v["rules.pairs_admitted"] / v["rules.pairs_built"]
    if workload == "session":
        assert v["cli.requests"] == EXPECTED["counts"]["small"]["session"]["ops"]
        assert 0 < v["cli.parse_s"] <= v["cli.self_s"]


def test_command_fails_without_program_sources(tmp_path):
    (tmp_path / "bench").mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for f in HERE.glob("*.py"):
        shutil.copy(f, tmp_path / "bench")
    shutil.copy(HERE / "expected.json", tmp_path / "bench")
    proc = bench("--workload", "perp", "--size", "small", "--seconds", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _sweep_child(**report) -> dict:
    want = EXPECTED["counts"]["small"]["perp"]
    base = {"failures": [], **want["report"]}
    return {"ops": want["ops"], "report": {**base, **report}}


def test_gate_passes_a_good_sweep():
    assert run.check_child("perp", "small", 0, _sweep_child(), EXPECTED) == []


def test_gate_rejects_sweep_failures_and_wrong_counts():
    bad = run.check_child("perp", "small", 0, _sweep_child(failures=["perp identity failed"]), EXPECTED)
    assert any("sweep failure" in p for p in bad)
    bad = run.check_child("perp", "small", 0, _sweep_child(cases=97), EXPECTED)
    assert any("cases = 97" in p for p in bad)
    child = _sweep_child()
    child["ops"] -= 1
    assert run.check_child("perp", "small", 0, child, EXPECTED)


def _session_child(**fields) -> dict:
    child = {
        "ops": EXPECTED["counts"]["small"]["session"]["ops"],
        "failed_requests": [],
        "cross_check_failures": [],
        "digest": EXPECTED["session_digest"]["small"],
    }
    child.update(fields)
    return child


def test_gate_rejects_session_failures_and_digest_drift():
    assert run.check_child("session", "small", run.DEFAULT_SEED, _session_child(), EXPECTED) == []
    drifted = _session_child(digest="0" * 64)
    assert run.check_child("session", "small", run.DEFAULT_SEED, drifted, EXPECTED)
    # The digest is recorded for the default seed only.
    assert run.check_child("session", "small", run.DEFAULT_SEED + 1, drifted, EXPECTED) == []
    failing = _session_child(cross_check_failures=[{"argv": ["product", "1", "1"], "problem": "wrong"}])
    assert run.check_child("session", "small", 5, failing, EXPECTED)
    assert run.check_child("session", "small", 5, _session_child(failed_requests=[["expand"]]), EXPECTED)


def test_trace_counts_must_repeat_between_runs():
    a = {"wall_s": 2.0, "layers": {"rules.pairs_built": 10, "rules.self_s": 0.5}}
    b = {"wall_s": 2.2, "layers": {"rules.pairs_built": 11, "rules.self_s": 0.6}}
    values, problems = run.per_layer([a, b], [{"wall_s": 1.5}])
    assert problems and "rules.pairs_built" in problems[0]
    assert values["bench.trace_overhead_s"] == pytest.approx(0.6)


def test_cross_check_catches_wrong_answers():
    argv = ["product", "2,1", "1", "--rule", "schur"]
    assert session.cross_check(argv, 0, "+ s[2,1,1]\n+ s[2,2]\n+ s[3,1]\n") is None
    assert session.cross_check(argv, 0, "+ s[2,1,1]\n+ s[3,1]\n") is not None
    assert session.cross_check(argv, 2, "") is not None
    trace = ["trace", "slide", "2,2/1,1", "2,2/1: [2][1,3]", "--op", "phi"]
    assert session.cross_check(trace, 0, "result: 2,2,1/1,1: [2][3][1]\n") is None
    assert session.cross_check(trace, 0, "result: 2,2/1: [2][1,3]\n") is not None


def test_session_stream_is_seeded_argv_only():
    requests, labels = session.generate(7, 200)
    assert (requests, labels) == session.generate(7, 200)
    assert requests != session.generate(8, 200)[0]
    assert len(labels) == 200
    assert {label.removesuffix(":repeat") for label in labels} == set(session.KINDS)
    assert any(label.endswith(":repeat") for label in labels)
    assert all(isinstance(arg, str) for argv in requests for arg in argv)
    assert {argv[0] for argv in requests} == {"expand", "product", "trace"}


def test_tracer_wraps_every_binding_and_restores_them():
    import skewtab.involution
    import skewtab.rules

    before = [dict(vars(m)) for m in layers.modules()]
    bump_in = skewtab.involution._bump_in
    fillings = skewtab.rules.enumerate_fillings
    post_init = skewtab.involution.SlideContext.__dict__["__post_init__"]
    tracer = layers.Tracer()
    tracer.install()
    try:
        # Names imported into another layer's namespace are wrapped there too.
        assert skewtab.involution._bump_in is not bump_in
        assert skewtab.rules.enumerate_fillings is not fillings
        assert skewtab.involution.SlideContext.__dict__["__post_init__"] is not post_init
    finally:
        tracer.uninstall()
    assert [dict(vars(m)) for m in layers.modules()] == before
    assert skewtab.involution.SlideContext.__dict__["__post_init__"] is post_init


def test_generator_layers_are_not_charged_for_consumer_time():
    import skewtab.rules
    from skewtab import SkewShape

    tracer = layers.Tracer()
    tracer.install()
    try:
        pairs = 0
        for _ in skewtab.rules.skew_lr_pairs(SkewShape.of((2, 1)), SkewShape.of((2,))):
            pairs += 1
            time.sleep(0.02)
    finally:
        tracer.uninstall()
    assert pairs >= 2
    self_s = tracer.self_times()
    assert sum(self_s.values()) < 0.02
    assert tracer.stat("items", "rules.skew_lr_pairs") == pairs


def test_timeline_scales_each_interval_and_leaves_probes_out():
    ref_ns = speed.SWEEP_PROBE.reference_ns
    # Probes report the reference speed, then half of it; each takes 30 ms.
    reported = iter([ref_ns, 2 * ref_ns, 2 * ref_ns, 2 * ref_ns])

    def sampler():
        time.sleep(0.03)
        return next(reported)

    timeline = speed.Timeline(speed.SWEEP_PROBE, sampler)
    timeline.begin()
    time.sleep(speed.PROBE_EVERY_NS / 1e9)
    timeline.mark()  # due: probes here, at half speed
    timeline.mark()  # not due
    timeline.end()
    assert timeline.samples == [ref_ns, 2 * ref_ns, 2 * ref_ns]
    assert len(timeline.raw_ns) == 3
    # No interval holds a 30 ms probe.
    assert timeline.raw_ns[1] < 0.03e9 and timeline.raw_ns[2] < 0.03e9
    scaled = timeline.scaled_ns()
    assert scaled[0] == pytest.approx(timeline.raw_ns[0] * 0.75)
    assert scaled[1] == pytest.approx(timeline.raw_ns[1] * 0.5)
    assert scaled[2] == pytest.approx(timeline.raw_ns[2] * 0.5)
    assert timeline.speeds() == [1.0, 0.5, 0.5]
