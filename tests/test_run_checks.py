"""The sweep table `rules.SWEEPS` against its readers: the `verify` parser and
the reports `scripts/run_checks.py` committed. No test here runs a sweep."""

import json
from pathlib import Path

import pytest

from skewtab.cli import build_parser
from skewtab.rules import SWEEPS

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _reports(tier: str) -> list[dict]:
    lines = (SCRIPTS / f"run_checks_{tier}.jsonl").read_text().splitlines()
    return [json.loads(line) for line in lines]


def test_deep_reports_hold_the_pinned_counts():
    reports = _reports("deep")
    assert all(r["ok"] is True and r["failures"] == [] for r in reports)
    by_sweep = {}
    for r in reports:
        by_sweep.setdefault(r["sweep"], []).append(r)
    involution = [
        (r["limit_outer"], r["limit_n"], r["max_entry"], r["cases"], r["contexts"])
        for r in by_sweep["involution"]
    ]
    assert involution == [(6, 2, 3, 690, 44706), (5, 3, 3, 440, 40920)]
    (pieri,) = by_sweep["skew-pieri"]
    assert (pieri["limit_outer"], pieri["limit_n"], pieri["schur_cases"]) == (7, 3, 1347)
    (lr,) = by_sweep["skew-lr"]
    assert (lr["limit_outer_a"], lr["limit_outer_b"], lr["cases"]) == (6, 5, 25300)
    (perp,) = by_sweep["perp"]
    assert (perp["max_deg"], perp["max_n"], perp["cases"]) == (6, 2, 1800)


@pytest.mark.parametrize("tier", ["full", "deep"])
def test_one_table(tier):
    commands = next(a.choices for a in build_parser()._actions if a.dest == "command")
    verify = commands["verify"]._actions
    assert list(next(a.choices for a in verify if a.dest == "target")) == list(SWEEPS)
    options = {a.dest for a in verify if a.option_strings}
    for sweep in SWEEPS.values():
        assert set(sweep.flags) <= options
        assert {len(limits) for limits in (sweep.full, *sweep.deep)} == {len(sweep.flags)}
    # A report's first values are its limits, one per flag of its row.
    want = [
        (name, limits)
        for name, sweep in SWEEPS.items()
        for limits in (sweep.deep if tier == "deep" else (sweep.full,))
    ]
    got = [(r["sweep"], tuple(r.values())[: len(SWEEPS[r["sweep"]].flags)]) for r in _reports(tier)]
    assert got == want
