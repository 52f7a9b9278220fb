#!/usr/bin/env python3
"""Run every exhaustive verification sweep in skewtab.rules.SWEEPS, in table
order, and print one JSON report per limit set to stdout and each run's time
in seconds to stderr, so stdout is byte-identical across runs of the same
code. Exits nonzero if any sweep records a failure.

Usage: python3 scripts/run_checks.py [--deep]

By default each sweep runs once, at its full limits; the reports are
recorded in scripts/run_checks_full.jsonl. --deep runs each sweep at each of
its deep limit sets instead, past the limits tier-1 reaches; those reports
are recorded in scripts/run_checks_deep.jsonl.
"""

import argparse
import json
import sys
import time
from pathlib import Path

# Run from a plain checkout: import the package from this checkout's src/.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from skewtab.rules import SWEEPS  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--deep", action="store_true", help="run each sweep at its deep limit sets instead"
    )
    args = parser.parse_args()

    bad = 0
    for name, sweep in SWEEPS.items():
        for limits in sweep.deep if args.deep else (sweep.full,):
            start = time.perf_counter()
            report = sweep.run(*limits)
            seconds = time.perf_counter() - start
            report["sweep"] = name
            report["ok"] = not report["failures"]
            bad += len(report["failures"])
            print(json.dumps(report))
            print(f"{name} {limits}: {seconds:.3f} s", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
