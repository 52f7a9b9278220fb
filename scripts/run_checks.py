#!/usr/bin/env python3
"""Run the four exhaustive verification sweeps at their full limits and print
one JSON report per line to stdout, and each sweep's time in seconds to
stderr, so stdout is byte-identical across runs of the same code. Exits
nonzero if any sweep records a failure.

Usage: python3 scripts/run_checks.py [--fast]

--fast runs each sweep at its smaller limits in SWEEPS, for a quick smoke
pass. Every sweep's size limit drops by one, and so does its second limit,
except involution's: it keeps n <= 2 and entries <= 3. skew-pieri's monomial
and involution checks have fixed limits of their own (|outer| <= 5, n <= 2)
that lie within both runs' limits, so --fast runs the same cases of those two
checks as the full run.
"""

import argparse
import json
import sys
import time
from pathlib import Path

# Run from a plain checkout: import the package from this checkout's src/.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from skewtab import (  # noqa: E402
    verify_perp_range,
    verify_involution,
    verify_skew_lr,
    verify_skew_pieri,
)

# Each sweep with its positional limits: the full run's, then --fast's.
SWEEPS = [
    ("involution", verify_involution, (5, 2, 3), (4, 2, 3)),
    ("skew-pieri", verify_skew_pieri, (6, 3), (5, 2)),
    ("skew-lr", verify_skew_lr, (5, 4), (4, 3)),
    ("perp", verify_perp_range, (4, 3), (3, 2)),
]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--fast", action="store_true", help="run each sweep at its smaller limits, for a smoke pass"
    )
    args = parser.parse_args()

    bad = 0
    for name, sweep, full, fast in SWEEPS:
        start = time.perf_counter()
        report = sweep(*(fast if args.fast else full))
        seconds = time.perf_counter() - start
        report["sweep"] = name
        report["ok"] = not report["failures"]
        bad += len(report["failures"])
        print(json.dumps(report))
        print(f"{name}: {seconds:.3f} s", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
