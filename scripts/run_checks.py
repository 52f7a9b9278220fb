#!/usr/bin/env python3
"""Run the four exhaustive verification sweeps at their full limits and print
one JSON report per line to stdout, and each sweep's time in seconds to
stderr, so stdout is byte-identical across runs of the same code. Exits
nonzero if any sweep records a failure.

Usage: python3 scripts/run_checks.py [--fast]

--fast shrinks every limit by one for a quick smoke pass.
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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fast", action="store_true", help="shrink limits for a smoke pass")
    args = parser.parse_args()
    shrink = 1 if args.fast else 0

    sweeps = [
        ("involution", lambda: verify_involution(5 - shrink, 2, 3)),
        ("skew-pieri", lambda: verify_skew_pieri(6 - shrink, 3 - shrink)),
        ("skew-lr", lambda: verify_skew_lr(5 - shrink, 4 - shrink)),
        ("perp", lambda: verify_perp_range(4 - shrink, 3 - shrink)),
    ]

    bad = 0
    for name, sweep in sweeps:
        start = time.perf_counter()
        report = sweep()
        seconds = time.perf_counter() - start
        report["sweep"] = name
        report["ok"] = not report["failures"]
        bad += len(report["failures"])
        print(json.dumps(report))
        print(f"{name}: {seconds:.3f} s", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
