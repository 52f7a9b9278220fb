"""Timing that does not drift with the machine's speed.

On a shared machine the interpreter's speed can change by a factor of two
within seconds: the same probe takes anywhere from 1.8 to 3.7 ms on a 2-vCPU
Xeon virtual machine, and the process's CPU time moves with its wall time, so
the code runs slower rather than waiting more. Raw times of identical runs
then spread by 10-40 %, more than any bound a benchmark can usefully keep.
So the timed section is cut into intervals at operation boundaries, and a
fixed probe samples the speed every PROBE_EVERY_NS between two intervals.
Probe time is left out of every interval.

A probe is a fixed piece of pure-Python work that shares no code with
skewtab, run with the garbage collector held off so that the program's live
objects do not change its cost. It must slow down as the measured work does,
and kinds of work slow down by different amounts, so there are two:
SWEEP_PROBE builds tuples into a dict in a tight loop, as the sweeps do, and
CLI_PROBE builds an argparse parser and parses one command line, which is
where a CLI session spends most of its time.

Each interval's time is scaled by the speed sampled around it: the mean of
reference time / probe time over the probes just before and just after it.
A scaled time is what the interval would have taken at the reference speed,
the speed at which each probe takes its reference time. The reference times
are near the fastest each probe took when run in a loop by itself on that
machine (2.0 GHz, Python 3.11.7); they fix the unit, nothing more. Raw times
are kept alongside.

What the scaling cannot remove is a change in speed faster than the probes
can follow, and any difference between how the probe and the work slow down.
"""

from __future__ import annotations

import argparse
import gc
from time import perf_counter_ns

PROBE_EVERY_NS = 20_000_000


def _enumerate_partitions() -> None:
    def partitions(n: int, cap: int):
        if n == 0:
            yield ()
            return
        for k in range(min(n, cap), 0, -1):
            for rest in partitions(n - k, k):
                yield (k,) + rest

    seen = {}
    for p in partitions(20, 20):  # 627 partitions
        seen[p] = len(p)


def _parse_arguments() -> None:
    for _ in range(2):
        parser = argparse.ArgumentParser(prog="probe")
        sub = parser.add_subparsers(dest="command", required=True)
        for name in ("alpha", "beta", "gamma"):
            p = sub.add_parser(name, help=f"the {name} command")
            p.add_argument("shape", help="a shape")
            p.add_argument("--n", type=int, default=1, help="a size")
            p.add_argument("--flag", action="store_true")
            p.add_argument("--format", choices=["text", "json"], default="text")
        parser.parse_args(["beta", "3,2,1/1", "--n", "2", "--format", "json"])


class Probe:
    def __init__(self, work, reference_ms: float) -> None:
        self._work = work
        self.reference_ns = reference_ms * 1e6

    def run(self) -> int:
        """Nanoseconds the probe's work takes now."""
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter_ns()
            self._work()
            return perf_counter_ns() - start
        finally:
            if was_enabled:
                gc.enable()

    def speed(self, ns: int) -> float:
        """Measured speed over the reference speed, from one run's time."""
        return self.reference_ns / ns


# Reference times: near each probe's fastest, run in a loop by itself.
SWEEP_PROBE = Probe(_enumerate_partitions, reference_ms=2.0)
CLI_PROBE = Probe(_parse_arguments, reference_ms=1.7)


class Timeline:
    """One timed section, cut into intervals at operation boundaries.

    begin() opens the first interval, mark() closes the current one and opens
    the next (an operation starts there), end() closes the last. Interval 0
    runs from begin() to the first mark(); interval k (k >= 1) is operation k.
    `sampler` runs the probe; a tracer may pass a wrapped probe.run so that
    its time is kept out of the layers' self time.
    """

    def __init__(self, probe: Probe, sampler=None) -> None:
        self._probe = probe
        self._sampler = sampler or probe.run
        self.samples: list[int] = []  # ns per probe, in order
        self.raw_ns: list[int] = []  # ns per interval, probes left out
        self._probe_before: list[int] = []  # per interval: the last probe before it
        self._opened = 0
        self._last_probe = 0

    def _sample(self) -> None:
        self.samples.append(self._sampler())
        self._last_probe = perf_counter_ns()

    def _close(self) -> int:
        now = perf_counter_ns()
        self.raw_ns.append(now - self._opened)
        self._probe_before.append(len(self.samples) - 1)
        return now

    def begin(self) -> None:
        self._sample()
        self._opened = perf_counter_ns()

    def mark(self) -> None:
        if self._close() - self._last_probe >= PROBE_EVERY_NS:
            self._sample()
        self._opened = perf_counter_ns()

    def end(self) -> None:
        self._close()
        self._sample()

    def speeds(self) -> list[float]:
        """The speed at each probe, relative to the reference speed."""
        return [self._probe.speed(ns) for ns in self.samples]

    def scaled_ns(self) -> list[float]:
        """Each interval's time at the reference speed."""
        f = self.speeds()
        return [raw * (f[i] + f[i + 1]) / 2 for raw, i in zip(self.raw_ns, self._probe_before)]
