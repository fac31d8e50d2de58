"""Measure how fast the shared host runs while set-up and jobs run.

The benchmark's host has 2 shared cores.  Their speed flips between two modes
about 2x apart every few seconds, and the share of time spent in the slow
mode drifts over minutes.  Every workload slows alike, so wall times vary by
2x.  While set-up or the jobs run, `Sampler` times a short fixed kernel from a
SIGALRM handler at a fixed interval.  Each sample takes the host's speed at
that moment.  `reference_seconds` divides the elapsed time, less the time
spent in the handler, by the mean sample, and multiplies by
REFERENCE_SAMPLE_S, the kernel's time in the host's fast mode.  The result is
the time the work would take at that reference speed; most of the host's
drift cancels out of it.

The kernel does what the library mostly does: tuple, set and dict work,
float math and small frozen dataclasses.  It uses no code of the library, so
no library change can move it.  The handler touches no state of the program
it interrupts, and it suspends garbage collection while it samples.
"""

from __future__ import annotations

import gc
import math
import signal
import time
from dataclasses import dataclass

PASS_INTERVAL_S = 0.05
SETUP_INTERVAL_S = 0.01  # set-up lasts about 0.1 s
STEPS = 800
# the kernel's time in the fast mode of the 2-core shared x86 host the
# benchmark was defined on; a fixed unit, so it must never be re-measured
REFERENCE_SAMPLE_S = 1.3e-3


@dataclass(frozen=True)
class _Item:
    key: tuple[int, int, int]
    value: float


def _kernel(steps: int) -> float:
    seen: set[tuple[int, int, int]] = set()
    table: dict[int, float] = {}
    items: list[_Item] = []
    acc = 0.0
    for i in range(steps):
        key = (i % 31, (i * 7) % 37, i % 13)
        seen.add(key)
        slot = i % 97
        table[slot] = table.get(slot, 0.0) + math.sqrt(i)
        acc += max(key) - min(key)
        items.append(_Item(key, acc))
    return acc + len(seen) + len(table) + len(items)


class Sampler:
    """Context manager that times the kernel every `interval_s` of wall time."""

    def __init__(self, interval_s: float) -> None:
        self.interval_s = interval_s
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        # no collection inside a sample: its cost depends on the interrupted program
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            t = time.perf_counter()
            _kernel(STEPS)
            self.samples.append(time.perf_counter() - t)
        finally:
            if was_enabled:
                gc.enable()

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def reference_seconds(self, elapsed_s: float) -> float:
        """`elapsed_s`, less the sampling time, at the reference speed."""
        if not self.samples:  # shorter than one interval: sample once now
            self._sample(None, None)
            return elapsed_s / self.samples[0] * REFERENCE_SAMPLE_S
        mean = sum(self.samples) / len(self.samples)
        return (elapsed_s - sum(self.samples)) / mean * REFERENCE_SAMPLE_S
