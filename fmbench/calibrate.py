"""Machine-speed calibration for a shared, noisy host.

On the reference machine (2 vCPUs shared with other tenants) the same
fmcheck work runs up to 1.6x slower for stretches of seconds to minutes,
with almost no steal time.  A calibration sample times a fixed piece of
work that shares no code with fmcheck but slows down in the same phases.
Each measured time is multiplied by (the sample's undisturbed time on the
reference machine) / (the mean of the samples before and after it), which
turns it into seconds at the reference machine's undisturbed speed.

Two kinds of sample, one per kind of work:

- `interpreter_sample`: pure-Python work like fmcheck's jet layer
  (small-object allocation, complex arithmetic, method calls); for work
  done inside a warm process.
- `start_sample`: a fresh interpreter that imports numpy and exits; for
  work that is mostly process start and import, such as one CLI run or the
  benchmark's own set-up.

`pin()` keeps the calling process, and every process it starts, on one
CPU, so that calibration and measured work share the same core.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b

    def mul(self, other):
        return _Pair(self.a * other.a, self.a * other.b + self.b * other.a)


def _kernel(n: int) -> complex:
    acc = _Pair(1 + 0j, 0j)
    step = _Pair(complex(1.0, 1e-3), complex(0.5, -0.25))
    table = {}
    for i in range(n):
        acc = acc.mul(step)
        acc = _Pair(acc.a / abs(acc.a), acc.b / (1.0 + abs(acc.b)))
        table[i % 17] = [acc.a, acc.b, i]
    return acc.a + sum(v[1] for v in table.values())


def interpreter_sample() -> float:
    """Seconds taken by a fixed amount of interpreter work."""
    t0 = time.perf_counter()
    _kernel(6000)
    return time.perf_counter() - t0


def start_sample(env) -> float:
    """Seconds for a fresh interpreter to start, import numpy and exit."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], env=env, check=True, timeout=60)
    return time.perf_counter() - t0


@dataclass(frozen=True)
class Calibration:
    """A sample, its undisturbed time on the reference machine, and the
    least time between two samples."""
    sample: Callable[[], float]
    reference_s: float
    every_s: float

    def scale(self, before: float, after: float) -> float:
        """Factor from local seconds to reference seconds for work done
        between two samples."""
        return self.reference_s / ((before + after) / 2)


INTERPRETER = Calibration(interpreter_sample, 0.0044, 0.1)


def process_start(env) -> Calibration:
    return Calibration(lambda: start_sample(env), 0.105, 1.0)


def pin():
    """Restrict this process (and its future children) to one allowed CPU."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
