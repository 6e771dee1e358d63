"""Host-speed references for the benchmark's timings.

The shared 2-core machines this benchmark runs on change speed by a third
within a minute as other work comes and goes, so raw wall times of runs
of the same code spread by 15-40% (README.md).  Each timed interval is
therefore bracketed by a fixed reference measured right before and right
after it, and reported at the reference speed:

* in-process tasks: a pure-Python kernel of exact Fraction arithmetic and
  float evaluation of a sparse polynomial dict, the instruction mix of
  alhlab's exact core and of its per-node coefficient sampling;
* CLI calls and set-up, which are new processes: starting an interpreter
  that imports numpy.

Both references are benchmark code that alhlab cannot change, so a faster
alhlab shows in full.  All benchmark processes are pinned to one CPU, so
that a reference and the work it brackets share the same core.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from fractions import Fraction

#: Kernel time that defines the reference speed (about its median on the
#: 2-core machine the benchmark was built on).
REFERENCE_S = 0.004
#: The same for the process reference.
REFERENCE_PROCESS_S = 0.25


_TERMS = {(i % 3, i % 5, i % 2): float(i + 1) / 7 for i in range(30)}


def _exact():
    q = Fraction(1, 3)
    for i in range(200):
        q = q * Fraction(i + 2, i + 1) + Fraction(1, 7)
    return q


def _floats():
    total = 0.0
    for j in range(200):
        x, y = 0.5 + j / 400, 1.5 - j / 400
        for (a, b, c), coef in _TERMS.items():
            total += coef * x ** a * y ** b * (x - y) ** c
    return total


def kernel_s() -> float:
    """Wall time of one run of the in-process reference kernel."""
    t0 = time.perf_counter()
    _exact()
    _floats()
    return time.perf_counter() - t0


def process_s() -> float:
    """Wall time of starting a fresh interpreter that imports numpy: the
    reference for work done in new processes (CLI calls, set-up)."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                   stdin=subprocess.DEVNULL)
    return (time.perf_counter() - t0) * REFERENCE_S / REFERENCE_PROCESS_S


def at_reference(raw_s: float, before_s: float, after_s: float) -> float:
    """A wall time rescaled to the reference speed, from the reference
    times measured right before and right after it."""
    return raw_s * 2 * REFERENCE_S / (before_s + after_s)


def pin_to_one_cpu():
    """Pin this process, and so every process it starts, to one CPU."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
