"""The machine-speed probe that the end-to-end times are scaled by.

A shared host runs the same code at speeds that differ by a fifth from
one second to the next and by more between minutes, on wall clock and
CPU clock alike (README.md, "Noise and bounds"). So while a benchmark
process serves its requests, a CPU-time interval timer (`ITIMER_PROF`)
interrupts it every `INTERVAL_S` of CPU time to run one short, fixed
slice of pure Python work, and `run.py` scales the program's CPU times
by `REFERENCE_SLICE_S` / (the mean CPU time of the job's slices): a time
is reported as it would read on a machine where one slice takes
`REFERENCE_SLICE_S`. The slices sample the machine in step with the work
they interrupt, so a slow spell slows both alike. A slice does what the
library does most, in the same interpreter: reads of a dict in scattered
order, modular row reduction, polynomial products and method calls on
small element objects. It imports nothing from the program, so its own
work is the same at every commit.
"""

from __future__ import annotations

import gc
import signal
import time

# CPU seconds of one slice on a 2-core x86_64 sandbox (Intel Xeon,
# Python 3.11); only the scale of the reported times depends on it
REFERENCE_SLICE_S = 0.0020
# process CPU time between two slices; with slices of about 2 ms the
# probe takes about a tenth of a process's CPU time. While the timer is
# armed, Linux reads the process CPU clock (`time.process_time`) only to
# the scheduler tick, so CPU times are read from the thread's clock
# (`time.thread_time`); the program is single-threaded
INTERVAL_S = 0.025
P = 251
INVERSE = {a: pow(a, P - 2, P) for a in range(1, P)}
# a dict read in a fixed scattered order, as the library's tables of
# field elements are; small, so that the probe adds little to peak RSS
TABLE = {i: (i * 2654435761) & 0xFF for i in range(1 << 8)}
KEYS = [(i * 40503 + 17) & 0xFF for i in range(2000)]


class _Elem:
    __slots__ = ("v",)

    def __init__(self, v: int):
        self.v = v

    def __mul__(self, other: "_Elem") -> "_Elem":
        return _Elem(self.v * other.v % P)

    def __add__(self, other: "_Elem") -> "_Elem":
        return _Elem((self.v + other.v) % P)


def _slice(x: int) -> int:
    """One slice: `REFERENCE_SLICE_S` of CPU on the reference machine."""
    pairs = []
    for k in KEYS:
        x = (x * 31 + TABLE[k]) % 1000003
        pairs.append((TABLE[k ^ x & 0xFF], x))
    pairs.sort()
    n = 12
    m = []
    for _ in range(n):
        row = []
        for _ in range(n + 1):
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            row.append(x % P)
        m.append(row)
    for c in range(n):
        piv = next((r for r in range(c, n) if m[r][c]), None)
        if piv is None:
            continue
        m[c], m[piv] = m[piv], m[c]
        iv = INVERSE[m[c][c]]
        m[c] = [v * iv % P for v in m[c]]
        for r in range(n):
            if r != c and m[r][c]:
                f = m[r][c]
                m[r] = [(a - f * b) % P for a, b in zip(m[r], m[c])]
    a = [_Elem((i * 7 + x) % P) for i in range(24)]
    b = [_Elem((i * 13 + 1) % P) for i in range(24)]
    prod = [_Elem(0) for _ in range(47)]
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            prod[i + j] = prod[i + j] + u * v
    return x ^ prod[23].v ^ pairs[0][1]


class Probe:
    """Runs slices and keeps their count and total CPU seconds."""

    def __init__(self):
        self.slices = 0
        self.cpu_s = 0.0
        self._x = 1

    def run(self, *_) -> None:
        """One slice. The cyclic GC is off meanwhile: a slice makes no
        cycles, and a collection would walk the program's heap, so the
        slice's speed would depend on what the program keeps alive."""
        enabled = gc.isenabled()
        gc.disable()
        start = time.thread_time()
        self._x = _slice(self._x)
        self.cpu_s += time.thread_time() - start
        self.slices += 1
        if enabled:
            gc.enable()

    def start(self) -> None:
        """A slice now, then one every `INTERVAL_S` of CPU time, run by
        the SIGPROF handler between two bytecodes of the program."""
        self.run()
        signal.signal(signal.SIGPROF, self.run)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
