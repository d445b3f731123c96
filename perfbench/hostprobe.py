"""Host-speed probe: a fixed pure-Python workload shaped like tritsynth's
hot loops, timed next to every operation.

The benchmark's host shares its cores with other tenants, and its speed
moves in spells that last from seconds to minutes: the same synth call
runs up to 2x slower in a slow spell.  A spell can cover a whole run, so
neither the fastest nor the median call of a run escapes it.  The probe
slows with the host: it builds frozen dataclass literals over IntEnum
trits, evaluates a sum of products on every row of a small table, and
unions frozensets, as tritsynth's simplify and sim layers do.  It shares
no code with tritsynth, so a change to the package never moves it.

Timed measures a block's wall time together with probes taken right
before it, right after it and, for a long block, every INTERVAL_S inside
it, and turns the wall time into the time the block would take on a host
where the probe takes REFERENCE_MS.
"""

from __future__ import annotations

import enum
import signal
import statistics
import time
from dataclasses import dataclass
from itertools import product

# The probe's fastest time on the host the benchmark was built on (2-vCPU
# x86_64 KVM guest, Python 3.11.7).  Scaled times read as that host's
# wall time in its fast spells.  Changing it rescales every time metric.
REFERENCE_MS = 2.8
# Probes inside a block run from a SIGALRM handler in the main thread, at
# this interval of wall time.  A slow spell can begin or end in the middle
# of a multi-second synth call, so its end probes alone misjudge it.
INTERVAL_S = 0.1


class _Trit(enum.IntEnum):
    ZERO = 0
    ONE = 1
    TWO = 2


@dataclass(frozen=True)
class _Literal:
    var: int
    level: _Trit

    def holds(self, row) -> bool:
        return row[self.var] == self.level


_ROWS = [tuple(_Trit(x) for x in row) for row in product(range(3), repeat=5)]
_TERMS = [
    frozenset({_Literal(i % 5, _Trit(i % 3)), _Literal((i + 1) % 5, _Trit(i // 3 % 3))})
    for i in range(12)
]


def probe_ms() -> float:
    """Wall milliseconds of one fixed probe workload."""
    t0 = time.perf_counter()
    column = [
        max(_Trit.ONE if all(lit.holds(row) for lit in term) else _Trit.ZERO for term in _TERMS)
        for row in _ROWS
    ]
    overlap = {a | b: len(a & b) for a in _TERMS for b in _TERMS}
    elapsed = (time.perf_counter() - t0) * 1e3
    assert len(column) == 3**5 and overlap
    return elapsed


def ref_seconds(wall_s: float, probes_ms: list) -> float:
    """Reference-host seconds of wall_s seconds of work, with probes_ms
    taken at even intervals over it, each standing for an equal share."""
    return wall_s * statistics.mean(REFERENCE_MS / p for p in probes_ms)


class Timed:
    """Context manager timing its block with host probes around it.

    After the block: wall_s and cpu_s are the block's wall and CPU seconds
    less the time the probes inside it took, probes_ms every probe's
    milliseconds, and ref_s the block's seconds on the reference host (see
    ref_seconds).  interval_s=0 takes only the end probes.
    """

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self.probes_ms = []
        self.wall_s = self.cpu_s = self.ref_s = 0.0
        self._inside_s = 0.0
        self._running = False

    def _tick(self, signum, frame):
        if not self._running:  # delivered after the block ended
            return
        t0 = time.perf_counter()
        self.probes_ms.append(probe_ms())
        self._inside_s += time.perf_counter() - t0

    def start(self):
        self.probes_ms.append(probe_ms())
        if self.interval_s:
            self._saved = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        self._running = True
        self._c0 = time.process_time()
        self._t0 = time.perf_counter()
        return self

    def stop(self):
        if self.interval_s:
            signal.setitimer(signal.ITIMER_REAL, 0)
        self._running = False
        self.wall_s = time.perf_counter() - self._t0 - self._inside_s
        self.cpu_s = time.process_time() - self._c0 - self._inside_s
        if self.interval_s:
            signal.signal(signal.SIGALRM, self._saved)
        self.probes_ms.append(probe_ms())
        self.ref_s = ref_seconds(self.wall_s, self.probes_ms)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()
        return False
