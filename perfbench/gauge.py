"""A fixed reference computation that measures how fast the host runs now.

The benchmark's host is a few vCPUs of a shared machine whose speed drifts:
the same computation takes up to twice as long for a second or for minutes
at a time, with CPU time equal to wall time.  No statistic over one run's
passes removes that, since a run can sit wholly in a slow stretch.  So a
run times this gauge before the first operation of a pass and after each
operation, and reports each operation's seconds scaled to the gauge's
reference time (``Gauge.scale``).  The gauge never calls diracshift, so a
change to the program cannot change it.
"""

from __future__ import annotations

import time

import mpmath
import numpy as np

# Median seconds of each part on the host that measured BASELINE.json
# (2 vCPUs of an Intel Xeon KVM guest, OpenBLAS at one thread), over 845
# timings in 15 runs.
REFERENCE_S = {"py": 0.00138, "mp": 0.006285, "eigh": 0.006185, "bat": 0.0224}


class Gauge:
    """Time a fixed mix of the kinds of work the program does: an
    interpreter loop (``py``), four mpmath Hankel values (``mp``), one dense
    LAPACK ``eigh`` (``eigh``) and a batch of small ``eigvals`` (``bat``).
    ``parts`` names the parts to run, a part named twice runs twice.
    ``sensitivity`` is how strongly the timed operations follow the gauge:
    an operation slows by the gauge's slowdown to this power."""

    def __init__(self, parts, sensitivity=1.0):
        rng = np.random.default_rng(0)
        h = rng.standard_normal((160, 160)) + 1j * rng.standard_normal((160, 160))
        self.hermitian = h + h.conj().T
        self.batch = rng.standard_normal((600, 8, 8)) + 1j * rng.standard_normal((600, 8, 8))
        self.points = [mpmath.mpc(complex(3 * x, x) / 3.16) for x in (4.6, 5.1, 5.7, 6.3)]
        run = {"py": self._py, "mp": self._mp, "eigh": self._eigh, "bat": self._bat}
        self.parts = [run[p] for p in parts]
        self.reference = sum(REFERENCE_S[p] for p in parts)
        self.sensitivity = sensitivity
        self()  # the first call pays for caches and lazy imports

    def _py(self):
        acc = 0
        for i in range(20000):
            acc += i * i % 7

    def _mp(self):
        with mpmath.workdps(20):
            for p in self.points:
                mpmath.hankel1(2, p)

    def _eigh(self):
        np.linalg.eigh(self.hermitian)

    def _bat(self):
        np.linalg.eigvals(self.batch)

    def __call__(self) -> float:
        """Seconds the reference computation takes now."""
        t0 = time.perf_counter()
        for part in self.parts:
            part()
        return time.perf_counter() - t0

    def scale(self, seconds: float, before: float, after: float) -> float:
        """``seconds`` measured between gauge timings ``before`` and
        ``after``, expressed at the reference speed."""
        return seconds * (self.reference / ((before + after) / 2)) ** self.sensitivity
