"""Machine-speed probes, for scaling measured times to one reference speed.

On a shared 2-core VM (Xeon, 2.1 GHz) the speed of the same Python code
was measured to drift by up to 1.75x over tens of seconds, in regimes that
last from fractions of a second to minutes, with no steal time and with
process CPU time drifting as much as wall time.  Longer runs cannot average
that away.  So a worker runs a fixed probe between its ops, PROBE_DUTY of
the op time, and every op's latency is scaled by the probe's reference time
over its median time around that op.  Each workload names the probe that
is like its hot path.

The probes are the benchmark's own code, never the program's.  Each timed
run of a probe follows an untimed one and runs with the garbage collector
off, so that neither the caches nor the heap the program left behind move
it:

* `scalar`: modular big-integer arithmetic on slotted objects, dict updates
  and a list walk, like the program's scalar path.  Over 150 s on that VM,
  per-5 s medians of a verify counterfeit check swung by a log-sd of 0.21
  raw and 0.023 once scaled by a probe like it; a genuine check by 0.19
  and 0.05.
* `array`: one int64 multiply, reduce and sum over 8 MB into a
  preallocated array, like the program's numpy batch paths.  Over 10 seeds
  of 20 s runs, forge and mint times spread (IQR/median) 0.03-0.10 raw and
  0.05-0.07 scaled by it.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

import numpy as np

# A scaled time reads as if the probe took exactly this long: about its
# median on that VM, so that scaled and unscaled times read alike there.
REF_S = {"scalar": 0.0008, "array": 0.005}
PROBE_DUTY = 0.1  # probe time per unit of op time
PROBE_WINDOW = 9  # probes whose median scales one op: the nearest in time
_P = 1048583
_LIST = list(range(100_000))
_ARRAY = np.arange(1_000_000, dtype=np.int64)
# Preallocated: over 10 fresh processes the probe's median ranged over
# 6.5-8.9 ms with a new 8 MB array per call, and over 4.5-5.0 ms with this.
_OUT = np.empty_like(_ARRAY)


class _Pt:
    __slots__ = ("x", "z")

    def __init__(self, x, z):
        self.x = x
        self.z = z


def _double(pt, a):
    x, z = pt.x, pt.z
    xx, zz = x * x % _P, z * z % _P
    return _Pt((xx - a * zz) ** 2 % _P, 4 * x * z * (xx + a * zz) % _P)


def _scalar():
    pt = _Pt(5, 1)
    for _ in range(400):
        pt = _double(pt, 3)
    d: dict[int, int] = {}
    for i in range(700):
        d[i % 97] = d.get(i % 97, 0) + i
    s = 0
    for v in _LIST[::8]:
        s += v


def _array():
    np.multiply(_ARRAY, _ARRAY, out=_OUT)
    np.remainder(_OUT, _P, out=_OUT)
    _OUT.sum()


PROBES = {"scalar": _scalar, "array": _array}


class Pacer:
    """Runs one probe between ops, PROBE_DUTY of the op time, and keeps
    (time, seconds) for each timed run of it.  Each timed run follows an
    untimed one, so that it finds the probe's code and data in cache
    whatever the op before it left there: the probe measures the machine,
    not the program's footprint."""

    def __init__(self, kind: str, warmup: int = PROBE_WINDOW):
        self._fn = PROBES[kind]
        self.probes: list[tuple[float, float]] = []
        self._debt = 0.0
        for _ in range(warmup):
            self._probe()

    def _probe(self) -> float:
        gc.disable()  # a collection would cost with the program's heap
        try:
            t0 = time.perf_counter()
            self._fn()
            t = time.perf_counter()
            self._fn()
            s = time.perf_counter() - t
        finally:
            gc.enable()
        self.probes.append((t + s / 2, s))
        return t + s - t0

    def after(self, op_s: float) -> None:
        self._debt += PROBE_DUTY * op_s
        while self._debt > 0:
            self._debt -= self._probe()

    def finish(self) -> None:
        for _ in range(PROBE_WINDOW):
            self._probe()


def scale(probes: list[tuple[float, float]], at: list[float], kind: str) -> list[float]:
    """REF_S[kind] / (median probe time of the PROBE_WINDOW probes nearest
    each time in `at`)."""
    times = [t for t, _ in probes]
    half = PROBE_WINDOW // 2
    out = []
    for t in at:
        k = bisect.bisect_left(times, t)
        lo = max(0, min(k - half, len(probes) - PROBE_WINDOW))
        out.append(REF_S[kind] / statistics.median(s for _, s in probes[lo:lo + PROBE_WINDOW]))
    return out
