"""Machine-speed probe that makes reported times comparable across runs.

The shared hosts this benchmark runs on change speed by up to 2x within
seconds (other tenants' load on the same cores; visible as CPU time, not
as steal time).  No choice of run length or estimator removes that from
raw wall-clock times.  So the benchmark times a fixed reference
computation every PROBE_INTERVAL_S while it measures, and scales each
measured time t by (REFERENCE_S / r) ** ELASTICITY, where r is the
reference time interpolated at the middle of the measurement.  The
reported value estimates the time the measurement would have taken with
the host at the speed where the reference computation takes REFERENCE_S;
raw times are kept in the ``--out`` record.

The reference does the kinds of work qcsol does: Python function calls,
isinstance dispatch over frozen dataclasses, float arithmetic and small
numpy arrays.  It does not touch qcsol, so no change to the library can
move it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

# Median reference time on an Intel Xeon (2 vCPUs, Python 3.11, numpy 2.4)
# in its common state; it only sets the scale of the reported times.
REFERENCE_S = 1.0e-3
# Op times move less than the reference when the host changes speed: a
# log-log fit of oracle and ML-route call times against the reference
# (about 370 pairs, same host) gave a slope of 0.85.
ELASTICITY = 0.85
PROBE_INTERVAL_S = 0.2
PROBE_REPEATS = 7


@dataclass(frozen=True)
class _Leaf:
    value: float


@dataclass(frozen=True)
class _Node:
    left: object
    right: object


def _walk(e, x: float) -> float:
    if isinstance(e, _Leaf):
        return e.value * x
    if isinstance(e, _Node):
        return _walk(e.left, x) + _walk(e.right, x)
    raise TypeError(e)


_TREE = _Node(_Node(_Leaf(1.0), _Leaf(2.0)), _Node(_Leaf(3.0), _Node(_Leaf(4.0), _Leaf(5.0))))
_VEC = np.linspace(-1.0, 1.0, 4)


def _reference() -> float:
    total = 0.0
    for i in range(120):
        x = i * 0.01
        total += _walk(_TREE, x)
        v = np.asarray((x, 1.0 - x, 0.5, -x), dtype=float)
        total += float(np.linalg.norm(v - _VEC)) + float(v @ _VEC)
    return total


def reference_time() -> float:
    """Fastest of PROBE_REPEATS timings of the reference computation."""
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        _reference()
        best = min(best, time.perf_counter() - t0)
    return best


def scale(ref):
    """Factor taking a time measured while the reference took `ref`
    seconds to reference speed."""
    return (REFERENCE_S / ref) ** ELASTICITY


class SpeedProbe:
    """Reference timings taken while measuring, and the scaling they give."""

    def __init__(self):
        self._at = []
        self._ref = []
        self.probe()

    def probe(self) -> None:
        ref = reference_time()
        self._at.append(time.perf_counter())
        self._ref.append(ref)

    def maybe_probe(self) -> None:
        if time.perf_counter() - self._at[-1] >= PROBE_INTERVAL_S:
            self.probe()

    def normalize(self, starts, durations):
        """Scale durations measured from `starts` to reference speed."""
        starts = np.asarray(starts, dtype=float)
        durations = np.asarray(durations, dtype=float)
        ref = np.interp(starts + durations / 2.0, self._at, self._ref)
        return durations * scale(ref)

    @property
    def last_scale(self) -> float:
        """Scaling factor at the latest probe."""
        return scale(self._ref[-1])

    @property
    def samples(self) -> int:
        return len(self._ref)
