"""Machine-speed probes and the statistics every timing goes through.

On a shared 2-vCPU guest the same Python loop can take anywhere between 0.8x
and 1.2x its usual time within one minute, so a raw wall-clock figure does not
repeat.  Every timed piece of work is therefore preceded, in the same thread,
by a fixed probe, and reported as ``raw * PROBE_REF_S[kind] / probe``: seconds
at the machine's reference speed.  The probes call nothing from ``randbatch``.

Interpreted loops and numpy calls do not slow down alike, so there are two
probes and each workload names the one that tracks it:

- ``interpreted``: a loop that reads numpy scalars and does minimum-image
  arithmetic (like the un-jitted pair kernels), then a plain float loop;
- ``vector``: argsort/gather passes over a fixed array of 10^4 elements, for
  workloads made of numpy calls on arrays of that size.

Over six runs each, a mix of the two tracked wealth-rbm and lj-split worse
than the matching probe alone, and sorts and exps over large arrays tracked
the step loops worse than small argsorts.
"""

import math
import statistics
import time

import numpy as np

# Median probe times on the reference machine (2-vCPU x86-64 guest, Python
# 3.11, numpy 2.4), measured over 400 probes with nothing else running.
PROBE_REF_S = {"interpreted": 0.0120, "vector": 0.0134}

_INDEXED_ITERATIONS = 8_000
_POINTS = np.random.default_rng(54321).random((256, 3))
_LOOP_ITERATIONS = 10_000
_ARRAY = np.random.default_rng(12345).random(10_000)
_VECTOR_PASSES = 12

# Percentiles considered for the tail figure, highest first.
_TAIL_CANDIDATES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
_TAIL_MIN_BEYOND = 10


def _scalar_loops() -> float:
    acc, box, pts = 0.0, 10.0, _POINTS
    for i in range(_INDEXED_ITERATIONS):
        dx = pts[i & 255, 0] - pts[(i * 7) & 255, 1]
        dx -= box * math.floor(dx / box + 0.5)
        acc += math.sqrt(dx * dx + 1.0)
    x = 0.5
    for _ in range(_LOOP_ITERATIONS):
        x = x * 1.0000001 + 0.25
        acc += math.floor(x * 0.1 + 0.5) - math.sqrt(x)
    return acc


def _vector_passes(n: int) -> float:
    acc = 0.0
    for _ in range(n):
        order = np.argsort(_ARRAY, kind="stable")
        acc += float(np.abs(_ARRAY[order] - 0.5)[0])
    return acc


_PROBES = {
    "interpreted": _scalar_loops,
    "vector": lambda: _vector_passes(_VECTOR_PASSES),
}


def probe(kind: str) -> float:
    """Run one probe of ``kind``; returns its wall time in seconds."""
    t0 = time.perf_counter()
    acc = _PROBES[kind]()
    elapsed = time.perf_counter() - t0
    if not math.isfinite(acc):
        raise RuntimeError("probe arithmetic went non-finite")
    return elapsed


def normalise(raw_s: float, probe_s: float, probe_ref_s: float) -> float:
    """A raw time rescaled to the reference machine speed."""
    if probe_s <= 0 or probe_ref_s <= 0:
        raise ValueError("probe times must be positive")
    return raw_s * probe_ref_s / probe_s


def tail(samples):
    """(percentile, value, sample count) for the highest listed percentile
    that still has at least ten samples beyond it.

    With fewer than twenty samples no percentile qualifies and the median is
    returned, labelled as the 50th percentile.
    """
    values = np.asarray(list(samples), dtype=np.float64)
    n = values.size
    if n == 0:
        raise ValueError("no samples")
    for pct in _TAIL_CANDIDATES:
        if n * (100.0 - pct) / 100.0 >= _TAIL_MIN_BEYOND - 1e-9:
            return pct, float(np.percentile(values, pct)), n
    return 50.0, float(np.median(values)), n


def median(samples) -> float:
    return float(statistics.median(samples))
