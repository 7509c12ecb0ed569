"""Fixed reference computation that rescales timings to one machine speed.

On a shared host the same pass can take twice as long from one minute to the
next (the CPU runs slower while co-tenants are busy; CPU time slows with wall
time, so process time does not help). The benchmark therefore times this
fixed mix right before and right after each piece of measured work and
reports that work's time multiplied by n / r, with r the mean of the two
reference times and n the mix's nominal time. Over 10 windows of 15 s its
cache-resident part alone cut the spread of paper-4methods pass times from 9% to 2.5% of the median.

The mix imitates the simulator without calling it, so a change to svote can
never speed up the reference: interpreter-bound dict/list work (bus, ledger,
engine loops), small-matrix numpy calls (per-step SGD), BLAS GEMMs, and
streams and row gathers over arrays larger than a core's cache (wide-mlp's
784-dim rows and 50,890-entry vectors). Work of that last kind slows with
the shared cache and memory bus, which the cache-resident parts do not see;
on wide-mlp it cut the pass spread over 40 s windows from 0.14 to 0.09. Every
workload uses the same mix.

The nominal time is about what the mix takes on an idle core of the 2.1 GHz
Xeon the benchmark was written on, so rescaled figures read close to seconds
there; raw seconds appear in the report beside them.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

REFERENCE_S = 0.059


class ReferenceClock:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._X = rng.normal(size=(32, 16))
        self._W = rng.normal(size=(16, 6))
        self._b = rng.normal(size=6)
        self._square = rng.normal(size=(128, 128))
        self._vectors = np.stack([rng.normal(size=1000) for _ in range(8)])
        self._stream = rng.normal(size=3_000_000)  # 24 MB, beyond any private cache
        self._stream_out = np.empty_like(self._stream)
        self._rows = rng.normal(size=(3_000, 784))
        self._row_pick = rng.permutation(3_000)[:1_500]
        self._last = self._reference()

    def _reference(self) -> tuple[float, float]:
        """(wall s, cpu s) of one run of the fixed mix."""
        wall, cpu = time.perf_counter(), time.process_time()
        counts: dict[int, int] = defaultdict(int)
        pairs = []
        for i in range(30_000):
            counts[i % 101] += i
            pairs.append((i, i & 7))
        pairs.sort(key=lambda p: (p[1], p[0]))
        for _ in range(1_500):
            z = self._X @ self._W + self._b
            z -= z.max(axis=1, keepdims=True)
            np.exp(z, out=z)
            z /= z.sum(axis=1, keepdims=True)
        for _ in range(20):
            self._square @ self._square
        self._vectors.mean(axis=0)
        for _ in range(2):
            np.multiply(self._stream, 0.5, out=self._stream_out)
        self._rows[self._row_pick].sum()
        return time.perf_counter() - wall, time.process_time() - cpu

    def measure(self, fn, *args):
        """Run fn(*args); returns (result, raw wall s, rescaled wall s, rescaled cpu s)."""
        before = self._last
        wall, cpu = time.perf_counter(), time.process_time()
        result = fn(*args)
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        after = self._last = self._reference()
        ref_wall = (before[0] + after[0]) / 2
        ref_cpu = (before[1] + after[1]) / 2
        return result, wall, wall * REFERENCE_S / ref_wall, cpu * REFERENCE_S / ref_cpu
