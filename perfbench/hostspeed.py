"""Host slowdown probe: a fixed reference kernel timed between the
measured parts of a run.

The benchmark was built on a shared 2-vCPU host where co-tenant load
slows whole stretches of a run, seconds to minutes long, by up to
40%.  With raw wall times, ten runs of one commit spread by 18% to 33%
(interquartile range over median) on every timing metric.  The
reference kernel below does the two kinds of work the workloads do, a
mini training step in plain numpy (row gather, small matmuls,
scatter-add into a table) and a pure-Python parse-and-group loop like
log ingestion, and it lives here, so no change to missctr changes its
cost.  Its time in a run, relative to its time at the reference speed,
is the run's slowdown.  In a five-minute test that alternated training
steps and the kernel, dividing by the slowdown cut the spread of
10-second medians from 10-17% to 2-6%.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

import numpy as np

# kernel times at the reference speed: roughly its times on the host
# the baseline came from, in a quiet stretch
REFERENCE_NUMPY_S = 0.0220
REFERENCE_PYTHON_S = 0.0070

_ROWS, _DIM, _BATCH, _FIELDS = 20_000, 10, 128, 4


class HostSlowdown:
    """Collects kernel timings; `slowdown()` is their median ratio to
    the reference times (1.0 at reference speed, 1.4 when 40% slower)."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._table = rng.uniform(-0.05, 0.05, (_ROWS, _DIM))
        self._weights = [rng.normal(0.0, 0.1, (_FIELDS * _DIM, _FIELDS * _DIM)) for _ in range(3)]
        self._idx = rng.integers(0, _ROWS, (_BATCH, _FIELDS))
        self._lines = [f"u{i % 97}\ti{i % 503}\tc{i % 5}\t{i}" for i in range(10_000)]
        self.samples: list[float] = []

    def _numpy_step(self) -> float:
        # writes only fresh arrays, so every call does the same
        # arithmetic on the same values
        x = self._table[self._idx].reshape(_BATCH, -1)
        hs = [x]
        for w in self._weights:
            hs.append(np.maximum(hs[-1] @ w, 0.0))
        g = hs[-1] - 0.5
        for w, h in zip(reversed(self._weights), reversed(hs[:-1])):
            w_next = w - 1e-4 * (h.T @ g)
            g = (g @ w.T) * (h > 0)
        acc = np.zeros_like(self._table)
        np.add.at(acc, self._idx.reshape(-1), g.reshape(-1, _DIM))
        table_next = self._table - 1e-4 * acc
        return float(table_next[0, 0] + w_next[0, 0])

    def _python_parse(self) -> None:
        groups: dict[str, list] = {}
        for line in self._lines:
            parts = line.split("\t")
            groups.setdefault(parts[0], []).append((parts[1], int(parts[3])))
        for rows in groups.values():
            rows.sort(key=lambda r: r[1])

    def sample(self) -> None:
        # the collector stays off so that the kernel's time does not
        # depend on how many objects the program holds
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = perf_counter()
            for _ in range(10):
                self._numpy_step()
            t1 = perf_counter()
            self._python_parse()
            t2 = perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.samples.append(((t1 - t0) / REFERENCE_NUMPY_S + (t2 - t1) / REFERENCE_PYTHON_S) / 2.0)

    def slowdown(self) -> float:
        return statistics.median(self.samples)
