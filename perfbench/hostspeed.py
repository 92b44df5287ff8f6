"""How fast the host runs right now, from a fixed reference task.

The benchmark shares a few cores of a host whose speed swings by up to two
times over seconds to minutes, and CPU time swings with wall time, so a
wall time alone says as much about the host as about the program. A run
therefore times a fixed reference task many times, spread over the whole
run, right before and right after each set-up, ``evaluate`` and
``recommend``, and divides the operation's time by

    speed factor = median reference time around it / REFERENCE_S

so a time reads what it would on the host at the speed where the reference
takes ``REFERENCE_S``. ``train`` runs too long for samples at its ends to
say how fast the host ran in between, so ``train_s`` stays a wall time,
made steadier by taking the median of several trains. The reference is
code of the benchmark, never of ``pmlam``, so a change to the program moves
the program's times and leaves the factor alone. It mixes the kinds of work
the program spends its time on (see :func:`reference_task`).
"""

import statistics
from time import perf_counter

import numpy as np

# Median reference time on a 2-vCPU Haswell host at its quiet speed; it only
# sets the scale, so normalised times read close to wall times there.
REFERENCE_S = 0.003
# The host's speed swings within a second, so an operation is set against
# the samples taken right before and right after it, and no others.
PAD_S = 0.1
# The per-operation times that are divided by the speed factor.
NORMALISED = ("setup_s", "eval_s", "recommend")

_rng = np.random.default_rng(0)
_TABLE = _rng.standard_normal((4000, 32))
_IDX = _rng.integers(0, 4000, 2048)
_CATALOG = _rng.standard_normal((1680, 64))
_SEEN = _rng.integers(0, 1680, 60)
_TEXT = "\n".join(" ".join(str((i * 31 + j * 17) % 1680) for j in range(20))
                  for i in range(170))


def reference_task():
    """One pass of the fixed task; returns a checksum so nothing is skipped.

    Its three parts take about the same time: parsing text as the loaders
    do, ranking a few catalog rows as ``evaluate`` and ``recommend`` do, and
    a batch gather, hinge and scatter as a training step does.
    """
    rows = [[int(t) for t in line.split()] for line in _TEXT.split("\n")]
    flat = np.array([v for row in rows for v in row])
    total = int(flat.sum())
    for user in flat[:2]:
        dist = ((_CATALOG - _CATALOG[user]) ** 2).sum(axis=1)
        dist[_SEEN] = np.inf
        top = np.argsort(dist, kind="stable")[:10]
        total += int(np.isin(top, _SEEN).sum()) + int(top[0])
    for _ in range(7):
        g = _TABLE[_IDX]
        d = np.sqrt(((g[:1024] - g[1024:]) ** 2).sum(axis=1))
        np.maximum(d - 6.0, 0.0, out=d)
        total += float(np.bincount(_IDX[:1024], weights=d, minlength=4000).sum())
    return total


class Meter:
    """Reference times taken through a run, and the speed factors they give."""

    def __init__(self):
        self.samples = []  # (end time, seconds)

    def sample(self, reps=1):
        for _ in range(reps):
            start = perf_counter()
            reference_task()
            end = perf_counter()
            self.samples.append((end, end - start))

    def factor(self, start, end):
        """Speed factor from the samples taken within ``PAD_S`` of [start, end]."""
        near = [s for t, s in self.samples if start - PAD_S <= t <= end + PAD_S]
        return statistics.median(near) / REFERENCE_S
