"""A fixed unit of pure-Python work that measures the machine's current speed.

The benchmark runs on shared machines whose CPU speed can halve and recover
several times a second, while the program's own cost stays the same.  The
unit below does the kind of work the program does (a bottom-up pass over a
random DAG of about 16k nodes with 1000-bit integers and list indexing) and
never touches ``ddnnf``, so a change to the program cannot move it.  The
benchmark times it next to each operation and scales the operation's time
by how slow the machine was just then.
"""

from __future__ import annotations

import random
import statistics
import time

NODES = 16000
MASK = (1 << 1000) - 1

# A fixed reference: about the seconds one unit took on a 2-core Intel Xeon
# VM with Python 3.11.  A scaled time reads as on a machine where one unit
# takes REFERENCE_S.
REFERENCE_S = 0.0065

# The short unit timed after every single operation: the first SHORT_NODES
# nodes only, about 1 ms.  On that VM it took 1/4.81 of a full unit.
SHORT_NODES = 2500
SHORT_REFERENCE_S = REFERENCE_S / 4.81


def _dag():
    rng = random.Random(20230321)
    kids = [(0, 0)] * 64
    for i in range(64, NODES):
        kids.append((rng.randrange(i), rng.randrange(i)))
    zero = set(rng.sample(range(64), 8))
    return kids, zero


_KIDS, _ZERO = _dag()


def work(nodes: int = NODES) -> int:
    """One unit: the pass itself, over the first ``nodes`` nodes."""
    kids, zero = _KIDS, _ZERO
    values = [0 if i in zero else (i + 2) << 900 for i in range(64)]
    append = values.append
    for i in range(64, nodes):
        a, b = kids[i]
        if i & 1:
            append((values[a] * values[b]) & MASK)
        else:
            append(values[a] + values[b] & MASK)
    return values[-1]


def unit(nodes: int = NODES) -> float:
    """Seconds one unit takes now."""
    start = time.perf_counter()
    work(nodes)
    return time.perf_counter() - start


class Speed:
    """Calibration samples taken through a run, and the scales they imply.

    Operations timed between sample ``k - 1`` and sample ``k`` form block
    ``k`` (``block()`` while they run).  Their times are scaled by the mean of
    those two samples, so a swing of the machine's speed during a run moves
    the scale with it."""

    def __init__(self, nodes: int = NODES, units: int = 3, reference: float = REFERENCE_S):
        self.nodes = nodes
        self.units = units  # a sample is the median of this many units
        self.reference = reference
        self.samples: list[float] = []

    @classmethod
    def per_operation(cls) -> "Speed":
        """One short unit per sample, to take after every operation.  The
        machine's speed can halve and recover within a second, so only a
        sample next to an operation tells how fast the machine ran it."""
        return cls(SHORT_NODES, 1, SHORT_REFERENCE_S)

    def sample(self) -> None:
        self.samples.append(statistics.median(unit(self.nodes) for _ in range(self.units)))

    def block(self) -> int:
        return len(self.samples)

    def scale(self, block: int, reach: int = 1) -> float:
        """Reference time over the unit time around ``block``: multiply a
        time measured in that block by this to read it at reference speed.
        The mean is over ``reach`` samples on each side."""
        around = self.samples[max(0, block - reach):block + reach]
        return self.reference / statistics.fmean(around)

    def run_scale(self) -> float:
        """The same over the run's median sample."""
        return self.reference / statistics.median(self.samples)
