"""Host-speed reference for the benchmark's timings.

The benchmark shares a host whose speed drifts: a fixed pure-Python loop
timed again and again over 30 s took from 21 to 52 ms, with CPU time equal
to wall time, and such a state can last a whole run.  So every timed
interval (an operation, a set-up) is accompanied by samples of a fixed
block of reference work that never changes (it is part of the benchmark,
not of the program): one sample on either side, and one every
``Sampler.interval`` seconds inside it.  Its time is reported as it would
be on a host where that block takes ``NOMINAL_S``:

    normalised = measured * NOMINAL_S / mean(samples)

A program that gets slower still reads slower; a host that gets slower no
longer does.  The raw times are kept in each run's results file.
"""

from __future__ import annotations

import signal
import time

#: the reference block's time on the host the figures in README.md were
#: taken on; only a scale, so that normalised values read like seconds
NOMINAL_S = 0.004

#: blocks timed on either side of a set-up or of a cold operation, which
#: run in a child process with no neighbouring operation to share them
EDGE_BLOCKS = 25

_CYCLE = tuple(range(1, 12)) + (0,)
_SWAP = (1, 0) + tuple(range(2, 12))


def _work() -> int:
    """A fixed mix of what setorbits does: tuple permutation composition,
    integer bit operations and dict and set updates."""
    p = tuple(range(12))
    seen: set[tuple[int, ...]] = set()
    masks: dict[int, int] = {}
    acc = 0
    for i in range(1000):
        q = _CYCLE if i % 3 else _SWAP
        p = tuple(q[j] for j in p)
        seen.add(p)
        m = 0
        for j, x in enumerate(p):
            if x & 1:
                m |= 1 << j
        masks[m] = masks.get(m, 0) + 1
        acc ^= m * (i + 1) >> 2
    return acc + len(seen) + len(masks)


def reference(blocks: int = 1) -> float:
    """Time ``blocks`` reference blocks; returns seconds per block."""
    t0 = time.perf_counter()
    for _ in range(blocks):
        _work()
    return (time.perf_counter() - t0) / blocks


class Sampler:
    """Runs one reference block every ``interval`` seconds of wall time
    (SIGALRM, so in the main thread and between bytecodes of the program;
    nothing runs alongside it) while the ``with`` block runs.  The blocks'
    times are in ``samples``, their total cost in ``spent``, which the
    caller takes off the time it measured around the ``with`` block."""

    interval = 0.1

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(reference())
        self.spent += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False


def normalise(seconds: float, samples: list[float]) -> float:
    """``seconds`` measured while the reference block took ``samples``
    (seconds per block), at the nominal host speed."""
    return seconds * NOMINAL_S * len(samples) / sum(samples)
