"""How fast the shared machine runs, measured beside the benchmark's paths.

The host the benchmark runs on is shared: other tenants' load slows every
pure-Python loop down, often by half, in episodes that last from
milliseconds to minutes.  A path that takes a second runs through many of
them, so neither its fastest nor its median time repeats from run to run
or from one set of runs to the next.  What does repeat is its time
relative to a fixed piece of pure-Python work run in the same process
over the same stretches of time.

So the benchmark runs this fixed loop, which shares no code with retrans,
after every operation for a set share of the operation's time, and reports
each path's mean time scaled by

    NOMINAL_S / mean loop time of the run

that is, in seconds on a machine where the loop takes NOMINAL_S.  Both are
means, time averages of the load over the run, because a path's time grows
with the share of its time the machine was loaded; a median would follow
whichever of the loaded and the quiet state held most of the run.  A
change that makes a path do less work lowers its figure by the same share;
a change in the machine's load moves the path and the loop together and
cancels out.
"""

from __future__ import annotations

import statistics
import time

# About the loop's fastest time on the 2-core Xeon VM this was written on,
# so the scaled figures read as seconds on that machine when it is idle.
NOMINAL_S = 0.0025

# Two fixed token sequences, aligned with word edit distance: the same
# kind of work as the mWER segmenter's table, in a few milliseconds.
_A = [f"w{(i * 7) % 23}" for i in range(90)]
_B = [f"w{(i * 5) % 23}" for i in range(100)]


def loop() -> int:
    previous = list(range(len(_B) + 1))
    for i, a in enumerate(_A, 1):
        current = [i]
        for j, b in enumerate(_B, 1):
            current.append(min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + (a != b)))
        previous = current
    return previous[-1]


class Calibration:
    def __init__(self) -> None:
        self.samples: list[float] = []

    def run_for(self, seconds: float) -> None:
        """Time the loop back to back for about ``seconds``, at least once."""
        end = time.perf_counter() + seconds
        while True:
            start = time.perf_counter()
            loop()
            now = time.perf_counter()
            self.samples.append(now - start)
            if now >= end:
                return

    def scale(self) -> float:
        """The factor that turns a time measured in this run into seconds
        at the nominal speed: below 1 when the machine ran slower."""
        return NOMINAL_S / statistics.fmean(self.samples)

    def describe(self) -> str:
        return (
            f"fastest {min(self.samples) * 1e3:.4g} ms, median {statistics.median(self.samples) * 1e3:.4g} ms, "
            f"mean {statistics.fmean(self.samples) * 1e3:.4g} ms "
            f"(n={len(self.samples)}), scale {self.scale():.4f}"
        )
