"""The host's current speed, from a fixed piece of pure-Python work.

The benchmark runs on shared hosts whose speed drifts: the same unit of
work can take 0.65 s in one minute and 1.15 s in the next, in CPU time as
well as in wall time, so it is not time stolen from the process but the
host running slower.  `calibrate()` times a fixed loop of the work the
program does (dict lookups and updates, integer arithmetic, a sort) just
before and just after each timed piece.  The benchmark reports each time
rescaled to a reference host on which that loop takes `REFERENCE_S`:

    reported = measured * REFERENCE_S / loop time measured next to it

The loop does not call the program, so a change to the program moves the
reported time by as much as it moves the measured one; a drift of the
host moves both the measured time and the loop's, and cancels.
"""

import time

REFERENCE_S = 0.015
_ROUNDS = 2  # loops before and after each timed piece


def _loop():
    start = time.perf_counter()
    table = {}
    for i in range(60000):
        key = (i * 7919) % 1009
        table[key] = table.get(key, 0) + i * i % 32003
    sorted(table.items())
    return time.perf_counter() - start


def calibrate():
    """Mean time of the loop over a few rounds, in seconds."""
    return sum(_loop() for _ in range(_ROUNDS)) / _ROUNDS


def scaled(seconds, loop_seconds):
    """A measured time rescaled to the reference host's speed."""
    return seconds * REFERENCE_S / loop_seconds
