"""The reference task that converts wall time into nominal-rate seconds.

On a shared virtual machine the CPU rate moves between states that last
seconds, and the same op can take 1.8x as long in one state as in another;
each vCPU can be in its own state.  A fixed task that does not touch
``icmup`` is timed in the same process right before and right after each
measured interval, and the interval's wall time is scaled by REF_NOMINAL_S
over the mean of those two readings.

Only builtin modules are imported here, so that a set-up probe can load
this file before its clock starts without pre-loading anything ``icmup``
needs.
"""

import gc
import time

# The task's time at the nominal rate: about its time in the fast state of
# a 2-vCPU x86-64 VM.  Only the scale of reported times depends on it.
REF_NOMINAL_S = 0.004
_WORDS = [f"w{i}" for i in range(500)]


def reference_seconds() -> float:
    """Wall time of a fixed task of tuple, dict, list, sort and join work,
    with the collector paused so that the heap an op leaves behind does not
    count.  Both halves together track the rate of ops better than either
    alone."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table = {}
        for i in range(6000):
            table[(i, _WORDS[i % 500])] = [i, i + 1]
        total = 0
        for key, value in table.items():
            total += value[0] + len(key[1])
        grams = [tuple(_WORDS[(i * 7 + j) % 500] for j in range(5))
                 for i in range(1500)]
        counts = {}
        for gram in grams:
            counts[gram] = counts.get(gram, 0) + 1
        sorted(grams)
        "_".join(_WORDS * 4)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


class RateScale:
    """Brackets each timed interval with reference readings.  Call
    ``factor()`` right after an interval ends: it returns the factor that
    turns the interval's wall time into nominal-rate seconds."""

    def __init__(self):
        self.before = reference_seconds()
        self.factors = []

    def factor(self) -> float:
        after = reference_seconds()
        value = REF_NOMINAL_S / ((self.before + after) / 2)
        self.before = after
        self.factors.append(value)
        return value
