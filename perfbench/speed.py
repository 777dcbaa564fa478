"""Machine speed probe: a fixed reference kernel timed inside every
benchmark process, so that times can be scaled to one reference speed.

The machine the benchmark runs on may be shared: the same code then runs up
to twice as slow for stretches of seconds to minutes, in CPU time as much as
in wall time.  The kernel below is a fixed piece of standard-library Python
of the engine's kind (a dict keyed by tuples holding ``Fraction`` values),
so its time tracks how fast the machine runs such code at that moment.  Every
process samples the kernel right after set-up and, on a timer, every
``TICK_S`` seconds while its step runs.  The timer samples are spread
evenly over time, so their mean is the kernel's time averaged over the
run, and a time divided by it and multiplied by ``KERNEL_REF_S`` (a
"scaled" time) reads as the seconds it would take on a machine where the
kernel takes ``KERNEL_REF_S``.  That no longer moves with the machine's
load, while a change in the engine's own speed moves it in full.
"""
import gc
import signal
import statistics
from fractions import Fraction
from time import perf_counter, process_time

# kernel size; one sample takes 5 to 10 ms on a 2-CPU Xeon VM with
# Python 3.11
KERNEL_N = 5000
# multiplier that visits 0 .. KERNEL_N - 1 in a scattered order (coprime to
# KERNEL_N)
STRIDE = 7919
# the kernel time that scaled seconds refer to
KERNEL_REF_S = 0.010
# samples taken right after set-up, before the step starts
PRE_SAMPLES = 5
# seconds between two timer samples while a step runs (overhead ~3 %)
TICK_S = 0.3


def kernel():
    """Fixed work of the engine's kind: build a dict keyed by tuples with
    ``Fraction`` values, then read it back in a scattered order.  A
    small loop that stays in the processor's first-level cache slows under
    load by more than the engine does; this one, which allocates and misses
    the caches as the engine's memos do, slows by about as much."""
    table = {}
    for i in range(KERNEL_N):
        table[(i, i & 7)] = Fraction(i, 7)
    total = 0
    for i in range(KERNEL_N):
        j = i * STRIDE % KERNEL_N
        total += table[(j, j & 7)].numerator
    return total


def sample():
    """One timed kernel run as (wall seconds, CPU seconds).  The collector
    is off meanwhile, so a full collection of the engine's objects never
    lands in a sample; the kernel's garbage is freed by reference count."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        w0, c0 = perf_counter(), process_time()
        kernel()
        return perf_counter() - w0, process_time() - c0
    finally:
        if enabled:
            gc.enable()


class Ticker:
    """Takes one kernel sample every TICK_S seconds of wall time while
    started.  The timer is re-armed after each sample, so samples never
    nest however slow the machine is."""

    def __init__(self):
        self.samples = []
        self.running = False

    def _tick(self, signum, frame):
        self.samples.append(sample())
        if self.running:
            signal.setitimer(signal.ITIMER_REAL, TICK_S)

    def start(self):
        self.running = True
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, TICK_S)

    def stop(self):
        self.running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def trimmed_mean(values):
    """Mean without the lowest and highest tenth: a sample that a context
    switch stretched tenfold must not move the mean."""
    ordered = sorted(values)
    k = len(ordered) // 10
    return statistics.fmean(ordered[k:len(ordered) - k])


def scale(seconds, kernel_times):
    """Seconds at reference speed, given kernel times sampled over the same
    span."""
    return seconds * KERNEL_REF_S / trimmed_mean(kernel_times)
