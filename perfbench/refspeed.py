"""Reference-speed calibration: a fixed pure-stdlib kernel.

The speed of the processor a run gets varies, on a shared machine, by
far more than the code under test does: on the 2-core virtual machine
the benchmark was written on, a fixed kernel's time per call moved by
up to 50% between phases a few hundred milliseconds long, and raw
throughput differed by 18% (quartile distance over median) between
runs.  Timed figures are therefore rescaled to *reference speed*.
While a pass runs, the kernel is timed every :data:`SEGMENT_SECONDS`;
each request's time is multiplied by
``NOMINAL_SECONDS`` over the median of the kernel timings around it.
A request that ran while the machine was 30% slow is scaled back by
30%.

The kernel does the kind of work the query engine does - building
dict rows, grouping them by a hashed key, copying and sorting them -
and imports nothing from ``repro``, so a change to the program cannot
move it.  Of the kernels tried, this one tracked the program best: the
spread of pass times within a run fell from about 7-20% raw to 1-2%,
against 3-5% for a kernel of small-integer dict and sort work.
"""

import gc
import statistics
import time

#: Typical duration of one :func:`kernel` call between requests on the
#: reference machine (2-core Intel Xeon virtual machine, Python 3.11).  Scaled
#: figures read as if the whole run had been made at that speed.
NOMINAL_SECONDS = 0.0029

#: Pass time between two kernel timings.
SEGMENT_SECONDS = 0.02

_ROWS = 2000


def kernel():
    """A fixed amount of row work: dict rows built, hashed, copied, sorted."""
    rows = [{"a": i, "b": (i * 7919) % 5003, "c": i % 97} for i in range(_ROWS)]
    groups = {}
    for row in rows:
        groups.setdefault(row["c"], []).append(row)
    kept = [dict(row, d=len(groups[row["c"]])) for row in rows if row["b"] < 4000]
    kept.sort(key=lambda row: (row["b"], row["a"]))
    return len(kept)


def timed_kernel():
    """Wall time of one kernel call, in seconds.

    The garbage collector is held off during the call: a collection
    of the program's heap triggered by the kernel's allocations would
    be charged to the machine's speed.
    """
    gc.disable()
    try:
        started = time.perf_counter()
        kernel()
        return time.perf_counter() - started
    finally:
        gc.enable()


def kernel_median(repeats=7):
    """Median of ``repeats`` kernel timings, in seconds.

    Taken just before and just after a single long operation (a
    set-up), whose scale is ``NOMINAL_SECONDS`` over the mean of both.
    """
    return statistics.median(timed_kernel() for _ in range(repeats))


class PassClock:
    """Kernel timings interleaved with one pass's requests.

    :meth:`tick` after every request takes a kernel timing once
    :data:`SEGMENT_SECONDS` have passed since the last one;
    :meth:`segment` names the segment the next request falls in.
    """

    def __init__(self):
        self.timings = [timed_kernel()]
        self._last = time.perf_counter()

    def segment(self):
        return len(self.timings) - 1

    def tick(self):
        now = time.perf_counter()
        if now - self._last >= SEGMENT_SECONDS:
            self.timings.append(timed_kernel())
            self._last = time.perf_counter()

    def finish(self):
        """Close the last segment; returns one scale factor per segment.

        Segment ``i`` lies between timings ``i`` and ``i + 1``; its
        scale uses the median of those two and their outer neighbours,
        so that one timing hit by an interruption does not skew it.
        """
        self.timings.append(timed_kernel())
        timings = self.timings
        return [
            NOMINAL_SECONDS / statistics.median(timings[max(0, i - 1) : i + 3])
            for i in range(len(timings) - 1)
        ]
