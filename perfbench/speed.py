"""Host-speed normalization: timings rescaled to a fixed reference speed.

The benchmark runs on shared hosts whose speed drifts by up to 1.9x over
minutes: the same fixed loop of Python code takes 1.2 ms at one time and
2.1 ms at another, with no steal time reported.  No raw wall time is
steady under that, so every end-to-end time is measured together with
the host's speed and rescaled to a fixed reference speed.

:class:`Speedometer` arms an interval timer; every ``INTERVAL_S`` of wall
time its signal handler times one call of :func:`reference`, a fixed
piece of interpreter work that no program change can touch.  The samples
are uniform in time over the measured region, so they see the same mix
of fast and slow host phases as the program.  A region that took
``wall`` seconds is reported as::

    (wall - handler time) * mean(REFERENCE_S / sample)

the time it would have taken where ``reference()`` takes
``REFERENCE_S``.  An op's latency is rescaled by the samples taken within
``WINDOW_S`` of its start, because a slow stretch of a few hundred
milliseconds can cover one family of ops and not the rest of the pass.

Where the work runs in forked workers, the workers take the samples: at
fork each one arms its own timer and appends its samples to a file in
the meter's spool directory, which the parent reads when the region
ends.  A parent waiting on its pool would otherwise sample a core its
workers are contending for.

On a 2-vCPU VM, over passes whose reference sample took 47 to 110 µs,
the ratio of a pass's raw time to its mean sample stayed within ±5% on
every workload.
"""

from __future__ import annotations

import bisect
import os
import signal
from itertools import accumulate
from pathlib import Path
from time import perf_counter

#: wall time between two speed samples; the sample's own time depends on
#: it (a longer gap leaves the reference's code and data colder)
INTERVAL_S = 0.005
#: the time ``reference()`` takes on the reference host
REFERENCE_S = 50e-6
#: half-width of the window of samples that rescales one op's latency
WINDOW_S = 0.25
#: samples a worker buffers before appending them to its spool file
SPOOL_EVERY = 32

#: the meter whose region is open and whose forked workers sample; a
#: fork hook cannot be unregistered, so one hook reads it from here
_SPOOLING: list["Speedometer"] = []


def reference() -> int:
    """Fixed interpreter work: tuple keys, dict updates, str(), sort."""
    table: dict = {}
    total = 0
    for i in range(150):
        key = (i & 15, "k")
        table[key] = table.get(key, 0) + i
        total += len(str(i))
    return total + len(sorted(table.items()))


def _start_worker() -> None:
    if _SPOOLING:
        _SPOOLING[0]._start_in_worker()


os.register_at_fork(after_in_child=_start_worker)


class Speedometer:
    """Samples the host's speed on SIGALRM while its region runs.

    Use as a context manager around the measured region, in the main
    thread.  The handler interrupts a blocked main thread too (Python
    retries the interrupted call).  With ``spool``, a directory, the
    process's forked workers take the samples instead.
    """

    def __init__(self, spool: Path | None = None) -> None:
        #: when each sample began, and reference time / sample time
        self.stamps: list[float] = []
        self.speeds: list[float] = []
        self.handler_s = 0.0
        self.spool = spool
        self._spool_file = None
        self._ticking = False

    def _tick(self, signum, frame) -> None:
        # a handler held up past the next interval (descheduled, or slow
        # to write its spool) is not re-entered: that tick is dropped
        if self._ticking:
            return
        self._ticking = True
        try:
            began = perf_counter()
            reference()
            self.stamps.append(began)
            self.speeds.append(REFERENCE_S / (perf_counter() - began))
            if self._spool_file is not None and len(self.stamps) >= SPOOL_EVERY:
                self._spool_file.write(
                    "".join(f"{t!r} {s!r}\n" for t, s in zip(self.stamps, self.speeds))
                )
                self._spool_file.flush()
                self.stamps.clear()
                self.speeds.clear()
            self.handler_s += perf_counter() - began
        finally:
            self._ticking = False

    def _arm(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def _start_in_worker(self) -> None:
        """In a freshly forked worker: sample here, spooling to a file."""
        _SPOOLING.clear()
        self.stamps, self.speeds = [], []
        self._spool_file = open(self.spool / f"{os.getpid()}.txt", "a")
        self._arm()

    def __enter__(self) -> "Speedometer":
        if self.spool is None:
            self._arm()
        else:
            self.spool.mkdir(parents=True, exist_ok=True)
            _SPOOLING.append(self)
        return self

    def __exit__(self, *exc_info) -> None:
        if self.spool is None:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, self._previous)
            return
        _SPOOLING.clear()
        samples = []
        for path in sorted(self.spool.glob("*.txt")):
            # a worker killed mid-write leaves at most one unfinished line
            for line in path.read_text().split("\n")[:-1]:
                stamp, speed = line.split()
                samples.append((float(stamp), float(speed)))
            path.unlink()
        samples.sort()
        self.stamps = [stamp for stamp, _ in samples]
        self.speeds = [speed for _, speed in samples]

    def factor(self) -> float:
        """Reference time per measured time; 1.0 without samples."""
        if not self.speeds:
            return 1.0
        return sum(self.speeds) / len(self.speeds)

    def scale(self, seconds: float) -> float:
        """``seconds`` of wall time spent while running, minus the time the
        samples took here, at reference speed."""
        return (seconds - self.handler_s) * self.factor()

    def factors_at(self, times: list[float]) -> list[float]:
        """The mean factor of the samples within ``WINDOW_S`` of each of
        ``times`` (``perf_counter`` values); the whole region's factor
        where a window holds no sample."""
        whole = self.factor()
        totals = [0.0, *accumulate(self.speeds)]
        factors = []
        for t in times:
            lo = bisect.bisect_left(self.stamps, t - WINDOW_S)
            hi = bisect.bisect_right(self.stamps, t + WINDOW_S)
            factors.append((totals[hi] - totals[lo]) / (hi - lo) if hi > lo else whole)
        return factors
