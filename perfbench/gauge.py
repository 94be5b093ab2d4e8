"""The speed gauge: a fixed reference job, timed around (and during) every
timed operation, that turns wall seconds into seconds at reference speed.

The benchmark runs on a few vCPUs of a shared host whose speed drifts by up to
30% over tens of seconds, and less over fractions of a second, with other
tenants' load.  The drift slows the reference job and the package's code
alike, so an operation's wall time divided by the mean reference time
measured around and during it barely moves with the host.  A timing metric is
that ratio times the reference's fixed nominal time: the wall seconds the
operation would have taken on a host where the reference takes that long.

The reference jobs are this file's own code and the standard library, so a
change to the package moves an operation's time but never the gauge.  There
are two, one per kind of operation:

* ``LOOP``, for in-process operations: a pure-Python loop that composes
  permutations stored as tuples and counts them in a dict, the same kind of
  interpreter work as the package's group code.  The cyclic garbage
  collector is paused while it runs, so its time does not grow with the heap
  the package leaves behind.  During the operation an interval timer
  interrupts it every ``PERIOD`` seconds; the signal handler runs one loop,
  and its time is taken out of the operation's wall time.
* ``INTERPRETER``, for subprocess operations: an isolated interpreter (``-I``,
  so it cannot see the package) that starts and imports numpy, the same kind
  of work as a command's start: process start-up, module loading and the
  mapping of numpy's shared libraries.  An interpreter that imported only
  standard modules tracked the drift within a run as well, but missed a
  change in the host's cost of loading numpy that moved every command by
  20%.  It gets no ticks, because they would run beside the child on
  another vCPU.  A reading costs about as much as a command, so one stands
  for the commands of the next ``fresh_s`` seconds.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

PERIOD = 0.05  # seconds between loop ticks during an in-process operation

_PERMS = [tuple(random.Random(f"gauge/{k}").sample(range(12), 12)) for k in range(40)]
_INTERPRETER_ARGV = [sys.executable, "-I", "-c", "import numpy"]


def _loop() -> None:
    seen: dict[tuple[int, ...], int] = {}
    for a in _PERMS:
        for b in _PERMS:
            c = tuple([a[i] for i in b])
            seen[c] = seen.get(c, 0) + 1


def _time_loop() -> float:
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _loop()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def _time_interpreter() -> float:
    start = time.perf_counter()
    subprocess.run(_INTERPRETER_ARGV, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                   check=True)
    return time.perf_counter() - start


@dataclass(frozen=True)
class Reference:
    """A reference job: ``time_once()`` runs it once and returns its wall
    seconds; a reading is the median of ``rounds`` runs, and a reading
    younger than ``fresh_s`` seconds is reused.  ``nominal_s`` is
    its median time on the 2-vCPU host the seed baseline was recorded on.
    It is a fixed constant that sets the scale of the timing metrics; runs
    compare only with runs that use the same value."""

    time_once: object
    nominal_s: float
    rounds: int
    fresh_s: float
    ticks: bool


LOOP = Reference(_time_loop, nominal_s=0.0015, rounds=3, fresh_s=0.05, ticks=True)
INTERPRETER = Reference(_time_interpreter, nominal_s=0.15, rounds=1, fresh_s=0.5, ticks=False)


class Gauge:
    """Times operations against a reference job; ``readings`` keeps every
    reference time taken."""

    def __init__(self, reference: Reference) -> None:
        self.reference = reference
        self.readings: list[float] = []
        self._last = (0.0, float("-inf"))  # (reading, when it ended)
        self._during: list[float] | None = None  # tick readings of the current operation
        self._inside = 0.0  # seconds spent in the signal handler during it
        for _ in range(3):  # warm the reference before its first reading counts
            reference.time_once()
        if reference.ticks:
            signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, _signum, _frame) -> None:
        if self._during is None:  # a tick that arrived after its operation ended
            return
        start = time.perf_counter()
        self._during.append(self.reference.time_once())
        self._inside += time.perf_counter() - start

    def reading(self) -> float:
        """The last reading if it is fresh, else a new one."""
        value, when = self._last
        if time.perf_counter() - when >= self.reference.fresh_s:
            value = statistics.median(self.reference.time_once()
                                      for _ in range(self.reference.rounds))
            self._last = (value, time.perf_counter())
        return value

    def timed(self, fn):
        """Call fn(); returns (result, wall seconds, seconds at reference
        speed).  The wall seconds leave out the ticks.  If fn raises, the
        exception propagates."""
        samples = [self.reading()]
        self._during, self._inside = [], 0.0
        if self.reference.ticks:
            signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        start = time.perf_counter()
        try:
            result = fn()
        finally:
            if self.reference.ticks:
                signal.setitimer(signal.ITIMER_REAL, 0)
            end = time.perf_counter()
            samples += self._during
            self._during = None
        wall = end - start - self._inside
        samples.append(self.reading())
        self.readings += samples
        return result, wall, wall * self.reference.nominal_s / statistics.mean(samples)
