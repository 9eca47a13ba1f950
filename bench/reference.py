"""A fixed reference loop, sampled during every round to gauge machine speed.

On a shared host the speed of one core drifts by a third or more over tens
of seconds, and the drift outlasts a whole run, so no statistic of the
stage times alone stays steady from run to run. While a round runs, a
wall-clock timer interrupts it every ``INTERVAL_S`` seconds and runs this
loop once in the signal handler, between two bytecodes of the program.
The harness then divides the round's time, less the loop's, by the loop's
mean time in that round. The loop mixes the kinds of work the program
does: interpreted Python on dicts and floats, small dense numpy algebra,
and array passes over a frame-sized buffer. It never calls the program
and touches none of its state, so a change to the program cannot change
it or the program's outputs.
"""

import signal
import time

import numpy as np

INTERVAL_S = 0.05


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((48, 48))
        self._b = rng.standard_normal(20000)
        self._frame = rng.integers(0, 256, size=(36, 48, 3))
        self._previous = None
        self.seconds = 0.0
        self.loops = 0

    def _once(self):
        acc, s = {}, 0.0
        for i in range(1500):
            k = i % 97
            acc[k] = acc.get(k, 0.0) + i * 0.5
            s += acc[k]
        for _ in range(20):
            s += float(np.exp(-np.abs(self._a @ self._a)).sum())
        s += float(np.sort(self._b).sum())
        s += float(np.histogram(self._frame, bins=16)[0].sum())
        return s

    def _tick(self, signum=None, frame=None):
        t0 = time.perf_counter()
        self._once()
        self.seconds += time.perf_counter() - t0
        self.loops += 1

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def take(self):
        """(seconds the loop ran since the last take, its mean time per run),
        and reset. A round shorter than the interval gets one run now, which
        counts in the mean but not in the seconds."""
        spent = self.seconds
        if not self.loops:
            self._tick()
        mean = self.seconds / self.loops
        self.seconds, self.loops = 0.0, 0
        return spent, mean
