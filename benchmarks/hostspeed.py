"""Host speed meter, for timings that hold still on a shared host.

A shared host (measured: a 2-vCPU KVM guest whose cores other tenants use, see
README.md) can change speed by up to 2x in phases that last from milliseconds
to tens of seconds, far more than the regression bounds allow.  So the benchmark times each request
inside a ``Meter``, which runs a fixed pure-Python reference kernel, the probe,
3 times before the request, every ``INTERVAL_S`` during it (from a SIGALRM
handler, whose own time is taken out of the latency) and 3 times after it.  The
latency is rescaled to a host on which the probe takes ``REF_S``:

    normalized = latency * REF_S / trimmed mean of the probe times

The kernel has the shape of a Sturm sign count, the program's hottest loop, so
it slows down with the host much as the program does.  The trimmed mean drops
the slowest tenth of the probe times, the ones an interrupt landed in.  This
module imports nothing from the program, so it can also time ``import pdem_si``
in a fresh interpreter.
"""
import random
import signal
import time

REF_S = 1e-4
INTERVAL_S = 0.02

_rng = random.Random(0)
_D = [_rng.uniform(-1.0, 1.0) for _ in range(1000)]
_E2 = [_rng.uniform(0.1, 1.0) for _ in range(999)]


def _kernel() -> int:
    cnt = 0
    q = _D[0]
    for j in range(1, len(_D)):
        q = _D[j] - 0.1 - _E2[j - 1] / q
        if -1e-300 < q < 1e-300:
            q = -1e-300
        if q < 0.0:
            cnt += 1
    return cnt


def _probe() -> float:
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


for _ in range(5):  # let the interpreter specialise the kernel before it is timed
    _kernel()


class Meter:
    """``with Meter() as m: work()`` leaves ``m.latency`` (seconds, probe time
    excluded), ``m.slowdown`` (mean probe time over REF_S) and ``m.normalized``."""

    def __enter__(self):
        self.samples = [_probe() for _ in range(3)]
        self._spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        self._t0 = time.perf_counter()
        return self

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(_probe())
        self._spent += time.perf_counter() - t0

    def __exit__(self, *exc_info):
        elapsed = time.perf_counter() - self._t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.latency = elapsed - self._spent
        self.samples += [_probe() for _ in range(3)]
        kept = sorted(self.samples)[: max(1, int(0.9 * len(self.samples)))]
        self.slowdown = sum(kept) / len(kept) / REF_S
        self.normalized = self.latency / self.slowdown
        return False
