"""Time at a reference machine speed.

The host the benchmark was defined on changes speed by up to 1.5x over
tens of seconds, in CPU time as well as wall time: a fixed pure-Python
loop took 0.145 s in one stretch and 0.23 s in the next.  A run of 30
seconds then measures the host as much as the program.  So a worker
samples the machine's speed while it works and reports time at a fixed
reference speed next to the raw time:

- A timer signal every PERIOD_S interrupts the program, and the handler
  times kernel(): 256-bit complex arithmetic in mpmath and a plain
  interpreter loop, the kind of work the program does with mpmath's
  Python backend.
- Each stretch of program time between two samples counts
  `stretch * REF_KERNEL_S / kernel time`, with the kernel time of the
  sample that opened the stretch.  The first stretch uses the median of
  a burst of kernels run just before the clock starts.
- The handler's own time is left out of both clocks.

A program change does not move kernel(), so a change that makes the
program k times faster makes its reference time k times smaller.
"""

import signal
import statistics
import time

from mpmath import mp

PERIOD_S = 0.1
# between the kernel() medians seen in start-up bursts (about 1.3 ms) and
# inside passes (about 1.8 ms) on the host the benchmark was defined on
# (2 vCPUs, "Intel(R) Xeon(R) Processor", Python 3.11); there, a pass at
# reference speed reads 0.85-0.97 of its raw time
REF_KERNEL_S = 1.6e-3
BURST = 15


def kernel():
    """Complex arithmetic at 256 bits, then a plain integer loop."""
    with mp.workprec(256):
        a, b, s = mp.mpc("0.3", "0.7"), mp.mpc("1.1", "-0.2"), mp.mpc(0)
        for i in range(60):
            s = s * a + b / (i + 1)
    n = 0
    for i in range(4000):
        n += i * i % 7
    return s, n


def time_kernel() -> float:
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def burst() -> float:
    """Median time of BURST kernels run back to back."""
    return statistics.median(time_kernel() for _ in range(BURST))


class SpeedClock:
    """Raw program time and program time at reference speed, both
    without the sampling handler's time.  Use as a context manager;
    read both clocks with now()."""

    def __init__(self):
        self.samples = []
        self.raw = self.ref = 0.0
        self.start_kernel_s = burst()
        self.factor = REF_KERNEL_S / self.start_kernel_s
        self.last = time.perf_counter()

    def _sample(self, signum, frame):
        t = time.perf_counter()
        self.raw += t - self.last
        self.ref += (t - self.last) * self.factor
        k = time_kernel()
        self.samples.append(k)
        self.factor = REF_KERNEL_S / k
        self.last = time.perf_counter()

    def now(self) -> tuple:
        """(raw seconds, seconds at reference speed) so far."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            dt = time.perf_counter() - self.last
            return self.raw + dt, self.ref + dt * self.factor
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def __enter__(self):
        self.previous = signal.signal(signal.SIGALRM, self._sample)
        self.last = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)
        return False
