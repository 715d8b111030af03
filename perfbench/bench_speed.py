"""Machine-speed probe that turns wall times into calibrated times.

Machines shared with other tenants change speed by up to a factor of two
over seconds, and each virtual CPU does so on its own. So that run-to-run
spread shows changes in the program rather than in the machine, the probe
samples the speed of the CPU the benchmark process is on while a section is
measured: a timer signal every PERIOD_S runs one of a few fixed probe
kernels, which use no physec code, in the benchmark process itself. A
section's calibrated time is its wall time less the probe's own time,
divided by the machine's slowdown: the mean, over kernels, of a kernel's
time in the section over its reference time on an idle core. Over 60 s of
snr_sweep passes, pass time varied with this slowdown with a fitted
log-log slope of 1.1 to 1.2, and calibration cut the pass-to-pass
coefficient of variation from 15-20% to about 6%.
"""
from __future__ import annotations

import hashlib
import signal
import statistics
import time
from contextlib import contextmanager

import numpy as np

PERIOD_S = 0.03
SPOT_REPEATS = 5


def _kernel_interpreter():
    total = 0
    for i in range(20_000):
        total += i * i
    return total


def _kernel_mixed():
    table = {}
    for i in range(400):
        table[i * 1.5] = i
    x = np.arange(64.0)
    for _ in range(30):
        x = np.fft.fft(x).real / 64.0
    digest = b"x" * 64
    for _ in range(60):
        digest = hashlib.sha256(digest * 4).digest()
    return np.asarray([table.get(i * 1.5) for i in range(400)], dtype=float), digest


def _kernel_small_arrays():
    rng = np.random.default_rng(1)
    for _ in range(20):
        bits = rng.integers(0, 2, 96, dtype=np.uint8)
        packed = np.unpackbits(np.packbits(bits))
        np.flatnonzero(bits ^ packed[:96])
        np.fft.ifft(bits.astype(complex), norm="ortho")


# (kernel, reference seconds): about the fastest of 200 runs of the kernel
# on a 2-vCPU 2.1 GHz x86-64 virtual machine
KERNELS = (
    (_kernel_interpreter, 0.00124),
    (_kernel_mixed, 0.00050),
    (_kernel_small_arrays, 0.00057),
)


class SpeedProbe:
    """Samples the probe kernels while measured sections run.

    Wrap a section that runs in this process in ``sampling()``, then call
    ``calibrate(start, end)`` with perf_counter() readings of it. Samples
    are kept as (start, duration, kernel index). Work done by other
    processes is calibrated with ``spot_slowdown()`` readings taken next to
    it instead, because a probe running beside that work would compete with
    it for the CPU.
    """

    def __init__(self):
        self.samples: list[tuple[float, float, int]] = []
        self._next = 0
        for kernel, _ in KERNELS:
            kernel()

    def _sample(self, signum, frame):
        index = self._next % len(KERNELS)
        self._next += 1
        t0 = time.perf_counter()
        KERNELS[index][0]()
        self.samples.append((t0, time.perf_counter() - t0, index))

    @contextmanager
    def sampling(self):
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def spot_slowdown(self) -> float:
        """Slowdown measured now by running each kernel SPOT_REPEATS times."""
        ratios = []
        for kernel, reference in KERNELS:
            t0 = time.perf_counter()
            for _ in range(SPOT_REPEATS):
                kernel()
            ratios.append((time.perf_counter() - t0) / SPOT_REPEATS / reference)
        return statistics.fmean(ratios)

    def slowdown(self, start: float, end: float) -> float:
        """Mean over kernels of their time within [start, end) over their
        reference time; 1.0 is the idle reference machine."""
        per_kernel = [[] for _ in KERNELS]
        for t0, duration, index in self.samples:
            if start <= t0 < end:
                per_kernel[index].append(duration)
        ratios = [
            statistics.fmean(times) / KERNELS[i][1]
            for i, times in enumerate(per_kernel)
            if times
        ]
        if not ratios:
            raise RuntimeError("section too short for a speed sample")
        return statistics.fmean(ratios)

    def calibrate(self, start: float, end: float) -> float:
        """Seconds the sampled section [start, end) would take on the
        reference core, without the probe's own time."""
        probe_time = sum(d for t0, d, _ in self.samples if start <= t0 < end)
        return (end - start - probe_time) / self.slowdown(start, end)
