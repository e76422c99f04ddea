"""Host speed, read from a fixed calibration kernel.

The machine this benchmark was defined on shares its cores with other
virtual machines. The same code ran up to 2.8 times slower from one
tenth of a second to the next, and about 1.7 times slower from one minute
to the next; the kernel below slowed down largely in step with the
simulator. Every time the benchmark reports is therefore scaled to the
kernel's speed, so that it reads as seconds on that machine when nothing
else runs:

- ``Sampler`` times the kernel every ``INTERVAL_S`` while an operation
  runs (from a timer signal, between bytecodes of the operation),
  subtracts those samples from the operation's time and scales the rest
  by the samples' mean speed;
- ``bracketed`` times the kernel before and after a span that cannot be
  sampled (a child process) and scales it by their mean speed.

The kernel uses only the interpreter and NumPy, not the package, so a
change to the package cannot move it.
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np

REF_PER_ITER_S = 2.75e-6      # kernel seconds per iteration there, idle
SAMPLE_ITERATIONS = 2_000     # ~5 ms, taken every INTERVAL_S
BRACKET_ITERATIONS = 40_000   # ~0.1 s, before and after a bracketed span
INTERVAL_S = 0.2


def kernel_seconds(iterations: int) -> float:
    """Time the kernel: small-array NumPy calls in a Python loop, the same
    mix as the simulator's inner loops."""
    x = np.ones((3, 2))
    w = np.ones(3)
    total = 0.0
    start = time.perf_counter()
    for i in range(iterations):
        total += float((x * w[:, None]).sum()) + i * 0.5
    return time.perf_counter() - start


def _scale(times: list[float], iterations: int) -> float:
    return REF_PER_ITER_S * iterations / statistics.mean(times)


def bracketed(fn, *args):
    """``fn(*args)`` between two kernel runs: (result, scale factor)."""
    before = kernel_seconds(BRACKET_ITERATIONS)
    result = fn(*args)
    after = kernel_seconds(BRACKET_ITERATIONS)
    return result, _scale([before, after], BRACKET_ITERATIONS)


class Sampler:
    """Samples the host's speed while its ``with`` block runs.

    ``stolen`` is the time the samples took inside the block; ``scale()``
    is the factor for the rest of the block's time.
    """

    def __enter__(self) -> Sampler:
        self.samples: list[float] = []
        self.stolen = 0.0
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self.samples.append(kernel_seconds(SAMPLE_ITERATIONS))
        self.stolen += time.perf_counter() - start

    def scale(self) -> float:
        if not self.samples:          # a block shorter than INTERVAL_S
            self.samples.append(kernel_seconds(SAMPLE_ITERATIONS))
        return _scale(self.samples, SAMPLE_ITERATIONS)
