"""A fixed piece of work that does not touch li_qt, timed to track machine speed.

On a shared host the same code runs up to 1.5x slower for minutes at a time,
so raw wall times of runs made minutes apart spread far more than any change
worth measuring.  The benchmark times this kernel after each iteration and
scales its end-to-end times by ``REFERENCE_S / median(kernel times)``: it
reports seconds on a machine where the kernel takes ``REFERENCE_S``.  The raw
times are kept in the run's record.

The kernel is an integer loop in the interpreter.  In a five-minute
comparison on a 2-vCPU Xeon VM, the ratio of each workload's time to this
kernel's spread 6-8 % (IQR/median over 30 s windows), against 18-29 % for the
raw times and 11-32 % for kernels that also parsed CSV, sorted arrays or wrote
files.
"""

from __future__ import annotations

from time import perf_counter

REFERENCE_S = 0.040  # the kernel's typical time on a 2-vCPU 2.1 GHz Xeon VM
_STEPS = 500_000


def time_kernel() -> float:
    start = perf_counter()
    total = 0
    for i in range(_STEPS):
        total += i * i
    return perf_counter() - start
