"""Fixed reference kernel that gauges how fast the host runs this process now.

The benchmark runs on a shared host whose speed moves by up to 2x within
seconds, for the program and for any fixed code alike.  Timing this kernel
next to the program and scaling by ``REF_S / kernel seconds`` takes that
movement out of ``setup_s`` and ``scan_norm_s``.  The kernel never touches
the package, so a change to the package cannot move it.
"""

from __future__ import annotations

import time

import numpy as np

# About the seconds of reference_block on the 2 vCPU Xeon the baseline in
# README.md was recorded on.  It only sets the scale of the normalised times.
REF_S = 0.005

_X = np.linspace(0.1, 10.0, 20000)
# Work arrays, so that the kernel allocates nothing on the program's heap.
_Z = np.empty(20000, dtype=complex)
_S = np.empty(20000)


def reference_block() -> float:
    """Seconds of one run of the kernel: a pure-Python float loop and complex
    numpy arithmetic on 20 000-element arrays.

    Of the kernels tried (also small and memory-bound arrays, page faults,
    float formatting), this pair's time tracked the campaigns' commands most
    closely while the host's speed moved.  It writes into preallocated arrays
    and has no np.cumsum: run from a signal handler during long_chain, a
    version with one raised the worker's peak RSS by 17 MB.
    """
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(20000):
        acc += (i * 0.5) % 7.0
    for _ in range(2):
        np.multiply(1j, _X, out=_Z)
        np.exp(_Z, out=_Z)
        np.multiply(_Z, np.sin(_X, out=_S), out=_Z)
        acc += float(np.abs(_Z, out=_S).sum())
    return time.perf_counter() - t0
