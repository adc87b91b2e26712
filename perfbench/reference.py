"""A fixed reference kernel that measures how fast the machine is right now.

On a shared virtual machine the same call can take 1.6 times as long a few
minutes later: the clock and the co-tenants change, not the program.  Much
of that drift is common to all work in the process, so `run.py` runs a
block of fixed work before the first workload call and after every call,
and scales each call's time by the mean chunk time of the two blocks around
it.  A chunk mixes what the workloads spend their time on: dense cosine
blocks of 16 x 8193 points (the lemma quadrature, in slices of 1 MB so that
the reference barely raises the process's peak memory), complex
FFTs of 8192 points (the decay solver's transforms), FFTs of 512 to 4096
points (the shock ladder) and a pure-Python loop (per-call overhead).

The kernel lives in the benchmark, not in `src/`, so no change to the
program can move it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: Seconds of one chunk at the machine's typical speed: the median chunk of
#: the benchmark's runs on a 2-vCPU Intel Xeon virtual machine.  It only
#: scales the normalised times into seconds; their spreads do not depend on
#: it.
NOMINAL_S = 0.32

#: Reference seconds run after a call per second of that call, so that a
#: long call is bracketed by a long sample of the machine's speed.
SHARE = 0.1

_ROWS = np.linspace(0.0, 50.0, 512)
_NODES = np.linspace(0.0, 2.0, 8193)
_SIGNALS = [np.exp(1j * np.linspace(0.0, 40.0, n)) for n in (512, 1024, 2048, 4096)]
_LARGE = np.exp(1j * np.linspace(0.0, 40.0, 8192))


def chunk() -> float:
    """Seconds taken by one chunk of the fixed work."""
    start = perf_counter()
    for lo in range(0, len(_ROWS), 16):
        np.cos(np.outer(_ROWS[lo:lo + 16], _NODES)).sum()
    x = _LARGE
    for _ in range(300):
        x = np.fft.ifft(np.fft.fft(x))
    for _ in range(150):
        for s in _SIGNALS:
            np.fft.ifft(np.fft.fft(s) * 1.0001)
    total = 0
    for i in range(400_000):
        total += i * i % 7
    return perf_counter() - start


def block(call_s: float) -> float:
    """Mean seconds per chunk over chunks run until they add up to `SHARE`
    of `call_s` (a call's seconds, or the run's window before the first
    call), at least one."""
    chunks = [chunk()]
    while sum(chunks) < SHARE * call_s:
        chunks.append(chunk())
    return sum(chunks) / len(chunks)


def normalised(durations: list[float], blocks: list[float]) -> list[float]:
    """Each call's seconds at the typical speed: scaled by `NOMINAL_S` over
    the mean of the blocks before and after it (`blocks[i]`, `blocks[i+1]`)."""
    return [d * 2.0 * NOMINAL_S / (blocks[i] + blocks[i + 1])
            for i, d in enumerate(durations)]
