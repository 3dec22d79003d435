"""Host-speed calibration with fixed reference kernels.

On a shared host the same code runs up to 1.8x slower in phases that last
from seconds to minutes, as other tenants load the same cores and caches;
a pure-Python loop timed every 0.15 s on a 2-vCPU host wandered between
0.10 and 0.18 s. Wall times taken in such phases differ by more than any
useful bound, and no statistic over a run of tens of seconds removes a
phase that covers the whole run.

So the child times a reference kernel just before and just after every
measured item, and ``run.py`` reports each item's wall time scaled by
``nominal / kernel time``: seconds on a host where the kernel takes its
nominal time. The kernels do the kinds of work eprweave does (interpreter
loops and dict stores, SVD and Kronecker products of small complex
matrices, masks, gathers and a two-row SVD over a 1 MiB register) but call
no eprweave code, so a change to eprweave moves the item times and never
the kernel. The raw wall times are printed next to the scaled ones.
"""

from __future__ import annotations

import statistics
import time

#: Kernel timings taken on each side of a measured item.
REPS = 2
#: Nominal times in seconds: the fast end (5th percentile) of what the
#: kernels took on a 2-vCPU cloud host, Python 3.11, numpy 2.4, one BLAS
#: thread.
PYTHON_NOMINAL_S = 0.0011
COMPOSITE_NOMINAL_S = 0.0055

_state: dict = {}


def python_kernel() -> int:
    """Interpreter work: integer arithmetic and dict stores."""
    s, d = 0, {}
    for i in range(12000):
        d[i % 97] = s
        s += i * i % 7
    return s


def _arrays():
    if not _state:
        import numpy as np

        rng = np.random.default_rng(0)
        _state["np"] = np
        _state["matrix"] = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        _state["register"] = (rng.standard_normal(2**16) + 0j) / 256
    return _state


def small_matrix_kernel() -> None:
    """SVD and Kronecker products of 2-8 dimensional complex matrices."""
    s = _arrays()
    np, m = s["np"], s["matrix"]
    for _ in range(25):
        np.linalg.svd(m)
        np.kron(m[:2, :2], m[:4, :4])


def register_kernel() -> float:
    """Masks, gathers and a two-row SVD over a 16-qubit register."""
    s = _arrays()
    np, reg = s["np"], s["register"]
    base = np.arange(reg.size)
    hot = (base & 8) != 0
    np.linalg.svd(np.stack([reg[~hot], reg[hot]]), full_matrices=False)
    out = reg[base ^ 4]
    return float(np.sum(np.abs(out) ** 2))


def _timed(kernels) -> float:
    t0 = time.perf_counter()
    for kernel in kernels:
        kernel()
    return time.perf_counter() - t0


def python_time(reps: int = REPS) -> list[float]:
    """``reps`` timings of the Python kernel; imports nothing."""
    return [_timed((python_kernel,)) for _ in range(reps)]


def composite_time(reps: int = REPS) -> list[float]:
    """``reps`` timings of all three kernels run back to back."""
    kernels = (python_kernel, small_matrix_kernel, register_kernel)
    return [_timed(kernels) for _ in range(reps)]


def scale(elapsed: float, kernel_times: list[float], nominal: float) -> float:
    """Wall time ``elapsed`` as seconds on a host where the kernel, timed
    ``kernel_times`` around it, takes ``nominal``."""
    return elapsed * nominal / statistics.fmean(kernel_times)
