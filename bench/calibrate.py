"""A fixed probe of how fast the host runs this process right now.

The benchmark shares a few cores of a host with other tenants, and the
speed they leave it swings by about 1.5x, both from second to second and
over minutes.  Wall time therefore measures the host as much as the
program.  :func:`probe` times a fixed kernel that does not depend on
dropattack: an interpreter loop and small numpy calls, the same mix the
CLI operations spend their time in.  Dividing an operation's wall time by
the probe's slowdown next to it, ``probe() / PROBE_NOMINAL_S``, gives the
operation's time at the host's nominal speed.

``PROBE_NOMINAL_S`` is a fixed constant, the kernel's time on an unloaded
2-vCPU Xeon host (2.0 GHz, Python 3, numpy 2.4, one OpenBLAS thread), so
normalized times read as wall times on that host when it is quiet; it is
never re-measured, so a change to the program cannot move it.
"""

import time

import numpy as np

PROBE_NOMINAL_S = 4.0e-3

_A = np.linspace(-1.0, 1.0, 36).reshape(6, 6)
_B = np.eye(6) * 0.5 + 0.01


def _kernel():
    total = 0
    for i in range(20000):
        total += (i * i) % 7
    table = {}
    for i in range(4000):
        table[i % 37] = table.get(i % 37, 0) + i
    a = _A
    for _ in range(800):
        a = np.tanh(a @ _B) + _A
    return total + len(table) + float(a[0, 0])


def probe():
    """Wall seconds of one run of the fixed kernel (about 4 ms unloaded)."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0

