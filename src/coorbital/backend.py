"""The interaction kernel f and its derivatives f' and f'', written
once over ndarrays and once as a scalar ``math`` twin.

``curve_scan`` evaluates the curve function on a whole theta1 line with
numpy, ``kernel`` tabulates f, f' and f'' on array blocks, and
``residual_general`` sums f over the rows of large rings; the scalar
functions serve root refinement, the case scans, small rings and
scalar calls of the public API. numpy is imported inside the array
functions, so a run that builds no array never loads it. Both use
the same operation order (``s*s*s`` instead of powers, the same
association everywhere, ``np.abs`` for the sign branch), so every array
entry is bit-identical to the scalar function at that node; the test suite
checks this rather than assuming that numpy's ``sin``/``cos`` round
like ``math``'s.

No domain checking happens at this level; callers guarantee arguments
stay inside the open interval (0, 2*pi) and the admissible strip.
Below theta ~ 1e-80 a denominator underflows to zero; where Python's
division would raise ZeroDivisionError, the scalar functions return the
infinity that numpy's division gives (the numerators are positive
there). The ``try`` costs nothing on the normal path.
"""

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

BACKEND = "numpy"

TWO_PI = 2.0 * math.pi


def f_eval(theta):
    s = math.sin(0.5 * theta)
    if s < 0.0:
        s = -s
    c = 8.0 * (s * s * s)
    try:
        return math.sin(theta) * (1.0 - 1.0 / c)
    except ZeroDivisionError:
        return math.sin(theta) * (1.0 - math.inf)


def f_prime(theta):
    s = math.sin(0.5 * theta)
    if s < 0.0:
        s = -s
    ct = math.cos(theta)
    try:
        return ct + (3.0 + ct) / (16.0 * (s * s * s))
    except ZeroDivisionError:
        return ct + math.inf


def f_double_prime(theta):
    s = math.sin(0.5 * theta)
    if s < 0.0:
        s = -s
    s2 = s * s
    try:
        return -math.sin(theta) - (11.0 + math.cos(theta)) * math.cos(0.5 * theta) / (32.0 * (s2 * s2))
    except ZeroDivisionError:
        return -math.sin(theta) - math.inf


def curve_eval(theta1, theta2):
    f1 = f_eval(theta1)
    f12 = f_eval(theta1 + theta2)
    return f1 * f1 - f12 * f12 - f_eval(theta2) * f_eval(TWO_PI - 2.0 * theta1 - theta2)


def _f_array(theta: "np.ndarray") -> "np.ndarray":
    import numpy as np
    s = np.abs(np.sin(0.5 * theta))
    c = 8.0 * (s * s * s)
    return np.sin(theta) * (1.0 - 1.0 / c)


def _f_prime_array(theta: "np.ndarray") -> "np.ndarray":
    import numpy as np
    s = np.abs(np.sin(0.5 * theta))
    ct = np.cos(theta)
    return ct + (3.0 + ct) / (16.0 * (s * s * s))


def _f_double_prime_array(theta: "np.ndarray") -> "np.ndarray":
    import numpy as np
    s = np.abs(np.sin(0.5 * theta))
    s2 = s * s
    return -np.sin(theta) - (11.0 + np.cos(theta)) * np.cos(0.5 * theta) / (32.0 * (s2 * s2))


def curve_scan(theta2: float, lo: float, hi: float, n_cells: int) -> "np.ndarray":
    """Curve-function values at the n_cells+1 uniform nodes
    ``lo + k*step`` of [lo, hi], with ``step = (hi-lo)/n_cells``."""
    import numpy as np
    step = (hi - lo) / n_cells
    x = lo + np.arange(n_cells + 1) * step
    f1 = _f_array(x)
    f12 = _f_array(x + theta2)
    return f1 * f1 - f12 * f12 - f_eval(theta2) * _f_array(TWO_PI - 2.0 * x - theta2)
