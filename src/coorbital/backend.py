"""The interaction kernel f, its derivatives f' and f'', and the curve
function C, each written once and run with ``xp=math`` on a float or
``xp=numpy`` on an ndarray.

The numpy calls scan whole theta1 lines (``curve_scan``), tabulate
``kernel`` and sum the residuals of large rings; the ``math`` calls
serve root refinement, the case scans, small rings and scalar calls of
the public API. Callers that build arrays import numpy, so a run that
builds none never loads it. One body gives both paths one operation
order, so every array entry is bit-identical to the ``math`` value at
that node; the test suite checks this rather than assuming that
numpy's ``sin``/``cos`` round like ``math``'s. The caller names ``xp``
because reading it from the argument's type would cost every scalar
call an ``isinstance``.

No domain checking happens at this level; callers guarantee arguments
stay inside the open interval (0, 2*pi) and the admissible strip.
Below theta ~ 1e-80 a denominator underflows to zero; where Python's
division would raise ZeroDivisionError, the ``math`` path returns the
infinity that numpy's division gives (the numerators are positive
there). The ``try`` costs nothing on the normal path.
"""

import math
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

BACKEND = "numpy"

TWO_PI = 2.0 * math.pi


def f_eval(theta, xp=math):
    s = abs(xp.sin(0.5 * theta))
    c = 8.0 * (s * s * s)
    try:
        return xp.sin(theta) * (1.0 - 1.0 / c)
    except ZeroDivisionError:
        return xp.sin(theta) * (1.0 - math.inf)


def f_prime(theta, xp=math):
    s = abs(xp.sin(0.5 * theta))
    ct = xp.cos(theta)
    try:
        return ct + (3.0 + ct) / (16.0 * (s * s * s))
    except ZeroDivisionError:
        return ct + math.inf


def f_double_prime(theta, xp=math):
    s = abs(xp.sin(0.5 * theta))
    s2 = s * s
    try:
        return -xp.sin(theta) - (11.0 + xp.cos(theta)) * xp.cos(0.5 * theta) / (32.0 * (s2 * s2))
    except ZeroDivisionError:
        return -xp.sin(theta) - math.inf


def curve_eval(theta1, theta2: float, xp=math):
    """C at (theta1, theta2); theta1 may be an ndarray when xp is numpy.
    f(theta2) is one float on both paths."""
    f1 = f_eval(theta1, xp)
    f12 = f_eval(theta1 + theta2, xp)
    return f1 * f1 - f12 * f12 - f_eval(theta2) * f_eval(TWO_PI - 2.0 * theta1 - theta2, xp)


def curve_scan(theta2: float, lo: float, hi: float, n_cells: int) -> "np.ndarray":
    """Curve-function values at the n_cells+1 uniform nodes
    ``lo + k*step`` of [lo, hi], with ``step = (hi-lo)/n_cells``."""
    import numpy as np
    step = (hi - lo) / n_cells
    return curve_eval(lo + np.arange(n_cells + 1) * step, theta2, np)
