"""Scalar interaction kernel for the symmetric coorbital ring.

The kernel f(theta) = sin(theta) * (1 - 1/(8*|sin(theta/2)|^3)) measures
the net tangential pull one ring satellite exerts at angular separation
theta. It is defined on the open interval (0, 2*pi), diverges like
-1/theta^2 at both collision endpoints, and vanishes at pi/3, pi and
5*pi/3. Its derivative attains the global minimum value -7/8 at pi and
has exactly two interior zeros, placed symmetrically about pi.

``f_eval``, ``f_prime`` and ``f_double_prime`` take one angle and
return a float, or an ndarray of angles (ndim >= 1) and return the
float64 array of values, evaluated by the same ``backend`` function
with numpy after one domain check of the whole array. Only real
numbers are angles: Python ints and floats (not booleans), other
``numbers.Real`` values, and numpy values or arrays of an integer or
float dtype; ``real_float`` is the one conversion of such a value.
A scalar angle never imports numpy; an ndarray can only exist once
numpy is imported, so the array test reads ``sys.modules``.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Tuple, Union

from . import backend
from .backend import TWO_PI
from .exceptions import AngleDomainError, ConsistencyError
from .rootfind import ROOT_WIDTH_TOL, Bracket, bracket_root, converged_root, opposite_signs

if TYPE_CHECKING:
    import numpy as np

# shared constants, each comment naming the modules that read it
# band edges at the kernel zeros (curve, catalog, theorems)
PI_THIRD = math.pi / 3.0
FIVE_PI_THIRD = 5.0 * math.pi / 3.0
# kernel arguments this close to 0 or 2*pi count as collisions (model)
COLLISION_TOL = 1e-12
# root scans in theta1 start and stop this far inside the strip (curve, catalog)
EDGE_INSET = 1e-6

ZERO_LOW = PI_THIRD
ZERO_MID = math.pi
ZERO_HIGH = FIVE_PI_THIRD

# one angle, or an ndarray of them
Angles = Union[float, "np.ndarray"]


def is_real_number(value: object) -> bool:
    """True for numpy values and arrays of an integer or float dtype and
    for ``numbers.Real`` values other than booleans."""
    dtype = getattr(value, "dtype", None)
    if dtype is not None:
        return dtype.kind in "iuf"
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def real_float(value: object, error: type, name: str) -> float:
    """float(value) for a real number (see is_real_number); otherwise, or
    when the value is too large for a float, ``error`` naming it."""
    if isinstance(value, float):
        return float(value)
    if not is_real_number(value):
        raise error(f"{name} {value!r} is not a real number")
    try:
        return float(value)
    except OverflowError:
        raise error(f"{name} too large for a float") from None


def _domain_error(theta: float, where: str = "") -> AngleDomainError:
    return AngleDomainError(f"angle {theta!r}{where} outside open interval (0, 2*pi)")


def _evaluate(theta: Angles, fn: Callable) -> Angles:
    """fn(float(theta)), or fn(theta, numpy) for an ndarray with ndim >= 1,
    once every angle is known to lie in (0, 2*pi); NaN lies outside.
    The kernel functions below handle an in-domain float themselves and
    pass everything else here."""
    np = sys.modules.get("numpy")
    if np is not None and isinstance(theta, np.ndarray) and theta.ndim:
        if not is_real_number(theta):
            raise AngleDomainError(f"angle {theta!r} is not a real number")
        x = theta.astype(np.float64, copy=False)
        inside = (x > 0.0) & (x < TWO_PI)
        if not inside.all():
            i = int(np.argmin(inside))
            index = tuple(int(k) for k in np.unravel_index(i, x.shape))
            raise _domain_error(float(x.flat[i]), f" at index {index}")
        # near 0 the pole overflows to inf silently, as on the scalar path
        with np.errstate(divide="ignore", over="ignore"):
            return fn(x, np)
    theta = real_float(theta, AngleDomainError, "angle")
    if not 0.0 < theta < TWO_PI:
        raise _domain_error(theta)
    return fn(theta)


def f_eval(theta: Angles) -> Angles:
    """Kernel value at separation theta in (0, 2*pi), or the array of
    values at an ndarray of separations."""
    if isinstance(theta, float):
        theta = float(theta)
        if 0.0 < theta < TWO_PI:
            return backend.f_eval(theta)
    return _evaluate(theta, backend.f_eval)


def f_prime(theta: Angles) -> Angles:
    """First derivative of the kernel, at one angle or an ndarray."""
    if isinstance(theta, float):
        theta = float(theta)
        if 0.0 < theta < TWO_PI:
            return backend.f_prime(theta)
    return _evaluate(theta, backend.f_prime)


def f_double_prime(theta: Angles) -> Angles:
    """Second derivative of the kernel, at one angle or an ndarray."""
    if isinstance(theta, float):
        theta = float(theta)
        if 0.0 < theta < TWO_PI:
            return backend.f_double_prime(theta)
    return _evaluate(theta, backend.f_double_prime)


@dataclass(frozen=True)
class KernelProfile:
    """Critical angles of the kernel.

    theta_c is the unique zero of f' below pi, theta_l = 2*pi - theta_c
    the mirrored zero above pi, and zeros the three roots of f itself.
    """

    theta_c: float
    theta_l: float
    zeros: Tuple[float, float, float]


@lru_cache(maxsize=1)
def critical_points() -> KernelProfile:
    """Locate the derivative zeros bracketed by [3*pi/5, 2*pi/3]."""
    lo = 3.0 * math.pi / 5.0
    hi = 2.0 * math.pi / 3.0
    f_lo = backend.f_prime(lo)
    f_hi = backend.f_prime(hi)
    if not opposite_signs(f_lo, f_hi):
        raise ConsistencyError("derivative does not change sign on [3*pi/5, 2*pi/3]")
    res = bracket_root(
        backend.f_prime,
        Bracket(lo, hi, f_lo, f_hi),
        width_tol=ROOT_WIDTH_TOL,
    )
    theta_c = converged_root(res, "derivative zero")
    return KernelProfile(theta_c, TWO_PI - theta_c, (ZERO_LOW, ZERO_MID, ZERO_HIGH))
