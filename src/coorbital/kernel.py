"""Scalar interaction kernel for the symmetric coorbital ring.

The kernel f(theta) = sin(theta) * (1 - 1/(8*|sin(theta/2)|^3)) measures
the net tangential pull one ring satellite exerts at angular separation
theta. It is defined on the open interval (0, 2*pi), diverges like
-1/theta^2 at both collision endpoints, and vanishes at pi/3, pi and
5*pi/3. Its derivative attains the global minimum value -7/8 at pi and
has exactly two interior zeros, placed symmetrically about pi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

from . import backend
from .backend import TWO_PI
from .exceptions import AngleDomainError, ConsistencyError
from .rootfind import Bracket, bracket_root, converged_root

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

PROFILE_WIDTH_TOL = 1e-14


def _check_domain(theta: float) -> float:
    theta = float(theta)
    if not 0.0 < theta < TWO_PI:
        raise AngleDomainError(f"angle {theta!r} outside open interval (0, 2*pi)")
    return theta


def f_eval(theta: float) -> float:
    """Kernel value at separation theta in (0, 2*pi)."""
    return backend.f_eval(_check_domain(theta))


def f_prime(theta: float) -> float:
    """First derivative of the kernel."""
    return backend.f_prime(_check_domain(theta))


def f_double_prime(theta: float) -> float:
    """Second derivative of the kernel."""
    return backend.f_double_prime(_check_domain(theta))


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
    if not f_lo * f_hi < 0.0:
        raise ConsistencyError("derivative does not change sign on [3*pi/5, 2*pi/3]")
    res = bracket_root(
        backend.f_prime,
        Bracket(lo, hi, f_lo, f_hi),
        width_tol=PROFILE_WIDTH_TOL,
    )
    theta_c = converged_root(res, "derivative zero")
    return KernelProfile(theta_c, TWO_PI - theta_c, (ZERO_LOW, ZERO_MID, ZERO_HIGH))
