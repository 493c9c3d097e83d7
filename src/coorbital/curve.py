"""The generic family: region classification and curve tracing.

A symmetric configuration with no vanishing kernel value must lie on
the zero set of

    C(theta1, theta2) = f(theta1)^2 - f(theta1+theta2)^2
                        - f(theta2)*f(theta4),

with theta4 = 2*pi - 2*theta1 - theta2. Positive masses additionally
require sign(f(theta2)) = sign(f(theta1) - f(theta1+theta2)), which
splits the admissible strip into bands D1..D4 by where theta2 falls
between kernel zeros; D4 turns out to be empty. Tracing scans each
theta2 line for all curve crossings and keeps the in-region ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from . import backend
from .exceptions import (
    AngleDomainError,
    ConsistencyError,
    DegenerateDenominatorError,
    TraceResidualError,
)
from .kernel import EDGE_INSET, FIVE_PI_THIRD, PI_THIRD, TWO_PI, is_real_number, real_float
from .model import SymmetricConfig, kernel_values
from .rootfind import Bracket, RootResult, bracket_root, brackets_from_values
from .rootfind import ROOT_WIDTH_TOL, converged_root, opposite_signs

BOUNDARY_TOL = 1e-9
DEGENERATE_TOL = 1e-9
DENOM_TOL = 1e-12
TRACE_RESID_GATE = 1e-10
SCAN_CELLS = 4000

BANDS = {
    "D1": (0.0, PI_THIRD),
    "D2": (PI_THIRD, math.pi),
    "D3": (math.pi, FIVE_PI_THIRD),
    "D4": (FIVE_PI_THIRD, TWO_PI),
}


def curve_eval(theta1: float, theta2: float) -> float:
    """Value of the curve function C at a strip point."""
    f1, f2, f4, f12 = kernel_values(SymmetricConfig.from_pair(theta1, theta2))
    return f1 * f1 - f12 * f12 - f2 * f4


def region_classify(theta1: float, theta2: float) -> str:
    """Band plus sign-coherence label for a strip point.

    Returns BOUNDARY within 1e-9 of a defining equality (theta2 at a
    kernel zero, or f(theta1) = f(theta1+theta2)), OUTSIDE when the
    band's sign condition fails.
    """
    return curve_point(theta1, theta2).region


def _region(theta2: float, d: float) -> str:
    # band of theta2 plus the sign of d = f(theta1) - f(theta1+theta2)
    near_edge = min(
        abs(theta2 - PI_THIRD), abs(theta2 - math.pi), abs(theta2 - FIVE_PI_THIRD)
    )
    if near_edge < BOUNDARY_TOL or abs(d) < BOUNDARY_TOL:
        return "BOUNDARY"
    if theta2 < PI_THIRD:
        return "D1" if d < 0.0 else "OUTSIDE"
    if theta2 < math.pi:
        return "D2" if d > 0.0 else "OUTSIDE"
    if theta2 < FIVE_PI_THIRD:
        return "D3" if d < 0.0 else "OUTSIDE"
    return "D4" if d > 0.0 else "OUTSIDE"


@dataclass(frozen=True)
class CurvePoint:
    """A point of the curve with its mass-ratio data.

    mass_ratio is f(theta2)/(f(theta1)-f(theta1+theta2)); r_sum and
    r_diff are (f(theta1)+-f(theta1+theta2))/f(theta4). Fields are None
    when their denominator is below 1e-12. degenerate marks a kernel
    value within 1e-9 of zero.
    """

    theta1: float
    theta2: float
    theta4: float
    region: str
    mass_ratio: Optional[float]
    r_sum: Optional[float]
    r_diff: Optional[float]
    degenerate: bool


def curve_point(theta1: float, theta2: float) -> CurvePoint:
    """Assemble the CurvePoint record at a strip point (no on-curve gate).

    The strip rule is SymmetricConfig's plus kernel_values' collision
    check: AngleDomainError off the admissible strip."""
    sym = SymmetricConfig.from_pair(theta1, theta2)
    f1, f2, f4, f12 = kernel_values(sym)
    d = f1 - f12
    ratio = f2 / d if abs(d) > DENOM_TOL else None
    if abs(f4) > DENOM_TOL:
        r_sum: Optional[float] = (f1 + f12) / f4
        r_diff: Optional[float] = (f1 - f12) / f4
    else:
        r_sum = None
        r_diff = None
    degenerate = min(abs(f1), abs(f2), abs(f4), abs(f12)) < DEGENERATE_TOL
    region = _region(sym.theta2, d)
    return CurvePoint(
        sym.theta1, sym.theta2, sym.theta4, region, ratio, r_sum, r_diff, degenerate
    )


def mass_ratio(theta1: float, theta2: float) -> float:
    """f(theta2)/(f(theta1)-f(theta1+theta2)); positive on the curve
    inside D1, D2, D3."""
    ratio = curve_point(theta1, theta2).mass_ratio
    if ratio is None:
        raise DegenerateDenominatorError("f(theta1) - f(theta1+theta2) vanishes")
    return ratio


def mass_ratio_pair(theta1: float, theta2: float) -> Tuple[float, float]:
    """(r_sum, r_diff) = (f(theta1)+-f(theta1+theta2))/f(theta4)."""
    point = curve_point(theta1, theta2)
    if point.r_sum is None:
        raise DegenerateDenominatorError("f(theta4) vanishes")
    return point.r_sum, point.r_diff


def _line_roots(theta2: float, width_tol: float) -> List[RootResult]:
    """All curve crossings theta1 on one theta2 line, full-strip scan,
    each refined with its residual."""
    lo = EDGE_INSET
    hi = math.pi - 0.5 * theta2 - EDGE_INSET
    if hi <= lo:
        return []
    values = backend.curve_scan(theta2, lo, hi, SCAN_CELLS)
    fn = lambda t: backend.curve_eval(t, theta2)
    results = []
    for br in brackets_from_values(lo, hi, values):
        res = bracket_root(fn, br, width_tol=width_tol, resid_tol=0.0)
        if not res.converged:
            raise ConsistencyError(
                f"curve root on the theta2={theta2!r} line did not reach width "
                f"{width_tol!r} in [{br.lo!r}, {br.hi!r}]"
            )
        results.append(res)
    return results


def trace_curve(
    region: str,
    theta2_grid: Sequence[float],
    width_tol: float = ROOT_WIDTH_TOL,
) -> List[CurvePoint]:
    """Trace the curve across a theta2 grid inside one region band.

    Every crossing on each line is refined and classified; OUTSIDE
    points are dropped, everything else is kept (flagged when
    degenerate). Results are sorted by (theta2, theta1).
    """
    if region not in ("D1", "D2", "D3"):
        raise ValueError(f"region must be one of D1, D2, D3; got {region!r}")
    band_lo, band_hi = BANDS[region]
    points: List[CurvePoint] = []
    for raw in theta2_grid:
        theta2 = real_float(raw, AngleDomainError, "theta2")
        if not band_lo < theta2 < band_hi:
            raise AngleDomainError(
                f"theta2 {theta2!r} outside the {region} band ({band_lo}, {band_hi})"
            )
        for res in _line_roots(theta2, width_tol):
            if abs(res.residual) >= TRACE_RESID_GATE:
                raise TraceResidualError(
                    f"traced point ({res.root}, {theta2}) has residual {res.residual}"
                )
            point = curve_point(res.root, theta2)
            if point.region == "OUTSIDE":
                continue
            points.append(point)
    points.sort(key=lambda p: (p.theta2, p.theta1))
    return points


def r_diff_pole(
    theta2_lo: float = 2.4,
    theta2_hi: float = 2.5,
    width_tol: float = ROOT_WIDTH_TOL,
) -> float:
    """theta2 where f(theta4) crosses zero along the middle-band branch,
    sending r_diff through a pole between the bracketing grid rows.
    width_tol is the width target of the pole and of the line roots
    beneath it.

    AngleDomainError unless pi/3 < theta2_lo < theta2_hi < pi, each end
    line holds exactly one branch root and f(theta4) changes sign
    between them."""
    window = f"pole window ({theta2_lo!r}, {theta2_hi!r})"
    if not (is_real_number(theta2_lo) and is_real_number(theta2_hi)):
        raise AngleDomainError(f"{window} bounds must be real numbers")
    if not PI_THIRD < theta2_lo < theta2_hi < math.pi:
        raise AngleDomainError(f"{window} must lie in (pi/3, pi) with lo < hi")

    def f4_on_branch(theta2: float, error: type = ConsistencyError) -> float:
        points = [curve_point(r.root, theta2) for r in _line_roots(theta2, width_tol)]
        branch = [p for p in points if p.region != "OUTSIDE"]
        if len(branch) != 1:
            raise error(
                f"{window}: expected one branch root at theta2={theta2!r}, "
                f"found {len(branch)}"
            )
        return backend.f_eval(branch[0].theta4)

    # a bad window is the caller's input; only interior steps are internal
    f_lo = f4_on_branch(theta2_lo, AngleDomainError)
    f_hi = f4_on_branch(theta2_hi, AngleDomainError)
    if not opposite_signs(f_lo, f_hi):
        raise AngleDomainError(f"{window}: f(theta4) does not change sign, no pole inside")
    res = bracket_root(
        f4_on_branch,
        Bracket(theta2_lo, theta2_hi, f_lo, f_hi),
        width_tol=width_tol,
    )
    return converged_root(res, "r_diff pole")


def d4_region_count(n: int = 200) -> int:
    """Number of D4 classifications on an n x n grid over the high
    theta2 band; the sign condition never holds there, so zero."""
    import numpy as np
    count = 0
    for theta2 in np.linspace(FIVE_PI_THIRD + 1e-3, TWO_PI - 1e-3, n):
        hi = math.pi - 0.5 * float(theta2) - EDGE_INSET
        if hi <= EDGE_INSET:
            continue
        for theta1 in np.linspace(EDGE_INSET, hi, n):
            if region_classify(float(theta1), float(theta2)) == "D4":
                count += 1
    return count
