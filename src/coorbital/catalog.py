"""Catalog of the curve's special points.

Twelve labeled points organize the curve's geometry: eight endpoints
(A..H) where an arc meets a band edge or the collision boundary of the
strip, and four interior points (J, K, L, M) realizing the degenerate
cases. Every coordinate here is recomputed from first principles --
case solvers, on-line root scans, reflection, or collision-edge limit
extrapolation -- and checked against the reference values to 1e-3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Dict, Optional, Sequence, Tuple

from . import backend
from .exceptions import CatalogMismatchError, ConsistencyError
from .kernel import EDGE_INSET, FIVE_PI_THIRD, PI_THIRD, TWO_PI
from .rootfind import ROOT_WIDTH_TOL, Bracket, bracket_root, converged_root, opposite_signs
from .rootfind import scan_brackets
from .theorems import solve_T32, solve_T33, solve_T34, solve_T36, solve_T37

CATALOG_TOL = 1e-3
# scans on lines where f(theta2) is a rounding-level residue stay this
# far from the theta4 -> 0 corner, where that residue times the
# diverging f(theta4) would fabricate a sign change
CORNER_MARGIN = 1e-3

# label -> ((published theta1, theta2), vanishing kernel value, case
# tag or None, note); the row order is the output order
POINTS: Dict[str, Tuple[Tuple[float, float], str, Optional[str], str]] = {
    "A": ((1.4127, PI_THIRD), "f(theta2)", "T36", ""),
    "B": ((0.5 * math.pi, math.pi), "f(theta2)", None,
          "collision-edge limit: theta4 -> 0 as theta2 -> pi"),
    "C": ((0.5 * math.pi, 0.0), "f(theta4)", None,
          "collision-edge limit: theta2 -> 0 with theta4 -> pi"),
    "D": ((math.pi / 6.0, 0.0), "f(theta4)", None,
          "collision-edge limit: theta2 -> 0 with theta4 -> 5*pi/3"),
    "E": ((0.8167, PI_THIRD), "f(theta2)", None,
          "sample masses degenerate here (mu4 = -mu1); no positive family"),
    "F_pt": ((0.8413, math.pi), "f(theta2)", None,
             "sits on the f(theta1) = f(theta1+theta2) boundary; the nearby "
             "arc classifies OUTSIDE on both sides of theta2 = pi"),
    "G": ((0.8167, 3.6026), "f(theta4)", None,
          "reflection of E under the theta2 <-> theta4 exchange; "
          "theta4 = pi/3 exactly"),
    "H": ((math.pi / 6.0, FIVE_PI_THIRD), "f(theta2)", None,
          "collision-edge limit: theta4 -> 0 as theta2 -> 5*pi/3"),
    "J": ((0.6281, 0.4191), "f(theta1+theta2)", "T32", ""),
    "K": ((0.5 * math.pi, 0.5 * math.pi), "f(theta1+theta2)", "T33", ""),
    "L": ((0.6281, 4.6079), "f(theta1+theta2)", "T34", ""),
    "M": ((1.4127, 2.4106), "f(theta4)", "T37", ""),
}

# published coordinates the recomputation must reproduce
REFERENCE = {label: row[0] for label, row in POINTS.items()}

# collision-edge offsets for the endpoint limits; the branch angle is
# extrapolated to offset zero in the cube-root variable h**(1/3)
ENDPOINT_OFFSETS = (1e-3, 1e-4, 1e-5)

# edge label -> (theta2 at offset h, theta1 bracket on that line); a
# bracket top of None runs to the theta4 -> 0 edge of the strip
EDGES: Dict[str, Tuple[Callable[[float], float], float, Optional[float]]] = {
    "B": (lambda h: math.pi - h, 1.2, None),
    "C": (lambda h: h, 1.2, 1.8),
    "D": (lambda h: h, 0.2, 0.9),
    "H": (lambda h: FIVE_PI_THIRD - h, 0.2, None),
}


@dataclass(frozen=True)
class SpecialPoint:
    label: str
    theta1: float
    theta2: float
    ref_theta1: float
    ref_theta2: float
    delta: float
    degenerate: bool
    vanishing: Optional[str]
    theorem_tag: Optional[str]
    note: str


@dataclass(frozen=True)
class SpecialPointCatalog:
    points: Tuple[SpecialPoint, ...]

    def by_label(self, label: str) -> SpecialPoint:
        for point in self.points:
            if point.label == label:
                return point
        raise KeyError(label)


def _scan_line(theta2: float, hi: float, count: int, what: str) -> list:
    """Curve crossings on one theta2 line, gated to an expected count."""
    fn = lambda t: backend.curve_eval(t, theta2)
    brackets = scan_brackets(fn, EDGE_INSET, hi)
    if len(brackets) != count:
        raise ConsistencyError(
            f"{what}: expected {count} curve crossings at theta2={theta2}, "
            f"found {len(brackets)}"
        )
    return sorted(
        converged_root(bracket_root(fn, br, width_tol=ROOT_WIDTH_TOL), what)
        for br in brackets
    )


def _root_between(theta2: float, lo: float, hi: float, what: str) -> float:
    """Curve crossing refined from a direct endpoint bracket."""
    fn = lambda t: backend.curve_eval(t, theta2)
    f_lo, f_hi = fn(lo), fn(hi)
    if not opposite_signs(f_lo, f_hi):
        raise ConsistencyError(
            f"{what}: no sign change on ({lo}, {hi}) at theta2={theta2}"
        )
    bracket = Bracket(lo, hi, f_lo, f_hi)
    return converged_root(bracket_root(fn, bracket, width_tol=ROOT_WIDTH_TOL), what)


def _cube_root_extrapolate(samples: Sequence[Tuple[float, float]]) -> float:
    """Quadratic extrapolation to offset zero in t = h**(1/3).

    Fits the polynomial in t through the samples (a quadratic for the
    three ENDPOINT_OFFSETS) and evaluates it at t = 0. The branch angle
    approaches a collision edge like a cube root of the offset, which
    the t and t**2 terms absorb. A quadratic in t cannot carry a term
    linear in h = t**3: a term a*h leaks a*t1*t2*t3 = a*1e-4 into the
    limit. C and D approach their edges as -h/2, so they come out about
    5e-5 from their closed forms.
    """
    ts = [h ** (1.0 / 3.0) for h, _ in samples]
    ys = [y for _, y in samples]
    total = 0.0
    for i in range(len(samples)):
        term = ys[i]
        for j in range(len(samples)):
            if j != i:
                term *= ts[j] / (ts[j] - ts[i])
        total += term
    return total


def _edge_limit(label: str) -> Tuple[float, float]:
    """Point where a branch meets a band edge, by offset extrapolation."""
    line, lo, hi = EDGES[label]
    samples = []
    for h in ENDPOINT_OFFSETS:
        theta2 = line(h)
        top = math.pi - 0.5 * theta2 - 1e-9 if hi is None else hi
        samples.append((h, _root_between(theta2, lo, top, f"endpoint {label}")))
    return _cube_root_extrapolate(samples), line(0.0)


@lru_cache(maxsize=1)
def build_catalog() -> SpecialPointCatalog:
    """Recompute all twelve special points and validate against the
    references; raises CatalogMismatch when any coordinate is off by
    more than 1e-3."""
    solved = {
        sol.theorem_tag: sol
        for sol in (solve_T36(), solve_T32(), solve_T33(), solve_T34(), solve_T37())
    }

    # the theta2 = pi/3 line crosses the curve twice: E below, A above
    e_root, a_root = _scan_line(
        PI_THIRD, math.pi - 0.5 * PI_THIRD - CORNER_MARGIN, 2, "theta2=pi/3 line"
    )
    if abs(a_root - solved["T36"].config.theta1) > 1e-9:
        raise ConsistencyError("theta2=pi/3 upper crossing disagrees with the T36 root")

    # F_pt: the single crossing on the theta2 = pi line
    (f_root,) = _scan_line(
        math.pi, 0.5 * math.pi - CORNER_MARGIN, 1, "theta2=pi line"
    )
    by_hand = {
        "E": (e_root, PI_THIRD),
        "F_pt": (f_root, math.pi),
        # G mirrors E across the theta2 <-> theta4 exchange
        "G": (e_root, TWO_PI - 2.0 * e_root - PI_THIRD),
    }

    points = []
    for label, ((ref1, ref2), vanishing, tag, note) in POINTS.items():
        if tag is not None:
            config = solved[tag].config
            theta1, theta2 = config.theta1, config.theta2
        elif label in EDGES:
            theta1, theta2 = _edge_limit(label)
        else:
            theta1, theta2 = by_hand[label]
        delta = max(abs(theta1 - ref1), abs(theta2 - ref2))
        if delta > CATALOG_TOL:
            raise CatalogMismatchError(
                f"point {label}: recomputed ({theta1:.6f}, {theta2:.6f}) is "
                f"{delta:.2e} from the reference ({ref1:.6f}, {ref2:.6f})"
            )
        points.append(
            SpecialPoint(
                label=label,
                theta1=theta1,
                theta2=theta2,
                ref_theta1=ref1,
                ref_theta2=ref2,
                delta=delta,
                degenerate=True,
                vanishing=vanishing,
                theorem_tag=tag,
                note=note,
            )
        )
    return SpecialPointCatalog(tuple(points))
