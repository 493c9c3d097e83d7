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
from typing import Dict, Optional, Sequence, Tuple

from . import backend
from .exceptions import CatalogMismatchError, ConsistencyError
from .kernel import EDGE_INSET, FIVE_PI_THIRD, PI_THIRD, TWO_PI
from .rootfind import Bracket, bracket_root, converged_root, scan_brackets
from .theorems import solve_T32, solve_T33, solve_T34, solve_T36, solve_T37

CATALOG_TOL = 1e-3
POINT_WIDTH_TOL = 1e-14
# scans on lines where f(theta2) is a rounding-level residue stay this
# far from the theta4 -> 0 corner, where that residue times the
# diverging f(theta4) would fabricate a sign change
CORNER_MARGIN = 1e-3

# published coordinates the recomputation must reproduce
REFERENCE: Dict[str, Tuple[float, float]] = {
    "A": (1.4127, PI_THIRD),
    "B": (0.5 * math.pi, math.pi),
    "C": (0.5 * math.pi, 0.0),
    "D": (math.pi / 6.0, 0.0),
    "E": (0.8167, PI_THIRD),
    "F_pt": (0.8413, math.pi),
    "G": (0.8167, 3.6026),
    "H": (math.pi / 6.0, FIVE_PI_THIRD),
    "J": (0.6281, 0.4191),
    "K": (0.5 * math.pi, 0.5 * math.pi),
    "L": (0.6281, 4.6079),
    "M": (1.4127, 2.4106),
}

# collision-edge offsets for the endpoint limits; the branch angle is
# extrapolated to offset zero in the cube-root variable h**(1/3)
ENDPOINT_OFFSETS = (1e-3, 1e-4, 1e-5)


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
        converged_root(bracket_root(fn, br, width_tol=POINT_WIDTH_TOL), what)
        for br in brackets
    )


def _root_between(theta2: float, lo: float, hi: float, what: str) -> float:
    """Curve crossing refined from a direct endpoint bracket."""
    fn = lambda t: backend.curve_eval(t, theta2)
    f_lo, f_hi = fn(lo), fn(hi)
    if not f_lo * f_hi < 0.0:
        raise ConsistencyError(
            f"{what}: no sign change on ({lo}, {hi}) at theta2={theta2}"
        )
    bracket = Bracket(lo, hi, f_lo, f_hi)
    return converged_root(bracket_root(fn, bracket, width_tol=POINT_WIDTH_TOL), what)


def _cube_root_extrapolate(samples: Sequence[Tuple[float, float]]) -> float:
    """Quadratic extrapolation to offset zero in t = h**(1/3).

    The branch angle approaches a collision edge like a cube root of
    the offset, so interpolating in t and evaluating at t = 0 removes
    the leading terms (and is exact through h for smooth approaches,
    since h = t**3 lies in the interpolation span).
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


def _edge_limit(label: str) -> float:
    """theta1 limit of a branch at a band edge, by offset extrapolation."""
    samples = []
    for h in ENDPOINT_OFFSETS:
        if label == "B":
            theta2 = math.pi - h
            lo, hi = 1.2, math.pi - 0.5 * theta2 - 1e-9
        elif label == "C":
            theta2 = h
            lo, hi = 1.2, 1.8
        elif label == "D":
            theta2 = h
            lo, hi = 0.2, 0.9
        elif label == "H":
            theta2 = FIVE_PI_THIRD - h
            lo, hi = 0.2, math.pi - 0.5 * theta2 - 1e-9
        else:
            raise ValueError(label)
        samples.append((h, _root_between(theta2, lo, hi, f"endpoint {label}")))
    return _cube_root_extrapolate(samples)


@lru_cache(maxsize=1)
def build_catalog() -> SpecialPointCatalog:
    """Recompute all twelve special points and validate against the
    references; raises CatalogMismatch when any coordinate is off by
    more than 1e-3."""
    sol36 = solve_T36()
    sol32 = solve_T32()
    sol33 = solve_T33()
    sol34 = solve_T34()
    sol37 = solve_T37()

    # the theta2 = pi/3 line crosses the curve twice: E below, A above
    e_root, a_root = _scan_line(
        PI_THIRD, math.pi - 0.5 * PI_THIRD - CORNER_MARGIN, 2, "theta2=pi/3 line"
    )
    if abs(a_root - sol36.config.theta1) > 1e-9:
        raise ConsistencyError("theta2=pi/3 upper crossing disagrees with the T36 root")

    # G mirrors E across the theta2 <-> theta4 exchange
    g_theta2 = TWO_PI - 2.0 * e_root - PI_THIRD

    # F_pt: the single crossing on the theta2 = pi line
    (f_root,) = _scan_line(
        math.pi, 0.5 * math.pi - CORNER_MARGIN, 1, "theta2=pi line"
    )

    coords: Dict[str, Tuple[float, float]] = {
        "A": (sol36.config.theta1, sol36.config.theta2),
        "B": (_edge_limit("B"), math.pi),
        "C": (_edge_limit("C"), 0.0),
        "D": (_edge_limit("D"), 0.0),
        "E": (e_root, PI_THIRD),
        "F_pt": (f_root, math.pi),
        "G": (e_root, g_theta2),
        "H": (_edge_limit("H"), FIVE_PI_THIRD),
        "J": (sol32.config.theta1, sol32.config.theta2),
        "K": (sol33.config.theta1, sol33.config.theta2),
        "L": (sol34.config.theta1, sol34.config.theta2),
        "M": (sol37.config.theta1, sol37.config.theta2),
    }

    vanishing = {
        "A": "f(theta2)",
        "B": "f(theta2)",
        "C": "f(theta4)",
        "D": "f(theta4)",
        "E": "f(theta2)",
        "F_pt": "f(theta2)",
        "G": "f(theta4)",
        "H": "f(theta2)",
        "J": "f(theta1+theta2)",
        "K": "f(theta1+theta2)",
        "L": "f(theta1+theta2)",
        "M": "f(theta4)",
    }
    tags = {"A": "T36", "J": "T32", "K": "T33", "L": "T34", "M": "T37"}
    notes = {
        "B": "collision-edge limit: theta4 -> 0 as theta2 -> pi",
        "C": "collision-edge limit: theta2 -> 0 with theta4 -> pi",
        "D": "collision-edge limit: theta2 -> 0 with theta4 -> 5*pi/3",
        "H": "collision-edge limit: theta4 -> 0 as theta2 -> 5*pi/3",
        "E": "sample masses degenerate here (mu4 = -mu1); no positive family",
        "F_pt": "sits on the f(theta1) = f(theta1+theta2) boundary; the "
        "nearby arc classifies OUTSIDE on both sides of theta2 = pi",
        "G": "reflection of E under the theta2 <-> theta4 exchange; "
        "theta4 = pi/3 exactly",
    }

    points = []
    for label in ("A", "B", "C", "D", "E", "F_pt", "G", "H", "J", "K", "L", "M"):
        theta1, theta2 = coords[label]
        ref1, ref2 = REFERENCE[label]
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
                vanishing=vanishing[label],
                theorem_tag=tags.get(label),
                note=notes.get(label, ""),
            )
        )
    return SpecialPointCatalog(tuple(points))
