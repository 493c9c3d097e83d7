"""Solvers for the degenerate symmetric cases.

Exactly one kernel value may vanish at a symmetric central
configuration, which splits the degenerate family into six cases,
tagged T32..T37: the pair sum theta1+theta2 sitting at each kernel zero
(T32, T33, T34), theta1 itself at a zero (T35, impossible), and theta2
or theta4 at a zero (T36, T37). Each case reduces to one bracketed
scalar equation plus linear mass conditions; branches whose mass
conditions force a non-positive mass are recorded as rejected with the
numerical evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .exceptions import ConsistencyError
from .kernel import FIVE_PI_THIRD, PI_THIRD, TWO_PI, f_eval
from .model import MassVector, SymmetricConfig, residual_four
from .rootfind import ROOT_WIDTH_TOL, bracket_root, converged_root, scan_brackets

BRACKET_INSET = 1e-9
RESIDUAL_GATE = 1e-9
SQUARE_RESIDUAL_GATE = 1e-12
GRID_POINTS = 2000
GRID_INSET = 1e-4


def pair_span_condition(theta: float, span: float) -> float:
    """Solvability residual when the two leading gaps sum to ``span``
    and the kernel vanishes there: f(theta)^2 - f(span-theta)*f(2*pi-span-theta)."""
    return f_eval(theta) ** 2 - f_eval(span - theta) * f_eval(TWO_PI - span - theta)


def opposite_pair_condition(theta: float) -> float:
    """Factor controlling the mirrored-pair branch of the half-turn
    case: 1/|sin(theta/2)|^3 + 1/|cos(theta/2)|^3 - 16."""
    s = abs(math.sin(0.5 * theta))
    c = abs(math.cos(0.5 * theta))
    return 1.0 / (s * s * s) + 1.0 / (c * c * c) - 16.0


def equal_shift_condition(theta: float) -> float:
    """Kernel match one third-turn apart: f(theta + pi/3) - f(theta)."""
    return f_eval(theta + PI_THIRD) - f_eval(theta)


def mirror_shift_condition(theta: float) -> float:
    """Kernel anti-match across the 5*pi/3 mirror: f(5*pi/3 - theta) + f(theta)."""
    return f_eval(FIVE_PI_THIRD - theta) + f_eval(theta)


@dataclass(frozen=True)
class RejectedBranch:
    """A candidate subcase ruled out by a sign argument on a grid."""

    label: str
    reason: str
    evidence: Mapping[str, float]


@dataclass(frozen=True)
class MassCondition:
    """Linear constraints admissible masses must satisfy, with one
    compliant sample vector when the case exists."""

    equalities: Tuple[str, ...]
    ratios: Tuple[str, ...]
    sample: Optional[MassVector]


@dataclass(frozen=True)
class Certificate:
    """Numerical evidence backing a case solution: the back-substituted
    residual for existing cases, or a strictly-signed grid minimum for
    non-existence."""

    max_residual: Optional[float]
    grid_min: Optional[float]
    grid_points: int
    description: str


@dataclass(frozen=True)
class CaseSolution:
    theorem_tag: str
    config: Optional[SymmetricConfig]
    mass_condition: Optional[MassCondition]
    exists: bool
    certificate: Certificate
    rejected: Tuple[RejectedBranch, ...]


def _roots(fn, lo: float, hi: float, count: int, tag: str) -> List[float]:
    """The ``count`` roots of ``fn`` on (lo, hi), each refined to
    ROOT_WIDTH_TOL; any other number of sign changes is an error."""
    brackets = scan_brackets(fn, lo + BRACKET_INSET, hi - BRACKET_INSET)
    if len(brackets) != count:
        raise ConsistencyError(
            f"{tag}: expected {count} sign change(s) on ({lo}, {hi}), "
            f"found {len(brackets)}"
        )
    return [
        converged_root(bracket_root(fn, br, width_tol=ROOT_WIDTH_TOL), tag)
        for br in brackets
    ]


def _existing_case(
    tag: str,
    config: SymmetricConfig,
    sample: MassVector,
    equalities: Tuple[str, ...],
    ratios: Tuple[str, ...],
    description: str,
    rejected: Sequence[RejectedBranch] = (),
    gate: float = RESIDUAL_GATE,
) -> CaseSolution:
    """Certify an existing case by the back-substituted residual of its
    sample masses and assemble its solution record."""
    resid = max(abs(v) for v in residual_four(config, sample))
    if resid >= gate:
        raise ConsistencyError(f"{tag}: back-substitution residual {resid} >= {gate}")
    condition = MassCondition(equalities, ratios, sample)
    certificate = Certificate(resid, None, 0, description)
    return CaseSolution(tag, config, condition, True, certificate, tuple(rejected))


def _pair_sum_case(tag: str, theta0: float, span: float) -> CaseSolution:
    config = SymmetricConfig.from_pair(theta0, span - theta0)
    ratio = f_eval(config.theta2) / f_eval(config.theta1)
    if ratio <= 0.0:
        raise ConsistencyError(f"{tag}: mass ratio is not positive")
    return _existing_case(
        tag,
        config,
        MassVector((ratio, 1.0, 1.0, ratio)),
        ("mu1*mu2 == mu3*mu4",),
        ("mu1/mu3 == f(theta2)/f(theta1)", "mu4/mu2 == f(theta2)/f(theta1)"),
        "back-substitution with mu = (r, 1, 1, r)",
    )


def _band(lo: float, hi: float) -> List[float]:
    # np.linspace(a, b, GRID_POINTS) bit for bit, by its own formula, as
    # Python floats that take f_eval's fast scalar path
    a, b = lo + GRID_INSET, hi - GRID_INSET
    step = (b - a) / (GRID_POINTS - 1)
    return [a + k * step for k in range(GRID_POINTS - 1)] + [b]


def _half_turn_product_branch(label: str, tag: str) -> RejectedBranch:
    # theta2 (or theta4) = pi forces the remaining two gaps to satisfy
    # f(theta1)*f(pi - 2*theta1) > 0, but the product is negative on
    # the whole admissible band (0, pi/2)
    grid = _band(0.0, 0.5 * math.pi)
    worst = max(f_eval(t) * f_eval(math.pi - 2.0 * t) for t in grid)
    if worst >= 0.0:
        raise ConsistencyError(f"{tag}: half-turn product grid found a sign change")
    return RejectedBranch(
        label=label,
        reason="positive masses need f(theta1)*f(pi - 2*theta1) > 0, "
        "but the product is negative across the band",
        evidence={"grid_points": float(GRID_POINTS), "max_product": float(worst)},
    )


@lru_cache(maxsize=1)
def solve_T32() -> CaseSolution:
    """Pair sum theta1 + theta2 at the low kernel zero pi/3.

    The configuration is (theta0, pi/3 - theta0, theta0, 5*pi/3 - theta0)
    where theta0 is the unique root of the span solvability residual on
    (0, pi/3); masses satisfy mu1*mu2 = mu3*mu4 with ratio
    mu1/mu3 = mu4/mu2 = f(theta2)/f(theta1) > 0.
    """
    fn = lambda t: pair_span_condition(t, PI_THIRD)
    (theta0,) = _roots(fn, 0.0, PI_THIRD, 1, "T32")
    return _pair_sum_case("T32", theta0, PI_THIRD)


@lru_cache(maxsize=1)
def solve_T33() -> CaseSolution:
    """Pair sum theta1 + theta2 at the half-turn kernel zero pi.

    The equal-value branch pins the square (pi/2, pi/2, pi/2, pi/2)
    with mu1 = mu3 and mu2 = mu4. The mirrored-pair branch has two
    roots, both rejected because f(theta1)/f(theta4) < 0 there.
    """
    rejected = []
    for root in _roots(opposite_pair_condition, 0.0, math.pi, 2, "T33 mirrored pair"):
        ratio = f_eval(root) / f_eval(math.pi - root)
        if ratio >= 0.0:
            raise ConsistencyError("T33: mirrored-pair root has a positive mass ratio")
        rejected.append(
            RejectedBranch(
                label=f"mirrored pair at theta1 = {root:.12f}",
                reason="required mass ratio f(theta1)/f(theta4) is negative",
                evidence={"theta1": float(root), "ratio": float(ratio)},
            )
        )
    return _existing_case(
        "T33",
        SymmetricConfig(0.5 * math.pi, 0.5 * math.pi, 0.5 * math.pi),
        MassVector((1.0, 2.0, 1.0, 2.0)),
        ("mu1 == mu3", "mu2 == mu4"),
        (),
        "back-substitution with mu = (1, 2, 1, 2)",
        rejected,
        gate=SQUARE_RESIDUAL_GATE,
    )


@lru_cache(maxsize=1)
def solve_T34() -> CaseSolution:
    """Pair sum theta1 + theta2 at the high kernel zero 5*pi/3.

    Shares its scalar equation with the pi/3 case, so it reuses that
    root: configuration (theta0, 5*pi/3 - theta0, theta0, pi/3 - theta0)
    with ratio mu1/mu3 = mu4/mu2 = f(theta2)/f(theta1) > 0.
    """
    return _pair_sum_case("T34", solve_T32().config.theta1, FIVE_PI_THIRD)


@lru_cache(maxsize=1)
def check_T35() -> CaseSolution:
    """f(theta1) = 0 admits no configuration.

    With theta1 at the only zero below pi, solvability would need
    f(theta2)*f(4*pi/3 - theta2) + f(pi/3 + theta2)^2 = 0, but the left
    side is strictly positive across the whole theta2 band.
    """
    hi = 4.0 * math.pi / 3.0
    kept = [
        t
        for t in _band(0.0, hi)
        if abs(t - PI_THIRD) >= 1e-6 and abs(t - math.pi) >= 1e-6
    ]
    values = [
        f_eval(t) * f_eval(hi - t) + f_eval(PI_THIRD + t) ** 2 for t in kept
    ]
    grid_min = min(values)
    if grid_min <= 0.0:
        raise ConsistencyError("T35: solvability grid found a non-positive value")
    certificate = Certificate(
        max_residual=None,
        grid_min=float(grid_min),
        grid_points=len(values),
        description="min of f(theta2)*f(4*pi/3 - theta2) + f(pi/3 + theta2)^2",
    )
    return CaseSolution("T35", None, None, False, certificate, ())


@lru_cache(maxsize=1)
def solve_T36() -> CaseSolution:
    """theta2 at the low kernel zero pi/3.

    The surviving branch needs f(theta1 + pi/3) = f(theta1), with the
    unique root theta0 in (pi/3, 2*pi/3); masses satisfy mu1 = mu4 and
    (mu2 + mu3)*f(theta1) = mu1*f(theta4). The theta2 = pi and
    theta2 = 5*pi/3 placements are rejected on sign grounds.
    """
    (theta0,) = _roots(equal_shift_condition, PI_THIRD, 2.0 * PI_THIRD, 1, "T36")
    config = SymmetricConfig.from_pair(theta0, PI_THIRD)
    m = f_eval(config.theta4) / (2.0 * f_eval(config.theta1))
    if m <= 0.0:
        raise ConsistencyError("T36: sample masses are not positive")

    band = _band(0.0, math.pi / 6.0)
    worst_f1 = max(f_eval(t) for t in band)
    least_pair = min(f_eval(t + FIVE_PI_THIRD) for t in band)
    if worst_f1 >= 0.0 or least_pair <= 0.0:
        raise ConsistencyError("T36: high-zero rejection grid found a sign change")
    rejected = (
        _half_turn_product_branch("theta2 = pi", "T36"),
        RejectedBranch(
            label="theta2 = 5*pi/3",
            reason="f(theta1 + theta2) > 0 > f(theta1) across the band; the "
            "only sign-consistent match forces mu1 = -mu4",
            evidence={
                "grid_points": float(GRID_POINTS),
                "max_f_theta1": float(worst_f1),
                "min_f_pair_sum": float(least_pair),
            },
        ),
    )
    return _existing_case(
        "T36",
        config,
        MassVector((1.0, m, m, 1.0)),
        ("mu1 == mu4",),
        ("(mu2 + mu3)*f(theta1) == mu1*f(theta4)",),
        "back-substitution with mu = (1, m, m, 1)",
        rejected,
    )


@lru_cache(maxsize=1)
def solve_T37() -> CaseSolution:
    """theta4 at the low kernel zero pi/3.

    Mirror of the theta2 case: the match f(5*pi/3 - theta) = -f(theta)
    has the same root theta0, the configuration is
    (theta0, 5*pi/3 - 2*theta0, theta0, pi/3), and masses satisfy
    mu2 = mu3 with (mu1 + mu4)*f(theta1) = mu2*f(theta2).
    """
    (theta0,) = _roots(mirror_shift_condition, PI_THIRD, 2.0 * PI_THIRD, 1, "T37")
    config = SymmetricConfig.from_pair(theta0, FIVE_PI_THIRD - 2.0 * theta0)
    m = f_eval(config.theta2) / (2.0 * f_eval(config.theta1))
    if m <= 0.0:
        raise ConsistencyError("T37: sample masses are not positive")

    band = _band(0.0, math.pi / 6.0)
    worst_sum = max(f_eval(PI_THIRD - t) + f_eval(t) for t in band)
    if worst_sum >= 0.0:
        raise ConsistencyError("T37: high-zero rejection grid found a sign change")
    rejected = (
        _half_turn_product_branch("theta4 = pi", "T37"),
        RejectedBranch(
            label="theta4 = 5*pi/3",
            reason="matching needs f(pi/3 - theta1) + f(theta1) = 0, but the "
            "sum stays negative across the band (both kernel values are "
            "negative there)",
            evidence={
                "grid_points": float(GRID_POINTS),
                "max_sum": float(worst_sum),
            },
        ),
    )
    return _existing_case(
        "T37",
        config,
        MassVector((m, 1.0, 1.0, m)),
        ("mu2 == mu3",),
        ("(mu1 + mu4)*f(theta1) == mu2*f(theta2)",),
        "back-substitution with mu = (m, 1, 1, m)",
        rejected,
    )


SOLVERS: Dict[str, object] = {
    "T32": solve_T32,
    "T33": solve_T33,
    "T34": solve_T34,
    "T35": check_T35,
    "T36": solve_T36,
    "T37": solve_T37,
}
