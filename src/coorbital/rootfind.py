"""Bracketed scalar root finding.

Bisection with guarded secant acceleration: a secant step is accepted
only when it lands strictly inside the current bracket, and whenever an
iteration fails to halve the bracket the next step is forced to bisect.
The bracket therefore shrinks geometrically no matter how the function
behaves, which matters here because the kernel has steep boundary
layers near the collision angles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Sequence

import numpy as np

from .exceptions import ConsistencyError, NoSignChangeError

WIDTH_TOL = 1e-12
RESID_TOL = 1e-10
MAX_ITER = 200
SCAN_STEPS = 2000


@dataclass(frozen=True)
class Bracket:
    """An interval with a strict sign change: lo < hi and f_lo*f_hi < 0."""

    lo: float
    hi: float
    f_lo: float
    f_hi: float


@dataclass(frozen=True)
class RootResult:
    root: float
    residual: float
    iterations: int
    converged: bool


def bracket_root(
    fn: Callable[[float], float],
    bracket: Bracket,
    width_tol: float = WIDTH_TOL,
    resid_tol: float = RESID_TOL,
    max_iter: int = MAX_ITER,
) -> RootResult:
    """Refine a sign-change bracket to a root.

    Returns once the bracket width drops below ``width_tol`` or an exact
    zero is hit. ``converged`` is also granted when the final residual is
    within ``resid_tol`` even if the width target was not reached in
    ``max_iter`` iterations.
    """
    if not width_tol > 0.0 or not resid_tol >= 0.0 or max_iter < 1:
        raise ValueError("tolerances must be positive and max_iter >= 1")
    lo, hi, f_lo, f_hi = bracket.lo, bracket.hi, bracket.f_lo, bracket.f_hi
    if not lo < hi or not f_lo * f_hi < 0.0:
        raise NoSignChangeError(f"no strict sign change on [{lo}, {hi}]")

    best_x, best_f = (lo, f_lo) if abs(f_lo) <= abs(f_hi) else (hi, f_hi)
    force_bisect = False
    iterations = 0
    for _ in range(max_iter):
        iterations += 1
        width = hi - lo
        x = 0.5 * (lo + hi)
        if not force_bisect and f_hi != f_lo:
            xs = hi - f_hi * (hi - lo) / (f_hi - f_lo)
            if lo < xs < hi:
                x = xs
        fx = fn(x)
        if abs(fx) < abs(best_f):
            best_x, best_f = x, fx
        if fx == 0.0:
            return RootResult(x, 0.0, iterations, True)
        if f_lo * fx < 0.0:
            hi, f_hi = x, fx
        else:
            lo, f_lo = x, fx
        # secant must halve the bracket or the next step bisects
        force_bisect = (hi - lo) > 0.5 * width
        if hi - lo <= width_tol:
            return RootResult(best_x, best_f, iterations, True)
    return RootResult(best_x, best_f, iterations, abs(best_f) <= resid_tol)


def converged_root(result: RootResult, what: str) -> float:
    """The refined root, or ConsistencyError when refinement stopped
    before its width target and its residual tolerance."""
    if not result.converged:
        raise ConsistencyError(
            f"{what}: root refinement did not converge (residual "
            f"{result.residual!r} after {result.iterations} iterations)"
        )
    return result.root


def brackets_from_values(
    lo: float,
    hi: float,
    values: np.ndarray | Sequence[float],
    resid_tol: float = RESID_TOL,
) -> List[Bracket]:
    """Extract sign-change brackets from uniform-grid samples.

    ``values[k]`` is the sample at ``lo + k*step`` with
    ``step = (hi-lo)/n_cells``; node recomputation uses exactly that
    expression so brackets match the sampling grid bit for bit.

    A node with |value| < resid_tol counts as a root itself: both cells
    touching it are suppressed, and a single spanning bracket over its
    two outer neighbors is emitted when they straddle a sign change, so
    the root is reported exactly once.
    """
    v = np.asarray(values, dtype=np.float64)
    n_cells = v.size - 1
    if n_cells < 1:
        return []
    step = (hi - lo) / n_cells
    node_root = np.abs(v) < resid_tol
    # Only cells that start at a node root or hold a strict sign change
    # can yield a bracket; the rules below run on those few cells.
    candidates = np.flatnonzero(node_root[:-1] | (v[:-1] * v[1:] < 0.0))
    out: List[Bracket] = []
    # tolist() and float() keep np.float64 out of the brackets, whose
    # fields end up in printed output.
    for i in candidates.tolist():
        if node_root[i]:
            if 0 < i and not node_root[i - 1] and not node_root[i + 1]:
                v_prev, v_next = float(v[i - 1]), float(v[i + 1])
                if v_prev * v_next < 0.0:
                    out.append(Bracket(lo + (i - 1) * step, lo + (i + 1) * step, v_prev, v_next))
            continue
        if not node_root[i + 1]:
            out.append(Bracket(lo + i * step, lo + (i + 1) * step, float(v[i]), float(v[i + 1])))
    return out


def scan_brackets(
    fn: Callable[[float], float],
    lo: float,
    hi: float,
    n_steps: int = SCAN_STEPS,
) -> List[Bracket]:
    """Sample ``fn`` on a uniform grid of n_steps cells and return every
    sign-change bracket. Empty list when there is no sign change."""
    if not lo < hi:
        raise ValueError("scan interval requires lo < hi")
    if n_steps < 2:
        raise ValueError("n_steps must be at least 2")
    step = (hi - lo) / n_steps
    values = [fn(lo + k * step) for k in range(n_steps + 1)]
    return brackets_from_values(lo, hi, values)
