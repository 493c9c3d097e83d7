"""Bracketed scalar root finding.

Bisection with guarded secant acceleration: a secant step is accepted
only when it lands strictly inside the current bracket, and whenever an
iteration fails to halve the bracket the next step is forced to bisect.
The bracket therefore shrinks geometrically no matter how the function
behaves, which matters here because the kernel has steep boundary
layers near the collision angles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Sequence

from .exceptions import ConsistencyError, NoSignChangeError

WIDTH_TOL = 1e-12
# width target of every root the package prints (kernel, curve, catalog, theorems)
ROOT_WIDTH_TOL = 1e-14
RESID_TOL = 1e-10
MAX_ITER = 200
SCAN_STEPS = 2000


@dataclass(frozen=True)
class Bracket:
    """An interval with a strict sign change: lo < hi and f_lo, f_hi of
    opposite sign."""

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
    ``max_iter`` iterations. ValueError unless both tolerances are finite
    numbers, width_tol > 0 and resid_tol >= 0, and max_iter is an int
    >= 1; NoSignChangeError when ``fn`` returns NaN.
    """
    if not (_finite(width_tol) and width_tol > 0.0 and _finite(resid_tol) and resid_tol >= 0.0):
        raise ValueError("tolerances must be finite, width_tol > 0 and resid_tol >= 0")
    _check_count(max_iter, 1, "max_iter")
    lo, hi, f_lo, f_hi = bracket.lo, bracket.hi, bracket.f_lo, bracket.f_hi
    if not lo < hi or not opposite_signs(f_lo, f_hi):
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
        if math.isnan(fx):
            # NaN fails both sign tests and would silently become the new lo
            raise NoSignChangeError(f"fn returned NaN at x = {x!r} inside [{lo!r}, {hi!r}]")
        if abs(fx) < abs(best_f):
            best_x, best_f = x, fx
        if fx == 0.0:
            return RootResult(x, 0.0, iterations, True)
        if opposite_signs(f_lo, fx):
            hi, f_hi = x, fx
        else:
            lo, f_lo = x, fx
        # secant must halve the bracket or the next step bisects
        force_bisect = (hi - lo) > 0.5 * width
        if hi - lo <= width_tol:
            return RootResult(best_x, best_f, iterations, True)
    return RootResult(best_x, best_f, iterations, abs(best_f) <= resid_tol)


def opposite_signs(a, b):
    """True where a and b are nonzero and of opposite sign, for floats and
    ndarrays alike. A product test a*b < 0 fails when the product
    underflows to zero, as 1e-200 * -1e-200 does; this does not. NaN has
    no sign."""
    return (a < 0.0) & (b > 0.0) | (a > 0.0) & (b < 0.0)


def converged_root(result: RootResult, what: str) -> float:
    """The refined root, or ConsistencyError when refinement stopped
    before its width target and its residual tolerance."""
    if not result.converged:
        raise ConsistencyError(
            f"{what}: root refinement did not converge (residual "
            f"{result.residual!r} after {result.iterations} iterations)"
        )
    return result.root


def _finite(value: float) -> bool:
    # a boolean is an int, and a finite one, but never a tolerance or a bound
    return not isinstance(value, bool) and math.isfinite(value)


def _check_count(value: int, least: int, name: str) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise ValueError(f"{name} must be an int >= {least}, got {value!r}")


def _check_interval(lo: float, hi: float) -> None:
    if not (_finite(lo) and _finite(hi) and lo < hi):
        raise ValueError(f"scan interval requires finite lo < hi, got [{lo!r}, {hi!r}]")


def brackets_from_values(
    lo: float,
    hi: float,
    values: Sequence[float],
    resid_tol: float = RESID_TOL,
) -> List[Bracket]:
    """Extract sign-change brackets from uniform-grid samples.

    ``values[k]`` is the sample at ``lo + k*step`` with
    ``step = (hi-lo)/n_cells``; node recomputation uses exactly that
    expression so brackets match the sampling grid bit for bit.

    A node with |value| < resid_tol counts as a root itself: both cells
    touching it are suppressed, and a single spanning bracket over its
    two outer neighbors is emitted when they straddle a sign change, so
    the root is reported exactly once. ValueError unless lo and hi are
    finite and lo < hi.
    """
    _check_interval(lo, hi)
    # Only cells that start at a node root or hold a strict sign change
    # can yield a bracket; a list selects them in Python, anything else
    # (an ndarray) with numpy. The rules below run on those few cells.
    if isinstance(values, list):
        v = values
        node_root = [abs(x) < resid_tol for x in v]
        candidates = [
            i for i in range(len(v) - 1) if node_root[i] or opposite_signs(v[i], v[i + 1])
        ]
    else:
        import numpy as np
        v = np.asarray(values, dtype=np.float64)
        node_root = np.abs(v) < resid_tol
        candidates = np.flatnonzero(node_root[:-1] | opposite_signs(v[:-1], v[1:])).tolist()
    n_cells = len(v) - 1
    if n_cells < 1:
        return []
    step = (hi - lo) / n_cells
    out: List[Bracket] = []
    # float() keeps np.float64 out of the brackets, whose fields end up
    # in printed output.
    for i in candidates:
        if node_root[i]:
            if 0 < i and not node_root[i - 1] and not node_root[i + 1]:
                v_prev, v_next = float(v[i - 1]), float(v[i + 1])
                if opposite_signs(v_prev, v_next):
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
    sign-change bracket. Empty list when there is no sign change;
    ValueError unless lo and hi are finite and lo < hi and n_steps is an
    int >= 2."""
    _check_interval(lo, hi)
    _check_count(n_steps, 2, "n_steps")
    step = (hi - lo) / n_steps
    values = [fn(lo + k * step) for k in range(n_steps + 1)]
    return brackets_from_values(lo, hi, values)
