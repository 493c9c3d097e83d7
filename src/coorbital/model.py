"""Configuration types, residual evaluators, and mass recovery.

A ring configuration is a cyclic list of angular gaps summing to one
full turn. The balance system is linear and homogeneous in the mass
factors, so for the symmetric four-satellite family it can be packed
into an antisymmetric 4x4 matrix acting on the mass vector; admissible
masses are then strictly positive null vectors of that matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

from . import backend
from .exceptions import (
    AngleDomainError,
    MassDomainError,
    RankDeficiencyAbsentError,
)
from .kernel import COLLISION_TOL, TWO_PI, real_float

if TYPE_CHECKING:
    import numpy as np

ANGLE_SUM_TOL = 1e-12
RANK_TOL = 1e-9
# kernel terms per block of residual_general rows; bounds its temporaries
_BLOCK_TERMS = 8192


def _kernel_at(separation: float) -> float:
    # partial sums must stay clear of the collision endpoints 0 and 2*pi
    if separation <= COLLISION_TOL or separation >= TWO_PI - COLLISION_TOL:
        raise AngleDomainError(
            f"separation {separation!r} within collision tolerance of 0 or 2*pi"
        )
    return backend.f_eval(separation)


@dataclass(frozen=True)
class AngleConfig:
    """Cyclic angular gaps of an N-satellite ring, winding once around."""

    thetas: Tuple[float, ...]

    def __post_init__(self) -> None:
        thetas = tuple(real_float(t, AngleDomainError, "angle") for t in self.thetas)
        object.__setattr__(self, "thetas", thetas)
        if len(thetas) < 3:
            raise AngleDomainError("ring needs at least 3 gaps")
        if not all(t > 0.0 for t in thetas):
            raise AngleDomainError("every gap must be strictly positive")
        if abs(math.fsum(thetas) - TWO_PI) > ANGLE_SUM_TOL:
            raise AngleDomainError("gaps must sum to 2*pi")


@dataclass(frozen=True)
class MassVector:
    """Dimensionless satellite mass factors, all strictly positive."""

    mus: Tuple[float, ...]

    def __post_init__(self) -> None:
        mus = tuple(real_float(m, MassDomainError, "mass") for m in self.mus)
        object.__setattr__(self, "mus", mus)
        if not mus:
            raise MassDomainError("mass vector must be non-empty")
        if not all(0.0 < m < math.inf for m in mus):
            raise MassDomainError("every mass factor must be finite and strictly positive")


@dataclass(frozen=True)
class SymmetricConfig:
    """Four-satellite configuration with the first and third gaps equal."""

    theta1: float
    theta2: float
    theta4: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta1", real_float(self.theta1, AngleDomainError, "theta1"))
        object.__setattr__(self, "theta2", real_float(self.theta2, AngleDomainError, "theta2"))
        object.__setattr__(self, "theta4", real_float(self.theta4, AngleDomainError, "theta4"))
        if not 0.0 < self.theta1 < math.pi:
            raise AngleDomainError("theta1 must lie in (0, pi)")
        if not 0.0 < self.theta2 < TWO_PI:
            raise AngleDomainError("theta2 must lie in (0, 2*pi)")
        if not 0.0 < self.theta4 < TWO_PI:
            raise AngleDomainError("theta4 must lie in (0, 2*pi)")
        closure = 2.0 * self.theta1 + self.theta2 + self.theta4 - TWO_PI
        if abs(closure) > ANGLE_SUM_TOL:
            raise AngleDomainError("2*theta1 + theta2 + theta4 must equal 2*pi")

    @classmethod
    def from_pair(cls, theta1: float, theta2: float) -> "SymmetricConfig":
        """Build from the two free angles; the fourth gap closes the ring."""
        theta1 = real_float(theta1, AngleDomainError, "theta1")
        theta2 = real_float(theta2, AngleDomainError, "theta2")
        return cls(theta1, theta2, TWO_PI - 2.0 * theta1 - theta2)

    def expand(self) -> AngleConfig:
        return AngleConfig((self.theta1, self.theta2, self.theta1, self.theta4))


def kernel_values(sym: SymmetricConfig) -> Tuple[float, float, float, float]:
    """Kernel samples (f1, f2, f4, f12) at theta1, theta2, theta4 and
    the pair sum theta1 + theta2."""
    return (
        _kernel_at(sym.theta1),
        _kernel_at(sym.theta2),
        _kernel_at(sym.theta4),
        _kernel_at(sym.theta1 + sym.theta2),
    )


def residual_general(config: AngleConfig, masses: MassVector) -> List[float]:
    """Tangential balance residuals for a general ring.

    Row i sums mu_{i+j} * f(theta_i + ... + theta_{i+j-1}) over
    j = 1..N-1 with cyclic indexing; a central configuration makes
    every row vanish.

    A ring of at most _BLOCK_TERMS terms (N <= 91) is summed term by
    term in Python; larger rings are evaluated with numpy in blocks of
    about _BLOCK_TERMS terms, so memory stays bounded by the block
    rather than by N^2. Both the partial angle sums and the row sums
    accumulate left to right on both paths, so every row is
    bit-identical to the scalar sum taken term by term. A separation
    within COLLISION_TOL of 0 or 2*pi raises AngleDomainError, naming
    the first one in row-major order.
    """
    n = len(config.thetas)
    if len(masses.mus) != n:
        raise MassDomainError("angle and mass lists must share a length")
    if n * (n - 1) > _BLOCK_TERMS:
        return _residual_blocks(config, masses)
    thetas, mus = config.thetas, masses.mus
    rows = []
    for i in range(n):
        acc = 0.0
        partial = 0.0
        for j in range(i, i + n - 1):
            partial += thetas[j % n]
            acc += mus[(j + 1) % n] * _kernel_at(partial)
        rows.append(acc)
    return rows


def _residual_blocks(config: AngleConfig, masses: MassVector) -> List[float]:
    """residual_general's rows, by numpy blocks of about _BLOCK_TERMS terms."""
    import numpy as np
    n = len(config.thetas)
    # row i reads thetas[i .. i+n-2] and mus[i+1 .. i+n-1], cyclically
    windows = np.lib.stride_tricks.sliding_window_view
    th = windows(np.array(config.thetas * 2), n - 1)[:n]
    mu = windows(np.array(masses.mus * 2), n - 1)[1 : n + 1]
    rows = np.empty(n)
    step = max(1, _BLOCK_TERMS // (n - 1))
    for i0 in range(0, n, step):
        i1 = min(i0 + step, n)
        # cumsum accumulates sequentially, like the scalar +=; np.sum
        # would sum pairwise and change the last bits
        partial = np.cumsum(th[i0:i1], axis=1)
        # gaps are positive, so partial sums never decrease along a row:
        # a row holds a collision separation exactly when its first or
        # last entry is one
        bad = (partial[:, 0] <= COLLISION_TOL) | (partial[:, -1] >= TWO_PI - COLLISION_TOL)
        if bad.any():
            row = partial[np.argmax(bad)]
            hit = (row <= COLLISION_TOL) | (row >= TWO_PI - COLLISION_TOL)
            _kernel_at(float(row[np.argmax(hit)]))  # raises
        terms = mu[i0:i1] * backend.f_eval(partial, np)
        rows[i0:i1] = np.cumsum(terms, axis=1)[:, -1]
    return rows.tolist()


def residual_four(sym: SymmetricConfig, masses: MassVector) -> List[float]:
    """Balance residuals of the symmetric four-satellite system."""
    if len(masses.mus) != 4:
        raise MassDomainError("symmetric system needs exactly 4 mass factors")
    f1, f2, f4, f12 = kernel_values(sym)
    m1, m2, m3, m4 = masses.mus
    return [
        m2 * f1 + m3 * f12 - m4 * f4,
        m3 * f2 + m4 * f12 - m1 * f1,
        m4 * f1 - m1 * f12 - m2 * f2,
        m1 * f4 - m2 * f12 - m3 * f1,
    ]


@dataclass(frozen=True, eq=False)
class MassMatrix:
    """Antisymmetric 4x4 matrix M with M @ mu = residual_four(sym, mu).

    Its Pfaffian M01*M23 - M02*M13 + M03*M12 = f1*f1 - f12*f12 - f2*f4
    is the curve function C, in curve_eval's operation order, so
    det M = C**2 and M is singular exactly on the curve."""

    entries: np.ndarray


def _pattern(f1: float, f2: float, f4: float, f12: float) -> List[List[float]]:
    return [
        [0.0, f1, f12, -f4],
        [-f1, 0.0, f2, f12],
        [-f12, -f2, 0.0, f1],
        [f4, -f12, -f1, 0.0],
    ]


def mass_matrix(sym: SymmetricConfig) -> MassMatrix:
    import numpy as np
    return MassMatrix(np.array(_pattern(*kernel_values(sym))))


def coefficient_matrix(masses: MassVector) -> np.ndarray:
    """Mass-weighted matrix acting on the kernel-value vector
    (f1, f2, f4, f12); its determinant vanishes identically."""
    if len(masses.mus) != 4:
        raise MassDomainError("coefficient matrix needs exactly 4 mass factors")
    import numpy as np
    m1, m2, m3, m4 = masses.mus
    return np.array(
        [
            [m2, 0.0, -m4, m3],
            [-m1, m3, 0.0, m4],
            [m4, -m2, 0.0, -m1],
            [-m3, 0.0, m1, -m2],
        ]
    )


@dataclass(frozen=True, eq=False)
class NullSpaceResult:
    """Null space of a mass matrix: numerical rank, an orthonormal basis
    of the kernel (columns), and the canonical positive mass vector when
    one exists."""

    rank: int
    basis: np.ndarray
    masses: Optional[MassVector]


def positive_null_masses(M: MassMatrix, rank_tol: float = RANK_TOL) -> NullSpaceResult:
    """Recover admissible masses as positive null vectors of M.

    M must be mass_matrix's pattern of finite f1, f2, f4, f12, else
    MassDomainError. Its singular values are (a, a, b, b), with a*b = |C|
    for C = Pf(M) and a**2 + b**2 = 2*f1**2 + 2*f12**2 + f2**2 + f4**2.
    Those at or below rank_tol * a are null: rank 2 when |C| <=
    rank_tol * a**2, rank 0 when also a <= rank_tol * a. Rank 2 gives the
    orthonormal basis (p, q, q, p), (r, w, -w, -r) and, when
    lam = p/(2q) > 0, the canonical masses (lam, 1/2, 1/2, lam). Rank 0
    gives the identity basis and no masses, since mu1 and mu4 are free.
    """
    import numpy as np
    entries = np.asarray(M.entries, dtype=float)
    if entries.shape != (4, 4):
        raise MassDomainError("mass matrix must be a 4x4 array")
    rows = entries.tolist()
    f1, f12, f4, f2 = rows[0][1], rows[0][2], -rows[0][3], rows[1][2]
    if not all(map(math.isfinite, (f1, f2, f4, f12))) or rows != _pattern(f1, f2, f4, f12):
        raise MassDomainError("mass matrix must be mass_matrix's pattern of finite values")
    # an exact power-of-two scale: no square overflows and no returned bit changes
    scale = math.frexp(max(abs(f1), abs(f2), abs(f4), abs(f12)))[1]
    f1, f2, f4, f12 = (math.ldexp(f, -scale) for f in (f1, f2, f4, f12))
    pf = f1 * f1 - f12 * f12 - f2 * f4
    s = 2.0 * f1 * f1 + 2.0 * f12 * f12 + f2 * f2 + f4 * f4
    a2 = 0.5 * (s + math.sqrt(max(s * s - 4.0 * pf * pf, 0.0)))
    if not abs(pf) <= rank_tol * a2:
        raise RankDeficiencyAbsentError("mass matrix has trivial null space; no admissible masses")
    if a2 <= rank_tol * a2:
        return NullSpaceResult(0, np.eye(4), None)
    # each null vector from the larger of its two row solutions, which agree on the curve
    p, q = max((f2, f1 - f12), (f1 + f12, f4), key=lambda c: math.hypot(*c))
    r, w = max((-f2, f1 + f12), (f12 - f1, f4), key=lambda c: math.hypot(*c))
    u, v = (p, q, q, p), (r, w, -w, -r)
    basis = np.array([u, v]).T / [math.hypot(*u), math.hypot(*v)]
    lam = p / (2.0 * q) if q else 0.0
    masses = MassVector((lam, 0.5, 0.5, lam)) if 0.0 < lam < math.inf else None
    return NullSpaceResult(2, basis, masses)
