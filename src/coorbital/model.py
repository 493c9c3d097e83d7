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
CANONICAL_TOL = 1e-9
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
    """Antisymmetric 4x4 matrix M with M @ mu = residual_four(sym, mu)."""

    entries: np.ndarray


def mass_matrix(sym: SymmetricConfig) -> MassMatrix:
    import numpy as np
    f1, f2, f4, f12 = kernel_values(sym)
    entries = np.array(
        [
            [0.0, f1, f12, -f4],
            [-f1, 0.0, f2, f12],
            [-f12, -f2, 0.0, f1],
            [f4, -f12, -f1, 0.0],
        ]
    )
    return MassMatrix(entries)


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

    The rank is 4 less the number of singular values at or below rank_tol
    times the largest; their right singular vectors form the
    orthonormal null-space basis. M must be a finite 4x4 array, else
    MassDomainError. The canonical representative fixes mu2 = mu3 = 1/2;
    if that vector is not strictly positive, masses is None and only the
    basis is returned.
    """
    import numpy as np
    entries = np.asarray(M.entries, dtype=float)
    # LAPACK's SVD may never return on a non-finite matrix
    if entries.shape != (4, 4) or not np.all(np.isfinite(entries)):
        raise MassDomainError("mass matrix must be a finite 4x4 array")
    _, sing, vt = np.linalg.svd(entries)
    rank = 4 - int(np.count_nonzero(sing <= rank_tol * sing[0]))
    if rank == 4:
        raise RankDeficiencyAbsentError(
            "mass matrix has trivial null space; no admissible masses"
        )
    basis = vt[rank:].T

    # canonical representative: coefficients c with (basis @ c)[1:3] = 1/2
    constraint = basis[1:3, :]
    target = np.array([0.5, 0.5])
    coeffs, *_ = np.linalg.lstsq(constraint, target, rcond=None)
    mu = basis @ coeffs
    masses: Optional[MassVector] = None
    if (
        abs(mu[1] - 0.5) <= CANONICAL_TOL
        and abs(mu[2] - 0.5) <= CANONICAL_TOL
        and bool(np.all(mu > 0.0))
    ):
        masses = MassVector(tuple(float(m) for m in mu))
    return NullSpaceResult(rank, basis, masses)
