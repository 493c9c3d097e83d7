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
from typing import List, Optional, Tuple

import numpy as np

from . import backend
from .exceptions import (
    AngleDomainError,
    MassDomainError,
    RankDeficiencyAbsentError,
)
from .kernel import COLLISION_TOL, TWO_PI

ANGLE_SUM_TOL = 1e-12
RANK_TOL = 1e-9
CANONICAL_TOL = 1e-9


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
        thetas = tuple(float(t) for t in self.thetas)
        object.__setattr__(self, "thetas", thetas)
        if len(thetas) < 3:
            raise AngleDomainError("ring needs at least 3 gaps")
        if any(t <= 0.0 for t in thetas):
            raise AngleDomainError("every gap must be strictly positive")
        if abs(math.fsum(thetas) - TWO_PI) > ANGLE_SUM_TOL:
            raise AngleDomainError("gaps must sum to 2*pi")


@dataclass(frozen=True)
class MassVector:
    """Dimensionless satellite mass factors, all strictly positive."""

    mus: Tuple[float, ...]

    def __post_init__(self) -> None:
        mus = tuple(float(m) for m in self.mus)
        object.__setattr__(self, "mus", mus)
        if not mus:
            raise MassDomainError("mass vector must be non-empty")
        if any(m <= 0.0 for m in mus):
            raise MassDomainError("every mass factor must be strictly positive")


@dataclass(frozen=True)
class SymmetricConfig:
    """Four-satellite configuration with the first and third gaps equal."""

    theta1: float
    theta2: float
    theta4: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta1", float(self.theta1))
        object.__setattr__(self, "theta2", float(self.theta2))
        object.__setattr__(self, "theta4", float(self.theta4))
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
        theta1 = float(theta1)
        theta2 = float(theta2)
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
    """
    n = len(config.thetas)
    if len(masses.mus) != n:
        raise MassDomainError("angle and mass lists must share a length")
    thetas = config.thetas
    mus = masses.mus
    rows: List[float] = []
    for i in range(n):
        acc = 0.0
        partial = 0.0
        for j in range(1, n):
            partial += thetas[(i + j - 1) % n]
            acc += mus[(i + j) % n] * _kernel_at(partial)
        rows.append(acc)
    return rows


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

    Rank is decided by Gauss-Jordan elimination with full pivoting,
    comparing each pivot against rank_tol times the largest pivot. The
    canonical representative fixes mu2 = mu3 = 1/2; if that vector is
    not strictly positive, masses is None and only the basis is
    returned.
    """
    A = np.array(M.entries, dtype=float, copy=True)
    n = A.shape[0]
    col_order = list(range(n))
    rank = 0
    first_pivot = 0.0
    for k in range(n):
        sub = np.abs(A[k:, k:])
        i_rel, j_rel = np.unravel_index(int(np.argmax(sub)), sub.shape)
        pivot = sub[i_rel, j_rel]
        if k == 0:
            first_pivot = pivot
        if pivot == 0.0 or pivot <= rank_tol * first_pivot:
            break
        if i_rel:
            A[[k, k + i_rel]] = A[[k + i_rel, k]]
        if j_rel:
            A[:, [k, k + j_rel]] = A[:, [k + j_rel, k]]
            col_order[k], col_order[k + j_rel] = col_order[k + j_rel], col_order[k]
        A[k] /= A[k, k]
        for r in range(n):
            if r != k and A[r, k] != 0.0:
                A[r] -= A[r, k] * A[k]
        rank += 1

    if rank == n:
        raise RankDeficiencyAbsentError(
            "mass matrix has trivial null space; no admissible masses"
        )

    nullity = n - rank
    raw = np.zeros((n, nullity))
    for j in range(nullity):
        v_perm = np.zeros(n)
        v_perm[rank + j] = 1.0
        v_perm[:rank] = -A[:rank, rank + j]
        for pos, col in enumerate(col_order):
            raw[col, j] = v_perm[pos]
    q, _ = np.linalg.qr(raw)
    basis = q[:, :nullity]

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
