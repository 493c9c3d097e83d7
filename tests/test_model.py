"""Ring model: residuals, mass matrix, null-space mass recovery."""
import math
import subprocess
import sys

import numpy as np
import pytest

from coorbital.curve import curve_eval, trace_curve
from coorbital.exceptions import (
    AngleDomainError,
    MassDomainError,
    RankDeficiencyAbsentError,
)
from coorbital.model import (
    AngleConfig,
    MassVector,
    SymmetricConfig,
    coefficient_matrix,
    mass_matrix,
    positive_null_masses,
    residual_four,
    residual_general,
)

TWO_PI = 2.0 * math.pi
EXACT_TOL = 1e-12
CROSS_TOL = 1e-13
SEED = 20260815


def _random_sym(rng, margin=0.05):
    while True:
        t1 = rng.uniform(margin, math.pi - margin)
        t2 = rng.uniform(margin, TWO_PI - margin)
        t4 = TWO_PI - 2.0 * t1 - t2
        if t4 > margin and t1 + t2 < TWO_PI - margin:
            return SymmetricConfig.from_pair(t1, t2)


def test_angle_config_validation():
    with pytest.raises(AngleDomainError):
        AngleConfig((1.0, 1.0, 1.0, 1.0))
    with pytest.raises(AngleDomainError):
        AngleConfig((-1.0, 1.0, 1.0, TWO_PI - 1.0))
    AngleConfig((math.pi / 2,) * 4)


@pytest.mark.parametrize(
    "thetas",
    [
        (math.nan, math.pi / 2, math.pi / 2, math.pi / 2),
        (math.pi / 2, math.pi / 2, math.pi / 2, math.nan),
    ],
)
def test_angle_config_rejects_nan_gaps(thetas):
    with pytest.raises(AngleDomainError):
        AngleConfig(thetas)


def test_mass_vector_validation():
    with pytest.raises(MassDomainError):
        MassVector((1.0, 0.0, 1.0, 1.0))
    with pytest.raises(MassDomainError):
        MassVector((1.0, -2.0, 1.0, 1.0))


@pytest.mark.parametrize(
    "mus",
    [(math.nan, 1.0, 1.0, 1.0), (1.0, 1.0, 1.0, math.nan), (math.inf, 1.0, 1.0, 1.0)],
)
def test_mass_vector_rejects_non_finite_masses(mus):
    with pytest.raises(MassDomainError):
        MassVector(mus)


def test_symmetric_config_validation():
    with pytest.raises(AngleDomainError):
        SymmetricConfig.from_pair(3.2, 0.1)
    with pytest.raises(AngleDomainError):
        SymmetricConfig.from_pair(1.5, 3.3)  # theta4 would be negative
    sym = SymmetricConfig.from_pair(0.7, 0.5)
    assert abs(2.0 * sym.theta1 + sym.theta2 + sym.theta4 - TWO_PI) < 1e-12


def test_expand_matches_fields():
    sym = SymmetricConfig.from_pair(0.7, 0.5)
    cfg = sym.expand()
    assert cfg.thetas == (sym.theta1, sym.theta2, sym.theta1, sym.theta4)


def test_regular_ngon_residual_vanishes():
    for n in range(3, 11):
        cfg = AngleConfig((TWO_PI / n,) * n)
        res = residual_general(cfg, MassVector((1.0,) * n))
        assert max(abs(r) for r in res) < EXACT_TOL


def test_square_alternating_masses():
    square = AngleConfig((math.pi / 2,) * 4)
    res = residual_general(square, MassVector((1.0, 2.0, 1.0, 2.0)))
    assert max(abs(r) for r in res) < EXACT_TOL


def test_non_solution_has_large_residual():
    cfg = AngleConfig((1.0, 1.0, 1.0, TWO_PI - 3.0))
    res = residual_general(cfg, MassVector((1.0, 1.0, 1.0, 1.0)))
    assert max(abs(r) for r in res) >= 1e-3


def test_length_mismatch_rejected():
    cfg = AngleConfig((TWO_PI / 3,) * 3)
    with pytest.raises(MassDomainError):
        residual_general(cfg, MassVector((1.0, 1.0, 1.0, 1.0)))


def test_four_body_evaluators_agree():
    # angle margins keep |f| moderate; near-collision configs amplify
    # the rounding of the partial-sum arguments past 1e-12
    rng = np.random.default_rng(SEED)
    for _ in range(100):
        sym = _random_sym(rng, margin=0.15)
        mus = MassVector(tuple(rng.uniform(0.1, 2.0, 4)))
        a = residual_four(sym, mus)
        b = residual_general(sym.expand(), mus)
        assert max(abs(x - y) for x, y in zip(a, b)) <= EXACT_TOL


def test_residual_scales_linearly():
    rng = np.random.default_rng(SEED + 1)
    for _ in range(20):
        sym = _random_sym(rng)
        mus = tuple(rng.uniform(0.1, 10.0, 4))
        c = rng.uniform(0.1, 10.0)
        base = residual_four(sym, MassVector(mus))
        scaled = residual_four(sym, MassVector(tuple(c * m for m in mus)))
        for x, y in zip(base, scaled):
            assert abs(y - c * x) <= 1e-12 * max(1.0, abs(c * x))


def test_mass_matrix_reproduces_residual():
    rng = np.random.default_rng(SEED + 2)
    sym = _random_sym(rng)
    M = mass_matrix(sym).entries
    for _ in range(100):
        mus = rng.uniform(0.1, 10.0, 4)
        res = residual_four(sym, MassVector(tuple(mus)))
        assert np.max(np.abs(M @ mus - res)) < CROSS_TOL


def test_mass_matrix_antisymmetric():
    rng = np.random.default_rng(SEED + 3)
    for _ in range(10):
        M = mass_matrix(_random_sym(rng)).entries
        assert np.array_equal(M.T, -M)


def test_coefficient_matrix_singular():
    assert abs(np.linalg.det(coefficient_matrix(MassVector((1.0,) * 4)))) < 1e-12
    A = coefficient_matrix(MassVector((1.0, 2.0, 3.0, 4.0)))
    assert abs(np.linalg.det(A)) < 1e-10 * np.linalg.norm(A) ** 4
    rng = np.random.default_rng(SEED + 4)
    for _ in range(100):
        A = coefficient_matrix(MassVector(tuple(rng.uniform(0.1, 10.0, 4))))
        assert abs(np.linalg.det(A)) / np.linalg.norm(A) ** 4 < 1e-12


def test_determinant_is_squared_curve_value():
    rng = np.random.default_rng(SEED)
    checked = 0
    while checked < 1000:
        t1 = rng.uniform(0.05, math.pi - 0.05)
        t2 = rng.uniform(0.05, TWO_PI - 0.05)
        if TWO_PI - 2.0 * t1 - t2 < 0.05 or t1 + t2 > TWO_PI - 0.05:
            continue
        det = np.linalg.det(mass_matrix(SymmetricConfig.from_pair(t1, t2)).entries)
        ref = curve_eval(t1, t2) ** 2
        assert abs(det - ref) <= 1e-9 * max(abs(ref), 1e-300)
        checked += 1


def test_null_masses_on_traced_points():
    # table rows round theta1 to 4 decimals, so snap to the curve first
    for theta2, ref_ratio in ((1.5, 1.0406), (0.5, 1.8989)):
        region = "D2" if theta2 > math.pi / 3 else "D1"
        pt = trace_curve(region, [theta2])[0]
        result = positive_null_masses(
            mass_matrix(SymmetricConfig.from_pair(pt.theta1, theta2))
        )
        assert result.rank == 2
        mus = result.masses.mus
        assert abs(mus[1] - mus[2]) < 1e-9
        assert abs(mus[1] + mus[2] - 1.0) < 1e-9
        assert abs(mus[0] - mus[3]) < 1e-9
        assert abs(mus[0] / mus[1] - ref_ratio) <= 0.01 * ref_ratio


def test_null_masses_raise_off_curve():
    with pytest.raises(RankDeficiencyAbsentError):
        positive_null_masses(mass_matrix(SymmetricConfig.from_pair(0.9, 0.9)))


def test_null_masses_nan_rank_tol_keeps_full_rank():
    with pytest.raises(RankDeficiencyAbsentError):
        positive_null_masses(
            mass_matrix(SymmetricConfig.from_pair(0.9, 0.9)), rank_tol=math.nan
        )


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_null_masses_reject_non_finite_matrix(bad):
    # a subprocess with a timeout, because the SVD this check guards may
    # never return on a non-finite matrix
    code = f"""
import numpy as np
from coorbital.exceptions import MassDomainError
from coorbital.model import MassMatrix, positive_null_masses
x = float("{bad}")
M = np.array([[0.0, x, 0.0, 0.0], [-x, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, -1.0, 0.0]])
try:
    positive_null_masses(MassMatrix(M))
except MassDomainError:
    print("MassDomainError")
"""
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=30
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout == "MassDomainError\n"
