"""Kernel function: zeros, derivatives, symmetry, sign structure."""
import math

import numpy as np
import pytest

from coorbital.exceptions import AngleDomainError
from coorbital.kernel import (
    FIVE_PI_THIRD,
    PI_THIRD,
    TWO_PI,
    critical_points,
    f_double_prime,
    f_eval,
    f_prime,
)

ZERO_TOL = 1e-12
CRIT_RESID_TOL = 1e-10
FROZEN_THETA_C = 1.8910822898493835
FD_STEP = 1e-6


def test_zeros_within_tolerance():
    assert abs(f_eval(PI_THIRD)) < ZERO_TOL
    assert abs(f_eval(math.pi)) < ZERO_TOL
    assert abs(f_eval(FIVE_PI_THIRD)) < ZERO_TOL


def test_reference_value_at_right_angle():
    assert abs(f_eval(math.pi / 2) - 0.6464466094067262) < 1e-14


def test_prime_at_half_turn():
    assert abs(f_prime(math.pi) + 7.0 / 8.0) <= ZERO_TOL


def test_prime_lower_bound():
    # -7/8 is the global minimum of f', attained at pi
    ts = np.linspace(1e-4, TWO_PI - 1e-4, 2000)
    assert min(f_prime(t) for t in ts) >= -7.0 / 8.0 - ZERO_TOL


def test_critical_points_profile():
    prof = critical_points()
    assert prof.zeros == (math.pi / 3.0, math.pi, 5.0 * math.pi / 3.0)
    assert 3.0 * math.pi / 5.0 < prof.theta_c < 2.0 * math.pi / 3.0
    assert abs(prof.theta_c - FROZEN_THETA_C) < 1e-12
    assert abs(prof.theta_c + prof.theta_l - TWO_PI) < 5e-16
    assert abs(f_prime(prof.theta_c)) < CRIT_RESID_TOL
    assert abs(f_prime(prof.theta_l)) < CRIT_RESID_TOL


def test_critical_points_cached():
    assert critical_points() is critical_points()


def test_antisymmetry_scaled():
    # 512 uniform samples of the open interval (0, pi); the tolerance is
    # scaled because |f| ~ 1/theta^2 amplifies argument rounding near 0
    for k in range(1, 513):
        t = k * math.pi / 513.0
        v = f_eval(t)
        assert abs(f_eval(TWO_PI - t) + v) <= 1e-12 * max(1.0, abs(v))


def test_reflection_identity_scaled():
    for k in range(1, 513):
        t = k * math.pi / 513.0
        lhs = f_eval(math.pi - t)
        assert abs(lhs + f_eval(math.pi + t)) <= 1e-12 * max(1.0, abs(lhs))


def test_sign_table():
    inset = 1e-6
    for lo, hi, sign in (
        (inset, PI_THIRD - inset, -1.0),
        (PI_THIRD + inset, math.pi - inset, 1.0),
        (math.pi + inset, FIVE_PI_THIRD - inset, -1.0),
        (FIVE_PI_THIRD + inset, TWO_PI - inset, 1.0),
    ):
        for t in np.linspace(lo, hi, 300):
            assert sign * f_eval(t) > 0.0, f"sign break at theta={t!r}"


def test_collision_asymptote():
    # f ~ -1/theta^2 near 0 and +1/(2*pi-theta)^2 near 2*pi
    for t in (1e-3, 1e-4):
        assert abs(f_eval(t) * t * t + 1.0) < 0.02
        assert abs(f_eval(TWO_PI - t) * t * t - 1.0) < 0.02


def test_prime_matches_finite_difference():
    for t in np.linspace(0.1, TWO_PI - 0.1, 161):
        fd = (f_eval(t + FD_STEP) - f_eval(t - FD_STEP)) / (2.0 * FD_STEP)
        assert abs(f_prime(t) - fd) < 5e-6


def test_double_prime_matches_finite_difference():
    for t in np.linspace(0.2, TWO_PI - 0.2, 161):
        fd = (f_prime(t + FD_STEP) - f_prime(t - FD_STEP)) / (2.0 * FD_STEP)
        assert abs(f_double_prime(t) - fd) < 1e-5


def test_prime_sign_pattern():
    prof = critical_points()
    inset = 1e-4
    for t in np.linspace(inset, prof.theta_c - inset, 200):
        assert f_prime(t) > 0.0
    for t in np.linspace(prof.theta_c + inset, prof.theta_l - inset, 200):
        assert f_prime(t) < 0.0
    for t in np.linspace(prof.theta_l + inset, TWO_PI - inset, 200):
        assert f_prime(t) > 0.0


@pytest.mark.parametrize("bad", [0.0, TWO_PI, -0.5, 6.9, 100.0])
def test_domain_errors(bad):
    with pytest.raises(AngleDomainError):
        f_eval(bad)
    with pytest.raises(AngleDomainError):
        f_prime(bad)
    with pytest.raises(AngleDomainError):
        f_double_prime(bad)


KERNEL_FUNCTIONS = [f_eval, f_prime, f_double_prime]


@pytest.mark.parametrize("fn", KERNEL_FUNCTIONS)
def test_array_argument_gives_array_of_scalar_values(fn):
    theta = np.array([[0.5, math.pi], [4.0, TWO_PI - 1e-4]])
    got = fn(theta)
    assert isinstance(got, np.ndarray) and got.dtype == np.float64
    assert got.shape == theta.shape
    assert got.tolist() == [[fn(float(t)) for t in row] for row in theta.tolist()]
    assert fn(np.array([1, 2, 3])).tolist() == [fn(1.0), fn(2.0), fn(3.0)]
    assert fn(np.array([], dtype=np.float64)).shape == (0,)


@pytest.mark.parametrize("fn", KERNEL_FUNCTIONS)
@pytest.mark.parametrize("theta", [np.float64(1.5), np.float32(1.5), np.array(1.5), np.int64(2), 2])
def test_scalar_like_argument_gives_float(fn, theta):
    got = fn(theta)
    assert type(got) is float and got == fn(float(theta))


@pytest.mark.parametrize("fn", KERNEL_FUNCTIONS)
@pytest.mark.parametrize(
    "theta, bad, where",
    [
        ([1.0, 0.0, 7.0], "0.0", "(1,)"),
        ([1.0, 2.0, math.nan], "nan", "(2,)"),
        ([TWO_PI, 1.0], repr(TWO_PI), "(0,)"),
        ([[1.0, 2.0], [3.0, -math.inf]], "-inf", "(1, 1)"),
    ],
)
def test_array_domain_error_names_first_bad_entry(fn, theta, bad, where):
    with pytest.raises(AngleDomainError, match=rf"angle {bad} at index \({where[1:-1]}\) outside"):
        fn(np.array(theta))


@pytest.mark.parametrize("fn", KERNEL_FUNCTIONS)
@pytest.mark.parametrize(
    "bad",
    [True, False, np.bool_(True), "1.0", b"1.0", np.array(True), np.array([True, False]),
     np.array(["1.0"]), np.array([1.0 + 0j])],
    ids=["True", "False", "np.bool_", "str", "bytes", "bool-0d", "bool-array", "str-array",
         "complex-array"],
)
def test_booleans_and_strings_are_not_angles(fn, bad):
    with pytest.raises(AngleDomainError, match="not a real number"):
        fn(bad)


@pytest.mark.parametrize("fn", KERNEL_FUNCTIONS)
def test_pole_overflows_to_infinity_on_both_paths(fn):
    # near 0 a denominator underflows to zero (f'' first, below ~1e-80);
    # both paths then give the same infinity instead of raising
    for theta in (5e-324, 1e-110, 1e-90):
        assert fn(np.array([theta])).tolist() == [fn(theta)]
    assert math.isinf(fn(1e-110))
