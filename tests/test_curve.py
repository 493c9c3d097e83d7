"""Curve evaluation, region classification, branch tracing."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coorbital import backend, curve
from coorbital.curve import (
    curve_eval,
    curve_point,
    d4_region_count,
    mass_ratio,
    mass_ratio_pair,
    r_diff_pole,
    region_classify,
    trace_curve,
)
from coorbital.catalog import build_catalog
from coorbital.exceptions import (
    AngleDomainError,
    ConsistencyError,
    DegenerateDenominatorError,
    TraceResidualError,
)
from coorbital.kernel import COLLISION_TOL, f_eval
from coorbital.model import (
    SymmetricConfig,
    kernel_values,
    mass_matrix,
    positive_null_masses,
    residual_four,
)
from coorbital.theorems import solve_T37

TWO_PI = 2.0 * math.pi
TRACE_GATE = 1e-10
CLOSURE_TOL = 1e-12
IDENT_REL = 1e-9


def test_curve_eval_known_values():
    assert abs(curve_eval(math.pi / 2, math.pi / 2)) < 1e-14
    assert abs(curve_eval(1.4127, math.pi / 3)) < 1e-3
    val = curve_eval(0.9, 0.9)
    assert abs(val - (-0.5043461669147111)) < 1e-12
    assert abs(val) > 1e-3


def test_curve_eval_matches_kernel_expansion():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 100:
        t1 = rng.uniform(0.05, math.pi - 0.05)
        t2 = rng.uniform(0.05, TWO_PI - 0.05)
        t4 = TWO_PI - 2.0 * t1 - t2
        if t4 < 0.05 or t1 + t2 > TWO_PI - 0.05:
            continue
        direct = (
            f_eval(t1) ** 2 - f_eval(t1 + t2) ** 2 - f_eval(t2) * f_eval(t4)
        )
        assert abs(curve_eval(t1, t2) - direct) <= 1e-12 * max(1.0, abs(direct))
        checked += 1


def test_strip_domain_errors():
    with pytest.raises(AngleDomainError):
        curve_eval(0.0, 1.0)
    with pytest.raises(AngleDomainError):
        curve_eval(3.2, 0.5)
    with pytest.raises(AngleDomainError):
        curve_eval(1.5, 3.3)  # theta4 closes negative


@pytest.mark.parametrize("bad", [True, np.bool_(True), "1.0"], ids=["bool", "np.bool_", "str"])
@pytest.mark.parametrize(
    "fn", [curve_eval, region_classify, curve_point, mass_ratio, mass_ratio_pair]
)
def test_strip_refuses_booleans_and_strings(fn, bad):
    with pytest.raises(AngleDomainError, match="not a real number"):
        fn(bad, 1.0)
    with pytest.raises(AngleDomainError, match="not a real number"):
        fn(0.5, bad)


@pytest.mark.parametrize("bad", [True, np.bool_(True), "1.0"], ids=["bool", "np.bool_", "str"])
def test_trace_grid_refuses_booleans_and_strings(bad):
    # True and "1.0" would otherwise trace the D1 line theta2 = 1.0
    with pytest.raises(AngleDomainError, match="not a real number"):
        trace_curve("D1", [0.5, bad])


@pytest.mark.parametrize(
    "fn", [curve_eval, region_classify, curve_point, mass_ratio, mass_ratio_pair]
)
def test_strip_rejects_nan_theta2(fn):
    with pytest.raises(AngleDomainError):
        fn(1.0, math.nan)


STRIP_FNS = (curve_eval, region_classify, curve_point, mass_ratio, mass_ratio_pair)
# NaN and infinities, theta1 at 0 and pi, theta4 = 0, and kernel
# arguments on either side of the collision tolerance
STRIP_EDGES = [
    (math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (-math.inf, 1.0),
    (1.0, math.inf), (1.0, -math.inf), (0.0, 1.0), (math.pi, 0.5),
    (1.0, TWO_PI - 2.0), (0.5, TWO_PI - 1.0),
    (COLLISION_TOL, 1.0), (2.0 * COLLISION_TOL, 1.0),
    (1.0, COLLISION_TOL), (1.0, 2.0 * COLLISION_TOL),
    (1.0, TWO_PI - 2.0 - COLLISION_TOL), (1.0, TWO_PI - 2.0 - 2.0 * COLLISION_TOL),
    (1.0, math.pi / 3.0), (1.2, TWO_PI - 2.4 - math.pi / 3.0), (math.pi / 2, math.pi / 2),
    (math.pi / 3.0, 2.0 * math.pi / 3.0),
]


def _assert_one_strip_rule(theta1, theta2):
    """The curve's point functions accept exactly the points that
    SymmetricConfig and kernel_values accept, and agree with curve_point."""
    try:
        kernel_values(SymmetricConfig.from_pair(theta1, theta2))
    except AngleDomainError:
        for fn in STRIP_FNS:
            with pytest.raises(AngleDomainError):
                fn(theta1, theta2)
        return
    point = curve_point(theta1, theta2)
    assert curve_eval(theta1, theta2) == backend.curve_eval(theta1, theta2)
    assert region_classify(theta1, theta2) == point.region
    if point.mass_ratio is None:
        with pytest.raises(DegenerateDenominatorError):
            mass_ratio(theta1, theta2)
    else:
        assert mass_ratio(theta1, theta2) == point.mass_ratio
    if point.r_sum is None:
        with pytest.raises(DegenerateDenominatorError):
            mass_ratio_pair(theta1, theta2)
    else:
        assert mass_ratio_pair(theta1, theta2) == (point.r_sum, point.r_diff)


@settings(max_examples=500, deadline=None)
@given(
    st.floats(-0.1, math.pi + 0.1),
    st.floats(-0.1, TWO_PI + 0.1),
)
def test_strip_rule_is_kernel_values_rule(theta1, theta2):
    _assert_one_strip_rule(theta1, theta2)


@pytest.mark.parametrize("theta1, theta2", STRIP_EDGES)
def test_strip_rule_on_edges(theta1, theta2):
    _assert_one_strip_rule(theta1, theta2)


def test_region_examples():
    assert region_classify(0.6647, 0.5) == "D1"
    assert region_classify(1.5677, 1.5) == "D2"
    assert region_classify(0.7207, 4.2) == "D3"
    assert region_classify(2.8, 0.2) == "OUTSIDE"
    assert region_classify(1.0, math.pi / 3.0) == "BOUNDARY"


def test_trace_d1_two_branches():
    pts = trace_curve("D1", [0.5])
    assert len(pts) == 2
    assert abs(pts[0].theta1 - 0.6647) <= 1e-3
    assert abs(pts[1].theta1 - 1.3675) <= 1e-3


def test_trace_d2_and_d3_single_branch():
    (pt,) = trace_curve("D2", [2.0])
    assert abs(pt.theta1 - 1.5073) <= 1e-3
    (pt,) = trace_curve("D3", [4.0])
    assert abs(pt.theta1 - 0.7597) <= 1e-3


def test_trace_raises_when_refinement_does_not_converge():
    # a width below one ulp of theta1 is never reached
    with pytest.raises(ConsistencyError, match="did not reach width"):
        trace_curve("D2", [2.0], width_tol=1e-300)


def test_trace_gates_on_the_refinement_residual(monkeypatch):
    real = curve.bracket_root

    def large_residual(fn, bracket, **kwargs):
        return dataclasses.replace(real(fn, bracket, **kwargs), residual=1.0)

    monkeypatch.setattr(curve, "bracket_root", large_residual)
    with pytest.raises(TraceResidualError, match="has residual 1.0"):
        trace_curve("D2", [2.0])


def test_trace_rejects_bad_region():
    with pytest.raises(ValueError):
        trace_curve("D5", [0.5])
    with pytest.raises(ValueError):
        trace_curve("D1", [2.0])  # theta2 outside the band


def test_traced_points_satisfy_invariants(traced_tables):
    for region, pts in traced_tables.items():
        assert pts, region
        for pt in pts:
            assert pt.region == region
            assert abs(curve_eval(pt.theta1, pt.theta2)) < TRACE_GATE
            assert abs(2.0 * pt.theta1 + pt.theta2 + pt.theta4 - TWO_PI) < CLOSURE_TOL
            d = f_eval(pt.theta1) - f_eval(pt.theta1 + pt.theta2)
            assert math.copysign(1.0, f_eval(pt.theta2)) == math.copysign(1.0, d)
            if not pt.degenerate:
                assert pt.mass_ratio > 0.0
                assert pt.r_sum > 0.0
                assert abs(pt.mass_ratio - pt.r_sum) <= IDENT_REL * abs(pt.r_sum)


def test_traced_points_yield_central_configurations(traced_tables):
    for pts in traced_tables.values():
        for pt in pts:
            if pt.degenerate:
                continue
            sym = SymmetricConfig.from_pair(pt.theta1, pt.theta2)
            result = positive_null_masses(mass_matrix(sym))
            assert result.rank == 2
            res = residual_four(sym, result.masses)
            assert max(abs(r) for r in res) < 1e-9


def test_null_space_basis_is_orthonormal_kernel(traced_tables):
    for pts in traced_tables.values():
        for pt in pts:
            if pt.degenerate:
                continue
            matrix = mass_matrix(SymmetricConfig.from_pair(pt.theta1, pt.theta2))
            basis = positive_null_masses(matrix).basis
            M = matrix.entries
            assert basis.shape == (4, 2)
            assert np.allclose(basis.T @ basis, np.eye(2), rtol=0.0, atol=1e-12)
            assert np.max(np.abs(M @ basis)) <= 1e-12 * np.max(np.abs(M))


def test_trace_results_sorted(traced_tables):
    for pts in traced_tables.values():
        keys = [(p.theta2, p.theta1) for p in pts]
        assert keys == sorted(keys)


def test_trace_batch_matches_per_line(traced_tables):
    for t2 in (0.3, 0.8):
        single = trace_curve("D1", [t2])
        batch = [p for p in traced_tables["D1"] if p.theta2 == t2]
        assert single == batch


def test_mass_ratio_examples():
    lam = mass_ratio(0.6647, 0.5)
    assert abs(lam - 1.8989) <= 0.01 * 1.8989
    assert abs(mass_ratio(1.3675, 0.5) - 14.9637) <= 0.01 * 14.9637
    assert abs(mass_ratio(math.pi / 2, math.pi / 2) - 1.0) < 1e-12


def test_mass_ratio_pair_examples():
    for (t1, t2), (ref_sum, ref_diff) in (
        ((0.6647, 0.5), (1.8989, 2.5298)),
        ((1.5073, 2.0), (0.7816, 2.4105)),
        ((0.7207, 4.2), (0.9579, 0.4105)),
    ):
        r_sum, r_diff = mass_ratio_pair(t1, t2)
        assert abs(r_sum - ref_sum) <= 0.01 * abs(ref_sum)
        assert abs(r_diff - ref_diff) <= 0.01 * abs(ref_diff)


def test_degenerate_denominators_raise():
    # theta4 = pi/3 makes f(theta4) a rounding-level residue
    t1 = 1.2
    t2 = TWO_PI - 2.0 * t1 - math.pi / 3.0
    with pytest.raises(DegenerateDenominatorError):
        mass_ratio_pair(t1, t2)
    # on the half-turn boundary point f(theta1) = f(theta1 + theta2)
    f_point = build_catalog().by_label("F_pt")
    with pytest.raises(DegenerateDenominatorError):
        mass_ratio(f_point.theta1, math.pi)


def test_curve_point_flags_degenerate():
    pt = curve_point(1.2, TWO_PI - 2.4 - math.pi / 3.0)
    assert pt.degenerate
    assert pt.r_sum is None and pt.r_diff is None
    # band labels come from theta2 alone; sign of the defect is reported
    # separately, so an off-curve point inside the first band is still D1
    generic = curve_point(0.9, 0.9)
    assert not generic.degenerate
    assert generic.region == "D1"
    outside = curve_point(2.8, 0.2)
    assert not outside.degenerate
    assert outside.region == "OUTSIDE"


def test_r_diff_pole_location():
    pole = r_diff_pole()
    assert 2.4 < pole < 2.5
    # the pole is the mirror-case angle where f(theta4) vanishes
    assert abs(pole - solve_T37().config.theta2) < 1e-9


def test_r_diff_pole_honours_width_tol(monkeypatch):
    reference = r_diff_pole(width_tol=1e-14)
    tols = (1e-2, 1e-4, 1e-8, 1e-12)
    gaps = [abs(r_diff_pole(width_tol=tol) - reference) for tol in tols]
    assert gaps == sorted(gaps, reverse=True)
    assert all(gap <= tol for gap, tol in zip(gaps, tols))
    # the pole's own bracket is refined to the caller's width, not a fixed one
    widths = []
    refine = curve.bracket_root

    def spy(fn, bracket, **kwargs):
        if fn.__name__ == "f4_on_branch":
            widths.append(kwargs["width_tol"])
        return refine(fn, bracket, **kwargs)

    monkeypatch.setattr(curve, "bracket_root", spy)
    r_diff_pole(width_tol=1e-13)
    assert widths == [1e-13]


@pytest.mark.parametrize(
    "window",
    [
        (math.nan, 2.5), (2.4, math.inf), (0.5, 0.6), (2.5, 2.4),
        (1.5, 1.6), (1.1, 1.2), (2.9, 3.1),
        (math.pi / 3.0 + 1e-12, 1.2), (3.0, math.pi - 1e-12),
        ("2.4", 2.5), (2.4, "2.5"),
    ],
    ids=[
        "nan-lo", "inf-hi", "below-band", "reversed",
        "no-pole-mid", "no-pole-low", "no-pole-high",
        "lo-at-band-edge", "hi-at-band-edge",
        "string-lo", "string-hi",
    ],
)
def test_r_diff_pole_rejects_bad_window(window):
    with pytest.raises(AngleDomainError, match="pole window"):
        r_diff_pole(*window)


def test_d4_band_is_empty():
    assert d4_region_count(60) == 0
