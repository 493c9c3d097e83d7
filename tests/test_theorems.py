"""Case solvers: roots, certificates, rejected branches."""
import math

import numpy as np
import pytest

from coorbital import backend, theorems
from coorbital.catalog import build_catalog
from coorbital.kernel import critical_points, f_eval
from coorbital.model import residual_four
from coorbital.theorems import (
    SOLVERS,
    check_T35,
    equal_shift_condition,
    mirror_shift_condition,
    opposite_pair_condition,
    pair_span_condition,
    solve_T32,
    solve_T33,
    solve_T34,
    solve_T36,
    solve_T37,
)

PI_THIRD = math.pi / 3.0
RESIDUAL_GATE = 1e-9
TABLE_TOL = 5e-4

# roots frozen from this implementation for regression pinning
T32_ROOT = 0.628079487567038
T36_ROOT = 1.4126587823478634


def test_t32_root():
    sol = solve_T32()
    assert sol.exists
    assert abs(sol.config.theta1 - 0.6281) <= TABLE_TOL
    assert abs(sol.config.theta1 - T32_ROOT) < 1e-9
    assert abs(sol.config.theta2 - 0.4191) <= TABLE_TOL
    # the pair straddling the low kernel zero sums to pi/3
    assert abs(sol.config.theta1 + sol.config.theta2 - PI_THIRD) < 1e-12


def test_t32_masses_close_system():
    sol = solve_T32()
    mus = sol.mass_condition.sample.mus
    assert abs(mus[0] * mus[1] - mus[2] * mus[3]) < 1e-12
    assert sol.certificate.max_residual < RESIDUAL_GATE
    res = residual_four(sol.config, sol.mass_condition.sample)
    assert max(abs(r) for r in res) < RESIDUAL_GATE


def test_t32_monotone_consistency_function():
    ts = np.linspace(1e-4, PI_THIRD - 1e-4, 2000)
    vals = [pair_span_condition(t, PI_THIRD) for t in ts]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_t33_square():
    sol = solve_T33()
    assert sol.exists
    for angle in (sol.config.theta1, sol.config.theta2, sol.config.theta4):
        assert abs(angle - math.pi / 2.0) < 1e-12
    assert sol.certificate.max_residual < 1e-12


def test_t33_rejected_mirror_pairs():
    sol = solve_T33()
    assert len(sol.rejected) == 2
    for rej in sol.rejected:
        ratio = rej.evidence["ratio"]
        assert ratio < 0.0
        assert abs(ratio + 1.0) < 1e-9


def test_opposite_pair_value_at_right_angle():
    assert abs(opposite_pair_condition(math.pi / 2) - (4.0 * math.sqrt(2.0) - 16.0)) < 1e-12


def test_t34_mirrors_t32():
    t32 = solve_T32()
    t34 = solve_T34()
    assert t34.exists
    assert abs(t34.config.theta1 - t32.config.theta1) <= 1e-12
    assert abs(t34.config.theta2 - 4.6079) <= TABLE_TOL
    # pair sum at the high kernel zero
    assert abs(t34.config.theta1 + t34.config.theta2 - 5.0 * PI_THIRD) < 1e-12
    assert t34.certificate.max_residual < RESIDUAL_GATE


def test_t35_nonexistence():
    sol = check_T35()
    assert not sol.exists
    cert = sol.certificate
    assert cert.grid_points == 2000
    assert cert.grid_min > 0.0
    assert abs(cert.grid_min - 0.45122432223878856) < 1e-9


def test_t35_spot_values():
    def lhs(t2):
        return f_eval(t2) * f_eval(4.0 * math.pi / 3.0 - t2) + f_eval(PI_THIRD + t2) ** 2

    assert abs(lhs(math.pi / 2) - 0.46385112091637315) < 1e-12
    # at theta2 = pi/3 the expression collapses to f(2*pi/3)^2
    assert abs(lhs(PI_THIRD) - f_eval(2.0 * math.pi / 3.0) ** 2) < 1e-12
    assert lhs(0.2) > 0.0


def test_t36_root_and_masses():
    sol = solve_T36()
    assert sol.exists
    assert abs(sol.config.theta1 - 1.4127) <= TABLE_TOL
    assert abs(sol.config.theta1 - T36_ROOT) < 1e-9
    assert abs(sol.config.theta2 - PI_THIRD) < 1e-12
    assert abs(equal_shift_condition(sol.config.theta1)) < 1e-9
    mus = sol.mass_condition.sample.mus
    assert mus[0] == mus[3] == 1.0
    assert mus[1] == mus[2]
    expected = f_eval(5.0 * PI_THIRD - 2.0 * sol.config.theta1) / (
        2.0 * f_eval(sol.config.theta1)
    )
    assert abs(mus[1] - expected) < 1e-12
    assert sol.certificate.max_residual < RESIDUAL_GATE


def test_t36_rejected_branches():
    sol = solve_T36()
    labels = {r.label: r for r in sol.rejected}
    assert len(labels) == 2
    half = labels["theta2 = pi"]
    assert half.evidence["grid_points"] == 2000
    assert half.evidence["max_product"] < 0.0
    high = labels["theta2 = 5*pi/3"]
    assert high.evidence["max_f_theta1"] < 0.0 < high.evidence["min_f_pair_sum"]


def test_t37_mirrors_t36():
    t36 = solve_T36()
    t37 = solve_T37()
    assert t37.exists
    assert abs(t37.config.theta1 - t36.config.theta1) <= 1e-12
    assert abs(t37.config.theta2 - 2.4106) <= 1e-3
    assert abs(t37.config.theta4 - PI_THIRD) < 1e-12
    assert abs(mirror_shift_condition(t37.config.theta1)) < 1e-9
    mus = t37.mass_condition.sample.mus
    assert mus[1] == mus[2] == 1.0
    assert mus[0] == mus[3]
    assert t37.certificate.max_residual < RESIDUAL_GATE


def test_t37_rejected_branches():
    sol = solve_T37()
    labels = {r.label: r for r in sol.rejected}
    assert set(labels) == {"theta4 = pi", "theta4 = 5*pi/3"}
    assert labels["theta4 = pi"].evidence["max_product"] < 0.0
    assert labels["theta4 = 5*pi/3"].evidence["max_sum"] < 0.0


def test_single_kernel_zero_per_case():
    # at each solution exactly one of the four kernel values vanishes
    for tag, solver in SOLVERS.items():
        sol = solver()
        if not sol.exists:
            continue
        cfg = sol.config
        values = [
            f_eval(cfg.theta1),
            f_eval(cfg.theta2),
            f_eval(cfg.theta4),
            f_eval(cfg.theta1 + cfg.theta2),
        ]
        small = sum(1 for v in values if abs(v) < 1e-9)
        assert small == 1, f"{tag}: {values}"


def _clear_solver_caches():
    build_catalog.cache_clear()
    critical_points.cache_clear()
    for solver in SOLVERS.values():
        solver.cache_clear()


def test_unchecked_kernel_only_sees_in_strip_floats(monkeypatch):
    # theorems evaluates the kernel without kernel.f_eval's domain check;
    # every angle the solvers and the catalog build must be a float in
    # (0, 2*pi)
    seen = []

    def recorder(theta):
        seen.append(theta)
        return backend.f_eval(theta)

    monkeypatch.setattr(theorems, "f_eval", recorder)
    _clear_solver_caches()
    try:
        for solver in SOLVERS.values():
            solver()
        build_catalog()
    finally:
        _clear_solver_caches()
    assert seen
    assert [t for t in seen if type(t) is not float or not 0.0 < t < 2.0 * math.pi] == []


def test_solver_results_cached():
    assert solve_T32() is solve_T32()
    assert check_T35() is check_T35()
