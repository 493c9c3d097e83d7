"""Special-point catalog: recomputed coordinates and degeneracy flags."""
import dataclasses
import math

import pytest

from coorbital import catalog, curve, theorems
from coorbital.catalog import CATALOG_TOL, REFERENCE, build_catalog
from coorbital.curve import r_diff_pole
from coorbital.exceptions import CatalogMismatchError, ConsistencyError
from coorbital.theorems import (
    SOLVERS,
    opposite_pair_condition,
    solve_T32,
    solve_T33,
)
from coorbital.rootfind import bracket_root, scan_brackets

LABELS = ("A", "B", "C", "D", "E", "F_pt", "G", "H", "J", "K", "L", "M")

# interior points recomputed exactly by this implementation
FROZEN_E = 0.8167327890610191
FROZEN_F = 0.8413057783215956


def test_all_points_present_and_close():
    cat = build_catalog()
    assert tuple(p.label for p in cat.points) == LABELS
    for p in cat.points:
        assert p.delta < CATALOG_TOL, p.label
        assert p.degenerate


def test_reference_coordinates_cover_labels():
    assert set(REFERENCE) == set(LABELS)


def test_degenerate_kernel_values():
    cat = build_catalog()
    vanishing = {p.label: p.vanishing for p in cat.points}
    assert vanishing["J"] == "f(theta1+theta2)"
    assert vanishing["K"] == "f(theta1+theta2)"
    assert vanishing["L"] == "f(theta1+theta2)"
    assert vanishing["M"] == "f(theta4)"


def test_theorem_tags():
    cat = build_catalog()
    tags = {p.label: p.theorem_tag for p in cat.points}
    assert tags["A"] == "T36"
    assert tags["J"] == "T32"
    assert tags["K"] == "T33"
    assert tags["L"] == "T34"
    assert tags["M"] == "T37"
    assert tags["B"] is None


def test_square_point_exact():
    k = build_catalog().by_label("K")
    assert k.theta1 == math.pi / 2.0
    assert k.theta2 == math.pi / 2.0
    assert k.delta == 0.0


def test_interior_roots_frozen():
    cat = build_catalog()
    assert abs(cat.by_label("E").theta1 - FROZEN_E) < 1e-9
    assert abs(cat.by_label("F_pt").theta1 - FROZEN_F) < 1e-9


def test_half_turn_point_matches_mirror_pair_root():
    # the boundary point on the half-turn line coincides with the
    # smaller root of the mirrored-pair mass equation
    found = scan_brackets(opposite_pair_condition, 1e-9, math.pi - 1e-9, 2000)
    root = bracket_root(opposite_pair_condition, found[0], width_tol=1e-14).root
    assert abs(build_catalog().by_label("F_pt").theta1 - root) < 1e-9


def test_reflection_relation():
    cat = build_catalog()
    e = cat.by_label("E")
    g = cat.by_label("G")
    assert g.theta1 == e.theta1
    assert abs(g.theta2 - (2.0 * math.pi - 2.0 * e.theta1 - e.theta2)) < 1e-12
    # theta4 at G equals theta2 at E, both exactly pi/3
    theta4 = 2.0 * math.pi - 2.0 * g.theta1 - g.theta2
    assert abs(theta4 - math.pi / 3.0) < 1e-12


def test_interior_points_match_solvers():
    cat = build_catalog()
    tagged = [p for p in cat.points if p.theorem_tag is not None]
    assert [p.label for p in tagged] == ["A", "J", "K", "L", "M"]
    for p in tagged:
        config = SOLVERS[p.theorem_tag]().config
        assert (p.theta1, p.theta2) == (config.theta1, config.theta2), p.label


def test_collision_edge_limits():
    cat = build_catalog()
    # analytic limits of the curve at the collision edges
    assert abs(cat.by_label("B").theta1 - math.pi / 2.0) < 5e-4
    assert abs(cat.by_label("C").theta1 - math.pi / 2.0) < 5e-4
    assert abs(cat.by_label("D").theta1 - math.pi / 6.0) < 5e-4
    assert abs(cat.by_label("H").theta1 - math.pi / 6.0) < 5e-4


def test_catalog_cached():
    assert build_catalog() is build_catalog()


def test_mismatch_error_type():
    import coorbital
    from coorbital.exceptions import CoorbitalError

    assert coorbital.CatalogMismatchError is CatalogMismatchError
    assert issubclass(CatalogMismatchError, CoorbitalError)


def _clear_solver_caches():
    build_catalog.cache_clear()
    for solver in SOLVERS.values():
        solver.cache_clear()


@pytest.fixture
def fresh_caches():
    _clear_solver_caches()
    yield
    _clear_solver_caches()


@pytest.mark.parametrize(
    "module, call, match",
    [
        (catalog, build_catalog, "theta2=pi/3 line"),
        (catalog, lambda: catalog._edge_limit("C"), "endpoint C"),
        (theorems, solve_T32, "T32"),
        (theorems, solve_T33, "T33 mirrored pair"),
        (curve, r_diff_pole, "r_diff pole"),
    ],
    ids=["scan_line", "root_between", "single_root", "mirrored_pair", "r_diff_pole"],
)
def test_unconverged_refinement_raises(monkeypatch, fresh_caches, module, call, match):
    real = module.bracket_root

    def unconverged(fn, bracket, **kwargs):
        result = real(fn, bracket, **kwargs)
        # r_diff_pole's inner line scans must still succeed
        if module is curve and fn.__name__ != "f4_on_branch":
            return result
        return dataclasses.replace(result, converged=False)

    monkeypatch.setattr(module, "bracket_root", unconverged)
    with pytest.raises(ConsistencyError, match=match):
        call()
