"""Special-point catalog: recomputed coordinates and degeneracy flags."""
import math
import re

import pytest

from coorbital import backend, catalog, cli, curve, kernel, theorems
from coorbital.bounds import ENDPOINT_OFFSETS, FIVE_PI_THIRD, RESIDUAL_GATE, SQUARE_RESIDUAL_GATE
from coorbital.catalog import CATALOG_TOL, REFERENCE, build_catalog
from coorbital.curve import r_diff_pole
from coorbital.exceptions import CatalogMismatchError, ConsistencyError
from coorbital.model import SymmetricConfig
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


def test_unknown_label_raises_key_error():
    with pytest.raises(KeyError, match="^'F'$"):
        build_catalog().by_label("F")


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
    kernel.critical_points.cache_clear()
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
        return result._replace(converged=False)

    monkeypatch.setattr(module, "bracket_root", unconverged)
    with pytest.raises(ConsistencyError, match=match):
        call()


def test_reference_moved_past_the_catalog_tolerance_exits_5(monkeypatch, capsys, fresh_caches):
    (ref1, ref2), *rest = catalog.POINTS["E"]
    monkeypatch.setitem(catalog.POINTS, "E", ((ref1 + 2e-3, ref2), *rest))
    assert cli.main(["special-points"]) == 5
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: point E: recomputed (0.816733, 1.047198) is ")
    assert err.count("\n") == 1


def test_T36_root_off_the_pi_third_crossing_exits_3(monkeypatch, capsys, fresh_caches):
    # the catalog's upper crossing on the theta2 = pi/3 line must be T36's root
    solution = theorems.solve_T36()
    theta1, theta2 = solution.config.theta1 + 1e-6, solution.config.theta2
    moved = solution._replace(config=SymmetricConfig.from_pair(theta1, theta2))
    monkeypatch.setattr(catalog, "solve_T36", lambda: moved)
    assert cli.main(["special-points"]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: theta2=pi/3 upper crossing disagrees with the T36 root\n"


def _gate_exits_3(call, argv, capsys, message):
    with pytest.raises(ConsistencyError, match=f"^{re.escape(message)}$"):
        call()
    assert cli.main(argv) == 3
    assert capsys.readouterr() == ("", f"error: {message}\n")


# the first node of every certificate band on (0, hi), and the last of
# the half-turn product band on (0, pi/2)
LOW_NODE = theorems._band(0.0, math.pi / 6.0)[0]
HALF_TURN_TOP = theorems._band(0.0, 0.5 * math.pi)[-1]


@pytest.mark.parametrize(
    "tag, flipped_at, message",
    [
        # ratio f(theta1)/f(pi - theta1) of the first mirrored-pair root
        ("T33", lambda s: [math.pi - s.rejected[0].evidence["theta1"]],
         "T33: mirrored-pair root has a positive mass ratio"),
        # m = f(theta4) / (2*f(theta1))
        ("T36", lambda s: [s.config.theta4], "T36: sample masses are not positive"),
        # m = f(theta2) / (2*f(theta1))
        ("T37", lambda s: [s.config.theta2], "T37: sample masses are not positive"),
        # ratio f(theta2)/f(theta1); the root scan reads f(theta1) only squared
        pytest.param("T32", lambda s: [s.config.theta1], "T32: mass ratio is not positive",
                     id="T32-pair-sum-ratio"),
        # f(t)*f(pi - 2*t) at the top node of the (0, pi/2) band
        pytest.param("T36", lambda s: [HALF_TURN_TOP],
                     "T36: half-turn product grid found a sign change", id="T36-half-turn"),
        pytest.param("T37", lambda s: [HALF_TURN_TOP],
                     "T37: half-turn product grid found a sign change", id="T37-half-turn"),
        # f(t)*f(4*pi/3 - t) + f(pi/3 + t)^2 at the first node, where f(t) diverges
        pytest.param("T35", lambda s: [LOW_NODE],
                     "T35: solvability grid found a non-positive value", id="T35-grid-min"),
        # max f(t) and min f(t + 5*pi/3) over the (0, pi/6) band
        pytest.param("T36", lambda s: [LOW_NODE],
                     "T36: high-zero rejection grid found a sign change", id="T36-max-f-theta1"),
        pytest.param("T36", lambda s: [LOW_NODE + FIVE_PI_THIRD],
                     "T36: high-zero rejection grid found a sign change", id="T36-min-f-pair-sum"),
        # max f(pi/3 - t) + f(t) over the (0, pi/6) band
        pytest.param("T37", lambda s: [LOW_NODE],
                     "T37: high-zero rejection grid found a sign change", id="T37-max-sum"),
    ],
)
def test_case_sign_gate_exits_3(monkeypatch, capsys, fresh_caches, tag, flipped_at, message):
    # the kernel the solver sees changes sign only at the angles its gate
    # reads, so the roots are found as before and the gate fires
    angles = set(flipped_at(SOLVERS[tag]()))
    _clear_solver_caches()
    real = theorems.f_eval
    monkeypatch.setattr(theorems, "f_eval", lambda t: -real(t) if t in angles else real(t))
    _gate_exits_3(SOLVERS[tag], ["theorem", "--tag", tag], capsys, message)


def test_catalog_line_crossing_count_exits_3(monkeypatch, capsys, fresh_caches):
    # the theta2 = pi/3 line's scan loses its upper crossing
    real = catalog.scan_brackets
    monkeypatch.setattr(catalog, "scan_brackets", lambda *args: real(*args)[:-1])
    message = f"theta2=pi/3 line: expected 2 curve crossings at theta2={math.pi / 3.0}, found 1"
    _gate_exits_3(build_catalog, ["special-points"], capsys, message)


def test_catalog_endpoint_bracket_without_sign_change_exits_3(monkeypatch, capsys, fresh_caches):
    # C's first line is theta2 = h with the bracket (1.2, 1.8); C keeps
    # one sign across it once its value at the top end is flipped
    h = ENDPOINT_OFFSETS[0]
    real = backend.curve_eval
    monkeypatch.setattr(
        backend, "curve_eval",
        lambda t, theta2: -real(t, theta2) if (t, theta2) == (1.8, h) else real(t, theta2),
    )
    message = f"endpoint C: no sign change on (1.2, 1.8) at theta2={h}"
    _gate_exits_3(build_catalog, ["special-points"], capsys, message)


@pytest.mark.parametrize(
    "tag, message",
    [
        ("T32", f"T32: expected 1 sign change(s) on (0.0, {math.pi / 3.0}), found 0"),
        ("T33", f"T33 mirrored pair: expected 2 sign change(s) on (0.0, {math.pi}), found 1"),
    ],
)
def test_case_root_count_exits_3(monkeypatch, capsys, fresh_caches, tag, message):
    # the case scan loses its last sign change
    real = theorems.scan_brackets
    monkeypatch.setattr(theorems, "scan_brackets", lambda *args: real(*args)[:-1])
    _gate_exits_3(SOLVERS[tag], ["theorem", "--tag", tag], capsys, message)


@pytest.mark.parametrize("tag, gate", [("T32", RESIDUAL_GATE), ("T33", SQUARE_RESIDUAL_GATE)])
def test_back_substitution_residual_at_its_gate_exits_3(
    monkeypatch, capsys, fresh_caches, tag, gate
):
    # a residual equal to the gate already fails it
    monkeypatch.setattr(theorems, "residual_four", lambda config, sample: [0.0, -gate, 0.0, 0.0])
    message = f"{tag}: back-substitution residual {gate} >= {gate}"
    _gate_exits_3(SOLVERS[tag], ["theorem", "--tag", tag], capsys, message)


def test_critical_points_need_a_sign_change_of_the_derivative(monkeypatch, fresh_caches):
    real = backend.f_prime
    monkeypatch.setattr(backend, "f_prime", lambda t: abs(real(t)))
    with pytest.raises(ConsistencyError, match=r"derivative does not change sign on \[3\*pi/5"):
        kernel.critical_points()
