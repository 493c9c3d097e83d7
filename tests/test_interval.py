"""Interval enclosures and the lazy scans and grids they drive.

The enclosures must hold every float the package computes, and the lazy
scans and grids must return what the full 2000-cell scans and
2000-point grids return, bit for bit."""
import math
import random
import sys
from pathlib import Path

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coorbital import backend, catalog, interval, kernel, theorems
from coorbital.bounds import KERNEL_ROUND_K, LIBM_ULPS, TWO_PI
from coorbital.interval import Interval
from coorbital.rootfind import grid_extremum, linspace, scan_brackets

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import oracle  # noqa: E402

# every lazy scan and grid of the case solvers and the catalog, in call
# order; the half-turn grid runs once for T36 and once for T37
LABELS = (
    "T32 scan",
    "T33 scan",
    "T35 grid",
    "T36 scan",
    "T36 max f grid",
    "T36 min f pair-sum grid",
    "T36 half-turn grid",
    "T37 scan",
    "T37 sum grid",
    "T37 half-turn grid",
    "pi/3 line",
    "pi line",
)
# nodes each samples (of 2001 scan nodes or 2000 grid nodes)
SAMPLED = {
    "T32 scan": 32,
    "T33 scan": 58,
    "T35 grid": 469,
    "T36 scan": 23,
    "T36 max f grid": 15,
    "T36 min f pair-sum grid": 16,
    "T36 half-turn grid": 15,
    "T37 scan": 23,
    "T37 sum grid": 109,
    "T37 half-turn grid": 15,
    "pi/3 line": 60,
    "pi line": 23,
}
SCANS = [label for label in LABELS if "grid" not in label]
GRIDS = [label for label in LABELS if "grid" in label]


def _clear_solver_caches():
    catalog.build_catalog.cache_clear()
    kernel.critical_points.cache_clear()
    for solver in theorems.SOLVERS.values():
        solver.cache_clear()


@pytest.fixture(scope="module")
def sites():
    """label -> (fn, args, result, nodes sampled) of each lazy call."""
    recorded = []

    def recorder(module, name):
        real = getattr(module, name)

        def record(fn, *args):
            calls = []

            def counted(t):
                calls.append(t)
                return fn(t)

            result = real(counted, *args)
            recorded.append((fn, args, result, len(calls)))
            return result

        return record

    with pytest.MonkeyPatch.context() as patch:
        for module, name in [
            (theorems, "scan_brackets"), (theorems, "grid_extremum"), (catalog, "scan_brackets")
        ]:
            patch.setattr(module, name, recorder(module, name))
        _clear_solver_caches()
        for call in (theorems.solve_T32, theorems.solve_T33, theorems.check_T35,
                     theorems.solve_T36, theorems.solve_T37, catalog.build_catalog):
            call()
    _clear_solver_caches()
    assert len(recorded) == len(LABELS)
    return dict(zip(LABELS, recorded))


def _bits(result):
    """A scan's brackets or a grid's float, with every float as its hex
    text, so -0.0 and 0.0 differ."""
    if isinstance(result, float):
        return result.hex()
    return [tuple(x.hex() for x in bracket) for bracket in result]


def _full(fn, args):
    """The full scan's brackets or the full grid's extremum."""
    if len(args) == 4:
        lo, hi, n_steps, _ = args
        return scan_brackets(fn, lo, hi, n_steps)
    a, b, n, _, pick = args
    return pick(fn(t) for t in linspace(a, b, n))


def _lazy(fn, args, enclose):
    if len(args) == 4:
        lo, hi, n_steps, _ = args
        return scan_brackets(fn, lo, hi, n_steps, enclose)
    a, b, n, _, pick = args
    return grid_extremum(fn, a, b, n, enclose, pick)


def test_every_site_is_lazy(sites):
    for label in SCANS:
        assert len(sites[label][1]) == 4 and sites[label][1][2] == 2000, label
    for label in GRIDS:
        assert sites[label][1][2] == 2000 and sites[label][1][4] in (max, min), label


def test_lazy_equals_full_at_every_site(sites):
    for label, (fn, args, result, _) in sites.items():
        assert _bits(result) == _bits(_full(fn, args)), label


def test_nodes_sampled_per_site(sites):
    assert {label: site[3] for label, site in sites.items()} == SAMPLED
    assert sum(SAMPLED.values()) == 858


def test_a_narrowed_enclosure_breaks_the_equivalence(sites):
    # the equivalence above has teeth. Each site's own enclosure shrunk to
    # its middle thousandth settles the first box of the two scans that
    # hold two sign changes (its end samples catch one, not two)...
    broken = []
    for label, (fn, args, _, _) in sites.items():

        def narrowed(a, b, enclose=args[3]):
            box = enclose(a, b)
            mid, half = 0.5 * (box.lo + box.hi), 0.0005 * (box.hi - box.lo)
            return Interval(mid - half, mid + half) if math.isfinite(mid + half) else box

        if _bits(_lazy(fn, args, narrowed)) != _bits(_full(fn, args)):
            broken.append(label)
    assert broken == ["T33 scan", "pi/3 line"]
    # ... and a grid bounded by the hull of each box's end values prunes
    # the box that holds a bump between them
    bump = lambda t: 1.0 + math.exp(-(((t - 0.3) / 1e-3) ** 2))
    ends = lambda a, b: Interval(min(bump(a), bump(b)), max(bump(a), bump(b)))
    grid = linspace(0.0, 1.0, 2000)
    assert grid_extremum(bump, 0.0, 1.0, 2000, ends, max) < max(bump(t) for t in grid)


@settings(max_examples=60, deadline=None)
@given(
    label=st.sampled_from(LABELS),
    u=st.floats(0.0, 1.0),
    v=st.floats(0.0, 1.0),
    n=st.integers(2, 3000),
)
@example(label="T33 scan", u=0.0, v=1.0, n=2)
@example(label="T35 grid", u=0.0, v=1.0, n=1)
def test_lazy_equals_full_on_drawn_sub_intervals(sites, label, u, v, n):
    fn, args, _, _ = sites[label]
    lo, hi = args[0], args[1]
    a, b = sorted((lo + u * (hi - lo), lo + v * (hi - lo)))
    if label in GRIDS:
        drawn = (a, b, n, args[3], args[4])
    elif a < b:
        drawn = (a, b, max(n, 2), args[3])
    else:
        return
    assert _bits(_lazy(fn, drawn, drawn[3])) == _bits(_full(fn, drawn))


def _linear(s, r):
    return (lambda x: s * (x - r)), (lambda a, b: s * (Interval(a, b) - r))


@settings(max_examples=150, deadline=None)
@given(
    exponent=st.floats(-13.0, 3.0),
    negative=st.booleans(),
    r=st.floats(-0.5, 1.5),
    lo=st.floats(0.0, 0.5),
    width=st.floats(1e-6, 1.0),
    n=st.integers(2, 2500),
)
# s*(x - r) below RESID_TOL all along: every node is a node root
@example(exponent=-13.0, negative=False, r=0.3, lo=0.0, width=1.0, n=2000)
# runs of node roots around r, with sign changes outside them
@example(exponent=-9.5, negative=True, r=0.3, lo=0.0, width=1.0, n=2000)
@example(exponent=-10.0, negative=False, r=0.5, lo=0.0, width=1.0, n=2000)
# a node exactly at the root
@example(exponent=0.0, negative=False, r=0.5, lo=0.0, width=1.0, n=2000)
def test_lazy_scan_equals_full_on_linear_functions(exponent, negative, r, lo, width, n):
    s = -(10.0 ** exponent) if negative else 10.0 ** exponent
    fn, enclose = _linear(s, r)
    hi = lo + width
    assert _bits(scan_brackets(fn, lo, hi, n, enclose)) == _bits(scan_brackets(fn, lo, hi, n))
    grid = linspace(lo, hi, n)
    for pick in (max, min):
        assert grid_extremum(fn, lo, hi, n, enclose, pick).hex() == pick(fn(t) for t in grid).hex()


def test_a_slope_below_the_node_root_tolerance_still_finds_no_bracket():
    # |1e-9*(x - 0.3)| < RESID_TOL for x within 0.1 of the root, so the
    # nodes around it are node roots and no cell brackets it (ROADMAP item 8)
    fn, enclose = _linear(1e-9, 0.3)
    assert scan_brackets(fn, 0.0, 1.0, 2000, enclose) == []
    assert scan_brackets(fn, 0.0, 1.0, 2000) == []


# ------------------------------------------------------------ soundness


def _near(points):
    return st.tuples(st.sampled_from(points), st.floats(-1e-3, 1e-3)).map(sum)


_ZEROS = (math.pi / 3.0, math.pi, 5.0 * math.pi / 3.0)
_CENTRES = st.one_of(
    st.floats(1e-9, TWO_PI - 1e-9),
    st.floats(-9.0, -1.0).map(lambda e: 10.0 ** e),
    st.floats(-9.0, -1.0).map(lambda e: TWO_PI - 10.0 ** e),
    _near(_ZEROS),
    _near((kernel.critical_points().theta_c, kernel.critical_points().theta_l)),
)


@settings(max_examples=300, deadline=None)
@given(centre=_CENTRES, width=st.floats(-14.0, 0.5).map(lambda e: 10.0 ** e))
@example(centre=1.8910822898493835, width=1e-3)
@example(centre=kernel.critical_points().theta_l, width=1e-12)
def test_kernel_enclosure_holds_every_float_node_value(centre, width):
    a, b = centre - 0.5 * width, centre + 0.5 * width
    a, b = max(a, 1e-12), min(b, TWO_PI - 1e-12)
    if not a < b:
        return
    profile = kernel.critical_points()
    box = interval.kernel(backend.f_eval, profile.theta_c, profile.theta_l)(Interval(a, b))
    for t in linspace(a, b, 97) + [math.nextafter(a, b), math.nextafter(b, a)]:
        assert box.lo <= backend.f_eval(t) <= box.hi, t


_OPERANDS = st.floats(-1e6, 1e6).flatmap(
    lambda x: st.tuples(st.just(x), st.floats(0.0, 1e3).map(lambda w: x + w))
).filter(lambda ab: math.isfinite(ab[1]))


def _inside(a, b, u):
    """A float of [a, b]: a at u = 0, b at u = 1, a point between otherwise."""
    if u in (0.0, 1.0):
        return b if u else a
    return min(max(a + u * (b - a), a), b)


@settings(max_examples=300, deadline=None)
@given(xs=_OPERANDS, ys=_OPERANDS, u=st.floats(0.0, 1.0), v=st.floats(0.0, 1.0))
@example(xs=(-1e-300, 1e-300), ys=(3.0, 3.0), u=1.0, v=0.0)
@example(xs=(0.1, 0.1), ys=(0.2, 0.2), u=0.0, v=0.0)
def test_every_operation_holds_its_float_results(xs, ys, u, v):
    X, Y = Interval(*xs), Interval(*ys)
    x, y = _inside(*xs, u), _inside(*ys, v)
    results = [
        (X + Y, x + y), (X + y, x + y), (y + X, y + x),
        (X - Y, x - y), (X - y, x - y), (y - X, y - x),
        (X * Y, x * y), (X * y, x * y), (y * X, y * x),
        (X * X, x * x), (X ** 2, x ** 2), (abs(X), abs(x)),
        (interval.sin(X), math.sin(x)), (interval.cos(X), math.cos(x)),
    ]
    if not (xs[0] <= 0.0 <= xs[1]):
        results.append((y / X, y / x))
    for box, value in results:
        assert box.lo <= value <= box.hi, (box, value)


def test_a_product_with_an_undefined_corner_is_the_whole_line():
    whole = Interval(0.0, 1.0) * Interval(-math.inf, math.inf)
    assert (whole.lo, whole.hi) == (-math.inf, math.inf)
    reciprocal = 1.0 / Interval(-1.0, 1.0)
    assert (reciprocal.lo, reciprocal.hi) == (-math.inf, math.inf)


# ------------------------------------------------------------ trust


def _samples(count, seed):
    rng = random.Random(seed)
    points = [rng.uniform(1e-9, TWO_PI - 1e-9) for _ in range(count)]
    points += [10.0 ** rng.uniform(-9.0, 0.0) for _ in range(count // 4)]
    points += [TWO_PI - 10.0 ** rng.uniform(-9.0, 0.0) for _ in range(count // 4)]
    profile = kernel.critical_points()
    for z in _ZEROS + (profile.theta_c, profile.theta_l):
        points += [z + rng.uniform(-1e-3, 1e-3) for _ in range(count // 8)]
    return points


def test_kernel_rounding_bound_covers_two_evaluations_against_mpmath():
    # one float evaluation of f errs by at most 6.5*eps*(|f| + 1) in
    # theory; KERNEL_ROUND_K covers two and stays within a factor 8 of
    # twice the worst error seen against 40-digit mpmath
    eps = math.ulp(1.0)
    worst = 0.0
    with mpmath.workdps(40):
        for t in _samples(4000, 28):
            ref = oracle.mp_f(mpmath.mpf(t))
            error = abs(mpmath.mpf(backend.f_eval(t)) - ref) / (abs(ref) + 1)
            worst = max(worst, float(error) / eps)
    assert 0.5 < worst <= 6.5
    assert 2.0 * worst <= KERNEL_ROUND_K <= 8.0 * worst


@pytest.mark.parametrize("name", ["sin", "cos"])
def test_libm_is_within_its_trusted_ulps(name):
    worst = 0.0
    with mpmath.workdps(40):
        for t in _samples(4000, 29):
            ref = getattr(mpmath, name)(mpmath.mpf(t))
            got = getattr(math, name)(t)
            worst = max(worst, float(abs(mpmath.mpf(got) - ref)) / math.ulp(got))
    assert worst <= LIBM_ULPS
