"""Bracketed root finder and scan utilities."""
import ast
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from coorbital import rootfind
from coorbital.bounds import GRID_INSET, GRID_POINTS
from coorbital.curve import r_diff_pole
from coorbital.exceptions import NoSignChangeError
from coorbital.kernel import critical_points, f_prime
from coorbital.rootfind import (
    Bracket,
    bracket_root,
    brackets_from_values,
    linspace,
    scan_brackets,
)
from coorbital.theorems import opposite_pair_condition

ROOT_TOL = 1e-12


def test_linear_hits_exact_zero():
    fn = lambda x: x - 1.0
    res = bracket_root(fn, Bracket(0.0, 3.0, fn(0.0), fn(3.0)))
    assert res.root == 1.0
    assert res.residual == 0.0
    assert res.iterations <= 2
    assert res.converged


def test_sqrt_two():
    fn = lambda x: x * x - 2.0
    res = bracket_root(fn, Bracket(1.0, 2.0, fn(1.0), fn(2.0)))
    assert res.converged
    assert abs(res.root - math.sqrt(2.0)) <= ROOT_TOL


def test_agrees_with_critical_point():
    found = scan_brackets(f_prime, 3.0 * math.pi / 5.0, 2.0 * math.pi / 3.0, 50)
    assert len(found) == 1
    res = bracket_root(f_prime, found[0], width_tol=1e-14)
    assert abs(res.root - critical_points().theta_c) < 1e-12


def test_rejects_no_sign_change():
    with pytest.raises(NoSignChangeError):
        bracket_root(lambda x: x, Bracket(1.0, 2.0, 1.0, 2.0))
    with pytest.raises(NoSignChangeError):
        bracket_root(lambda x: x, Bracket(2.0, 1.0, -1.0, 1.0))


def test_rejects_bad_tolerances():
    fn = lambda x: x
    br = Bracket(-1.0, 1.0, -1.0, 1.0)
    with pytest.raises(ValueError):
        bracket_root(fn, br, width_tol=0.0)
    with pytest.raises(ValueError):
        bracket_root(fn, br, resid_tol=-1.0)
    with pytest.raises(ValueError):
        bracket_root(fn, br, width_tol=math.nan)
    with pytest.raises(ValueError):
        bracket_root(fn, br, resid_tol=math.nan)
    with pytest.raises(ValueError):
        bracket_root(fn, br, max_iter=0)
    with pytest.raises(ValueError):
        bracket_root(fn, br, width_tol=math.inf)
    with pytest.raises(ValueError):
        bracket_root(fn, br, resid_tol=math.inf)
    with pytest.raises(ValueError):
        bracket_root(fn, br, width_tol=True)
    with pytest.raises(ValueError):
        bracket_root(fn, br, max_iter=2.5)
    with pytest.raises(ValueError):
        bracket_root(fn, br, max_iter=True)
    with pytest.raises(ValueError):
        scan_brackets(math.sin, 1.0, 2.0, 2.5)
    # a boolean width reaches bracket_root through the curve's line roots
    with pytest.raises(ValueError):
        r_diff_pole(2.4, 2.5, True)


def test_nan_step_raises_instead_of_moving_the_bracket():
    # the secant's first step lands on 0.5, inside the NaN window; taking
    # NaN as a same-sign value would make 0.5 the new lo and report a
    # "root" near 0.875
    fn = lambda t: math.nan if 0.2 < t < 0.8 else t - 0.5
    with pytest.raises(NoSignChangeError, match="NaN at x = 0.5"):
        bracket_root(fn, Bracket(0.0, 1.0, -0.5, 0.5))


def test_exhaustion_reports_not_converged():
    fn = lambda x: x * x - 2.0
    res = bracket_root(
        fn, Bracket(0.0, 2.0, fn(0.0), fn(2.0)), width_tol=1e-30, max_iter=3
    )
    assert not res.converged
    assert res.iterations == 3


def test_exhaustion_accepts_small_residual():
    fn = lambda x: x * x - 2.0
    res = bracket_root(
        fn,
        Bracket(0.0, 2.0, fn(0.0), fn(2.0)),
        width_tol=1e-30,
        resid_tol=10.0,
        max_iter=3,
    )
    assert res.converged


def test_scan_finds_single_sine_zero():
    found = scan_brackets(math.sin, 0.1, 0.9 * 2.0 * math.pi, 100)
    assert len(found) == 1
    assert found[0].lo < math.pi < found[0].hi


def test_scan_finds_no_zero():
    assert scan_brackets(lambda x: 1.0 + x * x, -3.0, 3.0, 100) == []


def test_scan_rejects_bad_interval():
    with pytest.raises(ValueError):
        scan_brackets(math.sin, 2.0, 1.0, 10)
    with pytest.raises(ValueError):
        scan_brackets(math.sin, 1.0, 2.0, 1)


BAD_INTERVALS = pytest.mark.parametrize(
    "lo, hi",
    [(1.0, math.nan), (math.nan, 1.0), (2.0, 1.0), (1.0, 1.0), (0.0, math.inf), (-math.inf, 0.0),
     (True, 4.0), (0.0, True)],
    ids=["nan-hi", "nan-lo", "reversed", "empty", "inf-hi", "inf-lo", "bool-lo", "bool-hi"],
)


@BAD_INTERVALS
def test_brackets_from_values_rejects_bad_interval(lo, hi):
    with pytest.raises(ValueError, match="finite lo < hi"):
        brackets_from_values(lo, hi, [1.0, -1.0])


@BAD_INTERVALS
def test_scan_rejects_bad_interval_before_sampling(lo, hi):
    calls = []
    with pytest.raises(ValueError, match="finite lo < hi"):
        scan_brackets(lambda x: calls.append(x) or math.sin(x), lo, hi, 10)
    assert calls == []


def test_opposite_pair_condition_has_two_roots():
    found = scan_brackets(opposite_pair_condition, 1e-9, math.pi - 1e-9, 2000)
    assert len(found) == 2
    roots = [bracket_root(opposite_pair_condition, b).root for b in found]
    assert roots[0] < math.pi / 2.0 < roots[1]
    # the pair mirrors across pi/2
    assert abs(roots[0] + roots[1] - math.pi) < 1e-9


def test_node_zero_yields_spanning_bracket():
    # values land exactly on a node zero; the two touching cells must
    # collapse into one spanning bracket, not two half-brackets
    fn = lambda x: x - 0.5
    values = [fn(0.0), fn(0.5), fn(1.0)]
    found = brackets_from_values(0.0, 1.0, values, 1e-10)
    assert len(found) == 1
    assert (found[0].lo, found[0].hi) == (0.0, 1.0)
    res = bracket_root(fn, found[0])
    assert abs(res.root - 0.5) <= ROOT_TOL


def test_sign_change_of_tiny_values_is_found():
    # values near 1e-200 multiply to 0.0, so a product test misses their
    # sign change; comparing signs does not
    fn = lambda x: 1e-200 * (x - 0.3)
    res = bracket_root(fn, Bracket(0.0, 1.0, fn(0.0), fn(1.0)))
    assert res.converged
    assert abs(res.root - 0.3) <= ROOT_TOL
    values = [fn(k / 4.0) for k in range(5)]
    for samples in (values, np.array(values)):
        found = brackets_from_values(0.0, 1.0, samples, resid_tol=0.0)
        assert [(b.lo, b.hi, b.f_lo, b.f_hi) for b in found] == [
            (0.25, 0.5, values[1], values[2])
        ]


def test_deterministic_reruns():
    fn = lambda x: math.cos(x) - x
    first = bracket_root(fn, Bracket(0.0, 1.0, fn(0.0), fn(1.0)))
    second = bracket_root(fn, Bracket(0.0, 1.0, fn(0.0), fn(1.0)))
    assert first == second


@settings(max_examples=25, deadline=None)
@given(
    a=st.floats(min_value=0.0, max_value=5.0),
    b=st.floats(min_value=-5.0, max_value=5.0),
)
def test_monotone_cubic_root_stays_bracketed(a, b):
    fn = lambda x: x ** 3 + a * x + b
    res = bracket_root(fn, Bracket(-10.0, 10.0, fn(-10.0), fn(10.0)))
    assert res.converged
    assert -10.0 <= res.root <= 10.0
    assert abs(fn(res.root)) < 1e-8


def _package_attributes(attr):
    """(module file name, line) of every `.attr` in the package's source."""
    package = Path(rootfind.__file__).resolve().parent
    return {
        (path.name, node.lineno)
        for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == attr
    }


def test_only_rootfind_reads_converged():
    # every other module reads a refinement's flag through converged_root
    readers = _package_attributes("converged")
    assert {name for name, _ in readers} == {"rootfind.py"}, sorted(readers)


SPANS = st.floats(-1e6, 1e6) | st.floats(-1e-320, 1e-320)


@settings(max_examples=300, deadline=None)
@given(a=SPANS, b=SPANS, n=st.sampled_from([1, 2, 3, 2000]) | st.integers(1, 20000))
# the three bands the certificate grids sample
@example(a=GRID_INSET, b=0.5 * math.pi - GRID_INSET, n=GRID_POINTS)
@example(a=GRID_INSET, b=4.0 * math.pi / 3.0 - GRID_INSET, n=GRID_POINTS)
@example(a=GRID_INSET, b=math.pi / 6.0 - GRID_INSET, n=GRID_POINTS)
# numpy's step underflows to zero here
@example(a=5e-324, b=1e-323, n=1000)
def test_linspace_is_numpy_linspace_bit_for_bit(a, b, n):
    got = linspace(a, b, n)
    assert all(type(x) is float for x in got)
    assert [x.hex() for x in got] == [x.hex() for x in np.linspace(a, b, n).tolist()]


def test_no_module_calls_numpy_linspace():
    # every evenly spaced grid comes from rootfind.linspace
    assert _package_attributes("linspace") == set()


D4_PROBE = """
import sys
from coorbital.curve import d4_region_count
print(d4_region_count(5), "numpy" in sys.modules)
"""


def test_d4_region_count_loads_no_numpy():
    out = subprocess.run([sys.executable, "-c", D4_PROBE], capture_output=True, text=True)
    assert (out.returncode, out.stdout) == (0, "0 False\n"), out.stderr
