"""The kernel functions run with numpy against the same functions run
with math, and vectorized bracket extraction against the plain loop it
replaced."""
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import coorbital
from coorbital import backend, kernel
from coorbital.cli import KERNEL_GRID_DELTA
from coorbital.curve import EDGE_INSET, SCAN_CELLS
from coorbital.rootfind import RESID_TOL, Bracket, brackets_from_values

import table_data


def test_backend_name_is_known():
    assert coorbital.BACKEND == backend.BACKEND == "numpy"


def test_scalar_kernel_values():
    assert abs(backend.f_eval(math.pi / 2) - 0.6464466094067262) < 1e-14
    assert abs(backend.f_prime(math.pi) + 7.0 / 8.0) < 1e-12


def test_curve_scan_bit_identical_to_scalar_on_reference_grids():
    # Exact equality, no tolerance: trace output depends on every scanned
    # node matching curve_eval. A numpy build whose float64 sin/cos round
    # differently from libm fails here rather than drifting silently.
    grids = table_data.GRID_D1 + table_data.GRID_D2 + table_data.GRID_D3
    for theta2 in grids:
        lo, hi = EDGE_INSET, math.pi - 0.5 * theta2 - EDGE_INSET
        got = backend.curve_scan(theta2, lo, hi, SCAN_CELLS)
        assert isinstance(got, np.ndarray) and got.dtype == np.float64
        step = (hi - lo) / SCAN_CELLS
        want = [backend.curve_eval(lo + k * step, theta2) for k in range(SCAN_CELLS + 1)]
        bad = [k for k, (a, b) in enumerate(zip(got.tolist(), want)) if a != b]
        assert len(got) == len(want) and not bad, (
            f"numpy curve_scan differs from scalar curve_eval at theta2={theta2!r} "
            f"on {len(bad)} nodes, first k={bad[:1]}: numpy sin/cos do not "
            f"round like math.sin/math.cos on this platform"
        )


# (name, public function, numpy path, math path)
KERNEL_TWINS = [
    ("f", kernel.f_eval, lambda x: backend.f_eval(x, np), backend.f_eval),
    ("f'", kernel.f_prime, lambda x: backend.f_prime(x, np), backend.f_prime),
    ("f''", kernel.f_double_prime, lambda x: backend.f_double_prime(x, np), backend.f_double_prime),
]


def assert_array_twins_match_scalar(theta):
    # Exact equality, as for curve_scan: the kernel table is written from
    # the arrays, and its bytes must equal the scalar values at every node.
    nodes = theta.tolist()
    for name, public, twin, scalar in KERNEL_TWINS:
        want = [scalar(t) for t in nodes]
        # near 0 the pole overflows to inf, which the public path keeps quiet
        with np.errstate(divide="ignore", over="ignore"):
            direct = twin(theta)
        for got in (direct, public(theta)):
            assert isinstance(got, np.ndarray) and got.dtype == np.float64
            bad = [k for k, (a, b) in enumerate(zip(got.tolist(), want)) if a != b]
            assert got.shape == theta.shape and not bad, (
                f"numpy {name} differs from the scalar {name} on {len(bad)} of "
                f"{len(nodes)} nodes, first at theta={nodes[bad[0]]!r}: numpy "
                f"sin/cos do not round like math.sin/math.cos on this platform"
            )


def test_kernel_twins_bit_identical_to_scalar_on_kernel_table_grid():
    # every node of `coorbital kernel --steps 100000`
    n = 100000
    step = (backend.TWO_PI - 2.0 * KERNEL_GRID_DELTA) / n
    assert_array_twins_match_scalar(KERNEL_GRID_DELTA + np.arange(n) * step)


EDGE_ANGLES = [
    1e-4,
    math.nextafter(math.pi, 0.0),
    math.pi,
    math.nextafter(math.pi, 4.0),
    backend.TWO_PI - 1e-4,
    5e-324,
    math.nextafter(backend.TWO_PI, 0.0),
]
ANGLE = st.one_of(
    st.sampled_from(EDGE_ANGLES),
    st.floats(0.0, backend.TWO_PI, exclude_min=True, exclude_max=True),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(ANGLE, min_size=1, max_size=64))
def test_kernel_twins_bit_identical_to_scalar_on_random_arrays(angles):
    assert_array_twins_match_scalar(np.array(angles, dtype=np.float64))


def loop_brackets(lo, hi, values, resid_tol=RESID_TOL):
    """Reference: the element-by-element loop brackets_from_values replaced."""
    n_cells = len(values) - 1
    if n_cells < 1:
        return []
    step = (hi - lo) / n_cells
    node_root = [abs(v) < resid_tol for v in values]
    out = []
    for i in range(n_cells):
        if node_root[i]:
            if 0 < i and not node_root[i - 1] and i + 1 <= n_cells and not node_root[i + 1]:
                v_prev, v_next = values[i - 1], values[i + 1]
                if v_prev * v_next < 0.0:
                    out.append(Bracket(lo + (i - 1) * step, lo + (i + 1) * step, v_prev, v_next))
            continue
        if node_root[i + 1]:
            continue
        if values[i] * values[i + 1] < 0.0:
            out.append(Bracket(lo + i * step, lo + (i + 1) * step, values[i], values[i + 1]))
    return out


# Exact zeros, values either side of the node-root threshold, and tiny
# values whose products underflow; runs of them give adjacent root nodes.
SPECIAL = st.sampled_from(
    [0.0, -0.0, 5e-11, -5e-11, 1e-10, -1e-10, 2e-10, -2e-10, 1e-200, -1e-200]
)
VALUE = st.one_of(SPECIAL, st.floats(-2.0, 2.0, allow_nan=False))


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(VALUE, min_size=0, max_size=40),
    lo=st.floats(-3.0, 3.0),
    width=st.floats(1e-3, 5.0),
)
def test_vectorized_brackets_match_loop(values, lo, width):
    hi = lo + width
    want = loop_brackets(lo, hi, values)
    for given_values in (values, np.array(values, dtype=np.float64)):
        got = brackets_from_values(lo, hi, given_values)
        assert got == want
        for br in got:
            assert all(type(x) is float for x in (br.lo, br.hi, br.f_lo, br.f_hi))


def test_vectorized_brackets_edge_cases():
    # root nodes at both ends, a lone interior root node, two adjacent
    # root nodes, and a plain sign change
    values = [0.0, 1.0, 1e-12, -1.0, 0.0, 0.0, 1.0, -1.0, 1e-11]
    got = brackets_from_values(0.0, 8.0, np.array(values))
    assert got == loop_brackets(0.0, 8.0, values)
    assert [(b.lo, b.hi) for b in got] == [(1.0, 3.0), (6.0, 7.0)]
