"""Ring model: residuals, mass matrix, null-space mass recovery."""
import math
import random
import re
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from coorbital import backend, model
from coorbital.curve import curve_eval, trace_curve
from coorbital.exceptions import (
    AngleDomainError,
    MassDomainError,
    RankDeficiencyAbsentError,
)
from coorbital.bounds import COLLISION_TOL
from coorbital.kernel import f_eval
from coorbital.model import (
    AngleConfig,
    MassMatrix,
    MassVector,
    SymmetricConfig,
    coefficient_matrix,
    mass_matrix,
    positive_null_masses,
    residual_four,
    residual_general,
)
from rings import closed_gaps, jittered_gaps, periodic_gaps

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


NOT_REAL = [True, np.bool_(True), "1.0", np.array(True)]
NOT_REAL_IDS = ["bool", "np.bool_", "str", "bool-0d-array"]


@pytest.mark.parametrize("bad", NOT_REAL, ids=NOT_REAL_IDS)
def test_types_refuse_booleans_and_strings(bad):
    quarter = math.pi / 2
    with pytest.raises(AngleDomainError, match="not a real number"):
        AngleConfig((bad, quarter, quarter, quarter))
    with pytest.raises(AngleDomainError, match="not a real number"):
        SymmetricConfig.from_pair(bad, 1.0)
    with pytest.raises(AngleDomainError, match="not a real number"):
        SymmetricConfig.from_pair(1.0, bad)
    with pytest.raises(AngleDomainError, match="not a real number"):
        SymmetricConfig(1.0, bad, TWO_PI - 3.0)
    with pytest.raises(MassDomainError, match="not a real number"):
        MassVector((bad, 1, 1, 1))


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: f_eval(1j), AngleDomainError, "not a real number"),
        (lambda: f_eval(None), AngleDomainError, "not a real number"),
        (lambda: MassVector((None,)), MassDomainError, "not a real number"),
        (lambda: AngleConfig((1j, 1.0, 1.0)), AngleDomainError, "not a real number"),
        (lambda: SymmetricConfig.from_pair(None, 1.0), AngleDomainError, "not a real number"),
        (lambda: trace_curve("D2", [1j]), AngleDomainError, "not a real number"),
        (lambda: f_eval(10**400), AngleDomainError, "too large for a float"),
        (lambda: MassVector((10**400,)), MassDomainError, "too large for a float"),
        (lambda: trace_curve("D2", [10**400]), AngleDomainError, "too large for a float"),
    ],
    ids=["f_eval-complex", "f_eval-None", "MassVector-None", "AngleConfig-complex",
         "from_pair-None", "trace_curve-complex", "f_eval-huge-int", "MassVector-huge-int",
         "trace_curve-huge-int"],
)
def test_non_real_and_overflowing_values_raise_domain_errors(call, error, message):
    # float() raises TypeError or OverflowError on these; the API promises
    # its own domain errors instead
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: AngleConfig((math.pi, math.pi)), AngleDomainError,
         "ring needs at least 3 gaps"),
        (lambda: MassVector(()), MassDomainError, "mass vector must be non-empty"),
        (lambda: SymmetricConfig(1.0, 1.0, 1.0), AngleDomainError,
         "2*theta1 + theta2 + theta4 must equal 2*pi"),
        (lambda: residual_four(SymmetricConfig.from_pair(0.7, 0.5), MassVector((1.0,) * 3)),
         MassDomainError, "symmetric system needs exactly 4 mass factors"),
        (lambda: coefficient_matrix(MassVector((1.0,) * 5)), MassDomainError,
         "coefficient matrix needs exactly 4 mass factors"),
    ],
    ids=["AngleConfig-two-gaps", "MassVector-empty", "SymmetricConfig-open-ring",
         "residual_four-three-masses", "coefficient_matrix-five-masses"],
)
def test_model_input_checks(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


def test_types_accept_ints_and_numpy_numbers():
    assert MassVector((1, np.int64(2), np.float32(0.5), np.float64(3.0))).mus == (1.0, 2.0, 0.5, 3.0)
    sym = SymmetricConfig.from_pair(np.float64(0.7), 1)
    assert (type(sym.theta1), type(sym.theta2)) == (float, float)


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


def _residual_reference(config, masses):
    """Reference: the term-by-term double loop residual_general replaced."""
    n = len(config.thetas)
    thetas = config.thetas
    mus = masses.mus
    rows = []
    for i in range(n):
        acc = 0.0
        partial = 0.0
        for j in range(1, n):
            partial += thetas[(i + j - 1) % n]
            if partial <= COLLISION_TOL or partial >= TWO_PI - COLLISION_TOL:
                raise AngleDomainError(
                    f"separation {partial!r} within collision tolerance of 0 or 2*pi"
                )
            acc += mus[(i + j) % n] * backend.f_eval(partial)
        rows.append(acc)
    return rows


# residual_general sums rings of up to 91 gaps term by term and larger
# ones by numpy blocks; the block path is also run on the small rings
RESIDUAL_PATHS = [residual_general, model._residual_blocks]


def _assert_rows_match_reference(config, masses):
    # Exact equality, no tolerance: verify's output bytes rest on every row
    # matching the scalar loop. A numpy build whose float64 sin/cos round
    # differently from libm fails here rather than drifting silently.
    want = _residual_reference(config, masses)
    for path in RESIDUAL_PATHS:
        got = path(config, masses)
        bad = [i for i, (a, b) in enumerate(zip(got, want)) if a != b]
        assert len(got) == len(want) and not bad, (
            f"{path.__name__} differs from the scalar loop on {len(bad)} of "
            f"{len(want)} rows, first i={bad[:1]}: numpy sin/cos do not round like "
            f"math.sin/math.cos on this platform, or the row sums changed order"
        )


def _closed_ring(weights):
    return AngleConfig(closed_gaps(weights))


@st.composite
def rings(draw, max_n=64):
    n = draw(st.integers(3, max_n))
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n))
    mus = draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n))
    return _closed_ring(weights), MassVector(mus)


@settings(max_examples=200, deadline=None)
@given(ring=rings())
def test_residual_rows_bit_identical_to_scalar_loop(ring):
    _assert_rows_match_reference(*ring)


def _jittered_ring(n, seed):
    return AngleConfig(jittered_gaps(n, seed))


@pytest.mark.parametrize(
    "config",
    [AngleConfig((TWO_PI / 512,) * 512), AngleConfig((TWO_PI / 1024,) * 1024),
     _jittered_ring(1024, 8), _jittered_ring(91, 9), _jittered_ring(92, 10),
     # 16 * 1023 terms: residual_general sums the 16 rows by numpy blocks
     AngleConfig(periodic_gaps([1.0, 1.5, 0.5, 1.25] * 3 + [1.0, 0.75, 2.0, 1.5], 64))],
    ids=["regular-512", "regular-1024", "jittered-1024", "jittered-91", "jittered-92",
         "period-16-1024"],
)
def test_large_ring_residuals_bit_identical_to_scalar_loop(config):
    _assert_rows_match_reference(config, MassVector((1.0,) * len(config.thetas)))


@st.composite
def periodic_rings(draw, max_n=160):
    """A base of 1-8 gaps and masses repeated k times, N = 3..max_n, so
    rings both below and above 91 gaps are drawn."""
    p = draw(st.integers(1, 8))
    k = draw(st.integers(-(-3 // p), max_n // p))
    weights = draw(st.lists(st.floats(0.01, 1.0), min_size=p, max_size=p))
    mus = draw(st.lists(st.floats(1e-3, 1e3), min_size=p, max_size=p))
    return weights, mus, k


def _unique_first(values):
    # a strict maximum at site 0: no rotation short of N leaves it in place
    return [2.0 * max(values)] + list(values[1:])


def _periodic_tiny_gap(weights, k, r, tiny):
    """periodic_gaps(weights, k) with gap r of every copy set to tiny and
    the others rescaled to close the ring."""
    rest = list(weights)
    rest[r] = 0.0
    scale = (TWO_PI - k * tiny) / (k * math.fsum(rest))
    base = [w * scale for w in rest]
    base[r] = tiny
    return base * k


@settings(max_examples=60, deadline=None)
@given(ring=periodic_rings())
def test_periodic_ring_rows_bit_identical_to_scalar_loop(ring):
    weights, mus, k = ring
    config = AngleConfig(periodic_gaps(weights, k))
    masses = MassVector(mus * k)
    period = model._period(config.thetas, masses.mus)
    assert len(weights) % period == 0
    _assert_rows_match_reference(config, masses)
    # the orbit path's block sum over the base's rows alone
    want = _residual_reference(config, masses)
    assert model._residual_blocks(config, masses, len(weights)) == want[: len(weights)]


@settings(max_examples=40, deadline=None)
@given(ring=periodic_rings(), broken=st.sampled_from(["thetas", "mus"]))
def test_ring_periodic_in_one_sequence_takes_the_full_path(ring, broken):
    weights, mus, k = ring
    if broken == "thetas":
        config = _closed_ring(_unique_first(weights * k))
        masses = MassVector(mus * k)
    else:
        config = AngleConfig(periodic_gaps(weights, k))
        masses = MassVector(_unique_first(mus * k))
    n = len(config.thetas)
    assert model._period(config.thetas, masses.mus) == n
    _assert_rows_match_reference(config, masses)


@settings(max_examples=40, deadline=None)
@given(ring=periodic_rings(), data=st.data(), tiny=st.floats(1e-15, COLLISION_TOL))
def test_periodic_ring_collision_error_matches_scalar_loop(ring, data, tiny):
    weights, mus, k = ring
    p = len(weights)
    assume(p >= 2)
    r = data.draw(st.integers(0, p - 1))
    config = AngleConfig(_periodic_tiny_gap(weights, k, r, tiny))
    masses = MassVector(mus * k)
    with pytest.raises(AngleDomainError) as want:
        _residual_reference(config, masses)
    for path in RESIDUAL_PATHS:
        with pytest.raises(AngleDomainError) as got:
            path(config, masses)
        assert str(got.value) == str(want.value)


@pytest.mark.parametrize(
    "weights, period",
    [([1.0] * 16, 1), ([1.0, 2.0] * 8, 2), ([1.0, 2.0, 1.0, 3.0] * 4, 4),
     # thetas[3:] == thetas[:-3], but 3 does not divide 16: no rotation
     ([1.0, 2.0, 3.0] * 5 + [1.0], 16)],
    ids=["regular", "period-2", "period-4", "shift-3-not-a-rotation"],
)
def test_residual_sums_one_row_per_smallest_period(monkeypatch, weights, period):
    n = len(weights)
    config = AngleConfig(periodic_gaps(weights, 1))
    masses = MassVector([0.5 + w for w in weights])
    calls = []

    def counting(separation):
        calls.append(separation)
        return backend.f_eval(separation)

    monkeypatch.setattr(model, "_kernel_at", counting)
    assert model._period(config.thetas, masses.mus) == period
    assert residual_general(config, masses) == _residual_reference(config, masses)
    assert len(calls) == period * (n - 1)


@pytest.mark.parametrize(
    "thetas",
    [
        (1e-13, 1.0, 2.0, TWO_PI - 3.0 - 1e-13),
        (1.0, 2.0, 1e-13, 1.5, TWO_PI - 4.5 - 1e-13),
        (2.0, 2.0, TWO_PI - 4.0 - 5e-13, 5e-13),
        (5e-13, 3.0, 5e-13, TWO_PI - 3.0 - 1e-12),
        (1.0, 1.0, 1.0, 1.0, 1.0, TWO_PI - 5.0 - 4e-13, 4e-13),
        # 16 * 1023 terms: residual_general sums the 16 rows by numpy blocks
        _periodic_tiny_gap([1.0, 0.5, 2.0, 1.5] * 4, 64, 13, 5e-13),
    ],
    ids=["first-gap", "middle-gap", "last-separation", "two-gaps", "closing-gap",
         "period-16-1024"],
)
def test_residual_collision_error_matches_scalar_loop(thetas):
    config = AngleConfig(thetas)
    masses = MassVector((1.0,) * len(thetas))
    with pytest.raises(AngleDomainError) as want:
        _residual_reference(config, masses)
    for path in RESIDUAL_PATHS:
        with pytest.raises(AngleDomainError) as got:
            path(config, masses)
        assert str(got.value) == str(want.value)


@settings(max_examples=100, deadline=None)
@given(ring=rings(max_n=40), k=st.integers(0, 39))
def test_residual_rotates_with_the_ring(ring, k):
    config, masses = ring
    n = len(config.thetas)
    k %= n
    rotated = residual_general(
        AngleConfig(config.thetas[k:] + config.thetas[:k]),
        MassVector(masses.mus[k:] + masses.mus[:k]),
    )
    rows = residual_general(config, masses)
    assert rotated == rows[k:] + rows[:k]


@settings(max_examples=100, deadline=None)
@given(ring=rings(max_n=40), k=st.integers(-20, 20))
def test_residual_scales_exactly_with_power_of_two_masses(ring, k):
    config, masses = ring
    scale = 2.0**k
    scaled = residual_general(config, MassVector(tuple(scale * m for m in masses.mus)))
    assert scaled == [scale * r for r in residual_general(config, masses)]


def test_residual_memory_bounded_by_block_not_ring_size():
    # a float64 temporary of N^2 terms would take 32 MB at N = 2048; the
    # ring is jittered, since a regular one sums a single row
    n = 2048
    config = _jittered_ring(n, 11)
    masses = MassVector((1.0,) * n)
    tracemalloc.start()
    try:
        residual_general(config, masses)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


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


def _svd_null_space(entries, rank_tol):
    """Reference rank and null-space basis from LAPACK's SVD: the rank is
    4 less the number of singular values at or below rank_tol times the
    largest."""
    _, sing, vt = np.linalg.svd(entries)
    rank = 4 - int(np.count_nonzero(sing <= rank_tol * sing[0]))
    return rank, vt[rank:].T


def _closed_null_space(entries, rank_tol):
    try:
        result = positive_null_masses(MassMatrix(entries), rank_tol)
    except RankDeficiencyAbsentError:
        return 4, None
    if result.rank == 0:
        assert np.array_equal(result.basis, np.eye(4)) and result.masses is None
    return result.rank, result.basis


def _near_curve_matrices(traced_tables):
    return [
        mass_matrix(SymmetricConfig.from_pair(pt.theta1 + shift, pt.theta2)).entries
        for pts in traced_tables.values()
        for pt in pts
        for shift in (0.0, 1e-9, 1e-6)
    ]


def _strip_matrices(n):
    rng = random.Random(SEED + 5)
    return [mass_matrix(_random_sym(rng)).entries for _ in range(n)]


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
        assert mus[1] == mus[2] == 0.5
        assert mus[0] == mus[3]
        assert abs(mus[0] / mus[1] - ref_ratio) <= 0.01 * ref_ratio


def test_pfaffian_is_curve_value_bitwise(traced_tables):
    points = [(pt.theta1, pt.theta2) for pts in traced_tables.values() for pt in pts]
    rng = random.Random(SEED + 6)
    points += [(sym.theta1, sym.theta2) for sym in (_random_sym(rng) for _ in range(1000))]
    for t1, t2 in points:
        M = mass_matrix(SymmetricConfig.from_pair(t1, t2)).entries
        pf = M[0, 1] * M[2, 3] - M[0, 2] * M[1, 3] + M[0, 3] * M[1, 2]
        assert pf == curve_eval(t1, t2)


@pytest.mark.parametrize("rank_tol", [1e-9, 1e-6, 1e-3, 0.0, -1.0, 1.0, math.inf, math.nan])
def test_null_masses_rank_matches_svd(rank_tol, traced_tables):
    matrices = _strip_matrices(2000)
    # a traced point can have C == 0 exactly, which only rank_tol <= 0
    # tells apart from the SVD's small nonzero b
    if rank_tol > 0.0:
        matrices += _near_curve_matrices(traced_tables)
    for M in matrices:
        assert _closed_null_space(M, rank_tol)[0] == _svd_null_space(M, rank_tol)[0]


@pytest.mark.parametrize("rank_tol", [1e-9, 1e-6, 1e-3])
def test_null_basis_residual_within_twice_svd(rank_tol, traced_tables):
    worst_closed = worst_svd = 0.0
    for M in _strip_matrices(2000) + _near_curve_matrices(traced_tables):
        rank, basis = _closed_null_space(M, rank_tol)
        if rank != 2:
            continue
        scale = np.max(np.abs(M))
        assert np.allclose(basis.T @ basis, np.eye(2), rtol=0.0, atol=1e-15)
        worst_closed = max(worst_closed, np.max(np.abs(M @ basis)) / scale)
        ref = _svd_null_space(M, rank_tol)[1]
        worst_svd = max(worst_svd, np.max(np.abs(M @ ref)) / scale)
    assert worst_closed <= 2.0 * worst_svd


def _f_mp(theta):
    return mpmath.sin(theta) * (1 - 1 / (8 * abs(mpmath.sin(theta / 2)) ** 3))


def _mass_ratio_mp(theta1, theta2):
    """mu1/mu2 at the root of C nearest theta1 on the theta2 line, from the
    kernel's closed form at 40 digits: (f1 + f12)/f4."""
    with mpmath.workdps(40):
        t2 = mpmath.mpf(theta2)

        def kernels(t1):
            return _f_mp(t1), _f_mp(t2), _f_mp(2 * mpmath.pi - 2 * t1 - t2), _f_mp(t1 + t2)

        def curve(t1):
            f1, f2, f4, f12 = kernels(t1)
            return f1 * f1 - f12 * f12 - f2 * f4

        f1, _, f4, f12 = kernels(mpmath.findroot(curve, mpmath.mpf(theta1)))
        return (f1 + f12) / f4


def test_null_masses_match_mpmath():
    windows = {"D1": (0.05, 1.0, 89), "D2": (1.1, 3.1, 196), "D3": (3.2, 5.2, 61)}
    checked = 0
    for region, (lo, hi, named) in windows.items():
        # the named lines hold the worst SVD-path errors: D2 near catalog
        # point M, where f4 is about -4.6e-4, and D3 near G
        grid = np.linspace(lo, hi, 300)
        for pt in trace_curve(region, sorted({grid[named], *grid[::15]})):
            masses = positive_null_masses(
                mass_matrix(SymmetricConfig.from_pair(pt.theta1, pt.theta2))
            ).masses
            ref = _mass_ratio_mp(pt.theta1, pt.theta2)
            assert abs((masses.mus[0] / masses.mus[1] - ref) / ref) <= 1e-13
            checked += 1
    assert checked >= 60


def test_null_masses_invariant_under_power_of_two_scale(traced_tables):
    for pt in traced_tables["D2"]:
        M = mass_matrix(SymmetricConfig.from_pair(pt.theta1, pt.theta2)).entries
        plain = positive_null_masses(MassMatrix(M))
        # squares of these entries overflow, and of these underflow
        for factor in (2.0**600, 2.0**-600):
            scaled = positive_null_masses(MassMatrix(M * factor))
            assert scaled.rank == plain.rank == 2
            assert np.array_equal(scaled.basis, plain.basis)
            assert scaled.masses.mus == plain.masses.mus


def test_null_masses_raise_off_curve():
    with pytest.raises(RankDeficiencyAbsentError):
        positive_null_masses(mass_matrix(SymmetricConfig.from_pair(0.9, 0.9)))


def test_null_masses_nan_rank_tol_keeps_full_rank():
    with pytest.raises(RankDeficiencyAbsentError):
        positive_null_masses(
            mass_matrix(SymmetricConfig.from_pair(0.9, 0.9)), rank_tol=math.nan
        )
    # a boolean is no tolerance: True would read as 1.0 and give rank 0
    on_curve = MassMatrix(_two_block_matrix(1.0))
    for flag in (True, False):
        with pytest.raises(ValueError, match="rank_tol must be a number"):
            positive_null_masses(on_curve, rank_tol=flag)


def _two_block_matrix(x):
    return np.array(
        [[0.0, x, 0.0, 0.0], [-x, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, -1.0, 0.0]]
    )


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_null_masses_reject_non_finite_matrix(bad):
    with pytest.raises(MassDomainError):
        positive_null_masses(MassMatrix(_two_block_matrix(float(bad))))


def test_null_masses_reject_matrix_off_the_pattern():
    # x = 1 is mass_matrix's pattern (f1 = 1, the rest 0); x = 2 breaks
    # M[2, 3] = M[0, 1]
    for entries in (_two_block_matrix(2.0), np.zeros((3, 3))):
        with pytest.raises(MassDomainError):
            positive_null_masses(MassMatrix(entries))
    with pytest.raises(RankDeficiencyAbsentError):
        positive_null_masses(MassMatrix(_two_block_matrix(1.0)))
