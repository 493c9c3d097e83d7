"""Outward-rounded intervals and an enclosure of the kernel f.

``rootfind``'s lazy scans and grids ask, for a box of grid nodes, for an
interval that holds the value the float code computes at every node in
it; a box whose interval settles the question (no sign change, no node
root, no node beyond the best so far) is never sampled. Everything here
serves that: an ``Interval`` type whose every operation rounds its ends
outward, ``sin`` and ``cos`` over an interval, and ``kernel``, an
enclosure of f built from its values at the box's ends on f's monotone
pieces. Branch and bound on such enclosures follows W. Tucker,
*Validated Numerics* (Princeton, 2011), chapters 3 and 5.

An enclosure covers the *float* values the package computes, not only
the real ones: an ``Interval`` operation holds fl(x op y) for every pair
of floats x, y in its operands, and the float path forms its arguments
with the same operations. That rests on two trust assumptions:

- ``math.sin`` and ``math.cos`` lie within ``LIBM_ULPS`` (one) ulp of
  the real value (their worst error on 200,000 angles in (0, 2*pi) was
  0.514 ulp against 120-bit mpmath on a 2-vCPU Intel Xeon);
- f' has exactly the two interior zeros theta_c and theta_l (see
  ``kernel.critical_points``), so f is monotone on (0, theta_c],
  [theta_c, theta_l] and [theta_l, 2*pi).

Imports only ``math`` and the package's ``bounds`` (which imports only
``math``); the case solvers and the catalog load it on first use.
"""

import math

from .bounds import CRITICAL_HI, CRITICAL_LO, KERNEL_ROUND_K, LIBM_ULPS, TWO_PI

_INF = math.inf
_NEG = -math.inf
_next = math.nextafter
_EPS = math.ulp(1.0)
# float pi is within 1.3e-16 of pi, so a peak of sin or cos computed
# from it is this close to the true one on every interval used here
_PEAK_SLACK = 1e-9


class Interval:
    """The closed interval [lo, hi] of reals. Each arithmetic result is
    rounded outward by one ulp at each end (two for a square), so it holds
    fl(x op y) for every float x in one operand and y in the other; a float
    operand y counts as [y, y]. A product or quotient that would be
    undefined (0 * inf, or division by an interval holding 0) is the whole
    line, and a NaN end compares false, which the callers read as "not
    settled"."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: float, hi: float) -> None:
        self.lo = lo
        self.hi = hi

    def __repr__(self) -> str:
        return f"Interval({self.lo!r}, {self.hi!r})"

    def __add__(self, other):
        if isinstance(other, Interval):
            return Interval(_next(self.lo + other.lo, _NEG), _next(self.hi + other.hi, _INF))
        return Interval(_next(self.lo + other, _NEG), _next(self.hi + other, _INF))

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Interval):
            return Interval(_next(self.lo - other.hi, _NEG), _next(self.hi - other.lo, _INF))
        return Interval(_next(self.lo - other, _NEG), _next(self.hi - other, _INF))

    def __rsub__(self, other):
        return Interval(_next(other - self.hi, _NEG), _next(other - self.lo, _INF))

    def __mul__(self, other):
        a, b = self.lo, self.hi
        if other is self:
            # x * x for one x: a square, never negative
            if a >= 0.0:
                lo, hi = a * a, b * b
            elif b <= 0.0:
                lo, hi = b * b, a * a
            else:
                lo, hi = 0.0, max(a * a, b * b)
            return Interval(_next(_next(lo, _NEG), _NEG), _next(_next(hi, _INF), _INF))
        if isinstance(other, Interval):
            c, d = other.lo, other.hi
        else:
            c = d = other
        p = (a * c, a * d, b * c, b * d)
        total = p[0] + p[1] + p[2] + p[3]
        if total != total:
            # 0 * inf, a NaN end, or inf - inf: min and max would hide it
            return Interval(_NEG, _INF)
        return Interval(_next(min(p), _NEG), _next(max(p), _INF))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        # C's pow(x, 2.0) is within one ulp of x*x, which the square's
        # two-ulp rounding covers
        if n != 2:
            raise ValueError("an Interval is raised only to the power 2")
        return self * self

    def __rtruediv__(self, other):
        a, b = self.lo, self.hi
        if not (a > 0.0 or b < 0.0):
            return Interval(_NEG, _INF)
        p, q = other / a, other / b
        if q < p:
            p, q = q, p
        return Interval(_next(p, _NEG), _next(q, _INF))

    def __abs__(self):
        a, b = self.lo, self.hi
        if a >= 0.0:
            return self
        if b <= 0.0:
            return Interval(-b, -a)
        return Interval(0.0, max(-a, b))


def _trig(fn, x: Interval, first_peak: float) -> Interval:
    """fn (math.sin or math.cos) over x: its values at x's ends, and the
    peak value (-1)**k wherever the peak first_peak + k*pi may lie in x,
    widened by 2*LIBM_ULPS ulps (one for the ends' error, one for the
    float path's) and clipped to [-1, 1]."""
    a, b = x.lo, x.hi
    if not b - a < math.pi:
        return Interval(-1.0, 1.0)
    va, vb = fn(a), fn(b)
    lo, hi = (va, vb) if va <= vb else (vb, va)
    k = math.floor((a - first_peak) / math.pi)
    for j in (k, k + 1, k + 2):
        peak = first_peak + j * math.pi
        if a - _PEAK_SLACK <= peak <= b + _PEAK_SLACK:
            if j % 2:
                lo = -1.0
            else:
                hi = 1.0
    for _ in range(2 * LIBM_ULPS):
        lo, hi = _next(lo, _NEG), _next(hi, _INF)
    return Interval(max(lo, -1.0), min(hi, 1.0))


def sin(x: Interval) -> Interval:
    """An interval holding math.sin(t) for every float t in x."""
    return _trig(math.sin, x, 0.5 * math.pi)


def cos(x: Interval) -> Interval:
    """An interval holding math.cos(t) for every float t in x."""
    return _trig(math.cos, x, 0.0)


def kernel(f, theta_c: float, theta_l: float):
    """An enclosure of the kernel function ``f`` (``backend.f_eval`` or a
    name bound to it), called like f as ``enclose(theta, xp)``.

    On a float angle it returns f(theta) itself, the float path's own
    value. On an Interval [a, b] inside (0, 2*pi) it takes the hull of
    f(a), f(b), f(theta_c) when [a, b] meets [CRITICAL_LO, CRITICAL_HI]
    (which holds the true maximum's angle well inside it) and f(theta_l)
    when it meets that bracket's mirror, and widens it by
    KERNEL_ROUND_K * eps * (max|f| + 1). One float evaluation of f is
    within 6.5 * eps * (|f| + 1) of the real value wherever sin is within
    one ulp, and the bound covers two of them: the end value the hull is
    built from and the node value it must hold. Any other interval
    (reaching 0 or 2*pi, or with a NaN end) gets the whole line.
    """
    f_c, f_l = f(theta_c), f(theta_l)
    mirror_lo, mirror_hi = TWO_PI - CRITICAL_HI, TWO_PI - CRITICAL_LO
    scale = KERNEL_ROUND_K * _EPS

    def enclose(theta, xp=math):
        if not isinstance(theta, Interval):
            return f(theta)
        a, b = theta.lo, theta.hi
        if not 0.0 < a <= b < TWO_PI:
            return Interval(_NEG, _INF)
        va, vb = f(a), f(b)
        lo, hi = (va, vb) if va <= vb else (vb, va)
        if a <= CRITICAL_HI and b >= CRITICAL_LO and f_c > hi:
            hi = f_c
        if a <= mirror_hi and b >= mirror_lo and f_l < lo:
            lo = f_l
        w = scale * (max(-lo, hi) + 1.0)
        return Interval(_next(lo - w, _NEG), _next(hi + w, _INF))

    return enclose
