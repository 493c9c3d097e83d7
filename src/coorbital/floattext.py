"""Exact ``"%.12g"`` text of float64 blocks, vectorised with numpy.

A finite nonzero x at decimal exponent e = floor(log10|x|) in [-4, 12)
is written in fixed notation from the 12-digit integer D = round(|x| *
10**(11 - e)), D in [1e11, 1e12). Its text is a subsequence of CELL:
the sign, the "0.000" that leads numbers below 1, then the 12 digits of
D (the \\xff slots), each followed by a "." slot. Which bytes are kept
depends on the sign, on e and on the number n of significant digits of
D alone, so one table row per (sign, e, n) picks them.

Only ``cli`` imports this module, on the first block of float records
it writes, so that launches without one neither compile it nor import
numpy. The tables are built at import.
"""

from typing import List, Sequence, Tuple

import numpy as np

CELL = b"-0.000" + b"\xff." * 12
# |x| * 10**(11 - e) is one correctly rounded product by an exact power
# of ten, so below 2**40 it is off by at most 2**-14; a cell this near a
# .5 tie may round either way and is declined
TIE_MARGIN = 0.5 - 2.0**-12


def _keep_table() -> "np.ndarray":
    """keep[(sign * 16 + e + 4) * 12 + n - 1] is CELL with its bytes
    outside the text of a cell of that sign, e and n set to NUL."""
    cell = np.frombuffer(CELL, np.uint8)
    keep = np.zeros((2, 16, 12, len(CELL)), np.uint8)
    for sign in (0, 1):
        for e in range(-4, 12):
            for n in range(1, 13):
                row = keep[sign, e + 4, n - 1]
                row[0] = cell[0] * sign
                if e < 0:
                    row[1 : 2 - e] = cell[1 : 2 - e]
                    row[6 : 6 + 2 * n : 2] = 0xFF
                else:
                    row[6 : 6 + 2 * max(n, e + 1) : 2] = 0xFF
                    if n > e + 1:
                        row[7 + 2 * e] = cell[7 + 2 * e]
    return keep.view(f"S{len(CELL)}").ravel()


_KEEP = _keep_table()
_POW10 = np.array([float(10**k) for k in range(16)])
# "d.d." for the three digits of g < 1000, and at 1000 six \xff bytes
# that pass the sign and "0.000" of a cell through
_GROUPS = np.frombuffer(
    "".join(".".join(f"{g:03d}") + "." for g in range(1000)).encode() + b"\xff" * 6, "S6"
)


def _significant_table() -> "np.ndarray":
    """[j, g] is, for D's j-th group g of three digits, the count of D's
    digits up to the last nonzero one in g, or 0 when g is 000."""
    g = np.arange(1000)
    return np.where(g > 0, 3 * np.arange(1, 5)[:, None] - (g % 10 == 0) - (g % 100 == 0), 0)


_SIGNIFICANT = _significant_table()


def fill_cells(
    block: "np.ndarray", separators: Sequence[str], needs_point: bool
) -> Tuple[bytearray, List[int], List[int]]:
    """The byte matrix of the records of a float64 block of shape (rows,
    columns): each cell as CELL with the bytes outside its text set to
    NUL, then its separator padded with NUL to the longest one. Also
    returns the declined rows, left all NUL, and when there are any, the
    count of text bytes up to the end of each row.

    A cell is declined when it is zero or not finite, when e lies outside
    [-4, 12), when the scaled product lies within 2**-12 of a .5 tie, when
    D lies outside [1e11, 1e12) or, if needs_point, when its text holds
    no "."."""
    m, k = block.shape
    mag = np.abs(block)
    with np.errstate(divide="ignore", invalid="ignore"):
        e = np.floor(np.log10(mag))
        ok = (e >= -4) & (e < 12)
        # a declined cell is scaled by 1, which cannot overflow
        e = np.where(ok, e, 11).astype(np.intp)
        scaled = mag * _POW10[11 - e]
        d = np.rint(scaled)
        # when log10 rounds up to an integer e, scaled < 1e11 declines the
        # cell unless it rounds to 10**e either way
        ok &= (scaled >= 1e11) & (d < 1e12) & (np.abs(scaled - d) < TIE_MARGIN)
    d = np.where(ok, d, 1e11)
    # g[..., 0] picks the bytes before D's digits, g[..., 1:] are D's
    # groups of three digits; every quotient here is exact in float64
    g = np.empty((m, k, 5), np.intp)
    g[..., 0] = 1000
    for i, part in ((1, np.floor(d / 1e6)), (3, d % 1e6)):
        top = np.floor(part / 1e3)
        g[..., i] = top
        g[..., i + 1] = part - top * 1e3
    n = np.maximum(
        np.maximum(np.take(_SIGNIFICANT[0], g[..., 1]), np.take(_SIGNIFICANT[1], g[..., 2])),
        np.maximum(np.take(_SIGNIFICANT[2], g[..., 3]), np.take(_SIGNIFICANT[3], g[..., 4])),
    )
    if needs_point:
        ok &= n > e + 1
    width = len(CELL)
    encoded = [sep.encode() for sep in separators]
    slot = max(map(len, encoded))
    matrix = bytearray(m * k * (width + slot))
    cells = np.frombuffer(matrix, np.uint8).reshape(m, k, width + slot)
    pattern = (np.signbit(block) * 16 + e + 4) * 12 + n - 1
    np.bitwise_and(
        np.take(_KEEP, pattern).view(np.uint8).reshape(m, k, width),
        np.take(_GROUPS, g).view(np.uint8).reshape(m, k, width),
        out=cells[..., :width],
    )
    padded = b"".join(sep.ljust(slot, b"\0") for sep in encoded)
    cells[..., width:] = np.frombuffer(padded, np.uint8).reshape(k, slot)
    declined = sorted(set((np.flatnonzero(~ok) // k).tolist()))
    if not declined:
        return matrix, declined, []
    rows = cells.reshape(m, -1)
    rows[declined] = 0
    return matrix, declined, np.cumsum(np.count_nonzero(rows, axis=1)).tolist()
