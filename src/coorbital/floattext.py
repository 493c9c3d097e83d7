"""Exact ``"%.12g"`` text of float64 blocks, vectorised with numpy.

A finite nonzero x at decimal exponent e = floor(log10|x|) in [-4, 12)
is written in fixed notation from the 12-digit integer D = round(|x| *
10**(11 - e)), D in [1e11, 1e12). Its text is a subsequence of a cell
of four 8-byte words: LEAD, the sign and the "0.000" that leads numbers
below 1, then one word per group of four digits of D, each digit
followed by a "." slot. Which bytes are kept depends on the sign, on e
and on the number n of significant digits of D alone, so one row of
four words per (sign, e, n) picks them. The word and mask lookups take
8-byte items, which numpy's take copies without a per-item memmove.

Only ``cli`` imports this module, on the first block of float records
it writes, so that launches without one neither compile it nor import
numpy. The tables are built at import.
"""

from typing import Callable, Sequence, Tuple

import numpy as np

LEAD = b"-0.000\0\0"
WIDTH = 32
# |x| * 10**(11 - e) is one correctly rounded product by an exact power
# of ten, so below 2**40 it is off by at most 2**-14; a cell this near a
# .5 tie may round either way and is declined
TIE_MARGIN = 0.5 - 2.0**-12


def _keep_table() -> "np.ndarray":
    """keep[(sign * 16 + e + 4) * 12 + n - 1] is the cell mask of that
    sign, e and n: its lead word holds the lead's text, and its digit
    words hold \\xff over the digit and "." slots of the text, NUL
    elsewhere."""
    lead = np.frombuffer(LEAD, np.uint8)
    keep = np.zeros((2, 16, 12, WIDTH), np.uint8)
    for sign in (0, 1):
        for e in range(-4, 12):
            for n in range(1, 13):
                row = keep[sign, e + 4, n - 1]
                row[0] = lead[0] * sign
                if e < 0:
                    row[1 : 2 - e] = lead[1 : 2 - e]
                    row[8 : 8 + 2 * n : 2] = 0xFF
                else:
                    row[8 : 8 + 2 * max(n, e + 1) : 2] = 0xFF
                    if n > e + 1:
                        row[9 + 2 * e] = 0xFF
    return keep.view(np.uint64).reshape(-1, WIDTH // 8)


_KEEP = _keep_table()
_POW10 = np.array([float(10**k) for k in range(16)])


def _group_tables() -> "Tuple[np.ndarray, np.ndarray]":
    """The word "d.d.d.d." of the four digits of each group g < 10000,
    and at 10000 a word of \\xff bytes that passes a cell's lead through;
    and [j, g], for D's j-th group g of four digits, the count of D's
    digits up to the last nonzero one in g, or 0 when g is 0000."""
    # narrow integers keep the temporaries, and so a launch's peak memory, small
    g = np.arange(10000, dtype=np.int16)
    words = np.full((10001, 8), ord("."), np.uint8)
    for slot, power in enumerate((1000, 100, 10, 1)):
        words[:-1, 2 * slot] = ord("0") + g // power % 10
    words[-1] = 0xFF
    trailing = (g % 10 == 0).astype(np.int8) + (g % 100 == 0) + (g % 1000 == 0)
    count = np.arange(4, 13, 4, dtype=np.int8)[:, None] - trailing
    return words.view(np.uint64).ravel(), count * (g > 0)


_WORDS, _SIGNIFICANT = _group_tables()


def fill_cells(
    block: "np.ndarray",
    separators: Sequence[str],
    order: Sequence[int],
    needs_point: bool,
    cell: Callable[[float], str],
) -> bytearray:
    """The byte matrix of the records of a float64 block of shape (rows,
    columns), output column j holding block column order[j]: each cell
    as WIDTH bytes with those outside its text set to NUL, then its own
    separator. A declined cell's slot holds cell(x), which for any float
    is at most WIDTH bytes and holds no NUL.

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
    # g[..., 0] picks the word that passes the lead through, g[..., 1:]
    # are D's groups of four digits; each floored quotient and each
    # product here is exact in float64, and subtracting the products
    # takes the remainders faster than numpy's float % would
    top = np.floor(d / 1e8)
    rest = d - top * 1e8
    mid = np.floor(rest / 1e4)
    g = np.empty((m, k, 4), np.intp)
    g[..., 0] = 10000
    g[..., 1] = top
    g[..., 2] = mid
    g[..., 3] = rest - mid * 1e4
    # the take methods skip np.take's Python wrapper, a cost per call
    n = np.maximum(
        np.maximum(_SIGNIFICANT[0].take(g[..., 1]), _SIGNIFICANT[1].take(g[..., 2])),
        _SIGNIFICANT[2].take(g[..., 3]),
    )
    if needs_point:
        ok &= n > e + 1
    cells = _KEEP.take((np.signbit(block) * 16 + e + 4) * 12 + n - 1, axis=0)
    np.bitwise_and(cells, _WORDS.take(g), out=cells)
    texts = cells.view(np.uint8)
    for r, c in np.argwhere(~ok).tolist():
        text = cell(block[r, c].item()).encode()
        texts[r, c] = np.frombuffer(text.ljust(WIDTH, b"\0"), np.uint8)
    encoded = [sep.encode() for sep in separators]
    record = b"".join(b"\0" * WIDTH + sep for sep in encoded)
    matrix = bytearray(record * m)
    rows = np.frombuffer(matrix, np.uint8).reshape(m, len(record))
    start = 0
    for column, sep in zip(order, encoded):
        rows[:, start : start + WIDTH] = texts[:, column]
        start += WIDTH + len(sep)
    return matrix
