"""``repr`` of many float64 values at once, byte for byte, found as Grisu does.

Exact integer arithmetic over a block picks, for 1e-3 <= |x| < 2**52 where
``repr`` is positional, the shortest decimal within half an ulp of x, the
nearest of that length; ties and all other values go to ``repr``.  Only IEEE
+ - *, floor, integer division and exact tables decide a digit, and numpy
fuses none of its calls, so the text does not depend on the CPU.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

_BLOCK = 8192  # values per pass: bounds the working set and the text of one transform write
_POW10 = np.array([float(10**i) for i in range(21)])  # k is at most 20 before its correction
# by binade b, 2**(b - 10) <= |x| < 2**(b - 9): k = 16 - floor(log10 2**(b - 10)) as in
# Ryu, and by [b, k] half an ulp of |x| times 10**k, exactly
_K = np.array([16 - ((b - 10) * 78913 >> 18) for b in range(62)])
_H = np.outer([math.ldexp(1.0, b - 63) for b in range(62)], _POW10[:20])

# A cell is 48 bytes: the sign, 7 NULs, then the 20 frame digits of a candidate in groups
# of four, each digit followed by a slot for the point, and the text is the cell without
# its NULs.  The tables are built from bytes, with few numpy calls at import.
_CELL = 48
_DIGIT = [8 + 2 * t for t in range(20)]  # byte of each frame digit


def _rows(marks) -> np.ndarray:
    """One cell per iterable of (byte, value) pairs, NUL elsewhere, as int64 words."""
    table = bytearray()
    for row in marks:
        table += bytes(_CELL)
        for at, value in row:
            table[at - _CELL] = value
    return np.frombuffer(bytes(table), np.int64).reshape(-1, _CELL // 8)


_MINUS = _rows([[(0, ord("-"))]])[0, 0]
_FIRST = np.array([4] + [3] * 9)  # [cand // 10**16]: the frame digit of cand's first digit
# [first * 20 + last]: a "0" at each frame digit before first and after last
_DROP = (_rows([(at, ord("0")) for at in _DIGIT[:first]] for first in range(20))[:, None]
         + _rows([(at, ord("0")) for at in _DIGIT[last + 1 :]] for last in range(20))).reshape(400, -1)
_POINT = _rows([[(_DIGIT[19 - k] + 1, ord("."))] if k else [] for k in range(20)])
_GROUPS = np.zeros(10000, np.int64)  # "0000".."9999", a digit in every other byte
for _i in range(4):
    _digits = b"".join(bytes([d]) * 10 ** (3 - _i) for d in b"0123456789") * 10**_i
    _GROUPS.view(np.uint8)[2 * _i :: 8] = np.frombuffer(_digits, np.uint8)


def _repr_cells(x: np.ndarray) -> np.ndarray:
    """(len(x), _CELL) uint8: row i is repr(x[i]) in ASCII with NULs in between."""
    ax = np.abs(x)
    fast = (ax >= 1e-3) & (ax < 2.0**52)
    ax = np.where(fast, ax, 1.5)
    # Y = |x| * 10**k in [1e16, 1e17); b from the exponent bits.  A power of two, with its
    # narrower interval below, is here an exact decimal of at most 16 digits: distance 0
    b = (ax.view(np.int64) >> 52) - (1023 - 10)
    k = _K[b]
    k -= ax * _POW10[k] >= 1e17
    p = _POW10[k]
    hi = ax * p
    ah, ph = ax * 134217729.0, p * 134217729.0  # Veltkamp's split by 2**27 + 1
    ah, ph = ah - (ah - ax), ph - (ph - p)
    al, pl = ax - ah, p - ph
    lo = ((ah * ph - hi) + ah * pl + al * ph) + al * pl  # TwoProduct: hi + lo == Y exactly
    floor_lo = np.floor(lo)
    whole = hi.astype(np.int64) + floor_lo.astype(np.int64)
    frac = lo - floor_lo  # exact: Y is a multiple of 2**-47
    del ax, p, hi, ah, ph, al, pl, lo, floor_lo  # freed before the loop's and the cells' arrays
    # h > 0.55: the nearest integer is inside.  Being within h of Y is monotone in the digit
    # count of a candidate (Y rounded to a multiple of 10**j): the last one inside is repr's
    h = np.take(_H, b * 20 + k)
    cand = whole + (frac > 0.5)
    slow = ~fast | (frac == 0.5)
    level = np.zeros(len(x), np.int64)  # cand is a multiple of 10**level
    idx = np.flatnonzero(~slow)  # repr writes the slow ones
    w, f, hw = whole[idx], frac[idx], h[idx]  # still inside: which, and their Y, h
    for j in range(1, 17):
        step = 10**j
        r = w - (w // step) * step  # w >= 0: w % step
        r -= step * (r >= step // 2)  # w - r: the nearest multiple
        d = r.astype(np.float64) + f  # Y minus that multiple: exact, as |r| <= step / 2
        ad = np.abs(d)
        inside = ad < hw
        slow[idx[(ad == hw) | (inside & (d == -step / 2))]] = True
        keep = np.flatnonzero(inside)  # one index for five arrays: cheaper than five masks
        idx, w, f, hw, r = idx[keep], w[keep], f[keep], hw[keep], r[keep]
        if not idx.size:
            break
        cand[idx] = w - r
        level[idx] = j

    cells = np.empty((len(x), _CELL // 8), np.int64)
    cells[:, 0] = (x < 0) * _MINUS
    c = cand
    for g in range(5, 1, -1):
        q = c // 10000
        cells[:, g] = np.take(_GROUPS, c - q * 10000)  # c >= 0: c % 10000
        c = q
    cells[:, 1] = np.take(_GROUPS, c)  # c is cand // 10**16
    # cand < 1e17 ends at frame digit 19 - level.  Bytewise, with no borrow or carry: each
    # dropped digit is a "0", each point slot a NUL
    first = np.minimum(_FIRST[c], 19 - k)
    last = np.maximum(19 - level, 20 - k)
    cells -= np.take(_DROP, first * 20 + last, axis=0, mode="clip")  # "0"s outside first..last
    cells += np.take(_POINT, k, axis=0)
    slow = np.flatnonzero(slow)  # one index for the read and the write
    text = [repr(v) for v in x[slow].tolist()]
    cells[slow] = np.array(text, dtype=f"S{_CELL}").view(np.int64).reshape(-1, _CELL // 8)
    return cells.view(np.uint8)


def block_rows(width: int) -> int:
    """Rows of ``width`` values in one pass: as many as ``_BLOCK`` values fill, at least one."""
    return max(1, _BLOCK // width)


def repr_blocks(table: np.ndarray, before: bytes, end: bytes) -> Iterator[bytes]:
    """Each row of the 2-D float64 ``table`` as ``before + repr(v)`` per value, then ``end``,
    as one ASCII bytes object per block of whole rows."""
    rows, width = table.shape
    cell = len(before) + _CELL
    step = block_rows(width)
    for start in range(0, rows, step):
        block = table[start : start + step]
        grid = np.zeros((len(block), width * cell + len(end)), np.uint8)
        body = grid[:, : width * cell].reshape(len(block), width, cell)
        body[:, :, : len(before)] = np.frombuffer(before, np.uint8)
        body[:, :, len(before) :] = _repr_cells(block.ravel()).reshape(len(block), width, _CELL)
        grid[:, width * cell :] = np.frombuffer(end, np.uint8)
        yield grid.tobytes().translate(None, b"\0")


def repr_rows(table: np.ndarray, before: bytes, end: bytes) -> bytes:
    """All of ``repr_blocks`` as one bytes object."""
    return b"".join(repr_blocks(table, before, end))
