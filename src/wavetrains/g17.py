"""The exact ``'%.17g' % v`` text of a float64 column, as bytes.

The CSV writer (``config._csv_blocks``) formats every value through
``text``, a numpy kernel over a whole column: ``digits`` rounds each
value's 17 significant digits from a double-double power of ten and
Dekker's exact product (Numer. Math. 18, 224 (1971)), and ``text`` lays
the ``%g`` characters out as bytes at fixed positions of four uint64 words
per value, the absent ones 0, for the writer to drop in one compaction.
A value within 1e-9 of a rounding tie, and NaN or infinity, takes
Python's own ``'%.17g' % v``, which rounds correctly (Gay 1990), so every
byte equals a per-value ``f"{v:.17g}"``.

The module is imported on the first CSV written, not with the package:
its tables are built on first use, so a command that writes no CSV pays
for none of it.
"""

from __future__ import annotations

import functools
import math

import numpy as np

_TIE_WINDOW = 1e-9  # |fraction - 1/2| below this goes to Python's own text
_ZEROS = np.uint64(0x3030303030303030)  # eight ASCII "0"


class _Pow10:
    """10^s = (hi + lo) 2^k with hi in [1, 2] and |lo| <= ulp(hi) / 2, for
    the s = 16 - E of every double (E = -325 .. 309 counts the corrections
    of ``digits``).  An entry is filled on first need from exact
    integers (``int / int`` true division rounds correctly), so a block
    pays only for the decades it holds.  ``hi_hi + hi_lo`` is the Veltkamp
    split of hi for Dekker's product."""

    S_MIN, S_MAX = -293, 341

    def __init__(self):
        size = self.S_MAX - self.S_MIN + 1
        self.filled = np.zeros(size, dtype=bool)
        self.k = np.zeros(size, dtype=np.int32)  # ldexp's own exponent type
        self.hi, self.lo, self.hi_hi, self.hi_lo = np.zeros((4, size))

    def lookup(self, s: np.ndarray):
        """(k, hi, lo, hi_hi, hi_lo) arrays for the exponents ``s``."""
        idx = s - self.S_MIN
        if not self.filled[idx].all():
            for i in set(idx[~self.filled[idx]].tolist()):  # np.unique would import numpy.ma
                self._fill(i)
        return (self.k[idx], self.hi[idx], self.lo[idx],
                self.hi_hi[idx], self.hi_lo[idx])

    def _fill(self, i: int):
        s = i + self.S_MIN
        if s >= 0:
            k = (10**s).bit_length() - 1
            num, den = 10**s, 1 << k
        else:
            k = -(10**-s).bit_length()
            num, den = 1 << -k, 10**-s
        hi = num / den
        a, b = hi.as_integer_ratio()
        split = 134217729.0 * hi
        hi_hi = split - (split - hi)
        self.k[i], self.hi[i], self.hi_hi[i], self.hi_lo[i] = k, hi, hi_hi, hi - hi_hi
        self.lo[i] = (num * b - a * den) / (den * b)
        self.filled[i] = True


@functools.cache
def _pow10() -> _Pow10:
    return _Pow10()


def _scaled(a: np.ndarray, e: np.ndarray):
    """floor(a 10^(16-e)) as int64 and the fraction above it, from the
    double-double 10^s by Dekker's exact product w hi = p + err."""
    k, hi, lo, hi_hi, hi_lo = _pow10().lookup(16 - e)
    w = np.ldexp(a, k)  # exact: w is near 10^16 / hi, a normal double
    p = w * hi
    split = w * 134217729.0
    w_hi = split - (split - w)
    w_lo = w - w_hi
    err = ((w_hi * hi_hi - p) + w_hi * hi_lo + w_lo * hi_hi) + w_lo * hi_lo
    rest = err + w * lo
    whole = np.floor(rest)
    # p is an integer when p >= 2^53; below 10^16 the floor only has to
    # land below 10^16, which truncation keeps
    return p.astype(np.int64) + whole.astype(np.int64), rest - whole


def digits(a: np.ndarray):
    """The 17 significant digits D and decimal exponent E of each positive
    finite ``a``, a = D 10^(E-16) rounded half-even, and a mask of the
    values the kernel decides exactly.

    E starts as floor(log10 a) and is corrected by one where floor(a
    10^(16-E)) falls outside [10^16, 10^17); a D that rounds up to 10^17 is
    renormalised to 10^16 with E + 1.  The product a 10^s is carried as
    the exact p + err of w hi plus w lo, so the computed value is within
    1e-14 of a unit in the 17th digit: hi + lo is within 2^-105 of
    10^s 2^-k, which moves a product below 2^57 by less than 2^-48, and
    rounding w lo and err + w lo adds less than 2^-48 more.  Outside a
    1e-9 window around a rounding tie the direction is therefore certain;
    values inside the window, exact halfway cases among them, are marked
    inexact for ``'%.17g' % v``."""
    with np.errstate(divide="ignore"):
        e = np.floor(np.log10(a)).astype(np.int64)
    low, frac = _scaled(a, e)
    wrong = (low < 10**16) | (low >= 10**17)
    if wrong.any():
        e[wrong] += np.where(low[wrong] < 10**16, -1, 1)
        low[wrong], frac[wrong] = _scaled(a[wrong], e[wrong])
    d = low + (frac > 0.5)
    top = d == 10**17
    d[top] = 10**16
    e += top
    return d, e, np.abs(frac - 0.5) >= _TIE_WINDOW


@functools.cache
def _text_tables():
    """Tables of ``text``, built on first use.  A 24-byte string is
    three little-endian uint64 words, byte j in word j // 8.

    * ``quads``: the four ASCII digits of each integer below 10^4, the
      first digit in the low byte;
    * ``low``: per count c = 0 .. 24, the three words that keep bytes
      [0, c);
    * ``gap``: the bytes inserted into the digits: none (row 0), a point
      at byte c (row c, 1 .. 17), or "0." and the zeros of 0.000ddd ahead
      of the digits (row 17 - E, E = -1 .. -4);
    * ``exp``: "e+XX" / "e-XXX" at bytes 3 .. 7 of a word, for E = -325
      .. 309 at row E + 325, and an empty last row."""
    q = np.arange(10_000)[:, None] // np.array([1000, 100, 10, 1]) % 10 + ord("0")
    quads = (q.astype(np.uint64) << np.arange(0, 32, 8, dtype=np.uint64)).sum(axis=1)

    def words(strings):
        raw = b"".join(s.ljust(24, b"\0") for s in strings)
        return np.frombuffer(raw, dtype="<u8").reshape(-1, 3).T.copy()

    low = words(b"\xff" * c for c in range(25))
    gap = words([b""] + [b"\0" * c + b"." for c in range(1, 18)]
                + [b"0." + b"0" * (-e - 1) for e in (-1, -2, -3, -4)])
    exp = np.array([int.from_bytes(b"e%+03d" % e, "little") << 24 for e in range(-325, 310)]
                   + [0], dtype=np.uint64)
    return quads, low, gap, exp


def text(col: np.ndarray, out: np.ndarray):
    """Write the ``'%.17g' % v`` text of each value of ``col`` into ``out``,
    four uint64 words per value, absent bytes 0: a sign word ("-" in its
    last byte, its first byte left free for the separator ahead of the
    value), then a 24-byte string, byte j in word 1 + j // 8:

        digits, a point after the first E + 1   (0 <= E < 17)
        0. zeros of 0.000ddd digits              (-4 <= E < 0)
        d.ddd in bytes 0 .. 17, e+XX in 19 .. 23 (otherwise)

    Trailing fraction zeros and a point with nothing after it are absent,
    as ``%g`` drops them.  Non-finite values and near-ties take Python's
    own text."""
    quads, low, gap, exp = _text_tables()
    a = np.abs(col)
    out[:, 0] = np.signbit(col) * np.uint64(ord("-") << 56)
    out[:, 1] = (a == 0) * np.uint64(ord("0"))
    out[:, 2:] = 0
    # only the finite non-zero values go through the digits
    regular = np.flatnonzero((a > 0) & (a < math.inf))
    d, e, exact = digits(a[regular])
    # digit i at byte i: d0 .. d7 (q0) in x[0], d8 .. d15 (q1) in x[1], d16 in x[2]
    q0 = d // 10**9
    q1 = (d - q0 * 10**9) // 10
    d16 = d - q0 * 10**9 - q1 * 10
    x = []
    for q in (q0, q1):
        top = q // 10_000
        x.append(quads[top] | (quads[q - top * 10_000] << np.uint64(32)))
    x.append(d16.astype(np.uint64) + np.uint64(ord("0")))
    # bytes up to the last non-zero digit, from the bit length of the
    # string with "0" -> 0 held in a float: its top bytes are at most 9,
    # so rounding cannot carry it to the next power of two
    string = (d16 * 2.0**128 + (x[1] ^ _ZEROS).astype(float) * 2.0**64
              + (x[0] ^ _ZEROS).astype(float))
    significant = (np.frexp(string)[1] + 7) >> 3
    fixed = (e >= -4) & (e < 17)
    small = (e >= -4) & (e < 0)
    lead = np.where(fixed, np.maximum(e + 1, 0), 1)  # digits before the point
    keep = np.maximum(significant, lead)
    x = [w & m[keep] for w, m in zip(x, low)]
    # open a gap at byte ``lead``: one byte for the point, or 1 - E bytes
    # at byte 0 for "0." and the zeros
    below = [w & m[lead] for w, m in zip(x, low)]
    above = [w ^ b for w, b in zip(x, below)]
    up = np.where(small, 8 - 8 * e, 8).astype(np.uint64)
    down = np.uint64(64) - up
    above = [above[0] << up, (above[1] << up) | (above[0] >> down),
             (above[2] << up) | (above[1] >> down)]
    row = np.where(small, 17 - e, (keep > lead) * lead)
    x = [b | u | g[row] for b, u, g in zip(below, above, gap)]
    x[2] |= exp[np.where(fixed, len(exp) - 1, e + 325)]
    for j, w in enumerate(x, 1):
        out[regular, j] = w
    redo = ~np.isfinite(a)
    redo[regular] = ~exact
    for i in np.flatnonzero(redo).tolist():
        value = ("%.17g" % col[i]).encode("ascii")
        out[i] = 0
        out[i, 1:].view(np.uint8)[:len(value)] = np.frombuffer(value, dtype=np.uint8)
