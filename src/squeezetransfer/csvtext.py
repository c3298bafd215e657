"""Python's ``'%.17g' % v`` (``g17_text``), or JSON's ``float.__repr__``
(``json_text``), for a whole float64 array at once.

Each value gets a row of WIDTH bytes: its ASCII characters in order, with
zero bytes in the slots it does not use, so ``row[row != 0]`` is its text.

The digits come from whole-array arithmetic: the decimal exponent e from
log10, then |v| * 10**(16 - e) as a double-double (an exact Dekker product
of |v| with a hi/lo pair for the power of ten, plus the low-part product):
a 17-digit integer and a fraction, within about 1e-13 of the exact product.
A decision on it is proven when the exact product is farther than
TIE_WINDOW from where the decision changes.  A value that is not proven, or
|v| outside [MIN_PROVEN, MAX_PROVEN) (where the power table or the split
could leave the normal range), is formatted by Python itself, so every row
is exact.  This is Grisu3's idea (Loitsch, "Printing floating-point numbers
quickly and accurately with integers", PLDI 2010): a fast path that checks
its own rounding.

g17_text rounds the product to 17 digits.  json_text takes repr's shortest
digits, as Ryu does (Adams, PLDI 2018): scaled, the value's rounding
interval (half an ulp either side, the lower half-gap halved at a power of
two) is 1.1 to 22.2 wide, and repr's digits are the integer in it with the
most trailing zeros, the nearest to the product if several tie.  With b
the highest integer inside and n the number of integers inside: if b's
last two digits are below n, that is b less them (the only multiple of 100
inside); else it is the multiple of 10, or the integer, nearest to the
product.  An interval end or a choice too close to call falls back.

The layout is table-driven.  Each value's 17 digits are written from a
4-digit table into fixed slots, once in place (X) and once shifted right by
one slot (Y), past a decimal point.  A kind per value (notation, exponent
and significant digits) selects masks of X and Y and a row of constant
characters ("0.000" prefix, point, ".0", "e+", "nan", "Infinity"); a
negative sign goes in slot 0.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

WIDTH = 32
MIN_PROVEN, MAX_PROVEN = 1e-250, 1e250
# The double-double is within 1e-13 of the exact product; a wider window only
# sends more values to the fallback (1e-6 would send about 2 in a million).
TIE_WINDOW = 1e-9
_E_MIN, _E_MAX = -252, 251  # decimal exponents of the proven range, with room to move
_SPLIT = 134217729.0  # 2**27 + 1, Veltkamp's splitting constant
_TEN16, _TEN17 = 10**16, 10**17
_EXPONENT_BITS, _MANTISSA_BITS = np.uint64(0x7FF << 52), np.uint64((1 << 52) - 1)

# Slots of a row.  X holds digit j at _DIGIT + j and the exponent's last
# three digits at 29-31; Y is X one slot to the right.
_DIGIT = 7
_EXP_DIGITS = 29
# Kinds: fixed notation for e in [-4, 16] (by e and significant digits),
# then d.ddd notation (by significant digits, exponent sign and 3-digit
# exponent), then zero, inf and nan; then repr's integers in fixed notation,
# with ".0" (by e in [0, 15]), and JSON's zero, inf and nan.
_FIXED_KINDS = 21 * 17
_ZERO, _INF, _NAN = range(_FIXED_KINDS + 17 * 4, _FIXED_KINDS + 17 * 4 + 3)
_WHOLE = _NAN + 1
_JSON_ZERO, _JSON_INF, _JSON_NAN = range(_WHOLE + 16, _WHOLE + 19)
_KINDS = _JSON_NAN + 1


def _layouts() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (X mask, Y mask, constants) rows of every kind: three (_KINDS,
    WIDTH) uint8 arrays, filled a run of slots at a time over every kind that
    shares it."""
    x, y, const = np.zeros((3, _KINDS, WIDTH), np.uint8)
    # Fixed notation, by e + 4 and significant digits - 1.
    fx, fy, fc = (t[:_FIXED_KINDS].reshape(21, 17, WIDTH) for t in (x, y, const))
    for e in range(-4, 0):  # "0.000ddd"
        fc[e + 4, :, _DIGIT - 5:_DIGIT - 3] = ord("0"), ord(".")
        fc[e + 4, :, _DIGIT - 3:_DIGIT - 4 - e] = ord("0")
    for s in range(17):
        fx[:4, s, _DIGIT:_DIGIT + s + 1] = 0xFF
    for point in range(1, 18):  # e + 1 digits before the point; trailing zeros there stay
        fx[point + 3, :, _DIGIT:_DIGIT + point] = 0xFF
        fy[point + 3, :, _DIGIT + point + 1:] = 0xFF
        fc[point + 3, point:, _DIGIT + point] = ord(".")  # more digits than the point's
    for s in range(17):  # Y ends at the last significant digit
        fy[4:, s, _DIGIT + s + 2:] = 0
    # d.ddd notation, by significant digits - 1 and rest: bit 1 is a negative
    # exponent, bit 0 three exponent digits.
    ex, ey, ec = (t[_FIXED_KINDS:_ZERO].reshape(17, 4, WIDTH) for t in (x, y, const))
    ex[:, :, _DIGIT] = 0xFF
    ex[:, 1::2, _EXP_DIGITS:] = 0xFF
    ex[:, ::2, _EXP_DIGITS + 1:] = 0xFF
    for s in range(1, 17):
        ey[s, :, _DIGIT + 2:_DIGIT + s + 2] = 0xFF
    ec[1:, :, _DIGIT + 1] = ord(".")
    ec[:, :, 25] = ord("e")
    ec[:, :2, 26], ec[:, 2:, 26] = ord("+"), ord("-")
    for point in range(1, 17):  # repr's integers: e + 1 digits, then ".0"
        x[_WHOLE + point - 1, _DIGIT:_DIGIT + point] = 0xFF
        const[_WHOLE + point - 1, _DIGIT + point:_DIGIT + point + 2] = ord("."), ord("0")
    for k, text in ((_ZERO, b"0"), (_INF, b"inf"), (_NAN, b"nan"),
                    (_JSON_ZERO, b"0.0"), (_JSON_INF, b"Infinity"), (_JSON_NAN, b"null")):
        const[k, _DIGIT:_DIGIT + len(text)] = np.frombuffer(text, np.uint8)
    return x, y, const


class _Tables(NamedTuple):
    powers: np.ndarray  # (4, exponents), by e - _E_MIN: see _powers, which fills it
    filled: list  # [lo, hi], the exponents filled so far (none while lo > hi)
    words: np.ndarray  # ASCII of 0..9999 as uint32 words
    zeros: np.ndarray  # trailing zero digits of 0..9999 (4 for 0)
    kinds: np.ndarray  # a value's kind, at (e - _E_MIN) * 17 + significant digits - 1
    json_kinds: np.ndarray  # the same for repr
    x_mask: np.ndarray  # per kind: the slots taken from X,
    y_mask: np.ndarray  # from Y,
    const: np.ndarray  # and the constant characters


@functools.cache
def _tables() -> _Tables:
    """Built on first use, from slices and broadcasts; the powers of ten are
    filled later by _powers, for the exponents that values need."""
    powers = np.zeros((4, _E_MAX - _E_MIN + 1))
    digits = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    words = np.empty((10, 10, 10, 10, 4), np.uint8)
    for k in range(4):  # digit k of 0..9999, the thousands first
        words[..., k] = digits.reshape((10,) + (1,) * (3 - k))
    zeros = np.zeros((10, 10, 10, 10), np.int64)
    for k in range(1, 5):  # the last k digits are 0
        zeros[(..., *(0,) * k)] = k
    # Rows of e: a carry can move e past _E_MAX.
    kinds = np.empty((_E_MAX + 2 - _E_MIN, 17), np.int64)
    for lo, hi, rest in ((_E_MIN, -99, 3), (-99, 0, 2), (0, 100, 0), (100, _E_MAX + 2, 1)):
        kinds[lo - _E_MIN:hi - _E_MIN] = np.arange(_FIXED_KINDS + rest, _ZERO, 4)
    kinds[-4 - _E_MIN:17 - _E_MIN] = np.arange(_FIXED_KINDS).reshape(21, 17)
    # repr writes e = 16 as d.ddd, and integers with e in [0, 15] with ".0".
    json_kinds = kinds.copy()
    json_kinds[16 - _E_MIN] = kinds[17 - _E_MIN]
    whole = json_kinds[-_E_MIN:16 - _E_MIN]
    whole[np.tri(16, 17, dtype=bool)] = np.repeat(np.arange(_WHOLE, _WHOLE + 16), np.arange(1, 17))
    return _Tables(powers, [1, 0], words.view(np.uint32).ravel(), zeros.ravel(),
                   kinds.ravel(), json_kinds.ravel(), *_layouts())


def _powers(lo: int, hi: int) -> np.ndarray:
    """The power table with at least the exponents lo..hi (within _E_MIN..
    _E_MAX) filled.  Its rows are hi and lo of 10**(16 - e), within 2**-106
    relative (int-to-float and int / int round correctly), and the Veltkamp
    halves of hi."""
    tables = _tables()
    done_lo, done_hi = tables.filled
    lo, hi = max(lo, _E_MIN), min(hi, _E_MAX)
    if done_lo <= lo and hi <= done_hi:
        return tables.powers
    if done_lo <= done_hi:  # the filled exponents stay one range
        lo, hi = min(lo, done_lo), max(hi, done_hi)
    todo = [e for e in range(lo, hi + 1) if not done_lo <= e <= done_hi]
    for e in todo:
        p = 16 - e
        if p >= 0:
            h = float(10**p)
            low = float(10**p - int(h))
        else:
            q = 10**-p
            h = 1 / q
            num, den = h.as_integer_ratio()  # 1/q - num/den = (den - num*q) / (den*q)
            low = (den - num * q) / (den * q)
        tables.powers[:2, e - _E_MIN] = h, low
    i = np.array(todo, dtype=np.intp) - _E_MIN
    tables.powers[2:, i] = _split(tables.powers[0, i])
    tables.filled[:] = lo, hi
    return tables.powers


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = _SPLIT * a
    high = c - (c - a)
    return high, a - high


def _scaled(a: np.ndarray, e: np.ndarray, powers: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """floor(a * 10**(16 - e)) as int64 and the fraction above it, for
    MIN_PROVEN <= a < MAX_PROVEN, with the powers of e filled."""
    i = e - _E_MIN
    ph, pl, bh, bl = (row.take(i) for row in powers)
    prod = a * ph
    ah, al = _split(a)
    err = ((ah * bh - prod) + ah * bl + al * bh) + al * bl  # a*ph == prod + err exactly
    tail = err + a * pl
    high = prod + tail
    low = tail - (high - prod)  # |prod| >= |tail|, so high + low == prod + tail exactly
    whole = np.floor(high)
    rest = (high - whole) + low
    below = np.floor(rest)
    return whole.astype(np.int64) + below.astype(np.int64), rest - below


def g17_text(values: np.ndarray) -> np.ndarray:
    """values.shape + (WIDTH,) uint8 rows: row[row != 0] is the ASCII of
    '%.17g' % v for each value v."""
    return _encode(values, shortest=False)


def json_text(values: np.ndarray) -> np.ndarray:
    """values.shape + (WIDTH,) uint8 rows: row[row != 0] is the ASCII of
    float.__repr__(v) for each finite value v, and null, Infinity or
    -Infinity for nan, inf and -inf."""
    return _encode(values, shortest=True)


def _shortest(
    a: np.ndarray, e: np.ndarray, floor: np.ndarray, frac: np.ndarray, powers: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """repr's digits of each value a, scaled to floor + frac = a * 10**(16 - e),
    as an integer (10**17 after a carry), and where they are not proven."""
    bits = a.view(np.uint64)
    half_ulp = ((bits & _EXPONENT_BITS) - np.uint64(53 << 52)).view(np.float64)
    upper = half_ulp * powers[0].take(e - _E_MIN)  # within 1e-15 of the scaled half-gaps
    lower = np.where(bits & _MANTISSA_BITS, upper, 0.5 * upper)
    high, low = frac + upper, frac - lower
    top, bottom = np.floor(high), np.ceil(low)  # the interval's integers, less floor
    unproven = np.abs(high - top - 0.5) > 0.5 - TIE_WINDOW  # an end that may be an integer
    unproven |= np.abs(bottom - low - 0.5) > 0.5 - TIE_WINDOW
    b = floor + top.astype(np.int64)
    span = (top - bottom + 1).astype(np.int64)
    last2 = b % 100
    hundred = last2 < span
    # Otherwise the multiple of 10 (if any fits) or the integer nearest to
    # the product: one of the two around it, the other if it lies outside.
    tens = b % 10 < span
    step = 1 + 9 * tens
    rest = floor % 10 * tens
    above = rest + frac
    nearest = floor - rest + step * (above > 0.5 * step)
    nearest += step * (nearest < b - span + 1)
    nearest -= step * (nearest > b)
    unproven |= (np.abs(above - 0.5 * step) < TIE_WINDOW) & ~hundred
    return np.where(hundred, b - last2, nearest), unproven


def _encode(values: np.ndarray, shortest: bool) -> np.ndarray:
    """g17_text, or json_text if shortest."""
    values = np.asarray(values, dtype=np.float64)
    v = values.ravel()
    n = v.size
    if not n:
        return np.zeros(values.shape + (WIDTH,), np.uint8)
    tables = _tables()
    words = tables.words
    a = np.abs(v)
    smallest, largest = a.min(), a.max()
    every = MIN_PROVEN <= smallest and largest < MAX_PROVEN  # no 0, inf, nan or unproven range
    if not every:
        proven = (a >= MIN_PROVEN) & (a < MAX_PROVEN)
        ap = np.where(proven, a, 1.0)
        smallest, largest = ap.min(), ap.max()
    else:
        ap = a

    # The exponent from log10 can be one off near a power of ten; redo just
    # those values with it moved until 10**16 <= |v| * 10**(16 - e) < 10**17.
    # Two moves settle any value; what a third would move falls back.  The
    # exponents that can occur are within two of those of the extremes.
    e = np.floor(np.log10(ap)).astype(np.int64)
    powers = _powers(math.floor(math.log10(smallest)) - 2, math.floor(math.log10(largest)) + 2)
    floor, frac = _scaled(ap, e, powers)
    moves = 0
    while not (_TEN16 <= floor.min() and floor.max() < _TEN17):
        moved = (floor >= _TEN17).astype(np.int64) - (floor < _TEN16)
        unsettled = np.flatnonzero(moved)
        if moves == 2:
            break
        e[unsettled] += moved[unsettled]
        floor[unsettled], frac[unsettled] = _scaled(ap[unsettled], e[unsettled], powers)
        moves += 1
    else:
        unsettled = []
    if shortest:
        digits, unproven = _shortest(ap, e, floor, frac, powers)
        any_unproven = unproven.any()
    else:
        digits = floor + (frac > 0.5)  # half-even is moot: near ties fall back
        near_tie = np.abs(frac - 0.5)
        any_unproven = near_tie.min() < TIE_WINDOW
    any_unproven = any_unproven or len(unsettled) or not every
    if digits.max() >= _TEN17:
        carry = np.flatnonzero(digits == _TEN17)
        digits[carry], e[carry] = _TEN16, e[carry] + 1

    # The leading digit and four 4-digit groups, as ASCII words of X.  Words
    # 0 and 6 of a row are left unwritten: no mask takes their slots.
    q4, q8, q12, lead = (digits // 10**k for k in (4, 8, 12, 16))
    groups = (q12 - lead * 10**4, q8 - q12 * 10**4, q4 - q8 * 10**4, digits - q4 * 10**4)
    x = np.empty((n, WIDTH // 4), np.uint32)
    x[:, 1] = words.take(lead)
    for i, group in enumerate(groups):
        x[:, 2 + i] = words.take(group)
    x[:, 7] = words.take(np.abs(e))
    x = x.view(np.uint8)
    y = np.empty_like(x)
    y.ravel()[1:] = x.ravel()[:-1]

    # Trailing zeros of the 16 digits after the leading one; only a last
    # group of 0000 needs the groups before it.
    trailing = tables.zeros.take(groups[3])
    if trailing.max() == 4:
        rare = np.flatnonzero(trailing == 4)
        z1, z2, z3 = (tables.zeros.take(g[rare]) for g in groups[:3])
        trailing[rare] += z3 + (z3 == 4) * (z2 + (z2 == 4) * z1)
    kinds = tables.json_kinds if shortest else tables.kinds
    kind = kinds.take(e * 17 + (16 - 17 * _E_MIN) - trailing)
    sign = np.signbit(v)
    if not every:
        zero, inf, nan = a == 0, np.isinf(a), np.isnan(a)
        kind[zero], kind[inf], kind[nan] = (
            (_JSON_ZERO, _JSON_INF, _JSON_NAN) if shortest else (_ZERO, _INF, _NAN))
        sign &= ~nan
    out = x & tables.x_mask.take(kind, axis=0)
    out |= y & tables.y_mask.take(kind, axis=0)
    out |= tables.const.take(kind, axis=0)
    np.multiply(sign, np.uint8(ord("-")), out=out[:, 0])
    if any_unproven:
        if not shortest:
            unproven = near_tie < TIE_WINDOW
        unproven[unsettled] = True
        if not every:
            unproven |= ~proven & ~(zero | inf | nan)
        _fallback(v, out, np.flatnonzero(unproven), b"%r" if shortest else b"%.17g")
    return out.reshape(values.shape + (WIDTH,))


def _fallback(v: np.ndarray, out: np.ndarray, rows: np.ndarray, form: bytes) -> None:
    """Python's own text, form % x, for the rows the fast path did not prove."""
    text = b"".join((form % x).ljust(WIDTH, b"\0") for x in v[rows].tolist())
    out[rows] = np.frombuffer(text, np.uint8).reshape(-1, WIDTH)
