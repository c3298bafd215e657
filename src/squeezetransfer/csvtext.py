"""The text of Python's ``'%.17g' % v`` for a whole float64 array at once.

Each value gets a row of WIDTH bytes: its ASCII characters in order, with
zero bytes in the slots it does not use, so ``row[row != 0]`` is its text.

The digits come from whole-array arithmetic: the decimal exponent e from
log10, then |v| * 10**(16 - e) as a double-double (an exact Dekker product
of |v| with a hi/lo pair for the power of ten, plus the low-part product),
rounded to a 17-digit integer.  The double-double is within about 1e-13 of
the exact product, so the rounding is proven whenever the fraction is
farther than TIE_WINDOW from one half.  A value that is not proven (a near
tie, or |v| outside [MIN_PROVEN, MAX_PROVEN), where the power table or the
split could leave the normal range) is formatted by ``'%.17g' %`` itself, so
every row is exact.  This is Grisu3's idea (Loitsch, "Printing
floating-point numbers quickly and accurately with integers", PLDI 2010): a
fast path that checks its own rounding.

The layout is table-driven.  Each value's 17 digits are written from a
4-digit table into fixed slots, once in place (X) and once shifted right by
one slot (Y), past a decimal point.  A key per value (sign, %g notation,
exponent and significant digits) selects masks of X and Y and a row of
constant characters (sign, "0.000" prefix, point, "e+", "nan", "inf").
"""

from __future__ import annotations

import functools
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

# Slots of a row.  X holds digit j at _DIGIT + j and the exponent's last
# three digits at 29-31; Y is X one slot to the right.
_DIGIT = 7
_EXP_DIGITS = 29
# Keys: fixed notation for e in [-4, 16] (by e and significant digits),
# then d.ddd notation (by significant digits, exponent sign and 3-digit
# exponent), then zero, inf and nan; plus _KINDS for a negative sign.
_FIXED_KINDS = 21 * 17
_ZERO, _INF, _NAN = range(_FIXED_KINDS + 17 * 4, _FIXED_KINDS + 17 * 4 + 3)
_KINDS = _NAN + 1


def _layouts() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (X mask, Y mask, constants) rows of every key: three (2 * _KINDS,
    WIDTH) uint8 arrays, derived for all keys at once by broadcasting each
    kind's (sign, notation, e, sig) against the slots of a row."""
    kind, slot = np.arange(_KINDS)[:, None], np.arange(WIDTH)
    fixed = kind < _FIXED_KINDS
    expo = ~fixed & (kind < _ZERO)
    e = kind // 17 - 4  # of fixed notation
    sig = np.where(fixed, kind % 17, (kind - _FIXED_KINDS) // 4) + 1
    # d.ddd notation: bit 1 of rest is a negative exponent, bit 0 three exponent digits
    rest = (kind - _FIXED_KINDS) % 4
    small = fixed & (e < 0)  # "0.000ddd"
    point = np.where(fixed, e + 1, 1)  # digits before the point
    digit = (fixed | expo) & (slot >= _DIGIT)
    x = digit & (slot < _DIGIT + np.where(small, sig, point))
    x |= expo & (slot >= _EXP_DIGITS + 1 - rest % 2)
    fraction = digit & ~small & (sig > point)  # trailing zeros before the point stay
    y = fraction & (slot > _DIGIT + point) & (slot <= _DIGIT + sig)
    const = np.select(
        [small & ((slot == _DIGIT - 5) | (slot >= _DIGIT - 3) & (slot < _DIGIT - 4 - e)),
         small & (slot == _DIGIT - 4) | fraction & (slot == _DIGIT + point),
         expo & (slot == 25),
         expo & (slot == 26)],
        [ord("0"), ord("."), ord("e"), np.where(rest & 2, ord("-"), ord("+"))],
    ).astype(np.uint8)
    for k, text in ((_ZERO, b"0"), (_INF, b"inf"), (_NAN, b"nan")):
        const[k, _DIGIT:_DIGIT + len(text)] = np.frombuffer(text, np.uint8)
    negative = const.copy()
    negative[:_NAN, 0] = ord("-")  # _NAN is the last kind
    masks = (np.concatenate([m, m]).astype(np.uint8) * 0xFF for m in (x, y))
    return *masks, np.concatenate([const, negative])


class _Tables(NamedTuple):
    power_hi: np.ndarray  # hi + lo of 10**(16 - e), indexed by e - _E_MIN, within
    power_lo: np.ndarray  # 2**-106 relative (int-to-float and int / int round correctly)
    words: np.ndarray  # ASCII of 0..9999 as uint32 words
    zeros: np.ndarray  # trailing zero digits of 0..9999 (4 for 0)
    kind_base: np.ndarray  # a value's kind is kind_base[e] + kind_step[e] * (digits - 1),
    kind_step: np.ndarray  # indexed by e - _E_MIN
    x_mask: np.ndarray  # per key: the slots taken from X,
    y_mask: np.ndarray  # from Y,
    const: np.ndarray  # and the constant characters


@functools.cache
def _tables() -> _Tables:
    """Built on first use: the powers of ten with exact integer arithmetic,
    the rest with array arithmetic."""
    hi, lo = [], []
    for e in range(_E_MIN, _E_MAX + 1):
        p = 16 - e
        if p >= 0:
            h = float(10**p)
            lo.append(float(10**p - int(h)))
        else:
            q = 10**-p
            h = 1 / q
            num, den = h.as_integer_ratio()  # 1/q - num/den = (den - num*q) / (den*q)
            lo.append((den - num * q) / (den * q))
        hi.append(h)
    i = np.arange(10000, dtype=np.int16)[:, None]
    words = (i // np.array([1000, 100, 10, 1], np.int16) % 10 + ord("0")).astype(np.uint8)
    words = words.view(np.uint32).ravel()
    zeros = (i % np.array([10, 100, 1000, 10000], np.int16) == 0).sum(axis=1)
    e = np.arange(_E_MIN, _E_MAX + 2)
    fixed = (e >= -4) & (e < 17)
    kind_base = np.where(fixed, (e + 4) * 17, _FIXED_KINDS + 2 * (e < 0) + (abs(e) >= 100))
    kind_step = np.where(fixed, 1, 4)
    x, y, const = _layouts()
    return _Tables(np.array(hi), np.array(lo), words, zeros, kind_base, kind_step, x, y, const)


def _split(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = _SPLIT * a
    high = c - (c - a)
    return high, a - high


def _scaled(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """floor(a * 10**(16 - e)) as int64 and the fraction above it, for
    MIN_PROVEN <= a < MAX_PROVEN."""
    tables = _tables()
    ph, pl = tables.power_hi.take(e - _E_MIN), tables.power_lo.take(e - _E_MIN)
    prod = a * ph
    ah, al = _split(a)
    bh, bl = _split(ph)
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
    values = np.asarray(values, dtype=np.float64)
    v = values.ravel()
    n = v.size
    tables = _tables()
    words, zeros = tables.words, tables.zeros
    a = np.abs(v)
    nan, inf, zero = np.isnan(v), np.isinf(v), a == 0
    proven = (a >= MIN_PROVEN) & (a < MAX_PROVEN)

    # The exponent from log10 can be one off near a power of ten; redo just
    # those values with it moved until 10**16 <= |v| * 10**(16 - e) < 10**17.
    ap = np.where(proven, a, 1.0)
    e = np.floor(np.log10(ap)).astype(np.int64)
    floor, frac = _scaled(ap, e)
    for _ in range(2):
        moved = (floor >= _TEN17).astype(np.int64) - (floor < _TEN16)
        redo = np.flatnonzero(moved)
        if not redo.size:
            break
        e[redo] += moved[redo]
        floor[redo], frac[redo] = _scaled(ap[redo], e[redo])
    settled = (floor >= _TEN16) & (floor < _TEN17)
    digits = floor + (frac > 0.5)  # half-even is moot: near ties fall back
    carry = digits == _TEN17
    digits[carry], e[carry] = _TEN16, e[carry] + 1

    # The leading digit and four 4-digit groups, as ASCII words of X.
    q4, q8, q12, lead = (digits // 10**k for k in (4, 8, 12, 16))
    groups = (q12 - lead * 10**4, q8 - q12 * 10**4, q4 - q8 * 10**4, digits - q4 * 10**4)
    x = np.zeros((n, WIDTH // 4), np.uint32)
    x[:, 1] = words.take(lead)
    for i, group in enumerate(groups):
        x[:, 2 + i] = words.take(group)
    x[:, 7] = words.take(np.minimum(np.abs(e), 9999))
    x = x.view(np.uint8)
    y = np.zeros_like(x)
    y.ravel()[1:] = x.ravel()[:-1]

    g1, g2, g3, g4 = groups
    trailing = zeros.take(g4) + (g4 == 0) * (
        zeros.take(g3) + (g3 == 0) * (zeros.take(g2) + (g2 == 0) * zeros.take(g1))
    )
    sig = 16 - trailing
    kind = tables.kind_base.take(e - _E_MIN) + tables.kind_step.take(e - _E_MIN) * sig
    kind[zero], kind[inf], kind[nan] = _ZERO, _INF, _NAN
    key = kind + _KINDS * np.signbit(v)
    out = x & tables.x_mask.take(key, axis=0)
    out |= y & tables.y_mask.take(key, axis=0)
    out |= tables.const.take(key, axis=0)

    special = nan | inf | zero
    unproven = ~special & (~proven | ~settled | (np.abs(frac - 0.5) < TIE_WINDOW))
    if unproven.any():
        _fallback(v, out, np.flatnonzero(unproven))
    return out.reshape(values.shape + (WIDTH,))


def _fallback(v: np.ndarray, out: np.ndarray, rows: np.ndarray) -> None:
    """Python's own '%.17g' text for the rows the fast path did not prove."""
    text = b"".join((b"%.17g" % x).ljust(WIDTH, b"\0") for x in v[rows].tolist())
    out[rows] = np.frombuffer(text, np.uint8).reshape(-1, WIDTH)
