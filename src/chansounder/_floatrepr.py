"""CPython's ``repr`` of every float64 of an array, computed with numpy.

The digits are Schubfach's (R. Giulietti, "The Schubfach way to render
doubles", 2020; Java's ``DoubleToDecimal``) with two deviations that give
Python's digits: the one-digit-shorter candidate is tried for every
significand, not only from 100 up (Java keeps two digits: 8e-323 would
read 7.9e-323), and subnormals are not scaled by ten (Java's ``C_TINY``).
Arithmetic is on uint64 arrays; the value's two 128-bit products, from
32-bit limbs, serve both ends of the rounding interval as in Ryū's
``mulShiftAll64`` (Adams, PLDI 2018): each end adds or subtracts
``g 2^(h+1)`` (``g 2^h`` at irregular spacing) with one carry, which gives
exactly the words of Schubfach's three products.

The text is CPython's ``'r'`` format (positional for -4 < decpt <= 16, with
``.0`` on whole numbers, else ``d[.ddd]e±XX``) in fixed, NUL-padded fields
of four little-endian words per value: sign and leading zeros; digits and
'.' (masks keyed by layout class and count of significant digits); the
exponent; the separator.  Deleting the NULs of the rows leaves the text.
"""

from __future__ import annotations

import functools

import numpy as np

_U64 = np.uint64
_M32 = _U64(2**32 - 1)
_M52 = _U64(2**52 - 1)
_M63 = _U64(2**63 - 1)
# decpt table indices of nan and inf, each up to 18 above
_NAN = 700
_INF = 720
# the first digit of each four-digit group, in the high half
_GROUP_AT = np.array([[4], [12], [0], [8], [16]], dtype=np.int64) << 32


@functools.cache
def _tables():
    """Built on first use.  Per index ``2 biased exponent + (significand
    bits == 0)``: the limbs of g1 and g0, g = g1 2^63 + g0 = floor(10^-k
    2^(125 - e)) + 1, e = floor(log2(10^-k)); c's shift and hidden bit;
    k + 324; per interval end, the words above and below 2^63 of ``g1
    2^(s-1) + floor(g0 2^s / 2^64)`` and ``~(g0 2^s)``, the lower end's
    negated (zero, nan and inf have g = 0).  Per decpt + 324, the class
    and exponent; per sign, class and count of significant digits, the
    prefix and text masks.  Per four digits, their ASCII and the place
    after the last nonzero one; per float64 exponent of an integer, its
    least count of digits and the power of ten past it."""
    g, e = [], []
    for k in range(-324, 293):
        p = 10 ** abs(k)
        e.append(p.bit_length() - 1 if k <= 0 else -p.bit_length())
        g.append((p << 125 >> e[-1] if k <= 0 else (1 << 125 - e[-1]) // p) + 1)
    # value = c 2^q, subnormals sharing the exponent of biased exponent 1;
    # k = floor(log10(2^q)), or floor(log10(3/4 2^q)) for irregular spacing,
    # by Java's fixed-point logarithms (exact over this range)
    index = np.arange(4096)
    biased = index >> 1
    irregular = index & 1 & (index > 3)
    q = np.maximum(biased, 1) - 1075
    k = (q * 661_971_961_083 - irregular * 274_743_187_321) >> 41
    h = q + np.array(e)[k + 324] + 2
    g1, g0 = np.array([(x >> 63, x & 2**63 - 1) for x in g], dtype=_U64)[k + 324].T
    g1[[1, 4094, 4095]] = 0  # zero, nan, inf
    g0[[1, 4094, 4095]] = 0
    kidx = k + 324
    kidx[[1, 4094, 4095]] = 325, _NAN, _INF
    ends = []
    for s in (h + 1 - irregular).astype(_U64), (h + 1).astype(_U64):
        low = (g1 << s - _U64(1) & _M63) + (g0 >> _U64(64) - s)
        ends += [(g1 >> _U64(64) - s) + (low >> _U64(63)), low & _M63, g0 << s]
    # the lower end's words negated: its borrow is one less the carry
    ends = [~ends[0], _M63 - ends[1], ends[2] - _U64(1), ends[3], ends[4], ~ends[5]]
    rows = [g0 >> _U64(32), g1 >> _U64(32), g0 & _M32, g1 & _M32, h + 2, (biased > 0) << 52, kidx]
    table = np.array(rows + ends, dtype=_U64)

    # classes: 0 scientific, z = 1..4 for 1 - decpt leading zeros, 4 + p
    # for a '.' after p = 1..16 digits, 21 nan, 22 inf
    cls = [1 - x if -4 < x <= 0 else 4 + x if 0 < x <= 16 else 0 for x in range(-324, _NAN - 324)]
    cls += [21] * (_INF - _NAN) + [22] * 20
    suffix = [int.from_bytes(b"\0\0" + b"e%+03d" % (i - 325), "little") * (c == 0) for i, c in enumerate(cls)]
    # per class and count of significant digits (0 read as zero's 1): the
    # place of the '.' (17 for none) and the length of the text
    c, shown = np.divmod(np.arange(23 * 18), 18)
    shown = np.maximum(shown, 1)
    places = [c == 0, c <= 4, c <= 20]
    point = np.select(places, [1, 17, c - 4])[:, None]
    positional = np.maximum(shown, c - 4) + 1 + (c - 4 >= shown)
    size = np.select(places, [shown + (shown > 1), shown, positional])[:, None]
    at = np.arange(24)
    const = np.where((at == point) & (point < size), ord("."), 0)
    const[c == 21, :3] = list(b"nan")
    const[c == 22, :3] = list(b"inf")
    masks = np.stack([(at < np.minimum(point, size)) * 255, ((point < at) & (at < size)) * 255, const])
    masks = np.tile(masks.astype(np.uint8).view("<u8").transpose(0, 2, 1), 2).astype(_U64)
    pre = [b"-" * (neg and z != 21) + (b"0." + b"0" * (z - 1)) * (1 <= z <= 4) for neg, z in np.ndindex(2, 23)]
    # four digits, first digit first; the place after the last nonzero one
    four = np.arange(10_000) // 10 ** np.arange(3, -1, -1)[:, None] % 10
    last = np.where(four.any(axis=0), (np.arange(1, 5)[:, None] * (four != 0)).max(axis=0), -99)
    group = ((last << 32) + ((four + 0x30) << 8 * np.arange(4)[:, None]).sum(axis=0)).view(_U64)
    pre = np.repeat(np.array([int.from_bytes(x, "little") for x in pre], dtype=_U64), 18)
    least = np.array([len(str(2 ** (x - 1023))) if x >= 1023 else 0 for x in range(1081)])
    digits = np.array([least, 10**least], dtype=_U64)
    scale = 10 ** (17 - np.arange(18, dtype=_U64))
    return table, np.array(cls) * 18, np.array(suffix, dtype=_U64), pre, masks, group, digits, scale


def _product(gh: np.ndarray, gl: np.ndarray, ch: np.ndarray, cl: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The high and low words of ``(gh 2^32 + gl)(ch 2^32 + cl)``; gh is
    below 2^31 and ch below 2^28, so no sum overflows."""
    p = gl * cl
    m = gh * cl
    m += gl * ch
    low = m << _U64(32)
    low += p
    p >>= _U64(32)
    p += m
    p >>= _U64(32)
    p += gh * ch
    return p, low


def _end(vh: np.ndarray, vl: np.ndarray, x0: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Schubfach's round-to-odd product at an end of the rounding interval:
    (vh, vl) plus the end's words (dh, dl, a) and the carry of ``x0 + ~a``."""
    dh, dl, a = end
    t = vl + dl
    t += x0 > a
    v = vh + dh
    v += t >> _U64(63)
    v |= t << _U64(1) != _U64(0)
    return v


def _decimal(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Schubfach's digits of float64 bits (0 for zero, inf and nan), and
    the table index of their decimal exponent."""
    table = _tables()[0]
    c = bits & _M52
    idx = bits >> _U64(51) & _U64(0xFFE) | (c == _U64(0))
    g = np.take(table[:7], idx, axis=1)
    dix = g[6].astype(np.int64)
    c |= g[5]
    c <<= g[4]
    ch = c >> _U64(32)
    c &= _M32
    x1, x0 = _product(g[0], g[2], ch, c)
    vb, vl = _product(g[1], g[3], ch, c)
    del g, c, ch
    # Schubfach's g cp / 2^127 before rounding to odd, above and below 2^63
    vl >>= _U64(1)
    vl += x1
    vb += vl >> _U64(63)
    vl &= _M63
    # both ends add the table's words (the lower end's negated: its borrow is one less the carry)
    ends = np.take(table[7:], idx, axis=1)
    vbl = _end(vb, vl, x0, ends[:3])
    vbr = _end(vb, vl, x0, ends[3:])
    del ends, x0, x1
    vb |= vl != _U64(0)
    out = bits & _U64(1)
    vbl += out
    vbr -= out
    # the shorter candidates sp10 and sp10 + 10, then s and s + 1, are in
    # the interval when above vbl or at most vbr
    s = vb >> _U64(2)
    sp10 = s // _U64(10) * _U64(10)
    upin = vbl <= sp10 << _U64(2)
    wpin = (sp10 << _U64(2)) + _U64(40) <= vbr
    below = vbl > s << _U64(2)
    win = (s << _U64(2)) + _U64(4) <= vbr
    # a tie rounds to the even digit: up for vb mod 8 in 3, 6, 7
    tie = _U64(0xC8) >> (vb & _U64(7)) & _U64(1) != _U64(0)
    s += below & win | tie & (below | win)
    sp10 += wpin.view(np.uint8) * np.uint8(10)
    return np.where(upin != wpin, sp10, s), dix


def _digits(d: np.ndarray, dix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 17 digits of each ``d`` as ASCII in three little-endian words
    (digits 0-7, 8-15, 16 and '0's), and how many are significant (0 for
    zero); adds the count of digits to ``dix``."""
    *_, group, digits, scale = _tables()
    # the count of digits: the float64 exponent gives the least count,
    # and one more from the power of ten past it
    nd = np.take(digits, (d.astype(np.float64).view(_U64) >> _U64(52)).view(np.int64), axis=1)
    nd[0] += d >= nd[1]
    dix += nd[0].view(np.int64)
    d *= np.take(scale, nd[0])
    # four-digit groups: digits 4-7, 12-15, 0-3, 8-11, and 16 times 1000
    q = np.empty((5, len(d)), dtype=_U64)
    np.floor_divide(d, _U64(10), out=q[4])
    d -= q[4] * _U64(10)
    np.floor_divide(q[4], _U64(10**8), out=q[0])
    np.subtract(q[4], q[0] * _U64(10**8), out=q[1])
    np.multiply(d, _U64(1000), out=q[4])
    np.floor_divide(q[:2], _U64(10**4), out=q[2:4])
    q[:2] -= q[2:4] * _U64(10**4)
    q = np.take(group, q.view(np.int64))
    text = np.empty((3, q.shape[1]), dtype=_U64)
    np.left_shift(q[:2], _U64(32), out=text[:2])
    text[:2] |= q[2:4] & _M32
    np.bitwise_and(q[4], _M32, out=text[2])
    # significant: up to the last nonzero digit
    q = q.view(np.int64)
    q += _GROUP_AT
    shown = q.max(axis=0) >> np.int64(32)
    return text, np.maximum(shown, np.int64(0), out=shown)


def reprs(values: np.ndarray, seps: np.ndarray) -> bytes:
    """``repr`` of each value of the 1-D ``values`` as float64, each
    followed by its separator byte from ``seps`` (never NUL), as ASCII."""
    _, cls, suffix, pre, masks, *_ = _tables()
    bits = np.ascontiguousarray(values, dtype=np.float64).view(_U64)
    d, dix = _decimal(bits)
    text, shown = _digits(d, dix)
    del d
    key = np.take(cls, dix) + shown
    key += (bits >> _U64(63)).view(np.int64) * (len(pre) // 2)
    rows = np.empty((len(bits), 4), dtype="<u8")
    np.take(pre, key, out=rows[:, 0], mode="clip")
    moved = text << _U64(8)
    moved[1:] |= text[:-1] >> _U64(56)
    # the text words: digits before the '.', the '.', digits moved up a byte
    out = rows[:, 1:].T
    mask = np.empty_like(text)
    np.take(masks[0], key, axis=1, out=mask, mode="clip")
    np.bitwise_and(text, mask, out=out)
    del text
    np.take(masks[1], key, axis=1, out=mask, mode="clip")
    moved &= mask
    out |= moved
    np.take(masks[2], key, axis=1, out=mask, mode="clip")
    out |= mask
    del moved, mask, out
    rows[:, 3] |= np.take(suffix, dix) | seps.astype(_U64) << _U64(56)
    return rows.tobytes().translate(None, b"\0")
