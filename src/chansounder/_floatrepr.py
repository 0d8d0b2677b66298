"""CPython's ``repr`` of every float64 of an array, computed with numpy.

The digits are Schubfach's (R. Giulietti, "The Schubfach way to render
doubles", 2020; Java's ``DoubleToDecimal``) with two deviations that give
Python's digits: the one-digit-shorter candidate is tried for every
significand, not only from 100 up (Java keeps two digits: 8e-323 would
read 7.9e-323), and subnormals are not scaled by ten (Java's ``C_TINY``).
Arithmetic is on uint64 arrays, 128-bit products from 32-bit limbs.  The
text is CPython's ``'r'`` format (positional for -4 < decpt <= 16, with
``.0`` on whole numbers, else ``d[.ddd]e±XX``), built in a row of four
little-endian words per value.
"""

from __future__ import annotations

import functools

import numpy as np

_U64 = np.uint64
_POW10 = 10 ** np.arange(18, dtype=_U64)
_EXP0 = 400  # suffix table index of exponent 0; index 0 is no exponent


@functools.cache
def _tables():
    """Built on first use.  Per biased exponent, regular spacing then
    irregular: the decimal exponent k, the shift h and the 32-bit limbs of
    g = g1 2^63 + g0 = floor(10^-k 2^(125 - e)) + 1, e = floor(log2(10^-k)).
    Per n: the first n bytes of a row as a word mask and as booleans, and a
    '.' at byte n.  The prefixes by sign and leading zeros, the exponents."""
    g, e = [], []
    for k in range(-324, 293):
        p = 10 ** abs(k)
        e.append(p.bit_length() - 1 if k <= 0 else -p.bit_length())
        g.append((p << 125 >> e[-1] if k <= 0 else (1 << 125 - e[-1]) // p) + 1)
    # value = c 2^q, subnormals sharing the exponent of biased exponent 1;
    # k = floor(log10(2^q)), or floor(log10(3/4 2^q)) for irregular spacing,
    # by Java's fixed-point logarithms (exact over this range)
    q = np.tile(np.maximum(np.arange(2048), 1) - 1075, 2)
    k = (q * 661_971_961_083 - np.repeat([0, 274_743_187_321], 2048)) >> 41
    h = (q + np.array(e)[k + 324] + 2).astype(_U64)
    g = [g[i] for i in k + 324]
    # high and low 32 bits of g1 = g >> 63, then of g0 = g mod 2^63
    fields = ((95, 2**32 - 1), (63, 2**32 - 1), (32, 2**31 - 1), (0, 2**32 - 1))
    limbs = [np.array([x >> shift & mask for x in g], dtype=_U64) for shift, mask in fields]
    low = [[(1 << 8 * min(max(n - 8 * j, 0), 8)) - 1 for n in range(33)] for j in range(4)]
    pre = [b"-" * neg + (b"0." + b"0" * (z - 1) if z else b"") for neg in (0, 1) for z in range(5)]
    suf = [b""] * (_EXP0 - 324) + [b"e%+03d" % x for x in range(-324, 309)]
    texts = [([int.from_bytes(t, "little") for t in ts], list(map(len, ts))) for ts in (pre, suf)]
    texts = [(np.array(words, dtype=_U64), np.array(sizes)) for words, sizes in texts]
    low = np.array(low, dtype=_U64)
    dots = (low[:, 1:] ^ low[:, :-1]) & _U64(0x2E2E2E2E2E2E2E2E)
    return k, h, limbs, low, dots, np.arange(32) < np.arange(33)[:, None], texts


def _rop(g: list[np.ndarray], cp: np.ndarray) -> np.ndarray:
    """Schubfach's round-to-odd ``g cp / 2^127``, g given by its limbs."""
    g1h, g1l, g0h, g0l = g
    ch, cl = cp >> 32, cp & _U64(0xFFFFFFFF)
    # high words of g0 cp and g1 cp from 32-bit limbs; the high limbs are
    # below 2^31 and 2^28, so no sum overflows
    x1, y1 = (ah * ch + (ah * cl + al * ch + (al * cl >> 32) >> 32) for ah, al in ((g0h, g0l), (g1h, g1l)))
    z = (cp * (g1h << 32 | g1l) >> 1) + x1
    return y1 + (z >> 63) | (z << 1 != 0)


def _decimal(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Schubfach's digits and decimal exponent of positive float64 bits."""
    ks, hs, limbs, *_ = _tables()
    c = bits & _U64((1 << 52) - 1)
    i = (bits >> 52).astype(np.intp)  # the biased exponent, then the table index
    irregular = (c == 0) & (i > 1)
    c[i > 0] |= _U64(1 << 52)
    i[irregular] += 2048
    g, h, cb = [limb[i] for limb in limbs], hs[i], c << 2
    # the rounding interval's lower end, the value and the upper end
    vbl, vb, vbr = (_rop(g, x << h) for x in (cb - 2 + irregular, cb, cb + 2))
    out = c & 1
    vbl += out
    s = vb >> 2
    sp10 = s // 10 * 10
    upin = vbl <= sp10 << 2
    wpin = (sp10 + 10 << 2) + out <= vbr
    uin = vbl <= s << 2
    win = (s + 1 << 2) + out <= vbr
    mid = 4 * s + 2
    nearer = np.where(uin != win, uin, (vb < mid) | ((vb == mid) & (s & 1 == 0)))
    return np.where(upin != wpin, sp10 + _U64(10) * wpin, s + 1 - nearer), ks[i]


def _digits(bits: np.ndarray, nonzero: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each value's 17 digits as the ASCII bytes 0-16 of a (4, n) array of
    little-endian words, how many are significant, and ``decpt``; a zero
    or non-finite value reads as ``0`` with ``decpt`` 1."""
    d, decpt = _decimal(bits & _U64((1 << 63) - 1))
    d[~nonzero] = 0
    nd = np.searchsorted(_POW10, d, side="right")
    decpt += nd
    decpt[~nonzero] = 1
    rest = d * _POW10[17 - nd]
    lead = rest // 10**16
    rest -= lead * 10**16
    hi = rest // 10**8
    # eight digits a word: split into 4-, 2- and 1-digit lanes by
    # multiply-shift division, the first digit in the lowest byte
    x = np.stack((hi, rest - hi * 10**8))
    v = x // 10_000
    v |= x - v * 10_000 << 32
    q = v * 5243 >> 19 & _U64(0x0000007F0000007F)
    v = q | v - q * 100 << 16
    q = v * 103 >> 10 & _U64(0x000F000F000F000F)
    digits = q | v - q * 10 << 8
    # significant: up to the last nonzero digit byte
    used = digits + _U64(0x7F7F7F7F7F7F7F7F) & _U64(0x8080808080808080)
    for shift in (8, 16, 32):
        used |= used >> shift
    used = np.bitwise_count(used).astype(np.int64)
    digits |= _U64(0x3030303030303030)
    text = np.zeros((4, len(bits)), dtype=_U64)
    text[0] = lead | 0x30 | digits[0] << 8
    text[1] = digits[0] >> 56 | digits[1] << 8
    text[2] = digits[1] >> 56
    return text, 1 + np.where(used[1] > 0, 8 + used[1], used[0]), decpt


def reprs(values: np.ndarray, seps: np.ndarray) -> bytes:
    """``repr`` of each value of the 1-D ``values`` as float64, each
    followed by its separator byte from ``seps``, as ASCII."""
    *_, low, dots, keep, ((pre, pre_len), (suf, suf_len)) = _tables()
    bits = np.ascontiguousarray(values, dtype=np.float64).view(_U64)
    finite = (bits & _U64(0x7FF << 52)) != _U64(0x7FF << 52)
    nan = ~finite & (bits << 12 != 0)
    text, shown, decpt = _digits(bits, finite & (bits << 1 != 0))
    text[0, ~finite] = np.where(nan[~finite], _U64(0x6E616E), _U64(0x666E69))  # b"nan", b"inf"
    sci = finite & ((decpt <= -4) | (decpt > 16))
    after = finite & ~sci & (decpt > 0)

    # a '.' after the first ``point`` digits, the rest moved up a byte,
    # then the first ``size`` bytes kept
    point = np.where(sci, 1, np.where(after, decpt, 17))
    whole = np.maximum(shown, decpt) + 1 + (decpt >= shown)
    size = np.where(sci, shown + (shown > 1), np.where(after, whole, np.where(finite, shown, 3)))
    moved = text << 8
    moved[1:] |= text[:-1] >> 56
    text &= np.take(low, point, axis=1)
    moved &= ~np.take(low, point + 1, axis=1)
    text |= moved | np.take(dots, point, axis=1)
    del moved
    text &= np.take(low, size, axis=1)

    # sign and leading zeros before the text, exponent and separator after;
    # ``start`` and ``end`` are bit offsets in the row
    lead_in = 5 * ((bits >> 63 != 0) & ~nan) + np.where(finite & ~sci & (decpt <= 0), 1 - decpt, 0)
    exp_in = np.where(sci, _EXP0 - 1 + decpt, 0)
    start = 8 * pre_len[lead_in]
    carry = text[:-1] >> (64 - start).astype(_U64)
    text <<= start.astype(_U64)
    text[1:] |= carry
    del carry
    text[0] |= pre[lead_in]
    end = start + 8 * size
    tail = suf[exp_in] | seps.astype(_U64) << (8 * suf_len[exp_in]).astype(_U64)
    for j in range(4):  # a shift of 64 bits or more gives 0
        text[j] |= tail << (end - 64 * j).astype(_U64) | tail >> (64 * j - end).astype(_U64)
    rows = text.T.astype("<u8", order="C").view(np.uint8)
    del text
    return rows[np.take(keep, end // 8 + suf_len[exp_in] + 1, axis=0)].tobytes()
