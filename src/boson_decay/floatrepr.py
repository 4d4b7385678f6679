"""Vectorized ``repr`` of float64 cells: the shortest round-trip text, byte for byte.

The digits come from the Schubfach algorithm (R. Giulietti, "The Schubfach
way to render doubles", 2020), which gives the shortest decimal ``f 10^e``
in a double's rounding interval, and the one nearest to it, ties to even;
Ryu (U. Adams, PLDI 2018) gives the same. The three round-to-odd products of
the 126-bit powers of ten with 64-bit operands are done on uint64 arrays
split into 32-bit halves. Two steps differ from the Java reference so that
the digits are those of Python's ``repr``: subnormals are not scaled by 10
to force a second digit (Python prints ``5e-324``), and the candidate one
digit shorter is tried at every length, not only for three digits or more.

Every cell is laid out in one fixed template,
``[-] 0 . 000 A0..A16 . B0..B16 e ± EEE sep``, with the 17 left-aligned
digits written twice. A keep mask, gathered from a small table of patterns
(sign, form, significant digits), selects the cell's columns, so the text of
a block is ``template[keep].tobytes()``. Integers are numpy-typed throughout,
so that numpy 1.x and 2.x promote them alike, and no byte order is assumed.
"""

from __future__ import annotations

from functools import cache

import numpy as np

_U = np.uint64
_M32 = _U(0xFFFFFFFF)
_M63 = _U(0x7FFFFFFFFFFFFFFF)
_K_MIN, _K_MAX = -324, 292  # decimal exponents of the finite doubles' candidates

# Columns of the cell template "-0.000" A0..A16 "." B0..B16 "e+000": the sign, the
# zero and point of 0.000ddd and its three pad zeros, the two digit copies, the
# exponent's letter, sign and digits, then the separator.
_SIGN, _ZERO, _PAD, _A, _POINT1, _B, _E, _ESIGN, _EXP, _SEP = (
    0, 1, 3, 6, 23, 24, 41, 42, 43, 46
)
_DIGITS = 17
# Forms: 0..19 positional with decimal point position -3..16, then scientific
# with a two- and a three-digit exponent, then a non-finite name.
_SCI2, _SCI3, _NAME = 20, 21, 22
_FORMS = 23


def _flog10pow2(e: np.ndarray) -> np.ndarray:
    """floor(e log10 2) for |e| < 5000."""
    return (e * np.int64(661_971_961_083)) >> np.int64(41)


def _flog10_three_quarters_pow2(e: np.ndarray) -> np.ndarray:
    """floor(log10(3/4 2^e)) for |e| < 5000."""
    return (e * np.int64(661_971_961_083) - np.int64(274_743_187_321)) >> np.int64(41)


def _flog2pow10(e: np.ndarray) -> np.ndarray:
    """floor(e log2 10) for |e| < 1000."""
    return (e * np.int64(913_124_641_741)) >> np.int64(38)


@cache
def _powers() -> np.ndarray:
    """The 32-bit halves of g1 and g0, g = g1 2^63 + g0 = floor(10^-k 2^-r) + 1 in [2^125, 2^126).

    One column per k from K_MIN, with r the exponent that puts g in that range.
    """
    ks = np.arange(_K_MIN, _K_MAX + 1, dtype=np.int64)
    halves = []
    for k, r in zip(ks.tolist(), (_flog2pow10(-ks) - 125).tolist()):
        if k > 0:  # 10^-k < 1, so r < 0
            g = (1 << -r) // 10**k + 1
        else:
            g = (10**-k << -r if r < 0 else 10**-k >> r) + 1
        g1, g0 = g >> 63, g & ((1 << 63) - 1)
        halves += (g1 >> 32, g1 & 0xFFFFFFFF, g0 >> 32, g0 & 0xFFFFFFFF)
    return np.array(halves, dtype=_U).reshape(-1, 4).T.copy()


def _round_to_odd(g: np.ndarray, cp: np.ndarray) -> np.ndarray:
    """cp g 2^-127 rounded to odd as the reference computes it, for g = g1 2^63 + g0, cp < 2^63.

    ``g`` holds the 32-bit halves of g1 and g0 (see :func:`_powers`); the
    128-bit products are formed from 32-bit halves of both factors.
    """
    c1, c0 = cp >> _U(32), cp & _M32

    def high(a1: np.ndarray, a0: np.ndarray) -> np.ndarray:
        """The high 64 bits of (a1 2^32 + a0) cp."""
        p01, p10, mid = a0 * c1, a1 * c0, a0 * c0
        mid >>= _U(32)
        mid += p01 & _M32
        mid += p10 & _M32
        mid >>= _U(32)
        mid += p01 >> _U(32)
        mid += p10 >> _U(32)
        mid += a1 * c1
        return mid

    g1_hi, g1_lo, g0_hi, g0_lo = g
    z = g1_hi << _U(32)
    z |= g1_lo
    z *= cp  # the low 64 bits of g1 cp
    z >>= _U(1)
    z += high(g0_hi, g0_lo)
    vbp = high(g1_hi, g1_lo)
    vbp += z >> _U(63)
    z &= _M63
    z += _M63
    z >>= _U(63)
    vbp |= z
    return vbp


def _shortest(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(f, k) with f 10^k the shortest nearest decimal of each finite nonzero double's bits."""
    c = bits & _U((1 << 52) - 1)
    q = ((bits >> _U(52)) & _U(0x7FF)).astype(np.int64)  # the biased exponent
    # A power of two's interval is half as wide below it, except at the smallest normal.
    irregular = (c == _U(0)) & (q > 1)
    c[q > 0] |= _U(1 << 52)
    np.maximum(q, 1, out=q)
    q -= 1075  # the exponent of c's last bit; -1074 for the subnormals
    k = np.where(irregular, _flog10_three_quarters_pow2(q), _flog10pow2(q))
    h = (q + _flog2pow10(-k) + 2).astype(_U)
    g = np.take(_powers(), k - _K_MIN, axis=1)
    cb = c << _U(2)
    vbl = _round_to_odd(g, (cb - np.where(irregular, _U(1), _U(2))) << h)
    vb = _round_to_odd(g, cb << h)
    vbr = _round_to_odd(g, (cb + _U(2)) << h)
    out = c & _U(1)
    vbl += out
    vbr -= out
    s = vb >> _U(2)
    # Candidates one digit shorter, u' = 10 floor(s / 10) and w' = u' + 10; then u = s, w = s + 1.
    sp10 = s // _U(10) * _U(10)
    upin = vbl <= sp10 << _U(2)
    wpin = (sp10 + _U(10)) << _U(2) <= vbr
    uin = vbl <= s << _U(2)
    win = (s + _U(1)) << _U(2) <= vbr
    # Exactly one of u, w in the interval picks it; both pick the nearer, ties to even s.
    cmp = vb.astype(np.int64) - ((s << _U(2)) + _U(2)).astype(np.int64)
    pick_s = np.where(uin != win, uin, (cmp < 0) | ((cmp == 0) & ((s & _U(1)) == _U(0))))
    f = np.where(upin != wpin, np.where(upin, sp10, sp10 + _U(10)), np.where(pick_s, s, s + _U(1)))
    return f, k


@cache
def _tables() -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The cell template, the keep masks by (sign, form, digits), 4-digit groups and 10^j."""
    digits = b"0" * _DIGITS
    template = np.frombuffer(b"-0.000" + digits + b"." + digits + b"e+000", np.uint8)
    keep = np.zeros((2, _FORMS, _DIGITS + 1, _SEP), dtype=bool)
    for form in range(_FORMS):
        for n in range(1, _DIGITS + 1):
            row = keep[0, form, n]
            if form == _NAME:
                row[_A : _A + n] = True
            elif form >= _SCI2:  # d[.ddd]e±dd[d]
                row[_A] = True
                row[_POINT1 : _B + n] = n > 1
                row[_POINT1 + 1] = False
                row[_E:_SEP] = True
                row[_EXP] = form == _SCI3
            elif form <= 3:  # 0.[000]ddd: the decimal point at -3..0
                row[_ZERO : _PAD + 3 - form] = True
                row[_A : _A + n] = True
            else:  # ddd.ddd or ddd000.0
                point = form - 3
                row[_A : _A + point] = True
                row[_POINT1] = True
                row[_B + point : _B + max(n, point + 1)] = True
    keep[1] = keep[0]
    keep[1, ..., _SIGN] = True
    # The four ASCII digits of 0..9999, each held in one 4-byte word that is only ever copied.
    groups = np.empty((10_000, 4), dtype=np.uint8)
    rest = np.arange(10_000, dtype=_U)
    for column in range(3, -1, -1):
        tens = rest // _U(10)
        groups[:, column] = rest - tens * _U(10) + _U(48)
        rest = tens
    words = groups.view(np.uint32).reshape(-1)
    pow10 = np.array([10**j for j in range(_DIGITS + 1)], dtype=_U)
    return template, keep.reshape(-1, _SEP), words, pow10


def _digits(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The shortest digits of each float: (17 ASCII digits, left-aligned; digit count; point).

    A finite value is ``0.d1d2...dn 10^point``; zero is ``0.0``, with one
    digit and the point at 1. Non-finite cells are returned as zero.
    """
    _, _, words, pow10 = _tables()
    nonzero = np.isfinite(x) & (x != 0.0)
    f, k = _shortest(np.where(nonzero, x.view(np.uint64), _U(1)))
    length = np.searchsorted(pow10, f, side="right")  # 10^(length-1) <= f < 10^length
    point = np.where(nonzero, k + length, 1)
    f *= pow10[_DIGITS - length]
    f[~nonzero] = 0
    # Five groups of four digits: three leading zeros, then the 17 digits.
    groups = np.empty((len(x), 5), dtype=np.intp)
    for j, power in enumerate((10**16, 10**12, 10**8, 10**4)):
        groups[:, j] = f // _U(power)
        f -= groups[:, j].astype(_U) * _U(power)
    groups[:, 4] = f
    chars = words.take(groups).view(np.uint8)[:, 3:]
    n = np.where(nonzero, _DIGITS - np.argmax(chars[:, ::-1] != np.uint8(48), axis=1), 1)
    return chars, n, point


def format_rows(
    block: np.ndarray, cell_sep: bytes, row_sep: bytes, names: tuple[bytes, bytes]
) -> bytes:
    """The text of a (rows, cols) float64 block, each cell as ``repr`` writes it.

    Each cell is followed by ``cell_sep``, or by ``row_sep`` if it ends its
    row. ``names`` are the texts of NaN and of infinity; negative infinity
    gets a minus sign.
    """
    rows, cols = block.shape
    cells = rows * cols
    x = np.ascontiguousarray(block, dtype=np.float64).reshape(cells)
    chars, n, point = _digits(x)
    template, keep_table, words, _ = _tables()
    width = _SEP + max(len(cell_sep), len(row_sep))
    text = np.empty((rows, cols, width), dtype=np.uint8)
    keep = np.empty((rows, cols, width), dtype=bool)
    for where, sep in ((slice(None), cell_sep), (-1, row_sep)):
        text[:, where, _SEP:] = np.frombuffer(sep.ljust(width - _SEP), np.uint8)
        keep[:, where, _SEP:] = np.arange(width - _SEP) < len(sep)
    text, keep = text.reshape(cells, width), keep.reshape(cells, width)
    text[:, :_SEP] = template
    text[:, _A : _A + _DIGITS] = chars
    text[:, _B : _B + _DIGITS] = chars
    exponent = point - 1
    text[:, _ESIGN] = np.where(exponent < 0, np.uint8(45), np.uint8(43))
    text[:, _EXP:_SEP] = words.take(np.abs(exponent)[:, None]).view(np.uint8)[:, 1:]
    scientific = np.where(np.abs(exponent) < 100, _SCI2, _SCI3)
    form = np.where((exponent >= -4) & (exponent <= 15), point + 3, scientific)
    sign = np.signbit(x) & ~np.isnan(x)
    for name, where in zip(names, (np.isnan(x), np.isinf(x))):
        text[where, _A : _A + len(name)] = np.frombuffer(name, np.uint8)
        form[where], n[where] = _NAME, len(name)
    keep[:, :_SEP] = keep_table[(sign * _FORMS + form) * (_DIGITS + 1) + n]
    return text[keep].tobytes()
