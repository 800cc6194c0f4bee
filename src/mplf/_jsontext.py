"""The JSON text of float arrays, a block at a time.

``write_array`` writes a real or complex vector, or a matrix as a list of
its rows, as ``netmodel.write_json`` lays out lists, with the exact text of
``float.__repr__`` for every finite float and ``null`` for the others.

The shortest round-trip digits come from Schubfach (R. Giulietti, "The
Schubfach way to render doubles", 2020; the same interval arithmetic as Ryu,
U. Adams, PLDI 2018), computed in ``uint64`` arrays: the 126-bit powers of
ten are built exactly from Python ints at import, and the 64x64 -> 128-bit
products are emulated with 32-bit limbs.  Every integer operand stays
``np.uint64`` (the exponents are ``int64`` and never meet them), because numpy
promotes a ``uint64``/``int64`` mix to ``float64``.

Each float's text is gathered, left-aligned, into a fixed-width ``uint8``
buffer with the JSON framing before it, one buffer row per float; read as
NUL-padded bytes strings and joined, the rows are the text.
"""

import numpy as np

# Entries per kernel call.  A call makes about 150 numpy calls whatever its
# size, and its temporaries grow with it.  Writing the ieee123 FOT and FPL
# artifacts (2-vCPU host, numpy 2.4) took 0.47, 0.42 and 0.37 s (best of 12)
# with 1024, 2048 and 4096 entries, and left 0.2, 0.2 and 2.5 MB more
# resident after the write.
_BLOCK = 2048

_U = np.uint64
_M32 = _U(0xFFFFFFFF)
_T_MASK = _U((1 << 52) - 1)
_C_MIN = _U(1 << 52)

# 10**e = beta * 2**r with 2**125 <= beta < 2**126, for e in [_E_MIN, 324]:
# g = floor(beta) + 1, kept as its top and bottom 63 bits in 32-bit limbs.
_E_MIN = -292


def _flog10pow2(q):
    """floor(log10(2**q)) for |q| <= 1100."""
    return (q * 661971961083) >> 41


def _flog10threequarterspow2(q):
    """floor(log10(3/4 * 2**q)) for |q| <= 1100."""
    return (q * 661971961083 - 274743187321) >> 41


def _flog2pow10(e):
    """floor(log2(10**e)) for |e| <= 400."""
    return (e * 913124641741) >> 38


def _power_table():
    table = np.empty((4, 325 - _E_MIN), dtype=np.uint64)
    for i, e in enumerate(range(_E_MIN, 325)):
        r = _flog2pow10(e) - 125
        if e < 0:
            g = (1 << -r) // 10**-e + 1
        elif r < 0:
            g = (10**e << -r) + 1
        else:
            g = (10**e >> r) + 1
        g1, g0 = g >> 63, g & ((1 << 63) - 1)
        table[:, i] = g1 >> 32, g1 & 0xFFFFFFFF, g0 >> 32, g0 & 0xFFFFFFFF
    return table


_G = _power_table()


def _exponent_table():
    """The decimal exponent k and the shift h of Schubfach for each biased
    binary exponent, then again for a significand of 2**52 above the
    smallest normal, whose rounding interval is irregular."""
    k = np.empty(4096, dtype=np.int64)
    h = np.empty(4096, dtype=np.uint64)
    for bq in range(2048):
        q = max(bq, 1) - 1075
        for row, kq in ((bq, _flog10pow2(q)), (bq + 2048, _flog10threequarterspow2(q))):
            k[row], h[row] = kq, q + _flog2pow10(-kq) + 2
    return k, h


_K, _H = _exponent_table()
_POW10 = np.array([10**i for i in range(18)], dtype=np.uint64)


def _mul(a_hi, a_lo, b_hi, b_lo):
    """(high, low) 64-bit halves of ``a * b`` from 32-bit limbs, for
    ``a < 2**63`` and ``b < 2**63``: no partial sum overflows."""
    ll = a_lo * b_lo
    cross = a_hi * b_lo + a_lo * b_hi + (ll >> _U(32))
    return a_hi * b_hi + (cross >> _U(32)), (cross << _U(32)) | (ll & _M32)


def _rop(g, cp):
    """Round to odd of ``g * cp / 2**127``, with ``g = g1 * 2**63 + g0``."""
    g1_hi, g1_lo, g0_hi, g0_lo = g
    cp_hi, cp_lo = cp >> _U(32), cp & _M32
    x1 = g0_hi * cp_hi + ((g0_hi * cp_lo + g0_lo * cp_hi + ((g0_lo * cp_lo) >> _U(32))) >> _U(32))
    y1, y0 = _mul(g1_hi, g1_lo, cp_hi, cp_lo)
    z = (y0 >> _U(1)) + x1
    # The carry out of z's 63 bits, and a sticky bit for any of them set.
    return (y1 + (z >> _U(63))) | ((z << _U(1)) != 0)


def _shortest(bits):
    """Decimal ``(f, e)`` with ``f * 10**e`` the shortest round-trip text of
    each finite nonzero double in ``bits`` (sign ignored), ``f < 10**17``.

    Java's ``Double.toString``, which Schubfach was written for, never
    writes fewer than two digits; ``repr`` does, so the rescaling of the two
    smallest subnormals and the ``s >= 100`` guard on one digit fewer are
    left out.
    """
    t = bits & _T_MASK
    bq = (bits.view(np.int64) >> 52) & 0x7FF
    c = np.where(bq == 0, t, t | _C_MIN)
    irregular = (t == 0) & (bq > 1)
    row = np.where(irregular, bq + 2048, bq)
    k, h = _K.take(row), _H.take(row)
    g = _G.take(-k - _E_MIN, axis=1)

    out = c & _U(1)
    cb = c << _U(2)
    # v and the ends of its rounding interval, scaled, in one (3, n) pass.
    vb, vbl, vbr = _rop(g[:, None], np.stack([cb, cb - np.where(irregular, _U(1), _U(2)), cb + _U(2)]) << h)

    # One digit fewer than s, when exactly one of its neighbours is in range.
    s = vb >> _U(2)
    sp10 = (s // _U(10)) * _U(10)
    upin = vbl + out <= sp10 << _U(2)
    wpin = ((sp10 + _U(10)) << _U(2)) + out <= vbr
    shorter = upin != wpin
    # Else s or s + 1: the one in range, or the closer (even on a tie).
    uin = vbl + out <= s << _U(2)
    win = ((s + _U(1)) << _U(2)) + out <= vbr
    mid = (s << _U(2)) + _U(2)
    below = (vb < mid) | ((vb == mid) & ((s & _U(1)) == 0))
    f = np.where(np.where(uin != win, uin, below), s, s + _U(1))
    f = np.where(shorter, np.where(upin, sp10, sp10 + _U(10)), f)
    return f, k


# Each float's text is gathered from a 32-byte source row: "000" and the 17
# digits of its significand, the sign and three digits of its exponent,
# then "-.e", a NUL and "null".
_ZERO, _DIGIT, _EXP_SIGN, _MINUS, _DOT, _E, _NUL, _NULL = 0, 3, 20, 24, 25, 26, 27, 28
_WIDTH = 24  # the longest text, -1.2345678901234567e-308


def _repr_gather(neg, fixed, decpt, nsig, wide):
    """Source bytes of the text ``float.__repr__`` writes for a float with
    ``nsig`` significant digits and its decimal point after digit ``decpt``:
    fixed notation for -4 < decpt <= 16, else d[.ddd]e+XX (``wide`` when the
    exponent has three digits).  NULs pad it to ``_WIDTH``."""
    text = [_MINUS] if neg else []
    if fixed:
        if decpt >= 1:
            text += range(_DIGIT, _DIGIT + decpt)
        else:
            text.append(_ZERO)
        text.append(_DOT)
        if nsig > decpt:
            text += [_ZERO] * -decpt + list(range(_DIGIT + max(decpt, 0), _DIGIT + nsig))
        else:
            text.append(_ZERO)
    else:
        text.append(_DIGIT)
        if nsig > 1:
            text += [_DOT, *range(_DIGIT + 1, _DIGIT + nsig)]
        text += [_E, _EXP_SIGN, _EXP_SIGN + 1] if wide else [_E, _EXP_SIGN]
        text += [_EXP_SIGN + 2, _EXP_SIGN + 3]
    return text + [_NUL] * (_WIDTH - len(text))


# Row code of a finite float: 374 * neg + 17 * form + nsig - 1, where form is
# decpt + 3 in fixed notation (0..19) and 20 + wide in exponent notation;
# the last row is "null".
_CODES = 374


def _gather_table():
    table = np.full((2 * _CODES + 1, _WIDTH), _NUL, dtype=np.uint8)
    forms = [(neg, form, nsig) for neg in (False, True) for form in range(22) for nsig in range(1, 18)]
    for code, (neg, form, nsig) in enumerate(forms):
        table[code] = _repr_gather(neg, form < 20, form - 3, nsig, form == 21)
    table[-1, :4] = range(_NULL, _NULL + 4)
    return table


_GATHER = _gather_table()


def _digit_tables():
    """Each integer below 10**4 as four ASCII digits (one uint32), and its
    trailing zeros, from the 100 two-digit pairs."""
    pairs = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), dtype=np.uint8).reshape(100, 2)
    digits = np.empty((100, 100, 4), dtype=np.uint8)
    digits[:, :, :2] = pairs[:, None]
    digits[:, :, 2:] = pairs[None, :]
    pair_zeros = np.array([2] + [int(i % 10 == 0) for i in range(1, 100)], dtype=np.uint8)
    # [hi, lo]: the zeros of lo, or two more than those of hi when lo is 0.
    zeros = np.where(np.arange(100) == 0, pair_zeros[:, None] + 2, pair_zeros)
    return digits.view(np.uint32).ravel(), zeros.astype(np.uint8).ravel()


_DIGITS4, _ZEROS4 = _digit_tables()
# Sign and three digits of every decimal exponent from -324 to 308.
_EXP4 = np.frombuffer(b"".join(b"%+04d" % i for i in range(-324, 309)), dtype=np.uint32)
_CONST = np.frombuffer(b"-.e\0null", dtype=np.uint32)


def _float_texts(x):
    """The text of each float in ``x``, left-aligned in ``_WIDTH`` bytes."""
    n = x.size
    bits = np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)
    finite = np.isfinite(x)
    zero = x == 0
    # Zeros and non-finite values are digested as 1.0 and written apart.
    f, e = _shortest(np.where(finite & ~zero, bits, _U(0x3FF0000000000000)))
    ndig = np.searchsorted(_POW10, f, side="right")
    f = f * _POW10[17 - ndig]
    decpt = np.where(zero, 1, ndig + e)

    # f is now in [10**16, 10**17): its leading digit and four groups of four.
    groups = np.empty((n, 5), dtype=np.intp)
    lead = f // _U(10**16)
    groups[:, 0] = lead
    rest = f - lead * _U(10**16)
    for col, part in ((1, rest // _U(10**8)), (3, rest % _U(10**8))):
        hi = part // _U(10**4)
        groups[:, col] = hi
        groups[:, col + 1] = part - hi * _U(10**4)
    groups[zero, 0] = 0
    zeros = _ZEROS4.take(groups)
    tz = zeros[:, 4]
    for col in (3, 2, 1):
        tz += np.where(tz == 4 * (4 - col), zeros[:, col], 0)
    nsig = np.where(zero, 1, 17 - tz)

    source = np.empty((n, 8), dtype=np.uint32)
    source[:, :5] = _DIGITS4.take(groups)
    power = decpt - 1
    source[:, 5] = _EXP4.take(power + 324)
    source[:, 6:] = _CONST
    fixed = (decpt > -4) & (decpt <= 16)
    form = np.where(fixed, decpt + 3, 20 + (np.abs(power) >= 100))
    code = np.where(finite, (bits >> _U(63)).astype(np.intp) * _CODES + 17 * form + nsig - 1, 2 * _CODES)
    index = _GATHER.take(code, axis=0) + np.arange(0, 32 * n, 32, dtype=np.int32)[:, None]
    return source.view(np.uint8).ravel().take(index)


def _rows_text(block, opens, closes, row_indent, item_indent):
    """The JSON text of the entries of a 2-D real or complex ``block``.

    Each row of ``block`` is one row of a list of rows, or a piece of one:
    the first opens its row only when ``opens``, the last closes its row only
    when ``closes``, and every boundary between them closes one row and
    opens the next.  An entry is ``",\\n" + item_indent``, or ``",\\n" +
    row_indent + "[\\n" + item_indent`` when it opens a row; then its float,
    or its ``{"im": ..., "re": ...}`` object at ``item_indent``.  A row
    closes with ``"\\n" + row_indent + "]"``.
    """
    values = block.ravel()
    if np.iscomplexobj(values):
        close, opening = f"\n{item_indent}}}", f'{{\n{item_indent}  "im": '
        framings = [f"{close},\n{item_indent}{opening}", f',\n{item_indent}  "re": ']
        floats = np.stack([values.imag, values.real], axis=1)
    else:
        close, opening = "", ""
        framings = [f",\n{item_indent}"]
        floats = np.asarray(values, dtype=float)[:, None]
    # One buffer row per float: the text between it and the float before,
    # then the float, then NULs.  All rows but those that open a row or the
    # block have the same framing.
    texts = _float_texts(floats.ravel()).reshape(*floats.shape, _WIDTH)
    width = max(map(len, framings)) + _WIDTH
    buf = np.zeros((*floats.shape, width), dtype=np.uint8)
    for k, framing in enumerate(framings):
        buf[:, k, :len(framing)] = np.frombuffer(framing.encode(), dtype=np.uint8)
        buf[:, k, len(framing):len(framing) + _WIDTH] = texts[:, k]
    # Read as bytes strings, the rows lose their trailing NULs.
    rows = buf.view(f"S{width}").ravel().tolist()
    skip = len(framings[0])
    lead = f",\n{row_indent}[\n{item_indent}{opening}".encode()
    rows[0] = (lead if opens else f",\n{item_indent}{opening}".encode()) + rows[0][skip:]
    lead = f"{close}\n{row_indent}]".encode() + lead
    step = floats.size // len(block)
    for i in range(step, len(rows), step):
        rows[i] = lead + rows[i][skip:]
    rows.append(f"{close}\n{row_indent}]".encode() if closes else close.encode())
    return b"".join(rows).decode("ascii")


def write_array(arr, indent, write):
    """Write a non-empty vector, or a matrix as a list of its rows, at
    nesting ``indent`` through ``write``.

    The kernel gets ``_BLOCK`` entries at a time: whole rows, or pieces of
    a row longer than that, each copied out of ``arr`` on its own.
    """
    rows = arr.reshape(-1, arr.shape[-1])
    cols = rows.shape[1]
    step, chunk = max(1, _BLOCK // cols), min(cols, _BLOCK)
    row_indent = indent if arr.ndim == 1 else indent + "  "
    # The first entry opens the array: drop the row separator of its lead.
    opening, skip = ("", 2 + len(indent)) if arr.ndim == 1 else ("[", 1)
    for r in range(0, len(rows), step):
        for c in range(0, cols, chunk):
            text = _rows_text(
                rows[r:r + step, c:c + chunk], c == 0, c + chunk >= cols, row_indent, row_indent + "  "
            )
            write(opening + text[skip:] if r == c == 0 else text)
    if arr.ndim == 2:
        write(f"\n{indent}]")
