"""Shortest round-trip text of many numbers at once.

``join_each(arrays, sep)`` equals ``[sep.join(map(float.__repr__,
values)) for values in arrays]`` for float64 arrays, in a fixed number of
numpy passes over their concatenation instead of one ``float.__repr__``
call per value.  ``layout(n, segments)`` writes ``n`` text rows made of
literals and of int64 and float64 columns, such as the JSON of a table of
numbers, the same way, as one text or as the texts of row ranges;
``join_each`` is its one-column case, cut at the array boundaries.  There
are three stages:

1. **Digits.**  The Schubfach core (R. Giulietti, "The Schubfach way to
   render doubles", 2020; the algorithm of ``java.lang.Double.toString``
   since JDK 19) gives each value's shortest decimal in its rounding
   interval, the closest one if there are two.  Its round-to-odd products
   of the value with a 126-bit power of ten ``g``, from a 617-entry table,
   are uint64 arithmetic on 32-bit halves.  An int64's digits are its
   groups of four, looked up in a table of ``0000`` to ``9999``.
2. **Cells.**  A float's cells are a fixed column for each character
   ``float.__repr__`` may write: the sign, the ``0.`` and up to three
   zeros before the digits of a value below 1, a block of 17 digits and a
   point, and the ``e±XX`` of the exponent notation.  The digit count
   comes from a table of the trailing zeros of ``0000`` to ``9999``, and
   the positions in the cells (of the point, of the last digit, and the
   exponent of the fixed notation, all in -4..18) are int8 columns, so
   the masks of the digit block are 8-bit compares.  An int's cells are as
   many as the longest int of its column needs, right-aligned.  A cell the
   value does not use holds NUL.
3. **Text.**  One ``uint8`` matrix has a row per text row and, in order, a
   block of columns per segment: a literal's characters, or the cells of a
   column's values.  A segment that covers only some rows leaves NUL on the
   others.  ``bytes.translate`` drops the NULs of each row range, and each
   range's text is decoded once.

Zero, subnormals, NaN and the infinities, and the values where both
shorter candidates of the core lie in the rounding interval (none among
millions of random doubles), are written by ``float.__repr__`` itself, one
by one, so the text never differs from ``float.__repr__``.

Every uint64 operation has uint64 operands, numpy scalars included, every
int64 one int64 operands and Python ints, and every int8 one int8 operands,
numpy scalars included, and Python ints within int8, so numpy's value-based
casting (before 2.0) and its NEP 50 rules give the same dtypes.  The tables
are built on first use, in about half a millisecond.
"""

from __future__ import annotations

from functools import cache

import numpy as np

__all__ = ["join_each", "layout"]

_U1, _U2, _U3, _U4, _U10, _U40, _U10000 = (np.uint64(v) for v in (1, 2, 3, 4, 10, 40, 10000))
_U32, _U63, _U64 = np.uint64(32), np.uint64(63), np.uint64(64)
_TOP = np.uint64(1 << 63)
_M32, _M63 = np.uint64((1 << 32) - 1), np.uint64((1 << 63) - 1)
_POW10 = np.array([10**p for p in range(20)], np.uint64)
_MIN_K, _MAX_K = -324, 292
_MIN_EXP, _MAX_EXP = -324, 308
_ZERO = ord("0")
_U8_ZERO, _U8_POINT, _U8_MINUS = np.uint8(_ZERO), np.uint8(ord(".")), np.uint8(ord("-"))
#: The cells of a float, in order: its sign; the "0", "." and up to three
#: zeros before the digits of a value below 1; the digit block, 17 digits
#: and a point; the exponent suffix.
_SIGN, _LEAD, _DIGITS, _SUFFIX, _WIDTH = 0, 1, 6, 24, 29
#: The rows of the digit block, int8 like the positions they are compared with.
_BLOCK = np.arange(_SUFFIX - _DIGITS, dtype=np.int8)[:, None]
_I8_BEFORE, _I8_ONE, _I8_NO_POINT = np.int8(-1), np.int8(1), np.int8(_BLOCK.size)
#: About the rows per pass of :func:`layout`: ``n`` rows take ``round(n / _CHUNK)`` passes of
#: equal size (at least one), so that the matrix of a pass stays a few MB and no pass is a
#: short tail that pays the whole fixed cost of a pass.
_CHUNK = 1 << 14


def _flog10pow2(q):
    return (q * 661971961083) >> 41


def _flog10three_quarters_pow2(q):
    return (q * 661971961083 - 274743187321) >> 41


def _flog2pow10(e):
    return (e * 913124641741) >> 38


def _g_table() -> bytes:
    """``g`` for ``k = -324 .. 292``, 16 little-endian bytes each.

    ``g = floor(10**-k / 2**r) + 1`` with ``r = flog2pow10(-k) - 125``, so
    that ``2**125 < g <= 2**126``.  For ``k > 0``, ``floor(2**m / 10**k)``
    comes from the one for ``k - 1`` by an integer division by 10, exact
    for floors.
    """
    shifts = (_flog2pow10(-np.arange(_MIN_K, _MAX_K + 1)) - 125).tolist()
    g = []
    pow10 = 10**-_MIN_K
    for r in shifts[:1 - _MIN_K]:  # k = -324 .. 0
        g.append(((pow10 >> r if r >= 0 else pow10 << -r) + 1).to_bytes(16, "little"))
        pow10 //= 10
    m = 125 - shifts[-1]
    scaled = 1 << m
    for r in shifts[1 - _MIN_K:]:  # k = 1 .. 292
        scaled //= 10
        g.append(((scaled >> (m + r)) + 1).to_bytes(16, "little"))
    return b"".join(g)


def _shifted(g1, g0, shift):
    """``g * 2**shift`` for ``g = g1 * 2**63 + g0``, as its low 64 bits and the 63-bit halves of the rest."""
    low = g0 << shift
    middle = (g1 << (shift - _U1) & _M63) + (g0 >> (_U64 - shift))
    return low, middle & _M63, (g1 >> (_U64 - shift)) + (middle >> _U63)


@cache
def _tables():
    """The lookup tables of the digits and cells, built on first use.

    ``keyed`` has a column per key ``biased exponent + 2048 * (mantissa
    bits == 0)``: the shift ``h``, the decimal exponent ``k`` (int64 bits),
    the 32-bit halves of ``g1`` and ``g0`` (the 63-bit halves of the
    126-bit ``g`` of ``k``), then the steps from ``g * cb * 2**h`` to the
    upper and the lower end of the rounding interval (see
    :func:`_shortest`).  ``quads`` holds the ASCII of ``0000`` to ``9999``,
    a column each, and ``zeros`` the number of trailing zeros of each of
    them, as int8, 4 for ``0000``.  ``suffixes`` holds the ``e±XX`` of each
    exponent, NUL-padded to five bytes, with an empty last column.
    """
    lo, hi = np.frombuffer(_g_table(), "<u8").reshape(-1, 2).T.astype(np.uint64)

    key = np.arange(4096)
    q = (key & 2047) - 1075
    # A power of two has a lower neighbour half as far away, except at the least normal exponent.
    pow2 = (key >= 2048) & (q != -1074)
    k = np.where(pow2, _flog10three_quarters_pow2(q), _flog10pow2(q))
    row = np.clip(k, _MIN_K, _MAX_K) - _MIN_K
    g0 = lo[row] & _M63
    g1 = hi[row] << _U1 | lo[row] >> _U63
    h = (q + _flog2pow10(-k) + 2).astype(np.uint64)
    # The interval ends are cb + 2 and cb - 2 (cb - 1 below a power of two), times 2**h.
    (up_low, down_low), (up_middle, down_middle), (up_high, down_high) = _shifted(
        g1, g0, np.stack([h + _U1, h + ~pow2]))
    keyed = np.stack([
        h, k.view(np.uint64), g1 >> _U32, g1 & _M32, g0 >> _U32, g0 & _M32,
        ~up_low, up_middle, up_high, down_low, _TOP - down_middle, down_high,
    ])

    d = np.arange(100)
    pairs = np.stack([d // 10, d % 10], axis=1) + _ZERO
    quads = np.empty((100, 100, 4), np.uint8)
    quads[:, :, :2] = pairs[:, None]
    quads[:, :, 2:] = pairs
    quads = quads.reshape(10000, 4)
    q = np.arange(10000)
    zeros = sum((q % 10**j == 0).astype(np.int8) for j in range(1, 5))

    e = np.arange(_MIN_EXP, _MAX_EXP + 1)
    suffixes = np.zeros((e.size + 1, 5), np.uint8)
    suffixes[:-1, 0] = ord("e")
    suffixes[:-1, 1] = np.where(e < 0, ord("-"), ord("+"))
    suffixes[:-1, 2:] = quads[abs(e), 1:]
    suffixes[:-1, 2] *= abs(e) >= 100
    tables = keyed, np.ascontiguousarray(quads.T), zeros, np.ascontiguousarray(suffixes.T)
    for table in tables:
        table.setflags(write=False)
    return tables


def _mulhi(a_hi, a_lo, b_hi, b_lo):
    """The high 64 bits of the 128-bit product of two uint64s given as 32-bit halves."""
    ll, lh, hl = a_lo * b_lo, a_lo * b_hi, a_hi * b_lo
    mid = (ll >> _U32) + (lh & _M32) + (hl & _M32)
    return a_hi * b_hi + (lh >> _U32) + (hl >> _U32) + (mid >> _U32)


def _shortest(bits: np.ndarray, keyed: np.ndarray):
    """The Schubfach core: ``(digits, k, unsure)`` with each value ``digits * 10**k``.

    ``bits`` are the int64 bit patterns of the values.  ``unsure`` marks
    the values whose result this core does not give: zero, subnormals,
    NaN, the infinities, and those where both shorter candidates lie in
    the rounding interval.

    ``rop(g * cp)`` is ``g * cp / 2**127`` rounded down, with its last bit
    set if bits 64 to 126 of ``g * cp`` are not all zero (Schubfach drops
    the low 64 bits).  The products are uint64 arithmetic with 32-bit
    halves.  The interval ends differ from ``cp`` by a power of two, so
    their products are the value's plus or minus a shifted ``g``, from
    the table.
    """
    bq = bits >> 52 & 2047
    t = bits & ((1 << 52) - 1)
    h, k, g1_hi, g1_lo, g0_hi, g0_lo, up_max, up_middle, up_high, down_low, down_middle, down_high = (
        keyed.take(bq + np.where(t == 0, 2048, 0), axis=1))
    c = (t | 1 << 52).view(np.uint64)
    cp = c << (h + _U2)
    cp_hi, cp_lo = cp >> _U32, cp & _M32
    # g * cp = high * 2**127 + middle * 2**64 + low, with middle below 2**63.
    low = (g0_hi << _U32 | g0_lo) * cp
    z = ((g1_hi << _U32 | g1_lo) * cp >> _U1) + _mulhi(g0_hi, g0_lo, cp_hi, cp_lo)
    high = _mulhi(g1_hi, g1_lo, cp_hi, cp_lo) + (z >> _U63)
    middle = z & _M63
    vb = high | (middle != 0)
    up = middle + up_middle + (low > up_max)
    vbr = high + up_high + (up >> _U63) | ((up & _M63) != 0)
    # The lower end subtracts: the table holds 2**63 minus the step's middle, and high pays the 2**63 back.
    down = middle + down_middle - (low < down_low)
    vbl = high - down_high - _U1 + (down >> _U63) | ((down & _M63) != 0)

    # Schubfach's choice among s, s + 1 and the multiples of ten next to s: the lower end plus
    # one and the upper end minus one when the interval is open (c odd).
    lower = vbl + (c & _U1)
    upper = vbr - (c & _U1)
    s = vb >> _U2
    sp10 = s - s % _U10
    upin = lower <= sp10 << _U2
    wpin = (sp10 << _U2) + _U40 <= upper
    uin = lower <= vb & ~_U3
    win = (vb & ~_U3) + _U4 <= upper
    # Both or neither of s and s + 1 in the interval: the closer, the even one on a tie.
    below_half = ((vb & _U3) < _U2) | (((vb & _U3) == _U2) & ((s & _U1) == 0))
    take_s = np.where(uin != win, uin, below_half)
    digits = np.where(upin != wpin, sp10 + _U10 * wpin, s + ~take_s)
    unsure = (bq == 0) | (bq == 2047) | (upin & wpin)
    # Unsure values get the digits of 1.0, so that every later stage stays in range.
    return np.where(unsure, 10**16, digits.view(np.int64)), np.where(unsure, -16, k.view(np.int64)), unsure


def join_each(arrays, sep: str) -> list[str]:
    """``sep.join(map(float.__repr__, values))`` for each of several 1-d float64 arrays, in one
    pass over their concatenation; ``sep`` is ASCII without NUL."""
    arrays = [np.ascontiguousarray(values, dtype=np.float64) for values in arrays]
    if not arrays:
        return []
    values = arrays[0] if len(arrays) == 1 else np.concatenate(arrays)
    cuts = np.cumsum([array.size for array in arrays[:-1]], dtype=np.int64).tolist()
    texts = layout(values.size, [(values, None), (sep, None)], cuts)
    return [text[:len(text) - len(sep)] for text in texts]


def layout(n: int, segments, cuts=None):
    """The text of ``n`` rows, each the concatenation of the segments that cover it.

    A segment is ``(content, rows)``.  ``rows`` is None for every row, or a
    sorted array of row indices.  ``content`` is an ASCII literal without
    NUL, written on each of ``rows``, or a 1-d int64 or float64 array with
    one value for each of ``rows`` in turn, written as ``int.__repr__`` or
    ``float.__repr__`` writes it.  Segments with the same ``rows`` object
    next to each other are merged, and those with no rows dropped.

    With ``cuts``, a sorted sequence of row indices, the result is instead
    the list of the texts of the row ranges between them: rows ``0`` to
    ``cuts[0]``, ``cuts[0]`` to ``cuts[1]``, ..., ``cuts[-1]`` to ``n``.

    The rows are laid out in passes of about ``_CHUNK`` rows, each as one
    matrix (see the module docstring), so that it stays a few MB.  A value's cells are computed
    column-wise and copied in transposed; a cell that is NUL on every row of
    the chunk gets no matrix column.  The literals that cover the whole
    chunk form one template row, copied to every row at once.
    """
    merged = []
    for content, rows in segments:
        if rows is not None and not len(rows):
            continue
        if merged and type(content) is str and type(merged[-1][0]) is str and rows is merged[-1][1]:
            content = merged.pop()[0] + content
        merged.append((content, rows))
    columns = [(*_writer(content), rows) for content, rows in merged]
    ends = [*(cuts or ()), n]
    texts = [[] for _ in ends]
    current = 0  # the range of the next row
    size = max(1, -(-n // max(1, round(n / _CHUNK))))
    for start in range(0, n, size):
        stop = min(start + size, n)
        blocks = []
        for content, write, width, rows in columns:
            where, part = slice(None), slice(start, stop)
            if rows is not None:
                first, last = np.searchsorted(rows, (start, stop)).tolist()
                part = slice(first, last)
                if last - first < stop - start:
                    where = rows[first:last] - start
            if write is None:
                cells = content
            else:
                values = content[part]
                cells = np.empty((width, values.size), np.uint8)
                write(values, cells)
                # A cell that holds NUL on every row of the chunk needs no column.
                cells = cells[cells.any(axis=1)].T
            blocks.append((cells, where))
        offsets = np.cumsum([0, *(cells.shape[-1] for cells, _ in blocks)]).tolist()
        # The literals on every row of the chunk form one template row; the rest go in one by one.
        template = np.zeros(offsets[-1], np.uint8)
        scattered = []
        for (cells, where), a, b in zip(blocks, offsets, offsets[1:]):
            if cells.ndim == 1 and type(where) is slice:
                template[a:b] = cells
            else:
                scattered.append((cells, where, a, b))
        matrix = np.empty((stop - start, offsets[-1]), np.uint8)
        matrix[...] = template
        for cells, where, a, b in scattered:
            matrix[where, a:b] = cells
        # The rows of each range in the chunk, the NULs dropped.
        row = start
        while True:
            end = min(ends[current], stop)
            texts[current].append(matrix[row - start:end - start].tobytes().translate(None, b"\0"))
            if end == stop:
                break
            row, current = end, current + 1
    texts = [b"".join(chunks).decode("ascii") for chunks in texts]
    return texts if cuts is not None else texts[0]


def _writer(content):
    """``(content, write, width)`` of a segment: a literal as its ASCII, with no ``write``, or
    an array with the ``write(values, cells)`` of its dtype and its number of cells."""
    if type(content) is str:
        ascii = np.frombuffer(content.encode("ascii"), np.uint8)
        return ascii, None, ascii.size
    if content.dtype == np.float64:
        return content, _float_cells, _WIDTH
    if content.dtype != np.int64:
        raise TypeError(f"no cells for dtype {content.dtype}")
    extremes = [content.min().tolist(), content.max().tolist()] if content.size else [0]
    return content, _int_cells, max(map(len, map(repr, extremes)))


def _float_cells(values: np.ndarray, cells: np.ndarray) -> None:
    """The cells of ``float.__repr__`` of each float64 value in ``cells``' ``_WIDTH`` rows, NUL where unused."""
    n = values.size
    keyed, quads, zeros, suffixes = _tables()
    bits = values.view(np.int64)
    digits, k, unsure = _shortest(bits, keyed)

    # Normal values have 16 or 17 digits; scale them all to 17, d[0] to d[16].
    seventeen = digits >= 10**16
    digits = digits * np.where(seventeen, 1, 10)
    decpt = k + 16 + seventeen  # each value is 0.d[0]d[1]...d[16] * 10**decpt
    lead = digits // 10**16
    halves = np.divmod(digits - lead * 10**16, 10**8)
    quarters = np.stack(np.divmod(np.stack(halves), 10000), axis=1).reshape(4, n)
    # The ASCII of d[j] in row j + 1, between two rows of NUL.
    d = np.zeros((19, n), np.uint8)
    d[1] = lead + _ZERO
    d[2:18].reshape(4, 4, n).transpose(1, 0, 2)[...] = quads.take(quarters, axis=1)
    # d[0] is never 0: the trailing zeros are those of the last group of four that is not 0000.
    tz = zeros.take(quarters)
    ndigits = 17 - (tz[3] + (tz[3] == 4) * (tz[2] + (tz[2] == 4) * (tz[1] + (tz[1] == 4) * tz[0])))

    # float.__repr__ switches to the exponent notation outside 1e-4 <= |v| < 1e16.  From here
    # on the positions are int8: in fixed notation a value is 0.d[0]d[1]... * 10**fixed with
    # -3 <= fixed <= 16, and the exponent notation has fixed = 0.
    exponent = (decpt < -3) | (decpt > 16)
    fixed = np.where(exponent, 0, decpt).astype(np.int8)
    small = ~exponent & (fixed <= 0)
    big = fixed > 0
    # The digit block is d[:written] with "." before d[point]: after the integer part
    # of a fixed-point value, after d[0] of an exponent form with more than one digit.
    written = np.where(big, np.maximum(ndigits, fixed + 1), ndigits)
    point = np.where(big, fixed, np.where(small, _I8_BEFORE, np.where(ndigits > 1, _I8_ONE, _I8_NO_POINT)))

    cells[_SIGN] = (bits < 0) * _U8_MINUS
    cells[_LEAD] = small * _U8_ZERO
    cells[_LEAD + 1] = small * _U8_POINT
    cells[_LEAD + 2:_DIGITS] = (_BLOCK[:3] < -fixed) * _U8_ZERO
    block = cells[_DIGITS:_SUFFIX]
    np.multiply(d[1:], _BLOCK < np.minimum(point, written), out=block)
    block += (_BLOCK == point) * _U8_POINT
    block += d[:-1] * ((_BLOCK > point) & (_BLOCK <= written))
    cells[_SUFFIX:_WIDTH] = suffixes.take(np.where(exponent, decpt - 1 - _MIN_EXP, -1), axis=1)

    for i in np.flatnonzero(unsure).tolist():
        text = float.__repr__(float(values[i])).encode()
        cells[:, i] = 0
        cells[:len(text), i] = np.frombuffer(text, np.uint8)


def _int_cells(values: np.ndarray, cells: np.ndarray) -> None:
    """The cells of ``int.__repr__`` of each int64 value, right-aligned in ``cells``' rows, NUL before."""
    _, quads, _, _ = _tables()
    width = cells.shape[0]
    magnitude = values.view(np.uint64)
    negative = values < 0
    if negative.any():
        magnitude = np.where(negative, ~magnitude + _U1, magnitude)
    # Groups of four digits, each looked up in ``quads``; the first is below 10000.
    groups = -(-width // 4)
    digits = np.empty((4 * groups, values.size), np.uint8)
    rest = magnitude
    for g in range(groups - 1, 0, -1):
        rest, quad = np.divmod(rest, _U10000)
        digits[4 * g:4 * g + 4] = quads.take(quad.astype(np.intp), axis=1)
    digits[:4] = quads.take(rest.astype(np.intp), axis=1)
    cells[...] = digits[4 * groups - width:]
    # Each cell before the value's first digit is NUL; for a negative value the last of them is "-".
    leading = magnitude < _POW10[width - 1:0:-1, None]
    cells[:-1] *= ~leading
    if negative.any():
        sign = np.flatnonzero(negative)
        cells[leading[:, sign].sum(axis=0) - 1, sign] = _U8_MINUS
