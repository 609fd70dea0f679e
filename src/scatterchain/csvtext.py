"""CSV rows built as byte blocks in numpy, with floats spelled as '%.17g' spells them.

spell_17g lays the text of many doubles out at once, each in a fixed field of
FIELD bytes padded with NUL; csv_rows stacks such fields, and text columns
packed the same way, into CSV rows, a block of rows at a time, and drops the
NULs.  cli._render calls csv_rows on CSV tables of cli._CSV_BLOCK_ROWS rows
or more.

The speller scales |x| by 10^(16-E), E the decimal exponent, as a
double-double: Dekker's exact product of x and the high part of 10^s (no
fused multiply-add), plus x times its low part.  For 1e-250 <= |x| <= 1e250
nothing in it overflows or leaves the normal range, and the scaled value,
between 1e16 and 1e17, is known to about 2^-43, far inside the 2^-30 that
an element's fraction must keep from one half.  Rounding to the nearest
integer then gives the 17 digits that Python's correctly rounded '%.17g'
gives.  A nonzero element outside that range (inf and NaN too), or one
whose fraction lies within 2^-30 of one half (every exact tie does), is
spelled by Python itself, so every byte equals Python's by construction.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

# Bytes of one spelled double: sign, the "0.000" of 1e-4 <= |x| < 0.1, 17
# digits with the point among them, and "e-ddd".
FIELD = 1 + 5 + 18 + 5
# Doubles per speller call: its temporaries are a few times FIELD bytes each.
SPELL_CHUNK = 2048
# The speller's fast range, and how close to one half a fraction may come
# before the element is left to Python.
_FAST_MIN, _FAST_MAX = 1e-250, 1e250
_TIE_MARGIN = 2.0 ** -30
_SPLIT = 134217729.0  # 2^27 + 1, Dekker's splitter
# The exponents s of the 10^s tables: 16 - E for |E| <= 251.
_E_MIN, _E_MAX = -251, 251
_S_MIN, _S_MAX = 16 - _E_MAX, 16 - _E_MIN


def _power(s: int) -> tuple[float, float]:
    """10^s as a double-double (high, low), each part correctly rounded from
    exact integer arithmetic; the pair is within 2^-106 of 10^s."""
    if s >= 0:
        exact = 10 ** s
        high = float(exact)
        return high, float(exact - int(high))
    scale = 10 ** -s
    high = 1 / scale  # int true division is correctly rounded
    num, den = high.as_integer_ratio()
    return high, (den - num * scale) / (den * scale)


def _split(a):
    # Dekker's split of a into a high part of 26 bits and the rest
    c = _SPLIT * a
    high = c - (c - a)
    return high, a - high


@functools.cache
def _tables():
    """The speller's lookup tables, built on first use.  By table index s -
    _S_MIN: 10^s as a double-double, its high part split.  By a chunk c of
    four digits: its ASCII digits packed in a uint32, and for each of the
    four chunks of a number, the position among the 17 digits of its last
    nonzero digit (0 for c = 0).  By E - _E_MIN for a decimal exponent E:
    the digits before the point, and the bytes of the "0.000" prefix (rows
    0-4) and of the "e-ddd" exponent (rows 5-9), NUL where there are none."""
    high, low = np.array([_power(s) for s in range(_S_MIN, _S_MAX + 1)]).T
    chunk = np.arange(10000)
    places = chunk // np.array([[1000], [100], [10], [1]]) % 10  # the digits, by row
    digits = (places + ord("0")).astype(np.uint8).T.copy().view(np.uint32)[:, 0]
    # the digits of a chunk up to its last nonzero one: 4 less its trailing zeros
    significant = 4 - sum(chunk % unit == 0 for unit in (10, 100, 1000))
    last = np.array([np.where(chunk > 0, 1 + 4 * j + significant, 0) for j in range(4)],
                    np.int8)
    whole = np.ones(_E_MAX - _E_MIN + 1, np.int8)
    frames = np.zeros((10, whole.size), np.uint8)
    for column, e in enumerate(range(_E_MIN, _E_MAX + 1)):
        if -4 <= e < 17:
            whole[column] = max(e + 1, 0)
            text = "0.000"[:1 - e] if e < 0 else ""
        else:
            text = f"\0\0\0\0\0e{e:+04d}".replace("+0", "+\0").replace("-0", "-\0")
        frames[:, column] = list(text.ljust(10, "\0").encode())
    return (high, low, *_split(high)), digits, last, whole, frames


def _scaled(x, e):
    """x 10^(16-e) as a double-double (p, err)."""
    (high, low, high_h, high_l), *_ = _tables()
    s = (16 - _S_MIN) - e.astype(np.intp)
    p = high.take(s)
    p *= x
    x_h, x_l = _split(x)
    h_h, h_l = high_h.take(s), high_l.take(s)
    err = x_h * h_h
    err -= p
    x_h *= h_l
    err += x_h
    h_h *= x_l
    err += h_h
    x_l *= h_l
    err += x_l
    h_l = low.take(s, out=h_l)
    h_l *= x
    err += h_l
    return p, err


def _python(values) -> list:
    # Python's own spelling, for the elements the fast path leaves
    return ["%.17g" % v for v in values]


def spell_17g(values: np.ndarray) -> np.ndarray:
    """The bytes of '%.17g' % v for every double v of values, as a uint8
    array of shape (FIELD, len(values)): column i holds the text of values[i]
    in order, with NUL bytes among and after its characters."""
    x = np.asarray(values, dtype=np.float64)
    n = x.size
    _, digit_table, last_table, whole_table, frames = _tables()
    magnitude = np.abs(x)
    fast = magnitude >= _FAST_MIN
    fast &= magnitude <= _FAST_MAX
    zero = magnitude == 0.0
    magnitude[~fast] = 1.0  # E = 0 and no overflow for the elements left to Python
    e = np.log10(magnitude)
    e = np.floor(e, out=e).astype(np.int16)
    p, lo = _scaled(magnitude, e)
    # the estimate is off by one where the scaled value leaves [1e16, 1e17)
    edge = np.flatnonzero((p <= 1e16) | (p >= 1e17))
    if edge.size:
        p_edge, lo_edge = p[edge], lo[edge]
        e[edge] += (((p_edge > 1e17) | ((p_edge == 1e17) & (lo_edge >= 0.0))).astype(np.int16)
                    - ((p_edge < 1e16) | ((p_edge == 1e16) & (lo_edge < 0.0))))
        p[edge], lo[edge] = _scaled(magnitude[edge], e[edge])
    # D, the 17 digits: p + lo rounded to the nearest integer
    whole = np.floor(lo)
    lo -= whole
    d = p.astype(np.int64)
    d += whole.astype(np.int64)
    d += lo > 0.5
    lo -= 0.5
    python = np.flatnonzero((np.abs(lo, out=lo) < _TIE_MARGIN) | ~(fast | zero))
    top = np.flatnonzero(d == 10 ** 17)
    d[top] = 10 ** 16
    e[top] += 1
    d[zero] = 0

    # the lead digit, then four chunks of four digits, and the position of
    # the last nonzero digit
    lead, d = np.divmod(d, 10 ** 16)
    chunks = np.empty((4, n), np.uint32)
    last = np.minimum(lead, 1).astype(np.int8)
    for row, unit in enumerate((10 ** 12, 10 ** 8, 10 ** 4, 1)):
        chunk = d // unit
        d -= chunk * unit
        digit_table.take(chunk, out=chunks[row])
        np.maximum(last, last_table[row].take(chunk), out=last)
    digits = np.empty((17, n), np.uint8)
    digits[0] = lead
    digits[0] += ord("0")
    digits[1:].reshape(4, 4, n)[...] = chunks.view(np.uint8).reshape(4, n, 4).transpose(0, 2, 1)

    # digits before the point: E + 1 in fixed notation from 1, one in exponent
    # notation, none below 1 (the point then comes with the "0.000" prefix).
    # Choices are masks, not np.where: a data-dependent choice per byte is slow.
    column = (e - _E_MIN).astype(np.intp)
    whole_digits = whole_table.take(column)
    index = np.arange(17, dtype=np.int8)[:, None]
    digits *= index < np.maximum(last, whole_digits)
    # slot j of the body holds digit j before the point's slot, digit j - 1
    # after it; 18 is the slot of no point
    after = (whole_digits - 18) * ((last > whole_digits) & (whole_digits > 0))
    after += 18
    out = np.empty((FIELD, n), np.uint8)
    out[0] = np.signbit(x)
    out[0] *= ord("-")
    for row in range(5):
        frames[row].take(column, out=out[1 + row])
        frames[5 + row].take(column, out=out[24 + row])
    body = out[6:24]
    np.multiply(digits, index < after, out=body[:17])
    body[17] = 0
    digits -= body[:17]
    body[1:] += digits
    body[:17] += (index == after) * np.uint8(ord("."))
    if python.size:
        texts = np.array(_python(x[python].tolist()), dtype=f"S{FIELD}")
        out[:, python] = texts.view(np.uint8).reshape(python.size, FIELD).T
    return out


def csv_rows(head: str, columns: list, count: int) -> str:
    """head followed by count CSV rows, each ended by CRLF.  A column is a
    (float64 array, defined mask or None) pair, spelled by spell_17g with an
    empty field where the mask is False, whatever value lies there; or an
    iterator of the rows' CSV fields as text.  head and the texts are ASCII
    without NUL.  Rows are built SPELL_CHUNK doubles at a time, in one uint8
    array of a block's rows; their bytes, NULs dropped, go into one output
    array sized from the first block, and the text is decoded from it once."""
    floats = [c for c in columns if isinstance(c, tuple)]
    masked = any(defined is not None for _, defined in floats)
    rows = max(1, SPELL_CHUNK // max(1, len(floats)))
    text, used = np.frombuffer(head.encode(), np.uint8), len(head)
    for start in range(0, count, rows):
        stop = min(start + rows, count)
        size = stop - start
        if floats:
            values = np.concatenate([c[start:stop] for c, _ in floats])
            if masked:
                undefined = ~np.concatenate([np.ones(size, bool) if d is None else d[start:stop]
                                             for _, d in floats])
                values[undefined] = 0.0  # so that no NaN or inf there goes to Python
            spelled = spell_17g(values).T
            if masked:
                spelled[undefined] = 0  # all NUL: an empty field
        parts, position = [], 0
        for column in columns:
            if isinstance(column, tuple):
                parts.append(spelled[position:position + size])
                position += size
                continue
            packed = np.array(list(itertools.islice(column, size)), dtype="S")
            parts.append(packed.view(np.uint8).reshape(size, packed.itemsize))
        widths = [part.shape[1] for part in parts]
        width = sum(widths) + len(parts) + 1
        block = np.zeros((size, width), np.uint8)
        offset = 0
        for part, part_width in zip(parts, widths):
            block[:, offset:offset + part_width] = part
            offset += part_width
            block[:, offset] = ord(",")
            offset += 1
        block[:, offset - 1] = ord("\r")
        block[:, offset] = ord("\n")
        compact = np.frombuffer(block.tobytes().translate(None, b"\0"), np.uint8)
        if used + compact.size > text.size:  # room for this block and the rest at its width
            grown = np.empty(used + compact.size + (count - stop) * width, np.uint8)
            grown[:used] = text[:used]
            text = grown
        text[used:used + compact.size] = compact
        used += compact.size
    return str(memoryview(text[:used]), "ascii")
