"""float() of each field of comma- and newline-separated decimal text, in numpy, with the same bits.

read() takes the text only in a clean layout, and returns None for any
other text, so that the caller's own reader parses it and reports any
error: the text is ASCII, its fields are split by '\\n' alone, or by
',' and '\\n' into lines of a given width, with no blank line, and the
last line ends the text with or without '\\n'. Whitespace, a comment, a
blank line or a ragged line leaves a field that float() rejects, or a
field count that does not match, and is declined; a text that ends with
',' or with a blank line is declined before any field is converted. So
is a text where over one in 16 of the first _SAMPLE fields go to
float(), as numpy's C reader converts such a text faster.

A field that matches -?[0-9]*[.]?[0-9]* with at least one digit, and has
at most 24 bytes after its sign, is plain: its value is x = M / 10^f,
where M is its digits read as an integer and f digits follow the point. read() converts a plain
field itself when M < 10^19 and f <= 22, with no rounding of its own:

- M <= 2^53 (Clinger, PLDI 1990): M and 10^f (5^22 < 2^53) are exact
  doubles, so fl(M / 10^f) is x correctly rounded.
- 2^53 < M < 10^19: split M = H * 2^11 + L with L < 2^11, both exact
  doubles. y0 = fl(fl(H * 2^11 + L) / 10^f) carries two roundings, so
  |x - y0| < 2 ulp(y0) (1 + 3u), u = 2^-53. Dekker's two-product (Numer.
  Math. 18, 1971) splits y0 * 10^f = hi + lo exactly. hi is an integer
  within 2^13 of M, so H * 2^11 - hi is exact by Sterbenz's lemma, and
  adding L gives M - hi exactly. t = (M - hi) - lo = M - y0 * 10^f is a
  multiple of g = 2^min(0, e - 52 + f), where 2^e <= y0 < 2^(e + 1), and
  |t| / g is below 2 * 5^f * (1 + 3u) < 2^53 (below 5,000 where g = 1),
  so t is exact too. With h = 10^f ulp(y0) / 2, also exact: |t| < h
  gives y0, and h < |t| < 3h gives y0 + sign(t) ulp(y0), which lies
  within half an ulp of x. A field goes to float() where |t| = h or
  |t| >= 3h (a tie, or a step of two), and where y0 is a power of two or
  the double next above one, since the doubles below it, or below its
  step down, lie closer together.

Every other field goes to float(): one with an exponent or a '+', over
19 significant digits, over 22 digits after the point or over 24 bytes
after its sign, and a field that ends within the first 24 bytes of the
text. A field
that float() rejects, or that holds a byte other than [-+.0-9eE], makes
read() decline the whole text.

A plain field is read from its first byte, for its sign, and from the 24
bytes that end it, as three little-endian 64-bit words, 8 bytes at a
time (SWAR): a test of each byte's high bit after an addition marks
digits and points, one multiplication sums a word's bytes to count them,
the point is dropped by moving the bytes before it on by one, and a
multiply, shift and mask done thrice folds 8 digits into their value. Words are viewed as '<u8',
so no byte order is assumed. The fields are converted a chunk at a time,
in work arrays kept across chunks.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from itertools import pairwise

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# Fields converted at a time. At 160x800 a chunk of 8,192 parsed as fast
# as one of 16,384 and kept the parse's peak memory within that of numpy's
# own reader.
_CHUNK = 8192
# The first chunk, which decides whether read() goes on. Declining a
# 160x800 CSV written with %.6e or %.18e there took 1.8 and 3.1 ms, 14%
# and 6% of numpy's C reader's parse, against 3.6-8x to convert it here.
_SAMPLE = 1024
# bytes scanned for separators at a time
_BLOCK = 65536
_WINDOW = 24

_U = np.uint64


def _bytes(value: int) -> np.uint64:
    """A 64-bit word with `value` in each of its 8 bytes."""
    return _U(value * 0x0101010101010101)


_ONES = _bytes(1)
_LOW_NIBBLES = _bytes(0x0F)
# for a byte b < 128, b + (128 - c) has its high bit set iff b >= c
_AT_LEAST = {c: _bytes(128 - c) for c in (46, 47, 48, 58)}
# _KEEP[:, n]: the three words of a mask of the last n bytes of a window;
# byte i of a window is byte i % 8 of word i // 8, little-endian
_KEEP = np.array(
    [[sum(255 << 8 * (i % 8) for i in range(8 * w, 8 * w + 8) if i >= _WINDOW - n)
      for n in range(_WINDOW + 1)] for w in range(3)],
    np.uint64,
)
# 8 digits to a word: pairs, then fours, then all eight
_FOLD = [
    (_U(8), _U(10), _U(0x00FF00FF00FF00FF)),
    (_U(16), _U(100), _U(0x0000FFFF0000FFFF)),
    (_U(32), _U(10000), _U(0x00000000FFFFFFFF)),
]
# 10^f for f = 0..22, exact doubles, each split into two halves of at most
# 26 significant bits (Veltkamp) for the two-product
_SPLIT = 134217729.0  # 2^27 + 1
_POW10 = [float(10**f) for f in range(23)]
_POW10_HIGH = [p * _SPLIT - (p * _SPLIT - p) for p in _POW10]
_POW10, _POW10_HIGH, _POW10_LOW = (
    np.array(v) for v in (_POW10, _POW10_HIGH, [p - h for p, h in zip(_POW10, _POW10_HIGH)])
)
# frexp's fraction of the double next above a power of two
_NEXT_ABOVE_POW2 = 0.5 + 2.0**-53
_FLOAT_CHARS = re.compile(r"[-+.0-9eE]+")


def _byte_sum(words: np.ndarray, out: np.ndarray) -> None:
    """The sum of the bytes of three words, each byte at most 1, by column."""
    np.add(words[0], words[1], out=out)
    out += words[2]
    out *= _ONES
    out >>= _U(56)


def _in_range(x: np.ndarray, low: int, high: int, out: np.ndarray, scratch: np.ndarray) -> None:
    """1 in each byte of x that lies in [low, high), else 0."""
    np.add(x, _AT_LEAST[low], out=out)
    np.add(x, _AT_LEAST[high], out=scratch)
    np.invert(scratch, out=scratch)
    out &= scratch
    out >>= _U(7)
    out &= _ONES


def _convert(
    windows: np.ndarray,
    lengths: np.ndarray,
    negative: np.ndarray,
    work: np.ndarray,
    out: np.ndarray,
) -> np.ndarray:
    """Write float() of each plain field to out; True where one was plain and settled.

    Row i of windows holds the 24 bytes that end field i, which is
    lengths[i] bytes long and starts with '-' where negative[i]. work
    holds five (3, k) uint64 arrays. Where False is returned, out holds
    no defined value.
    """
    k = lengths.size
    x, t, digit, point, count = work[:, :, :k]
    np.copyto(x, windows.view("<u8").T)
    _KEEP.take(np.minimum(lengths, _WINDOW), axis=1, out=t)
    x &= t
    _in_range(x, 48, 58, digit, t)
    _in_range(x, 46, 47, point, t)
    _byte_sum(digit, count[0])
    _byte_sum(point, count[1])
    # digit values, 0 in every other byte
    x &= _LOW_NIBBLES
    digit *= _U(255)
    x &= digit
    # the bytes before the point: those of every word before its own, and
    # those below it in its word, where point - 1 has its bytes set
    seen = point != 0
    seen[1] |= seen[2]
    seen[0] |= seen[1]
    point -= _U(1)
    point *= seen
    np.bitwise_and(point, _ONES, out=t)
    _byte_sum(t, count[2])
    # move their digits on by one byte, into the point's, across the three
    # words: x + b * 255 = x - b + (b << 8), with the bytes b << 8 pushes
    # out of a word added to the next
    point &= x
    np.multiply(point, _U(255), out=t)
    x += t
    np.right_shift(point[:2], _U(56), out=t[:2])
    x[1:] += t[:2]
    for shift, scale, mask in _FOLD:
        np.right_shift(x, shift, out=t)
        x *= scale
        x += t
        x &= mask
    # M = x0 10^16 + x1 10^8 + x2, below 10^19 iff x0 < 1000
    m = digit[0]
    np.multiply(x[0], _U(10**16), out=m)
    np.multiply(x[1], _U(10**8), out=t[0])
    m += t[0]
    m += x[2]
    n_digit, n_point, before = count.view(np.int64)
    plain = (n_digit + n_point + negative == lengths) & (n_point <= 1) & (n_digit > 0)
    plain &= x[0] < _U(1000)
    # f = 23 - before where there is a point, else 0
    before -= _WINDOW - 1
    before *= seen[0]
    np.negative(before, out=before)
    plain &= before <= 22
    f = np.minimum(before, 22)
    np.maximum(f, 0, out=f)
    small = m <= _U(2**53)

    # float64 views of rows that no longer hold anything read below
    power, high, low = work[0].view(np.float64)[:, :k]
    a, b, product = work[3].view(np.float64)[:, :k]
    d, err, step = work[4].view(np.float64)[:, :k]
    _POW10.take(f, out=power)
    np.right_shift(m, _U(11), out=t[0])
    np.copyto(high, t[0])
    high *= 2048.0
    np.bitwise_and(m, _U(2047), out=t[0])
    np.copyto(low, t[0])
    y = out
    np.add(high, low, out=y)
    y /= power
    # the two-product y * 10^f = product + err, from halves of at most 26 bits
    np.multiply(y, power, out=product)
    np.multiply(y, _SPLIT, out=a)
    np.subtract(a, y, out=b)
    a -= b
    np.subtract(y, a, out=b)
    _POW10_HIGH.take(f, out=d)
    np.multiply(a, d, out=err)
    err -= product
    d *= b
    err += d
    _POW10_LOW.take(f, out=d)
    a *= d
    err += a
    b *= d
    err += b
    # t = ((H 2^11 - hi) + L) - lo
    high -= product
    high += low
    high -= err
    fraction, exp = np.frexp(y)
    # h = 10^f ulp(y) / 2, and a step of ulp(y) toward t where |t| > h
    exp -= 54
    half = np.ldexp(power, exp, out=power)
    size = np.abs(high, out=low)
    settled = small | ((fraction > _NEXT_ABOVE_POW2) & (size != half) & (size < 3.0 * half))
    exp += 1
    np.ldexp(1.0, exp, out=step)
    np.copysign(step, high, out=step)
    step *= (size > half) & ~small
    y += step
    np.copyto(t[0], negative)
    t[0] <<= _U(63)
    y.view(np.uint64)[...] |= t[0]
    plain &= settled
    return plain


def _separators(data: np.ndarray, start: int, width: int) -> Iterator[np.ndarray]:
    """The positions of the separators in data[start:], a block at a time.

    The end of data counts as one where data does not end with '\\n'.
    """
    for i in range(start, data.size, _BLOCK):
        block = data[i : i + _BLOCK]
        is_separator = block == np.uint8(10)
        if width > 1:
            is_separator |= block == np.uint8(44)
        yield np.flatnonzero(is_separator) + i
    if data[-1] != 10:
        yield np.array([data.size])


def read(text: str, start: int, width: int, count: int) -> np.ndarray | None:
    """float() of the `count` fields of text[start:], `width` to a line, or None.

    None where the module docstring says read() declines the text.
    """
    # each field but the last takes at least two bytes; a field after a
    # last ',', or a blank last line, is one float() rejects or one too many
    if (not text.isascii() or text.endswith((",", "\n\n"))
            or len(text) < max(_WINDOW, start + 2 * count - 1)):
        return None
    data = np.frombuffer(text.encode("ascii"), np.uint8)
    separators = _separators(data, start, width)
    # ends[j + 1] is the separator after field j; ends[0] is the byte before the first
    ends = np.empty(count + 1, np.int32 if data.size < 2**31 else np.intp)
    ends[0] = start - 1
    filled = 1
    values = np.empty(count)
    work = np.empty((5, 3, min(count, _CHUNK)), np.uint64)
    windows = sliding_window_view(data, _WINDOW)
    slow = []
    sample = min(_SAMPLE, count)
    for i, j in pairwise([0, *range(sample, count, _CHUNK), count]):
        # scan on until the separator after field j - 1 is found
        while filled <= j:
            found = next(separators, None)
            if found is None or filled + found.size > count + 1:
                return None
            ends[filled : filled + found.size] = found
            filled += found.size
        stop = ends[i + 1 : j + 1]
        first = ends[i:j] + 1
        rows = stop - _WINDOW
        np.maximum(rows, 0, out=rows)
        negative = data[first] == np.uint8(45)
        settled = _convert(windows[rows], stop - first, negative, work, values[i:j])
        settled &= stop >= _WINDOW
        if j == sample and 16 * np.count_nonzero(~settled) > j:
            return None
        slow += (i + np.flatnonzero(~settled)).tolist()
    if any(found.size for found in separators):
        return None
    if width > 1:
        newline = data[ends[1:-1]] == np.uint8(10)
        if np.count_nonzero(newline) != count // width - 1 or not newline[width - 1 :: width].all():
            return None
    for j in slow:
        field = text[ends[j] + 1 : ends[j + 1]]
        if not _FLOAT_CHARS.fullmatch(field):
            return None
        try:
            values[j] = float(field)
        except ValueError:
            return None
    return values
