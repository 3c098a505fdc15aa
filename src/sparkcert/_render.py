"""format_float of each entry of a float64 array, in numpy, with the same bytes.

"%.17g" rounds a double to 17 significant digits D * 10^(X - 16), with
10^16 <= D < 10^17, half to even on the exact binary value, and since
|x| < 10^17 here it writes them in fixed notation. Python reaches those
digits through dtoa's bignum code; here they come from error-free
arithmetic, with no rounding of its own:

- Non-integral entries with 1e-4 <= |x| (all below 2^52): np.log10 gives
  X, corrected against the smallest double >= 10^X wherever it is off by
  one. 10^(16 - X) is an exact double (16 - X <= 20, and 5^20 < 2^53), so
  Dekker's two-product (Numer. Math. 18, 1971) gives |x| * 10^(16 - X) =
  hi + lo exactly. hi >= 10^16 > 2^53 is an even integer, so D = hi +
  rint(lo) is the product rounded half to even. No entry rounds up to
  D = 10^17: the largest doubles under 10^-3, 10^-2 and 10^-1 round to
  0.0009999999999999998, 0.0099999999999999985 and 0.099999999999999992,
  and above 1 a double is at least ulp(x) > |x| * 2^-53 from 10^(X + 1),
  more than half a unit of the 17th digit. By the same bound a fraction
  never rounds to an integer, so at least one digit follows the point
  once trailing zeros are trimmed.
- Integral entries with |x| < 1e17: the digits of the int64 |x|, then ".0".
- Every other entry (|x| < 1e-4 but not 0, subnormals included, integral
  |x| >= 1e17, +-inf and nan) goes through format_float itself.

The characters are laid out one per row of a uint8 array with one column
per entry; NUL marks a row an entry does not use, and is deleted when the
rows are joined. No array is viewed as bytes, so no byte order is assumed.
"""

from __future__ import annotations

import numpy as np

from .formats import format_float

# 10^k for k = 0..20, exact doubles, each split into two halves of at most
# 26 significant bits (Veltkamp) for the two-product
_POW10 = np.array([float(10**k) for k in range(21)])
_SPLIT = 134217729.0  # 2^27 + 1


def _halves(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    c = v * _SPLIT
    high = c - (c - v)
    return high, v - high


_POW10_HIGH, _POW10_LOW = _halves(_POW10)
# the smallest double >= 10^X for X = -4..16: each literal below 1 rounds up
_POW10_CEIL = np.array([float(f"1e{exp}") for exp in range(-4, 17)])
_ROWS = np.arange(23, dtype=np.uint8)[:, None]
_ZERO, _POINT, _MINUS = (np.uint8(ord(c)) for c in "0.-")


def render(values: np.ndarray, seps: np.ndarray) -> str:
    """format_float of each of the 1-D float64 values, each followed by its separator byte."""
    n = values.size
    a = np.abs(values)
    with np.errstate(invalid="ignore"):  # a signaling nan
        whole = np.floor(a) == a  # True for inf, False for nan
        integral = whole & (a < 1e17)
        frac = ~whole & (a >= 1e-4)

    x = np.where(frac, a, 1.0)
    exp = np.floor(np.log10(x)).astype(np.intp).clip(-4, 15)
    exp -= x < _POW10_CEIL[exp + 4]
    exp += x >= _POW10_CEIL[exp + 5]
    k = 16 - exp
    hi = x * _POW10[k]
    x_high, x_low = _halves(x)
    lo = ((x_high * _POW10_HIGH[k] - hi) + x_high * _POW10_LOW[k] + x_low * _POW10_HIGH[k]) \
        + x_low * _POW10_LOW[k]
    digits = hi.astype(np.int64) + np.rint(lo).astype(np.int64)
    digits[integral] = a[integral]

    # chars[0..21]: four '0's, the 17 digits zero-padded, and the '0' of an
    # integral entry's ".0". An entry writes chars[first..last], with its
    # point after chars[point]: from the first nonzero digit (the units
    # digit of 0), or from the '0' before the point of a value below 1, to
    # the last nonzero digit, or to that '0' of an integral entry
    chars = np.zeros((22, n), np.uint8)
    parts = np.array(np.divmod(digits, 10**9), np.int32)  # 8 and 9 digits
    for i in range(9):
        tens = parts // 10
        chars[[11 - i, 20 - i]] = parts - tens * 10
        parts = tens
    chars[21] = integral
    nonzero = (chars[4:] != 0).view(np.uint8)
    point = np.where(integral, 20, 4 + exp).astype(np.uint8)
    first = np.minimum(20 - (nonzero[:17] * _ROWS[16::-1]).max(axis=0), point)
    last = (nonzero * _ROWS[4:22]).max(axis=0)
    chars[:21] += _ZERO
    chars[21] *= _ZERO
    chars *= ((_ROWS[:22] >= first) & (_ROWS[:22] <= last)).view(np.uint8)

    out = np.zeros((25, n), np.uint8)
    out[0] = np.signbit(values).view(np.uint8) * _MINUS
    before = chars * (_ROWS[:22] <= point).view(np.uint8)
    out[1:23] = before
    out[2:24] += chars - before
    out[point + 2, np.arange(n)] = _POINT
    out[24] = seps
    other = np.flatnonzero(~(integral | frac))
    if other.size:
        text = [format_float(v) for v in values[other].tolist()]
        out[:24, other] = np.array(text, "S24").view(np.uint8).reshape(-1, 24).T
    return out.T.tobytes().translate(None, b"\0").decode("ascii")
