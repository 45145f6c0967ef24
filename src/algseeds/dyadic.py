"""Fixed-point integer intervals: the package's one interval layer.

A value v is represented by (lo, hi) with lo/2**S <= v <= hi/2**S, for a
scale S that the caller passes explicitly.  Rounding is always outward, so
every result interval encloses the true value.  ``horner_scaled`` and
``isqrt_iv`` are exact on their integer inputs: the first is interval Horner
over a cell [lo/den, hi/den] scaled by den**deg, the second encloses a square
root by one ``isqrt`` each side.  Every rounding of an int cell [left,
right] / den to scale 2**s, a number's cell or a value at a finer scale,
goes through ``fp_from_cell``; Fraction endpoints leave only where a caller
builds its public result.
"""

from __future__ import annotations

from math import isqrt

IntIv = tuple[int, int]


def fp_from_cell(left: int, right: int, den: int, s: int) -> IntIv:
    """(floor(left 2**s / den), ceil(right 2**s / den)) for den > 0: the cell
    [left, right] / den rounded outward to scale 2**s."""
    return ((left << s) // den, -((-right << s) // den))


def fp_add(a: IntIv, b: IntIv) -> IntIv:
    return (a[0] + b[0], a[1] + b[1])


def fp_sub(a: IntIv, b: IntIv) -> IntIv:
    return (a[0] - b[1], a[1] - b[0])


def fp_neg(a: IntIv) -> IntIv:
    return (-a[1], -a[0])


def fp_mul(a: IntIv, b: IntIv, s: int) -> IntIv:
    p1 = a[0] * b[0]
    p2 = a[0] * b[1]
    p3 = a[1] * b[0]
    p4 = a[1] * b[1]
    lo = min(p1, p2, p3, p4)
    hi = max(p1, p2, p3, p4)
    return (lo >> s, -((-hi) >> s))


def horner_scaled(coeffs, lo: int, hi: int, den: int) -> IntIv:
    """Enclosure of den**n q(t) over t in [lo/den, hi/den], den > 0, for the
    int coefficients coeffs[0] + coeffs[1] t + ... + coeffs[n] t**n: interval
    Horner, exact on integers."""
    acc_lo = acc_hi = coeffs[-1]
    scale = 1
    for c in reversed(coeffs[:-1]):
        scale *= den
        ps = (acc_lo * lo, acc_lo * hi, acc_hi * lo, acc_hi * hi)
        acc_lo, acc_hi = min(ps) + c * scale, max(ps) + c * scale
    return (acc_lo, acc_hi)


def isqrt_iv(lo: int, hi: int) -> IntIv:
    """(floor sqrt(lo), ceil sqrt(hi)) for 0 <= lo <= hi: encloses sqrt over [lo, hi]."""
    s = isqrt(hi)
    return (isqrt(lo), s + (s * s < hi))
