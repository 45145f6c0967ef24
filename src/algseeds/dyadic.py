"""Small exact-interval toolbox used across the package.

Two layers:
  * Fraction intervals (lo, hi) for low-volume work (gap reports, complex
    enclosures).  All endpoint arithmetic is exact.
  * Fixed-point integer intervals at an explicit scale 2**-S for the hot
    paths in the field oracle.  Rounding is always outward, so every result
    interval encloses the true value.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

FracIv = tuple[Fraction, Fraction]


def iv_sub(a: FracIv, b: FracIv) -> FracIv:
    return (a[0] - b[1], a[1] - b[0])


def iv_mul(a: FracIv, b: FracIv) -> FracIv:
    ps = (a[0] * b[0], a[0] * b[1], a[1] * b[0], a[1] * b[1])
    return (min(ps), max(ps))


def iv_width(a: FracIv) -> Fraction:
    return a[1] - a[0]


def iv_horner(coeffs, x: FracIv) -> FracIv:
    """Enclosure of coeffs[0] + coeffs[1] t + coeffs[2] t^2 + ... over t in x."""
    acc = (Fraction(0), Fraction(0))
    for c in reversed(coeffs):
        lo, hi = iv_mul(acc, x)
        acc = (lo + c, hi + c)
    return acc


def frac_sqrt_interval(x: FracIv, bits: int) -> FracIv:
    """Enclosure of sqrt over a nonnegative Fraction interval, width <= 2**(1-bits)."""
    lo, hi = x
    if hi < 0:
        raise ValueError("negative interval has no real square root")
    lo = max(lo, Fraction(0))
    scale = 1 << bits
    s_lo = isqrt((lo.numerator * scale * scale) // lo.denominator)
    hi_scaled = -((-(hi.numerator * scale * scale)) // hi.denominator)  # ceil
    s_hi = isqrt(hi_scaled)
    if s_hi * s_hi < hi_scaled:
        s_hi += 1
    return (Fraction(s_lo, scale), Fraction(s_hi, scale))


# ---------------------------------------------------------------------------
# Fixed-point integer intervals.  A value v is represented by (lo, hi) with
# lo/2**S <= v <= hi/2**S.  S is passed explicitly by the caller.

IntIv = tuple[int, int]


def fp_from_fraction(f: Fraction, s: int) -> IntIv:
    num = f.numerator << s
    den = f.denominator
    lo = num // den
    hi = -((-num) // den)
    return (lo, hi)


def fp_from_fractions(lo: Fraction, hi: Fraction, s: int) -> IntIv:
    return (fp_from_fraction(lo, s)[0], fp_from_fraction(hi, s)[1])


def fp_to_fractions(a: IntIv, s: int) -> FracIv:
    return (Fraction(a[0], 1 << s), Fraction(a[1], 1 << s))


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


def fp_div(a: IntIv, b: IntIv, s: int) -> IntIv:
    if b[0] <= 0 <= b[1]:
        raise ZeroDivisionError("divisor interval contains zero")
    los = []
    his = []
    for x in a:
        xs = x << s
        for y in b:
            los.append(xs // y)
            his.append(-((-xs) // y))
    return (min(los), max(his))
