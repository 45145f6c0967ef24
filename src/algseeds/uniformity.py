"""Gap statistics, extreme discrepancy, and half-interval counts.

For a set x_1 < ... < x_N in (0,1) the interior gaps are
Delta_i = x_{i+1} - x_i.  Almost-uniformity is quantified by
max_i |Delta_i - 1/N| <= c/N^2; the report exposes the measured
constant c = N^2 * max_dev rather than thresholding it.

Every inequality is decided on rigorous enclosures, refined until the
comparison separates; compared quantities are irrational against
rational bounds, so ties cannot occur.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .algebraic import (AffineValue, AlgebraicNumber, FracIv, refine_until, round_half_even,
                        value_enclosure)
from .families import MonicIntPoly, SetInstance, SetSpec, half_shift_poly


class TooFewElements(ValueError):
    pass


_ZERO = Fraction(0)


def _iv_json(iv: FracIv, places: int = 8) -> dict:
    lo, hi = iv
    return {"lo": [str(lo.numerator), str(lo.denominator)],
            "hi": [str(hi.numerator), str(hi.denominator)],
            "decimal": round_half_even((lo + hi) / 2, places)}


@dataclass(frozen=True)
class BoundCheck:
    description: str
    satisfied: bool

    def to_json(self) -> dict:
        return {"description": self.description, "satisfied": self.satisfied}


@dataclass(frozen=True)
class UniformityReport:
    n: int
    gaps: tuple[FracIv, ...]
    max_dev: FracIv | None
    constant: FracIv | None          # N^2 * max_dev
    discrepancy: FracIv | None
    half_counts: tuple[int, int] | None
    bound_check: BoundCheck | None

    def to_json(self) -> dict:
        return {"n": self.n,
                "gaps": [_iv_json(g) for g in self.gaps],
                "max_dev": _iv_json(self.max_dev) if self.max_dev else None,
                "constant": _iv_json(self.constant) if self.constant else None,
                "discrepancy": _iv_json(self.discrepancy) if self.discrepancy else None,
                "half_counts": list(self.half_counts) if self.half_counts else None,
                "bound_check": self.bound_check.to_json() if self.bound_check else None}


def im_fractional(s: SetInstance) -> list:
    """The fractional parts of the imaginary parts of a 2i instance, sorted.

    Odd n: Im = sqrt(4c-1)/2, not an algebraic integer, carried as an
    affine image of sqrt(4c-1).  Even n: Im = sqrt(c), and the identity
    Im(I_n^{2,i}) = I_n^{2,r} + n/2 is verified exactly on the way.
    """
    spec = s.spec
    if spec.family != "2i":
        raise ValueError("im_fractional applies to 2i instances")
    (n,) = spec.params
    out = []
    if n % 2:
        for e in s.elements:
            c = e.free_coeff
            base = AlgebraicNumber.sqrt_of(4 * c - 1)
            k = isqrt(4 * c - 1) // 2
            out.append(AffineValue(base, Fraction(1, 2), Fraction(-k)))
        return out
    spec2r = SetSpec("2r", (n,))
    for e in s.elements:
        c = e.free_coeff
        c2r = n * n // 4 - c
        assert -n <= c2r <= -1
        assert half_shift_poly(spec2r, c2r) == MonicIntPoly.quadratic(0, -c)
        out.append(AlgebraicNumber.sqrt_of(c).fractional_part())
    return out


def instance_values(s: SetInstance) -> list:
    """Sorted real values the uniformity statistics run on."""
    if s.spec.family == "2i":
        return im_fractional(s)
    return [e.number for e in s.elements]


def discrepancy(values, bits: int = 64) -> FracIv:
    """Enclosure of D_N = 1/N + max_i(i/N - x_i) - min_i(i/N - x_i) for an
    ascending list; exact (zero width) on rational input."""
    n = len(values)
    if n < 1:
        raise TooFewElements("discrepancy needs at least one value")
    encs = [value_enclosure(v, bits) for v in values]
    t_lo = [Fraction(i + 1, n) - encs[i][1] for i in range(n)]
    t_hi = [Fraction(i + 1, n) - encs[i][0] for i in range(n)]
    lo = Fraction(1, n) + max(t_lo) - min(t_hi)
    hi = Fraction(1, n) + max(t_hi) - min(t_lo)
    return (lo, hi)


def half_split(s: SetInstance) -> tuple[int, int]:
    """Exact (below 1/2, above 1/2) counts; elements are irrational, so no
    value can sit on the boundary."""
    return _half_counts(instance_values(s))


def _half_counts(values) -> tuple[int, int]:
    half = Fraction(1, 2)
    below = sum(1 for v in values if v.cmp_rational(half) < 0)
    return below, len(values) - below


def _gap_enclosures(values, bits: int) -> tuple[FracIv, ...]:
    encs = [value_enclosure(v, bits) for v in values]
    return tuple((encs[i + 1][0] - encs[i][1], encs[i + 1][1] - encs[i][0])
                 for i in range(len(encs) - 1))


def _max_dev(gaps: tuple[FracIv, ...], n: int) -> FracIv:
    """Enclosure of max |gap - 1/n|: over a gap [g_lo, g_hi], with d = g - 1/n,
    |d| runs from max(d_lo, -d_hi, 0) to max(d_hi, -d_lo)."""
    inv = Fraction(1, n)
    lo = hi = _ZERO
    for g_lo, g_hi in gaps:
        d_lo, d_hi = g_lo - inv, g_hi - inv
        lo, hi = max(lo, d_lo, -d_hi), max(hi, d_hi, -d_lo)
    return (lo, hi)


def _check_bound(spec: SetSpec, values, bits: int) -> BoundCheck | None:
    """Explicit gap inequalities, available for two of the families."""
    if spec.family == "2i" and spec.params[0] % 2 and spec.params[0] >= 3:
        n = spec.params[0]
        bound = Fraction(1, n * (n - 1))

        def below_bound(bits):
            lo, hi = _max_dev(_gap_enclosures(values, bits), n)
            if hi < bound:
                return True
            if lo >= bound:
                return False
            return None
        return BoundCheck(f"max|gap - 1/{n}| < 1/({n}*{n - 1})",
                          refine_until(below_bound, bits))
    if spec.family == "3tr" and spec.params[0] == -1:
        c = spec.params[1]
        lower = Fraction(1, Fraction(-c) + Fraction(1, 3))
        upper = Fraction(1, -c - 1)

        def in_window(bits):
            gaps = _gap_enclosures(values, bits)
            if all(g_lo >= lower and g_hi < upper for g_lo, g_hi in gaps):
                return True
            if any(g_hi < lower or g_lo >= upper for g_lo, g_hi in gaps):
                return False
            return None
        return BoundCheck(f"every gap in [1/({-c}+1/3), 1/{-c - 1})",
                          refine_until(in_window, bits))
    return None


def uniformity_report(s: SetInstance, bits: int = 64) -> UniformityReport:
    """Everything at once: gaps, deviation constant, discrepancy, half split."""
    values = instance_values(s)
    n = len(values)
    disc = discrepancy(values, bits)
    halves = _half_counts(values)
    if n < 2:
        return UniformityReport(n, (), None, None, disc, halves, None)
    gaps = _gap_enclosures(values, bits)
    dev = _max_dev(gaps, n)
    constant = (dev[0] * n * n, dev[1] * n * n)
    return UniformityReport(n, gaps, dev, constant, disc, halves,
                            _check_bound(s.spec, values, bits))
