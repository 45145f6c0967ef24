"""Gap statistics, extreme discrepancy, and half-interval counts.

For a set x_1 < ... < x_N in (0,1) the interior gaps are
Delta_i = x_{i+1} - x_i.  Almost-uniformity is quantified by
max_i |Delta_i - 1/N| <= c/N^2; the report exposes the measured
constant c = N^2 * max_dev rather than thresholding it.

Every inequality on the gaps is decided on rigorous enclosures, refined
until the comparison separates; compared quantities are irrational against
rational bounds, so ties cannot occur.  The half counts need no enclosure.

One denominator.  At a precision bits, every value hands out its int cell
[left, right] / den (``algebraic.value_cell``: a number's bisection cell,
the isqrt cell of an odd 2i value, or a rational as its own cell), and all
of them are put on one denominator D, the lcm of the dens.  Everything is
then computed on ints, and the report keeps the ints up to its JSON: the
gaps over D, max |gap - 1/N| and the discrepancy over N D, and the
constant N^2 max_dev as N max_dev over D.  Both bound checks
cross-multiply with positive denominators.  Each int is the numerator of an
exact rational function of the cell ends, so it names the same rational as
interval arithmetic on ``Fraction`` ends would.  The JSON writes each end
in lowest terms by one gcd, as ``Fraction`` normalizes it, and the midpoint
of [lo, hi] / den as (lo + hi) / (2 den) to 8 places by
``algebraic._round_half_even_ratio``, which takes the ratio as it is; no
``Fraction`` is built for the report.  Each rung of a bound check compares
the same rationals as on ``Fraction`` ends, so it decides at the same
rung.

Half counts off the spec.  ``half_split`` and the report count the values
below 1/2 on the spec's integers, one test per free coefficient k.  They
check nothing about the instance: a ``SetInstance`` lists its spec's
elements in ``build_set`` order, checked once when it is built (the
``families`` docstring):

  * A real family.  The element for k is the one root in (0, 1) of
    p_k = x^d + a_1 x^(d-1) + ... + a_(d-1) x + k, also for a reducible 3tr
    cubic, whose integer root lies outside (0, 1) (the ``families``
    docstring).  p_k(0) = k and p_k(1) = t + k, t = 1 + a_1 + ... + a_(d-1),
    have opposite signs, so p_k changes sign once on (0, 1), at the
    element.  1/2 is no root of a monic integer polynomial, so the element
    lies below 1/2 exactly when p_k(1/2) has the sign of p_k(1).  With
    a_0 = 1, 2^d p_k(1/2) = c + 2^d k for c = sum of a_i 2^i over i < d, a
    test linear in k.
  * 2i, odd n.  The value is sqrt(4k - 1) / 2 - r // 2 with
    r = isqrt(4k - 1) (``im_fractional``); it lies below 1/2 exactly when
    sqrt(4k - 1) < 2 (r // 2) + 1, that is 4k - 1 < (2 (r // 2) + 1)^2, never
    with equality, since 4k - 1 = 3 mod 4 and an odd square is 1 mod 4.
  * 2i, even n.  The value is sqrt(k) - n/2, below 1/2 exactly when
    4k < (n + 1)^2; an odd square is never 4k.

The tests check the counts against per-value ``cmp_rational`` with 1/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm

from .algebraic import _round_half_even_ratio, half_sqrt_cell, refine_until, value_cell
from .families import MonicIntPoly, SetInstance, SetSpec, element, half_shift_poly


class TooFewElements(ValueError):
    pass


def _iv_json(lo: int, hi: int, den: int) -> dict:
    """[lo, hi] / den, each end in lowest terms, and its midpoint to 8 places
    (module docstring)."""
    g_lo, g_hi = gcd(lo, den), gcd(hi, den)
    return {"lo": [str(lo // g_lo), str(den // g_lo)],
            "hi": [str(hi // g_hi), str(den // g_hi)],
            "decimal": _round_half_even_ratio(lo + hi, 2 * den, 8)}


@dataclass(frozen=True)
class BoundCheck:
    description: str
    satisfied: bool

    def to_json(self) -> dict:
        return {"description": self.description, "satisfied": self.satisfied}


@dataclass(frozen=True)
class UniformityReport:
    """Int numerators on the cells' one denominator den (module docstring):
    each gap over den, max_dev and the discrepancy over n den.  The constant
    N^2 max_dev is n max_dev over den."""
    n: int
    den: int
    gaps: tuple[tuple[int, int], ...]
    max_dev: tuple[int, int] | None
    discrepancy: tuple[int, int]
    half_counts: tuple[int, int]
    bound_check: BoundCheck | None

    def to_json(self) -> dict:
        n, den, dev = self.n, self.den, self.max_dev
        return {"n": n,
                "gaps": [_iv_json(lo, hi, den) for lo, hi in self.gaps],
                "max_dev": _iv_json(*dev, n * den) if dev else None,
                "constant": _iv_json(n * dev[0], n * dev[1], den) if dev else None,
                "discrepancy": _iv_json(*self.discrepancy, n * den),
                "half_counts": list(self.half_counts),
                "bound_check": self.bound_check.to_json() if self.bound_check else None}


def im_fractional(s: SetInstance) -> list:
    """The fractional parts of the imaginary parts of a 2i instance, sorted.
    The odd branch builds no number and the even one validates none: each
    rests on the argument below.

    Odd n: Im = sqrt(4c-1)/2, not an algebraic integer, whose fractional
    part is sqrt(4c-1)/2 - r // 2 with r = isqrt(4c-1).  It is returned as
    the function that gives its cell at bits, ``algebraic.half_sqrt_cell``
    at bits + 1 shifted by r // 2:
    (s - (r // 2) D, s + 1 - (r // 2) D) / D with D = 2^(bits+2) and
    s = isqrt((4c-1) 4^(bits+1)).  It is the bisection cell of sqrt(4c-1)
    on (r, r + 1) at bits + 1, [s, s + 1] / 2^(bits+1), mapped by
    x -> x/2 - r // 2.  4c-1 = 3 mod 4 is never a square, so the value is
    irrational and lies strictly inside the cell.

    Even n: Im = sqrt(c), and c lies strictly between (n/2)^2 and
    (n/2 + 1)^2, so floor(sqrt(c)) = n/2 and sqrt(c) - n/2 is the root in
    (0,1) of x^2 + n x + (n^2/4 - c): the element of 2r(n) with free
    coefficient n^2/4 - c, which is the identity
    Im(I_n^{2,i}) = I_n^{2,r} + n/2.  The identity is checked exactly on
    the way, and the element is read off ``families.element``.
    """
    spec = s.spec
    if spec.family != "2i":
        raise ValueError("im_fractional applies to 2i instances")
    (n,) = spec.params
    if n % 2:
        return [_odd_cell(4 * e.free_coeff - 1) for e in s.elements]
    out = []
    spec2r = SetSpec("2r", (n,))
    for e in s.elements:
        c = e.free_coeff
        c2r = n * n // 4 - c
        assert -n <= c2r <= -1
        assert half_shift_poly(spec2r, c2r) == MonicIntPoly.quadratic(0, -c)
        out.append(element(spec2r, c2r))
    return out


def _odd_cell(radicand: int):
    """The cell function of sqrt(radicand)/2 - isqrt(radicand) // 2, for an
    odd 2i instance (``im_fractional``)."""
    shift = isqrt(radicand) // 2

    def cell(bits: int) -> tuple[int, int, int]:
        left, right, den = half_sqrt_cell(radicand, bits + 1)
        return left - shift * den, right - shift * den, den
    return cell


def instance_values(s: SetInstance) -> list:
    """Sorted real values the uniformity statistics run on."""
    if s.spec.family == "2i":
        return im_fractional(s)
    return [e.number for e in s.elements]


def discrepancy(values, bits: int = 64) -> tuple[Fraction, Fraction]:
    """Enclosure of D_N = 1/N + max_i(i/N - x_i) - min_i(i/N - x_i) for an
    ascending list; exact (zero width) on rational input."""
    lefts, rights, den = _cells(values, bits)
    lo, hi = _discrepancy(lefts, rights, den)
    return Fraction(lo, len(lefts) * den), Fraction(hi, len(lefts) * den)


def _cells(values, bits: int) -> tuple[list[int], list[int], int]:
    """The left and the right ends of every value's cell at bits, on one
    denominator D (module docstring), and D."""
    cells = [value_cell(v, bits) for v in values]
    den = lcm(*(d for _, _, d in cells))
    return ([left * (den // d) for left, _, d in cells],
            [right * (den // d) for _, right, d in cells], den)


def _discrepancy(lefts: list[int], rights: list[int], den: int) -> tuple[int, int]:
    """D_N over N den, on cells over den: with t_i = i/N - x_i, over N den,
    it runs from 1/N + max(t_lo) - min(t_hi) to 1/N + max(t_hi) - min(t_lo)."""
    n = len(lefts)
    if n < 1:
        raise TooFewElements("discrepancy needs at least one value")
    t_lo = [i * den - n * right for i, right in enumerate(rights, 1)]
    t_hi = [i * den - n * left for i, left in enumerate(lefts, 1)]
    return den + max(t_lo) - min(t_hi), den + max(t_hi) - min(t_lo)


def half_split(s: SetInstance) -> tuple[int, int]:
    """Exact (below 1/2, above 1/2) counts, read off the spec's integers
    (module docstring)."""
    return _half_counts(s)


def _half_counts(s: SetInstance) -> tuple[int, int]:
    """(below 1/2, above 1/2) for an instance, by one integer test per free
    coefficient k of its spec (module docstring)."""
    spec = s.spec
    coeffs = spec.free_coeffs()
    if spec.family != "2i":
        # 2**d p_k(1/2) = c + 2**d k with c = sum of a_i 2**i over i < d,
        # against p_k(1) = t + k with t = 1 + sum of a_i
        head = spec.params
        d, c, t = len(head) + 1, sum(a << i for i, a in enumerate((1, *head))), 1 + sum(head)
        below = sum((c + (k << d) > 0) == (t + k > 0) for k in coeffs)
    elif spec.params[0] % 2:
        below = sum(4 * k - 1 < (2 * (isqrt(4 * k - 1) // 2) + 1) ** 2 for k in coeffs)
    else:
        below = sum(4 * k < (spec.params[0] + 1) ** 2 for k in coeffs)
    return below, len(coeffs) - below


def _gaps(lefts: list[int], rights: list[int]) -> list[tuple[int, int]]:
    """Each gap x_{i+1} - x_i as (lo, hi) on the cells' one denominator."""
    return [(lefts[i + 1] - rights[i], rights[i + 1] - lefts[i]) for i in range(len(lefts) - 1)]


def _max_dev(gaps: list[tuple[int, int]], n: int, den: int) -> tuple[int, int]:
    """max |gap - 1/n| over n den, for gaps over den: with d = gap - 1/n, |d|
    runs from max(d_lo, -d_hi, 0) to max(d_hi, -d_lo)."""
    lo = hi = 0
    for g_lo, g_hi in gaps:
        d_lo, d_hi = n * g_lo - den, n * g_hi - den
        lo, hi = max(lo, d_lo, -d_hi), max(hi, d_hi, -d_lo)
    return lo, hi


def _check_bound(spec: SetSpec, values, bits: int) -> BoundCheck | None:
    """Explicit gap inequalities, available for two of the families, decided
    by cross-multiplication on the gaps over the cells' denominator."""
    if spec.family == "2i" and spec.params[0] % 2 and spec.params[0] >= 3:
        n = spec.params[0]

        def below_bound(bits):
            # max_dev = [lo, hi] / (n den) against 1 / (n (n - 1))
            lefts, rights, den = _cells(values, bits)
            lo, hi = _max_dev(_gaps(lefts, rights), n, den)
            if hi * (n - 1) < den:
                return True
            if lo * (n - 1) >= den:
                return False
            return None
        return BoundCheck(f"max|gap - 1/{n}| < 1/({n}*{n - 1})",
                          refine_until(below_bound, bits))
    if spec.family == "3tr" and spec.params[0] == -1:
        c = spec.params[1]

        def in_window(bits):
            # each gap [g_lo, g_hi] / den against [3 / (1 - 3c), 1 / (-c - 1)),
            # where c <= -2 makes both denominators positive
            lefts, rights, den = _cells(values, bits)
            gaps = _gaps(lefts, rights)
            if all(g_lo * (1 - 3 * c) >= 3 * den and g_hi * (-c - 1) < den for g_lo, g_hi in gaps):
                return True
            if any(g_hi * (1 - 3 * c) < 3 * den or g_lo * (-c - 1) >= den for g_lo, g_hi in gaps):
                return False
            return None
        return BoundCheck(f"every gap in [1/({-c}+1/3), 1/{-c - 1})",
                          refine_until(in_window, bits))
    return None


def uniformity_report(s: SetInstance, bits: int = 64) -> UniformityReport:
    """Everything at once, on the ints of the module docstring: gaps,
    deviation, discrepancy, half split and bound check."""
    values = instance_values(s)
    n = len(values)
    lefts, rights, den = _cells(values, bits)
    disc = _discrepancy(lefts, rights, den)
    halves = _half_counts(s)
    if n < 2:
        return UniformityReport(n, den, (), None, disc, halves, None)
    gaps = _gaps(lefts, rights)
    return UniformityReport(n, den, tuple(gaps), _max_dev(gaps, n, den), disc, halves,
                            _check_bound(s.spec, values, bits))
