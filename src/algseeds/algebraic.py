"""Algebraic numbers as (minimal polynomial, root selector) pairs.

A real number is selected by an exact rational isolating interval whose
endpoints are never roots; a complex quadratic is selected by a half-plane
tag.  Refinement is plain bisection: unconditionally correct, and fast
enough at the scales this package works at.

Validate once.  The public constructors (``AlgebraicNumber(...)``,
``real_root``, ``complex_root``, ``sqrt_of``) check everything: the minimal
polynomial is irreducible and the interval endpoints have opposite signs.
Numbers derived from a validated one go through the trusted
``AlgebraicNumber._narrowed``, which checks nothing, because validity holds
by construction:

  * the minimal polynomial p was validated once, and x -> +-x + k (the only
    maps applied: ``fractional_part``, ``negated``, ``plus_int``) keeps it
    irreducible.  The image polynomial is p(x - k) or +-p(-x), and the
    endpoints move with the root, so at the new endpoints it takes p's old
    signs, or all of them flipped: still opposite;
  * a split point inside the interval (bisection in ``refine``, integers in
    ``_narrow_to_unit_cell``) is never a root, because an irreducible
    polynomial of degree >= 2 has no rational root.  So its sign is nonzero
    and equals the sign at exactly one endpoint; keeping the half whose
    endpoints differ keeps the sign change.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .dyadic import FracIv, frac_sqrt_interval, iv_mul, iv_sub, iv_width
from .polynomials import (
    MonicIntPoly,
    ZeroDiscriminant,
    count_roots_between,
    root_bound_pow2,
    sturm_chain,
)


class PositiveDiscriminant(ValueError):
    """Raised when an operation needs a complex conjugate pair but got real roots."""


class RationalInput(ValueError):
    """Raised when an irrational algebraic number is required."""


class PrecisionExhausted(RuntimeError):
    """A refinement ladder hit its bit cap before a comparison was decided."""


def _is_pow2(n: int) -> bool:
    return n & (n - 1) == 0


@dataclass(frozen=True)
class AlgebraicNumber:
    """Root of an irreducible monic integer polynomial of degree 2 or 3.

    Real numbers carry (lo, hi); quadratics with negative discriminant carry
    half_plane = +1 (upper) or -1 (lower) instead.
    """

    minpoly: MonicIntPoly
    lo: Fraction | None = None
    hi: Fraction | None = None
    half_plane: int = 0

    def __post_init__(self):
        if not self.minpoly.is_irreducible():
            raise RationalInput(f"{self.minpoly} is reducible")
        if self.half_plane:
            if self.minpoly.degree != 2 or self.minpoly.discriminant() >= 0:
                raise ValueError("half-plane selector needs an imaginary quadratic")
            if self.lo is not None or self.hi is not None:
                raise ValueError("complex numbers carry no interval")
        else:
            if self.lo is None or self.hi is None:
                raise ValueError("real numbers need an isolating interval")
            if not self.lo < self.hi:
                raise ValueError("empty interval")
            if self.minpoly.sign_at(self.lo) * self.minpoly.sign_at(self.hi) >= 0:
                raise ValueError("interval endpoints must straddle a sign change")

    @classmethod
    def _narrowed(cls, p: MonicIntPoly, lo: Fraction, hi: Fraction) -> "AlgebraicNumber":
        """Trusted: a real root of the validated p isolated by (lo, hi), built
        without re-validation (see the module docstring for when that holds)."""
        a = object.__new__(cls)
        a.__dict__.update(minpoly=p, lo=lo, hi=hi, half_plane=0)
        return a

    @classmethod
    def real_root(cls, p: MonicIntPoly, lo, hi) -> "AlgebraicNumber":
        return cls(p, Fraction(lo), Fraction(hi))

    @classmethod
    def complex_root(cls, p: MonicIntPoly, upper: bool = True) -> "AlgebraicNumber":
        return cls(p, None, None, 1 if upper else -1)

    @classmethod
    def sqrt_of(cls, n: int) -> "AlgebraicNumber":
        """sqrt(n) for a positive nonsquare integer."""
        s = isqrt(n)
        return cls.real_root(MonicIntPoly.quadratic(0, -n), s, s + 1)

    @property
    def is_real(self) -> bool:
        return self.half_plane == 0

    @property
    def interval(self) -> FracIv:
        return (self.lo, self.hi)

    def width(self) -> Fraction:
        return self.hi - self.lo

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2

    # -- refinement ---------------------------------------------------------

    def refine(self, bits: int) -> "AlgebraicNumber":
        """Bisect until the interval width is <= 2**-bits."""
        if not self.is_real:
            raise RationalInput("only real numbers have refinable intervals")
        bits = max(bits, 0)
        target = Fraction(1, 1 << bits)
        if self.width() <= target:
            return self
        lo, hi = self.lo, self.hi
        p = self.minpoly
        if _is_pow2(lo.denominator) and _is_pow2(hi.denominator):
            k = max(lo.denominator.bit_length(), hi.denominator.bit_length()) - 1
            nlo = lo.numerator << (k - (lo.denominator.bit_length() - 1))
            nhi = hi.numerator << (k - (hi.denominator.bit_length() - 1))
            sign_lo = p.sign_at_dyadic(nlo, k)
            while (nhi - nlo) << bits > 1 << k:
                nlo, nhi, k = nlo << 1, nhi << 1, k + 1
                mid = (nlo + nhi) >> 1
                if p.sign_at_dyadic(mid, k) == sign_lo:
                    nlo = mid
                else:
                    nhi = mid
            return AlgebraicNumber._narrowed(p, Fraction(nlo, 1 << k), Fraction(nhi, 1 << k))
        sign_lo = p.sign_at(lo)
        while hi - lo > target:
            mid = (lo + hi) / 2
            if p.sign_at(mid) == sign_lo:
                lo = mid
            else:
                hi = mid
        return AlgebraicNumber._narrowed(p, lo, hi)

    def enclosure(self, bits: int) -> FracIv:
        return self.refine(bits).interval

    # -- exact order and integer part ---------------------------------------

    def cmp_rational(self, q: Fraction) -> int:
        """-1 or +1; the number itself is irrational so never equal."""
        if self.hi <= q:
            return -1
        if self.lo >= q:
            return 1
        # q splits the interval and is not a root: the root lies in (q, hi)
        # exactly when q has the sign of lo
        p = self.minpoly
        return 1 if p.sign_at(q) == p.sign_at(self.lo) else -1

    def less_than(self, other: "AlgebraicNumber") -> bool:
        if same_number(self, other):
            raise ValueError("equal numbers have no strict order")
        a, b = self, other
        bits = 8
        while True:
            a, b = a.refine(bits), b.refine(bits)
            if a.hi <= b.lo:
                return True
            if b.hi <= a.lo:
                return False
            bits *= 2

    def _narrow_to_unit_cell(self) -> "tuple[int, AlgebraicNumber]":
        # split at integers strictly inside the interval; afterwards the
        # interval sits inside [k, k+1] for k = floor of the number
        p, lo, hi = self.minpoly, self.lo, self.hi
        sign_lo = p.sign_at(lo)
        while True:
            first = lo.__floor__() + 1
            if not lo < first < hi:
                break
            q = Fraction(first)
            if p.sign_at(q) == sign_lo:
                lo = q
            else:
                hi = q
        return lo.__floor__(), AlgebraicNumber._narrowed(p, lo, hi)

    def floor(self) -> int:
        return self._narrow_to_unit_cell()[0]

    def fractional_part(self) -> "AlgebraicNumber":
        k, a = self._narrow_to_unit_cell()
        p = self.minpoly.map_root(1, -k)
        return AlgebraicNumber._narrowed(p, a.lo - k, a.hi - k)

    # -- affine images -------------------------------------------------------

    def negated(self) -> "AlgebraicNumber":
        p = self.minpoly.map_root(-1, 0)
        if not self.is_real:
            return AlgebraicNumber.complex_root(p, upper=self.half_plane < 0)
        return AlgebraicNumber._narrowed(p, -self.hi, -self.lo)

    def plus_int(self, k: int) -> "AlgebraicNumber":
        p = self.minpoly.map_root(1, k)
        if not self.is_real:
            return AlgebraicNumber.complex_root(p, upper=self.half_plane > 0)
        return AlgebraicNumber._narrowed(p, self.lo + k, self.hi + k)

    def reflected(self) -> "AlgebraicNumber":
        """1 - alpha."""
        return self.negated().plus_int(1)

    # -- display -------------------------------------------------------------

    def decimal(self, places: int = 5) -> str:
        if not self.is_real:
            raise RationalInput("decimal rendering is for real numbers")
        a = self
        bits = 4 * places + 8
        while True:
            a = a.refine(bits)
            s_lo = round_half_even(a.lo, places)
            s_hi = round_half_even(a.hi, places)
            if s_lo == s_hi:
                return s_lo
            bits *= 2

    def to_json(self) -> dict:
        out: dict = {"minpoly": self.minpoly.to_json()}
        if self.is_real:
            out["interval"] = [
                [str(self.lo.numerator), str(self.lo.denominator)],
                [str(self.hi.numerator), str(self.hi.denominator)],
            ]
        else:
            out["half_plane"] = "upper" if self.half_plane > 0 else "lower"
        return out


def same_number(a: AlgebraicNumber, b: AlgebraicNumber) -> bool:
    """Exact equality of two selected roots."""
    if a.minpoly != b.minpoly:
        return False
    if not a.is_real or not b.is_real:
        return a.half_plane == b.half_plane
    lo = max(a.lo, b.lo)
    hi = min(a.hi, b.hi)
    if lo >= hi:
        return False
    # each interval isolates one root, so they share a root iff the
    # intersection still contains one
    return count_roots_between(a.minpoly, lo, hi) == 1


def round_half_even(x: Fraction, places: int) -> str:
    scale = 10**places
    q, r = divmod(x.numerator * scale, x.denominator)
    if 2 * r > x.denominator or (2 * r == x.denominator and q % 2):
        q += 1
    sign = "-" if q < 0 else ""
    digits = str(abs(q)).rjust(places + 1, "0")
    return f"{sign}{digits[:-places]}.{digits[-places:]}" if places else f"{sign}{digits}"


# ---------------------------------------------------------------------------
# Root isolation.


@dataclass(frozen=True)
class IsolationList:
    """Disjoint, sorted isolating intervals for all real roots of one polynomial."""

    poly: MonicIntPoly
    intervals: tuple[FracIv, ...]
    complex_pairs: int

    def __post_init__(self):
        assert len(self.intervals) + 2 * self.complex_pairs == self.poly.degree


def _bisect_isolate(p: MonicIntPoly, chain) -> list[FracIv]:
    bound = root_bound_pow2(p)
    total = count_roots_between(p, Fraction(-bound), Fraction(bound), chain)
    stack = [(Fraction(-bound), Fraction(bound), total)]
    found: list[FracIv] = []
    while stack:
        lo, hi, n = stack.pop()
        if n == 0:
            continue
        if n == 1:
            found.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        # p has no rational roots here (those were deflated away)
        left = count_roots_between(p, lo, mid, chain)
        stack.append((lo, mid, left))
        stack.append((mid, hi, n - left))
    return sorted(found)


def isolate_real_roots(p: MonicIntPoly) -> IsolationList:
    """Isolate every real root of a squarefree p (reducible inputs allowed)."""
    if p.discriminant() == 0:
        raise ZeroDiscriminant(f"{p} has a repeated root")
    int_roots, rest = p.split_integer_roots()

    irr: list[FracIv] = []
    if rest is not None and rest.discriminant() > 0:
        chain = sturm_chain(rest)
        irr = _bisect_isolate(rest, chain)
        # shrink until no integer root of p sits inside or on an interval
        fixed = []
        for lo, hi in irr:
            while any(Fraction(r) >= lo and Fraction(r) <= hi for r in int_roots):
                mid = (lo + hi) / 2
                if rest.sign_at(mid) == rest.sign_at(lo):
                    lo = mid
                else:
                    hi = mid
            fixed.append((lo, hi))
        irr = fixed
    elif rest is not None and rest.degree == 2:
        pass  # negative discriminant: complex pair, no real roots
    elif rest is not None:
        # cubic with no rational roots and disc < 0: single real root
        chain = sturm_chain(rest)
        irr = _bisect_isolate(rest, chain)

    pin: list[FracIv] = []
    p_chain = sturm_chain(p)
    for r in int_roots:
        h = Fraction(1, 4)
        while count_roots_between(p, r - h, r + h, p_chain) != 1:
            h /= 2
        pin.append((Fraction(r) - h, Fraction(r) + h))

    intervals = sorted(irr + pin)
    # enforce pairwise set-disjointness
    changed = True
    while changed:
        changed = False
        for i in range(len(intervals) - 1):
            (alo, ahi), (blo, bhi) = intervals[i], intervals[i + 1]
            if ahi > blo:
                changed = True
                for j, (lo, hi) in ((i, (alo, ahi)), (i + 1, (blo, bhi))):
                    mid = (lo + hi) / 2
                    if count_roots_between(p, lo, mid, p_chain) == 1:
                        intervals[j] = (lo, mid)
                    else:
                        intervals[j] = (mid, hi)
        intervals.sort()

    n_real = len(intervals)
    return IsolationList(p, tuple(intervals), (p.degree - n_real) // 2)


def irrational_real_roots(p: MonicIntPoly) -> list[AlgebraicNumber]:
    """Real roots of p that are irrational, as AlgebraicNumbers, ascending."""
    if p.discriminant() == 0:
        raise ZeroDiscriminant(f"{p} has a repeated root")
    _, rest = p.split_integer_roots()
    if rest is None:
        return []
    iso = isolate_real_roots(rest)
    return [AlgebraicNumber(rest, lo, hi) for lo, hi in iso.intervals]


# ---------------------------------------------------------------------------
# The complex pair of a cubic with negative discriminant.


@dataclass(frozen=True)
class ComplexEnclosure:
    """Rigorous rectangle around the upper conjugate of a complex pair."""

    re: FracIv
    im: FracIv

    def decimal_re(self, places: int = 5) -> str:
        return _decimal_of_interval(self.re, places)

    def decimal_im(self, places: int = 5) -> str:
        return _decimal_of_interval(self.im, places)


def _decimal_of_interval(iv: FracIv, places: int) -> str:
    s_lo = round_half_even(iv[0], places)
    s_hi = round_half_even(iv[1], places)
    if s_lo != s_hi:
        raise ValueError("interval too wide to round; refine further")
    return s_lo


def complex_pair(p: MonicIntPoly, bits: int = 64) -> ComplexEnclosure:
    """Upper complex root of a cubic with one real root, to 2**-bits."""
    if p.degree != 3:
        raise ValueError("complex_pair needs a cubic")
    disc = p.discriminant()
    if disc == 0:
        raise ZeroDiscriminant(f"{p} has a repeated root")
    if disc > 0:
        raise PositiveDiscriminant(f"{p} is totally real")
    b = p.coeffs[0]
    int_roots, rest = p.split_integer_roots()
    if rest is not None and rest.degree == 2:
        # exact real root; pair comes from the quadratic factor
        qb, qc = rest.coeffs
        re = Fraction(-qb, 2)
        im_iv = frac_sqrt_interval((Fraction(4 * qc - qb * qb, 4),) * 2, bits + 2)
        return ComplexEnclosure((re, re), im_iv)
    root = irrational_real_roots(p)[0]
    work = bits + 8
    while True:
        a1 = root.refine(work)
        iv = a1.interval
        c = Fraction(p.coeffs[1])
        # p = (x - a1)(x^2 + (b + a1)x + (a1^2 + b a1 + c))
        s = iv_mul(((iv[0] + b) / 2, (iv[1] + b) / 2), ((iv[0] + b) / 2, (iv[1] + b) / 2))
        e = iv_sub(iv_mul(iv, (iv[0] + b, iv[1] + b)), (-c, -c))
        im2 = iv_sub(e, s)
        im_iv = frac_sqrt_interval(im2, work)
        re_iv = (Fraction(-b - iv[1], 2), Fraction(-b - iv[0], 2))
        gap = Fraction(1, 1 << bits)
        if iv_width(im_iv) <= gap and iv_width(re_iv) <= gap:
            return ComplexEnclosure(re_iv, im_iv)
        work *= 2


# ---------------------------------------------------------------------------
# Values assembled from an algebraic number by a rational affine map; these
# show up as imaginary parts (sqrt(4c-1)/2) and only need enclosures.


@dataclass(frozen=True)
class AffineValue:
    base: AlgebraicNumber
    scale: Fraction
    offset: Fraction

    def enclosure(self, bits: int) -> FracIv:
        extra = max(0, self.scale.numerator.bit_length())
        lo, hi = self.base.enclosure(bits + extra)
        pts = (lo * self.scale + self.offset, hi * self.scale + self.offset)
        return (min(pts), max(pts))

    def decimal(self, places: int = 5) -> str:
        bits = 4 * places + 8
        while True:
            iv = self.enclosure(bits)
            s_lo = round_half_even(iv[0], places)
            s_hi = round_half_even(iv[1], places)
            if s_lo == s_hi:
                return s_lo
            bits *= 2

    def cmp_rational(self, q: Fraction) -> int:
        if self.scale == 0:
            raise ValueError("degenerate affine value")
        c = self.base.cmp_rational((q - self.offset) / self.scale)
        return c if self.scale > 0 else -c


def value_enclosure(v, bits: int) -> FracIv:
    """Uniform enclosure access for Fraction, AlgebraicNumber, AffineValue."""
    if isinstance(v, Fraction):
        return (v, v)
    if isinstance(v, int):
        f = Fraction(v)
        return (f, f)
    return v.enclosure(bits)
