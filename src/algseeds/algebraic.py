"""Algebraic numbers as (minimal polynomial, root selector) pairs.

A real number is selected by an exact rational isolating interval whose
endpoints are never roots; a complex quadratic is selected by a half-plane
tag.

Refinement returns a cell of the bisection grid.  Write the interval as
(a/D, b/D) with w = b - a.  The level-s cells of bisection are

    [(a 2^s + j w) / (D 2^s), (a 2^s + (j+1) w) / (D 2^s)],  0 <= j < 2^s,

and ``refine(bits)`` returns the one holding the number at the first level
s* whose width w / (D 2^s*) is <= 2^-bits, which is the cell plain
bisection stops on.  It finds that cell by quadratic interval refinement
(J. Abbott, "Quadratic Interval Refinement for Real Roots", ACM Commun.
Comput. Algebra 48, 2014), on integers throughout: from the values of p
at the current cell's ends, both scaled to one denominator, the secant
picks one of 2^t sub-cells, and p's signs at its two ends test it.  A
sign change accepts the sub-cell and doubles t; otherwise one bisection
step is taken and t is halved (t >= 2), and no step goes past level s*.
Every cell kept is a grid cell on which p changes sign, inside an
isolating interval, so it holds the number; at each level exactly one
cell does, because the number is irrational and no grid point is a root.
So the cell at level s* is the bisection cell, whatever path led to it.

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
  * a split point inside the interval (grid points in ``refine``, integers
    in ``_narrow_to_unit_cell``) is never a root, because an irreducible
    polynomial of degree >= 2 has no rational root.  So its sign is nonzero
    and equals the sign at exactly one endpoint; keeping a cell whose
    endpoints differ keeps the sign change;
  * ``irrational_real_roots`` builds each root of ``rest``, the factor of
    p that ``split_integer_roots`` returns only when it is irreducible, on
    an interval whose Sturm count is 1 between endpoints that are not
    roots.  rest is squarefree, so its one root there is simple and the
    endpoint signs are opposite.

One capped ladder.  Every comparison that needs finer enclosures runs
through ``refine_until(decide, bits, max_bits=None)``: it returns the first
of decide(bits), decide(2 bits), decide(4 bits), ... that is not None
(False is an answer), and raises ``PrecisionExhausted`` once the precision
passes max_bits, by default bits + MAX_BITS counted from the start.  On
valid input no ladder reaches its cap: each compared quantity is irrational
and is compared against a rational, so the two never tie, and with small
coefficients and denominators a Liouville bound keeps them far more than
2^-MAX_BITS apart.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt

from .dyadic import FracIv, frac_sqrt_interval, iv_horner, iv_mul, iv_sub, iv_width
from .polynomials import (
    MonicIntPoly,
    ZeroDiscriminant,
    count_roots_between,
    root_bound_pow2,
    sturm_chain,
)

# bits a ladder may add to its starting precision (module docstring)
MAX_BITS = 4096


class PositiveDiscriminant(ValueError):
    """Raised when an operation needs a complex conjugate pair but got real roots."""


class RationalInput(ValueError):
    """Raised when an irrational algebraic number is required."""


class PrecisionExhausted(RuntimeError):
    """A refinement ladder hit its bit cap before a comparison was decided."""


def refine_until(decide, bits: int, max_bits: int | None = None):
    """The first answer of decide at bits, 2 bits, 4 bits, ... that is not
    None, capped at max_bits or bits + MAX_BITS (module docstring)."""
    cap = bits + MAX_BITS if max_bits is None else max_bits
    while bits <= cap:
        answer = decide(bits)
        if answer is not None:
            return answer
        bits *= 2
    raise PrecisionExhausted(f"no decision within {cap} bits")


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
        """The bisection cell of width <= 2**-bits holding the root, found by
        quadratic interval refinement on the bisection grid (module docstring)."""
        if not self.is_real:
            raise RationalInput("only real numbers have refinable intervals")
        lo, hi = self.lo, self.hi
        # the current cell is [left, left + w] / den, first (lo, hi) = (a/D, b/D);
        # den doubles with each level and w stays
        den = lo.denominator * hi.denominator // gcd(lo.denominator, hi.denominator)
        left = lo.numerator * (den // lo.denominator)
        w = hi.numerator * (den // hi.denominator) - left
        # last = s*, the first level with w / (D 2**s) <= 2**-bits
        goal = w << max(bits, 0)
        last = max(0, goal.bit_length() - den.bit_length())
        while den << last < goal:
            last += 1
        if last == 0:
            return self
        p = self.minpoly
        v_left, v_right = p.scaled_value(left, den), p.scaled_value(left + w, den)
        level, t = 0, 2
        while level < last:
            step = min(t, last - level)
            if step > 1:
                # the chord through the cell's end values crosses zero in
                # sub-cell j of 2**step; keep that sub-cell if p changes sign on it
                j = (v_left << step) // (v_left - v_right)
                sub, sub_den = (left << step) + j * w, den << step
                u_left, u_right = p.scaled_value(sub, sub_den), p.scaled_value(sub + w, sub_den)
                if (u_left > 0) != (u_right > 0):
                    left, den, v_left, v_right = sub, sub_den, u_left, u_right
                    level += step
                    t *= 2
                    continue
                t = max(2, t // 2)
            # one bisection step: keep the half on which p changes sign
            left, den = left << 1, den << 1
            v_left, v_right = v_left << p.degree, v_right << p.degree
            v_mid = p.scaled_value(left + w, den)
            if (v_mid > 0) == (v_left > 0):
                left, v_left = left + w, v_mid
            else:
                v_right = v_mid
            level += 1
        return AlgebraicNumber._narrowed(p, Fraction(left, den), Fraction(left + w, den))

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

        def decide(bits):
            a, b = self.refine(bits), other.refine(bits)
            if a.hi <= b.lo:
                return True
            if b.hi <= a.lo:
                return False
            return None
        return refine_until(decide, 8)

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
        return refine_until(lambda bits: rounded(self.enclosure(bits), places), 4 * places + 8)

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


def rounded(iv: FracIv, places: int) -> str | None:
    """The decimal that every point of iv rounds to, or None if there is none."""
    s = round_half_even(iv[0], places)
    return s if s == round_half_even(iv[1], places) else None


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
    chain = None
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
    # with no integer root, rest is p and its chain is built already
    p_chain = sturm_chain(p) if int_roots else chain
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
    return [AlgebraicNumber._narrowed(rest, lo, hi) for lo, hi in iso.intervals]


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
    s = rounded(iv, places)
    if s is None:
        raise ValueError("interval too wide to round; refine further")
    return s


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
    c = Fraction(p.coeffs[1])
    gap = Fraction(1, 1 << bits)

    def decide(work):
        iv = root.enclosure(work)
        # p = (x - a1)(x^2 + (b + a1)x + (a1^2 + b a1 + c))
        s = iv_mul(((iv[0] + b) / 2, (iv[1] + b) / 2), ((iv[0] + b) / 2, (iv[1] + b) / 2))
        e = iv_sub(iv_mul(iv, (iv[0] + b, iv[1] + b)), (-c, -c))
        im_iv = frac_sqrt_interval(iv_sub(e, s), work)
        re_iv = (Fraction(-b - iv[1], 2), Fraction(-b - iv[0], 2))
        if iv_width(im_iv) <= gap and iv_width(re_iv) <= gap:
            return ComplexEnclosure(re_iv, im_iv)
        return None
    return refine_until(decide, bits + 8)


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
        return refine_until(lambda bits: rounded(self.enclosure(bits), places), 4 * places + 8)

    def cmp_rational(self, q: Fraction) -> int:
        if self.scale == 0:
            raise ValueError("degenerate affine value")
        c = self.base.cmp_rational((q - self.offset) / self.scale)
        return c if self.scale > 0 else -c


def horner_in(theta: AlgebraicNumber, coeffs, lo, hi, bits: int,
              max_bits: int | None = None) -> bool:
    """Whether coeffs[0] + coeffs[1] theta + coeffs[2] theta^2 + ... lies in
    [lo, hi], for a value known to be neither lo nor hi: theta is refined
    from bits on until the value's enclosure falls inside or misses."""
    def decide(bits):
        v_lo, v_hi = iv_horner(coeffs, theta.enclosure(bits))
        if lo <= v_lo and v_hi <= hi:
            return True
        if v_hi < lo or hi < v_lo:
            return False
        return None
    return refine_until(decide, bits, max_bits)


def value_enclosure(v, bits: int) -> FracIv:
    """Uniform enclosure access for Fraction, AlgebraicNumber, AffineValue."""
    if isinstance(v, Fraction):
        return (v, v)
    if isinstance(v, int):
        f = Fraction(v)
        return (f, f)
    return v.enclosure(bits)
