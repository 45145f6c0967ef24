"""Algebraic numbers as (minimal polynomial, root selector) pairs.

A real number is selected by an exact rational isolating interval whose
endpoints are never roots; a complex quadratic is selected by a half-plane
tag.

Refinement returns a cell of the bisection grid.  Write the interval as
(a/D, (a + w)/D) with w > 0.  The level-s cells of bisection are

    [(a 2^s + j w) / (D 2^s), (a 2^s + (j+1) w) / (D 2^s)],  0 <= j < 2^s,

and ``cell(bits)`` returns the one holding the number at the first level
s* whose width w / (D 2^s*) is <= 2^-bits, which is the cell plain
bisection stops on, as three ints (left, right, den) on the one
denominator D 2^s* (D itself, and the number's own interval, when s* = 0).
``refine(bits)`` and ``enclosure(bits)`` are its ``Fraction`` views.  The
readers whose answer is a floor or a comparison take the ints: ``decimal``
rounds them half to even as they are, unnormalized, and ``less_than``,
``horner_in`` and ``bits.binary_expansion`` cross-multiply or floor them.

A quadratic's cell is found in closed form.  For p = x^2 + bx + c with
discriminant Disc, the root is (-b + sigma sqrt(Disc)) / 2, where sigma is
the sign of p at hi: p is negative between its two roots and positive
outside them, so it is positive at hi when the interval isolates the upper
root and negative when it isolates the lower.  With X = 2^s (-b D - 2a)
and Y = D 2^s, the root lies in the level-s cell

    j = floor((X + sigma sqrt(Y^2 Disc)) / 2w),

and since 2w is a positive integer, j is the floor of floor(X + sigma
sqrt(Y^2 Disc)) / 2w.  Disc is not a square (p is irreducible) and Y != 0,
so sqrt(Y^2 Disc) is irrational: the inner floor is X + isqrt(Y^2 Disc) for
sigma = +1 and X - isqrt(Y^2 Disc) - 1 for sigma = -1.  One isqrt and one
evaluation of p give the cell.

A cubic's cell is found by quadratic interval refinement
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

Refine from the finest cell known.  After each refinement a number keeps
two ints, (level, j): the deepest level it has reached and the index of
its cell there.  The level-s cell holding the number contains the
level-s' cell holding it for every s' > s, and cell j at level s' lies
inside cell j >> (s' - s) at level s.  So a request with s* <= level is
answered by that shift, with no evaluation of p.  A deeper request on a
cubic continues quadratic interval refinement from the stored cell, which
holds the number and lies on the grid; by the argument above it ends on
the same cell as a refinement from (lo, hi).  A deeper request on a
quadratic takes the closed form, which needs no stored cell.  Both paths
store the bisection cell itself, so the memo stays sound whichever path
stored it and whichever reads it.  The pair is stored in the instance's
__dict__ and is not a dataclass field: it says nothing about which number
is meant, so ``==``, ``hash``, ``repr`` and ``to_json`` ignore it, and a
number refined to any depth stays equal to an unrefined copy and finds the
same entries in the ``lru_cache`` tables of ``fields``.

Validate once.  The public constructors (``AlgebraicNumber(...)``,
``real_root``, ``complex_root``, ``sqrt_of``) check everything: the minimal
polynomial is irreducible, the interval endpoints have opposite signs, and
the interval holds exactly one root.  A sign change leaves an odd number of
roots inside, so only a cubic with three real roots (disc > 0) needs the
one Sturm count that checks this.  Numbers derived from a validated one go
through the trusted
``AlgebraicNumber._narrowed``, which checks nothing, because validity holds
by construction:

  * the minimal polynomial p was validated once, and x -> +-x + k (the only
    maps applied: ``fractional_part``, ``negated``, ``plus_int``) keeps it
    irreducible.  The image polynomial is p(x - k) or +-p(-x), and the
    endpoints move with the root, so at the new endpoints it takes p's old
    signs, or all of them flipped: still opposite, around the image of the
    one root inside.  The map keeps the discriminant of a quadratic, so an
    imaginary one stays imaginary; x -> -x moves a root to the other half
    plane and x -> x + k keeps it in its own, so ``negated`` flips the
    half-plane tag and ``plus_int`` keeps it;
  * a split point inside the interval (grid points in ``refine``, integers
    in ``_narrow_to_unit_cell``) is never a root, because an irreducible
    polynomial of degree >= 2 has no rational root.  So its sign is nonzero
    and equals the sign at exactly one endpoint; keeping a cell whose
    endpoints differ keeps the sign change;
  * a sub-interval of an isolating interval on whose ends p changes sign
    (every cell ``refine`` keeps) still holds exactly one root;
  * ``irrational_real_roots`` builds each root of ``rest``, the factor of
    the squarefree p that ``split_integer_roots`` returns only when it is
    irreducible, on an interval isolated in closed form (below), with p's
    signs opposite at its ends;
  * a root selected by a half-plane needs only an irreducible quadratic
    with disc < 0; ``families`` builds the 2i elements this way, whose
    polynomials have disc < 0 over the whole range (the ``families``
    docstring).

Isolation in closed form.  The real roots of an irreducible rest of
degree <= 3 are isolated without bisection, by critical points (Rolle's
theorem; compare isolation by differentiation, Collins and Loos, SYMSAC
1976, and by Descartes' rule, Collins and Akritas, same proceedings):

  * a quadratic x^2 + bx + c has its roots (-b -+ sqrt(disc)) / 2, and with
    s = isqrt(disc), sqrt(disc) lies in (s, s + 1); families.bc_root
    selects its (b, c)_- and (b, c)_+ roots from these two intervals;
  * a cubic with disc < 0 has one real root, inside (-B, B) for the Cauchy
    bound B = root_bound_pow2;
  * a cubic with disc > 0 has three, and p' = 3x^2 + 2bx + c vanishes at
    x1 < x2, the local maximum and minimum, with p(x1) > 0 > p(x2).  With
    delta = b^2 - 3c, sqrt(delta) is enclosed at scale 2^k by isqrt, which
    encloses x1 in [l1, r1] and x2 in [l2, r2].  Once p > 0 at l1 and r1
    and p < 0 at l2 and r2, the intervals (-B, l1), (r1, l2) and (r2, B)
    each hold exactly one root, because p is monotone on each and changes
    sign across it.  The ladder on k ends: p(x1) != 0, since x1 is
    rational or quadratic and an irreducible cubic has no root of degree
    <= 2; likewise p(x2) != 0, and p is continuous, so p keeps the signs
    of p(x1) and p(x2) on small enough enclosures.  It starts at k = 4,
    since doubling from k = 0 would never leave it.

Equality by one sign test.  Let I be the intersection of the isolating
intervals of two roots a, b of one p.  Its ends are ends of those
intervals, so none is a root.  If a = b, the root lies in I, and it is the
only root in I, because I lies inside a's interval; a simple root, so p
changes sign across I.  If a != b, a root in I would lie in both
intervals and so equal both a and b; there is none, and p keeps its sign.
So ``same_number`` is one sign test on I, and ``fields._locate`` uses it
when two enclosures meet a number's interval.

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
from math import gcd, isqrt, lcm

from .dyadic import fp_from_fractions, horner_scaled, isqrt_iv
from .polynomials import MonicIntPoly, ZeroDiscriminant, count_roots_between, root_bound_pow2

# bits a ladder may add to its starting precision (module docstring)
MAX_BITS = 4096

FracIv = tuple[Fraction, Fraction]


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
            p = self.minpoly
            if p.sign_at(self.lo) * p.sign_at(self.hi) >= 0:
                raise ValueError("interval endpoints must straddle a sign change")
            # a sign change leaves an odd root count, so only a polynomial
            # with three real roots can put more than one inside
            if (p.degree == 3 and p.discriminant() > 0
                    and count_roots_between(p, self.lo, self.hi) != 1):
                raise ValueError("interval must isolate exactly one root")

    @classmethod
    def _narrowed(cls, p: MonicIntPoly, lo: Fraction | None = None, hi: Fraction | None = None,
                  half_plane: int = 0) -> "AlgebraicNumber":
        """Trusted: the real root of the validated p isolated by (lo, hi), or
        for an imaginary quadratic p the root in half_plane, built without
        re-validation (see the module docstring for when that holds)."""
        a = object.__new__(cls)
        a.__dict__.update(minpoly=p, lo=lo, hi=hi, half_plane=half_plane)
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

    def cell(self, bits: int) -> tuple[int, int, int]:
        """(left, right, den): the bisection cell of width <= 2**-bits holding
        the root, as ints over one denominator den > 0, not in lowest terms;
        the isolating interval itself when it is that narrow already.  Found
        in closed form for a quadratic and by quadratic interval refinement
        for a cubic, on the bisection grid (module docstring)."""
        if not self.is_real:
            raise RationalInput("only real numbers have refinable intervals")
        lo, hi = self.lo, self.hi
        # (lo, hi) = (a, a + w) / base, and the level-s cell j is
        # (a 2**s + j w, a 2**s + (j+1) w) / (base 2**s)
        base = lo.denominator * hi.denominator // gcd(lo.denominator, hi.denominator)
        a = lo.numerator * (base // lo.denominator)
        w = hi.numerator * (base // hi.denominator) - a
        # last = s*, the first level with w / (base 2**s) <= 2**-bits
        goal = w << max(bits, 0)
        last = max(0, goal.bit_length() - base.bit_length())
        while base << last < goal:
            last += 1
        if last == 0:
            return a, a + w, base
        p = self.minpoly
        # start from the finest cell known (module docstring); an ancestor of
        # it is read off its index
        level, j = self.__dict__.get("_cell", (0, 0))
        if last <= level:
            left = (a << last) + (j >> (level - last)) * w
            return left, left + w, base << last
        if len(p.coeffs) == 2:
            # closed form (module docstring): with X = 2**s (-b base - 2a) and
            # Y = base 2**s, j = floor((X + sigma sqrt(Y**2 Disc)) / 2w),
            # sigma the sign of p at hi
            b, c = p.coeffs
            x = (-b * base - 2 * a) << last
            root = isqrt((base * base * (b * b - 4 * c)) << 2 * last)
            j = (x + root if p.scaled_value(a + w, base) > 0 else x - root - 1) // (2 * w)
            self.__dict__["_cell"] = (last, j)
            left = (a << last) + j * w
            return left, left + w, base << last
        # the current cell is [left, left + w] / den; den doubles with each
        # level and w stays
        left, den = (a << level) + j * w, base << level
        v_left, v_right = p.scaled_value(left, den), p.scaled_value(left + w, den)
        t = 2
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
        self.__dict__["_cell"] = (last, (left - (a << last)) // w)
        return left, left + w, den

    def refine(self, bits: int) -> "AlgebraicNumber":
        """The number on its bisection cell of width <= 2**-bits, ``cell(bits)``
        as an isolating interval; itself if that cell is its own interval.

        No library code calls it; it stays because ``perfbench/spans.py``
        wraps it by name, so the benchmark smoke run in
        ``tests/test_surface.py`` needs it, and because tests use it as the
        ``Fraction`` view of a cell."""
        lo, hi = self.enclosure(bits)
        if lo == self.lo and hi == self.hi:
            return self
        return AlgebraicNumber._narrowed(self.minpoly, lo, hi)

    def enclosure(self, bits: int) -> FracIv:
        left, right, den = self.cell(bits)
        return Fraction(left, den), Fraction(right, den)

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
            # the two cells, compared by cross-multiplication
            a_left, a_right, a_den = self.cell(bits)
            b_left, b_right, b_den = other.cell(bits)
            if a_right * b_den <= b_left * a_den:
                return True
            if b_right * a_den <= a_left * b_den:
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
            return AlgebraicNumber._narrowed(p, half_plane=-self.half_plane)
        return AlgebraicNumber._narrowed(p, -self.hi, -self.lo)

    def plus_int(self, k: int) -> "AlgebraicNumber":
        p = self.minpoly.map_root(1, k)
        if not self.is_real:
            return AlgebraicNumber._narrowed(p, half_plane=self.half_plane)
        return AlgebraicNumber._narrowed(p, self.lo + k, self.hi + k)

    def reflected(self) -> "AlgebraicNumber":
        """1 - alpha."""
        return self.negated().plus_int(1)

    # -- display -------------------------------------------------------------

    def decimal(self, places: int = 5) -> str:
        if not self.is_real:
            raise RationalInput("decimal rendering is for real numbers")

        def decide(bits):
            left, right, den = self.cell(bits)
            s = _round_half_even_ratio(left, den, places)
            return s if s == _round_half_even_ratio(right, den, places) else None
        return refine_until(decide, 4 * places + 8)

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
    # one sign test: p changes sign across the intersection exactly when
    # the two isolated roots are one (module docstring)
    p = a.minpoly
    return p.sign_at(lo) != p.sign_at(hi)


def _round_half_even_ratio(num: int, den: int, places: int) -> str:
    """num / den to places decimals, rounded half to even; den > 0 and the
    ratio need not be in lowest terms."""
    if places < 0:
        raise ValueError("places must be nonnegative")
    q, r = divmod(num * 10**places, den)
    if 2 * r > den or (2 * r == den and q % 2):
        q += 1
    sign = "-" if q < 0 else ""
    digits = str(abs(q)).rjust(places + 1, "0")
    return f"{sign}{digits[:-places]}.{digits[-places:]}" if places else f"{sign}{digits}"


def round_half_even(x: Fraction, places: int) -> str:
    return _round_half_even_ratio(x.numerator, x.denominator, places)


def rounded(iv: FracIv, places: int) -> str | None:
    """The decimal that every point of iv rounds to, or None if there is none."""
    s = round_half_even(iv[0], places)
    return s if s == round_half_even(iv[1], places) else None


# ---------------------------------------------------------------------------
# Root isolation.


def _isolate_irreducible(p: MonicIntPoly) -> list[FracIv]:
    """Isolating intervals, ascending, of the real roots of an irreducible p,
    in closed form (module docstring)."""
    disc = p.discriminant()
    if p.degree == 2:
        if disc < 0:
            return []
        b, s = p.coeffs[0], isqrt(disc)
        # sqrt(disc) lies in (s, s + 1); families.bc_root reads these two
        return [(Fraction(-b - s - 1, 2), Fraction(-b - s, 2)),
                (Fraction(-b + s, 2), Fraction(-b + s + 1, 2))]
    bound = Fraction(root_bound_pow2(p))
    if disc < 0:
        return [(-bound, bound)]
    b, c, _ = p.coeffs
    delta = b * b - 3 * c  # p' = 3x^2 + 2bx + c vanishes at (-b -+ sqrt(delta)) / 3

    def decide(bits):
        # sqrt(delta) lies in [s_lo, s_hi] / 2**bits, so the critical points
        # lie in [l1, r1] and [l2, r2], over the denominator 3 * 2**bits
        one = 1 << bits
        s_lo, s_hi = isqrt_iv(delta << 2 * bits, delta << 2 * bits)
        ends = (-b * one - s_hi, -b * one - s_lo, -b * one + s_lo, -b * one + s_hi)
        v = [p.scaled_value(e, 3 * one) for e in ends]
        if v[0] > 0 and v[1] > 0 and v[2] < 0 and v[3] < 0:
            return [Fraction(e, 3 * one) for e in ends]
        return None
    l1, r1, l2, r2 = refine_until(decide, 4)
    return [(-bound, l1), (r1, l2), (r2, bound)]


def irrational_real_roots(p: MonicIntPoly) -> list[AlgebraicNumber]:
    """Real roots of p that are irrational, as AlgebraicNumbers, ascending."""
    if p.discriminant() == 0:
        raise ZeroDiscriminant(f"{p} has a repeated root")
    _, rest = p.split_integer_roots()
    if rest is None:
        return []
    return [AlgebraicNumber._narrowed(rest, lo, hi) for lo, hi in _isolate_irreducible(rest)]


# ---------------------------------------------------------------------------
# The complex pair of a cubic with negative discriminant.


@dataclass(frozen=True)
class ComplexEnclosure:
    """Rigorous rectangle around the upper conjugate of a complex pair."""

    re: FracIv
    im: FracIv


def complex_pair(p: MonicIntPoly, bits: int = 64) -> ComplexEnclosure:
    """Upper complex root of an irreducible cubic with one real root, to 2**-bits."""
    if p.degree != 3:
        raise ValueError("complex_pair needs a cubic")
    if p.discriminant() > 0:
        raise PositiveDiscriminant(f"{p} is totally real")
    # raises ZeroDiscriminant for disc = 0; for disc < 0, the one real root
    # is irrational exactly when p is irreducible
    roots = irrational_real_roots(p)
    if not roots:
        raise RationalInput(f"{p} is reducible")
    root = roots[0]
    b, c, _ = p.coeffs

    def decide(work):
        # p = (x - a1)(x^2 + (b + a1) x + (a1^2 + b a1 + c)), so the pair has
        # re = -(b + a1) / 2 and (2 im)^2 = 3 a1^2 + 2 b a1 + 4c - b^2; a1 is
        # rounded outward to scale 2**work, and 2 im taken there by isqrt
        one = 1 << work
        lo, hi = fp_from_fractions(*root.enclosure(work), work)
        q_lo, q_hi = horner_scaled((4 * c - b * b, 2 * b, 3), lo, hi, one)
        im_lo, im_hi = isqrt_iv(max(q_lo, 0), q_hi)
        den = 2 * one
        if max(hi - lo, im_hi - im_lo) <= den >> bits:
            return ComplexEnclosure((Fraction(-b * one - hi, den), Fraction(-b * one - lo, den)),
                                    (Fraction(im_lo, den), Fraction(im_hi, den)))
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
    lo, hi = Fraction(lo), Fraction(hi)
    coeffs = [Fraction(c) for c in coeffs]
    scale = lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (scale // c.denominator) for c in coeffs]
    n = len(ints) - 1

    def decide(bits):
        # the cell of theta as [x_lo, x_hi] / den; the value then lies in
        # [v_lo, v_hi] / unit, compared with lo and hi by cross-multiplication
        x_lo, x_hi, den = theta.cell(bits)
        v_lo, v_hi = horner_scaled(ints, x_lo, x_hi, den)
        unit = scale * den**n
        if lo.numerator * unit <= v_lo * lo.denominator and v_hi * hi.denominator <= hi.numerator * unit:
            return True
        if v_hi * lo.denominator < lo.numerator * unit or hi.numerator * unit < v_lo * hi.denominator:
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
