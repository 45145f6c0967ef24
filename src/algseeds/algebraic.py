"""Algebraic numbers as (minimal polynomial, root selector) pairs.

A real number is selected by an exact rational isolating interval whose
endpoints are never roots, kept as one int cell; a complex quadratic is
selected by a half-plane tag.

One form of the interval.  The field ``interval`` is the int cell
(left, right, den) of the ends left / den < right / den, in lowest terms:
den > 0 and gcd(left, right, den) = 1.  The reduced denominator of an end
e / den is den / gcd(e, den), and the lcm of the two is
den / gcd(left, right, den) = den.  So the triple is the one that the two
rational ends determine, and ``==`` and ``hash``, which read it, tell
numbers apart exactly as the ends would.  ``real_root`` reduces its
rational arguments to it, the validating constructor refuses any other
triple, and each trusted builder keeps it (below).

Refinement returns a cell of the bisection grid.  Write the interval as
(a, a + w, D) with w > 0.  The level-s cells of bisection are

    [(a 2^s + j w) / (D 2^s), (a 2^s + (j+1) w) / (D 2^s)],  0 <= j < 2^s,

and ``cell(bits)`` returns the one holding the number at the first level
s* whose width w / (D 2^s*) is <= 2^-bits, which is the cell plain
bisection stops on, as three ints (left, right, den) on the one
denominator D 2^s* (D itself, and the number's own interval, when s* = 0).
The cell is the only form an enclosure takes, the number's own interval
among them: ``refine(bits)`` hands back a number on the cell reduced by
one gcd, and every reader takes the ints.  ``horner_in``,
``bits.binary_expansion`` and ``uniformity`` cross-multiply or floor them,
and ``uniformity`` renders them in its JSON.

One certified decimal.  ``_cell_decimal(cell, places)`` runs one ladder
over an int cell (left, right, den) of any value and returns the decimal
that both ends round to, half to even, as they are, unnormalized.  When
they agree, every point between them, the value among them, rounds the
same, so that decimal is the correct rounding.  A value that is no
rounding tie, an irrational one or a multiple of 1/2, is decided at some
rung.  Every certified decimal the package prints goes through it:
``decimal`` on a number's own cell, the real and imaginary parts of a
cubic's complex pair in ``tables`` on cells read off the real root
(``fields._conjugates``), and a 2i element's imaginary part sqrt(R) / 2 in
the command line on the isqrt cell of ``half_sqrt_cell``, which also gives
``uniformity`` the cells of an odd 2i instance's imaginary parts.  Each of
these cells takes at most one ``cell`` call and no ladder, so no ladder
starts inside another.

A quadratic's cell is found in closed form.  For p = x^2 + bx + c with
discriminant Disc, the root is (-b + sigma sqrt(Disc)) / 2, where sigma is
the sign of p at the right end (a + w) / D: p is negative between its two
roots and positive outside them, so it is positive there when the interval
isolates the upper root and negative when it isolates the lower.  With
X = 2^s (-b D - 2a) and Y = D 2^s, the root lies in the level-s cell

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
the same cell as a refinement from the interval itself.  A deeper request
on a quadratic takes the closed form, which needs no stored cell.  Both paths
store the bisection cell itself, so the memo stays sound whichever path
stored it and whichever reads it.  The pair is stored in the instance's
__dict__ under ``_cell`` and is not a dataclass field: it says nothing
about which number is meant, so ``==``, ``hash``, ``repr`` and ``to_json``
ignore it, and a number refined to any depth stays equal to an unrefined
copy and finds the same entries in the ``lru_cache`` tables of ``fields``.
``cmp_rational`` compares the number with q = num / den by
cross-multiplying the interval's ints with num and den, building no
``Fraction``.

Affine images keep their cell.  The map x -> eps x + k, with eps = +-1 and
k an integer, sends the interval (a, a + w, D) to (a', a' + w, D), with
a' = a + k D for eps = +1 and a' = k D - a - w for eps = -1, so D and w
are unchanged.  Each end moves by a multiple of D or changes sign, so
gcd(a', a' + w, D) = gcd(a, a + w, D) = 1: the image is in lowest terms,
with no gcd taken and no ``Fraction`` built.  The level-s grid point
(a 2^s + i w) / (D 2^s) goes to the grid point (a' 2^s + i w) / (D 2^s)
for eps = +1 and (a' 2^s + (2^s - i) w) / (D 2^s) for eps = -1.  So the
grid of the interval goes exactly onto the grid of the image's interval,
level by level, and the cell holding the number onto the cell holding its
image: cell j at level s is cell j of the image under
``plus_int`` and cell 2^s - 1 - j under ``negated`` and ``reflected``.
These three hand the image interval and the memo, so mapped, to the
image, which then answers ``cell`` as a copy refined from its own interval
to the same level would.

Validate once.  The public constructors (``AlgebraicNumber(...)``,
``real_root``, ``complex_root``) check everything: the minimal
polynomial is irreducible, the half-plane tag is -1, 0 or +1, the interval
is an int cell in lowest terms with left < right, p's values at its ends
have opposite signs, and the interval holds exactly one root.  A sign
change leaves an odd number of roots inside, so only a cubic with three
real roots (disc > 0) needs the one Sturm count that checks this.  Numbers
derived from a validated one go through the trusted
``AlgebraicNumber._narrowed``, which checks nothing, because validity holds
by construction:

  * the minimal polynomial p was validated once, and x -> +-x + k (the only
    maps applied: ``negated``, ``plus_int``, ``reflected``) keeps it
    irreducible.  The image polynomial is p(x - k) or +-p(-x), and the
    endpoints move with the root, in lowest terms (above), so at the new
    endpoints it takes p's old signs, or all of them flipped: still
    opposite, around the image of the one root inside.  The map keeps the
    discriminant of a quadratic, so an imaginary one stays imaginary;
    x -> -x moves a root to the other half plane and x -> x + k keeps it in
    its own, so ``negated`` and ``reflected`` flip the half-plane tag and
    ``plus_int`` keeps it;
  * a split point inside the interval (grid points in ``refine``) is never
    a root, because an irreducible polynomial of degree >= 2 has no
    rational root.  So its sign is nonzero and equals the sign at exactly
    one endpoint; keeping a cell whose endpoints differ keeps the sign
    change;
  * a sub-interval of an isolating interval on whose ends p changes sign
    (every cell ``refine`` keeps) still holds exactly one root, and
    ``refine`` reduces the cell by one gcd before it stores it;
  * ``irrational_real_roots`` builds each root of ``rest``, the factor of
    the squarefree p that ``split_integer_roots`` returns only when it is
    irreducible, on an interval isolated in closed form (below), with p's
    signs opposite at its ends, each cell reduced by one gcd;
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
So ``same_number`` is one sign test on I: it picks I's ends from the two
cells by cross-multiplication and takes p's signs there by
``scaled_value``, on ints.

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

from .dyadic import horner_scaled, isqrt_iv
from .polynomials import MonicIntPoly, ZeroDiscriminant, count_roots_between, root_bound_pow2

# bits a ladder may add to its starting precision (module docstring)
MAX_BITS = 4096

Cell = tuple[int, int, int]


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

    Real numbers carry their isolating interval as an int cell
    (left, right, den) in lowest terms (module docstring); quadratics with
    negative discriminant carry half_plane = +1 (upper) or -1 (lower)
    instead.
    """

    minpoly: MonicIntPoly
    interval: Cell | None = None
    half_plane: int = 0

    def __post_init__(self):
        if not self.minpoly.is_irreducible():
            raise RationalInput(f"{self.minpoly} is reducible")
        if self.half_plane not in (-1, 0, 1):
            raise ValueError("half_plane must be -1, 0 or +1")
        if self.half_plane:
            if self.minpoly.degree != 2 or self.minpoly.discriminant() >= 0:
                raise ValueError("half-plane selector needs an imaginary quadratic")
            if self.interval is not None:
                raise ValueError("complex numbers carry no interval")
        else:
            if self.interval is None:
                raise ValueError("real numbers need an isolating interval")
            left, right, den = self.interval
            if den <= 0 or gcd(left, right, den) != 1:
                raise ValueError("the interval must be in lowest terms over a positive den")
            if not left < right:
                raise ValueError("empty interval")
            p = self.minpoly
            if (p.scaled_value(left, den) > 0) == (p.scaled_value(right, den) > 0):
                raise ValueError("interval endpoints must straddle a sign change")
            # a sign change leaves an odd root count, so only a polynomial
            # with three real roots can put more than one inside
            if (p.degree == 3 and p.discriminant() > 0
                    and count_roots_between(p, Fraction(left, den), Fraction(right, den)) != 1):
                raise ValueError("interval must isolate exactly one root")

    @classmethod
    def _narrowed(cls, p: MonicIntPoly, interval: Cell | None = None,
                  half_plane: int = 0) -> "AlgebraicNumber":
        """Trusted: the real root of the validated p isolated by the int cell
        interval, in lowest terms, or for an imaginary quadratic p the root
        in half_plane, built without re-validation (see the module docstring
        for when that holds).  The fields go straight into the new number's
        __dict__, one item each in field order, as ``families._elements``
        writes them, so every number has the dataclass ``__init__``'s fields
        in its order and one layout (the ``families`` docstring)."""
        a = object.__new__(cls)
        attrs = a.__dict__
        attrs["minpoly"] = p
        attrs["interval"] = interval
        attrs["half_plane"] = half_plane
        return a

    @classmethod
    def real_root(cls, p: MonicIntPoly, lo, hi) -> "AlgebraicNumber":
        """The root of p isolated by the rationals (lo, hi), validated; the
        ends are reduced to the interval's int cell (module docstring)."""
        lo, hi = Fraction(lo), Fraction(hi)
        return cls(p, _lowest(lo.numerator * hi.denominator, hi.numerator * lo.denominator,
                              lo.denominator * hi.denominator))

    @classmethod
    def complex_root(cls, p: MonicIntPoly, upper: bool = True) -> "AlgebraicNumber":
        return cls(p, None, 1 if upper else -1)

    @property
    def is_real(self) -> bool:
        return self.half_plane == 0

    # -- refinement ---------------------------------------------------------

    def cell(self, bits: int) -> tuple[int, int, int]:
        """(left, right, den): the bisection cell of width <= 2**-bits holding
        the root, as ints over one denominator den > 0, not in lowest terms;
        the isolating interval itself when it is that narrow already.  Found
        in closed form for a quadratic and by quadratic interval refinement
        for a cubic, on the bisection grid (module docstring)."""
        if not self.is_real:
            raise RationalInput("only real numbers have refinable intervals")
        # the interval is (a, a + w, base), and the level-s cell j is
        # (a 2**s + j w, a 2**s + (j+1) w) / (base 2**s)
        a, right, base = self.interval
        w = right - a
        # last = s*, the first level with w / (base 2**s) <= 2**-bits
        goal = w << max(bits, 0)
        last = max(0, goal.bit_length() - base.bit_length())
        while base << last < goal:
            last += 1
        if last == 0:
            return a, right, base
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
            # sigma the sign of p at the right end
            b, c = p.coeffs
            x = (-b * base - 2 * a) << last
            root = isqrt((base * base * (b * b - 4 * c)) << 2 * last)
            j = (x + root if p.scaled_value(right, base) > 0 else x - root - 1) // (2 * w)
            self.__dict__["_cell"] = (last, j)
            left = (a << last) + j * w
            return left, left + w, base << last
        b, c, d = p.coeffs
        # the current cell is [left, left + w] / den; den doubles with each
        # level and w stays.  Each value is den**3 p(x / den) by Horner on ints
        left, den = (a << level) + j * w, base << level
        den2 = den * den
        v_left = ((left + b * den) * left + c * den2) * left + d * den2 * den
        right = left + w
        v_right = ((right + b * den) * right + c * den2) * right + d * den2 * den
        t = 2
        while level < last:
            step = min(t, last - level)
            if step > 1:
                # the chord through the cell's end values crosses zero in
                # sub-cell j of 2**step; keep that sub-cell if p changes sign on it
                j = (v_left << step) // (v_left - v_right)
                sub, sub_den = (left << step) + j * w, den << step
                den2 = sub_den * sub_den
                u_left = ((sub + b * sub_den) * sub + c * den2) * sub + d * den2 * sub_den
                right = sub + w
                u_right = ((right + b * sub_den) * right + c * den2) * right + d * den2 * sub_den
                if (u_left > 0) != (u_right > 0):
                    left, den, v_left, v_right = sub, sub_den, u_left, u_right
                    level += step
                    t *= 2
                    continue
                t = max(2, t // 2)
            # one bisection step: keep the half on which p changes sign
            left, den = left << 1, den << 1
            v_left, v_right = v_left << 3, v_right << 3
            mid, den2 = left + w, den * den
            v_mid = ((mid + b * den) * mid + c * den2) * mid + d * den2 * den
            if (v_mid > 0) == (v_left > 0):
                left, v_left = mid, v_mid
            else:
                v_right = v_mid
            level += 1
        self.__dict__["_cell"] = (last, (left - (a << last)) // w)
        return left, left + w, den

    def refine(self, bits: int) -> "AlgebraicNumber":
        """The number on its bisection cell of width <= 2**-bits, ``cell(bits)``
        reduced by one gcd as its interval; itself if that cell is its own
        interval.

        No library code calls it; it stays because ``perfbench/spans.py``
        wraps it by name, so the benchmark smoke run in
        ``tests/test_surface.py`` needs it, and because tests use it as the
        number view of a cell."""
        interval = _lowest(*self.cell(bits))
        if interval == self.interval:
            return self
        return AlgebraicNumber._narrowed(self.minpoly, interval)

    # -- exact order and integer part ---------------------------------------

    def cmp_rational(self, q: Fraction | int) -> int:
        """-1 or +1 as the number lies below or above the rational q; the
        number itself is irrational so never equal.  Decided on the
        interval's ints, cross-multiplied with q's."""
        if not self.is_real:
            raise RationalInput("only real numbers are ordered")
        left, right, base = self.interval
        num, den = q.numerator, q.denominator
        if right * den <= num * base:
            return -1
        if left * den >= num * base:
            return 1
        # q splits the interval and is not a root: the root lies above q
        # exactly when p has the same sign at q as at the left end
        p = self.minpoly
        return 1 if (p.scaled_value(num, den) > 0) == (p.scaled_value(left, base) > 0) else -1

    # -- affine images -------------------------------------------------------

    def negated(self) -> "AlgebraicNumber":
        return self._affine(-1, 0)

    def plus_int(self, k: int) -> "AlgebraicNumber":
        return self._affine(1, k)

    def reflected(self) -> "AlgebraicNumber":
        """1 - alpha."""
        return self._affine(-1, 1)

    def _affine(self, eps: int, k: int) -> "AlgebraicNumber":
        """eps alpha + k for eps = +-1 and an int k, built trusted; a real
        image's interval is the image of the cell, in lowest terms as it is,
        and the cell memo is carried over, cell j at level s going to j for
        eps = 1 and to 2**s - 1 - j for eps = -1 (module docstring)."""
        p = self.minpoly.map_root(eps, k)
        if not self.is_real:
            return AlgebraicNumber._narrowed(p, half_plane=eps * self.half_plane)
        left, right, den = self.interval
        shift = k * den
        image = AlgebraicNumber._narrowed(
            p, (left + shift, right + shift, den) if eps > 0 else (shift - right, shift - left, den))
        if "_cell" in self.__dict__:
            level, j = self.__dict__["_cell"]
            image.__dict__["_cell"] = (level, j if eps > 0 else (1 << level) - 1 - j)
        return image

    # -- display -------------------------------------------------------------

    def decimal(self, places: int = 5) -> str:
        if not self.is_real:
            raise RationalInput("decimal rendering is for real numbers")
        return _cell_decimal(self.cell, places)

    def to_json(self) -> dict:
        out: dict = {"minpoly": self.minpoly.to_json()}
        if self.is_real:
            # each end in lowest terms, as a Fraction would print it
            left, right, den = self.interval
            g, h = gcd(left, den), gcd(right, den)
            out["interval"] = [[str(left // g), str(den // g)],
                               [str(right // h), str(den // h)]]
        else:
            out["half_plane"] = "upper" if self.half_plane > 0 else "lower"
        return out


def same_number(a: AlgebraicNumber, b: AlgebraicNumber) -> bool:
    """Exact equality of two selected roots."""
    if a.minpoly != b.minpoly:
        return False
    if not a.is_real or not b.is_real:
        return a.half_plane == b.half_plane
    (a_left, a_right, a_den), (b_left, b_right, b_den) = a.interval, b.interval
    # the intersection's ends, each as (num, den): the larger left end and
    # the smaller right end
    lo = (a_left, a_den) if a_left * b_den >= b_left * a_den else (b_left, b_den)
    hi = (a_right, a_den) if a_right * b_den <= b_right * a_den else (b_right, b_den)
    if lo[0] * hi[1] >= hi[0] * lo[1]:
        return False
    # one sign test: p changes sign across the intersection exactly when
    # the two isolated roots are one (module docstring)
    p = a.minpoly
    return (p.scaled_value(*lo) > 0) != (p.scaled_value(*hi) > 0)


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


def _cell_decimal(cell, places: int) -> str:
    """The decimal that both ends of cell(bits), an int cell (left, right,
    den), round to, at the first rung from 4 places + 8 bits on that has one."""
    def decide(bits):
        left, right, den = cell(bits)
        s = _round_half_even_ratio(left, den, places)
        return s if s == _round_half_even_ratio(right, den, places) else None
    return refine_until(decide, 4 * places + 8)


def half_sqrt_cell(radicand: int, bits: int) -> tuple[int, int, int]:
    """(left, right, den): the cell [s, s + 1] / 2^(bits + 1) of sqrt(R) / 2,
    s = isqrt(R 4^bits), for R = radicand >= 0 and bits >= 0; it holds
    sqrt(R) / 2 for a square R too, at its left end."""
    s = isqrt(radicand << 2 * bits)
    return s, s + 1, 2 << bits


# ---------------------------------------------------------------------------
# Root isolation.


def _lowest(left: int, right: int, den: int) -> Cell:
    """The int cell (left, right, den), den > 0, in lowest terms."""
    g = gcd(left, right, den)
    return left // g, right // g, den // g


def _isolate_irreducible(p: MonicIntPoly) -> list[Cell]:
    """Isolating intervals, ascending, of the real roots of an irreducible p,
    in closed form (module docstring), as int cells in lowest terms."""
    disc = p.discriminant()
    if p.degree == 2:
        if disc < 0:
            return []
        b, s = p.coeffs[0], isqrt(disc)
        # sqrt(disc) lies in (s, s + 1); families.bc_root reads these two,
        # whose ends are consecutive ints over 2, so in lowest terms
        return [(-b - s - 1, -b - s, 2), (-b + s, -b + s + 1, 2)]
    bound = root_bound_pow2(p)
    if disc < 0:
        return [(-bound, bound, 1)]
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
            return ends, 3 * one
        return None
    (l1, r1, l2, r2), den = refine_until(decide, 4)
    return [_lowest(-bound * den, l1, den), _lowest(r1, l2, den), _lowest(r2, bound * den, den)]


def irrational_real_roots(p: MonicIntPoly) -> list[AlgebraicNumber]:
    """Real roots of p that are irrational, as AlgebraicNumbers, ascending."""
    if p.discriminant() == 0:
        raise ZeroDiscriminant(f"{p} has a repeated root")
    _, rest = p.split_integer_roots()
    if rest is None:
        return []
    return [AlgebraicNumber._narrowed(rest, iv) for iv in _isolate_irreducible(rest)]


def horner_in(theta: AlgebraicNumber, coeffs, bounds: Cell, bits: int,
              max_bits: int | None = None) -> bool:
    """Whether coeffs[0] + coeffs[1] theta + coeffs[2] theta^2 + ... lies in
    [lo, hi] / den for the int cell bounds = (lo, hi, den), den > 0, for a
    value known to be neither end: theta is refined from bits on until the
    value's enclosure falls inside or misses."""
    # ints and Fractions both carry numerator and denominator
    scale = lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (scale // c.denominator) for c in coeffs]
    n = len(ints) - 1
    lo, hi, over = bounds

    def decide(bits):
        # the cell of theta as [x_lo, x_hi] / den; the value then lies in
        # [v_lo, v_hi] / unit, compared with lo and hi by cross-multiplication
        x_lo, x_hi, den = theta.cell(bits)
        v_lo, v_hi = horner_scaled(ints, x_lo, x_hi, den)
        unit = scale * den**n
        if lo * unit <= v_lo * over and v_hi * over <= hi * unit:
            return True
        if v_hi * over < lo * unit or hi * unit < v_lo * over:
            return False
        return None
    return refine_until(decide, bits, max_bits)


def value_cell(v, bits: int) -> tuple[int, int, int]:
    """(left, right, den), an int cell of v: (num, num, den) for a Fraction or
    an int, cell(bits) for an AlgebraicNumber, and v(bits) for a function
    that returns a value's cell."""
    if isinstance(v, (int, Fraction)):
        return v.numerator, v.numerator, v.denominator
    return v(bits) if callable(v) else v.cell(bits)
