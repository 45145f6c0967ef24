"""Independent slow paths that only the tests call: a Sturm count of real
roots and a brute-force scan of reducible cubics, checked against the
closed-form isolation and the integer-root walk of ``build_set``; the
validating sqrt(n), the exact order of two numbers and a bit stream's
dyadic value, which the tests compare trusted builds, build orders and
truncations against; the ``Fraction`` ends of a number's int cell, their
JSON rendering and the sign of a polynomial at a rational point, which the
tests read intervals through; and the cell of an affine image of a number,
the slow twin of the isqrt cells of ``uniformity.im_fractional``; the
generator search over the whole cube of each shell, the slow twin of
``coverage.find_generator``; the scans over every index n, slow twins of
the tile checks of ``coverage.verify_tiling`` and of
``families.classify_exception``; and a Taylor shift by synthetic
division, the slow twin of the closed form of ``MonicIntPoly.map_root``."""

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from algseeds.algebraic import (AlgebraicNumber, horner_in, irrational_real_roots, refine_until,
                                same_number)
from algseeds.bits import BitStream
from algseeds.coverage import GeneratorWitness, SearchResult, TileIndex, _family_coeff_ok
from algseeds.families import (ExceptionRule, SetSpec, _exception_cases, _unit_interval_root,
                               bc_shift_params)
from algseeds.fields import FieldExpression, char_poly
from algseeds.polynomials import MonicIntPoly, count_roots_between, root_bound_pow2


def ends(x: AlgebraicNumber) -> tuple[Fraction, Fraction]:
    """The ends of the isolating interval of the real number x, as Fractions."""
    left, right, den = x.interval
    return Fraction(left, den), Fraction(right, den)


def interval_json(x: AlgebraicNumber) -> list[list[str]]:
    """The "interval" of x's ``to_json``, rendered from its Fraction ends."""
    return [[str(q.numerator), str(q.denominator)] for q in ends(x)]


def sign_at(p: MonicIntPoly, x: Fraction | int) -> int:
    """The exact sign of p(x) at a rational point."""
    v = p.scaled_value(x.numerator, x.denominator)
    return (v > 0) - (v < 0)


def count_real_roots(p: MonicIntPoly) -> int:
    """The number of distinct real roots of p, by a Sturm count on
    [-B, B] with B a power-of-two root bound."""
    m = Fraction(root_bound_pow2(p))
    return count_roots_between(p, -m, m)


def reducible_free_coeffs(b: int, c: int) -> list[int]:
    """Brute-force scan: the d in [1, -b-c-2] whose cubic has an integer root."""
    return [d for d in range(1, -b - c - 1) if not MonicIntPoly.cubic(b, c, d).is_irreducible()]


def sqrt_of(n: int) -> AlgebraicNumber:
    """sqrt(n) for a positive nonsquare integer, by the validating constructor."""
    s = isqrt(n)
    return AlgebraicNumber.real_root(MonicIntPoly.quadratic(0, -n), s, s + 1)


def less_than(a: AlgebraicNumber, b: AlgebraicNumber) -> bool:
    """Whether a < b, for two distinct real numbers, on their cells."""
    if same_number(a, b):
        raise ValueError("equal numbers have no strict order")

    def decide(bits):
        # the two cells, compared by cross-multiplication
        a_left, a_right, a_den = a.cell(bits)
        b_left, b_right, b_den = b.cell(bits)
        if a_right * b_den <= b_left * a_den:
            return True
        if b_right * a_den <= a_left * b_den:
            return False
        return None
    return refine_until(decide, 8)


def stream_fraction(s: BitStream) -> Fraction:
    """The dyadic approximation j / 2^L; within 2^-L of the source."""
    return Fraction(s.value, 1 << s.length)


@dataclass(frozen=True)
class AffineValue:
    base: AlgebraicNumber
    scale: Fraction
    offset: Fraction

    def cell(self, bits: int) -> tuple[int, int, int]:
        """(left, right, den): the exact image of the base's cell at bits plus
        the bit length of the scale's numerator under x -> scale x + offset,
        ends swapped when the scale is negative, over den > 0."""
        left, right, den = self.base.cell(bits + self.scale.numerator.bit_length())
        p, q = self.scale.numerator, self.scale.denominator
        r, t = self.offset.numerator, self.offset.denominator
        # (p / q) (x / den) + r / t = (p t x + r q den) / (q t den)
        shift = r * q * den
        left, right = p * t * left + shift, p * t * right + shift
        if p < 0:
            left, right = right, left
        return left, right, q * t * den


def find_generator_brute(target: MonicIntPoly, family: str, coord_bound: int) -> SearchResult:
    """find_generator for an irreducible cubic target of family's signature,
    by a walk over every point of each shell's cube in lexicographic order,
    with the full char_poly of every candidate on its surface."""
    theta = irrational_real_roots(target)[0]
    for shell in range(1, coord_bound + 1):
        rng = range(-shell, shell + 1)
        for coords in ((a0, a1, a2) for a0 in rng for a1 in rng for a2 in rng):
            if max(map(abs, coords)) != shell or coords[1] == coords[2] == 0:
                continue
            char = MonicIntPoly(char_poly(target, coords))
            trace, c, d = char.coeffs
            if trace or not _family_coeff_ok(family, c, d):
                continue
            elem = _unit_interval_root(char)
            if elem.minpoly.degree == 3 and horner_in(theta, coords, (0, 1, 1), 64):
                cert = FieldExpression(theta, tuple(Fraction(x) for x in coords))
                return SearchResult(True, GeneratorWitness(
                    coords, char, SetSpec(family, (0, c)), d, elem, cert), coord_bound)
    return SearchResult(False, None, coord_bound)


def real_membership_scan(b: int, c: int, sign: int, bound: int) -> list[TileIndex]:
    """Brute force: every (eps, n) with |n| <= bound+1 whose tile contains
    a = (b,c)_sign, by the coefficients of eps*(a - n).  By the rank rule
    (``coverage`` docstring) only eps = sign can hit, so only it is scanned."""
    hits = []
    for n in range(-bound - 1, bound + 2):
        # q = x^2 + b2 x + c2, the minimal polynomial of sign*(a - n)
        b2, c2 = bc_shift_params(b, c, -n) if sign == 1 else bc_shift_params(-b, c, n)
        if c2 >= 0 or 1 + b2 + c2 <= 0 or b2 < 1:
            continue  # no set element among the roots of q
        # q has exactly one root in (0,1), its larger, and by the rank rule
        # that root is sign*(a - n)
        hits.append(TileIndex(sign, n, "S2r"))
    return hits


def imaginary_scan(b: int, c: int, sign: int, bound: int) -> list[int]:
    """Brute force: every n with |n| <= bound+1 whose shift puts the
    imaginary (b,c)_sign into sign*S-hat, with admissible coordinates
    b + 2n in {0, -sign} and c - n^2 + (b + 2n) n >= 1."""
    hits = []
    for n in range(-bound - 1, bound + 2):
        bb = b + 2 * n
        admissible = (0, -1) if sign > 0 else (0, 1)
        if bb in admissible and c - n * n + bb * n >= 1:
            hits.append(n)
    return hits


def classify_exception_scan(b: int, c: int) -> list[ExceptionRule]:
    """Every case of ``classify_exception`` that holds for (b, c), over
    every n with |n| <= isqrt(-c) + |b| + 3."""
    limit = isqrt(-c) + abs(b) + 3
    return [rule for n in range(-limit, limit + 1) for rule in _exception_cases(b, c, n)]


def map_root_by_taylor_shift(p: MonicIntPoly, eps: int, shift: int) -> MonicIntPoly:
    """The monic polynomial with roots eps*alpha + shift: the polynomial with
    roots eps*alpha, shifted to q(x - shift) by repeated synthetic division
    of its ascending coefficients."""
    if p.degree == 2:
        b, c = p.coeffs
        out = [c, eps * b, 1]
    else:
        b, c, d = p.coeffs
        out = [eps * d, c, eps * b, 1]
    n = len(out) - 1
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            out[j] -= shift * out[j + 1]
    return MonicIntPoly(tuple(reversed(out[:-1])))
