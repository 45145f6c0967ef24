"""Independent slow paths that only the tests call: a Sturm count of real
roots and a brute-force scan of reducible cubics, checked against the
closed-form isolation and the integer-root walk of ``build_set``; the
validating sqrt(n), the exact order of two numbers and a bit stream's
dyadic value, which the tests compare trusted builds, build orders and
truncations against; the ``Fraction`` ends of a number's int cell, their
JSON rendering and the sign of a polynomial at a rational point, which the
tests read intervals through; and the cell of an affine image of a number,
the slow twin of the isqrt cells of ``uniformity.im_fractional``; and the
generator search over the whole cube of each shell, the slow twin of
``coverage.find_generator``."""

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from algseeds.algebraic import (AlgebraicNumber, horner_in, irrational_real_roots, refine_until,
                                same_number)
from algseeds.bits import BitStream
from algseeds.coverage import GeneratorWitness, SearchResult, _family_coeff_ok
from algseeds.families import SetSpec, _unit_interval_root
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
