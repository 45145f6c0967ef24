"""Independent slow paths that only the tests call: a Sturm count of real
roots and a brute-force scan of reducible cubics, checked against the
closed-form isolation and the integer-root walk of ``build_set``."""

from fractions import Fraction

from algseeds.polynomials import MonicIntPoly, count_roots_between, root_bound_pow2


def count_real_roots(p: MonicIntPoly) -> int:
    """The number of distinct real roots of p, by a Sturm count on
    [-B, B] with B a power-of-two root bound."""
    m = Fraction(root_bound_pow2(p))
    return count_roots_between(p, -m, m)


def reducible_free_coeffs(b: int, c: int) -> list[int]:
    """Brute-force scan: the d in [1, -b-c-2] whose cubic has an integer root."""
    return [d for d in range(1, -b - c - 1) if not MonicIntPoly.cubic(b, c, d).is_irreducible()]
