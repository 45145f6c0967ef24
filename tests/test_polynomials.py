"""Unit tests for exact monic polynomial arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from algseeds.polynomials import (
    MonicIntPoly,
    count_real_roots,
    count_roots_between,
    is_perfect_square,
    root_bound_pow2,
    sturm_chain,
)

COEFF = st.integers(min_value=-40, max_value=40)


def test_quadratic_constructor_and_accessors():
    p = MonicIntPoly.quadratic(3, -5)
    assert p.degree == 2
    assert p.coeffs == (3, -5)
    assert p.ascending() == [-5, 3, 1]
    assert p.evaluate(Fraction(2)) == 4 + 6 - 5
    assert p.evaluate(2) == 4 + 6 - 5
    assert p.evaluate(-7) == 49 - 21 - 5
    assert type(p.evaluate(2)) is int
    assert type(p.evaluate(Fraction(2))) is Fraction


def test_cubic_constructor_and_accessors():
    p = MonicIntPoly.cubic(0, -3, 1)
    assert p.degree == 3
    assert p.ascending() == [1, -3, 0, 1]
    assert p.evaluate(Fraction(1, 2)) == Fraction(1, 8) - Fraction(3, 2) + 1


def test_rejects_unsupported_degrees():
    with pytest.raises(ValueError):
        MonicIntPoly((1,))
    with pytest.raises(ValueError):
        MonicIntPoly((1, 2, 3, 4))


def test_string_rendering():
    assert str(MonicIntPoly.cubic(-2, 0, -1)) == "x^3-2x^2-1"
    assert str(MonicIntPoly.cubic(0, 1, -1)) == "x^3+x-1"
    assert str(MonicIntPoly.quadratic(0, -2)) == "x^2-2"
    assert str(MonicIntPoly.quadratic(1, -1)) == "x^2+x-1"


def test_quadratic_discriminant():
    assert MonicIntPoly.quadratic(1, -1).discriminant() == 5
    assert MonicIntPoly.quadratic(0, 1).discriminant() == -4


def test_cubic_discriminant_known_values():
    # x^3 - 3x + 1 is totally real, x^3 - 2 is not.
    assert MonicIntPoly.cubic(0, -3, 1).discriminant() == 81
    assert MonicIntPoly.cubic(0, 0, -2).discriminant() == -108


@given(b=COEFF, c=COEFF)
def test_quadratic_irreducibility_matches_square_discriminant(b, c):
    p = MonicIntPoly.quadratic(b, c)
    square_disc = p.discriminant() >= 0 and is_perfect_square(p.discriminant())
    assert p.is_irreducible() == (not square_disc)
    if square_disc:
        # monic + rational root theorem: the roots are integers
        roots = p.integer_roots()
        assert roots
        for r in roots:
            assert p.evaluate(Fraction(r)) == 0


@given(b=COEFF, c=COEFF, d=COEFF)
def test_cubic_integer_roots_are_roots(b, c, d):
    p = MonicIntPoly.cubic(b, c, d)
    for r in p.integer_roots():
        assert p.evaluate(Fraction(r)) == 0
    for r in range(-3, 4):
        assert p.evaluate(r) == p.evaluate(Fraction(r))


def test_deflate_exact_division():
    p = MonicIntPoly.cubic(-1, -1, 1)  # (x - 1)(x^2 - 1) = x^3 - x^2 - x + 1
    q = p.deflate(1)
    assert q.coeffs == (0, -1)
    with pytest.raises(ValueError):
        p.deflate(2)


def test_split_integer_roots():
    p = MonicIntPoly.cubic(-2, -1, 2)  # roots 1, 2, -1
    roots, rest = p.split_integer_roots()
    assert sorted(roots) == [-1, 1, 2]
    assert rest is None


def test_irreducible_factors():
    fully_split = MonicIntPoly.cubic(0, -7, 6)  # roots 1, 2, -3
    roots, rest = fully_split.irreducible_factors()
    assert roots == [-3, 1, 2]
    assert rest == []

    mixed = MonicIntPoly.cubic(-1, -2, 2)  # (x - 1)(x^2 - 2)
    roots, rest = mixed.irreducible_factors()
    assert roots == [1]
    assert rest == [MonicIntPoly.quadratic(0, -2)]


@given(b=COEFF, c=COEFF, eps=st.sampled_from((1, -1)), k=st.integers(-8, 8))
def test_map_root_transports_evaluation(b, c, eps, k):
    """q = map_root(eps, shift) satisfies q(y) = +-p(eps*(y - shift))."""
    p = MonicIntPoly.quadratic(b, c)
    q = p.map_root(eps, k)
    for y in (Fraction(0), Fraction(1, 3), Fraction(-2)):
        lhs = q.evaluate(y)
        rhs = p.evaluate(eps * (y - k))
        assert lhs == rhs or lhs == -rhs


def test_reflected_maps_root_to_one_minus_root():
    p = MonicIntPoly.quadratic(0, -2)  # roots +-sqrt(2)
    r = p.reflected()
    assert r.coeffs == (-2, -1)
    # r(y) agrees with p(1 - y) up to overall sign at every rational point
    for y in (Fraction(0), Fraction(1), Fraction(3, 7)):
        assert r.evaluate(y) in (p.evaluate(1 - y), -p.evaluate(1 - y))


def test_reflected_involution():
    p = MonicIntPoly.cubic(0, 6, -2)
    assert p.reflected().reflected() == p


def test_shifted_by_rational():
    p = MonicIntPoly.quadratic(0, -2)
    shifted = p.shifted_by_rational(Fraction(1, 2))
    # roots +-sqrt(2) + 1/2, so (y - 1/2)^2 - 2 = y^2 - y - 7/4
    assert shifted == (Fraction(-1), Fraction(-7, 4))


def test_sign_at_matches_evaluate():
    p = MonicIntPoly.cubic(0, -3, 1)
    for q in (Fraction(-2), Fraction(0), Fraction(1, 3), Fraction(2)):
        v = p.evaluate(q)
        s = p.sign_at(q)
        assert s == (0 if v == 0 else (1 if v > 0 else -1))


def test_sign_at_dyadic():
    p = MonicIntPoly.quadratic(0, -2)
    assert p.sign_at_dyadic(3, 1) == 1  # p(3/2) = 1/4
    assert p.sign_at_dyadic(11, 3) == -1  # p(11/8) < 0
    assert p.sign_at_dyadic(1, 0) == -1


def test_sturm_counts_real_roots():
    assert count_real_roots(MonicIntPoly.cubic(0, -3, 1)) == 3
    assert count_real_roots(MonicIntPoly.cubic(0, 0, -2)) == 1
    assert count_real_roots(MonicIntPoly.quadratic(0, 1)) == 0
    assert count_real_roots(MonicIntPoly.quadratic(0, -2)) == 2


def test_count_roots_between_half_open():
    p = MonicIntPoly.quadratic(0, -2)
    chain = sturm_chain(p)
    assert count_roots_between(p, Fraction(1), Fraction(2), chain) == 1
    assert count_roots_between(p, Fraction(-2), Fraction(-1), chain) == 1
    assert count_roots_between(p, Fraction(2), Fraction(3), chain) == 0


def test_count_roots_between_rejects_root_endpoint():
    p = MonicIntPoly.quadratic(-3, 2)  # roots 1 and 2
    with pytest.raises(ValueError):
        count_roots_between(p, Fraction(1), Fraction(3))


@given(b=COEFF, c=COEFF, d=COEFF)
def test_root_bound_contains_all_real_roots(b, c, d):
    p = MonicIntPoly.cubic(b, c, d)
    if not p.is_squarefree():
        return
    bound = root_bound_pow2(p)
    assert bound >= 1
    chain = sturm_chain(p)
    inside = count_roots_between(p, Fraction(-bound), Fraction(bound), chain)
    assert inside == count_real_roots(p)


def test_is_perfect_square():
    assert is_perfect_square(0)
    assert is_perfect_square(49)
    assert not is_perfect_square(48)
    assert not is_perfect_square(-4)


def test_to_json_round_trip_shape():
    assert MonicIntPoly.cubic(-2, 0, -1).to_json() == [-2, 0, -1]
