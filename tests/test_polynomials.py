"""Unit tests for exact monic polynomial arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from algseeds.polynomials import (
    MonicIntPoly,
    count_roots_between,
    is_perfect_square,
    root_bound_pow2,
    sturm_chain,
)
from oracles import count_real_roots, sign_at

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


def _brute_integer_roots(p):
    bound = root_bound_pow2(p)
    return [r for r in range(-bound, bound + 1) if p.evaluate(r) == 0]


@given(b=COEFF, c=COEFF, r=st.integers(-20, 20))
def test_quadratic_integer_roots_match_brute_force(b, c, r):
    """The closed form (-b -+ s) / 2 against a scan of the Cauchy bound, on
    drawn quadratics and on (x - r)^2."""
    for p in (MonicIntPoly.quadratic(b, c), MonicIntPoly.quadratic(-2 * r, r * r)):
        assert p.integer_roots() == _brute_integer_roots(p)


@given(b=COEFF, c=COEFF, d=COEFF, r=st.integers(-8, 8), s=st.integers(-8, 8))
def test_cubic_integer_roots_match_brute_force(b, c, d, r, s):
    """The stop-at-first-root scan against a scan of the Cauchy bound, on
    drawn cubics, on d = 0 and on (x - r)^2 (x - s), r = s included."""
    for p in (MonicIntPoly.cubic(b, c, d), MonicIntPoly.cubic(b, c, 0),
              MonicIntPoly.cubic(-2 * r - s, r * r + 2 * r * s, -r * r * s)):
        roots = p.integer_roots()
        assert roots == _brute_integer_roots(p)
        if p.discriminant():
            # squarefree: the factor kept is exactly the irreducible one
            _, rest = p.split_integer_roots()
            want = p if not roots else p.deflate(roots[0]) if len(roots) == 1 else None
            assert rest == want and (rest is None or rest.is_irreducible())


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
    assert fully_split.split_integer_roots() == ([-3, 1, 2], None)

    mixed = MonicIntPoly.cubic(-1, -2, 2)  # (x - 1)(x^2 - 2)
    assert mixed.split_integer_roots() == ([1], MonicIntPoly.quadratic(0, -2))


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


def test_sign_at_matches_evaluate():
    p = MonicIntPoly.cubic(0, -3, 1)
    for q in (Fraction(-2), Fraction(0), Fraction(1, 3), Fraction(2)):
        v = p.evaluate(q)
        s = sign_at(p, q)
        assert s == (0 if v == 0 else (1 if v > 0 else -1))


def test_scaled_value():
    p = MonicIntPoly.quadratic(0, -2)
    assert p.scaled_value(3, 2) == 1  # 2^2 * p(3/2) = 4 * 1/4
    assert p.scaled_value(11, 8) == -7  # 8^2 * p(11/8) = 121 - 128
    assert p.scaled_value(1, 1) == -1
    q = MonicIntPoly.cubic(-2, 0, -1)
    for x in (Fraction(5, 3), Fraction(-7, 2), Fraction(9, 4)):
        assert q.scaled_value(x.numerator, x.denominator) == x.denominator**3 * q.evaluate(x)


def test_sign_at_dyadic():
    # refine evaluates at num/2^k points of its bisection grid
    p = MonicIntPoly.quadratic(0, -2)
    for num, k, sign in ((3, 1, 1), (11, 3, -1), (1, 0, -1)):  # p(3/2) = 1/4, p(11/8) < 0
        v = p.scaled_value(num, 2**k)
        assert (v > 0) - (v < 0) == sign
        assert sign_at(p, Fraction(num, 2**k)) == sign


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


def _from_roots(roots: list[int]) -> MonicIntPoly:
    coeffs = [1]
    for r in roots:  # multiply by (x - r)
        coeffs = [a - r * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return MonicIntPoly(tuple(coeffs[1:]))


@given(roots=st.lists(st.integers(-12, 12), min_size=2, max_size=3, unique=True),
       ends=st.lists(st.fractions(-15, 15, max_denominator=40), min_size=2, max_size=2,
                     unique=True).map(sorted))
def test_integer_sturm_count_matches_true_count(roots, ends):
    """The integer chain counts the roots of (x - r1)(x - r2)[(x - r3)] in
    (lo, hi] exactly, at any rational endpoints that are not roots."""
    lo, hi = ends
    assume(lo not in roots and hi not in roots)
    p = _from_roots(roots)
    assert sorted(p.integer_roots()) == sorted(roots)
    assert count_roots_between(p, lo, hi) == sum(lo < r < hi for r in roots)


@given(b=COEFF, c=COEFF, d=COEFF)
def test_root_bound_contains_all_real_roots(b, c, d):
    p = MonicIntPoly.cubic(b, c, d)
    if p.discriminant() == 0:
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
