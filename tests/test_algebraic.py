"""Unit tests for exact algebraic-number intervals and root isolation."""

import decimal
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from algseeds.algebraic import (
    AffineValue,
    AlgebraicNumber,
    ComplexEnclosure,
    PositiveDiscriminant,
    ZeroDiscriminant,
    complex_pair,
    irrational_real_roots,
    isolate_real_roots,
    round_half_even,
    same_number,
    value_enclosure,
)
from algseeds.polynomials import MonicIntPoly

SQRT2 = AlgebraicNumber.sqrt_of(2)
PLASTIC = MonicIntPoly.cubic(0, -1, -1)  # one real root near 1.3247


def assert_revalidates(r):
    """r, built by a trusted path without validation, equals its rebuild through
    the validating constructor (which raises if the invariant broke)."""
    assert AlgebraicNumber(r.minpoly, r.lo, r.hi) == r


def test_sqrt_constructor():
    assert SQRT2.minpoly == MonicIntPoly.quadratic(0, -2)
    assert SQRT2.decimal(5) == "1.41421"
    assert AlgebraicNumber.sqrt_of(5).decimal(5) == "2.23607"


def test_real_root_requires_isolating_bracket():
    p = MonicIntPoly.quadratic(0, -2)
    a = AlgebraicNumber.real_root(p, Fraction(1), Fraction(2))
    assert a.decimal(5) == "1.41421"
    with pytest.raises(Exception):
        AlgebraicNumber.real_root(p, Fraction(-2), Fraction(2))  # two roots


def test_plastic_number_decimal():
    root = irrational_real_roots(PLASTIC)[0]
    assert root.decimal(5) == "1.32472"


def test_refine_tightens_width():
    a = irrational_real_roots(PLASTIC)[0]
    for bits in (8, 32, 100):
        r = a.refine(bits)
        assert r.width() <= Fraction(1, 2**bits)
        assert same_number(a, r)
        assert_revalidates(r)
    # non-dyadic endpoints take the Fraction bisection path
    third = AlgebraicNumber.real_root(MonicIntPoly.quadratic(0, -2), Fraction(4, 3), Fraction(3, 2))
    assert_revalidates(third.refine(50))


def test_enclosure_brackets_value():
    a = SQRT2
    lo, hi = a.enclosure(64)
    assert lo < hi
    assert lo * lo < 2 < hi * hi
    assert hi - lo <= Fraction(1, 2**64)


def test_cmp_rational_exact_signs():
    assert SQRT2.cmp_rational(Fraction(1)) == 1
    assert SQRT2.cmp_rational(Fraction(2)) == -1
    # very close rational: 665857/470832 > sqrt(2) by about 1e-12
    assert SQRT2.cmp_rational(Fraction(665857, 470832)) == -1
    assert SQRT2.cmp_rational(Fraction(470832, 332929)) == 1
    # the half of the interval that the answer names passes validation, the
    # other half does not
    for q in (Fraction(665857, 470832), Fraction(470832, 332929), Fraction(3, 2), Fraction(5, 4)):
        below, above = (SQRT2.lo, q), (q, SQRT2.hi)
        named, other = (above, below) if SQRT2.cmp_rational(q) > 0 else (below, above)
        AlgebraicNumber(SQRT2.minpoly, *named)
        with pytest.raises(ValueError):
            AlgebraicNumber(SQRT2.minpoly, *other)


def test_less_than_for_close_roots():
    r1, r2 = irrational_real_roots(MonicIntPoly.quadratic(-2, -1))  # 1 +- sqrt(2)
    assert r1.less_than(r2)
    assert not r2.less_than(r1)


def test_floor_and_fractional_part():
    assert SQRT2.floor() == 1
    frac = SQRT2.fractional_part()
    assert frac.decimal(5) == "0.41421"
    assert frac.minpoly == MonicIntPoly.quadratic(2, -1)

    neg = SQRT2.negated()
    assert neg.floor() == -2
    assert neg.fractional_part().decimal(5) == "0.58579"

    wide = irrational_real_roots(MonicIntPoly.cubic(0, -7, 7))  # isolated on wide intervals
    for a in [SQRT2, neg, *wide]:
        k, cell = a._narrow_to_unit_cell()
        assert k <= cell.lo < cell.hi <= k + 1
        assert_revalidates(cell)
        assert_revalidates(a.fractional_part())


def test_negated_plus_int_reflected():
    a = SQRT2
    assert a.negated().decimal(5) == "-1.41421"
    assert a.plus_int(3).decimal(5) == "4.41421"
    r = a.reflected()  # 1 - sqrt(2)
    assert r.decimal(5) == "-0.41421"
    assert same_number(r.reflected(), a)
    plastic = irrational_real_roots(PLASTIC)[0]
    for b in (a, plastic):
        for image in (b.negated(), b.plus_int(3), b.plus_int(-5), b.reflected(),
                      b.reflected().reflected()):
            assert_revalidates(image)


def test_decimal_round_half_even_certified():
    # 1/4 boundary case through an algebraic detour: sqrt(9/16) is rational,
    # so exercise the rounding helper directly instead
    assert round_half_even(Fraction(1, 8), 2) == "0.12"
    assert round_half_even(Fraction(3, 8), 2) == "0.38"
    assert round_half_even(Fraction(-1, 8), 2) == "-0.12"
    assert round_half_even(Fraction(5), 0) == "5"


@given(
    num=st.integers(min_value=-10**6, max_value=10**6),
    den=st.integers(min_value=1, max_value=10**6),
    places=st.integers(min_value=0, max_value=8),
)
def test_round_half_even_matches_decimal_module(num, den, places):
    x = Fraction(num, den)
    ours = round_half_even(x, places)
    ctx = decimal.Context(prec=60, rounding=decimal.ROUND_HALF_EVEN)
    ref = ctx.divide(decimal.Decimal(num), decimal.Decimal(den))
    quantum = decimal.Decimal(1).scaleb(-places)
    ref = ref.quantize(quantum, rounding=decimal.ROUND_HALF_EVEN)
    assert decimal.Decimal(ours) == ref


def test_same_number_distinguishes_conjugates():
    r1, r2 = irrational_real_roots(MonicIntPoly.quadratic(0, -2))
    assert not same_number(r1, r2)
    assert same_number(r1, r1.refine(200))


def test_isolate_handles_reducible_input():
    # (x - 2)(x^2 + 2x - 2): integer root 2, irrational -1 +- sqrt(3)
    p = MonicIntPoly.cubic(0, -6, 4)
    iso = isolate_real_roots(p)
    assert len(iso.intervals) == 3
    assert iso.complex_pairs == 0
    irr = irrational_real_roots(p)
    assert [a.decimal(5) for a in irr] == ["-2.73205", "0.73205"]


def test_isolate_counts_complex_pairs():
    iso = isolate_real_roots(PLASTIC)
    assert len(iso.intervals) == 1
    assert iso.complex_pairs == 1


def test_isolate_rejects_repeated_roots():
    with pytest.raises(ZeroDiscriminant):
        isolate_real_roots(MonicIntPoly.quadratic(-2, 1))  # (x-1)^2


def test_totally_real_cubic_roots_ascending():
    roots = irrational_real_roots(MonicIntPoly.cubic(0, -3, 1))
    assert [a.decimal(5) for a in roots] == ["-1.87939", "0.34730", "1.53209"]
    for x, y in zip(roots, roots[1:]):
        assert x.less_than(y)


CUBIC_COEFF = st.integers(min_value=-15, max_value=15)


@given(b=CUBIC_COEFF, c=CUBIC_COEFF, d=CUBIC_COEFF)
def test_isolation_intervals_each_contain_one_sign_change(b, c, d):
    p = MonicIntPoly.cubic(b, c, d)
    if p.discriminant() == 0:
        return
    iso = isolate_real_roots(p)
    assert len(iso.intervals) + 2 * iso.complex_pairs == 3
    for lo, hi in iso.intervals:
        assert lo < hi
    for (a_lo, a_hi), (b_lo, b_hi) in zip(iso.intervals, iso.intervals[1:]):
        assert a_hi <= b_lo
    for a in irrational_real_roots(p):
        for r in (a.refine(40), a.negated(), a.plus_int(-4), a.fractional_part(),
                  a.negated().fractional_part()):
            assert_revalidates(r)


@given(b=CUBIC_COEFF, c=CUBIC_COEFF, d=CUBIC_COEFF)
def test_irrational_roots_are_never_rational(b, c, d):
    p = MonicIntPoly.cubic(b, c, d)
    if p.discriminant() == 0:
        return
    for a in irrational_real_roots(p):
        assert a.minpoly.is_irreducible()
        assert a.cmp_rational(a.midpoint()) in (-1, 1)


def test_complex_pair_of_pure_cubic():
    enc = complex_pair(MonicIntPoly.cubic(0, 0, -2))  # x^3 - 2
    assert enc.decimal_re(5) == "-0.62996"
    assert enc.decimal_im(5) == "1.09112"


def test_complex_pair_reducible_cubic_exact_real_part():
    # (x - 1)(x^2 + x + 1): pair is -1/2 +- sqrt(3)/2 i
    enc = complex_pair(MonicIntPoly.cubic(0, 0, -1))
    assert enc.re[0] == enc.re[1] == Fraction(-1, 2)
    assert enc.decimal_im(5) == "0.86603"


def test_complex_pair_rejects_totally_real():
    with pytest.raises(PositiveDiscriminant):
        complex_pair(MonicIntPoly.cubic(0, -3, 1))


def test_complex_root_json_shape():
    a = AlgebraicNumber.complex_root(MonicIntPoly.quadratic(0, 1))
    assert not a.is_real
    js = a.to_json()
    assert js["half_plane"] == "upper"
    assert js["minpoly"] == [0, 1]


def test_real_json_shape():
    js = SQRT2.to_json()
    assert js["minpoly"] == [0, -2]
    lo = Fraction(int(js["interval"][0][0]), int(js["interval"][0][1]))
    hi = Fraction(int(js["interval"][1][0]), int(js["interval"][1][1]))
    assert lo < hi


def test_affine_value_enclosure_and_decimal():
    v = AffineValue(SQRT2, Fraction(1, 2), Fraction(3))
    assert v.decimal(5) == "3.70711"
    lo, hi = v.enclosure(40)
    assert Fraction(37, 10) < lo < hi < Fraction(38, 10)
    assert v.cmp_rational(Fraction(7, 2)) == 1
    assert v.cmp_rational(Fraction(4)) == -1


def test_value_enclosure_uniform_access():
    assert value_enclosure(Fraction(1, 3), 10) == (Fraction(1, 3), Fraction(1, 3))
    assert value_enclosure(4, 10) == (Fraction(4), Fraction(4))
    lo, hi = value_enclosure(SQRT2, 20)
    assert hi - lo <= Fraction(1, 2**20)


def test_complex_enclosure_rejects_wide_interval():
    wide = ComplexEnclosure((Fraction(0), Fraction(1)), (Fraction(0), Fraction(1)))
    with pytest.raises(ValueError):
        wide.decimal_re(5)
