"""Unit tests for exact algebraic-number intervals and root isolation."""

import decimal
from fractions import Fraction
from functools import partial
from math import gcd, isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from algseeds import fields
from algseeds.algebraic import (
    AlgebraicNumber,
    PrecisionExhausted,
    ZeroDiscriminant,
    _cell_decimal,
    _round_half_even_ratio,
    irrational_real_roots,
    half_sqrt_cell,
    refine_until,
    same_number,
    value_cell,
)
from algseeds.families import SetSpec, build_set
from algseeds.polynomials import MonicIntPoly, count_roots_between
from oracles import (AffineValue, count_real_roots, ends, interval_json, less_than, sign_at,
                     sqrt_of)

SQRT2 = sqrt_of(2)
PLASTIC = MonicIntPoly.cubic(0, -1, -1)  # one real root near 1.3247


def assert_revalidates(r):
    """r, built by a trusted path without validation, equals its rebuild through
    the validating constructor (which raises if the invariant broke)."""
    assert AlgebraicNumber(r.minpoly, r.interval) == r


def test_sqrt_constructor():
    assert SQRT2.minpoly == MonicIntPoly.quadratic(0, -2)
    assert SQRT2.decimal(5) == "1.41421"
    assert sqrt_of(5).decimal(5) == "2.23607"


def test_real_root_requires_isolating_bracket():
    p = MonicIntPoly.quadratic(0, -2)
    a = AlgebraicNumber.real_root(p, Fraction(1), Fraction(2))
    assert a.decimal(5) == "1.41421"
    with pytest.raises(Exception):
        AlgebraicNumber.real_root(p, Fraction(-2), Fraction(2))  # two roots
    # the ends in any rational form reduce to one int cell
    golden = MonicIntPoly.quadratic(1, -1)
    assert (AlgebraicNumber.real_root(golden, Fraction(2, 4), 1)
            == AlgebraicNumber.real_root(golden, "2/4", 1.0)
            == AlgebraicNumber(golden, (1, 2, 2)))


def test_constructor_rejects_interval_holding_three_roots():
    """(-2, 2) straddles a sign change of x^3 - 3x + 1 but holds all three
    roots; accepting it made same_number(a, a) False and less_than raise."""
    p = MonicIntPoly.cubic(0, -3, 1)  # roots near -1.879, 0.347, 1.532
    with pytest.raises(ValueError, match="exactly one root"):
        AlgebraicNumber.real_root(p, -2, 2)
    with pytest.raises(ValueError, match="exactly one root"):
        AlgebraicNumber(p, (-2, 2, 1))
    left, mid, right = (AlgebraicNumber.real_root(p, lo, hi) for lo, hi in ((-2, 0), (0, 1), (1, 2)))
    for a in (left, mid, right):
        assert same_number(a, a)
    assert less_than(left, mid) and less_than(mid, right)
    assert not less_than(right, left)
    with pytest.raises(ValueError, match="no strict order"):
        less_than(left, left.refine(20))


def test_plastic_number_decimal():
    root = irrational_real_roots(PLASTIC)[0]
    assert root.decimal(5) == "1.32472"


def test_refine_tightens_width():
    a = irrational_real_roots(PLASTIC)[0]
    for bits in (8, 32, 100):
        r = a.refine(bits)
        lo, hi = ends(r)
        assert hi - lo <= Fraction(1, 2**bits)
        assert same_number(a, r)
        assert_revalidates(r)
    # non-dyadic endpoints
    third = AlgebraicNumber.real_root(MonicIntPoly.quadratic(0, -2), Fraction(4, 3), Fraction(3, 2))
    assert_revalidates(third.refine(50))


def grid_interval(a, den, below, above):
    """An isolating interval of a on the grid Z/den: the grid cell holding a,
    widened by up to `below` cells down and `above` cells up, and cut back one
    cell at a time on the side of any other root.  Large widenings therefore
    end one cell short of a neighbouring root."""
    p = a.minpoly
    while True:
        lo = ends(a.refine(64))[0]
        k = (lo * den).__floor__()
        if a.cmp_rational(Fraction(k + 1, den)) == 1:
            k += 1
        if count_roots_between(p, Fraction(k, den), Fraction(k + 1, den)) == 1:
            break
        den *= 2  # two roots share the cell
    while True:
        lo, hi = Fraction(k - below, den), Fraction(k + 1 + above, den)
        if count_roots_between(p, lo, hi) == 1:
            return AlgebraicNumber.real_root(p, lo, hi)
        if below and count_roots_between(p, lo, Fraction(k, den)):
            below -= 1
        else:
            above -= 1


IRREDUCIBLE_REAL = st.one_of(
    st.tuples(st.integers(-12, 12), st.integers(-12, 12)).map(lambda bc: MonicIntPoly.quadratic(*bc)),
    st.tuples(st.integers(-9, 9), st.integers(-12, 12), st.integers(-12, 12)).map(
        lambda bcd: MonicIntPoly.cubic(*bcd)),
).filter(lambda p: p.is_irreducible() and irrational_real_roots(p))


@settings(max_examples=300)
@given(p=IRREDUCIBLE_REAL, index=st.integers(0, 2), den=st.sampled_from((1, 2, 3, 5, 6, 7, 12, 64)),
       below=st.integers(0, 40), above=st.integers(0, 40), bits=st.integers(0, 600))
@example(p=MonicIntPoly.quadratic(0, -2), index=1, den=1, below=1, above=1, bits=9)   # (0, 3)
@example(p=MonicIntPoly.cubic(0, -7, 7), index=1, den=8, below=40, above=40, bits=10)
@example(p=MonicIntPoly.cubic(0, -7, 7), index=2, den=8, below=40, above=40, bits=10)
def test_refine_returns_the_bisection_cell(p, index, den, below, above, bits):
    roots = irrational_real_roots(p)
    x = grid_interval(roots[index % len(roots)], den, below, above)
    assert_bisection_cell(x, bits, x.refine(bits))


def assert_bisection_cell(x, bits, r):
    """r is the cell of the bisection grid of x's interval at the first level
    s* whose width W/2**s* is <= 2**-bits, and it holds the number: checked
    from the definition, without bisecting."""
    (x_lo, x_hi), (r_lo, r_hi) = ends(x), ends(r)
    big, width = x_hi - x_lo, r_hi - r_lo
    steps = big / width
    s = steps.numerator.bit_length() - 1
    assert steps == 2**s
    assert width <= Fraction(1, 2**bits) and (s == 0 or 2 * width > Fraction(1, 2**bits))
    assert ((r_lo - x_lo) / width).denominator == 1
    assert x.cmp_rational(r_lo) == 1 and x.cmp_rational(r_hi) == -1
    assert_revalidates(r)


def quadratic_2r_root(n, index, upper):
    """The lower root (p < 0 at hi, sigma = -1) or the upper root (sigma = +1)
    of the minimal polynomial of an element of 2r(n): one of the two is the
    element, the other its conjugate."""
    elements = build_set(SetSpec("2r", (n,))).elements
    roots = irrational_real_roots(elements[index % len(elements)].number.minpoly)
    return roots[upper]


QUADRATIC_2R = dict(n=st.integers(-1000, 1000).filter(lambda n: n >= 1 or n <= -3),
                    index=st.integers(0, 2000), upper=st.booleans())


@settings(max_examples=200, deadline=None)
@given(**QUADRATIC_2R, den=st.sampled_from((1, 3, 5, 7)),
       below=st.integers(0, 40), above=st.integers(0, 40), bits=st.integers(0, 4096))
@example(n=1000, index=999, upper=True, den=7, below=40, above=40, bits=4096)
@example(n=-1000, index=0, upper=False, den=3, below=0, above=0, bits=4096)
@example(n=93, index=5, upper=False, den=5, below=3, above=40, bits=1)
def test_quadratic_closed_form_is_the_bisection_cell_at_scale(n, index, upper, den, below,
                                                              above, bits):
    """The closed form (one isqrt for a quadratic) lands on the bisection cell
    on both roots of 2r(n) elements, |n| <= 1000, on grid intervals with
    denominators 3, 5 and 7, and at up to 4096 bits."""
    x = grid_interval(quadratic_2r_root(n, index, upper), den, below, above)
    assert (sign_at(x.minpoly, ends(x)[1]) > 0) == upper
    assert_bisection_cell(x, bits, x.refine(bits))


def bisection_index(x, level):
    """The index of the level-`level` bisection cell of x's interval that
    holds x, found by plain bisection: one exact sign test per level."""
    (lo, hi), j = ends(x), 0
    for _ in range(level):
        mid = (lo + hi) / 2
        j *= 2
        if x.cmp_rational(mid) == 1:
            lo, j = mid, j + 1
        else:
            hi = mid
    return j


@settings(max_examples=100, deadline=None)
@given(**QUADRATIC_2R, den=st.sampled_from((1, 3, 5, 7)), level=st.integers(1, 200),
       stored_by_bisection=st.booleans(),
       requests=st.lists(st.integers(0, 1200), min_size=2, max_size=5))
@example(n=57, index=3, upper=True, den=3, level=100, stored_by_bisection=True,
         requests=[400, 20])   # deeper, then shallower than the stored cell
@example(n=-57, index=3, upper=False, den=7, level=100, stored_by_bisection=False,
         requests=[20, 400, 99])   # shallower, deeper, then between the two
def test_quadratic_memo_hands_over_both_ways(n, index, upper, den, level, stored_by_bisection,
                                            requests):
    """A quadratic that holds a cell, stored by the closed form at `level`
    bits or as quadratic interval refinement stored it (the plain bisection
    cell at grid level `level`), then answers deeper and shallower requests,
    the levels next to the stored one among them, with the bisection cell,
    as a copy that was never refined does."""
    x = grid_interval(quadratic_2r_root(n, index, upper), den, 0, 3)
    if stored_by_bisection:
        x.__dict__["_cell"] = (level, bisection_index(x, level))
        # the width is about 2**e, so that cell answers about level - e bits
        lo, hi = ends(x)
        width = hi - lo
        level -= width.numerator.bit_length() - width.denominator.bit_length()
    else:
        x.refine(level)
    for bits in [*range(max(level - 3, 0), level + 4), *requests]:
        r = x.refine(bits)
        assert r == AlgebraicNumber._narrowed(x.minpoly, x.interval).refine(bits)
        assert_bisection_cell(x, bits, r)


@settings(max_examples=150, deadline=None)
@given(p=IRREDUCIBLE_REAL, index=st.integers(0, 2), den=st.sampled_from((1, 3, 5, 7)),
       below=st.integers(0, 20), above=st.integers(0, 20), bits=st.integers(0, 300),
       k=st.integers(-40, 40), deeper=st.integers(1, 400))
@example(p=MonicIntPoly.quadratic(0, -2), index=1, den=1, below=0, above=0, bits=40, k=3,
         deeper=200)
@example(p=PLASTIC, index=0, den=3, below=5, above=2, bits=100, k=-7, deeper=1)
@example(p=MonicIntPoly.cubic(0, -7, 7), index=1, den=8, below=20, above=20, bits=10, k=0,
         deeper=300)
def test_affine_images_keep_the_cell(p, index, den, below, above, bits, k, deeper):
    """A number refined to a drawn level hands its memo, mapped, to negated,
    plus_int(k) and reflected (algebraic docstring): cell j at level s goes
    to j or to 2**s - 1 - j.  Each image then answers cell(b) as a copy of
    it built by the validating constructor and never refined does, at levels
    below, at and above the carried one."""
    roots = irrational_real_roots(p)
    x = grid_interval(roots[index % len(roots)], den, below, above)
    x.cell(bits)
    memo = x.__dict__.get("_cell")
    maps = ((lambda y: y.negated(), -1), (lambda y: y.plus_int(k), 1),
            (lambda y: y.reflected(), -1))
    for b in (*range(max(bits - 3, 0), bits + 4), bits + deeper):
        for image_of, eps in maps:
            image = image_of(x)
            if memo is not None:
                level, j = memo
                assert image.__dict__["_cell"] == (level, j if eps > 0 else (1 << level) - 1 - j)
            fresh = AlgebraicNumber(image.minpoly, image.interval)
            assert image == fresh
            assert image.cell(b) == fresh.cell(b)
            assert image.cmp_rational(0) == fresh.cmp_rational(Fraction(0))


@settings(max_examples=200)
@given(p=IRREDUCIBLE_REAL, index=st.integers(0, 2), den=st.sampled_from((1, 3, 5, 7)),
       below=st.integers(0, 20), above=st.integers(0, 20), bits=st.integers(-2, 300))
@example(p=MonicIntPoly.quadratic(0, -2), index=1, den=1, below=0, above=0, bits=0)  # s* = 0
@example(p=PLASTIC, index=0, den=1, below=2, above=2, bits=1)
def test_cell_is_the_interval_of_refine(p, index, den, below, above, bits):
    """cell(bits) is the interval of refine(bits) as rationals, on one
    positive denominator; at s* = 0 it is the number's own interval."""
    roots = irrational_real_roots(p)
    x = grid_interval(roots[index % len(roots)], den, below, above)
    left, right, cell_den = x.cell(bits)
    assert cell_den > 0
    cell = (Fraction(left, cell_den), Fraction(right, cell_den))
    r = x.refine(bits)
    assert cell == ends(r)
    lo, hi = ends(x)
    if hi - lo <= Fraction(1, 2**max(bits, 0)):
        assert cell == (lo, hi) and r is x


@settings(max_examples=100)
@given(p=IRREDUCIBLE_REAL, index=st.integers(0, 2), den=st.sampled_from((1, 3, 5, 7)),
       places=st.integers(0, 40))
@example(p=MonicIntPoly.quadratic(0, -2), index=1, den=1, places=0)
def test_decimal_is_the_rounded_enclosure_along_its_ladder(p, index, den, places):
    """decimal(places), which rounds the integer cell, is the first decimal
    that both Fraction ends of refine(bits) round to along its ladder."""
    roots = irrational_real_roots(p)
    x = grid_interval(roots[index % len(roots)], den, 0, 5)

    def rounded(bits):
        lo, hi = ends(x.refine(bits))
        s = _round_half_even_ratio(lo.numerator, lo.denominator, places)
        return s if s == _round_half_even_ratio(hi.numerator, hi.denominator, places) else None
    assert x.decimal(places) == refine_until(rounded, 4 * places + 8)


@settings(max_examples=150)
@given(p=IRREDUCIBLE_REAL, index=st.integers(0, 2), den=st.sampled_from((1, 3, 64)),
       below=st.integers(0, 20), above=st.integers(0, 20),
       calls=st.lists(st.tuples(st.integers(-1, 300), st.booleans()), min_size=1, max_size=8))
@example(p=PLASTIC, index=0, den=1, below=2, above=2,
         calls=[(b, False) for b in (0, 1, 2, 3, 7, 16, 33, 64, 128, 300)])   # ascending
@example(p=PLASTIC, index=0, den=1, below=2, above=2,
         calls=[(b, False) for b in (300, 128, 64, 33, 16, 7, 3, 2, 1, 0)])   # descending
@example(p=MonicIntPoly.cubic(0, -7, 7), index=2, den=3, below=5, above=9,
         calls=[(40, False), (40, False), (9, False), (90, True), (20, False), (200, False)])
def test_refine_from_the_finest_known_cell_matches_a_fresh_refine(p, index, den, below, above, calls):
    """Any sequence of refine(bits) calls on one number (ascending, descending,
    repeated, or moving on to the cell a call returned when the flag is set)
    returns at every step the cell that refine(bits) returns on a copy that
    has never been refined."""
    roots = irrational_real_roots(p)
    x = grid_interval(roots[index % len(roots)], den, below, above)
    for bits, descend in calls:
        r = x.refine(bits)
        assert r == AlgebraicNumber._narrowed(x.minpoly, x.interval).refine(bits)
        assert_revalidates(r)
        if descend:
            x = r


def test_refinement_history_is_outside_equality_and_hash():
    """A number refined to 300 bits equals, hashes and prints like an
    unrefined copy, so the fields caches keyed on numbers still hit."""
    p = MonicIntPoly.cubic(0, -7, 7)  # _alpha_matrix is keyed on the number and the bits
    plain = irrational_real_roots(p)[1]
    refined = irrational_real_roots(p)[1]
    refined.refine(300)
    assert vars(refined) != vars(plain)  # the refinement left its cell behind
    assert refined == plain and hash(refined) == hash(plain)
    assert repr(refined) == repr(plain) and refined.to_json() == plain.to_json()
    entry = fields._alpha_matrix(plain, 64)
    hits = fields._alpha_matrix.cache_info().hits
    assert fields._alpha_matrix(refined, 64) is entry
    assert fields._alpha_matrix.cache_info().hits == hits + 1


@settings(max_examples=200)
@given(p=IRREDUCIBLE_REAL, i=st.integers(0, 2), j=st.integers(0, 2),
       dens=st.tuples(st.sampled_from((1, 2, 3, 5, 64)), st.sampled_from((1, 2, 3, 5, 64))),
       widen=st.tuples(*[st.integers(0, 20)] * 4), bits=st.tuples(st.integers(0, 40), st.integers(0, 40)))
def test_same_number_sign_test_matches_sturm_count(p, i, j, dens, widen, bits):
    """same_number's one sign test across the intersection of two isolating
    intervals, against a Sturm count of that intersection."""
    roots = irrational_real_roots(p)
    a = grid_interval(roots[i % len(roots)], dens[0], widen[0], widen[1]).refine(bits[0])
    b = grid_interval(roots[j % len(roots)], dens[1], widen[2], widen[3]).refine(bits[1])
    (a_lo, a_hi), (b_lo, b_hi) = ends(a), ends(b)
    lo, hi = max(a_lo, b_lo), min(a_hi, b_hi)
    counted = lo < hi and count_roots_between(p, lo, hi) == 1
    assert same_number(a, b) == counted == (i % len(roots) == j % len(roots))


def _flat_values(x):
    """The values of x's fields and memo, with tuples opened one level."""
    return [v for value in vars(x).values()
            for v in (value if isinstance(value, tuple) else (value,))]


@settings(max_examples=200, deadline=None)
@given(p=IRREDUCIBLE_REAL, index=st.integers(0, 2), den=st.sampled_from((1, 2, 3, 6, 64)),
       below=st.integers(0, 20), above=st.integers(0, 20), bits=st.integers(0, 200),
       k=st.integers(-9, 9), scale=st.integers(2, 12))
@example(p=MonicIntPoly.quadratic(1, -1), index=1, den=2, below=0, above=0, bits=0, k=0,
         scale=2)   # (1/2, 1), as (2/4, 1) too
@example(p=MonicIntPoly.cubic(0, -7, 7), index=1, den=1, below=0, above=0, bits=30, k=-3,
         scale=6)
def test_int_cell_is_the_fraction_ends_in_lowest_terms(p, index, den, below, above, bits, k,
                                                       scale):
    """Every number's interval, from the validating constructor, refine, the
    closed-form isolation and the affine images, is the int cell of its
    Fraction ends in lowest terms: the same ends in unreduced forms build an
    equal number with an equal hash, to_json prints the Fraction ends, no
    field or memo holds a Fraction, and the validating constructor refuses
    the cell unreduced, reversed or over a denominator <= 0.  Each affine
    image's ends are the Fraction image of the number's."""
    roots = irrational_real_roots(p)
    x = grid_interval(roots[index % len(roots)], den, below, above)
    r = x.refine(bits)
    for y in (x, r, r.negated(), r.reflected(), x.plus_int(k), *roots):
        lo, hi = ends(y)
        left, right, d = y.interval
        assert d > 0 and gcd(left, right, d) == 1
        unreduced = (f"{lo.numerator * scale}/{lo.denominator * scale}",
                     Fraction(hi.numerator * scale, hi.denominator * scale))
        for twin in (AlgebraicNumber.real_root(y.minpoly, lo, hi),
                     AlgebraicNumber.real_root(y.minpoly, *unreduced)):
            assert twin == y and hash(twin) == hash(y)
        assert y.to_json()["interval"] == interval_json(y)
        assert not any(isinstance(v, Fraction) for v in _flat_values(y))
        for bad in ((left * scale, right * scale, d * scale), (right, left, d), (left, right, 0),
                    (-left, -right, -d)):
            with pytest.raises(ValueError):
                AlgebraicNumber(y.minpoly, bad)
    lo, hi = ends(r)
    for image, fraction_image in ((r.negated(), (-hi, -lo)), (r.plus_int(k), (lo + k, hi + k)),
                                  (r.reflected(), (1 - hi, 1 - lo))):
        assert ends(image) == fraction_image


def test_enclosure_brackets_value():
    left, right, den = SQRT2.cell(64)
    assert 0 <= left < right
    assert left * left < 2 * den * den < right * right
    assert (right - left) << 64 <= den


def test_cmp_rational_exact_signs():
    assert SQRT2.cmp_rational(Fraction(1)) == 1
    assert SQRT2.cmp_rational(Fraction(2)) == -1
    # very close rational: 665857/470832 > sqrt(2) by about 1e-12
    assert SQRT2.cmp_rational(Fraction(665857, 470832)) == -1
    assert SQRT2.cmp_rational(Fraction(470832, 332929)) == 1
    # the half of the interval that the answer names passes validation, the
    # other half does not
    for q in (Fraction(665857, 470832), Fraction(470832, 332929), Fraction(3, 2), Fraction(5, 4)):
        lo, hi = ends(SQRT2)
        below, above = (lo, q), (q, hi)
        named, other = (above, below) if SQRT2.cmp_rational(q) > 0 else (below, above)
        AlgebraicNumber.real_root(SQRT2.minpoly, *named)
        with pytest.raises(ValueError):
            AlgebraicNumber.real_root(SQRT2.minpoly, *other)


def test_less_than_for_close_roots():
    r1, r2 = irrational_real_roots(MonicIntPoly.quadratic(-2, -1))  # 1 +- sqrt(2)
    assert less_than(r1, r2)
    assert not less_than(r2, r1)


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


def test_complex_affine_images_match_the_validating_constructor():
    """negated and plus_int build a complex image trusted (module
    docstring): x -> -x + k moves the upper root to the lower half plane
    and x -> x + k keeps it.  Checked against complex_root for every 2i
    element with n <= 60 and k in -3..3."""
    for n in range(1, 61):
        for a in build_set(SetSpec("2i", (n,))).numbers():
            lower = AlgebraicNumber.complex_root(a.minpoly.map_root(-1, 0), upper=False)
            assert a.negated() == lower
            for k in range(-3, 4):
                for image, eps in ((a.plus_int(k), 1), (a.negated().plus_int(k), -1)):
                    twin = AlgebraicNumber.complex_root(a.minpoly.map_root(eps, k), upper=eps > 0)
                    assert image == twin and hash(image) == hash(twin)
                    assert image.to_json() == twin.to_json()


def test_decimal_round_half_even_certified():
    # 1/4 boundary case through an algebraic detour: sqrt(9/16) is rational,
    # so exercise the rounding helper directly instead
    assert _round_half_even_ratio(1, 8, 2) == "0.12"
    assert _round_half_even_ratio(3, 8, 2) == "0.38"
    assert _round_half_even_ratio(-1, 8, 2) == "-0.12"
    assert _round_half_even_ratio(5, 1, 0) == "5"


@given(
    num=st.integers(min_value=-10**6, max_value=10**6),
    den=st.integers(min_value=1, max_value=10**6),
    places=st.integers(min_value=0, max_value=8),
    common=st.integers(min_value=1, max_value=10**4),
)
def test_round_half_even_matches_decimal_module(num, den, places, common):
    x = Fraction(num, den)
    ours = _round_half_even_ratio(x.numerator, x.denominator, places)
    ctx = decimal.Context(prec=60, rounding=decimal.ROUND_HALF_EVEN)
    ref = ctx.divide(decimal.Decimal(num), decimal.Decimal(den))
    quantum = decimal.Decimal(1).scaleb(-places)
    ref = ref.quantize(quantum, rounding=decimal.ROUND_HALF_EVEN)
    assert decimal.Decimal(ours) == ref
    # the integer path, which decimal() takes on cells not in lowest terms
    assert _round_half_even_ratio(num * common, den * common, places) == ours


def test_negative_places_are_refused():
    """The one renderer refuses negative places, and the certified decimal
    of a number or of any other cell reaches it through the ladder."""
    with pytest.raises(ValueError, match="places"):
        _round_half_even_ratio(2, 6, -1)
    with pytest.raises(ValueError, match="places"):
        SQRT2.decimal(-1)
    with pytest.raises(ValueError, match="places"):
        irrational_real_roots(PLASTIC)[0].decimal(-3)
    with pytest.raises(ValueError, match="places"):
        _cell_decimal(partial(half_sqrt_cell, 2), -2)


def test_same_number_distinguishes_conjugates():
    r1, r2 = irrational_real_roots(MonicIntPoly.quadratic(0, -2))
    assert not same_number(r1, r2)
    assert same_number(r1, r1.refine(200))


def test_isolate_handles_reducible_input():
    # (x - 2)(x^2 + 2x - 2): integer root 2, irrational -1 +- sqrt(3)
    p = MonicIntPoly.cubic(0, -6, 4)
    assert p.integer_roots() == [2]
    irr = irrational_real_roots(p)
    assert [a.decimal(5) for a in irr] == ["-2.73205", "0.73205"]
    assert count_real_roots(p) == 3


def test_isolate_counts_complex_pairs():
    (root,) = irrational_real_roots(PLASTIC)
    assert root.decimal(5) == "1.32472"
    assert count_real_roots(PLASTIC) == 1
    # the other two roots, a complex pair, read off the real root
    im = _cell_decimal(lambda bits: (*fields._conjugates(root, bits)[1][1], 1 << bits), 5)
    assert im == "0.56228"


def test_isolate_rejects_repeated_roots():
    with pytest.raises(ZeroDiscriminant):
        irrational_real_roots(MonicIntPoly.quadratic(-2, 1))  # (x-1)^2


def test_totally_real_cubic_roots_ascending():
    roots = irrational_real_roots(MonicIntPoly.cubic(0, -3, 1))
    assert [a.decimal(5) for a in roots] == ["-1.87939", "0.34730", "1.53209"]
    for x, y in zip(roots, roots[1:]):
        assert less_than(x, y)


CUBIC_COEFF = st.integers(min_value=-15, max_value=15)


@given(b=CUBIC_COEFF, c=CUBIC_COEFF, d=CUBIC_COEFF)
# roots near -0.0128 and 0.0130 flank the critical point near 1/12000, whose
# first Rolle enclosure [0, 1/48] holds the larger root: p > 0 at 1/48
@example(b=6000, c=-1, d=-1)
def test_isolation_intervals_each_contain_one_sign_change(b, c, d):
    p = MonicIntPoly.cubic(b, c, d)
    if p.discriminant() == 0:
        return
    irr = irrational_real_roots(p)
    assert len(irr) == count_real_roots(p) - len(p.integer_roots())
    for x, y in zip(irr, irr[1:]):
        assert ends(x)[1] <= ends(y)[0]
    for a in irr:
        lo, hi = ends(a)
        assert lo < hi
        assert count_roots_between(a.minpoly, lo, hi) == 1
        for r in (a, a.refine(40), a.negated(), a.plus_int(-4)):
            assert_revalidates(r)


@given(b=CUBIC_COEFF, c=CUBIC_COEFF, d=CUBIC_COEFF)
def test_irrational_roots_are_never_rational(b, c, d):
    p = MonicIntPoly.cubic(b, c, d)
    if p.discriminant() == 0:
        return
    for a in irrational_real_roots(p):
        assert a.minpoly.is_irreducible()
        assert a.cmp_rational(sum(ends(a)) / 2) in (-1, 1)


@pytest.mark.parametrize("half_plane", [5, -5, 2, -2])
def test_constructor_refuses_a_half_plane_other_than_plus_or_minus_one(half_plane):
    """A tag outside {-1, 0, +1} would print "upper" or "lower" and yet equal
    neither root of x^2 + 1, and negated() would scale it."""
    p = MonicIntPoly.quadratic(0, 1)
    with pytest.raises(ValueError, match="half_plane"):
        AlgebraicNumber(p, None, half_plane)
    with pytest.raises(ValueError, match="half_plane"):
        AlgebraicNumber(SQRT2.minpoly, SQRT2.interval, half_plane)
    assert AlgebraicNumber(p, None, 1) == AlgebraicNumber.complex_root(p)
    assert AlgebraicNumber(p, None, -1) == AlgebraicNumber.complex_root(p, upper=False)


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


def test_affine_value_cell_and_decimal():
    v = AffineValue(SQRT2, Fraction(1, 2), Fraction(3))
    assert _cell_decimal(v.cell, 5) == "3.70711"
    left, right, den = v.cell(40)
    assert Fraction(37, 10) < Fraction(left, den) < Fraction(right, den) < Fraction(38, 10)
    assert (right - left) << 40 <= den
    w = AffineValue(SQRT2, Fraction(-3, 2), Fraction(1, 3))   # 1/3 - 3 sqrt(2) / 2
    assert _cell_decimal(w.cell, 5) == "-1.78799"


@settings(max_examples=150)
@given(p=IRREDUCIBLE_REAL, index=st.integers(0, 2),
       scale=st.fractions(min_value=-40, max_value=40, max_denominator=12).filter(bool),
       offset=st.fractions(min_value=-9, max_value=9, max_denominator=12), bits=st.integers(0, 200))
@example(p=MonicIntPoly.quadratic(0, -2), index=1, scale=Fraction(-1, 2), offset=Fraction(2),
         bits=40)
@example(p=PLASTIC, index=0, scale=Fraction(-7, 3), offset=Fraction(1, 5), bits=0)
def test_affine_value_cell_is_the_exact_image_of_the_base_cell(p, index, scale, offset, bits):
    """AffineValue.cell is the image of the base's cell at bits plus the bit
    length of the scale's numerator under x -> scale x + offset, ends swapped
    for a negative scale; it holds the value and is at most 2**-bits wide."""
    roots = irrational_real_roots(p)
    v = AffineValue(roots[index % len(roots)], scale, offset)
    left, right, den = v.cell(bits)
    assert den > 0 and left < right
    lo, hi = ends(v.base.refine(bits + scale.numerator.bit_length()))
    image = (lo * scale + offset, hi * scale + offset)
    assert (Fraction(left, den), Fraction(right, den)) == (image if scale > 0 else image[::-1])
    assert (right - left) << bits <= den


def test_value_cell_uniform_access():
    assert value_cell(Fraction(1, 3), 10) == (1, 1, 3)
    assert value_cell(Fraction(-6, 4), 10) == (-3, -3, 2)
    assert value_cell(4, 10) == (4, 4, 1)
    assert value_cell(SQRT2, 20) == SQRT2.cell(20)
    assert value_cell(partial(half_sqrt_cell, 7), 20) == half_sqrt_cell(7, 20)


@given(radicand=st.integers(0, 10**6), bits=st.integers(0, 200))
@example(radicand=0, bits=0)
@example(radicand=16, bits=3)
def test_half_sqrt_cell_holds_half_the_root(radicand, bits):
    """half_sqrt_cell(R, bits) is [s, s + 1] / 2^(bits + 1), 2^-(bits + 1)
    wide, with s = floor(sqrt(R) 2^bits): it holds sqrt(R) / 2, at its left
    end exactly when R 4^bits is a square."""
    left, right, den = half_sqrt_cell(radicand, bits)
    assert right == left + 1 and den == 2 << bits
    scaled = radicand << 2 * bits      # (sqrt(R) 2^bits)^2
    assert left * left <= scaled < right * right
    assert (left * left == scaled) == (isqrt(radicand) ** 2 == radicand)


def test_cell_decimal_of_a_cell_that_never_narrows_is_undecided():
    """A cell whose ends never round alike gives no decimal: the renderer's
    ladder runs to its cap."""
    with pytest.raises(PrecisionExhausted):
        _cell_decimal(lambda bits: (0, 1, 1), 5)
