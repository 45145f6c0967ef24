"""Unit tests for gap statistics, discrepancy, and half-interval counts."""

import hashlib
import json
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from algseeds.algebraic import _cell_decimal, refine_until, same_number
from algseeds.families import SetSpec, build_set
from algseeds.fields import CUBIC_RANGE_PARAMS
from algseeds.uniformity import (
    TooFewElements,
    _check_bound,
    discrepancy,
    half_split,
    im_fractional,
    instance_values,
    uniformity_report,
)
from oracles import AffineValue, ends, sqrt_of


def _over(pair, den):
    """An int pair of the report as the Fractions it names over den."""
    return Fraction(pair[0], den), Fraction(pair[1], den)


def _json_iv(iv):
    """The (lo, hi) Fractions of an interval of the report's JSON."""
    return tuple(Fraction(int(num), int(den)) for num, den in (iv["lo"], iv["hi"]))


def test_two_element_gap_and_deviation():
    report = uniformity_report(build_set(SetSpec("2r", (2,))))
    assert report.n == 2
    assert len(report.gaps) == 1
    # the gaps over den, max_dev over n den (uniformity docstring)
    g_lo, g_hi = _over(report.gaps[0], report.den)
    # gap is sqrt(3) - sqrt(2) = 0.31783...
    assert Fraction(31783, 100000) < g_lo < g_hi < Fraction(31784, 100000)
    d_lo, d_hi = _over(report.max_dev, 2 * report.den)
    assert Fraction(18216, 100000) < d_lo < d_hi < Fraction(18217, 100000)
    c_lo, c_hi = _json_iv(report.to_json()["constant"])
    assert c_lo == 4 * d_lo and c_hi == 4 * d_hi


def test_singleton_report_still_carries_discrepancy_and_halves():
    report = uniformity_report(build_set(SetSpec("2r", (1,))))
    assert report.n == 1
    assert report.gaps == ()
    assert report.max_dev is None
    assert report.half_counts == (0, 1)  # 0.61803 sits above 1/2
    lo, hi = _over(report.discrepancy, report.den)   # over n den, n = 1
    assert lo <= 1 <= hi  # single-point sets have extreme discrepancy exactly 1


def test_half_split_anchors():
    assert half_split(build_set(SetSpec("2r", (3,)))) == (1, 2)
    assert half_split(build_set(SetSpec("2r", (-3,)))) == (1, 0)
    assert half_split(build_set(SetSpec("2r", (4,)))) == (2, 2)
    assert half_split(build_set(SetSpec("2i", (3,)))) == (1, 2)
    assert half_split(build_set(SetSpec("2i", (4,)))) == (2, 2)


def test_discrepancy_exact_on_rationals():
    assert discrepancy([Fraction(1, 4), Fraction(3, 4)]) == (Fraction(1, 2), Fraction(1, 2))
    centers = [Fraction(2 * i - 1, 14) for i in range(1, 8)]
    assert discrepancy(centers) == (Fraction(1, 7), Fraction(1, 7))
    assert discrepancy([Fraction(1, 3)]) == (Fraction(1), Fraction(1))


def test_discrepancy_empty_input():
    with pytest.raises(TooFewElements):
        discrepancy([])


@given(
    st.lists(
        st.fractions(min_value=Fraction(1, 1000), max_value=Fraction(999, 1000)),
        min_size=1,
        max_size=6,
        unique=True,
    )
)
def test_discrepancy_range_on_rational_sets(values):
    values = sorted(values)
    n = len(values)
    lo, hi = discrepancy(values)
    assert lo == hi  # exact on rational input
    assert Fraction(1, n) <= lo <= 1


def test_imaginary_fractional_parts_odd():
    vals = instance_values(build_set(SetSpec("2i", (5,))))
    decs = [_cell_decimal(v, 5) for v in vals]
    assert decs == ["0.17945", "0.39792", "0.59808", "0.78388", "0.95804"]


def test_imaginary_even_matches_real_family_shift():
    """For even n the imaginary parts are sqrt(c); their fractional parts
    are the real quadratic instance 2r(n), number for number and in order,
    and each is sqrt(c) - n/2, with sqrt(c) built by the validating
    constructor."""
    for n in range(2, 301, 2):
        spec = SetSpec("2i", (n,))
        imag = im_fractional(build_set(spec))
        assert imag == build_set(SetSpec("2r", (n,))).numbers()
        for c, u in zip(spec.free_coeffs(), imag):
            assert same_number(u.plus_int(n // 2), sqrt_of(c))


def _odd_twin(c: int) -> AffineValue:
    """The slow twin of the odd 2i value for c: sqrt(4c - 1), built by the
    validating constructor, under x -> x/2 - isqrt(4c - 1) // 2."""
    return AffineValue(sqrt_of(4 * c - 1), Fraction(1, 2), Fraction(-(isqrt(4 * c - 1) // 2)))


def _twin_values(inst) -> list:
    """instance_values, with each odd 2i value as its slow twin."""
    spec = inst.spec
    if spec.family == "2i" and spec.params[0] % 2:
        return [_odd_twin(e.free_coeff) for e in inst.elements]
    return instance_values(inst)


def test_imaginary_odd_base_is_the_validated_square_root():
    """For odd n each value's cell at 64 bits holds
    sqrt(4c - 1)/2 - floor(sqrt(4c - 1)/2) of the validated sqrt(4c - 1),
    by exact comparisons of it with the cell's mapped ends, and lies inside
    (0, 1)."""
    for n in range(1, 302, 2):
        spec = SetSpec("2i", (n,))
        for c, v in zip(spec.free_coeffs(), im_fractional(build_set(spec))):
            twin = _odd_twin(c)
            left, right, den = v(64)
            assert 0 < left < right < den
            # x/2 + offset in [left, right] / den means x in 2 ([left, right] / den - offset)
            ends = (2 * (Fraction(end, den) - twin.offset) for end in (left, right))
            assert [twin.base.cmp_rational(end) for end in ends] == [1, -1]


def test_imaginary_odd_cells_are_the_affine_images():
    """The isqrt cells of the odd 2i values are, int for int, the cells of
    their slow twins, the AffineValue images of the validated
    sqrt(4c - 1), at every odd n <= 301 and five precisions."""
    for n in range(1, 302, 2):
        spec = SetSpec("2i", (n,))
        for c, v in zip(spec.free_coeffs(), im_fractional(build_set(spec))):
            twin = _odd_twin(c)
            for bits in (1, 8, 33, 64, 129):
                assert v(bits) == twin.cell(bits)


def test_im_fractional_rejects_real_families():
    with pytest.raises(ValueError):
        im_fractional(build_set(SetSpec("2r", (4,))))


def test_odd_imaginary_bound_check():
    report = uniformity_report(build_set(SetSpec("2i", (5,))))
    assert report.bound_check is not None
    assert report.bound_check.satisfied
    assert "1/(5*4)" in report.bound_check.description


def test_totally_real_gap_window_check():
    report = uniformity_report(build_set(SetSpec("3tr", (-1, -10))))
    assert report.n == 9
    assert report.bound_check is not None
    assert report.bound_check.satisfied


def test_no_bound_check_for_other_specs():
    assert uniformity_report(build_set(SetSpec("2r", (4,)))).bound_check is None
    assert uniformity_report(build_set(SetSpec("2i", (4,)))).bound_check is None
    assert uniformity_report(build_set(SetSpec("3tr", (0, -6)))).bound_check is None


@given(
    spec=st.one_of(
        st.integers(min_value=2, max_value=12).map(lambda n: SetSpec("2r", (n,))),
        st.integers(min_value=2, max_value=12).map(lambda n: SetSpec("2i", (n,))),
        st.integers(min_value=3, max_value=12).map(lambda n: SetSpec("3ntr", (0, n))),
        st.integers(min_value=-12, max_value=-5).map(lambda c: SetSpec("3tr", (0, c))),
    )
)
def test_half_counts_near_balance(spec):
    below, above = half_split(build_set(spec))
    assert below + above == spec.cardinality()
    assert abs(below - above) <= 1


@given(n=st.integers(min_value=2, max_value=10))
def test_gaps_tighten_with_precision(n):
    inst = build_set(SetSpec("2r", (n,)))
    coarse = uniformity_report(inst, bits=16)
    fine = uniformity_report(inst, bits=128)
    for c_gap, f_gap in zip(coarse.gaps, fine.gaps):
        (c_lo, c_hi), (f_lo, f_hi) = _over(c_gap, coarse.den), _over(f_gap, fine.den)
        assert c_lo <= f_lo <= f_hi <= c_hi
        assert f_hi - f_lo <= Fraction(1, 2**120)


# SHA-256 of the reports of the test below, one JSON line each
PAPER_RANGE_REPORTS_SHA256 = "6390c51f3e1551a9401ad2cd3e257f7f646b5e648875c5537c036221f2b09dc0"


def test_reports_over_the_paper_range_are_pinned():
    """The uniformity JSON stays byte-identical on all 1,070 instances of
    the default ``sweep`` range: |n| <= 200 for 2r and 2i, |n| <= 60 and
    m in CUBIC_RANGE_PARAMS for 3ntr and 3tr, at the default 64 bits."""
    specs = [SetSpec("2r", (n,)) for n in [*range(1, 201), *range(-3, -201, -1)]]
    specs += [SetSpec("2i", (n,)) for n in range(1, 201)]
    specs += [SetSpec("3ntr", (m, n)) for m in CUBIC_RANGE_PARAMS for n in range(1 - m, 61)]
    specs += [SetSpec("3tr", (m, n)) for m in CUBIC_RANGE_PARAMS for n in range(-m - 3, -61, -1)]
    assert len(specs) == 1070
    text = "\n".join(json.dumps(uniformity_report(build_set(spec)).to_json(), sort_keys=True)
                     for spec in specs)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == PAPER_RANGE_REPORTS_SHA256


def test_report_json_shape():
    js = uniformity_report(build_set(SetSpec("2r", (2,)))).to_json()
    assert js["n"] == 2
    assert len(js["gaps"]) == 1
    assert js["half_counts"] == [1, 1]
    assert set(js["max_dev"]) == {"lo", "hi", "decimal"}
    assert js["bound_check"] is None


# The definition, on Fraction ends: the ends of refine(bits) for a number and
# the exact image of its base's ends for an AffineValue, then interval
# arithmetic on Fractions.
def _fraction_ends(v, bits):
    if isinstance(v, AffineValue):
        lo, hi = ends(v.base.refine(bits + v.scale.numerator.bit_length()))
        return tuple(sorted((lo * v.scale + v.offset, hi * v.scale + v.offset)))
    if isinstance(v, (int, Fraction)):
        return Fraction(v), Fraction(v)
    return ends(v.refine(bits))


def _defined_gaps(values, bits):
    ends = [_fraction_ends(v, bits) for v in values]
    return [(b[0] - a[1], b[1] - a[0]) for a, b in zip(ends, ends[1:])]


def _defined_max_dev(gaps, n):
    inv = Fraction(1, n)
    lo = max([Fraction(0)] + [max(g_lo - inv, inv - g_hi) for g_lo, g_hi in gaps])
    hi = max([Fraction(0)] + [max(g_hi - inv, inv - g_lo) for g_lo, g_hi in gaps])
    return lo, hi


def _defined_discrepancy(values, bits):
    n = len(values)
    ends = [_fraction_ends(v, bits) for v in values]
    t_lo = [Fraction(i, n) - hi for i, (_, hi) in enumerate(ends, 1)]
    t_hi = [Fraction(i, n) - lo for i, (lo, _) in enumerate(ends, 1)]
    return Fraction(1, n) + max(t_lo) - min(t_hi), Fraction(1, n) + max(t_hi) - min(t_lo)


def _defined_bound_check(spec, values, bits):
    family, params = spec.family, spec.params
    if family == "2i" and params[0] % 2 and params[0] >= 3:
        n = params[0]
        bound = Fraction(1, n * (n - 1))

        def below(bits):
            lo, hi = _defined_max_dev(_defined_gaps(values, bits), n)
            return True if hi < bound else False if lo >= bound else None
        return refine_until(below, bits)
    if family == "3tr" and params[0] == -1:
        lower, upper = 1 / (Fraction(-params[1]) + Fraction(1, 3)), Fraction(1, -params[1] - 1)

        def inside(bits):
            gaps = _defined_gaps(values, bits)
            if all(lower <= g_lo and g_hi < upper for g_lo, g_hi in gaps):
                return True
            if any(g_hi < lower or upper <= g_lo for g_lo, g_hi in gaps):
                return False
            return None
        return refine_until(inside, bits)
    return None


CUBIC_M = st.integers(-3, 0)
DRAWN_SPECS = st.one_of(
    st.integers(-60, 60).filter(lambda n: n >= 1 or n <= -3).map(lambda n: SetSpec("2r", (n,))),
    st.integers(1, 60).map(lambda n: SetSpec("2i", (n,))),
    st.tuples(CUBIC_M, st.integers(1, 40)).filter(lambda mn: mn[0] ** 2 <= 3 * mn[1] and sum(mn) >= 1)
    .map(lambda mn: SetSpec("3ntr", mn)),
    st.tuples(CUBIC_M, st.integers(-40, 0)).filter(lambda mn: mn[1] <= -mn[0] - 3)
    .map(lambda mn: SetSpec("3tr", mn)),
    st.integers(-40, -2).map(lambda c: SetSpec("3tr", (-1, c))),
)


@settings(max_examples=80, deadline=None)
@given(spec=DRAWN_SPECS, bits=st.sampled_from((16, 32, 64, 200)))
@example(spec=SetSpec("2i", (45,)), bits=16)        # isqrt cells, odd bound check
@example(spec=SetSpec("3tr", (-1, -41)), bits=32)   # the window check
@example(spec=SetSpec("2r", (1,)), bits=64)         # one element: no gaps
def test_report_matches_the_definition_on_fraction_ends(spec, bits):
    """Gaps, max_dev, constant, discrepancy and bound check of the report,
    computed on int cells over one denominator, and the ends its JSON
    writes, equal the definition computed on the Fraction ends of
    refine(bits) and of the exact images of the odd 2i values' slow
    twins."""
    inst = build_set(spec)
    values = _twin_values(inst)
    n = len(values)
    report = uniformity_report(inst, bits)
    js = report.to_json()
    den = report.den
    assert report.n == n
    disc = _defined_discrepancy(values, bits)
    assert _over(report.discrepancy, n * den) == disc == _json_iv(js["discrepancy"])
    gaps = _defined_gaps(values, bits)
    assert [_over(g, den) for g in report.gaps] == gaps == [_json_iv(g) for g in js["gaps"]]
    if n < 2:
        assert report.max_dev is report.bound_check is js["constant"] is None
        return
    dev = _defined_max_dev(gaps, n)
    assert _over(report.max_dev, n * den) == dev == _json_iv(js["max_dev"])
    assert _json_iv(js["constant"]) == (dev[0] * n * n, dev[1] * n * n)
    expected = _defined_bound_check(spec, values, bits)
    assert (report.bound_check.satisfied if report.bound_check else None) is expected


def _below_half_by_cmp_rational(v) -> bool:
    """The slow path: one exact comparison of the value with 1/2.  A 2i
    value of odd n is scale x + offset with scale 1/2 > 0, below 1/2 exactly
    when x < (1/2 - offset) / scale."""
    half = Fraction(1, 2)
    if isinstance(v, AffineValue):
        assert v.scale > 0
        return v.base.cmp_rational((half - v.offset) / v.scale) < 0
    return v.cmp_rational(half) < 0


@settings(max_examples=150, deadline=None)
@given(spec=DRAWN_SPECS)
@example(spec=SetSpec("3tr", (-3, -9)))   # one reducible element, d = 2
@example(spec=SetSpec("3tr", (-2, -20)))  # one reducible element, d = 16
@example(spec=SetSpec("2i", (61,)))       # odd: isqrt(4c - 1)
@example(spec=SetSpec("2i", (60,)))       # even: 4c < (n + 1)^2
@example(spec=SetSpec("2r", (-3,)))       # one element, with c > 0
def test_half_counts_match_per_value_comparison(spec):
    """The half counts read off the spec's integers (uniformity docstring)
    equal per-value comparisons with 1/2, in half_split and in the report."""
    inst = build_set(spec)
    values = _twin_values(inst)
    below = sum(_below_half_by_cmp_rational(v) for v in values)
    assert half_split(inst) == (below, len(values) - below)
    assert uniformity_report(inst, 16).half_counts == (below, len(values) - below)


RATIONAL_LISTS = st.lists(
    st.one_of(st.fractions(min_value=-1, max_value=2, max_denominator=10**6),
              st.integers(-2, 3)),
    min_size=1, max_size=12, unique=True).map(sorted)


@given(values=RATIONAL_LISTS, bits=st.sampled_from((1, 16, 64)))
@example(values=[Fraction(1, 3), Fraction(1, 2), Fraction(5, 7)], bits=1)
def test_discrepancy_on_mixed_denominators_is_the_formula(values, bits):
    """On rationals of mixed denominators, ints among them, discrepancy is
    exactly 1/N + max(i/N - x_i) - min(i/N - x_i)."""
    n = len(values)
    ts = [Fraction(i, n) - Fraction(x) for i, x in enumerate(values, 1)]
    exact = Fraction(1, n) + max(ts) - min(ts)
    assert discrepancy(values, bits) == (exact, exact)


def _rational_set(start, gaps):
    values = [Fraction(start)]
    for g in gaps:
        values.append(values[-1] + g)
    return values


@pytest.mark.parametrize("c", (-2, -5, -10, -41))
def test_window_check_on_exact_gaps_at_its_ends(c):
    """Rational values have exact gaps, so the window check decides at its
    first rung: a gap of exactly 3/(1 - 3c) is inside [3/(1 - 3c),
    1/(-c - 1)), a gap of exactly 1/(-c - 1) is not, and neither is one just
    below the lower end."""
    spec = SetSpec("3tr", (-1, c))
    lower, upper = Fraction(3, 1 - 3 * c), Fraction(1, -c - 1)
    middle = (lower + upper) / 2
    for gaps, inside in (([lower, middle], True), ([middle, lower, lower], True),
                         ([middle, upper], False), ([lower - Fraction(1, 10**9)], False)):
        values = _rational_set(Fraction(1, 10**6), gaps)
        check = _check_bound(spec, values, 32)
        assert check.satisfied is inside
        assert check.satisfied is _defined_bound_check(spec, values, 32)


@pytest.mark.parametrize("n", (3, 5, 45))
def test_odd_bound_check_on_exact_gaps_at_its_end(n):
    """max |gap - 1/n| of exactly 1/(n (n - 1)) fails the strict bound, on
    either side of 1/n; one just inside passes."""
    spec = SetSpec("2i", (n,))
    bound = Fraction(1, n * (n - 1))
    step = Fraction(1, n)
    for gaps, below in (([step + bound], False), ([step, step - bound], False),
                        ([step + bound - Fraction(1, 10**9), step], True)):
        values = _rational_set(0, gaps)
        assert _check_bound(spec, values, 32).satisfied is below

