"""Unit tests for gap statistics, discrepancy, and half-interval counts."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from algseeds.algebraic import same_number
from algseeds.families import SetSpec, build_set
from algseeds.uniformity import (
    TooFewElements,
    discrepancy,
    half_split,
    im_fractional,
    instance_values,
    uniformity_report,
)


def _dec5(iv):
    lo, hi = iv
    return (lo + hi) / 2


def test_two_element_gap_and_deviation():
    report = uniformity_report(build_set(SetSpec("2r", (2,))))
    assert report.n == 2
    assert len(report.gaps) == 1
    g_lo, g_hi = report.gaps[0]
    # gap is sqrt(3) - sqrt(2) = 0.31783...
    assert Fraction(31783, 100000) < g_lo < g_hi < Fraction(31784, 100000)
    d_lo, d_hi = report.max_dev
    assert Fraction(18216, 100000) < d_lo < d_hi < Fraction(18217, 100000)
    c_lo, c_hi = report.constant
    assert c_lo == 4 * d_lo and c_hi == 4 * d_hi


def test_singleton_report_still_carries_discrepancy_and_halves():
    report = uniformity_report(build_set(SetSpec("2r", (1,))))
    assert report.n == 1
    assert report.gaps == ()
    assert report.max_dev is None
    assert report.half_counts == (0, 1)  # 0.61803 sits above 1/2
    lo, hi = report.discrepancy
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
    decs = [v.decimal(5) for v in vals]
    assert decs == ["0.17945", "0.39792", "0.59808", "0.78388", "0.95804"]


def test_imaginary_even_matches_real_family_shift():
    """For even n the imaginary parts are sqrt(c); their fractional parts
    reproduce the real quadratic instance exactly."""
    imag = im_fractional(build_set(SetSpec("2i", (4,))))
    real = build_set(SetSpec("2r", (4,))).numbers()
    assert len(imag) == len(real)
    for u, v in zip(imag, real):
        assert same_number(u, v)


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
    for (c_lo, c_hi), (f_lo, f_hi) in zip(coarse.gaps, fine.gaps):
        assert c_lo <= f_lo <= f_hi <= c_hi
        assert f_hi - f_lo <= Fraction(1, 2**120)


def test_report_json_shape():
    js = uniformity_report(build_set(SetSpec("2r", (2,)))).to_json()
    assert js["n"] == 2
    assert len(js["gaps"]) == 1
    assert js["half_counts"] == [1, 1]
    assert set(js["max_dev"]) == {"lo", "hi", "decimal"}
    assert js["bound_check"] is None
