"""Unit tests for binary expansions and the mirror-exclusion check."""

from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from algseeds.bits import (
    BitStream,
    NotInUnitInterval,
    binary_expansion,
    bit_stats,
    complement_check,
)
from algseeds.families import SetSpec, bc_root, build_set
from oracles import sqrt_of, stream_fraction

GOLDEN = bc_root(1, -1, 1)        # (sqrt(5) - 1)/2 = 0.61803
SQRT2_FRAC = bc_root(2, -1, 1)    # sqrt(2) - 1 = 0.41421


def golden_bit(i: int) -> int:
    """i-th binary digit of (sqrt(5)-1)/2 via exact integer square roots:
    floor(2^i * x) = (isqrt(5 * 4^i) - 2^i) // 2."""
    return ((isqrt(5 * 4**i) - 2**i) // 2) & 1


def test_golden_eight_bits():
    s = binary_expansion(GOLDEN, 8)
    assert s.as_text() == "10011110"
    assert s.as_hex() == "9e"
    assert s.length == 8


def test_sqrt2_eight_bits():
    s = binary_expansion(SQRT2_FRAC, 8)
    assert s.as_text() == "01101010"
    assert s.as_hex() == "6a"


def test_golden_matches_digit_oracle():
    s = binary_expansion(GOLDEN, 48)
    assert list(s.bits) == [golden_bit(i) for i in range(1, 49)]


@given(short=st.integers(min_value=1, max_value=30), extra=st.integers(min_value=1, max_value=30))
def test_prefix_stability(short, extra):
    a = binary_expansion(SQRT2_FRAC, short)
    b = binary_expansion(SQRT2_FRAC, short + extra)
    assert b.bits[:short] == a.bits


def test_fraction_approximates_source():
    s = binary_expansion(GOLDEN, 20)
    f = stream_fraction(s)
    assert GOLDEN.cmp_rational(f) == 1                          # truncation is below
    assert GOLDEN.cmp_rational(f + Fraction(1, 1 << 20)) == -1  # within one cell


def test_input_validation():
    with pytest.raises(NotInUnitInterval):
        binary_expansion(sqrt_of(2), 8)
    with pytest.raises(NotInUnitInterval):
        binary_expansion(bc_root(0, 1, 1), 8)  # imaginary
    with pytest.raises(ValueError):
        binary_expansion(GOLDEN, 0)


def test_complement_duality_of_mirror_streams():
    """Bits of 1 - alpha are the bitwise complement of the bits of alpha."""
    for a in (GOLDEN, SQRT2_FRAC):
        s = binary_expansion(a, 32)
        mirror = binary_expansion(a.reflected(), 32)
        assert mirror.bits == s.complemented()


def test_bit_stats_anchor():
    s = binary_expansion(GOLDEN, 8)
    stats = bit_stats(s)
    assert (stats.ones, stats.zeros) == (5, 3)
    assert stats.longest_run == 4
    assert stats.runs_count == 4
    assert stats.to_json() == {"ones": 5, "zeros": 3, "longest_run": 4, "runs_count": 4}


@given(n=st.integers(min_value=2, max_value=10), length=st.integers(min_value=4, max_value=40))
def test_stats_are_consistent(n, length):
    inst = build_set(SetSpec("2r", (n,)))
    s = binary_expansion(inst.elements[0], length)
    stats = bit_stats(s)
    assert stats.ones + stats.zeros == length
    assert 1 <= stats.runs_count <= length
    assert stats.longest_run <= length


def test_stream_value_matches_digit_oracle():
    """A stream holds the integer its digits spell; bits, text, hex and
    fraction are read off it with the leading zeros kept."""
    s = binary_expansion(SQRT2_FRAC, 12)
    assert (s.value, s.length) == (isqrt(2 * 4**12) - 2**12, 12)   # floor(2^12 (sqrt 2 - 1))
    assert s.as_text() == "011010100000"
    assert s.bits == tuple(int(ch) for ch in s.as_text())
    assert s.as_hex() == "6a0"
    assert stream_fraction(s) == Fraction(s.value, 1 << 12)
    assert BitStream(SQRT2_FRAC, 1, 6).as_text() == "000001"


def test_stream_refuses_an_empty_length_and_a_value_that_does_not_fit():
    """length 0 would render "0"; a value outside [0, 2^length) spells more
    digits than length, or none."""
    for value, length in ((0, 0), (0, -3), (64, 6), (-1, 6), (1, 0)):
        with pytest.raises(ValueError):
            BitStream(GOLDEN, value, length)
    assert BitStream(GOLDEN, 63, 6).as_text() == "111111"
    assert BitStream(GOLDEN, 0, 1).as_text() == "0"


@given(value=st.integers(min_value=0), length=st.integers(min_value=1, max_value=64))
def test_bit_stats_match_a_scan_of_the_bits(value, length):
    stream = BitStream(GOLDEN, value % (1 << length), length)
    bits = stream.bits
    changes = sum(a != b for a, b in zip(bits, bits[1:]))
    longest = run = 1
    for a, b in zip(bits, bits[1:]):
        run = run + 1 if a == b else 1
        longest = max(longest, run)
    stats = bit_stats(stream)
    assert (stats.ones, stats.zeros) == (sum(bits), length - sum(bits))
    assert (stats.longest_run, stats.runs_count) == (longest, changes + 1)


def test_hex_padding():
    s = binary_expansion(GOLDEN, 6)  # 100111 -> pads to 10011100
    assert s.as_text() == "100111"
    assert s.as_hex() == "9c"


def test_stream_json():
    js = binary_expansion(GOLDEN, 8).to_json()
    assert js["bits"] == "10011110"
    assert js["hex"] == "9e"
    assert js["length"] == 8
    assert js["source"]["minpoly"] == [1, -1]


def test_complement_check_passes_on_real_instances():
    for spec in (
        SetSpec("2r", (2,)),
        SetSpec("2r", (1,)),
        SetSpec("2r", (-6,)),
        SetSpec("3ntr", (0, 6)),
        SetSpec("3tr", (0, -6)),
    ):
        report = complement_check(build_set(spec))
        assert report.ok, f"unexpected mirror pair inside {spec}"
        assert report.size == spec.cardinality()


def test_complement_check_rejects_imaginary():
    with pytest.raises(ValueError):
        complement_check(build_set(SetSpec("2i", (3,))))


def test_complement_report_json():
    js = complement_check(build_set(SetSpec("2r", (2,)))).to_json()
    assert js["ok"] is True
    assert js["size"] == 2
    assert js["violations"] == []
