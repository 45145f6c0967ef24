"""Golden-file regression tests for the reference root tables."""

from pathlib import Path

import pytest

from algseeds.polynomials import MonicIntPoly
from algseeds.tables import TABLES, render_table, table_row, table_rows

GOLDEN_DIR = Path(__file__).parent / "golden"
ROW_COUNTS = {1: 13, 2: 16, 3: 4, 4: 12}


@pytest.mark.parametrize("number", sorted(TABLES))
def test_render_matches_golden_file(number):
    golden = (GOLDEN_DIR / f"table{number}.txt").read_text(encoding="utf-8")
    assert render_table(number) == golden


@pytest.mark.parametrize("number", sorted(TABLES))
def test_row_counts(number):
    assert len(table_rows(number)) == ROW_COUNTS[number]


def test_unknown_table_number():
    with pytest.raises(ValueError):
        table_rows(5)


def test_complex_tables_show_conjugate_pairs():
    for number in (1, 2):
        for row in table_rows(number):
            assert row.count("|") == 2
            assert "±" in row and row.endswith(" i")


def test_pure_cubic_row_reads_its_complex_pair():
    """x^3 - 2: the real root 2^(1/3) and the pair 2^(1/3) (-1 +- i sqrt(3)) / 2,
    both parts read off the real root's cell."""
    row = table_row(MonicIntPoly.cubic(0, 0, -2), -1)
    assert row == "x^3-2 | 1.25992 | -0.62996 ± 1.09112 i"


def test_real_tables_show_three_roots():
    for number in (3, 4):
        for row in table_rows(number):
            assert row.count("|") == 3
            assert "±" not in row


@pytest.mark.parametrize("number", sorted(TABLES))
def test_polynomials_respect_table_filters(number):
    spec = TABLES[number]
    for poly in spec.polynomials():
        assert poly.is_irreducible()
        assert (poly.discriminant() > 0) == (spec.disc_sign > 0)
        assert poly.coeffs[0] == spec.quad_coeff
