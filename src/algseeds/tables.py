"""Reference tables of cubic root data over small coefficient boxes.

Rows iterate the linear coefficient ascending, then the (negated) constant
ascending, keeping irreducible polynomials of the requested discriminant
sign.  Values are printed to five decimals with round-half-even by the one
certified renderer, ``algebraic._cell_decimal``, which refines an int cell
until both its ends round alike: a real root's own cell, or for the
complex pair of a cubic with disc < 0 the upper root's real and imaginary
parts, read at scale 2^bits off one cell of the real root by
``fields._conjugates``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebraic import _cell_decimal, irrational_real_roots
from .fields import _conjugates
from .polynomials import MonicIntPoly


@dataclass(frozen=True)
class TableSpec:
    number: int
    quad_coeff: int                 # fixed x^2 coefficient
    p_range: tuple[int, int]        # inclusive bounds for the linear coefficient
    q_values: tuple[int, ...]       # constant coefficient is -q
    disc_sign: int                  # -1: one real root + pair; +1: totally real

    def polynomials(self) -> list[MonicIntPoly]:
        out = []
        for p in range(self.p_range[0], self.p_range[1] + 1):
            for q in self.q_values:
                poly = MonicIntPoly.cubic(self.quad_coeff, p, -q)
                disc = poly.discriminant()
                if disc == 0 or (disc > 0) != (self.disc_sign > 0):
                    continue
                if not poly.is_irreducible():
                    continue
                out.append(poly)
        return out


TABLES = {
    1: TableSpec(1, 0, (-5, 5), (1, 2), -1),
    2: TableSpec(2, -2, (-5, 5), (1, 2), -1),
    3: TableSpec(3, 0, (-4, 4), (-1, 0, 1), 1),
    4: TableSpec(4, 0, (-6, 4), (-1, 0, 1, 2, 3, 4), 1),
}


def table_row(poly: MonicIntPoly, disc_sign: int) -> str:
    roots = irrational_real_roots(poly)
    if disc_sign < 0:
        real = roots[0]
        # the upper complex root's real and imaginary parts at scale 2**bits,
        # read off one cell of the real root (``fields`` docstring)
        re, im = (_cell_decimal(lambda bits: (*_conjugates(real, bits)[1][i], 1 << bits), 5)
                  for i in (0, 1))
        return f"{poly} | {real.decimal(5)} | {re} ± {im} i"
    return f"{poly} | " + " | ".join(r.decimal(5) for r in roots)


def table_rows(number: int) -> list[str]:
    spec = TABLES.get(number)
    if spec is None:
        raise ValueError(f"no table {number}; choose from {sorted(TABLES)}")
    return [table_row(p, spec.disc_sign) for p in spec.polynomials()]


def render_table(number: int) -> str:
    return "\n".join(table_rows(number)) + "\n"
