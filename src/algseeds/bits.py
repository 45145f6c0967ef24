"""Binary expansions of unit-interval set elements as bit streams.

A stream of length L is certified by refining the isolating interval of
the number until it sits inside a single dyadic cell [j/2^L, (j+1)/2^L);
the bits are then the L binary digits of j.  Irrationality guarantees the
refinement terminates: the number is never a cell boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import groupby

from .algebraic import AlgebraicNumber, refine_until, same_number
from .families import SetInstance, SetSpec


class NotInUnitInterval(ValueError):
    pass


@dataclass(frozen=True)
class BitStream:
    """The first length binary digits of source, as the integer value they
    spell, most significant digit first."""

    source: AlgebraicNumber
    value: int
    length: int

    def __post_init__(self):
        if self.length < 1:
            raise ValueError("length must be positive")
        if not 0 <= self.value < 1 << self.length:
            raise ValueError(f"value {self.value} does not fit in {self.length} bits")

    @property
    def bits(self) -> tuple[int, ...]:
        return tuple(map(int, self.as_text()))

    def as_text(self) -> str:
        return format(self.value, f"0{self.length}b")

    def as_hex(self) -> str:
        """Nibble-packed, most significant bit first, zero-padded on the right."""
        pad = -self.length % 4
        return format(self.value << pad, f"0{(self.length + pad) // 4}x")

    def complemented(self) -> tuple[int, ...]:
        return tuple(1 - b for b in self.bits)

    def to_json(self) -> dict:
        return {"source": self.source.to_json(), "length": self.length,
                "bits": self.as_text(), "hex": self.as_hex()}


def binary_expansion(a: AlgebraicNumber, length: int) -> BitStream:
    if length < 1:
        raise ValueError("length must be positive")  # before any refinement
    if not a.is_real:
        raise NotInUnitInterval("bit streams need a real number")
    # ints carry numerator and denominator, so no Fraction is built
    if a.cmp_rational(0) < 0 or a.cmp_rational(1) > 0:
        raise NotInUnitInterval(f"{a.minpoly} root is outside (0,1)")

    def decide(bits):
        left, right, den = a.cell(bits)
        j_lo = (left << length) // den
        # the last cell that starts below right / den: the number is strictly below it
        j_hi = -((-right << length) // den) - 1
        return j_lo if j_lo == j_hi else None
    return BitStream(a, refine_until(decide, length + 2), length)


@dataclass(frozen=True)
class RunStats:
    ones: int
    zeros: int
    longest_run: int
    runs_count: int

    def to_json(self) -> dict:
        return {"ones": self.ones, "zeros": self.zeros,
                "longest_run": self.longest_run, "runs_count": self.runs_count}


def bit_stats(stream: BitStream) -> RunStats:
    text = stream.as_text()
    ones = text.count("1")
    runs = [len(list(run)) for _, run in groupby(text)]
    return RunStats(ones, len(text) - ones, max(runs, default=0), len(runs))


@dataclass(frozen=True)
class ComplementReport:
    spec: SetSpec
    size: int
    violations: tuple[dict, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {"spec": self.spec.to_json(), "size": self.size,
                "violations": list(self.violations), "ok": self.ok}


def complement_check(inst: SetInstance) -> ComplementReport:
    """Membership excludes the mirror: alpha in the instance forces 1 - alpha
    out of it.  Checked exactly by comparing each element's reflected minimal
    polynomial against every element of the same instance."""
    if inst.spec.family == "2i":
        raise ValueError("complement check needs a real family")
    violations = []
    for e in inst.elements:
        refl_poly = e.number.minpoly.reflected()
        refl_num = e.number.reflected()
        for f in inst.elements:
            if f.number.minpoly == refl_poly and same_number(f.number, refl_num):
                violations.append({"free_coeff": e.free_coeff,
                                   "mirror_of": f.free_coeff})
    return ComplementReport(inst.spec, len(inst.elements), tuple(violations))
