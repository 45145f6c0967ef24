"""Monic integer polynomials of degree 2 and 3, with exact arithmetic only.

Coefficients are arbitrary-precision ints.  Every sign evaluation reduces to
integer arithmetic, so nothing in this module (or in anything built on it)
touches floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt


class ZeroDiscriminant(ValueError):
    """The operation requires a squarefree polynomial."""


def is_perfect_square(n: int) -> bool:
    if n < 0:
        return False
    r = isqrt(n)
    return r * r == n


def _taylor_shift(coeffs: list[int], k: int) -> list[int]:
    # coeffs ascending; returns coefficients of p(x + k), ascending.
    out = list(coeffs)
    n = len(out) - 1
    # repeated synthetic division by (x - (-k)) accumulates p(x+k)
    for i in range(n):
        for j in range(n - 1, i - 1, -1):
            out[j] += k * out[j + 1]
    return out


@dataclass(frozen=True)
class MonicIntPoly:
    """x^2 + b x + c stored as (b, c), or x^3 + b x^2 + c x + d as (b, c, d)."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) not in (2, 3):
            raise ValueError("only degrees 2 and 3 are supported")
        for c in self.coeffs:
            if not isinstance(c, int):
                raise TypeError("coefficients must be ints")

    @classmethod
    def quadratic(cls, b: int, c: int) -> "MonicIntPoly":
        return cls((b, c))

    @classmethod
    def cubic(cls, b: int, c: int, d: int) -> "MonicIntPoly":
        return cls((b, c, d))

    @property
    def degree(self) -> int:
        return len(self.coeffs)

    def ascending(self) -> list[int]:
        """Coefficients lowest-first, including the leading 1."""
        return list(reversed(self.coeffs)) + [1]

    def evaluate(self, x: Fraction | int) -> Fraction | int:
        acc = 1
        for c in self.coeffs:
            acc = acc * x + c
        return acc

    def sign_at(self, x: Fraction) -> int:
        """Exact sign of p(x) at a rational point, via integer Horner."""
        num, den = x.numerator, x.denominator
        acc = 1
        scale = 1
        for c in self.coeffs:
            scale *= den
            acc = acc * num + c * scale
        return (acc > 0) - (acc < 0)

    def sign_at_dyadic(self, num: int, k: int) -> int:
        """Sign of p(num / 2**k); fast path used by interval refinement."""
        acc = 1
        scale = 1
        for c in self.coeffs:
            scale <<= k
            acc = acc * num + c * scale
        return (acc > 0) - (acc < 0)

    def discriminant(self) -> int:
        if self.degree == 2:
            b, c = self.coeffs
            return b * b - 4 * c
        b, c, d = self.coeffs
        return (
            18 * b * c * d
            - 4 * b**3 * d
            + b * b * c * c
            - 4 * c**3
            - 27 * d * d
        )

    def is_squarefree(self) -> bool:
        return self.discriminant() != 0

    def integer_roots(self) -> list[int]:
        """Distinct integer roots, ascending.

        A monic integer polynomial has all its rational roots in Z, and for
        degree 3 reducibility is equivalent to having such a root.
        """
        const = self.coeffs[-1]
        if const == 0:
            shifted = self.coeffs[:-1]
            roots = {0}
            if len(shifted) == 1:
                roots.add(-shifted[0])
            else:
                roots.update(MonicIntPoly(shifted).integer_roots())
            return sorted(roots)
        roots = set()
        a = abs(const)
        for r in range(1, isqrt(a) + 1):
            if a % r == 0:
                for cand in (r, -r, a // r, -(a // r)):
                    if self.sign_at(Fraction(cand)) == 0:
                        roots.add(cand)
        return sorted(roots)

    def is_irreducible(self) -> bool:
        if self.degree == 2:
            return not is_perfect_square(self.discriminant())
        return not self.integer_roots()

    def deflate(self, r: int) -> "MonicIntPoly":
        """Exact quotient by (x - r); only for cubic p with p(r) = 0."""
        if self.degree != 3:
            raise ValueError("deflate is only defined for cubics")
        b, c, d = self.coeffs
        q1 = b + r
        q0 = c + r * q1
        if d + r * q0 != 0:
            raise ValueError(f"{r} is not a root")
        return MonicIntPoly.quadratic(q1, q0)

    def split_integer_roots(self) -> tuple[list[int], "MonicIntPoly | None"]:
        """(integer roots, irrational-root factor or None); p must be squarefree."""
        roots = self.integer_roots()
        if not roots:
            return [], self
        if self.degree == 2:
            # monic quadratic with one integer root has two
            b, _ = self.coeffs
            return sorted({roots[0], -b - roots[0]}), None
        rest = self.deflate(roots[0])
        if rest.is_irreducible():
            return roots, rest
        more, _ = rest.split_integer_roots()
        return sorted(set(roots) | set(more)), None

    def irreducible_factors(self) -> tuple[list[int], list["MonicIntPoly"]]:
        """Full factorization of a squarefree p: (integer roots, irreducible factors)."""
        roots, rest = self.split_integer_roots()
        return roots, [rest] if rest is not None else []

    def map_root(self, eps: int, shift: Fraction | int) -> "MonicIntPoly":
        """Monic polynomial whose roots are eps*alpha + shift (eps = +-1, shift in Z)."""
        if eps not in (1, -1):
            raise ValueError("eps must be +-1")
        if not isinstance(shift, int):
            if Fraction(shift).denominator != 1:
                raise ValueError("integer shifts only; see shifted_by_rational")
            shift = int(shift)
        if self.degree == 2:
            b, c = self.coeffs
            flipped = [c, eps * b, 1]
        else:
            b, c, d = self.coeffs
            flipped = [eps * d, c, eps * b, 1]
        out = _taylor_shift(flipped, -shift)
        return MonicIntPoly(tuple(reversed(out[:-1])))

    def reflected(self) -> "MonicIntPoly":
        """Roots alpha -> 1 - alpha."""
        return self.map_root(-1, 1)

    def shifted_by_rational(self, shift: Fraction) -> "tuple[Fraction, ...]":
        """Coefficients (descending, below the leading 1) of the monic polynomial
        with roots alpha + shift; rational in general."""
        asc = [Fraction(c) for c in self.ascending()]
        n = len(asc) - 1
        out = list(asc)
        for i in range(n):
            for j in range(n - 1, i - 1, -1):
                out[j] += (-shift) * out[j + 1]
        return tuple(reversed(out[:-1]))

    def derivative_ascending(self) -> list[Fraction]:
        asc = self.ascending()
        return [Fraction(i * asc[i]) for i in range(1, len(asc))]

    def __str__(self) -> str:
        return poly_str(self)

    def to_json(self) -> list[int]:
        return list(self.coeffs)


def poly_str(p: MonicIntPoly) -> str:
    """Compact renderer: x^3-2x^2+x-1 style, zero terms omitted."""
    n = p.degree
    parts = [f"x^{n}" if n > 1 else "x"]
    for i, c in enumerate(p.coeffs):
        power = n - 1 - i
        if c == 0:
            continue
        sign = "+" if c > 0 else "-"
        mag = abs(c)
        if power == 0:
            parts.append(f"{sign}{mag}")
        else:
            var = "x" if power == 1 else f"x^{power}"
            coef = "" if mag == 1 else str(mag)
            parts.append(f"{sign}{coef}{var}")
    return "".join(parts)


# ---------------------------------------------------------------------------
# Sturm chains.  Degree <= 3 keeps these tiny; coefficients are Fractions so
# every sign variation count is exact.

def _poly_eval_asc(coeffs: list[Fraction], x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _poly_rem_asc(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    a = list(a)
    while len(a) >= len(b) and any(a):
        if a[-1] == 0:
            a.pop()
            continue
        factor = a[-1] / b[-1]
        shift = len(a) - len(b)
        for i, bc in enumerate(b):
            a[shift + i] -= factor * bc
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return a


def sturm_chain(p: MonicIntPoly) -> list[list[Fraction]]:
    if p.discriminant() == 0:
        raise ZeroDiscriminant(f"{p} has a repeated root")
    chain = [[Fraction(c) for c in p.ascending()], p.derivative_ascending()]
    while len(chain[-1]) > 1:
        rem = _poly_rem_asc(chain[-2], chain[-1])
        if not rem:
            break
        chain.append([-c for c in rem])
    return chain


def _variations(chain: list[list[Fraction]], x: Fraction) -> int:
    signs = []
    for coeffs in chain:
        v = _poly_eval_asc(coeffs, x)
        if v != 0:
            signs.append(1 if v > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def root_bound_pow2(p: MonicIntPoly) -> int:
    """Power of two strictly exceeding every |real root| (Cauchy bound)."""
    m = 1 + max(abs(c) for c in p.coeffs)
    return 1 << m.bit_length()


def count_roots_between(p: MonicIntPoly, lo: Fraction, hi: Fraction,
                        chain: list[list[Fraction]] | None = None) -> int:
    """Number of distinct real roots in (lo, hi]; endpoints must not be roots of p."""
    if chain is None:
        chain = sturm_chain(p)
    if p.sign_at(lo) == 0 or p.sign_at(hi) == 0:
        raise ValueError("Sturm endpoints must not be roots")
    return _variations(chain, lo) - _variations(chain, hi)


def count_real_roots(p: MonicIntPoly) -> int:
    m = Fraction(root_bound_pow2(p))
    return count_roots_between(p, -m, m)
