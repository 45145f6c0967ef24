"""Monic integer polynomials of degree 2 and 3, with exact arithmetic only.

Coefficients are arbitrary-precision ints.  Every sign evaluation reduces to
integer arithmetic, so nothing in this module (or in anything built on it)
touches floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt


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
    def _trusted(cls, coeffs: tuple[int, ...]) -> "MonicIntPoly":
        """Trusted: coeffs is a tuple of two or three ints already, so the
        checks of ``__post_init__`` are skipped (the ``families`` docstring
        states when that holds).  The one field is stored as the dataclass
        ``__init__`` stores it, so ``==``, ``hash`` and ``to_json`` are those
        of the validated polynomial."""
        p = object.__new__(cls)
        object.__setattr__(p, "coeffs", coeffs)
        return p

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

    def scaled_value(self, num: int, den: int) -> int:
        """den**deg * p(num/den) for den > 0, by integer Horner: an int with
        the sign of p(num/den)."""
        return _scaled_value((1,) + self.coeffs, num, den)

    def sign_at(self, x: Fraction) -> int:
        """Exact sign of p(x) at a rational point."""
        v = self.scaled_value(x.numerator, x.denominator)
        return (v > 0) - (v < 0)

    def discriminant(self) -> int:
        if len(self.coeffs) == 2:
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

    def integer_roots(self) -> list[int]:
        """Distinct integer roots, ascending.

        A monic integer polynomial has all its rational roots in Z, and for
        degree 3 reducibility is equivalent to having such a root.  A
        quadratic's are (-b -+ s) / 2 when disc = s^2, integers because
        disc = b^2 (mod 4).  A cubic's are the first root r that one scan of
        the divisors of d finds (r = 0 when d = 0) and those of p / (x - r).
        """
        if self.degree == 2:
            b, disc = self.coeffs[0], self.discriminant()
            s = isqrt(max(disc, 0))
            return sorted({(-b - s) // 2, (-b + s) // 2}) if s * s == disc else []
        d = self.coeffs[2]
        a = abs(d)
        for k in range(1, isqrt(a) + 1):
            if a % k == 0:
                for r in (k, -k, a // k, -(a // k)):
                    if self.evaluate(r) == 0:
                        return sorted({r, *self.deflate(r).integer_roots()})
        return [] if d else sorted({0, *self.deflate(0).integer_roots()})

    def is_irreducible(self) -> bool:
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
        # a squarefree cubic with one integer root keeps an irreducible
        # quadratic factor; with two, its third root is an integer too
        if self.degree == 3 and len(roots) == 1:
            return roots, self.deflate(roots[0])
        return roots, (None if roots else self)

    def map_root(self, eps: int, shift: int) -> "MonicIntPoly":
        """Monic polynomial whose roots are eps*alpha + shift (eps = +-1, shift in Z)."""
        if eps not in (1, -1):
            raise ValueError("eps must be +-1")
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
# Sturm chains, on integers.  A member is a tuple of int coefficients,
# highest first.  Every member is a positive multiple of the member of the
# classical chain p, p', -rem(p, p'), ... over Q: the pseudo-remainder
# multiplies the dividend by |lc|^(delta+1) > 0 before dividing, and the
# content divided out afterwards is positive too.  For l, m > 0,
# rem(l A, m B) = l rem(A, B), so by induction the members differ from the
# classical ones by positive factors only.  At
# every point each member then has the sign of its classical counterpart,
# the chain has the same length, and the sign variations (all that a Sturm
# count reads) are the same.


def _primitive(coeffs: list[int]) -> tuple[int, ...]:
    g = gcd(*coeffs)
    return tuple(c // g for c in coeffs)


def _pseudo_rem(a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    """|lc(b)|**(deg a - deg b + 1) * a mod b, leading zeros stripped."""
    lc = b[0]
    mag, sgn = abs(lc), (1 if lc > 0 else -1)
    r = list(a)
    for _ in range(len(a) - len(b) + 1):
        top = sgn * r[0]
        r = [mag * x for x in r]
        for i, bc in enumerate(b):
            r[i] -= top * bc
        r.pop(0)  # mag * r[0] - top * lc = 0
    while r and r[0] == 0:
        r.pop(0)
    return r


def _scaled_value(coeffs: tuple[int, ...], num: int, den: int) -> int:
    """den**deg * q(num/den) for den > 0: an int with the sign of q(num/den)."""
    acc = coeffs[0]
    scale = 1
    for c in coeffs[1:]:
        scale *= den
        acc = acc * num + c * scale
    return acc


def sturm_chain(p: MonicIntPoly) -> list[tuple[int, ...]]:
    if p.discriminant() == 0:
        raise ZeroDiscriminant(f"{p} has a repeated root")
    f = (1,) + p.coeffs
    n = p.degree
    chain = [f, _primitive([(n - i) * c for i, c in enumerate(f[:-1])])]
    while len(chain[-1]) > 1:
        rem = _pseudo_rem(chain[-2], chain[-1])
        if not rem:
            break
        chain.append(tuple(-c for c in _primitive(rem)))
    return chain


def _variations(chain: list[tuple[int, ...]], x: Fraction) -> int:
    """Sign variations of the chain at x; chain[0] must not vanish there."""
    values = [_scaled_value(coeffs, x.numerator, x.denominator) for coeffs in chain]
    if not values[0]:
        raise ValueError("Sturm endpoints must not be roots")
    signs = [v > 0 for v in values if v]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def root_bound_pow2(p: MonicIntPoly) -> int:
    """Power of two strictly exceeding every |real root| (Cauchy bound)."""
    m = 1 + max(abs(c) for c in p.coeffs)
    return 1 << m.bit_length()


def count_roots_between(p: MonicIntPoly, lo: Fraction, hi: Fraction,
                        chain: list[tuple[int, ...]] | None = None) -> int:
    """Number of distinct real roots in (lo, hi]; endpoints must not be roots of p."""
    if chain is None:
        chain = sturm_chain(p)
    return _variations(chain, lo) - _variations(chain, hi)


def count_real_roots(p: MonicIntPoly) -> int:
    """The number of distinct real roots of p, by a Sturm count on
    [-B, B] with B a power-of-two root bound.  No library code calls it; it
    stays as the independent count that the isolation tests compare
    ``irrational_real_roots`` against."""
    m = Fraction(root_bound_pow2(p))
    return count_roots_between(p, -m, m)
