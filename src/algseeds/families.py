"""The four parametric families of algebraic-integer sets inside (0,1).

Family tags (used verbatim in JSON and on the command line):

  2r     roots in (0,1) of x^2 + n x + c, one set per integer n
  2i     imaginary quadratics sorted by imaginary part, one set per n >= 1
  3ntr   roots in (0,1) of x^3 + m x^2 + n x + d with a complex pair
  3tr    roots in (0,1) of x^3 + m x^2 + n x + d, totally real layer

Every instance is finite; the free coefficient (c or d) runs over an
integer range determined by the parameters.

Order of a real instance.  Write p_c = q + c for the defining polynomial
with free coefficient c, so q(0) = 0.  ``build_set`` lists the elements in
ascending order without comparing any two of them, by this argument:

  * The element for c is a root in (0,1) of p_c: p_c(0) = c and p_c(1) have
    opposite signs over every range (the validating constructor checks it).
  * That root is unique.  A quadratic with a sign change on [0,1] has exactly
    one root there.  A cubic has one or three, and three roots in (0,1)
    would give |c| = |product of the roots| < 1, which no nonzero integer c
    satisfies.  In the reducible 3tr layer the element is the root of the
    quadratic factor; the integer root lies outside (0,1).
  * c has one sign over the whole range: 2r with n >= 1 and 3ntr have c < 0,
    2r with n <= -3 and 3tr have c > 0.  Take c < c' and let a_c be the
    element for c.  Then p_c'(a_c) = c' - c > 0.  When c < 0, p_c'(0) = c'
    < 0, so p_c' has a root in (0, a_c), and a_c' < a_c by uniqueness.  When
    c > 0, p_c'(1) < 0, so p_c' has a root in (a_c, 1), and a_c' > a_c.

So the elements ascend in range order when c > 0 and in reverse range order
when c < 0.  ``AlgebraicNumber.less_than`` remains the exact order, and the
tests check the two against each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .algebraic import AlgebraicNumber
from .polynomials import MonicIntPoly, is_perfect_square

FAMILIES = ("2r", "2i", "3ntr", "3tr")


class InvalidParams(ValueError):
    pass


class RationalRoot(ValueError):
    """Raised when a requested quadratic root is in fact rational."""


@dataclass(frozen=True)
class SetSpec:
    family: str
    params: tuple[int, ...]

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidParams(f"unknown family {self.family!r}")
        n_params = 1 if self.family in ("2r", "2i") else 2
        if len(self.params) != n_params:
            raise InvalidParams(f"family {self.family} takes {n_params} parameter(s)")
        self.validate()

    def validate(self):
        if self.family == "2r":
            (n,) = self.params
            if n in (0, -1, -2):
                raise InvalidParams(f"2r needs n >= 1 or n <= -3, got n={n}")
        elif self.family == "2i":
            (n,) = self.params
            if n < 1:
                raise InvalidParams(f"2i needs n >= 1, got n={n}")
        elif self.family == "3ntr":
            m, n = self.params
            if m * m - 3 * n > 0:
                raise InvalidParams(f"3ntr needs m^2 - 3n <= 0, got ({m},{n})")
            if m + n < 1:
                raise InvalidParams(f"3ntr needs m + n >= 1, got ({m},{n})")
        else:
            m, n = self.params
            if n > -m - 3:
                raise InvalidParams(f"3tr needs n <= -m - 3, got ({m},{n})")

    def free_coeff_range(self) -> range:
        """The range of the free coefficient (c for degree 2, d for degree 3)."""
        if self.family == "2r":
            (n,) = self.params
            return range(-n, 0) if n >= 1 else range(1, -n - 1)
        if self.family == "2i":
            (n,) = self.params
            if n % 2:
                return range(((n - 1) // 2) ** 2 + 1, ((n + 1) // 2) ** 2 + 1)
            return range((n // 2) ** 2 + 1, (n // 2 + 1) ** 2)
        m, n = self.params
        if self.family == "3ntr":
            return range(-(m + n), 0)
        return range(1, -m - n - 1)

    def cardinality(self) -> int:
        if self.family == "2r":
            (n,) = self.params
            return n if n >= 1 else -n - 2
        if self.family == "2i":
            return self.params[0]
        m, n = self.params
        return m + n if self.family == "3ntr" else -m - n - 2

    def defining_poly(self, coeff: int) -> MonicIntPoly:
        if self.family == "2r":
            return MonicIntPoly.quadratic(self.params[0], coeff)
        if self.family == "2i":
            (n,) = self.params
            return (MonicIntPoly.quadratic(-1, coeff) if n % 2
                    else MonicIntPoly.quadratic(0, coeff))
        m, n = self.params
        return MonicIntPoly.cubic(m, n, coeff)

    def to_json(self) -> dict:
        return {"family": self.family, "params": list(self.params)}


@dataclass(frozen=True)
class SetElement:
    free_coeff: int
    number: AlgebraicNumber

    def to_json(self) -> dict:
        return {"free_coeff": self.free_coeff, **self.number.to_json()}


@dataclass(frozen=True)
class SetInstance:
    spec: SetSpec
    elements: tuple[SetElement, ...]

    def numbers(self) -> list[AlgebraicNumber]:
        return [e.number for e in self.elements]

    def to_json(self) -> dict:
        return {"spec": self.spec.to_json(),
                "cardinality": len(self.elements),
                "elements": [e.to_json() for e in self.elements]}


def _unit_interval_root(p: MonicIntPoly) -> AlgebraicNumber:
    """The unique root of p in (0,1); p may be a reducible cubic."""
    if p.degree == 3 and not p.is_irreducible():
        roots, rest = p.split_integer_roots()
        assert rest is not None, f"{p} should keep a quadratic factor"
        p = rest
    return AlgebraicNumber.real_root(p, 0, 1)


def build_set(spec: SetSpec) -> SetInstance:
    """Materialize one instance, elements ascending (2i: by imaginary part)."""
    coeffs = spec.free_coeff_range()
    if spec.family == "2i":
        # imaginary part sqrt(-disc)/2 increases with c; range order is sorted
        return SetInstance(spec, tuple(
            SetElement(c, AlgebraicNumber.complex_root(spec.defining_poly(c), upper=True))
            for c in coeffs))
    if coeffs.start < 0:
        coeffs = reversed(coeffs)   # c < 0: elements fall as c rises (module docstring)
    return SetInstance(spec, tuple(
        SetElement(c, _unit_interval_root(spec.defining_poly(c))) for c in coeffs))


# ---------------------------------------------------------------------------
# Roots of x^2 + b x + c by sign tag: plus = (-b + sqrt(b^2-4c))/2.


def bc_root(b: int, c: int, sign: int) -> AlgebraicNumber:
    """The (b,c)_+ or (b,c)_- root; complex for negative discriminant."""
    if sign not in (1, -1):
        raise ValueError("sign must be +-1")
    p = MonicIntPoly.quadratic(b, c)
    disc = p.discriminant()
    if disc < 0:
        return AlgebraicNumber.complex_root(p, upper=sign > 0)
    if is_perfect_square(disc):
        raise RationalRoot(f"{p} has rational roots")
    s = isqrt(disc)
    # sqrt(disc) lies in (s, s+1); halves keep the endpoints dyadic
    if sign > 0:
        return AlgebraicNumber.real_root(p, Fraction(-b + s, 2), Fraction(-b + s + 1, 2))
    return AlgebraicNumber.real_root(p, Fraction(-b - s - 1, 2), Fraction(-b - s, 2))


def bc_shift_params(b: int, c: int, n: int) -> tuple[int, int]:
    """(b,c)_s + n = (b', c')_s with b' = -2n + b, c' = n^2 - b n + c."""
    return (-2 * n + b, n * n - b * n + c)


# ---------------------------------------------------------------------------
# Reflection x -> 1 - x.


@dataclass(frozen=True)
class ReflectionResult:
    partner: SetSpec | None
    pairs: tuple[tuple[SetElement, AlgebraicNumber], ...]


def reflect_spec(spec: SetSpec) -> SetSpec | None:
    if spec.family == "2r":
        (n,) = spec.params
        return SetSpec("2r", (-n - 2,))
    if spec.family == "2i":
        return None  # the mirror is not an I-family member
    m, n = spec.params
    return SetSpec(spec.family, (-m - 3, 2 * m + n + 3))


def reflect_set(spec: SetSpec) -> ReflectionResult:
    inst = build_set(spec)
    pairs = tuple((e, e.number.reflected()) for e in inst.elements)
    return ReflectionResult(reflect_spec(spec), pairs)


def affine_image(numbers, eps: int, shift: int) -> list[AlgebraicNumber]:
    """eps * alpha + shift for each alpha; eps in {1,-1}, integer shift."""
    if eps not in (1, -1):
        raise ValueError("eps must be +-1")
    out = []
    for a in numbers:
        out.append((a if eps == 1 else a.negated()).plus_int(shift))
    return out


def half_shift_poly(spec: SetSpec, c: int) -> MonicIntPoly:
    """For even n, the minimal polynomial of alpha + n/2 with alpha in a 2r set:
    x^2 - (n^2/4 - c).  Exact rational substitution, result still integral."""
    (n,) = spec.params
    if spec.family != "2r" or n % 2:
        raise InvalidParams("half shift applies to 2r sets with even n")
    coeffs = spec.defining_poly(c).shifted_by_rational(Fraction(n, 2))
    assert all(f.denominator == 1 for f in coeffs)
    return MonicIntPoly(tuple(int(f) for f in coeffs))


# ---------------------------------------------------------------------------
# The reducible layer of the totally real cubic families: for each (b, c)
# with b in {0,-1,-2,-3} and c <= -b-3, the coefficients d in [1, -b-c-2]
# giving a reducible cubic are classified by an exact case split; each open
# strip contributes exactly one quadratic element.

DELTA = {0: 1, -1: 1, -2: 0, -3: 0}
EPS = {0: 1, -1: 0, -2: 0, -3: 0}


@dataclass(frozen=True)
class ExceptionRule:
    b: int
    c: int
    case: str          # boundary-upper | boundary-lower | strip-pos | strip-neg
    n: int


@dataclass(frozen=True)
class QuadraticException:
    n: int
    d: int
    minpoly: MonicIntPoly
    element: AlgebraicNumber

    def to_json(self) -> dict:
        return {"n": self.n, "d": self.d,
                "minpoly": self.minpoly.to_json(),
                "element": self.element.to_json()}


def classify_exception(b: int, c: int) -> ExceptionRule:
    if b not in DELTA:
        raise InvalidParams(f"classification needs b in {{0,-1,-2,-3}}, got {b}")
    if c > -b - 3:
        raise InvalidParams(f"classification needs c <= {-b - 3}, got {c}")
    hits = []
    limit = isqrt(-c) + abs(b) + 3
    for n in range(-limit, limit + 1):
        upper = -n * n + (b - 1) * n - 1
        lower = -n * n + b * n
        if c == upper and n >= DELTA[b]:
            hits.append(ExceptionRule(b, c, "boundary-upper", n))
        if c == lower and n >= 1 + EPS[b] - EPS[-3 - b]:
            hits.append(ExceptionRule(b, c, "boundary-lower", n))
        if upper < c < lower and n >= 1 + EPS[b]:
            hits.append(ExceptionRule(b, c, "strip-pos", n))
        if lower < c < upper and n <= -3 - EPS[-3 - b]:
            hits.append(ExceptionRule(b, c, "strip-neg", n))
    assert len(hits) == 1, f"classification must be exclusive, got {hits} for ({b},{c})"
    return hits[0]


def quadratic_exception(b: int, c: int) -> QuadraticException | None:
    """The unique quadratic element of the (b, c) totally real layer, if any."""
    rule = classify_exception(b, c)
    if rule.case.startswith("boundary"):
        return None
    n = rule.n
    cq = c + n * n - b * n
    d = -(n - b) * cq
    cubic = MonicIntPoly.cubic(b, c, d)
    quad = MonicIntPoly.quadratic(n, cq)
    # (x - (n - b)) * quad must reproduce the cubic exactly
    root = n - b
    assert cubic.deflate(root) == quad
    element = AlgebraicNumber.real_root(quad, 0, 1)
    return QuadraticException(n, d, quad, element)


def reducible_free_coeffs(b: int, c: int) -> list[int]:
    """Brute-force scan: the d in [1, -b-c-2] whose cubic has an integer root."""
    out = []
    for d in range(1, -b - c - 1):
        if not MonicIntPoly.cubic(b, c, d).is_irreducible():
            out.append(d)
    return out
