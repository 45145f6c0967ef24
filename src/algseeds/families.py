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
    opposite signs over every range (checked once per range, below).
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
when c < 0.

Integer roots, by one walk per cubic instance.  A rational root of a monic
integer polynomial is an integer.  A quadratic whose signs at 0 and 1 are
opposite and nonzero has a root in (0,1), which is no integer, so it is
irreducible.  A cubic with no integer root is irreducible.  A reducible
cubic with p(0) p(1) < 0 is (x - r) q with r not 0 or 1, so q changes sign
on (0,1) and is irreducible.  x^3 + m x^2 + n x + d has the integer root r
exactly when d = -r(r^2 + m r + n), so ``iter_elements`` finds every
reducible d of a cubic instance in one walk over r,
``_integer_roots_by_coeff``, instead of one divisor scan per element:

  * Each d of the range has at most one r, and r is a simple root.  The
    element's root in (0,1) is irrational, so the cubic cannot split
    completely, and two integer roots (or a double one) would make the
    third, -m minus their sum, an integer too.
  * The walk covers every r that lands in the range.  By Fujiwara's bound
    (M. Fujiwara, Tohoku Math. J. 10, 1916) every complex root z of
    x^3 + a x^2 + b x + c has |z| <= 2 max(|a|, |b|^(1/2), |c/2|^(1/3)).
    So an integer root of the cubic for any d of the range has |r| <= R
    for every integer R with R >= 2|m|, R^2 >= 4|n| and R^3 >= 4 max |d|,
    and the walk runs r over -R..R.
  * 3ntr never has an integer root, so it takes no walk.  m^2 <= 3n makes
    p' = 3x^2 + 2m x + n >= 0, so p is increasing and has one real root,
    and that root lies in (0,1).

One sign test per range.  p(0) is the constant coefficient k and p(1) is
s + k, with s = 1 + b for x^2 + b x + k and s = 1 + m + n for
x^3 + m x^2 + n x + k.  Both are linear in k, and the free coefficients of
an instance form a range with step +-1, so each keeps over the whole range
the strict sign it has at both ends.  ``_elements`` checks each factor at
the two ends of the range, k and s + k each of one strict sign and the two
of opposite signs, and so decides p(0) p(1) < 0 for every k at once; it
raises ``ValueError`` before the first element otherwise.  The root's
polynomial needs no test of its own:

  * A real quadratic or irreducible cubic is p itself.
  * A reducible 3tr cubic p = (x - r) q gives p(0) = -r q(0) and
    p(1) = (1 - r) q(1), so p(0) p(1) = r(r - 1) q(0) q(1).  p(0) and p(1)
    are nonzero, so r is neither 0 nor 1, and r(r - 1) > 0 for every other
    integer r.  So q(0) q(1) < 0 as well, and q's root in (0,1) is p's.
  * 2i takes no sign test: its element is selected by half-plane (below).

So every element is built trusted; the validating constructor would decide
irreducibility a second time.  The tests check the order against an
exact comparison of the numbers, the walk against a brute-force scan of r,
against a brute-force irreducibility scan of d (``less_than`` and
``reducible_free_coeffs`` in ``tests/oracles.py``) and against
``quadratic_exception``, and the range-end test against a brute force over
drawn ranges, ranges on which k or s + k crosses 0 included.

One loop per instance.  ``_elements`` builds every ``MonicIntPoly``,
``AlgebraicNumber`` and ``SetElement`` of an instance inline, with
``object.__new__`` and its fields stored in field order, as a dataclass
``__init__`` stores them: one ``object.__setattr__`` per field for the
polynomial and the element, and one item write for each of the number's
three fields (``minpoly``, the int cell ``interval`` and ``half_plane``)
into its ``__dict__``, as ``AlgebraicNumber._narrowed`` writes them.  These
are the fields and values, in the same order, that
``MonicIntPoly._trusted``, ``_narrowed`` and ``SetElement(...)`` store,
without a call per element; every real element shares the one cell
(0, 1, 1).  A number gets its ``__dict__`` when it is built, not at its
first ``cell``, so every number has one layout, whichever builder made it.
Under CPython 3.11 an element of 2r(1) to 2r(300) holds 424 B under
tracemalloc when built and 512 B after its first ``cell``, which adds only
the memo.  Writing the dict at build, rather than inline fields and a dict
that the first ``cell`` makes, builds an element in about a quarter less
time (measured with four fields).  The dict shares its keys with the
class, and attribute reads on such a dict do not specialize, so they run
slower than on inline fields or on a dict of its own; a dict of its own
builds slower and larger (ROADMAP, "Measured and left").  The polynomial
and the element keep their inline fields; building them through
``__dict__`` too would make every element larger for good.  The
polynomial is x^2 + b x + k or x^3 + m x^2 + n x + k, or the quotient
x^2 + (m + r) x + n + r(m + r) when k has the root r; a real element has
the interval (0, 1, 1) and a 2i element half-plane +1.  The tests check that
``build_set`` equals the per-element builders on ``==``, ``hash``,
``to_json`` and ``vars()`` of each number and its minimal polynomial, for
every 2r and 2i instance with |n| <= 300 and every cubic instance with m
in -6..3 and |n| <= 120, and that the numbers of the loop, of
``_narrowed`` and of the affine images built through it hold the fields of
the validating constructor, in its order.

Shared builders.  ``_unit_interval_root`` builds the root in (0,1) of one
polynomial, a reducible cubic included: ``split_integer_roots`` finds r in
one divisor scan and returns q without deciding again, and
``_sign_checked_root`` tests p(0) p(1) < 0 on that one polynomial and
builds through ``_narrowed``.  It builds the element of
``quadratic_exception``, the candidates of ``coverage.find_generator`` and
``element(spec, c)``, one set element, which ``fields`` builds for the two
of an equal-kernel pair when it decides a quadratic spec.
``iter_elements`` builds every element, in the order of
``SetSpec.free_coeffs``.  ``bc_root`` takes its real roots from
``irrational_real_roots`` (closed form, ``algebraic`` docstring).

Trusted polynomials.  ``defining_poly`` and ``_elements`` build without
``__post_init__``, which checks that the coefficients are two or three
ints.  They hold by construction.  ``SetSpec.__post_init__`` refuses a
params tuple of the wrong length or with a non-int entry, so b (or m and
n) are ints; ``defining_poly`` refuses a non-int free coefficient, and the
tuple it builds has one or two params plus that coefficient.
``_elements`` builds the same tuple from the int params and the ints of a
range, and the quotient (m + r, n + r(m + r)) from those and the int r.
A frozen dataclass compares, hashes and serializes by its fields alone, so
the trusted polynomial is ``==`` to the validated one, hashes alike and
gives the same ``to_json``; the tests check this on every 2r and 2i
instance with |n| <= 300.

An instance is checked once, when it is built.  An instance is a function
of its spec, so ``SetInstance.__post_init__`` compares its elements with
``iter_elements(spec)`` and raises ``ValueError`` on any other list: one
shuffled, shortened, reversed or empty, one under another spec, one with a
conjugate in place of an element or with an element under a wrong free
coefficient.  ``build_set`` builds its instance trusted, with
``object.__new__`` and ``object.__setattr__`` as ``MonicIntPoly._trusted``
does, since its elements are ``iter_elements(spec)`` by construction.  So
every ``SetInstance`` lists its spec's elements in ``build_set`` order, and
its readers (``fields.independence_report``, the half counts of
``uniformity``) read the spec's integers and check the instance no more.
The tests check each refusal, and that ``build_set`` runs no check.

Imaginary instances.  2i(n) takes x^2 + b x + c with b = -1 for odd n and
b = 0 for even n, and c >= floor(n/2)^2 + 1 over its whole range.  So disc
= b^2 - 4c <= 1 - 4 < 0: the quadratic has no real root, so no rational
one, and is irreducible over Q.  Each element is stored with half-plane +1
(``_elements``, and ``_upper_root`` through ``_narrowed`` for one element),
which selects the upper root (-b + i sqrt(-disc)) / 2, with no second
irreducibility decision.  Its imaginary part sqrt(4c - b^2) / 2 increases
with c, so range order is ascending by imaginary part.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from math import isqrt

from .algebraic import AlgebraicNumber, irrational_real_roots
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
        if not all(isinstance(p, int) for p in self.params):
            raise InvalidParams(f"parameters must be ints, got {self.params!r}")
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

    def free_coeffs(self) -> range:
        """The free coefficients in ``build_set`` order: range order, reversed
        when they are negative (module docstring)."""
        coeffs = self.free_coeff_range()
        return coeffs[::-1] if coeffs.start < 0 else coeffs

    def cardinality(self) -> int:
        return len(self.free_coeff_range())

    def defining_poly(self, coeff: int) -> MonicIntPoly:
        """The polynomial with free coefficient coeff, built trusted (module
        docstring)."""
        if not isinstance(coeff, int):
            raise TypeError("coefficients must be ints")
        if self.family == "2r":
            return MonicIntPoly._trusted((self.params[0], coeff))
        if self.family == "2i":
            return MonicIntPoly._trusted((-(self.params[0] % 2), coeff))
        return MonicIntPoly._trusted((*self.params, coeff))

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
    """One instance: spec's elements in ``build_set`` order, checked once,
    here (module docstring)."""
    spec: SetSpec
    elements: tuple[SetElement, ...]

    def __post_init__(self):
        if tuple(self.elements) != tuple(iter_elements(self.spec)):
            raise ValueError(f"{self.spec.family}{self.spec.params}: the elements are not "
                             "the spec's, in build_set order")

    def numbers(self) -> list[AlgebraicNumber]:
        return [e.number for e in self.elements]

    def to_json(self) -> dict:
        return {"spec": self.spec.to_json(),
                "cardinality": len(self.elements),
                "elements": [e.to_json() for e in self.elements]}


# the isolating interval (0, 1) of every real element, as an int cell
_UNIT = (0, 1, 1)


def _sign_checked_root(p: MonicIntPoly) -> AlgebraicNumber:
    """The unique root in (0,1) of the irreducible p, built trusted after
    the sign test p(0) p(1) < 0 (module docstring)."""
    # p(0) is the constant term and p(1) the sum of the coefficients
    if p.coeffs[-1] * (1 + sum(p.coeffs)) >= 0:
        raise ValueError(f"{p} has no sign change on (0,1)")
    return AlgebraicNumber._narrowed(p, _UNIT)


def _unit_interval_root(p: MonicIntPoly) -> AlgebraicNumber:
    """The unique root of p in (0,1); p may be a reducible cubic.  Built
    trusted, after one irreducibility decision (module docstring)."""
    if p.degree == 3:
        _, rest = p.split_integer_roots()
        assert rest is not None, f"{p} should keep a quadratic factor"
        p = rest
    return _sign_checked_root(p)


def _integer_roots_by_coeff(m: int, n: int, coeffs: range) -> dict[int, int]:
    """{d: r} for each d in coeffs whose x^3 + m x^2 + n x + d has the
    integer root r, found by one walk over r (module docstring).  coeffs is
    a nonempty range of d on which p(0) p(1) < 0, as in a 3ntr or 3tr
    instance."""
    top = max(abs(coeffs[0]), abs(coeffs[-1]))
    # Fujiwara's bound: R >= 2|m|, R^2 >= 4|n| and R^3 >= 4 top
    bound = max(2 * abs(m), isqrt(4 * abs(n) - 1) + 1 if n else 0)
    while bound ** 3 < 4 * top:
        bound += 1
    roots = {}
    for r in range(-bound, bound + 1):
        d = -r * (r * (r + m) + n)
        if d in coeffs:
            assert d not in roots, f"x^3{m:+}x^2{n:+}x{d:+} has two integer roots"
            roots[d] = r
    return roots


def _elements(spec: SetSpec, coeffs: range) -> Iterator[SetElement]:
    """The elements of spec's family and params with free coefficients
    coeffs, in that order, after one sign test for the whole range, each
    built inline (module docstring).  Raises ValueError before the first
    element when p(0) p(1) < 0 fails anywhere in a real range."""
    family = spec.family
    head = (-(spec.params[0] % 2),) if family == "2i" else spec.params
    roots = {}
    if family != "2i" and coeffs:
        # p(0) = k and p(1) = s + k are linear in k, so each keeps over the
        # range the strict sign it has at both ends
        s, first, last = 1 + sum(head), coeffs[0], coeffs[-1]
        if first * last <= 0 or (s + first) * (s + last) <= 0 or first * (s + first) >= 0:
            raise ValueError(f"{family}{spec.params}: p(0) p(1) < 0 fails on {coeffs}")
        # a 3ntr cubic has no integer root (module docstring)
        if family == "3tr":
            roots = _integer_roots_by_coeff(*head, coeffs)
    interval, half_plane = (None, 1) if family == "2i" else (_UNIT, 0)
    new, store = object.__new__, object.__setattr__
    for k in coeffs:
        # the fields of MonicIntPoly._trusted, AlgebraicNumber._narrowed and
        # SetElement(...), stored in field order as a dataclass __init__ does;
        # the number's straight into its __dict__, as _narrowed stores them
        p = new(MonicIntPoly)
        if k in roots:
            # the quotient of x^3 + m x^2 + n x + k by x - r
            (m, n), r = head, roots[k]
            store(p, "coeffs", (m + r, n + r * (m + r)))
        else:
            store(p, "coeffs", head + (k,))
        a = new(AlgebraicNumber)
        attrs = a.__dict__
        attrs["minpoly"] = p
        attrs["interval"] = interval
        attrs["half_plane"] = half_plane
        e = new(SetElement)
        store(e, "free_coeff", k)
        store(e, "number", a)
        yield e


def _upper_root(p: MonicIntPoly) -> AlgebraicNumber:
    """The root of the imaginary quadratic p in the upper half plane, built
    trusted (module docstring)."""
    return AlgebraicNumber._narrowed(p, half_plane=1)


def element(spec: SetSpec, coeff: int) -> AlgebraicNumber:
    """The element of spec with free coefficient coeff, which must lie in
    spec's range."""
    root = _upper_root if spec.family == "2i" else _unit_interval_root
    return root(spec.defining_poly(coeff))


def iter_elements(spec: SetSpec) -> Iterator[SetElement]:
    """The elements of one instance, one at a time, in ``build_set`` order:
    ascending (2i: by imaginary part).  A caller that looks at each element
    once keeps only that one alive."""
    return _elements(spec, spec.free_coeffs())


def build_set(spec: SetSpec) -> SetInstance:
    """Materialize one instance, elements ascending (2i: by imaginary part),
    built trusted: they are spec's by construction (module docstring)."""
    inst = object.__new__(SetInstance)
    object.__setattr__(inst, "spec", spec)
    object.__setattr__(inst, "elements", tuple(iter_elements(spec)))
    return inst


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
    # the two roots, ascending, isolated in closed form (algebraic docstring)
    return irrational_real_roots(p)[sign > 0]


def bc_shift_params(b: int, c: int, n: int) -> tuple[int, int]:
    """(b,c)_s + n = (b', c')_s with b' = -2n + b, c' = n^2 - b n + c."""
    return (-2 * n + b, n * n - b * n + c)


# ---------------------------------------------------------------------------
# Reflection x -> 1 - x.


def reflect_spec(spec: SetSpec) -> SetSpec | None:
    if spec.family == "2r":
        (n,) = spec.params
        return SetSpec("2r", (-n - 2,))
    if spec.family == "2i":
        return None  # the mirror is not an I-family member
    m, n = spec.params
    return SetSpec(spec.family, (-m - 3, 2 * m + n + 3))


def half_shift_poly(spec: SetSpec, c: int) -> MonicIntPoly:
    """For even n, the minimal polynomial of alpha + n/2 with alpha in a 2r set:
    x^2 - (n^2/4 - c).  The shift n/2 is an integer, so ``map_root`` builds it."""
    (n,) = spec.params
    if spec.family != "2r" or n % 2:
        raise InvalidParams("half shift applies to 2r sets with even n")
    return spec.defining_poly(c).map_root(1, n // 2)


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
    quad = MonicIntPoly.quadratic(n, cq)
    # (x - (n - b)) * quad must reproduce the cubic exactly
    assert MonicIntPoly.cubic(b, c, d).deflate(n - b) == quad
    return QuadraticException(n, d, quad, _unit_interval_root(quad))
