"""Exact field membership for quadratic and cubic algebraic integers.

The central decision is express_in(beta, alpha): find rational a0, a1, a2
with beta = a0 + a1*alpha + a2*alpha^2, or certify that none exist.  Both
answers are rigorous:

  * positives carry coefficients that are verified by an exact polynomial
    identity, g(h(x)) = 0 mod f(x) over the rationals, plus an interval
    separation argument pinning h(alpha) to beta itself;

  * negatives come from rounding: every coordinate is a multiple of 1/t,
    t = |disc(f)| (below), so once the enclosure of each t*a_i is narrower
    than 1 it holds at most one integer.  No integer in some enclosure, or
    an exact refutation of the one candidate, closes the case.

Since every number here is an algebraic integer, coordinates over the
power basis of alpha are multiples of 1/[O_K : Z[alpha]]: the index times
O_K lies in Z[alpha].  The index squared divides disc(f) (below), so the
index divides t = |disc(f)|, and every t*a_i is an integer.

Both run on integers.  The solve returns fixed-point int intervals
[lo, hi] / 2^prec, and the rounding needs (hi - lo) t < 2^prec.  The one
candidate for t*a_i is then the ceiling h of lo t / 2^prec, kept when
h 2^prec <= hi t (one cross-multiplication), and only h/t becomes a
Fraction.  The solve stops at the first coordinate that has no candidate.
The composition check clears the denominators of h once: with L their lcm
and H = L h, an integer polynomial, g(h) = 0 mod f exactly when
L^n g(H/L) = sum g_i H^i L^(n-i) is, n = deg g.  Horner runs that sum
through ``_mulmod``, and since f is monic, reducing an integer polynomial
mod f keeps it integral.

Most pairs never reach the solver.  If K = Q(alpha) and f is the minimal
polynomial of the algebraic integer alpha, then

    disc(f) = [O_K : Z[alpha]]^2 * d_K

(Cohen, A Course in Computational Algebraic Number Theory, GTM 138,
ch. 4), so the squarefree kernel of disc(f) is that of d_K and depends on
K alone.  Two elements whose discriminants have unequal kernels therefore
generate different fields.  express_in rejects such pairs, quadratic or
cubic, with one test ahead of either solve, and independence_report buckets
the elements of an instance by (degree, kernel) and decides only pairs
inside a bucket exactly; every other pair is settled by this invariant.
For a quadratic pair that passes, a1^2 = disc(g)/disc(f), so a1 is
+-isqrt(disc(f) disc(g)) / |disc(f)| and a0 follows from the traces.

The kernels of a quadratic instance are sieved, not factored one by one.
``build_set`` lists the elements of 2r(n) and 2i(n) as the roots of
x^2 + b x + c for one b, with c in range order or reversed range order
(the order theorem in the ``families`` docstring).  disc = b^2 - 4c is
affine in c with slope -4, so the listed discriminants are d0 + 4i or
d0 - 4i, i = 0, 1, ...: an arithmetic progression d0 + i s.
``_progression_kernels`` sieves it by prime squares (Crandall and
Pomerance, Prime Numbers: A Computational Perspective, ch. 3).  For each
prime p <= sqrt(max |term|) that does not divide s, p^2 divides d0 + i s
exactly when i = -d0 s^-1 (mod p^2), so only those indices are visited, in
strides of p^2; a prime dividing s (here only 2) is tried at every index.
At each visited index p^2 is divided out while it divides.  The sieve is
exact: each term is divided by squares only, so its kernel stays the same,
and after the pass no p^2 with p <= sqrt(max |term|) divides what remains,
while a larger prime has p^2 > |term|; so what remains is squarefree, and
is the kernel.  ``independence_report`` checks that the minimal
polynomials of a quadratic instance have this form before it reads the
kernels off the sieve, and refuses any other list with a ValueError.
``squarefree_kernel`` stays the kernel of a single value, for cubics and
for ``FieldId.of_number``, which ``same_field`` reads.

Deciding an instance from its keys.  ``_bucket_report`` is the one loop
over pairs: it takes each element's field key and bucket key, buckets the
elements only when a bucket key repeats, and sends each pair of a bucket
to ``express_in``, which certifies a shared field or refutes it.  Its keys
come from the sieve for a quadratic instance (the kernel is both keys; no
2r or 2i instance repeats a kernel, but the code does not assume it), or
from one ``squarefree_kernel`` per element otherwise (the bucket key is
(degree, kernel), the field key the kernel or a cubic's minimal
polynomial).  The progression needs only b and the range of c: for a 2r
or 2i spec they come from ``SetSpec.free_coeffs`` and ``defining_poly``,
so ``independence_report(spec)``, which ``algseeds sweep`` and ``algseeds
independence`` call, builds no element unless a kernel repeats, and then
only the elements of that bucket, through ``families.element``.  Given the
instance, the same function runs on b and the c range read off the checked
minimal polynomials; a cubic spec is built first.  The report keeps the
field keys in ``field_keys`` and builds the ``FieldId`` tuple
``field_ids`` from them on first read.  Neither ``to_json`` nor the sweep
reads it: ``to_json`` renders each key through ``_field_json``, the
renderer that ``FieldId.to_json`` calls too, so the two give the same JSON.

The solve reads a cubic's conjugates in one place, ``_conjugates(a, bits)``:
fixed-point enclosures at scale 2^bits of a and of its two conjugates,
flagged real when they are the other two real roots, ascending, and not
when they are the real and imaginary parts of the upper complex root.  They
come from the cached ``_real_root_enclosures`` (a's own found by
``_locate``) and ``_complex_enclosure``.  ``_alpha_matrix`` builds the rows
of the solve from them, and ``_beta_rhs_variants`` its two right-hand sides.

Cubic pairs with equal kernels meet one more invariant before the solve.
For a prime p not dividing disc(f), p does not divide the index either,
so f mod p factors as p splits in O_K (Dedekind-Kummer; Neukirch,
Algebraic Number Theory, I.8.3).  How p splits depends on K alone, so if
f mod p has a root and g mod p has none, with p dividing neither
discriminant, then Q(alpha) != Q(beta).  Only primes at which disc(f) is a
nonzero square can tell: at the others both cubics have exactly one root.
Isomorphic fields, such as those of two conjugate roots, split alike at
every prime and still go to the solve.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, repeat
from math import isqrt, lcm

from .algebraic import (MAX_BITS, AlgebraicNumber, ComplexEnclosure, complex_pair, horner_in,
                        irrational_real_roots, refine_until, same_number)
from .dyadic import fp_add, fp_div, fp_from_fractions, fp_mul, fp_neg, fp_sub
from .families import SetInstance, SetSpec, build_set, element
from .polynomials import MonicIntPoly

CUBIC_RANGE_PARAMS = (0, -1, -2, -3)


def squarefree_kernel(d: int) -> int:
    """The squarefree integer k with d = k * (square); sign preserved.

    Trial division runs only while p^3 <= the cofactor d left.  After that,
    every prime factor of d is >= p and d < p^3, so d is 1, q, q*r or q^2
    for primes q != r: a square adds nothing to the kernel, anything else
    adds d itself, and one isqrt tells the two apart."""
    if d == 0:
        raise ValueError("kernel of 0 is undefined")
    sign = -1 if d < 0 else 1
    d = abs(d)
    kernel = 1
    p = 2
    while p * p * p <= d:
        if d % p == 0:
            e = 0
            while d % p == 0:
                d //= p
                e += 1
            if e % 2:
                kernel *= p
        p += 1 if p == 2 else 2
    if isqrt(d) ** 2 != d:
        kernel *= d
    return sign * kernel


def _progression_kernels(first: int, step: int, count: int) -> list[int]:
    """The signed squarefree kernels of first + i*step for i < count, with
    step != 0 and no term 0, sieved by p^2 (module docstring)."""
    rest = list(range(first, first + count * step, step))
    if not rest:
        return rest
    top = isqrt(max(abs(rest[0]), abs(rest[-1])))
    is_prime = bytearray([0, 0]) + bytearray([1]) * (top - 1)
    for p in range(2, isqrt(top) + 1):
        if is_prime[p]:
            is_prime[p * p::p] = bytes(len(range(p * p, top + 1, p)))
    for p in range(2, top + 1):
        if not is_prime[p]:
            continue
        q = p * p
        # p^2 divides term i exactly when i = -first / step mod p^2; step
        # has no inverse mod p^2 when p divides it, and then every term is tried
        start, stride = (-first * pow(step, -1, q) % q, q) if step % p else (0, 1)
        for i in range(start, count, stride):
            while rest[i] % q == 0:
                rest[i] //= q
    return rest


def _same_kernel(d: int, e: int) -> bool:
    """squarefree_kernel(d) == squarefree_kernel(e) for nonzero d, e, without
    factoring: d = k*a^2 and e = k'*b^2 with k, k' squarefree, and k*k' is a
    square exactly when k = k'."""
    de = d * e
    return de > 0 and isqrt(de) ** 2 == de


@dataclass(frozen=True)
class FieldId:
    """Degree 2: the squarefree D with field Q(sqrt(D)).  Degree 3: a
    representative minimal polynomial; not canonical, never compared for
    cubic field equality."""
    degree: int
    kernel: int | None = None
    representative: MonicIntPoly | None = None

    @classmethod
    def of_number(cls, a: AlgebraicNumber) -> "FieldId":
        p = a.minpoly
        if p.degree == 2:
            return cls(2, kernel=squarefree_kernel(p.discriminant()))
        return cls(3, representative=p)

    def to_json(self) -> dict:
        return _field_json(self.kernel if self.degree == 2 else self.representative)


def _field_json(key: int | MonicIntPoly) -> dict:
    """The JSON of a field given by its key: a quadratic field's kernel (an
    int) or a cubic field's representative minimal polynomial."""
    if isinstance(key, int):
        return {"degree": 2, "kernel": key}
    return {"degree": 3, "representative": key.to_json()}


def _frac_json(q: Fraction) -> list[str]:
    return [str(q.numerator), str(q.denominator)]


@dataclass(frozen=True)
class FieldExpression:
    """beta = coeffs[0] + coeffs[1]*base + coeffs[2]*base^2."""
    base: AlgebraicNumber
    coeffs: tuple[Fraction, Fraction, Fraction]

    def verify_root_of(self, g: MonicIntPoly) -> bool:
        """Exact check that g(h(x)) = 0 mod f(x), f the base minimal poly."""
        return _compose_is_zero_mod(g, self.coeffs, self.base.minpoly)

    def to_json(self) -> dict:
        return {"base_minpoly": self.base.minpoly.to_json(),
                "coeffs": [_frac_json(c) for c in self.coeffs]}


# ---------------------------------------------------------------------------
# Exact polynomial arithmetic mod a monic f, over Z or over Q: it starts from
# the int 0, so int inputs give ints and Fraction inputs Fractions.


def _mulmod(p: list, q: list, f_asc: tuple[int, ...]) -> list:
    d = len(f_asc) - 1
    prod = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                prod[i + j] += a * b
    for k in range(len(prod) - 1, d - 1, -1):
        top = prod[k]
        if top:
            for j in range(d):  # x^k = -x^(k-d) * (f - x^d)
                prod[k - d + j] -= top * f_asc[j]
        prod.pop()
    while len(prod) < d:
        prod.append(0)
    return prod


def _compose_is_zero_mod(g: MonicIntPoly, h: tuple[Fraction, ...], f: MonicIntPoly) -> bool:
    """g(h(x)) = 0 mod f, on integers (module docstring)."""
    h = [Fraction(c) for c in h]
    den = lcm(*(c.denominator for c in h))
    hv = [c.numerator * (den // c.denominator) for c in h]
    while len(hv) > 1 and hv[-1] == 0:
        hv.pop()
    f_asc = f.ascending()
    # Horner for den**n g(hv / den) = sum of g_i hv**i den**(n-i)
    acc = [0] * f.degree
    scale = 1
    for coeff in reversed(g.ascending()):
        acc = _mulmod(acc, hv, f_asc)
        acc[0] += coeff * scale
        scale *= den
    return not any(acc)


def char_poly(f: MonicIntPoly, h) -> tuple:
    """Coefficients, below the leading 1, of the characteristic polynomial of
    h[0] + h[1] x + h[2] x^2 acting by multiplication on Q[x]/(f), for a
    quadratic or cubic f: ints for int h, Fractions for Fraction h.  For the
    result c, the trace is -c[0] and the norm (-1)^deg(f) c[-1]."""
    d = f.degree
    if d == 2 and h[2] != 0:
        raise ValueError("quadratic base cannot carry a square coefficient")
    f_asc = f.ascending()
    # the matrix has columns h, h x, ... mod f; taken as rows it is the
    # transpose, with the same trace, principal minors and determinant
    m = [list(h[:d])]
    for _ in range(d - 1):
        m.append(_mulmod(m[-1], [0, 1], f_asc))
    # every coefficient has a term in h[0], so it takes h's type
    if d == 2:
        (a, b), (c, e) = m
        return (-(a + e), a * e - b * c)
    (a, b, c), (e, g, k), (p, q, r) = m
    minors = a * g - b * e + a * r - c * p + g * r - k * q
    det = a * (g * r - k * q) - b * (e * r - k * p) + c * (e * q - g * p)
    return (-(a + g + r), minors, -det)


# ---------------------------------------------------------------------------
# The splitting test and the rounding of a solved coordinate.


# Odd primes for the splitting test of express_in (a root count mod 2 is
# fixed by the kernel alone).  They separate 22 of the 24 equal-kernel
# cubic pairs of the paper's sweep; the other two are isomorphic fields.
# Same-field pairs pay for every prime, so the list stays short.
SPLITTING_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


def _has_root_mod(f: MonicIntPoly, p: int) -> bool:
    b, c, d = f.coeffs
    for x in range(p):
        if (x * (x * (x + b) + c) + d) % p == 0:
            return True
    return False


def _split_apart(f: MonicIntPoly, g: MonicIntPoly, df: int, dg: int) -> bool:
    """True when some prime of SPLITTING_PRIMES splits differently in the
    fields of the cubics f and g, whose discriminants df and dg have one
    kernel; that proves the fields unequal (module docstring).  Since df*dg
    is a square, disc(g) is a square mod p whenever disc(f) is."""
    for p in SPLITTING_PRIMES:
        if (df % p and dg % p and pow(df, (p - 1) // 2, p) == 1
                and _has_root_mod(f, p) != _has_root_mod(g, p)):
            return True
    return False


def _integer_in(lo: int, hi: int, prec: int, t: int) -> int | None:
    """The least integer h with h / t in [lo, hi] / 2**prec, for t > 0, or
    None when there is none: the ceiling of lo t / 2**prec, checked against
    hi by one cross-multiplication."""
    h = -(-lo * t >> prec)
    return h if h << prec <= hi * t else None


# ---------------------------------------------------------------------------
# Conjugate data, cached per minimal polynomial and precision.


@functools.lru_cache(maxsize=4096)
def _real_root_enclosures(p: MonicIntPoly, bits: int) -> tuple[tuple[Fraction, Fraction], ...]:
    return tuple(r.enclosure(bits) for r in irrational_real_roots(p))


@functools.lru_cache(maxsize=4096)
def _complex_enclosure(p: MonicIntPoly, bits: int) -> ComplexEnclosure:
    return complex_pair(p, bits)


def _locate(a: AlgebraicNumber, enclosures) -> int:
    """Index of the enclosure, among the disjoint isolating enclosures of
    every real root of a.minpoly, that holds a."""
    # a lies in its own open interval and in exactly one enclosure, so that
    # enclosure meets a's interval.  When no other one does, it is the
    # answer with no test; otherwise same_number's one sign test decides
    # among the enclosures that meet.
    meets = [idx for idx, (lo, hi) in enumerate(enclosures)
             if max(lo, a.lo) < min(hi, a.hi)]
    if len(meets) == 1:
        return meets[0]
    for idx in meets:
        if same_number(a, AlgebraicNumber._narrowed(a.minpoly, *enclosures[idx])):
            return idx
    raise AssertionError("root not found among its own conjugates")


# ---------------------------------------------------------------------------
# The 3x3 interval solve.  Rows pair the conjugates of alpha with the
# hypothesized images of beta; the identity embedding fixes row one, leaving
# two matchings (swap the remaining conjugates, or flip the sign of the
# imaginary part).


def _solve(a_rows, rhs, prec):
    """Cramer solve with interval adjugate, as fixed-point int intervals at
    scale 2**prec; None when 0 in det."""
    m = a_rows
    c00 = fp_sub(fp_mul(m[1][1], m[2][2], prec), fp_mul(m[1][2], m[2][1], prec))
    c01 = fp_neg(fp_sub(fp_mul(m[1][0], m[2][2], prec), fp_mul(m[1][2], m[2][0], prec)))
    c02 = fp_sub(fp_mul(m[1][0], m[2][1], prec), fp_mul(m[1][1], m[2][0], prec))
    det = fp_add(fp_add(fp_mul(m[0][0], c00, prec), fp_mul(m[0][1], c01, prec)),
                 fp_mul(m[0][2], c02, prec))
    if det[0] <= 0 <= det[1]:
        return None
    c10 = fp_neg(fp_sub(fp_mul(m[0][1], m[2][2], prec), fp_mul(m[0][2], m[2][1], prec)))
    c11 = fp_sub(fp_mul(m[0][0], m[2][2], prec), fp_mul(m[0][2], m[2][0], prec))
    c12 = fp_neg(fp_sub(fp_mul(m[0][0], m[2][1], prec), fp_mul(m[0][1], m[2][0], prec)))
    c20 = fp_sub(fp_mul(m[0][1], m[1][2], prec), fp_mul(m[0][2], m[1][1], prec))
    c21 = fp_neg(fp_sub(fp_mul(m[0][0], m[1][2], prec), fp_mul(m[0][2], m[1][0], prec)))
    c22 = fp_sub(fp_mul(m[0][0], m[1][1], prec), fp_mul(m[0][1], m[1][0], prec))
    adj = ((c00, c10, c20), (c01, c11, c21), (c02, c12, c22))
    out = []
    for i in range(3):
        num = fp_add(fp_add(fp_mul(adj[i][0], rhs[0], prec), fp_mul(adj[i][1], rhs[1], prec)),
                     fp_mul(adj[i][2], rhs[2], prec))
        out.append(fp_div(num, det, prec))
    return out


def _conjugates(a: AlgebraicNumber, bits: int):
    """(own, (u, v), real): a and its conjugates at scale 2**bits (module
    docstring)."""
    f = a.minpoly
    if f.discriminant() > 0:
        encs = _real_root_enclosures(f, bits)
        fps = [fp_from_fractions(lo, hi, bits) for lo, hi in encs]
        own = fps.pop(_locate(a, encs))
        return own, tuple(fps), True
    pair = _complex_enclosure(f, bits)
    return (fp_from_fractions(*a.enclosure(bits), bits),
            (fp_from_fractions(*pair.re, bits), fp_from_fractions(*pair.im, bits)), False)


@functools.lru_cache(maxsize=4096)
def _alpha_matrix(alpha: AlgebraicNumber, bits: int):
    """Interval matrix of the conjugate system, alpha's own row first."""
    x, (u, v), real = _conjugates(alpha, bits)
    one = (1 << bits, 1 << bits)
    if real:
        return tuple((one, y, fp_mul(y, y, bits)) for y in (x, u, v))
    return ((one, x, fp_mul(x, x, bits)),
            (one, u, fp_sub(fp_mul(u, u, bits), fp_mul(v, v, bits))),
            ((0, 0), v, fp_add(fp_mul(u, v, bits), fp_mul(u, v, bits))))


def _beta_rhs_variants(beta: AlgebraicNumber, bits: int):
    """The two admissible conjugate assignments for the right-hand side:
    swap the other two real roots, or flip the sign of the imaginary part."""
    x, (u, v), real = _conjugates(beta, bits)
    return ((x, u, v), (x, v, u) if real else (x, u, fp_neg(v)))


def _value_is_beta(expr: FieldExpression, beta: AlgebraicNumber, max_bits: int) -> bool:
    """expr's value is known to be a root of beta's minimal polynomial;
    decide via interval separation whether it is beta itself: beta's
    isolating interval holds no other root."""
    return horner_in(expr.base, expr.coeffs, beta.lo, beta.hi, 64, max_bits)


# ---------------------------------------------------------------------------


def _express_quadratic(beta: AlgebraicNumber, alpha: AlgebraicNumber, df: int, dg: int,
                       max_bits: int) -> FieldExpression | None:
    """beta over quadratic alpha, their discriminants df and dg of one
    kernel: a1^2 = dg / df, so a1 = +-sqrt(df dg) / |df|."""
    g = beta.minpoly
    size = Fraction(isqrt(df * dg), abs(df))
    if df < 0:
        # imaginary parts are positive multiples of sqrt(|k|); the half
        # plane tag fixes the sign of a1 outright
        candidates = (size if beta.half_plane == alpha.half_plane else -size,)
    else:
        candidates = (size, -size)
    bf, bg = alpha.minpoly.coeffs[0], g.coeffs[0]
    for a1 in candidates:
        a0 = (a1 * bf - bg) / 2
        expr = FieldExpression(alpha, (a0, a1, Fraction(0)))
        if not expr.verify_root_of(g):
            continue
        if df < 0 or _value_is_beta(expr, beta, max_bits):
            return expr
    return None


def _express_cubic(beta: AlgebraicNumber, alpha: AlgebraicNumber,
                   start_bits: int, max_bits: int) -> FieldExpression | None:
    """The exact solve for cubic alpha and beta of one signature, with no
    shortcut in front of it."""
    f, g = alpha.minpoly, beta.minpoly
    t = abs(f.discriminant())  # every coordinate is a multiple of 1/t
    open_matchings = {0, 1}

    def decide(bits):
        """The expression, False once every matching is refuted, or None."""
        rows = _alpha_matrix(alpha, bits)
        rhs_pair = _beta_rhs_variants(beta, bits)
        for m in sorted(open_matchings):
            sol = _solve(rows, rhs_pair[m], bits)
            # each enclosure of t * a_i must be narrower than 1
            if sol is None or any((hi - lo) * t >= 1 << bits for lo, hi in sol):
                continue  # too coarse, keep the matching open
            cand = []
            for lo, hi in sol:
                h = _integer_in(lo, hi, bits, t)
                if h is None:
                    break
                cand.append(Fraction(h, t))
            if len(cand) < 3:
                open_matchings.discard(m)  # no admissible rational triple
                continue
            expr = FieldExpression(alpha, tuple(cand))
            if not expr.verify_root_of(g):
                open_matchings.discard(m)  # unique candidate refuted exactly
                continue
            if _value_is_beta(expr, beta, max_bits):
                return expr
            # candidate hits a conjugate of beta instead; sharpen
        return None if open_matchings else False
    return refine_until(decide, start_bits, max_bits) or None


def express_in(beta: AlgebraicNumber, alpha: AlgebraicNumber,
               start_bits: int = 128, max_bits: int = MAX_BITS) -> FieldExpression | None:
    """Rational coordinates of beta over the power basis of alpha, or None
    when beta is provably outside Q(alpha)."""
    f, g = alpha.minpoly, beta.minpoly
    if f.degree != g.degree:
        return None  # a cubic field has no quadratic subfield and vice versa
    if f == g and same_number(alpha, beta):
        return FieldExpression(alpha, (Fraction(0), Fraction(1), Fraction(0)))
    df, dg = f.discriminant(), g.discriminant()
    if not _same_kernel(df, dg):
        # distinct discriminant kernels (module docstring); a kernel carries
        # the sign of disc, so this covers distinct signatures
        return None
    if f.degree == 2:
        return _express_quadratic(beta, alpha, df, dg, max_bits)
    if _split_apart(f, g, df, dg):
        return None  # a prime splits differently (module docstring)
    return _express_cubic(beta, alpha, start_bits, max_bits)


def same_field(a: AlgebraicNumber, b: AlgebraicNumber) -> bool:
    """Q(a) = Q(b), decided exactly.  Prime degrees make containment and
    equality coincide."""
    f, g = a.minpoly, b.minpoly
    if f.degree != g.degree:
        return False
    if f.degree == 2:
        return FieldId.of_number(a) == FieldId.of_number(b)
    return express_in(b, a) is not None


# ---------------------------------------------------------------------------
# Pairwise report over one set instance.


@dataclass(frozen=True)
class Collision:
    i: int
    j: int
    certificate: FieldExpression

    def to_json(self) -> dict:
        return {"i": self.i, "j": self.j, "certificate": self.certificate.to_json()}


@dataclass(frozen=True)
class IndependenceReport:
    """field_keys holds, per element, the kernel of its field (an int) or,
    for a cubic element, its minimal polynomial; field_ids is built from
    them on first read, and to_json renders them with no FieldId built
    (module docstring)."""
    spec_json: dict
    field_keys: tuple[int | MonicIntPoly, ...]
    pairs_checked: int
    collisions: tuple[Collision, ...]
    in_guaranteed_range: bool
    kernel_note: tuple[tuple[int, int], ...]  # cubic pairs sent to express_in

    @functools.cached_property
    def field_ids(self) -> tuple[FieldId, ...]:
        return tuple(FieldId(2, kernel=k) if isinstance(k, int) else FieldId(3, representative=k)
                     for k in self.field_keys)

    @property
    def independent(self) -> bool:
        return not self.collisions

    def to_json(self) -> dict:
        return {"spec": self.spec_json,
                "field_ids": [_field_json(k) for k in self.field_keys],
                "pairs_checked": self.pairs_checked,
                "collisions": [c.to_json() for c in self.collisions],
                "independent": self.independent,
                "in_guaranteed_range": self.in_guaranteed_range,
                "equal_kernel_pairs": [list(p) for p in self.kernel_note]}


def spec_in_guaranteed_range(spec) -> bool:
    if spec.family in ("2r", "2i"):
        return True
    return spec.params[0] in CUBIC_RANGE_PARAMS


def _bucket_report(spec: SetSpec, field_keys, bucket_keys, elem) -> IndependenceReport:
    """The report on an instance of spec whose i-th element elem(i) has the
    field key field_keys[i] and the bucket key bucket_keys[i].  Pairs in
    different buckets generate different fields (module docstring); each
    pair inside a bucket goes to express_in, and elements are built only for
    those pairs."""
    n = len(field_keys)
    collisions = []
    kernel_note = []
    if len(set(bucket_keys)) < n:
        buckets = {}
        for i, key in enumerate(bucket_keys):
            buckets.setdefault(key, []).append(i)
        for i, j in sorted(p for idx in buckets.values() for p in combinations(idx, 2)):
            a, b = elem(i), elem(j)
            cubic = a.minpoly.degree == 3  # a bucket's pairs share one degree
            if cubic:
                if a.minpoly == b.minpoly and same_number(a, b):
                    continue  # same element listed twice can't witness a collision
                kernel_note.append((i, j))
            cert = express_in(b, a)
            if cert is None:
                assert cubic  # equal quadratic kernels: one field
                continue
            assert cert.verify_root_of(b.minpoly)
            collisions.append(Collision(i, j, cert))
    return IndependenceReport(spec.to_json(), tuple(field_keys), n * (n - 1) // 2,
                              tuple(collisions), spec_in_guaranteed_range(spec),
                              tuple(kernel_note))


def _progression_report(spec: SetSpec, b: int, coeffs: range, elem) -> IndependenceReport:
    """The report on the roots of x^2 + b x + c, c in coeffs (step +-1), the
    elements of the 2r or 2i instance spec; elem(i) is the i-th.  Kernels
    come off one sieve (module docstring)."""
    kernels = _progression_kernels(b * b - 4 * coeffs.start, -4 * coeffs.step, len(coeffs))
    return _bucket_report(spec, kernels, kernels, elem)


def independence_report(inst: SetInstance | SetSpec) -> IndependenceReport:
    """Decide every pair of elements of inst, an instance or the spec of one.
    Elements are bucketed by degree and discriminant kernel; pairs in
    different buckets generate different fields (module docstring), so only
    pairs inside a bucket are decided exactly.  A 2r or 2i instance takes its
    kernels from one sieve, and a 2r or 2i spec is decided from its b and c
    range with no element built (module docstring); a cubic spec is built.
    pairs_checked still counts every pair."""
    if isinstance(inst, SetSpec):
        if inst.family in ("2r", "2i"):
            coeffs = inst.free_coeffs()
            b = inst.defining_poly(coeffs[0]).coeffs[0] if coeffs else 0
            return _progression_report(inst, b, coeffs, lambda i: element(inst, coeffs[i]))
        inst = build_set(inst)
    elems = inst.numbers()
    n = len(elems)
    if inst.spec.family in ("2r", "2i"):
        # the minimal polynomials must be x^2 + b x + c for one b, with c in
        # range order or reversed (module docstring)
        polys = [a.minpoly.coeffs for a in elems]
        b, c = polys[0] if polys else (0, 0)
        dc = polys[1][1] - c if n > 1 else 1
        coeffs = range(c, c + n * dc, dc) if dc in (1, -1) else None
        if coeffs is None or polys != list(zip(repeat(b), coeffs)):
            raise ValueError("a quadratic instance must list x^2 + b x + c for one b, "
                             "with c in range order or reversed")
        return _progression_report(inst.spec, b, coeffs, elems.__getitem__)
    polys = [a.minpoly for a in elems]
    kernels = [squarefree_kernel(p.discriminant()) for p in polys]
    return _bucket_report(inst.spec, [k if p.degree == 2 else p for p, k in zip(polys, kernels)],
                          [(p.degree, k) for p, k in zip(polys, kernels)], elems.__getitem__)
