"""Exact field membership for quadratic and cubic algebraic integers.

The central decision is express_in(beta, alpha): find rational a0, a1, a2
with beta = a0 + a1*alpha + a2*alpha^2, or certify that none exist.  Both
answers are rigorous:

  * positives carry coefficients that are verified by an exact polynomial
    identity, g(h(x)) = 0 mod f(x) over the rationals, plus an interval
    separation argument pinning h(alpha) to beta itself;

  * negatives come from rational reconstruction: once the coefficient
    enclosures are narrower than 1/(2B^2), with B bounding the possible
    denominators, at most one rational candidate exists per coefficient
    and it must be a continued-fraction convergent of the midpoint.  No
    convergent in the enclosure, or an exact refutation of the unique
    candidate, closes the case.

Since every number here is an algebraic integer, coordinates over the
power basis of alpha have denominators dividing the index [O_K : Z[alpha]],
whose square divides disc(f); B = |disc(f)| is a safe bound.

Most pairs never reach the solver.  If K = Q(alpha) and f is the minimal
polynomial of the algebraic integer alpha, then

    disc(f) = [O_K : Z[alpha]]^2 * d_K

(Cohen, A Course in Computational Algebraic Number Theory, GTM 138,
ch. 4), so the squarefree kernel of disc(f) is that of d_K and depends on
K alone.  Two elements whose discriminants have unequal kernels therefore
generate different fields.  express_in rejects such cubic pairs before the
solve, and independence_report buckets the elements of an instance by
(degree, kernel) and decides only pairs inside a bucket exactly; every
other pair is settled by this invariant.

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
from itertools import combinations
from math import isqrt

from .algebraic import AlgebraicNumber, PrecisionExhausted, complex_pair, same_number
from .dyadic import (fp_add, fp_div, fp_from_fractions, fp_mul, fp_neg, fp_sub,
                     fp_to_fractions)
from .families import SetInstance
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
        if self.degree == 2:
            return {"degree": 2, "kernel": self.kernel}
        return {"degree": 3, "representative": self.representative.to_json()}


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
# Exact polynomial arithmetic mod f over Fractions.


def _mulmod(p: list[Fraction], q: list[Fraction], f_asc: tuple[int, ...]) -> list[Fraction]:
    d = len(f_asc) - 1
    prod = [Fraction(0)] * (len(p) + len(q) - 1)
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
        prod.append(Fraction(0))
    return prod


def _compose_is_zero_mod(g: MonicIntPoly, h: tuple[Fraction, ...], f: MonicIntPoly) -> bool:
    f_asc = f.ascending()
    hv = [Fraction(c) for c in h]
    while len(hv) > 1 and hv[-1] == 0:
        hv.pop()
    acc = [Fraction(0)] * f.degree
    for coeff in reversed(g.ascending()):
        acc = _mulmod(acc, hv, f_asc)
        acc[0] += coeff
    return all(c == 0 for c in acc)


def trace_and_norm(e: FieldExpression) -> tuple[Fraction, Fraction]:
    """Trace and norm of the expressed element over Q, via the matrix of
    multiplication by it in the power basis of the base field."""
    f = e.base.minpoly
    d = f.degree
    f_asc = f.ascending()
    if d == 2 and e.coeffs[2] != 0:
        raise ValueError("quadratic base cannot carry a square coefficient")
    h = [Fraction(c) for c in e.coeffs[:d]]
    cols = []
    cur = _mulmod(h, [Fraction(1)], f_asc)
    for _ in range(d):
        cols.append(list(cur))
        cur = _mulmod(cur, [Fraction(0), Fraction(1)], f_asc)
    trace = sum(cols[j][j] for j in range(d))
    if d == 2:
        norm = cols[0][0] * cols[1][1] - cols[1][0] * cols[0][1]
    else:
        m = [[cols[j][i] for j in range(3)] for i in range(3)]
        norm = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
    return trace, norm


# ---------------------------------------------------------------------------
# Rational reconstruction from an enclosure.


def _convergents(x: Fraction):
    n, d = x.numerator, x.denominator
    h0, k0, h1, k1 = 0, 1, 1, 0
    while d:
        a, r = divmod(n, d)
        h0, k0, h1, k1 = h1, k1, a * h1 + h0, a * k1 + k0
        n, d = d, r
        yield Fraction(h1, k1)


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


def _reconstruct(lo: Fraction, hi: Fraction, qmax: int) -> Fraction | None:
    """The unique rational with denominator <= qmax in [lo, hi], given that
    hi - lo < 1/(2 qmax^2); None certifies that no such rational exists."""
    for conv in _convergents((lo + hi) / 2):
        if conv.denominator > qmax:
            return None
        if lo <= conv <= hi:
            return conv
    return None


# ---------------------------------------------------------------------------
# Conjugate data, cached per minimal polynomial and precision.


@functools.lru_cache(maxsize=4096)
def _real_root_enclosures(p: MonicIntPoly, bits: int) -> tuple[tuple[Fraction, Fraction], ...]:
    from .algebraic import irrational_real_roots
    roots = [r.refine(bits) for r in irrational_real_roots(p)]
    return tuple((r.lo, r.hi) for r in roots)


@functools.lru_cache(maxsize=4096)
def _complex_enclosure(p: MonicIntPoly, bits: int) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    enc = complex_pair(p, bits)
    return (enc.re[0], enc.re[1], enc.im[0], enc.im[1])


def _locate(a: AlgebraicNumber, enclosures) -> int:
    p = a.minpoly
    for idx, (lo, hi) in enumerate(enclosures):
        if same_number(a, AlgebraicNumber(p, lo, hi)):
            return idx
    raise AssertionError("root not found among its own conjugates")


# ---------------------------------------------------------------------------
# The 3x3 interval solve.  Rows pair the conjugates of alpha with the
# hypothesized images of beta; the identity embedding fixes row one, leaving
# two matchings (swap the remaining conjugates, or flip the sign of the
# imaginary part).


def _fp_iv(lo: Fraction, hi: Fraction, prec: int):
    return fp_from_fractions(lo, hi, prec)


def _solve(a_rows, rhs, prec):
    """Cramer solve with interval adjugate; None when 0 in det."""
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
        out.append(fp_to_fractions(fp_div(num, det, prec), prec))
    return out


@functools.lru_cache(maxsize=4096)
def _alpha_matrix(alpha: AlgebraicNumber, bits: int):
    """Interval matrix of the conjugate system, alpha's own row first."""
    f = alpha.minpoly
    prec = bits
    one = (1 << prec, 1 << prec)
    if f.discriminant() > 0:
        encs = _real_root_enclosures(f, bits)
        k = _locate(alpha, encs)
        ordered = (encs[k],) + tuple(e for i, e in enumerate(encs) if i != k)
        rows = []
        for lo, hi in ordered:
            x = _fp_iv(lo, hi, prec)
            rows.append((one, x, fp_mul(x, x, prec)))
        return tuple(rows)
    a1 = alpha.refine(bits)
    x = _fp_iv(a1.lo, a1.hi, prec)
    re_lo, re_hi, im_lo, im_hi = _complex_enclosure(f, bits)
    u = _fp_iv(re_lo, re_hi, prec)
    v = _fp_iv(im_lo, im_hi, prec)
    zero = (0, 0)
    return ((one, x, fp_mul(x, x, prec)),
            (one, u, fp_sub(fp_mul(u, u, prec), fp_mul(v, v, prec))),
            (zero, v, fp_add(fp_mul(u, v, prec), fp_mul(u, v, prec))))


def _beta_rhs_variants(beta: AlgebraicNumber, bits: int):
    """The two admissible conjugate assignments for the right-hand side."""
    g = beta.minpoly
    prec = bits
    b1 = beta.refine(bits)
    r1 = _fp_iv(b1.lo, b1.hi, prec)
    if g.discriminant() > 0:
        encs = _real_root_enclosures(g, bits)
        k = _locate(beta, encs)
        others = [_fp_iv(lo, hi, prec) for i, (lo, hi) in enumerate(encs) if i != k]
        return ((r1, others[0], others[1]), (r1, others[1], others[0]))
    re_lo, re_hi, im_lo, im_hi = _complex_enclosure(g, bits)
    u = _fp_iv(re_lo, re_hi, prec)
    v = _fp_iv(im_lo, im_hi, prec)
    return ((r1, u, v), (r1, u, fp_neg(v)))


def _horner_interval(coeffs, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction]:
    acc_lo, acc_hi = Fraction(0), Fraction(0)
    for c in reversed(coeffs):
        cands = (acc_lo * lo, acc_lo * hi, acc_hi * lo, acc_hi * hi)
        acc_lo, acc_hi = min(cands) + c, max(cands) + c
    return acc_lo, acc_hi


def _value_is_beta(expr: FieldExpression, beta: AlgebraicNumber, max_bits: int) -> bool:
    """expr's value is known to be a root of beta's minimal polynomial;
    decide via interval separation whether it is beta itself."""
    bits = 64
    a = expr.base
    while bits <= max_bits:
        a = a.refine(bits)
        lo, hi = _horner_interval(expr.coeffs, a.lo, a.hi)
        if beta.lo <= lo and hi <= beta.hi:
            return True
        if hi < beta.lo or beta.hi < lo:
            return False
        bits *= 2
    raise PrecisionExhausted(
        f"no separation of {beta.minpoly} from its conjugates within {max_bits} bits")


# ---------------------------------------------------------------------------


def _express_quadratic(beta: AlgebraicNumber, alpha: AlgebraicNumber,
                       max_bits: int) -> FieldExpression | None:
    f, g = alpha.minpoly, beta.minpoly
    df, dg = f.discriminant(), g.discriminant()
    k = squarefree_kernel(df)
    if k != squarefree_kernel(dg):
        return None
    tf = isqrt(abs(df) // abs(k))
    tg = isqrt(abs(dg) // abs(k))
    bf, bg = f.coeffs[0], g.coeffs[0]
    candidates = []
    if df < 0:
        # imaginary parts are positive multiples of sqrt(|k|); the half
        # plane tag fixes the sign of a1 outright
        sgn = 1 if beta.half_plane == alpha.half_plane else -1
        candidates.append(Fraction(sgn * tg, tf))
    else:
        candidates.extend((Fraction(tg, tf), Fraction(-tg, tf)))
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
    qmax = abs(f.discriminant())
    width_cap = Fraction(1, 2 * qmax * qmax)
    bits = start_bits
    open_matchings = {0, 1}
    while bits <= max_bits:
        rows = _alpha_matrix(alpha, bits)
        rhs_pair = _beta_rhs_variants(beta, bits)
        for m in sorted(open_matchings):
            sol = _solve(rows, rhs_pair[m], bits)
            if sol is None or any(hi - lo >= width_cap for lo, hi in sol):
                continue  # too coarse, keep the matching open
            cand = tuple(_reconstruct(lo, hi, qmax) for lo, hi in sol)
            if any(c is None for c in cand):
                open_matchings.discard(m)  # no admissible rational triple
                continue
            expr = FieldExpression(alpha, cand)
            if not expr.verify_root_of(g):
                open_matchings.discard(m)  # unique candidate refuted exactly
                continue
            if _value_is_beta(expr, beta, max_bits):
                return expr
            # candidate hits a conjugate of beta instead; sharpen
        if not open_matchings:
            return None
        bits *= 2
    raise PrecisionExhausted(
        f"no decision for {beta.minpoly} over {alpha.minpoly} within {max_bits} bits")


def express_in(beta: AlgebraicNumber, alpha: AlgebraicNumber,
               start_bits: int = 128, max_bits: int = 4096) -> FieldExpression | None:
    """Rational coordinates of beta over the power basis of alpha, or None
    when beta is provably outside Q(alpha)."""
    f, g = alpha.minpoly, beta.minpoly
    if f.degree != g.degree:
        return None  # a cubic field has no quadratic subfield and vice versa
    if f == g and same_number(alpha, beta):
        return FieldExpression(alpha, (Fraction(0), Fraction(1), Fraction(0)))
    if f.degree == 2:
        return _express_quadratic(beta, alpha, max_bits)
    df, dg = f.discriminant(), g.discriminant()
    if not _same_kernel(df, dg) or _split_apart(f, g, df, dg):
        # distinct discriminant kernels or splitting (module docstring); a
        # kernel carries the sign of disc, so this covers distinct signatures
        return None
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
    spec_json: dict
    field_ids: tuple[FieldId, ...]
    pairs_checked: int
    collisions: tuple[Collision, ...]
    in_guaranteed_range: bool
    kernel_note: tuple[tuple[int, int], ...]  # cubic pairs sent to express_in

    @property
    def independent(self) -> bool:
        return not self.collisions

    def to_json(self) -> dict:
        return {"spec": self.spec_json,
                "field_ids": [fid.to_json() for fid in self.field_ids],
                "pairs_checked": self.pairs_checked,
                "collisions": [c.to_json() for c in self.collisions],
                "independent": self.independent,
                "in_guaranteed_range": self.in_guaranteed_range,
                "equal_kernel_pairs": [list(p) for p in self.kernel_note]}


def spec_in_guaranteed_range(spec) -> bool:
    if spec.family in ("2r", "2i"):
        return True
    return spec.params[0] in CUBIC_RANGE_PARAMS


def independence_report(inst: SetInstance) -> IndependenceReport:
    """Decide every pair of elements of inst.  Elements are bucketed by
    degree and discriminant kernel; pairs in different buckets generate
    different fields (module docstring), so only pairs inside a bucket are
    decided exactly.  pairs_checked still counts every pair."""
    elems = inst.numbers()
    n = len(elems)
    fids = tuple(FieldId.of_number(a) for a in elems)
    buckets: dict[tuple[int, int], list[int]] = {}
    for i, (a, fid) in enumerate(zip(elems, fids)):
        kernel = fid.kernel if fid.degree == 2 else squarefree_kernel(a.minpoly.discriminant())
        buckets.setdefault((fid.degree, kernel), []).append(i)
    collisions = []
    kernel_note = []
    for i, j in sorted(p for idx in buckets.values() for p in combinations(idx, 2)):
        a, b = elems[i], elems[j]
        if a.minpoly.degree == 3:
            if a.minpoly == b.minpoly and same_number(a, b):
                continue  # same element listed twice can't witness a collision
            kernel_note.append((i, j))
        cert = express_in(b, a)
        if cert is None:
            assert a.minpoly.degree == 3  # equal quadratic kernels: one field
            continue
        assert cert.verify_root_of(b.minpoly)
        collisions.append(Collision(i, j, cert))
    return IndependenceReport(inst.spec.to_json(), fids, n * (n - 1) // 2,
                              tuple(collisions), spec_in_guaranteed_range(inst.spec),
                              tuple(kernel_note))
