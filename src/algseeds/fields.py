"""Exact field membership for quadratic and cubic algebraic integers.

The central decision is express_in(beta, alpha): find rational a0, a1, a2
with beta = a0 + a1*alpha + a2*alpha^2, or certify that none exist.  Both
answers are rigorous:

  * positives carry coefficients that are verified by an exact polynomial
    identity, g(h(x)) = 0 mod f(x) over the rationals, plus an interval
    separation argument pinning h(alpha) to beta itself;

  * negatives come from matched traces: each trace T_k of the system below
    is a rational integer under the matching that beta = h(alpha) fixes,
    so an enclosure of T_1 or T_2 that holds no integer refutes a
    matching, and once both are narrower than 1 the one candidate is
    exact.  Its exact refutation closes the matching too.

The trace form.  Over the embeddings sigma_i, beta_i = a0 + a1 alpha_i +
a2 alpha_i^2 is a system M a = b, M's rows (1, alpha_i, alpha_i^2); for a
complex cubic take the real root's row and the real and imaginary parts of
the upper complex root's row, as b takes beta's.  With the weights
W = diag(1, 1, 1) for a totally real cubic and (1, 2, -2) for a complex
one, M^T W M = G = [Tr(alpha^(j+k))], j, k = 0, 1, 2: the Gram matrix of
the power basis under the trace form (Cohen, GTM 138, ch. 4), an integer
matrix built from Newton's identities on f's coefficients, with
det G = disc(f).  For a matching m of beta's conjugates to alpha's, the
matched sums T_k = sum_i w_i sigma_i(alpha)^k sigma_m(i)(beta) satisfy
G a = T, and a is the unique solution of the system under m.
T_0 = Tr(beta) = -g_2 is exact.  When beta lies in Q(alpha) and m is the
matching it fixes, beta alpha^k is an algebraic integer of K, so T_1 and
T_2 are rational integers.  Hence an enclosure of T_1 or T_2 that holds
no integer refutes m at any width; once both are narrower than 1 each
holds one integer at most, and a = adj(G) T / disc(f), exact, is the one
candidate under m, which the composition check verifies or refutes.

Both run on integers.  The traces are fixed-point int intervals
[lo, hi] / 2^prec, and the least integer they hold is the ceiling n of
lo / 2^prec, kept when n 2^prec <= hi; none is left when it is not.  The
traces stop at the first that holds no integer, and only the three
coordinates of h = adj(G) T / disc(f) become Fractions.  The composition
check clears the denominators of h once: with L their lcm and H = L h,
an integer polynomial, g(h) = 0 mod f exactly when L^n g(H/L) =
sum g_i H^i L^(n-i) is, n = deg g.  Horner runs that sum through
``_mulmod``, and since f is monic, reducing an integer polynomial mod f
keeps it integral.

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
The elements of 2r(n) and 2i(n) are the roots of x^2 + b x + c for one b,
with c in ``SetSpec.free_coeffs`` order: range order or reversed range
order (the order theorem in the ``families`` docstring).  disc = b^2 - 4c is
affine in c with slope -4, so the listed discriminants are d0 + 4i or
d0 - 4i, i = 0, 1, ...: an arithmetic progression d0 + i s.
``_progression_kernels`` sieves it by prime squares (Crandall and
Pomerance, Prime Numbers: A Computational Perspective, ch. 3).  For each
prime p <= sqrt(max |term|) that does not divide s, p^2 divides d0 + i s
exactly when i = -d0 s^-1 (mod p^2), so only those indices are visited, in
strides of p^2.  A prime dividing s (here only 2, with s = +-4) takes two
shortcuts first.  While 4 divides both d0 and s, both are divided by 4,
which divides every term by 4.  Then a prime whose square divides s but
not d0 is skipped, since every term is d0 mod p^2.  Any other prime
dividing s is tried at every index: one that divides s once, or an odd one
whose square divides both d0 and s.  A quadratic progression meets
neither, so it takes no every-index pass.
At each visited index p^2 is divided out while it divides.  The sieve is
exact: each term is divided by squares only, so its kernel stays the same,
and after the pass no p^2 with p <= sqrt(max |term|) divides what remains,
while a larger prime has p^2 > |term|; so what remains is squarefree, and
is the kernel.  ``independence_report`` reads b and the c range off the
spec, for a spec and for an instance alike, and checks nothing of its own:
a ``SetInstance`` lists its spec's elements in this order, checked once
when it is built (the ``families`` docstring).  ``squarefree_kernel``
stays the kernel of a single value, for cubics; ``same_field`` compares
two quadratic kernels by ``_same_kernel``, as ``express_in`` does, with no
factoring.

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
instance, the same path runs and reads those elements off the instance; a
cubic spec is built first.  The report keeps the field keys in
``field_keys`` and builds the ``FieldId`` tuple ``field_ids`` from them on
first read.  Neither ``to_json`` nor the sweep reads it: ``to_json``
renders each key through ``_field_json``, the renderer that
``FieldId.to_json`` calls too, so the two give the same JSON.

The solve, and the complex columns of ``tables``, read a cubic's
conjugates in one place, ``_conjugates(a, bits)``: fixed-point enclosures
at scale 2^bits of a and of its two conjugates, flagged real when they are
the other two real roots, ascending, and not when they are the real and
imaginary parts of the upper complex root.  All three come off one cell of
a itself, by deflation.  For the minimal polynomial
f = x^3 + b x^2 + c x + d,

    f = (x - a)(x^2 + (b + a) x + c + ab + a^2),

so the other two roots are (-(b + a) -+ sqrt(D)) / 2, ascending, with
D = b^2 - 4c - 2ab - 3a^2; for D < 0 they are the complex pair with real
part -(b + a)/2 and imaginary parts +-sqrt(-D)/2.  ``_deflated`` takes the
cell of a at w = bits + guard, rounded outward to scale 2^w
(``dyadic.fp_from_cell``), and gives -(b + a) at once and sqrt|D| by one
``horner_scaled`` and one ``isqrt_iv``; each result is rounded outward to
scale 2^bits, and a's own enclosure is the same cell rounded to 2^bits.
D has the sign of disc(f): with q the quadratic factor, the product rule
for discriminants gives disc(f) = disc(q) res(x - a, q)^2 = D q(a)^2 =
D f'(a)^2, and f'(a) != 0 at a simple root.  So the sign of disc(f) names
the case, |D| > 0, and clamping the lower end of the enclosure of |D| at 0
loses no point of it.  The slope of sqrt|D| in a grows like 1/sqrt|D|
where two conjugates lie close, so no fixed guard absorbs the loss: for
x^3 + 12x^2 - 7x + 1 at bits 8, a guard of 8 bits leaves the imaginary
part 3 units wide.  So the guard starts at GUARD_BITS and doubles until
each conjugate's enclosure is at most 2 units wide at scale 2^bits.  It
gets there, since the enclosures shrink to the conjugates as the cell of
a does, and ``refine_until`` raises ``PrecisionExhausted`` past
GUARD_BITS + MAX_BITS.
``_real_root_enclosures`` and ``_complex_enclosure`` cache the two cases
per number and precision.

``_alpha_matrix`` caches, per alpha and precision, the weighted rows
(w y, w y^2) of the trace form at scale 2^bits: (y, y^2) for each real
conjugate y; for a complex cubic with real root x and upper complex root
u + iv, (x, x^2), (2u, 2(u^2 - v^2)) and (-2v, -4uv).  ``_beta_rhs_variants``
gives beta's conjugates under the two matchings, and ``_trace`` pairs one of
them with a column of the rows: three interval products per trace.
``_gram_adjugate`` gives adj(G) and det G exactly, once per cubic solve.

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
from math import isqrt, lcm

from .algebraic import MAX_BITS, AlgebraicNumber, horner_in, refine_until, same_number
from .dyadic import fp_add, fp_from_cell, fp_mul, fp_neg, fp_sub, horner_scaled, isqrt_iv
from .families import SetInstance, SetSpec, build_set, element
from .polynomials import MonicIntPoly

CUBIC_RANGE_PARAMS = (0, -1, -2, -3)
# the first guard: bits beyond the target taken on a cubic's real root
# before its two conjugates are read off it (module docstring)
GUARD_BITS = 8


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
    # 4 divides every term when it divides first and step, and leaves its kernel
    while first % 4 == 0 and step % 4 == 0:
        first, step = first // 4, step // 4
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
        if step % p:
            # p^2 divides term i exactly when i = -first / step mod p^2
            start, stride = -first * pow(step, -1, q) % q, q
        elif step % q == 0 and first % q:
            # every term is first mod p^2, so p^2 divides none
            continue
        else:
            # step has no inverse mod p^2: every term is tried
            start, stride = 0, 1
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
    """g(h(x)) = 0 mod f, on integers (module docstring); h may hold ints and
    Fractions, which both carry numerator and denominator."""
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


def _integer_in(lo: int, hi: int, prec: int) -> int | None:
    """The least integer in [lo, hi] / 2**prec, or None when there is none:
    the ceiling of lo / 2**prec, checked against hi."""
    n = -(-lo >> prec)
    return n if n << prec <= hi else None


# ---------------------------------------------------------------------------
# Conjugate data, cached per number and precision, and the matched traces.
# Rows pair the conjugates of alpha with the hypothesized images of beta; the
# identity embedding fixes row one, leaving two matchings (swap the remaining
# conjugates, or flip the sign of the imaginary part).


def _deflated(a: AlgebraicNumber, bits: int, real: bool):
    """(own, (x, y), real) at scale 2**bits: a, then its other two real roots
    x < y when real, or else the real and imaginary parts of its upper complex
    root, all read off one cell of a at w = bits + guard.  The guard starts at
    GUARD_BITS and doubles until x and y are each at most 2 units wide
    (module docstring)."""
    b, c, _ = a.minpoly.coeffs

    def decide(guard):
        work = bits + guard
        left, right, den = a.cell(work)
        lo, hi = fp_from_cell(left, right, den, work)
        one = 1 << work
        # -D = 3a^2 + 2ab + 4c - b^2 at scale 4**work; |D| is -D or D as disc f < 0 or > 0
        q_lo, q_hi = horner_scaled((4 * c - b * b, 2 * b, 3), lo, hi, one)
        if real:
            q_lo, q_hi = -q_hi, -q_lo
        # -(b + a) and sqrt|D| at scale 2**work; the conjugates are over 2**(work + 1)
        s_lo, s_hi = -b * one - hi, -b * one - lo
        r_lo, r_hi = isqrt_iv(max(q_lo, 0), q_hi)
        over = 2 << work
        if real:
            x = fp_from_cell(s_lo - r_hi, s_hi - r_lo, over, bits)
            y = fp_from_cell(s_lo + r_lo, s_hi + r_hi, over, bits)
        else:
            x, y = fp_from_cell(s_lo, s_hi, over, bits), fp_from_cell(r_lo, r_hi, over, bits)
        if x[1] - x[0] <= 2 and y[1] - y[0] <= 2:
            return fp_from_cell(left, right, den, bits), (x, y), real
        return None
    return refine_until(decide, GUARD_BITS)


@functools.lru_cache(maxsize=4096)
def _real_root_enclosures(a: AlgebraicNumber, bits: int):
    """(own, (u, v), True): a and the other two real roots of its minimal
    polynomial, u < v, at scale 2**bits."""
    return _deflated(a, bits, True)


@functools.lru_cache(maxsize=4096)
def _complex_enclosure(a: AlgebraicNumber, bits: int):
    """(own, (re, im), False): a and the real and imaginary parts of the upper
    complex root of its minimal polynomial, at scale 2**bits."""
    return _deflated(a, bits, False)


def _conjugates(a: AlgebraicNumber, bits: int):
    """(own, (u, v), real): a and its conjugates at scale 2**bits (module
    docstring)."""
    return (_real_root_enclosures if a.minpoly.discriminant() > 0 else _complex_enclosure)(a, bits)


@functools.lru_cache(maxsize=4096)
def _alpha_matrix(alpha: AlgebraicNumber, bits: int):
    """The weighted rows (w y, w y^2) of the trace form at scale 2**bits,
    alpha's own row first (module docstring)."""
    x, (u, v), real = _conjugates(alpha, bits)
    if real:
        return tuple((y, fp_mul(y, y, bits)) for y in (x, u, v))
    re = fp_sub(fp_mul(u, u, bits), fp_mul(v, v, bits))
    im = fp_mul(u, v, bits)
    return ((x, fp_mul(x, x, bits)), ((2 * u[0], 2 * u[1]), (2 * re[0], 2 * re[1])),
            ((-2 * v[1], -2 * v[0]), (-4 * im[1], -4 * im[0])))


def _trace(rows, rhs, k: int, bits: int):
    """The enclosure at scale 2**bits of the matched trace T_(k+1): column k
    of ``_alpha_matrix``'s rows against beta's conjugates rhs."""
    return fp_add(fp_add(fp_mul(rows[0][k], rhs[0], bits), fp_mul(rows[1][k], rhs[1], bits)),
                  fp_mul(rows[2][k], rhs[2], bits))


def _gram_adjugate(f: MonicIntPoly):
    """(adj G, det G) for G = [Tr(alpha^(j+k))], j, k = 0, 1, 2, alpha a root
    of the cubic f; the power sums come from Newton's identities, and
    det G = disc(f) (module docstring)."""
    b, c, d = f.coeffs
    p1 = -b
    p2 = -b * p1 - 2 * c
    p3 = -b * p2 - c * p1 - 3 * d
    p4 = -b * p3 - c * p2 - d * p1
    a00, a01, a02 = p2 * p4 - p3 * p3, p2 * p3 - p1 * p4, p1 * p3 - p2 * p2
    a11, a12, a22 = 3 * p4 - p2 * p2, p1 * p2 - 3 * p3, 3 * p2 - p1 * p1
    return (((a00, a01, a02), (a01, a11, a12), (a02, a12, a22)),
            3 * a00 + p1 * a01 + p2 * a02)


def _beta_rhs_variants(beta: AlgebraicNumber, bits: int):
    """The two admissible conjugate assignments for the right-hand side:
    swap the other two real roots, or flip the sign of the imaginary part."""
    x, (u, v), real = _conjugates(beta, bits)
    return ((x, u, v), (x, v, u) if real else (x, u, fp_neg(v)))


def _value_is_beta(expr: FieldExpression, beta: AlgebraicNumber, max_bits: int) -> bool:
    """expr's value is known to be a root of beta's minimal polynomial;
    decide via interval separation whether it is beta itself: beta's
    isolating interval holds no other root."""
    return horner_in(expr.base, expr.coeffs, beta.interval, 64, max_bits)


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
    """The solve for cubic alpha and beta of one signature, with no shortcut
    in front of it, on the trace form (module docstring): for each matching
    still open, the matched traces T_1 and T_2 are enclosed at the rung's
    precision.  One that holds no integer refutes the matching; once both
    are narrower than 1, their integers and T_0 = Tr(beta) give the one
    candidate adj(G) T / disc(f), which the composition check verifies or
    refutes exactly."""
    g = beta.minpoly
    adj, det = _gram_adjugate(alpha.minpoly)
    open_matchings = {0, 1}

    def decide(bits):
        """The expression, False once every matching is refuted, or None."""
        rows = _alpha_matrix(alpha, bits)
        rhs_pair = _beta_rhs_variants(beta, bits)
        for m in sorted(open_matchings):
            traces = [-g.coeffs[0]]
            for k in (0, 1):
                lo, hi = _trace(rows, rhs_pair[m], k, bits)
                n = _integer_in(lo, hi, bits)
                if n is None:
                    open_matchings.discard(m)  # the trace is no integer
                    break
                if hi - lo >= 1 << bits:
                    break  # may hold two integers: too coarse, keep the matching open
                traces.append(n)
            if len(traces) < 3:
                continue
            expr = FieldExpression(alpha, tuple(
                Fraction(r[0] * traces[0] + r[1] * traces[1] + r[2] * traces[2], det) for r in adj))
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
        return _same_kernel(f.discriminant(), g.discriminant())
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


def independence_report(inst: SetInstance | SetSpec) -> IndependenceReport:
    """Decide every pair of elements of inst, an instance or the spec of one.
    Elements are bucketed by degree and discriminant kernel; pairs in
    different buckets generate different fields (module docstring), so only
    pairs inside a bucket are decided exactly.  A 2r or 2i instance is
    decided from its spec's b and c range, kernels off one sieve, whether
    the spec or the instance is given: an instance lists its spec's elements
    in order (the ``families`` docstring), so only the elements of a repeated
    kernel are read, off the instance or built by ``families.element``
    (module docstring).  A cubic spec is built.  pairs_checked still counts
    every pair."""
    spec = inst if isinstance(inst, SetSpec) else inst.spec
    if spec.family in ("2r", "2i"):
        coeffs = spec.free_coeffs()
        b = spec.defining_poly(coeffs[0]).coeffs[0]
        kernels = _progression_kernels(b * b - 4 * coeffs.start, -4 * coeffs.step, len(coeffs))
        elem = ((lambda i: element(spec, coeffs[i])) if inst is spec
                else lambda i: inst.elements[i].number)
        return _bucket_report(spec, kernels, kernels, elem)
    if inst is spec:
        inst = build_set(spec)
    elems = inst.numbers()
    polys = [a.minpoly for a in elems]
    kernels = [squarefree_kernel(p.discriminant()) for p in polys]
    return _bucket_report(spec, [k if p.degree == 2 else p for p, k in zip(polys, kernels)],
                          [(p.degree, k) for p, k in zip(polys, kernels)], elems.__getitem__)
