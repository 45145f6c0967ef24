"""Tiling of the quadratic integers, common-index and generator searches,
and the quadratic layer of the totally real cubic families.

The real quadratic tiling is decided by integers alone, with no root
built.  Write a = (b,c)_sign = (-b + sign sqrt(D))/2 with D = b^2 - 4c > 0
not a square, and s = isqrt(D), so sqrt(D) lies strictly in (s, s + 1):

  * the floor of a is (-b + s) // 2 for sign = +1 and (-b - s - 1) // 2
    for sign = -1.  a lies strictly inside ((-b + s)/2, (-b + s + 1)/2),
    resp. ((-b - s - 1)/2, (-b - s)/2), an interval of length 1/2 whose
    left end is an integer or a half-integer, so no integer lies inside
    it and a has the floor of its left end;
  * trace classification: for v in (0,1) with minimal polynomial
    x^2 + B'x + C' (v = a - floor(a), by ``bc_shift_params``), only
    B' >= 1 (a set member) or B' <= -3 (the reflection is a member) is
    left; B' in {0,-1,-2} would force C' into an empty integer range;
  * rank rule: if q(0) < 0 < q(1) for q = x^2 + B x + C, then 0 lies
    between q's roots, so q's root in (0,1) is its larger root, which is
    the element of the instance 2r(B) when B >= 1.  x -> eps(x - n) keeps
    the order of the two roots for eps = +1 and reverses it for eps = -1,
    so eps(a - n) is that root exactly when eps * sign = 1.

The member check and the brute scan of ``verify_tiling`` read their
answers off these rules; ``tests/test_coverage.py`` checks them against
the number path (roots, floor by comparison, exact membership).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .algebraic import AlgebraicNumber, horner_in, irrational_real_roots
from .families import (InvalidParams, SetSpec, _unit_interval_root, bc_root, bc_shift_params,
                       iter_elements, quadratic_exception)
from .fields import FieldExpression, char_poly, express_in, squarefree_kernel
from .polynomials import MonicIntPoly, is_perfect_square


class NotQuadratic(ValueError):
    pass


class WrongSignature(ValueError):
    pass


class InvalidTarget(ValueError):
    pass


@dataclass(frozen=True)
class TileIndex:
    eps: int
    n: int
    family_union: str  # S2r | S2i-hat

    def to_json(self) -> dict:
        return {"eps": self.eps, "n": self.n, "family_union": self.family_union}


def _real_tile(b: int, c: int, sign: int) -> tuple[TileIndex, tuple[int, int]]:
    """Tile of the real quadratic integer (b,c)_sign plus the coefficients
    (B', C') of the minimal polynomial of the set element representing it,
    from the isqrt floor and the trace classification (module docstring)."""
    s = isqrt(b * b - 4 * c)
    k = (-b + s) // 2 if sign > 0 else (-b - s - 1) // 2
    bp, cp = bc_shift_params(b, c, -k)
    assert bp not in (0, -1, -2), "impossible trace for a unit-interval quadratic"
    if bp >= 1:
        return TileIndex(1, k, "S2r"), (bp, cp)
    # the reflection 1 - (a - k) = -a + (k + 1)
    return TileIndex(-1, k + 1, "S2r"), bc_shift_params(-b, c, k + 1)


def _imaginary_tile_coords(b: int, c: int, sign: int) -> tuple[TileIndex, int, int]:
    """Tile of (b,c)_sign with c > b^2/4; returns (tile, b0, c0) where
    (b0, c0) are the unshifted coordinates inside eps*S-hat."""
    if sign > 0:
        n = -b // 2 if b % 2 == 0 else (-b - 1) // 2
        b0 = b + 2 * n
        assert b0 in (0, -1)
    else:
        n = -b // 2 if b % 2 == 0 else (1 - b) // 2
        b0 = b + 2 * n
        assert b0 in (0, 1)
    c0 = c - n * n + b0 * n
    assert c0 >= 1
    return TileIndex(1 if sign > 0 else -1, n, "S2i-hat"), b0, c0


def tile_locate(a: AlgebraicNumber) -> TileIndex:
    """The unique (eps, n) with a in eps*S + n; S = S^{2,r} for real input,
    S-hat^{2,i} for imaginary."""
    if a.minpoly.degree != 2:
        raise NotQuadratic(f"{a.minpoly} has degree {a.minpoly.degree}")
    b, c = a.minpoly.coeffs
    if a.minpoly.discriminant() > 0:
        # the larger root lies above the mean -b/2 of the two
        return _real_tile(b, c, a.cmp_rational(Fraction(-b, 2)))[0]
    sign = 1 if a.half_plane > 0 else -1
    return _imaginary_tile_coords(b, c, sign)[0]


@dataclass(frozen=True)
class TilingReport:
    domain: str
    bound: int
    checked: int
    violations: tuple[dict, ...]
    qi_excluded: int  # Q(sqrt(-1)) elements, relevant to the unhatted domain
    ok: bool

    def to_json(self) -> dict:
        return {"domain": self.domain, "bound": self.bound, "checked": self.checked,
                "violations": list(self.violations), "qi_excluded": self.qi_excluded,
                "ok": self.ok}


def _real_member_check(tile: TileIndex, elem: tuple[int, int], sign: int) -> bool:
    """Whether the located representative eps*(a - n) of a = (b,c)_sign is
    an element of 2r(B'): C' lies in that instance's range, and the
    representative is the larger root of x^2 + B'x + C' by the rank rule
    (module docstring)."""
    bp, cp = elem
    return cp in SetSpec("2r", (bp,)).free_coeff_range() and tile.eps * sign == 1


def _real_membership_scan(b: int, c: int, sign: int, bound: int) -> list[TileIndex]:
    """Brute force: every (eps, n) with |n| <= bound+1 whose tile contains
    a = (b,c)_sign, by the coefficients of eps*(a - n).  By the rank rule
    (module docstring) only eps = sign can hit, so only it is scanned."""
    hits = []
    for n in range(-bound - 1, bound + 2):
        # q = x^2 + b2 x + c2, the minimal polynomial of sign*(a - n)
        b2, c2 = bc_shift_params(b, c, -n) if sign == 1 else bc_shift_params(-b, c, n)
        if c2 >= 0 or 1 + b2 + c2 <= 0 or b2 < 1:
            continue  # no set element among the roots of q
        # q has exactly one root in (0,1), its larger, and by the rank rule
        # that root is sign*(a - n)
        hits.append(TileIndex(sign, n, "S2r"))
    return hits


def verify_tiling(bound: int, domain: str = "real") -> TilingReport:
    if bound < 1:
        raise ValueError("bound must be positive")
    if domain == "real":
        return _verify_real(bound)
    if domain in ("imaginary", "imaginary-except-qi"):
        return _verify_imaginary(bound, hatted=(domain == "imaginary"))
    raise ValueError(f"unknown domain {domain!r}")


def _verify_real(bound: int) -> TilingReport:
    checked = 0
    violations = []
    for b in range(-bound, bound + 1):
        for c in range(-bound, bound + 1):
            disc = b * b - 4 * c
            if disc <= 0 or is_perfect_square(disc):
                continue
            for sign in (1, -1):
                checked += 1
                tile, elem = _real_tile(b, c, sign)
                # cross-check one: the representative is an element of its instance
                member = _real_member_check(tile, elem, sign)
                # cross-check two: the brute scan finds exactly this tile
                hits = _real_membership_scan(b, c, sign, bound)
                if not member or hits != [tile]:
                    violations.append({"b": b, "c": c, "sign": sign,
                                       "tile": tile.to_json(),
                                       "scan": [h.to_json() for h in hits],
                                       "member": member})
    return TilingReport("real", bound, checked, tuple(violations), 0, not violations)


def _s2i_instance_index(b0: int, c0: int) -> int | None:
    """Index n with the upper root of x^2 + b0 x + c0 in I_n^{2,i}, or None.

    Odd instances carry b0 = -1 and cover every c0 >= 1; even instances
    carry b0 = 0 and cover exactly the non-square c0 >= 1.
    """
    if b0 == -1:
        k = isqrt(c0 - 1)
        return 2 * k + 1
    if is_perfect_square(c0):
        return None
    return 2 * isqrt(c0)


def _s2i_member_check(b0: int, c0: int) -> bool:
    """Whether the upper root of x^2 + b0 x + c0 is an element of its
    instance: c0 lies in the instance's range, and the instance's
    polynomial for c0 is this one."""
    n = _s2i_instance_index(b0, c0)
    if n is None:
        return False
    spec = SetSpec("2i", (n,))
    return c0 in spec.free_coeff_range() and spec.defining_poly(c0).coeffs == (b0, c0)


def _verify_imaginary(bound: int, hatted: bool) -> TilingReport:
    checked = 0
    violations = []
    qi = 0
    for b in range(-bound, bound + 1):
        c_min = b * b // 4 + 1
        for c in range(c_min, bound + 1):
            for sign in (1, -1):
                checked += 1
                tile, b0, c0 = _imaginary_tile_coords(b, c, sign)
                in_qi = b % 2 == 0 and is_perfect_square(c - b * b // 4)
                if in_qi:
                    qi += 1
                # uniqueness scan: any other shift with admissible coordinates?
                hits = []
                for n in range(-bound - 1, bound + 2):
                    bb = b + 2 * n
                    admissible = (0, -1) if sign > 0 else (0, 1)
                    if bb in admissible and c - n * n + bb * n >= 1:
                        hits.append(n)
                unique = hits == [tile.n]
                if hatted:
                    if not unique:
                        violations.append({"b": b, "c": c, "sign": sign, "hits": hits})
                    continue
                # unhatted: the unshifted coordinates must name an actual set
                # element, except exactly for the Gaussian rationals Q(sqrt -1)
                b_inst = b0 if sign > 0 else -b0
                covered = unique and _s2i_member_check(b_inst, c0)
                if covered == in_qi:  # qi elements must be the exact misses
                    violations.append({"b": b, "c": c, "sign": sign,
                                       "covered": covered, "qi": in_qi})
    domain = "imaginary" if hatted else "imaginary-except-qi"
    return TilingReport(domain, bound, checked, tuple(violations), qi, not violations)


# ---------------------------------------------------------------------------
# Common index: the least n >= 1 with n^2 < m^2 j < (n+1)^2 solvable for
# every requested square-free j.


@dataclass(frozen=True)
class CommonIndexResult:
    targets: tuple[int, ...]
    n: int
    certificate: tuple[tuple[int, int, int], ...]  # (j, m, c = m^2 j)
    domain: str

    def to_json(self) -> dict:
        return {"targets": list(self.targets), "n": self.n, "domain": self.domain,
                "certificate": [{"j": j, "m": m, "c": c} for j, m, c in self.certificate],
                "instance": {"family": "2r" if self.domain == "real" else "2i",
                             "params": [2 * self.n]}}


def _index_witness(n: int, j: int) -> tuple[int, int] | None:
    m = isqrt(n * n // j)
    while m * m * j <= n * n:
        m += 1
    c = m * m * j
    return (m, c) if c < (n + 1) * (n + 1) else None


def find_common_index(targets, domain: str = "real") -> CommonIndexResult:
    targets = tuple(targets)
    if not targets:
        raise InvalidTarget("no target fields given")
    if len(set(targets)) != len(targets):
        raise InvalidTarget("targets must be pairwise distinct")
    for j in targets:
        if j < 2 or squarefree_kernel(j) != j:
            raise InvalidTarget(f"{j} is not a square-free integer >= 2")
    if domain not in ("real", "imaginary"):
        raise ValueError(f"unknown domain {domain!r}")
    n = 1
    while True:
        cert = []
        for j in targets:
            w = _index_witness(n, j)
            if w is None:
                break
            cert.append((j, w[0], w[1]))
        if len(cert) == len(targets):
            return CommonIndexResult(targets, n, tuple(cert), domain)
        n += 1


def common_index_witnesses(res: CommonIndexResult) -> list[AlgebraicNumber]:
    """The certified set elements: -n + sqrt(c) in I_{2n}^{2,r} for the real
    domain, sqrt(-c) in I_{2n}^{2,i} for the imaginary one."""
    n, real = res.n, res.domain == "real"
    return [bc_root(2 * n, n * n - c, 1) if real else bc_root(0, c, 1)
            for _, _, c in res.certificate]


# ---------------------------------------------------------------------------
# Generator search over Z-combinations of powers of the target root.


@dataclass(frozen=True)
class GeneratorWitness:
    coords: tuple[int, int, int]
    minpoly: MonicIntPoly
    spec: SetSpec
    free_coeff: int
    element: AlgebraicNumber
    certificate: FieldExpression

    def to_json(self) -> dict:
        return {"coords": list(self.coords), "minpoly": self.minpoly.to_json(),
                "spec": self.spec.to_json(), "free_coeff": self.free_coeff,
                "element": self.element.to_json(),
                "certificate": self.certificate.to_json()}


@dataclass(frozen=True)
class SearchResult:
    found: bool
    witness: GeneratorWitness | None
    coord_bound: int

    def to_json(self) -> dict:
        return {"found": self.found, "coord_bound": self.coord_bound,
                "witness": self.witness.to_json() if self.witness else None}


def _family_coeff_ok(family: str, c: int, d: int) -> bool:
    if family == "3ntr":
        return c >= 1 and -c <= d <= -1
    return c <= -3 and 1 <= d <= -c - 2


def _zero_trace_shell(shell: int, t1: int, t2: int):
    """The coords (a0, a1, a2) with max |a_i| = shell and zero trace
    3 a0 + a1 t1 + a2 t2, for t1 = Tr theta and t2 = Tr theta^2, in
    lexicographic order: the shell's surface alone, with a2 solved for
    when t2 != 0."""
    rng = range(-shell, shell + 1)
    for a0 in rng:
        for a1 in rng:
            # a2 may run over the whole range only when a0 or a1 is on the surface
            a2s = rng if abs(a0) == shell or abs(a1) == shell else (-shell, shell)
            rest = 3 * a0 + a1 * t1
            if t2:
                a2, r = divmod(-rest, t2)
                if not r and a2 in a2s:
                    yield a0, a1, a2
            elif not rest:
                for a2 in a2s:
                    yield a0, a1, a2


def find_generator(target: MonicIntPoly, family: str, coord_bound: int = 50) -> SearchResult:
    """First element of S_0^{family} (shells by max coordinate, then
    lexicographic) that generates the field of the target polynomial.

    A candidate polynomial char with family coefficients has char(0) = d and
    char(1) = 1 + c + d of opposite signs, and (0,1) holds one root only:
    three would have product |d| < 1 (the uniqueness argument of the
    ``families`` docstring).  ``families._unit_interval_root`` builds that
    root with no Sturm count, after one divisor scan of d; if char is
    reducible, the root it returns is that of the quadratic factor, so a
    cubic minimal polynomial of the root is the one irreducibility decision
    per candidate.

    The target is scanned once too.  disc = 0 means a repeated root, so a
    reducible target.  Otherwise ``irrational_real_roots`` splits off the
    integer roots in one scan, and the target is irreducible exactly when
    it keeps a real root whose minimal polynomial is the target itself: a
    cubic has a real root, and a reducible one leaves its quadratic factor
    or nothing.

    A family polynomial has no x^2 term, which is minus the trace of the
    candidate a0 + a1 theta + a2 theta^2, 3 a0 + a1 Tr theta + a2 Tr theta^2:
    linear in the coordinates.  So ``_zero_trace_shell`` walks the surface
    of each shell and yields only the candidates of zero trace, in the
    order of a walk over the whole cube, and ``char_poly`` is built for
    those alone.  Zero trace also rules out a1 = a2 = 0, which would leave
    3 a0 = 0 off every shell."""
    if target.degree != 3:
        raise InvalidTarget(f"{target} is not an irreducible cubic")
    disc = target.discriminant()
    roots = irrational_real_roots(target) if disc else []
    if not roots or roots[0].minpoly != target:
        raise InvalidTarget(f"{target} is not an irreducible cubic")
    if family not in ("3ntr", "3tr"):
        raise ValueError(f"unknown family {family!r}")
    if (disc < 0) != (family == "3ntr"):
        raise WrongSignature(f"disc({target}) = {disc} does not fit {family}")
    theta = roots[0]
    b, c, _ = target.coeffs
    for shell in range(1, coord_bound + 1):
        # Tr theta = -b and Tr theta^2 = b^2 - 2c
        for coords in _zero_trace_shell(shell, -b, b * b - 2 * c):
            char = MonicIntPoly(char_poly(target, coords))
            _, c1, d = char.coeffs
            if not _family_coeff_ok(family, c1, d):
                continue
            elem = _unit_interval_root(char)
            if elem.minpoly.degree != 3:
                continue  # char has an integer root
            if not horner_in(theta, coords, (0, 1, 1), 64):
                continue  # the value, a root of char, is irrational
            spec = SetSpec(family, (0, c1))
            cert = FieldExpression(theta, tuple(Fraction(x) for x in coords))
            assert cert.verify_root_of(char)
            return SearchResult(True, GeneratorWitness(
                coords, char, spec, d, elem, cert), coord_bound)
    return SearchResult(False, None, coord_bound)


# ---------------------------------------------------------------------------
# The quadratic layer of S_m^{3,tr}: exception index bookkeeping.

EXCLUDED_INDICES = {0: (-2, -1, 0, 1), -1: (-2, -1, 0), -2: (-2, -1, 0), -3: (-3, -2, -1, 0)}

# the only single-element instances: I_1 = {(-1+sqrt5)/2}, I_-3 = {(3-sqrt5)/2};
# the layer of S_0 misses the first and the layer of S_-3 misses the second
GOLDEN_PLUS = MonicIntPoly.quadratic(1, -1)
GOLDEN_REFL = MonicIntPoly.quadratic(-3, 1)


@dataclass(frozen=True)
class QuadLayerReport:
    m: int
    c_bound: int
    exceptions: tuple[tuple[int, int, int], ...]  # (c, index n, quad const)
    indices_seen: tuple[int, ...]
    violations: tuple[dict, ...]
    golden_plus_seen: bool
    golden_refl_seen: bool

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {"m": self.m, "c_bound": self.c_bound,
                "exceptions": [{"c": c, "index": n, "quad_const": q}
                               for c, n, q in self.exceptions],
                "indices_seen": list(self.indices_seen),
                "violations": list(self.violations),
                "golden_plus_seen": self.golden_plus_seen,
                "golden_refl_seen": self.golden_refl_seen, "ok": self.ok}


def quad_layer_report(m: int, c_bound: int) -> QuadLayerReport:
    """Scan the quadratic exceptions of S_m^{3,tr} for instance parameters
    down to -c_bound and audit them against the layer identity: every
    exception lies in I_n^{2,r} for an index n outside EXCLUDED_INDICES[m]."""
    if m not in EXCLUDED_INDICES:
        raise InvalidParams("layer identity needs m in {0,-1,-2,-3}")
    if c_bound < 3:
        raise InvalidParams("c_bound must be at least 3")
    excluded = set(EXCLUDED_INDICES[m])
    exceptions = []
    violations = []
    g_plus = g_refl = False
    for c in range(-m - 3, -c_bound - 1, -1):
        q = quadratic_exception(m, c)
        if q is None:
            continue
        n_idx, quad_const = q.minpoly.coeffs
        exceptions.append((c, n_idx, quad_const))
        if n_idx in excluded:
            violations.append({"c": c, "index": n_idx, "reason": "excluded index"})
        in_range = (-n_idx <= quad_const <= -1) if n_idx >= 1 else (1 <= quad_const <= -n_idx - 2)
        if not in_range:
            violations.append({"c": c, "index": n_idx, "reason": "outside instance range"})
        g_plus = g_plus or q.minpoly == GOLDEN_PLUS
        g_refl = g_refl or q.minpoly == GOLDEN_REFL
    indices = tuple(sorted({n for _, n, _ in exceptions}))
    return QuadLayerReport(m, c_bound, tuple(exceptions), indices,
                           tuple(violations), g_plus, g_refl)


# ---------------------------------------------------------------------------
# Trace obstruction: I_{-1,c}^{3,ntr} elements all have trace 1, while the
# algebraic integers of Q(cbrt 2) = Q[x]/(x^3-2) all have trace 0 mod 3.


@dataclass(frozen=True)
class ObstructionReport:
    c_max: int
    elements_checked: int
    hits: tuple[dict, ...]

    @property
    def ok(self) -> bool:
        return not self.hits

    def to_json(self) -> dict:
        return {"c_max": self.c_max, "elements_checked": self.elements_checked,
                "hits": list(self.hits), "ok": self.ok,
                "note": "trace of every checked element is 1; Z[cbrt2] traces are 0 mod 3"}


def trace_obstruction_demo(c_max: int = 60) -> ObstructionReport:
    target = MonicIntPoly.cubic(0, 0, -2)
    theta = irrational_real_roots(target)[0]
    checked = 0
    hits = []
    for c in range(2, c_max + 1):
        # streamed: no instance is held, so the scan allocates next to nothing
        for e in iter_elements(SetSpec("3ntr", (-1, c))):
            checked += 1
            assert e.number.minpoly.coeffs[0] == -1  # trace 1
            if express_in(e.number, theta) is not None:
                hits.append({"c": c, "free_coeff": e.free_coeff})
    return ObstructionReport(c_max, checked, tuple(hits))
