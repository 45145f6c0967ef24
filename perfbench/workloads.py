"""Seeded workloads: the inputs, the operations on them and the output checks.

Each workload is a batch closed loop: ``build`` turns a seed into a list of
``Op`` records, the worker runs them one after another (the next starts when
the previous returns) and checks every output once the timed phase is over.
The seed picks only the inputs, and every repetition of a run gets the same
batch.

Sizes are not drawn freely.  The sweeps run fixed groups of ops of about
equal cost, each group about twice as costly as the one before, with the
same number of ops in every group.  With five groups the median op lies in
the middle of the third group and the 90th percentile in the middle of the
fifth, never on the step between two groups.  The seed picks the instances
within a group: the cubic m (so n), a quadratic n within 2% of its group's
size, the alphas and shifts of the field-accept pairs, the tiling bound.
So batches of different seeds cost about the same while touching different
instances.

Ops call algseeds through module attributes (``fields.express_in``, not a
name imported here), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

from algseeds import algebraic, bits, cli, coverage, families, fields, tables, uniformity
from algseeds.families import SetSpec
from algseeds.polynomials import MonicIntPoly

WORKLOADS = ("sweep-cubic", "sweep-quad", "field-accept", "analysis")

CUBIC_M = (0, -1, -2, -3)   # the paper's guaranteed range for both cubic families
CUBIC_N_MAX = 60            # |n| bound of the paper's cubic sweep


@dataclass
class Op:
    """One timed call into algseeds and the check of its output."""
    kind: str
    label: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]
    decisions: Callable[[Any], int] = lambda result: 0   # pair decisions made


def _grid(lo: int, hi: int, count: int) -> list[int]:
    """count sizes evenly spaced on a log scale over [lo, hi]."""
    return [round(lo * (hi / lo) ** ((j + 0.5) / count)) for j in range(count)]


def _cubic_options(family: str, k: int, n_max: int = CUBIC_N_MAX) -> list[SetSpec]:
    """The guaranteed-range cubic instances with exactly k elements and |n| <= n_max."""
    if family == "3ntr":   # cardinality m + n; needs m^2 <= 3n
        params = [(m, k - m) for m in CUBIC_M if m * m <= 3 * (k - m) <= 3 * n_max]
    else:                  # cardinality -m - n - 2
        params = [(m, -m - k - 2) for m in CUBIC_M if -m - k - 2 >= -n_max]
    return [SetSpec(family, p) for p in params]


def _cubic_spec(rng: random.Random, family: str, k: int,
                n_max: int = CUBIC_N_MAX) -> SetSpec:
    return rng.choice(_cubic_options(family, k, n_max))


def _quad_spec(family: str, n: int) -> SetSpec:
    if family == "2r-":
        return SetSpec("2r", (-n,))
    return SetSpec(family.rstrip("+"), (n,))


def _label(spec: SetSpec) -> str:
    return f"{spec.family}{spec.params}"


# ---------------------------------------------------------------------------
# sweep-cubic and sweep-quad: build_set then independence_report, as the
# ``algseeds independence`` subcommand does.


def _sweep_op(spec: SetSpec) -> Op:
    k = spec.cardinality()

    def check(rep) -> bool:
        return (not rep.collisions and rep.pairs_checked == k * (k - 1) // 2
                and rep.in_guaranteed_range and len(rep.field_ids) == k)

    return Op("independence", _label(spec),
              lambda: fields.independence_report(families.build_set(spec)),
              check, lambda rep: rep.pairs_checked)


# Cost groups of the sweeps.  A 3tr pair costs about 1.4 times a 3ntr pair,
# so each cubic group pairs a 3tr cardinality with a somewhat larger 3ntr one
# of the same cost.  A quadratic group is one n for 2r(n) and 2r(-n), and a
# 1.2 times larger n for 2i, whose pairs cost less.
CUBIC_GROUPS = ((4, 5), (7, 8), (10, 12), (14, 17), (20, 24))   # (3tr k, 3ntr k)
QUAD_GROUPS = (50, 100, 200, 400, 800)
SMOKE_CUBIC_GROUPS = ((4, 5), (7, 8))
SMOKE_QUAD_GROUPS = (20, 40)


def _sweep_cubic(rng: random.Random, smoke: bool) -> list[Op]:
    """Two instances of each family per group, with distinct m."""
    ops = []
    for k_tr, k_ntr in (SMOKE_CUBIC_GROUPS if smoke else CUBIC_GROUPS):
        for family, k in (("3tr", k_tr), ("3ntr", k_ntr)):
            ops += [_sweep_op(spec) for spec in rng.sample(_cubic_options(family, k), 2)]
    return ops


def _sweep_quad(rng: random.Random, smoke: bool) -> list[Op]:
    """Two instances of each of 2r(n), 2r(-n) and 2i(1.2 n) per group."""
    return [_sweep_op(_quad_spec(f, round(n * scale * rng.uniform(0.98, 1.02))))
            for n in (SMOKE_QUAD_GROUPS if smoke else QUAD_GROUPS)
            for f, scale in (("2r+", 1), ("2r-", 1), ("2i", 1.2)) for _ in range(2)]


# ---------------------------------------------------------------------------
# field-accept: pairs with beta in Q(alpha), so express_in must accept.


def _accept_op(label: str, beta, alpha, coeffs: tuple[int, int, int]) -> Op:
    want = tuple(Fraction(c) for c in coeffs)

    def check(cert) -> bool:
        return (cert is not None and cert.coeffs == want
                and cert.verify_root_of(beta.minpoly))

    return Op("express_in", label, lambda: fields.express_in(beta, alpha), check,
              lambda cert: 1)


def _accept_pairs(rng: random.Random, label: str, alphas) -> list[Op]:
    """Two images per alpha: 1 - alpha, and k - alpha for a seeded k."""
    ops = []
    for i, a in enumerate(alphas):
        ops.append(_accept_op(f"{label}[{i}] 1-a", a.reflected(), a, (1, -1, 0)))
        k = rng.randint(-3, 3)
        ops.append(_accept_op(f"{label}[{i}] {k}-a", a.negated().plus_int(k), a, (k, -1, 0)))
    return ops


def _accept_anchors() -> list[Op]:
    """The certified 3ntr(3,3) collision (beta = 2 alpha + alpha^2) and the
    generators that criterion 09 finds for Q(cbrt 2) and for x^3 - 3x + 1."""
    def root(*c):
        return algebraic.AlgebraicNumber.real_root(MonicIntPoly.cubic(*c), 0, 1)

    def first_root(*c):
        return algebraic.irrational_real_roots(MonicIntPoly.cubic(*c))[0]

    return [_accept_op("3ntr(3,3) collision", root(3, 3, -3), root(3, 3, -1), (0, 2, 1)),
            _accept_op("cbrt2 generator", root(0, 6, -2), first_root(0, 0, -2), (0, -1, 1)),
            _accept_op("x^3-3x+1 generator", root(0, -3, 1), first_root(0, -3, 1), (2, -1, -1))]


def _field_accept(rng: random.Random, smoke: bool) -> list[Op]:
    sizes, quad_families, quad_take = (
        ([6], ("2r+",), 4) if smoke else (_grid(30, 45, 4), ("2r+", "2r-", "2i"), 20))
    ops = _accept_anchors()
    for k in sizes:
        for f in ("3ntr", "3tr"):
            spec = _cubic_spec(rng, f, k)
            ops += _accept_pairs(rng, _label(spec), families.build_set(spec).numbers())
    for f in quad_families:
        spec = _quad_spec(f, rng.randint(50, 150))
        alphas = rng.sample(families.build_set(spec).numbers(), quad_take)
        ops += _accept_pairs(rng, _label(spec), alphas)
    return ops


# ---------------------------------------------------------------------------
# analysis: per-instance reports, the CLI, and the fixed audits.


def _cli_op(label: str, argv: list[str], check_payload: Callable[[dict], bool]) -> Op:
    def call():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def check(result) -> bool:
        code, text = result
        return code == 0 and check_payload(json.loads(text))

    return Op("cli." + argv[0], label, call, check)


def _cli_args(spec: SetSpec) -> list[str]:
    args = ["--family", spec.family, "--n", str(spec.params[-1])]
    return args + (["--m", str(spec.params[0])] if len(spec.params) == 2 else [])


def _instance_ops(spec: SetSpec) -> list[Op]:
    inst = families.build_set(spec)
    k = len(inst.elements)
    label = _label(spec)

    def check_report(rep) -> bool:
        return (rep.n == k and sum(rep.half_counts) == k
                and (rep.bound_check is None or rep.bound_check.satisfied))

    def check_split(split) -> bool:
        below, above = split
        return below + above == k and abs(below - above) <= 1

    ops = [Op("uniformity_report", label, lambda: uniformity.uniformity_report(inst),
              check_report),
           Op("half_split", label, lambda: uniformity.half_split(inst), check_split)]
    if spec.family != "2i":   # bit streams need real elements
        def expansions():
            return [(bits.binary_expansion(a, 48), bits.binary_expansion(a, 24),
                     bits.binary_expansion(a.reflected(), 48)) for a in inst.numbers()]

        def check_bits(streams) -> bool:
            return len(streams) == k and all(
                long.bits[:24] == short.bits and mirror.bits == long.complemented()
                for long, short, mirror in streams)

        ops.append(Op("binary_expansion", label, expansions, check_bits))
    args = _cli_args(spec)
    ops.append(_cli_op(label, ["gen", *args],
                       lambda out: out["cardinality"] == k and len(out["elements"]) == k))
    ops.append(_cli_op(label, ["uniformity", *args], lambda out: out["n"] == k))
    return ops


def _analysis_spec(rng: random.Random, family: str, k: int) -> SetSpec:
    if family == "2r":
        return SetSpec("2r", (k,) if rng.random() < 0.5 else (-k - 2,))
    if family == "2i":
        return SetSpec("2i", (k,))
    return _cubic_spec(rng, family, k, n_max=k + 5)


def _fixed_ops(rng: random.Random, root: Path, smoke: bool) -> list[Op]:
    bound = rng.choice((4, 5) if smoke else (10, 11))
    ops = [Op("verify_tiling", f"{d}@{bound}",
              lambda d=d: coverage.verify_tiling(bound, d),
              lambda rep: rep.ok and rep.checked > 0)
           for d in ("real", "imaginary", "imaginary-except-qi")]
    c_max = 8 if smoke else 24
    ops.append(Op("trace_obstruction_demo", f"c_max={c_max}",
                  lambda: coverage.trace_obstruction_demo(c_max),
                  lambda rep: rep.ok and rep.elements_checked == sum(range(1, c_max)),
                  lambda rep: rep.elements_checked))
    for m in CUBIC_M:
        ops.append(Op("quad_layer_report", f"m={m}",
                      lambda m=m: coverage.quad_layer_report(m, 200),
                      lambda rep, m=m: (rep.ok and bool(rep.exceptions) and set(
                          coverage.EXCLUDED_INDICES[m]).isdisjoint(rep.indices_seen))))
    for target, family, coords in (((0, 0, -2), "3ntr", (0, -1, 1)),
                                   ((0, -3, 1), "3tr", (2, -1, -1))):
        ops.append(Op("find_generator", f"{family} {target}",
                      lambda t=target, f=family: coverage.find_generator(
                          MonicIntPoly.cubic(*t), f),
                      lambda res, c=coords: (res.found and res.witness.coords == c
                                             and res.witness.certificate.verify_root_of(
                                                 res.witness.minpoly))))
    for number in sorted(tables.TABLES):
        golden = (root / "tests" / "golden" / f"table{number}.txt").read_text(encoding="utf-8")
        ops.append(Op("render_table", f"table {number}",
                      lambda number=number: tables.render_table(number),
                      lambda text, golden=golden: text == golden))
    return ops


def _analysis(rng: random.Random, smoke: bool, root: Path) -> list[Op]:
    count, k_max = (1, 12) if smoke else (6, 120)
    ops = []
    for k in _grid(6, k_max, count):
        for f in families.FAMILIES:
            ops += _instance_ops(_analysis_spec(rng, f, k))
    return ops + _fixed_ops(rng, root, smoke)


# ---------------------------------------------------------------------------


def build(workload: str, seed: int, root: Path, smoke: bool = False) -> list[Op]:
    """The batch of a workload, a function of the seed only; root is the
    checkout holding src/ and tests/golden/."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "sweep-cubic":
        return _sweep_cubic(rng, smoke)
    if workload == "sweep-quad":
        return _sweep_quad(rng, smoke)
    if workload == "field-accept":
        return _field_accept(rng, smoke)
    if workload == "analysis":
        return _analysis(rng, smoke, root)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def self_test_ops() -> list[Op]:
    """Two ops that must fail without stopping the run: a correct answer
    checked against a deliberately wrong expected value, and an express_in
    whose bit cap is below its starting precision, which raises
    PrecisionExhausted."""
    alpha = algebraic.AlgebraicNumber.real_root(MonicIntPoly.cubic(0, -3, 1), 0, 1)
    wrong = _accept_op("self-test: wrong expected value", alpha.reflected(), alpha, (2, -1, 0))
    capped = Op("express_in", "self-test: bit cap below start",
                lambda: fields.express_in(alpha.reflected(), alpha,
                                          start_bits=16, max_bits=8),
                lambda cert: cert is not None)
    return [wrong, capped]
