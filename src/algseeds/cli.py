"""Command line front end.

Every subcommand emits a deterministic report in one of three formats:
json (canonical), csv, or pipe-separated table text.  Exit status doubles
as a verdict: 0 means every assertion passed, 1 means violations were
found (reported, not raised), 2 means the invocation itself was invalid
(argparse or one of the package's input errors), 3 means a refinement hit
its bit cap before the run was decided, and 4 means any other exception, a
fault in the package, reported as ``internal error: <Type>: <message>``.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

from .algebraic import AffineValue, AlgebraicNumber, PrecisionExhausted, round_half_even
from .bits import binary_expansion, bit_stats, complement_check
from .coverage import (InvalidTarget, NotQuadratic, WrongSignature,
                       common_index_witnesses, find_common_index,
                       find_generator, quad_layer_report, verify_tiling)
from .families import (FAMILIES, InvalidParams, SetSpec, build_set,
                       classify_exception, quadratic_exception)
from .fields import CUBIC_RANGE_PARAMS, independence_report
from .polynomials import MonicIntPoly
from .tables import TABLES, table_rows
from .uniformity import TooFewElements, uniformity_report

EXIT_OK, EXIT_VIOLATION, EXIT_USAGE, EXIT_UNDECIDED, EXIT_INTERNAL = 0, 1, 2, 3, 4


@dataclass(frozen=True)
class Outcome:
    payload: dict
    header: tuple[str, ...]
    rows: tuple[tuple, ...]
    code: int
    text: str | None = None  # overrides the generic table rendering


def _value_str(num: AlgebraicNumber) -> str:
    if num.is_real:
        return num.decimal(5)
    b, c = num.minpoly.coeffs
    re = round_half_even(Fraction(-b, 2), 5)
    im = AffineValue(AlgebraicNumber.sqrt_of(4 * c - b * b),
                     Fraction(1, 2), Fraction(0)).decimal(5)
    return f"{re} {'+' if num.half_plane > 0 else '-'} {im} i"


def _check(ns: argparse.Namespace) -> None:
    """The bound and precision checks argparse cannot express."""
    if any(getattr(ns, key, 1) < 1 for key in
           ("bound", "coord_bound", "stream_bits", "quad_bound", "cubic_bound")):
        raise InvalidParams("bounds must be positive")
    if getattr(ns, "precision", 64) < 32:
        raise InvalidParams("precision must be at least 32 bits")


def _spec(ns: argparse.Namespace) -> SetSpec:
    """The instance named by --family, --m and --n; --m only for cubics."""
    if ns.family in ("3ntr", "3tr") and ns.m is None:
        raise InvalidParams(f"family {ns.family} needs --m")
    if ns.family in ("2r", "2i") and ns.m is not None:
        raise InvalidParams(f"family {ns.family} takes no --m")
    return SetSpec(ns.family, (ns.n,) if ns.m is None else (ns.m, ns.n))


def _cmd_gen(ns: argparse.Namespace) -> Outcome:
    spec = _spec(ns)
    inst = build_set(spec)
    payload = inst.to_json()
    rows = []
    for i, e in enumerate(inst.elements):
        payload["elements"][i]["value"] = _value_str(e.number)
        rows.append((spec.family, " ".join(map(str, spec.params)), e.free_coeff,
                     str(e.number.minpoly), payload["elements"][i]["value"]))
    return Outcome(payload, ("family", "params", "free_coeff", "minpoly", "value"),
                   tuple(rows), EXIT_OK)


def _cmd_uniformity(ns: argparse.Namespace) -> Outcome:
    rep = uniformity_report(build_set(_spec(ns)), bits=ns.precision)
    payload = rep.to_json()
    ok = rep.bound_check is None or rep.bound_check.satisfied
    row = (rep.n,
           payload["max_dev"]["decimal"] if payload["max_dev"] else None,
           payload["constant"]["decimal"] if payload["constant"] else None,
           payload["discrepancy"]["decimal"],
           rep.half_counts[0], rep.half_counts[1],
           rep.bound_check.satisfied if rep.bound_check else "n/a")
    return Outcome(payload, ("n", "max_dev", "constant", "discrepancy",
                             "below_half", "above_half", "bound_ok"),
                   (row,), EXIT_OK if ok else EXIT_VIOLATION)


def _cmd_independence(ns: argparse.Namespace) -> Outcome:
    rep = independence_report(_spec(ns))
    payload = rep.to_json()
    rows = [(c.i, c.j, " ".join(str(x) for x in c.certificate.coeffs))
            for c in rep.collisions]
    code = EXIT_OK if rep.independent else EXIT_VIOLATION
    return Outcome(payload, ("element_i", "element_j", "certificate"),
                   tuple(rows), code)


def _cmd_exception(ns: argparse.Namespace) -> Outcome:
    b, c = ns.m, ns.n
    rule = classify_exception(b, c)
    exc = quadratic_exception(b, c)
    payload = {"b": b, "c": c, "case": rule.case, "index": rule.n,
               "exception": exc.to_json() if exc else None}
    row = (b, c, rule.case, rule.n,
           str(exc.minpoly) if exc else "none", exc.d if exc else "")
    return Outcome(payload, ("b", "c", "case", "index", "minpoly", "free_coeff"),
                   (row,), EXIT_OK)


def _cmd_tables(ns: argparse.Namespace) -> Outcome:
    rows = table_rows(ns.table)
    payload = {"table": ns.table, "rows": rows}
    split = tuple(tuple(part.strip() for part in r.split("|")) for r in rows)
    width = max(len(r) for r in split)
    header = ("polynomial",) + tuple(f"root{i}" for i in range(1, width))
    return Outcome(payload, header, split, EXIT_OK,
                   text="\n".join(rows) + "\n")


def _cmd_tiling(ns: argparse.Namespace) -> Outcome:
    rep = verify_tiling(ns.bound, ns.domain)
    payload = rep.to_json()
    row = (rep.domain, rep.bound, rep.checked, len(rep.violations),
           rep.qi_excluded, rep.ok)
    return Outcome(payload, ("domain", "bound", "checked", "violations",
                             "qi_excluded", "ok"), (row,),
                   EXIT_OK if rep.ok else EXIT_VIOLATION)


def _cmd_find_index(ns: argparse.Namespace) -> Outcome:
    res = find_common_index(ns.targets, ns.domain)
    witnesses = common_index_witnesses(res)
    payload = res.to_json()
    payload["witnesses"] = [w.to_json() for w in witnesses]
    rows = []
    for (j, m, c), w in zip(res.certificate, witnesses):
        rows.append((j, m, c, str(w.minpoly), _value_str(w)))
    payload["n"] = res.n
    return Outcome(payload, ("target", "multiplier", "c", "minpoly", "value"),
                   tuple(rows), EXIT_OK)


def _cmd_find_generator(ns: argparse.Namespace) -> Outcome:
    target = MonicIntPoly.cubic(*ns.coeffs)
    res = find_generator(target, ns.family, ns.coord_bound)
    payload = res.to_json()
    payload["target"] = str(target)
    if res.found:
        w = res.witness
        rows = ((str(target), " ".join(map(str, w.coords)), str(w.minpoly),
                 w.free_coeff, w.element.decimal(5)),)
    else:
        rows = ((str(target), "not found", "", "", ""),)
    return Outcome(payload, ("target", "coords", "minpoly", "free_coeff", "value"),
                   rows, EXIT_OK if res.found else EXIT_VIOLATION)


def _cmd_bits(ns: argparse.Namespace) -> Outcome:
    spec = _spec(ns)
    inst = build_set(spec)
    streams = []
    rows = []
    for e in inst.elements:
        s = binary_expansion(e.number, ns.stream_bits)
        st = bit_stats(s)
        streams.append({"free_coeff": e.free_coeff, "bits": s.as_text(),
                        "hex": s.as_hex(), "stats": st.to_json()})
        rows.append((e.free_coeff, s.as_text(), s.as_hex(),
                     st.ones, st.zeros, st.longest_run, st.runs_count))
    payload = {"spec": spec.to_json(), "length": ns.stream_bits,
               "streams": streams}
    return Outcome(payload, ("free_coeff", "bits", "hex", "ones", "zeros",
                             "longest_run", "runs_count"), tuple(rows), EXIT_OK)


def _cmd_complement(ns: argparse.Namespace) -> Outcome:
    spec = _spec(ns)
    rep = complement_check(build_set(spec))
    payload = rep.to_json()
    row = (spec.family, " ".join(map(str, spec.params)), rep.size,
           len(rep.violations), rep.ok)
    return Outcome(payload, ("family", "params", "size", "violations", "ok"),
                   (row,), EXIT_OK if rep.ok else EXIT_VIOLATION)


def _cmd_layer(ns: argparse.Namespace) -> Outcome:
    rep = quad_layer_report(ns.m, ns.bound)
    payload = rep.to_json()
    rows = tuple((c, n, q) for c, n, q in rep.exceptions)
    return Outcome(payload, ("c", "index", "quad_const"), rows,
                   EXIT_OK if rep.ok else EXIT_VIOLATION)


def _cmd_sweep(ns: argparse.Namespace) -> Outcome:
    """The instances of the paper's independence claim, by family: |n| <=
    quad_bound for the quadratic families, |n| <= cubic_bound and m in
    CUBIC_RANGE_PARAMS for the cubic ones, from each m's smallest admissible n.
    Each is decided from its spec: a 2r or 2i one from its kernels, with no
    element built (``fields`` docstring)."""
    qb, cb = ns.quad_bound, ns.cubic_bound
    sweep = (
        ("2r", (SetSpec("2r", (n,))
                for n in [*range(1, qb + 1), *range(-3, -qb - 1, -1)])),
        ("2i", (SetSpec("2i", (n,)) for n in range(1, qb + 1))),
        ("3ntr", (SetSpec("3ntr", (m, n)) for m in CUBIC_RANGE_PARAMS
                  for n in range(1 - m, cb + 1))),
        ("3tr", (SetSpec("3tr", (m, n)) for m in CUBIC_RANGE_PARAMS
                 for n in range(-m - 3, -cb - 1, -1))),
    )
    families = []
    for family, specs in sweep:
        instances = pairs = 0
        collisions = []
        for spec in specs:
            rep = independence_report(spec)
            instances += 1
            pairs += rep.pairs_checked
            collisions += [{"spec": spec.to_json(), **c.to_json()}
                           for c in rep.collisions]
        families.append({"family": family, "instances": instances,
                         "pairs_checked": pairs, "collisions": collisions})
    independent = not any(f["collisions"] for f in families)
    payload = {"quad_bound": qb, "cubic_bound": cb,
               "families": families, "independent": independent}
    rows = tuple((f["family"], f["instances"], f["pairs_checked"],
                  len(f["collisions"])) for f in families)
    return Outcome(payload, ("family", "instances", "pairs_checked", "collisions"),
                   rows, EXIT_OK if independent else EXIT_VIOLATION)


def _render(outcome: Outcome, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(outcome.payload, indent=2, ensure_ascii=False) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(outcome.header)
        w.writerows(outcome.rows)
        return buf.getvalue()
    if outcome.text is not None:
        return outcome.text
    lines = [" | ".join(str(x) for x in outcome.header)]
    lines += [" | ".join(str(x) for x in row) for row in outcome.rows]
    return "\n".join(lines) + "\n"


def _add_family_flags(p: argparse.ArgumentParser, families=FAMILIES):
    p.add_argument("--family", required=True, choices=families)
    p.add_argument("--n", type=int, required=True,
                   help="instance parameter (second parameter for cubics)")
    p.add_argument("--m", type=int, default=None,
                   help="first parameter, cubic families only")


def _add_common_flags(p: argparse.ArgumentParser, default_fmt="json"):
    p.add_argument("--format", choices=("json", "csv", "table"),
                   default=default_fmt, dest="fmt")
    p.add_argument("--out", default=None, help="write the report to this path")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once: each parse_args call returns a new namespace."""
    ap = argparse.ArgumentParser(
        prog="algseeds",
        description="exact constructions and checks for algebraic-integer seed sets")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gen", help="construct a set instance")
    p.set_defaults(handler=_cmd_gen)
    _add_family_flags(p)
    _add_common_flags(p)

    p = sub.add_parser("uniformity", help="gap statistics, discrepancy, half split")
    p.set_defaults(handler=_cmd_uniformity)
    _add_family_flags(p)
    p.add_argument("--precision", type=int, default=64,
                   help="working precision in bits, at least 32")
    _add_common_flags(p)

    p = sub.add_parser("independence", help="pairwise field-membership audit")
    p.set_defaults(handler=_cmd_independence)
    _add_family_flags(p)
    _add_common_flags(p)

    p = sub.add_parser("exception", help="quadratic-exception classification")
    p.set_defaults(handler=_cmd_exception)
    p.add_argument("--m", type=int, required=True, help="layer parameter b")
    p.add_argument("--n", type=int, required=True, help="instance parameter c")
    _add_common_flags(p)

    p = sub.add_parser("tables", help="reference root tables")
    p.set_defaults(handler=_cmd_tables)
    p.add_argument("table", type=int, choices=sorted(TABLES))
    _add_common_flags(p, default_fmt="table")

    p = sub.add_parser("tiling", help="verify the quadratic tiling up to a bound")
    p.set_defaults(handler=_cmd_tiling)
    p.add_argument("--bound", type=int, default=10)
    p.add_argument("--domain", default="real",
                   choices=("real", "imaginary", "imaginary-except-qi"))
    _add_common_flags(p)

    p = sub.add_parser("find-index", help="least common instance index")
    p.set_defaults(handler=_cmd_find_index)
    p.add_argument("targets", type=int, nargs="+",
                   help="square-free integers >= 2 naming quadratic fields")
    p.add_argument("--domain", default="real", choices=("real", "imaginary"))
    _add_common_flags(p)

    p = sub.add_parser("find-generator", help="search a family for a field generator")
    p.set_defaults(handler=_cmd_find_generator)
    p.add_argument("coeffs", type=int, nargs=3, metavar="C",
                   help="cubic coefficients below the leading 1")
    p.add_argument("--family", required=True, choices=("3ntr", "3tr"))
    p.add_argument("--coord-bound", type=int, default=50, dest="coord_bound")
    _add_common_flags(p)

    p = sub.add_parser("bits", help="binary expansions of instance elements")
    p.set_defaults(handler=_cmd_bits)
    _add_family_flags(p, families=("2r", "3ntr", "3tr"))
    p.add_argument("--bits", type=int, default=64, dest="stream_bits",
                   help="stream length")
    _add_common_flags(p)

    p = sub.add_parser("complement-check", help="alpha in the set excludes 1-alpha")
    p.set_defaults(handler=_cmd_complement)
    _add_family_flags(p, families=("2r", "3ntr", "3tr"))
    _add_common_flags(p)

    p = sub.add_parser("layer", help="quadratic layer audit of a 3tr union")
    p.set_defaults(handler=_cmd_layer)
    p.add_argument("--m", type=int, required=True, help="layer parameter")
    p.add_argument("--bound", type=int, default=30,
                   help="scan instance parameters down to -bound")
    _add_common_flags(p)

    p = sub.add_parser("sweep", help="independence audit over the paper's parameter range")
    p.set_defaults(handler=_cmd_sweep)
    p.add_argument("--quad-bound", type=int, default=200, dest="quad_bound",
                   help="largest |n| for the quadratic families")
    p.add_argument("--cubic-bound", type=int, default=60, dest="cubic_bound",
                   help="largest |n| for the cubic families, m in {0,-1,-2,-3}")
    _add_common_flags(p)

    return ap


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        _check(ns)
        outcome = ns.handler(ns)
    except (InvalidParams, InvalidTarget, NotQuadratic, WrongSignature,
            TooFewElements) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except PrecisionExhausted as e:
        print(f"undecided: {e}", file=sys.stderr)
        return EXIT_UNDECIDED
    except Exception as e:  # a fault in the package, not in the invocation
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL
    text = _render(outcome, ns.fmt)
    if not ns.out:
        sys.stdout.write(text)
        return outcome.code
    try:
        with open(ns.out, "w", encoding="utf-8") as f:
            f.write(text)
    except OSError as e:
        print(f"error: cannot write {ns.out}: {e.strerror}", file=sys.stderr)
        return EXIT_USAGE
    return outcome.code


if __name__ == "__main__":
    sys.exit(main())
