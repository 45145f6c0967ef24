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
from .fields import independence_report
from .polynomials import MonicIntPoly
from .tables import TABLES, table_rows
from .uniformity import TooFewElements, uniformity_report

EXIT_OK, EXIT_VIOLATION, EXIT_USAGE, EXIT_UNDECIDED, EXIT_INTERNAL = 0, 1, 2, 3, 4


@dataclass(frozen=True)
class CommandConfig:
    subcommand: str
    family: str | None = None
    params: tuple[int, ...] = ()
    bound: int = 10
    coord_bound: int = 50
    stream_bits: int = 64
    precision: int = 64
    fmt: str = "json"
    out: str | None = None
    domain: str = "real"
    table: int = 0
    targets: tuple[int, ...] = ()
    coeffs: tuple[int, ...] = ()

    def __post_init__(self):
        if self.bound < 1 or self.coord_bound < 1 or self.stream_bits < 1:
            raise InvalidParams("bounds must be positive")
        if self.precision < 32:
            raise InvalidParams("precision must be at least 32 bits")


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


def _spec_from(cfg: CommandConfig) -> SetSpec:
    return SetSpec(cfg.family, cfg.params)


def _cmd_gen(cfg: CommandConfig) -> Outcome:
    inst = build_set(_spec_from(cfg))
    payload = inst.to_json()
    rows = []
    for i, e in enumerate(inst.elements):
        payload["elements"][i]["value"] = _value_str(e.number)
        rows.append((cfg.family, " ".join(map(str, cfg.params)), e.free_coeff,
                     str(e.number.minpoly), payload["elements"][i]["value"]))
    return Outcome(payload, ("family", "params", "free_coeff", "minpoly", "value"),
                   tuple(rows), EXIT_OK)


def _cmd_uniformity(cfg: CommandConfig) -> Outcome:
    rep = uniformity_report(build_set(_spec_from(cfg)), bits=cfg.precision)
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


def _cmd_independence(cfg: CommandConfig) -> Outcome:
    rep = independence_report(build_set(_spec_from(cfg)))
    payload = rep.to_json()
    rows = [(c.i, c.j, " ".join(str(x) for x in c.certificate.coeffs))
            for c in rep.collisions]
    code = EXIT_OK if rep.independent else EXIT_VIOLATION
    return Outcome(payload, ("element_i", "element_j", "certificate"),
                   tuple(rows), code)


def _cmd_exception(cfg: CommandConfig) -> Outcome:
    b, c = cfg.params
    if b not in (0, -1, -2, -3) or c > -b - 3:
        raise InvalidParams(f"need b in {{0,-1,-2,-3}} and c <= {-b - 3}")
    rule = classify_exception(b, c)
    exc = quadratic_exception(b, c)
    payload = {"b": b, "c": c, "case": rule.case, "index": rule.n,
               "exception": exc.to_json() if exc else None}
    row = (b, c, rule.case, rule.n,
           str(exc.minpoly) if exc else "none", exc.d if exc else "")
    return Outcome(payload, ("b", "c", "case", "index", "minpoly", "free_coeff"),
                   (row,), EXIT_OK)


def _cmd_tables(cfg: CommandConfig) -> Outcome:
    rows = table_rows(cfg.table)
    payload = {"table": cfg.table, "rows": rows}
    split = tuple(tuple(part.strip() for part in r.split("|")) for r in rows)
    width = max(len(r) for r in split)
    header = ("polynomial",) + tuple(f"root{i}" for i in range(1, width))
    return Outcome(payload, header, split, EXIT_OK,
                   text="\n".join(rows) + "\n")


def _cmd_tiling(cfg: CommandConfig) -> Outcome:
    rep = verify_tiling(cfg.bound, cfg.domain)
    payload = rep.to_json()
    row = (rep.domain, rep.bound, rep.checked, len(rep.violations),
           rep.qi_excluded, rep.ok)
    return Outcome(payload, ("domain", "bound", "checked", "violations",
                             "qi_excluded", "ok"), (row,),
                   EXIT_OK if rep.ok else EXIT_VIOLATION)


def _cmd_find_index(cfg: CommandConfig) -> Outcome:
    res = find_common_index(cfg.targets, cfg.domain)
    witnesses = common_index_witnesses(res)
    payload = res.to_json()
    payload["witnesses"] = [w.to_json() for w in witnesses]
    rows = []
    for (j, m, c), w in zip(res.certificate, witnesses):
        rows.append((j, m, c, str(w.minpoly), _value_str(w)))
    payload["n"] = res.n
    return Outcome(payload, ("target", "multiplier", "c", "minpoly", "value"),
                   tuple(rows), EXIT_OK)


def _cmd_find_generator(cfg: CommandConfig) -> Outcome:
    target = MonicIntPoly.cubic(*cfg.coeffs)
    res = find_generator(target, cfg.family, cfg.coord_bound)
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


def _cmd_bits(cfg: CommandConfig) -> Outcome:
    spec = _spec_from(cfg)
    if spec.family == "2i":
        raise InvalidParams("bit streams need a real family")
    inst = build_set(spec)
    streams = []
    rows = []
    for e in inst.elements:
        s = binary_expansion(e.number, cfg.stream_bits)
        st = bit_stats(s)
        streams.append({"free_coeff": e.free_coeff, "bits": s.as_text(),
                        "hex": s.as_hex(), "stats": st.to_json()})
        rows.append((e.free_coeff, s.as_text(), s.as_hex(),
                     st.ones, st.zeros, st.longest_run, st.runs_count))
    payload = {"spec": spec.to_json(), "length": cfg.stream_bits,
               "streams": streams}
    return Outcome(payload, ("free_coeff", "bits", "hex", "ones", "zeros",
                             "longest_run", "runs_count"), tuple(rows), EXIT_OK)


def _cmd_complement(cfg: CommandConfig) -> Outcome:
    rep = complement_check(build_set(_spec_from(cfg)))
    payload = rep.to_json()
    row = (cfg.family, " ".join(map(str, cfg.params)), rep.size,
           len(rep.violations), rep.ok)
    return Outcome(payload, ("family", "params", "size", "violations", "ok"),
                   (row,), EXIT_OK if rep.ok else EXIT_VIOLATION)


def _cmd_layer(cfg: CommandConfig) -> Outcome:
    m, = cfg.params
    rep = quad_layer_report(m, cfg.bound)
    payload = rep.to_json()
    rows = tuple((c, n, q) for c, n, q in rep.exceptions)
    return Outcome(payload, ("c", "index", "quad_const"), rows,
                   EXIT_OK if rep.ok else EXIT_VIOLATION)


_HANDLERS = {
    "gen": _cmd_gen,
    "uniformity": _cmd_uniformity,
    "independence": _cmd_independence,
    "exception": _cmd_exception,
    "tables": _cmd_tables,
    "tiling": _cmd_tiling,
    "find-index": _cmd_find_index,
    "find-generator": _cmd_find_generator,
    "bits": _cmd_bits,
    "complement-check": _cmd_complement,
    "layer": _cmd_layer,
}


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
    p.add_argument("--precision", type=int, default=64,
                   help="working precision in bits, at least 32")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once: each parse_args call returns a new namespace."""
    ap = argparse.ArgumentParser(
        prog="algseeds",
        description="exact constructions and checks for algebraic-integer seed sets")
    sub = ap.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gen", help="construct a set instance")
    _add_family_flags(p)
    _add_common_flags(p)

    p = sub.add_parser("uniformity", help="gap statistics, discrepancy, half split")
    _add_family_flags(p)
    _add_common_flags(p)

    p = sub.add_parser("independence", help="pairwise field-membership audit")
    _add_family_flags(p)
    _add_common_flags(p)

    p = sub.add_parser("exception", help="quadratic-exception classification")
    p.add_argument("--m", type=int, required=True, help="layer parameter b")
    p.add_argument("--n", type=int, required=True, help="instance parameter c")
    _add_common_flags(p)

    p = sub.add_parser("tables", help="reference root tables")
    p.add_argument("table", type=int, choices=sorted(TABLES))
    _add_common_flags(p, default_fmt="table")

    p = sub.add_parser("tiling", help="verify the quadratic tiling up to a bound")
    p.add_argument("--bound", type=int, default=10)
    p.add_argument("--domain", default="real",
                   choices=("real", "imaginary", "imaginary-except-qi"))
    _add_common_flags(p)

    p = sub.add_parser("find-index", help="least common instance index")
    p.add_argument("targets", type=int, nargs="+",
                   help="square-free integers >= 2 naming quadratic fields")
    p.add_argument("--domain", default="real", choices=("real", "imaginary"))
    _add_common_flags(p)

    p = sub.add_parser("find-generator", help="search a family for a field generator")
    p.add_argument("coeffs", type=int, nargs=3, metavar="C",
                   help="cubic coefficients below the leading 1")
    p.add_argument("--family", required=True, choices=("3ntr", "3tr"))
    p.add_argument("--coord-bound", type=int, default=50, dest="coord_bound")
    _add_common_flags(p)

    p = sub.add_parser("bits", help="binary expansions of instance elements")
    _add_family_flags(p, families=("2r", "3ntr", "3tr"))
    p.add_argument("--bits", type=int, default=64, dest="stream_bits",
                   help="stream length")
    _add_common_flags(p)

    p = sub.add_parser("complement-check", help="alpha in the set excludes 1-alpha")
    _add_family_flags(p, families=("2r", "3ntr", "3tr"))
    _add_common_flags(p)

    p = sub.add_parser("layer", help="quadratic layer audit of a 3tr union")
    p.add_argument("--m", type=int, required=True, help="layer parameter")
    p.add_argument("--bound", type=int, default=30,
                   help="scan instance parameters down to -bound")
    _add_common_flags(p)

    return ap


def config_from_args(ns: argparse.Namespace) -> CommandConfig:
    params: tuple[int, ...] = ()
    family = getattr(ns, "family", None)
    if ns.subcommand in ("gen", "uniformity", "independence", "bits",
                         "complement-check"):
        if family in ("3ntr", "3tr"):
            if ns.m is None:
                raise InvalidParams(f"family {family} needs --m")
            params = (ns.m, ns.n)
        else:
            if ns.m is not None:
                raise InvalidParams(f"family {family} takes no --m")
            params = (ns.n,)
    elif ns.subcommand == "exception":
        params = (ns.m, ns.n)
    elif ns.subcommand == "layer":
        params = (ns.m,)
    return CommandConfig(
        subcommand=ns.subcommand,
        family=family,
        params=params,
        bound=getattr(ns, "bound", 10),
        coord_bound=getattr(ns, "coord_bound", 50),
        stream_bits=getattr(ns, "stream_bits", 64),
        precision=ns.precision,
        fmt=ns.fmt,
        out=ns.out,
        domain=getattr(ns, "domain", "real"),
        table=getattr(ns, "table", 0),
        targets=tuple(getattr(ns, "targets", ())),
        coeffs=tuple(getattr(ns, "coeffs", ())),
    )


def main(argv=None) -> int:
    ns = build_parser().parse_args(argv)
    try:
        cfg = config_from_args(ns)
        outcome = _HANDLERS[cfg.subcommand](cfg)
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
    text = _render(outcome, cfg.fmt)
    if cfg.out:
        with open(cfg.out, "w", encoding="utf-8") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return outcome.code


if __name__ == "__main__":
    sys.exit(main())
