#!/usr/bin/env python3
"""Benchmark of algseeds: seeded workloads, end-to-end and per-layer metrics.

  python3 perfbench/run.py --workload sweep-cubic --seed 1 --seconds 30 --trace 0
  python3 perfbench/run.py --workload sweep-cubic --seed 1 --seconds 30 --trace 1
  python3 perfbench/run.py --smoke

A run does repetitions of its workload for about --seconds seconds, each in
a fresh interpreter (worker.py) on the same batch, drawn from the seed, and
checks every output.  Times are normalized by a speed probe run between the
ops (probe.py), so that a shared machine's changes of speed do not read as
changes of the code.  With --trace 0 it reports the end-to-end metrics of
the untraced repetitions.  With --trace 1 it runs the batch twice per round,
untraced and then traced, and reports the per-layer metrics of the traced
repetitions, plus the tracing overhead.  It prints one line per metric,
then, as its last line, one JSON object with the keys correct, attempted,
failed and metrics.  A record of the run, with the environment, goes to
.bench_out/runs/ in the checkout.

--smoke runs a small batch of every workload, traced and untraced, plus a
self-test whose two deliberately failing ops must raise fail_rate above 0.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import probe

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKLOADS = ("sweep-cubic", "sweep-quad", "field-accept", "analysis")

RUN_DEADLINE_S = 170     # a run must end within 180 s
MIN_ROUNDS = 5           # so even a 20-op batch has ten timings beyond its p90

# Units of the metrics; BENCHMARK.json lists the same names with their bounds.
END_TO_END = {           # name: unit
    "wall_s": "s",
    "pairs_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {            # name: unit
    "fields.express_in.calls": "count",
    "fields.express_in.accept": "count",
    "fields.express_in.accept_s": "s",
    "fields.express_in.reject": "count",
    "fields.express_in.reject_s": "s",
    "fields.express_in.total_s": "s",
    "fields.express_in.wall_share": "ratio",
    "fields.express_in.per_pair": "ratio",
    "fields.express_in.needed_ratio": "ratio",
    "fields.pairs_checked": "count",
    "fields.independence_report.self_s": "s",
    "fields.squarefree_kernel.calls": "count",
    "fields.squarefree_kernel.self_s": "s",
    "fields.enclosure_cache.hit_ratio": "ratio",
    "families.build_set.calls": "count",
    "families.build_set.self_s": "s",
    "families.elements": "count",
    "algebraic.constructions": "count",
    "algebraic.precision_exhausted": "count",
    "algebraic.refine.calls": "count",
    "algebraic.refine.self_s": "s",
    "algebraic.cmp_rational.calls": "count",
    "algebraic.cmp_rational.self_s": "s",
    "polynomials.is_irreducible.calls": "count",
    "polynomials.is_irreducible.self_s": "s",
    "uniformity.uniformity_report.calls": "count",
    "uniformity.uniformity_report.self_s": "s",
    "uniformity.half_split.calls": "count",
    "uniformity.half_split.self_s": "s",
    "coverage.verify_tiling.self_s": "s",
    "coverage.trace_obstruction_demo.self_s": "s",
    "coverage.quad_layer_report.self_s": "s",
    "coverage.find_generator.self_s": "s",
    "bits.binary_expansion.calls": "count",
    "bits.binary_expansion.self_s": "s",
    "tables.render_table.self_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "cli.output_bytes": "B",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


class RepetitionFailed(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Repetitions.


def run_repetition(workload: str, seed: int, traced: bool, timeout: float,
                   extra: tuple[str, ...] = ()) -> dict:
    """Start worker.py, stamp its set-up time when it reports ready, and
    return its record.  The set-up time is normalized by the worker's
    probes before its imports and just after ready.  The child is always waited
    for, and killed first if it outlives the timeout."""
    cmd = [sys.executable, "-I", str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "1" if traced else "0", *extra]
    if traced:
        cmd += ["--spans-out", str(OUT / "spans" / f"{workload}-seed{seed}.json")]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, bufsize=0, cwd=ROOT)
    watchdog = threading.Timer(max(timeout, 1.0), proc.kill)
    watchdog.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest, _ = proc.communicate()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    duration = time.perf_counter() - t0
    if first != b"ready\n" or proc.returncode != 0:
        raise RepetitionFailed(f"worker exited with code {proc.returncode} "
                               f"({'killed at the deadline' if proc.returncode < 0 else 'see stderr'})")
    try:
        rec = json.loads(rest.decode("utf-8").strip().splitlines()[-1])
    except (ValueError, IndexError) as exc:
        raise RepetitionFailed(f"worker printed no record: {exc}") from exc
    rec.update(traced=traced, setup_raw_s=setup_s, duration_s=duration,
               setup_s=probe.normalized(setup_s, (rec["start_probe_s"] + rec["ready_probe_s"]) / 2))
    return rec


def run_repetitions(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """Rounds of repetitions until the next round would overrun --seconds,
    after at least MIN_ROUNDS.  A round runs the batch once, or, in a traced
    run, twice: untraced, then traced."""
    start = time.perf_counter()
    reps: list[dict] = []
    rounds = 0
    while True:
        t_round = time.perf_counter()
        for traced in ((False, True) if trace else (False,)):
            left = RUN_DEADLINE_S - (time.perf_counter() - start)
            reps.append(run_repetition(workload, seed, traced, left))
        rounds += 1
        elapsed = time.perf_counter() - start
        if rounds >= MIN_ROUNDS and elapsed + (time.perf_counter() - t_round) > seconds:
            return reps


# ---------------------------------------------------------------------------
# Metrics.


def op_times(rep: dict) -> list[float]:
    """The normalized seconds of each op of a repetition."""
    return [probe.normalized(op["seconds"], op["probe_s"]) for op in rep["ops"]]


def median_op_times(reps: list[dict]) -> list[float]:
    """Each op's median normalized seconds over repetitions of one batch."""
    return [statistics.median(times) for times in zip(*(op_times(r) for r in reps))]


def end_to_end(untraced: list[dict]) -> dict:
    """One rule for every metric: the median over the untraced repetitions,
    which all run the same batch.  The timings start from each op's median
    normalized time (probe.py) over the repetitions: wall_s is their sum,
    pairs_per_s the decisions per second of the ops that make them, and the
    latency quantiles are over the ops of the batch."""
    per_op = median_op_times(untraced)
    decisions = [op["decisions"] for op in untraced[0]["ops"]]
    deciding_s = sum(t for t, d in zip(per_op, decisions) if d > 0)
    per_op_ms = [t * 1e3 for t in per_op]
    return {
        "wall_s": sum(per_op),
        "pairs_per_s": sum(decisions) / deciding_s if deciding_s else 0.0,
        "op_p50_ms": statistics.median(per_op_ms),
        "op_p90_ms": statistics.quantiles(per_op_ms, n=10)[8],
        "setup_s": statistics.median(r["setup_s"] for r in untraced),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
    }


def layer_metrics(rep: dict) -> dict:
    spans, counts = rep["spans"], rep["counts"]

    def span(name: str, stat: str):
        return spans.get(name, {}).get(stat, 0)

    def ratio(num, den) -> float:
        return num / den if den else 0.0

    calls = span("fields.express_in", "calls")
    pairs = counts.get("fields.pairs_checked", 0)
    out = {
        "fields.express_in.calls": calls,
        "fields.express_in.accept": span("fields.express_in.accept", "calls"),
        "fields.express_in.accept_s": span("fields.express_in.accept", "total_s"),
        "fields.express_in.reject": span("fields.express_in.reject", "calls"),
        "fields.express_in.reject_s": span("fields.express_in.reject", "total_s"),
        "fields.express_in.total_s": span("fields.express_in", "total_s"),
        "fields.express_in.wall_share": ratio(span("fields.express_in", "total_s"),
                                              rep["wall_s"]),
        "fields.express_in.per_pair": ratio(calls, pairs),
        "fields.express_in.needed_ratio": ratio(rep["equal_kernel_calls"], calls),
        "fields.pairs_checked": pairs,
        "fields.enclosure_cache.hit_ratio": ratio(rep["cache_hits"], rep["cache_lookups"]),
        "families.elements": counts.get("families.elements", 0),
        "algebraic.constructions": counts.get("algebraic.constructions", 0),
        "algebraic.precision_exhausted": counts.get("algebraic.precision_exhausted", 0),
        "cli.output_bytes": rep["cli_output_bytes"],
        "trace.spans": rep["span_count"],
    }
    for name in PER_LAYER:   # the rest are <span name>.<calls|self_s>
        if name not in out and name != "trace.overhead_s":
            base, stat = name.rsplit(".", 1)
            out[name] = span(base, stat)
    return out


def per_layer(untraced: list[dict], traced: list[dict]) -> dict:
    """Medians over the traced repetitions, as measured, not normalized;
    the overhead is the traced minus the untraced wall_s, as end_to_end
    computes it, on the same batch."""
    per_rep = [layer_metrics(r) for r in traced]
    overhead = sum(median_op_times(traced)) - sum(median_op_times(untraced))
    return {name: overhead if name == "trace.overhead_s"
            else statistics.median(m[name] for m in per_rep) for name in PER_LAYER}


# ---------------------------------------------------------------------------
# Records.


def git_commit() -> str | None:
    """The commit checked out at the root, read from .git without running git;
    None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform(),
            "cpu_count": os.cpu_count(),
            "affinity": sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
            "git_commit": git_commit()}


def summarize_reps(reps: list[dict]) -> list[dict]:
    return [{k: r[k] for k in ("traced", "setup_s", "setup_raw_s", "wall_s", "peak_rss_mb",
                               "duration_s")}
            | {"op_times_s": op_times(r)}
            | {"ops": len(r["ops"]), "failed": sum(not op["ok"] for op in r["ops"])}
            for r in reps]


def failures(reps: list[dict]) -> tuple[dict, list[dict]]:
    errors: dict[str, int] = {}
    examples = []
    for r in reps:
        for op in r["ops"]:
            if not op["ok"]:
                errors[op["error"]] = errors.get(op["error"], 0) + 1
                if len(examples) < 10:
                    examples.append({k: op.get(k) for k in ("kind", "label", "error", "detail")})
    return errors, examples


def run(args) -> int:
    probe.warm_up()
    reps = run_repetitions(args.workload, args.seed, args.seconds, bool(args.trace))
    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    attempted = sum(len(r["ops"]) for r in reps)
    failed = sum(not op["ok"] for r in reps for op in r["ops"])
    if args.trace:
        values, units = per_layer(untraced, traced), PER_LAYER
    else:
        values, units = end_to_end(untraced), END_TO_END
    errors, examples = failures(reps)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(),
              "repetitions": {"untraced": len(untraced), "traced": len(traced)},
              "ops_per_repetition": len(reps[0]["ops"]),
              "attempted": attempted, "failed": failed, "fail_rate": failed / attempted,
              "errors": errors, "failed_examples": examples,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
              "reps": summarize_reps(reps)}
    runs = OUT / "runs"
    runs.mkdir(parents=True, exist_ok=True)
    (runs / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")

    env = record["environment"]
    print(f"# {args.workload} seed {args.seed}: {len(untraced)} untraced + {len(traced)} traced "
          f"repetitions of {record['ops_per_repetition']} ops; python {env['python']}, "
          f"{env['cpu_count']} cpus, affinity {env['affinity']}, commit {env['git_commit']}")
    for name, v in values.items():
        print(f"{name} = {v:.6g} {units[name]}")
    print(f"fail_rate = {failed / attempted:.6g} ratio ({failed} of {attempted} ops)")
    if errors:
        print(f"# failures by type: {errors}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": record["metrics"]}))
    return 0


def smoke() -> int:
    """Every workload on a small batch, untraced and traced, through the
    metric code, then the self-test; exits 1 if anything is off."""
    probe.warm_up()
    problems = []
    for w in WORKLOADS:
        plain = run_repetition(w, 1, False, RUN_DEADLINE_S, ("--smoke",))
        traced = run_repetition(w, 1, True, RUN_DEADLINE_S, ("--smoke",))
        overhead = per_layer([plain], [traced])["trace.overhead_s"]
        errors, examples = failures([plain, traced])
        print(f"{w}: {len(plain['ops'])} ops, wall {end_to_end([plain])['wall_s']:.3f} s, "
              f"tracing overhead {overhead:.3f} s, failures {errors}")
        if errors:
            problems.append(f"{w}: {examples}")
    rep = run_repetition("field-accept", 1, False, RUN_DEADLINE_S, ("--smoke", "--self-test"))
    errors, _ = failures([rep])
    fail_rate = sum(errors.values()) / len(rep["ops"])
    print(f"self-test: fail_rate {fail_rate:.3f}, failures by type {errors}")
    if not (fail_rate > 0 and errors == {"wrong output": 1, "PrecisionExhausted": 1}):
        problems.append("self-test: the deliberately failing ops were not counted as failed")
    for p in problems:
        print("FAIL", p)
    print("smoke: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    # SIGTERM unwinds like an error, so run_repetition still kills and reaps its worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    needed = [ROOT / "src" / "algseeds" / "__init__.py", ROOT / "tests" / "golden"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.exists()]
    if missing:
        print(f"error: the checkout lacks {', '.join(missing)}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            ap.error("--workload is required unless --smoke is given")
        return run(args)
    except RepetitionFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
