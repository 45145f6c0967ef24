"""One timed repetition of one workload, in a fresh interpreter.

run.py starts this script once per repetition, so the lru caches of
algseeds start cold, as a command-line user finds them, and set-up time and
peak memory belong to one workload.  Protocol on standard output:

  ready                 once the import and the input generation are done
  {...}                 one JSON record when the repetition is over

The record gives each op's seconds and the mean time of the speed probes
(probe.py) run just before and just after it, and the times of the probes
run before the imports and right after ready; wall_s is the sum of the
ops' seconds, without the probes.

Everything else the library prints goes to captured buffers or stderr.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import probe  # noqa: E402  (needs the path above)

START_PROBE_S = probe.probe()   # before the imports, for the set-up time

import workloads  # noqa: E402
from spans import Tracer, enclosure_cache_counts  # noqa: E402

import algseeds  # noqa: E402


def run_phase(ops, tracer):
    """The timed phase: every op in order, each timed on its own, with a
    speed probe before the first op and after every op.  An exception fails
    that op only; the phase goes on.  Returns the probes' times, one more
    than there are ops."""
    timings, results, errors = [], [], []
    probes = [probe.probe()]
    clock = time.perf_counter
    for op in ops:
        span = tracer.open("op." + op.kind) if tracer else None
        t0 = clock()
        try:
            result, error = op.call(), None
        except (Exception, SystemExit) as exc:   # SystemExit: an argparse exit in cli.main
            result, error = None, exc
        t1 = clock()
        if tracer:
            tracer.close(span)
        timings.append(t1 - t0)
        results.append(result)
        errors.append(error)
        probes.append(probe.probe())
    return timings, probes, results, errors


def check_all(ops, results, errors) -> list[dict]:
    """Per-op record: kind, label, ok, the pair decisions made, and for a
    failed op the reason: the exception type, or "wrong output"."""
    out = []
    for op, result, error in zip(ops, results, errors):
        rec = {"kind": op.kind, "label": op.label, "ok": False, "decisions": 0}
        if error is not None:
            rec["error"] = type(error).__name__
            rec["detail"] = "".join(traceback.format_exception_only(error)).strip()[:300]
        else:
            try:
                rec["ok"] = bool(op.check(result))
                rec["decisions"] = op.decisions(result)
            except Exception as exc:   # a malformed output fails its check
                rec["error"] = "check:" + type(exc).__name__
            if not rec["ok"] and "error" not in rec:
                rec["error"] = "wrong output"
        out.append(rec)
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="small batch")
    ap.add_argument("--self-test", action="store_true",
                    help="append two ops that must fail")
    ap.add_argument("--spans-out", type=Path, default=None,
                    help="where a traced repetition writes its spans")
    args = ap.parse_args()

    src = (ROOT / "src").resolve()
    if src not in Path(algseeds.__file__).resolve().parents:
        print(f"error: algseeds imported from {algseeds.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    ops = workloads.build(args.workload, args.seed, ROOT, smoke=args.smoke)
    if args.self_test:
        ops += workloads.self_test_ops()
    print("ready", flush=True)
    probe.warm_up()

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    timings, probes, results, errors = run_phase(ops, tracer)
    if tracer:
        tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    records = check_all(ops, results, errors)
    for rec, seconds, before, after in zip(records, timings, probes, probes[1:]):
        rec["seconds"], rec["probe_s"] = seconds, (before + after) / 2
    cli_bytes = sum(len(res[1].encode("utf-8")) for op, res in zip(ops, results)
                    if op.kind.startswith("cli.") and res is not None)
    hits, lookups = enclosure_cache_counts()
    out = {"wall_s": sum(timings), "start_probe_s": START_PROBE_S, "ready_probe_s": probes[0],
           "peak_rss_mb": peak_rss_mb, "ops": records,
           "cli_output_bytes": cli_bytes, "cache_hits": hits, "cache_lookups": lookups}
    if tracer:
        out["spans"] = tracer.span_stats()
        out["counts"] = dict(tracer.counts)
        out["span_count"] = len(tracer.start)
        out["equal_kernel_calls"] = tracer.equal_kernel_calls()
        if args.spans_out:
            tracer.write(args.spans_out)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
