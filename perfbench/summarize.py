#!/usr/bin/env python3
"""Summarize the run records in .bench_out/runs/ across seeds.

  python3 perfbench/summarize.py                  spread table, per workload
  python3 perfbench/summarize.py --write FILE     also write the summary as JSON
  python3 perfbench/summarize.py --baseline DIR   also compare with the runs in DIR

For every workload and metric it gives the median over the seeds, the
quartiles (statistics.quantiles(values, n=4)) and the spread: the distance
between the quartiles as a share of the median.  End-to-end spreads are
compared with a third of the metric's bound from BENCHMARK.json, the
steadiness target of the benchmark.  The JSON form, with the environment
and the repetition counts of every run, is a point of the performance
trajectory.  With --baseline, every end-to-end median is also compared with
the median of the same workload and metric over the run records in DIR, for
example the parent commit's runs, and flagged if it is worse by more than
the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def summarize(records: list[dict], bounds: dict) -> dict:
    groups: dict[tuple, list[dict]] = {}
    for r in records:
        groups.setdefault((r["workload"], r["trace"]), []).append(r)
    out = {}
    for (workload, trace), runs in sorted(groups.items()):
        runs.sort(key=lambda r: r["seed"])
        metrics = {}
        for name, first in runs[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            metrics[name] = {"unit": first["unit"], "median": med, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / med if med else 0.0}
            if name in bounds:
                metrics[name]["bound"] = bounds[name]
        out[f"{workload} trace{trace}"] = {
            "workload": workload, "trace": trace,
            "seeds": [r["seed"] for r in runs],
            "seconds": runs[0]["seconds"],
            "repetitions": [r["repetitions"] for r in runs],
            "failed": sum(r["failed"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "metrics": metrics}
    return out


def load(runs: Path) -> list[dict]:
    return [json.loads(p.read_text(encoding="utf-8")) for p in sorted(runs.glob("*.json"))]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--runs", type=Path, default=ROOT / ".bench_out" / "runs")
    ap.add_argument("--write", type=Path, default=None)
    ap.add_argument("--baseline", type=Path, default=None,
                    help="directory of run records to compare the medians with")
    args = ap.parse_args()
    records = load(args.runs)
    if not records:
        print(f"no run records in {args.runs}", file=sys.stderr)
        return 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = summarize(records, bounds)
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    base = summarize(load(args.baseline), bounds) if args.baseline else {}
    steady = True
    for key, group in summary.items():
        print(f"{key}: {len(group['seeds'])} seeds, {group['failed']} of "
              f"{group['attempted']} ops failed")
        for name, m in group["metrics"].items():
            flag = ""
            if "bound" in m and m["spread"] >= m["bound"] / 3:
                flag, steady = "  <-- spread not below a third of the bound", False
            b = base.get(key, {}).get("metrics", {}).get(name)
            if b and "bound" in m and b["median"]:
                worse = (m["median"] / b["median"] - 1) * (1 if better[name] == "lower" else -1)
                flag += f"  worse than baseline by {worse:+.3f}"
                if worse > m["bound"]:
                    flag, steady = flag + " <-- beyond the bound", False
            print(f"  {name:40s} {m['median']:12.6g} {m['unit']:6s} "
                  f"spread {m['spread']:.3f}{flag}")
    if args.write:
        envs = {json.dumps(r["environment"], sort_keys=True) for r in records}
        doc = {"environments": [json.loads(e) for e in sorted(envs)], "groups": summary}
        args.write.parent.mkdir(parents=True, exist_ok=True)
        args.write.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
