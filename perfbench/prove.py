"""Run the benchmark over many seeds and judge its steadiness and repeatability.

    python3 perfbench/prove.py --seeds 1 2 3 4 5 6 7 8 9 10 --traces 0 --out runs.json

Runs ``run.py`` once per (workload, trace, seed), one run at a time, then
reports:

* for each end-to-end metric and workload over the untraced runs: the
  median, and the interquartile distance as a share of the median (the
  spread), against the metric's bound;
* for a seed run more than once on a workload, whether artifact digests and
  quality numbers were identical in every run (traced or not), and whether
  the exact counts of its traced runs were identical;
* tracing overhead: the median of ``trace.overhead_s`` over traced runs;
* with ``--baseline``, whether each median is worse than the baseline
  file's median (an earlier ``--out``) by more than the metric's bound.

Exits non-zero when a run fails, a spread exceeds its bound, or a repeat
differs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import stats
from run import benchmark

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", f"{seconds:g}", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"workload": workload, "seed": seed, "trace": trace, "error": proc.stderr[-2000:]}
    detail = next(json.loads(l[len("DETAIL "):]) for l in lines if l.startswith("DETAIL "))
    return {"workload": workload, "seed": seed, "trace": trace,
            "result": json.loads(lines[-1]), "detail": detail}


def judge(runs: list[dict]) -> list[str]:
    problems = []
    bounds = {m["name"]: m["bound"] for m in benchmark()["end_to_end"]}
    by_workload = defaultdict(list)
    for r in runs:
        if "error" in r:
            problems.append(f"{r['workload']} seed {r['seed']} trace {r['trace']}: "
                            f"run failed: {r['error']}")
        elif not r["result"]["correct"]:
            problems.append(f"{r['workload']} seed {r['seed']} trace {r['trace']}: "
                            f"{r['result']['failed']} of {r['result']['attempted']} failed")
        else:
            by_workload[r["workload"]].append(r)

    print(f"{'workload':15} {'metric':18} {'n':>3} {'median':>10} {'spread':>7} {'bound':>6}")
    for workload, rs in by_workload.items():
        untraced = [r["result"]["metrics"] for r in rs if r["trace"] == 0]
        if len(untraced) >= 2:
            for name, bound in bounds.items():
                values = [m[name]["value"] for m in untraced]
                spread = stats.quartile_spread(values)
                verdict = ("steady" if spread < bound / 3 else
                           "within bound" if spread <= bound else "TOO WIDE")
                print(f"{workload:15} {name:18} {len(values):3d} "
                      f"{statistics.median(values):10.4g} {spread:7.3f} {bound:6.2f} {verdict}")
                if spread > bound:
                    problems.append(f"{workload} {name}: spread {spread:.3f} > bound {bound}")
        traced = [r for r in rs if r["trace"] == 1]
        if traced:
            overhead = statistics.median(
                r["result"]["metrics"]["trace.overhead_s"]["value"] for r in traced)
            untraced_wall = statistics.median(
                r["result"]["metrics"]["wall_s"]["value"] for r in rs if r["trace"] == 0) \
                if untraced else float("nan")
            print(f"{workload:15} tracing overhead {overhead:.3f} s per pass "
                  f"(untraced wall median {untraced_wall:.3f} s)")

        by_seed = defaultdict(list)
        for r in rs:
            by_seed[r["seed"]].append(r)
        for seed, same in by_seed.items():
            if len(same) < 2:
                continue
            first, identical = same[0]["detail"], True
            for other in same[1:]:
                d = other["detail"]
                if d["digests"] != first["digests"] or d["quality"] != first["quality"]:
                    identical = False
                    problems.append(f"{workload} seed {seed}: digests or quality differ "
                                    f"between runs (trace {same[0]['trace']} vs {other['trace']})")
            counted = [r["detail"] for r in same if r["trace"] == 1]
            for d in counted[1:]:
                if d["counts"] != counted[0]["counts"] or d["nodes"] != counted[0]["nodes"]:
                    identical = False
                    problems.append(f"{workload} seed {seed}: exact counts differ between "
                                    f"traced runs")
            print(f"{workload:15} seed {seed}: {len(same)} runs, digests, quality and counts "
                  f"{'identical' if identical else 'DIFFER'}")
    return problems


def medians(runs: list[dict]) -> dict[tuple[str, str], float]:
    values = defaultdict(list)
    for r in runs:
        if r["trace"] == 0 and "result" in r:
            for name, metric in r["result"]["metrics"].items():
                values[r["workload"], name].append(metric["value"])
    return {key: statistics.median(v) for key, v in values.items()}


def compare(runs: list[dict], baseline: list[dict]) -> list[str]:
    problems = []
    bounds = {m["name"]: m["bound"] for m in benchmark()["end_to_end"]}
    before = medians(baseline)
    for (workload, name), now in medians(runs).items():
        if (workload, name) in before:
            change = now / before[workload, name] - 1.0
            print(f"{workload:15} {name:18} median {before[workload, name]:.4g} -> "
                  f"{now:.4g} ({change:+.3f}, bound {bounds[name]})")
            if change > bounds[name]:
                problems.append(f"{workload} {name}: median worse by {change:.3f} "
                                f"> bound {bounds[name]}")
    return problems


def main() -> int:
    spec = benchmark()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    parser.add_argument("--traces", nargs="+", type=int, default=[0], choices=(0, 1))
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path, help="write every run's output here as JSON")
    parser.add_argument("--baseline", type=Path, help="an earlier --out file to compare with")
    args = parser.parse_args()

    runs = []
    for workload in args.workloads:
        for trace in args.traces:
            for seed in args.seeds:
                runs.append(run_once(workload, seed, args.seconds, trace))
                r = runs[-1]
                status = ("error" if "error" in r else
                          " ".join(f"{k}={v['value']:.4g}"
                                   for k, v in r["result"]["metrics"].items()
                                   if trace == 0 or k in ("infer_mcmc_s", "trace.overhead_s")))
                print(f"{workload} trace={trace} seed={seed}: {status}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(runs, indent=1))
    problems = judge(runs)
    if args.baseline:
        problems += compare(runs, json.loads(args.baseline.read_text()))
    for problem in problems:
        print(f"problem: {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
