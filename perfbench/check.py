"""The benchmark's own checks; run ``python3 perfbench/check.py`` from the repository root.

1. The ESS estimator recovers the known ESS of AR(1) chains.
2. The tail percentile keeps at least ten samples beyond it.
3. A smoke run of every workload at minimal size, untraced and traced,
   prints the promised schema and metric names and passes its own output
   checks.  Timings are never checked.
4. Run from a directory holding only BENCHMARK.json and the benchmark, the
   command fails without printing a result.

Exits non-zero when any check fails.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import run
import stats

ROOT = Path(__file__).resolve().parent.parent


def ar1(phi: float, n: int, rng: np.random.Generator) -> np.ndarray:
    noise = rng.standard_normal(n) * math.sqrt(1.0 - phi * phi)
    x = np.empty(n)
    x[0] = rng.standard_normal()
    for t in range(1, n):
        x[t] = phi * x[t - 1] + noise[t]
    return x


def check_ess() -> list[str]:
    problems = []
    rng = np.random.default_rng(20230301)
    n = 40000
    for phi in (0.0, 0.5, 0.9, -0.3):
        known = n * (1.0 - phi) / (1.0 + phi)
        got = stats.effective_sample_size(ar1(phi, n, rng))
        if abs(got - known) > 0.15 * known:
            problems.append(f"ESS of AR(1) phi={phi}: {got:.0f}, expected {known:.0f}")
    chain = np.column_stack([ar1(0.3, n, rng), ar1(0.8, n, rng)])
    got, known = stats.effective_sample_size(chain), n * 0.2 / 1.8
    if abs(got - known) > 0.15 * known:
        problems.append(f"ESS minimum over coordinates: {got:.0f}, expected {known:.0f}")
    if stats.effective_sample_size(np.ones((100, 2))) != 1.0:
        problems.append("ESS of a chain that never moved is not 1")
    return problems


def check_tail() -> list[str]:
    value, pct, n = stats.tail(range(1, 101))
    if (value, pct, n) != (90.0, 90.0, 100):
        return [f"tail of 1..100 gave {(value, pct, n)}"]
    if stats.tail(range(10))[0] != 0.0:
        return ["tail of 10 samples should be empty"]
    return []


def check_smoke() -> list[str]:
    problems = []
    spec = run.benchmark()
    expected = {0: [m["name"] for m in spec["end_to_end"]],
                1: [m["name"] for m in spec["per_layer"]]}
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                                 "--trace", str(trace)], smoke=True)
            label = f"smoke {workload} trace={trace}"
            lines = out.getvalue().strip().splitlines()
            if code != 0 or not lines:
                problems.append(f"{label}: exit {code}")
                continue
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{label}: keys {sorted(result)}")
                continue
            if result["correct"] is not True or result["failed"] != 0:
                problems.append(f"{label}: outputs failed their checks: "
                                + "; ".join(l for l in lines if "FAILED" in l or "problem" in l))
            if not isinstance(result["attempted"], int) or result["attempted"] < 1:
                problems.append(f"{label}: attempted {result['attempted']!r}")
            if list(result["metrics"]) != expected[trace]:
                missing = set(expected[trace]) ^ set(result["metrics"])
                problems.append(f"{label}: metric names differ: {sorted(missing)}")
            for name, metric in result["metrics"].items():
                if set(metric) != {"value", "unit"} or metric["unit"] != units.get(name) \
                        or not math.isfinite(metric["value"]):
                    problems.append(f"{label}: malformed metric {name}: {metric}")
    return problems


def check_bare_directory() -> list[str]:
    bare = ROOT / ".perfbench_runs" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "fv_pcn", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        with contextlib.suppress(OSError):
            bare.parent.rmdir()
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return ["run.py succeeded without krflow sources"]
    return []


def main() -> int:
    problems = []
    for check in (check_ess, check_tail, check_smoke, check_bare_directory):
        found = check()
        print(f"{check.__name__}: {'ok' if not found else 'FAILED'}")
        problems += found
    for problem in problems:
        print(f"  {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
