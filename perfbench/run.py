"""Run one krflow benchmark workload and print its metrics.

    python3 perfbench/run.py --workload desk_pipeline --seed 1 --seconds 35 --trace 0

Run it from the root of a krflow checkout; it imports the package from
``src/`` there.  The workload repeats its pass in a closed loop while the
next pass still fits in ``--seconds``.  With ``--trace 0`` the last line of
standard output is a JSON object holding the end-to-end metrics; with
``--trace 1`` passes alternate between untraced and traced, and it holds
the per-layer metrics.  Lines before it give the machine, every pass, the
artifact digests and the exact counts.

``setup_s`` is the median of five set-ups: this process's own, from
start to the first timed call, and four more in fresh child processes of
the same workload and seed, run one after another.

BLAS threads are set to the CPUs this process may use, whatever the
environment asked for.  The count is fixed before numpy loads because
results are only bit-reproducible for one thread count.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import machine  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5


def benchmark() -> dict:
    """BENCHMARK.json: the workloads, metric names, units and bounds."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _set_blas_threads() -> None:
    threads = str(machine.available_cpus())
    os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = threads


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in benchmark()["workloads"]])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    # set up, print the seconds it took and exit: one sample of setup_s
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return args


def child_setup_s(args) -> float:
    """Set-up time of a fresh process running the same workload and seed."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up in a child process failed:\n{proc.stderr[-2000:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def measure(workload, seconds: float, trace: bool, tracer=None) -> tuple[list, list]:
    """Closed loop of passes; with tracing, passes alternate untraced and traced."""
    import stats
    from tracing import layer_metrics

    untraced, traced = [], []
    deadline = time.perf_counter() + seconds
    durations = []
    while True:
        use_tracer = trace and len(untraced) > len(traced)
        began = time.perf_counter()
        if use_tracer:
            tracer.install()
        try:
            result = workload.run_pass(tracer if use_tracer else None)
        finally:
            if use_tracer:
                tracer.uninstall()
        workload.check(result)
        if use_tracer:
            result.layer, result.nodes = layer_metrics(tracer.spans)
            tracer.spans.clear()
        (traced if use_tracer else untraced).append(result)
        durations.append(time.perf_counter() - began)
        if trace and not traced:
            continue
        if time.perf_counter() + stats.median(durations) > deadline:
            return untraced, traced


def _exact(name: str) -> bool:
    return name.startswith("autodiff.nodes_per_step") or name.rsplit(".", 1)[-1].endswith(
        ("calls", "steps", "solves", "unknowns", "modes", "scalars", "bytes_computed",
         "checkpoint_bytes"))


def summarize(untraced, traced, setup_s: float, trace: bool) -> tuple[dict, int, list[str]]:
    """Metrics, the number of count comparisons made, and those that failed."""
    import stats

    spec = benchmark()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    problems = []
    if not trace:
        values = {
            "setup_s": setup_s,
            "wall_s": stats.median(r.wall_s for r in untraced),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        names = [m["name"] for m in spec["end_to_end"]]
    else:
        values = {name: stats.median(r.layer[name] for r in traced) for name in traced[0].layer}
        first = traced[0]
        for k, r in enumerate(traced[1:], start=1):
            differ = [n for n in r.layer if _exact(n) and r.layer[n] != first.layer[n]]
            if differ or r.nodes != first.nodes:
                problems.append(f"traced pass {k}: exact counts differ from traced pass 0: "
                                f"{differ or 'tape nodes by loop and kind'}")
        for key in ("train_vae", "train_surrogate", "infer_krnet"):
            values[f"{key}_s"] = stats.median(r.stage_s.get(key, 0.0) for r in untraced)
        values["infer_mcmc_s"] = stats.median(r.infer_mcmc_s for r in untraced)
        for key in ("surrogate_rel_err", "krnet_rel_err", "mcmc_rel_err"):
            values[key] = untraced[0].quality.get(key, 0.0)
        values["trace.overhead_s"] = (stats.median(r.wall_s for r in traced)
                                      - stats.median(r.wall_s for r in untraced))
        names = [m["name"] for m in spec["per_layer"]]
    # a quality number that could not be measured (its stage failed, which the
    # run already counts) reads 0, so the result line stays valid JSON
    metrics = {n: {"value": float(values[n]) if math.isfinite(values[n]) else 0.0,
                   "unit": units[n]} for n in names}
    return metrics, max(len(traced) - 1, 0), problems


def report(args, info, setup_samples, untraced, traced, metrics, problems) -> None:
    import stats

    print(f"krflow benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("machine: " + json.dumps(info, sort_keys=True))
    print("setup: " + ", ".join(f"{v:.3f}" for v in setup_samples) + " s")
    for label, results in (("untraced", untraced), ("traced", traced)):
        for k, r in enumerate(results):
            stages = " ".join(f"{s}={v:.3f}" for s, v in r.stage_s.items())
            print(f"pass {label} {k}: wall {r.wall_s:.3f} s infer_mcmc {r.infer_mcmc_s:.3f} s"
                  + (f" [{stages}]" if stages else "")
                  + (f" FAILED {r.failures}" if r.failures else ""))
    first = (untraced or traced)[0]
    for name, digest in first.digests.items():
        print(f"sha256 {name} {digest}")
    for name, value in first.quality.items():
        print(f"quality {name} {value!r}")
    if traced:
        for loop, kinds in traced[0].nodes.items():
            print(f"tape nodes per pass, {loop} loop: " + json.dumps(kinds))
        for name, count in (("vae.step_ms_tail", "vae.steps"),
                            ("surrogate.step_ms_tail", "surrogate.steps"),
                            ("flow.step_ms_tail", "flow.steps"),
                            ("darcy.solve_ms_tail", "darcy.solves")):
            n = int(traced[0].layer[count])
            print(f"tail {name}: p{stats.tail_percentile(n):.2f} of {n} samples")
    for problem in problems:
        print(f"problem: {problem}")
    for name, m in metrics.items():
        print(f"metric {name} {m['value']:.6g} {m['unit']}")
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": info, "setup_samples_s": setup_samples,
        "passes": [{"traced": label == "traced", "wall_s": r.wall_s, "stage_s": r.stage_s,
                    "failures": r.failures}
                   for label, results in (("untraced", untraced), ("traced", traced))
                   for r in results],
        "digests": first.digests, "quality": first.quality,
        "counts": ({k: v for k, v in traced[0].layer.items() if _exact(k)}
                   if traced else None),
        "nodes": traced[0].nodes if traced else None,
    }
    print("DETAIL " + json.dumps(detail, sort_keys=True))


def main(argv=None, smoke: bool = False) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "krflow" / "__init__.py").is_file():
        print(f"error: no krflow sources under {ROOT / 'src'}; run from a krflow checkout",
              file=sys.stderr)
        return 2
    _set_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import stats
    import workloads
    from tracing import Tracer

    runs_parent = ROOT / ".perfbench_runs"
    runs_parent.mkdir(exist_ok=True)
    runs_root = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=runs_parent))
    try:
        workload = workloads.make(args.workload, args.seed, runs_root, smoke)
        workload.warm_up()
        workload.setup()
        setup_samples = [time.perf_counter() - PROCESS_START]
        if args.setup_only:
            print(repr(setup_samples[0]))
            return 0
        # a smoke run checks names, never timings, so it sets up once
        for _ in range(0 if smoke else SETUP_SAMPLES - 1):
            setup_samples.append(child_setup_s(args))
        setup_s = stats.median(setup_samples)
        untraced, traced = measure(workload, args.seconds, bool(args.trace),
                                   Tracer() if args.trace else None)
    finally:
        shutil.rmtree(runs_root, ignore_errors=True)
        with contextlib.suppress(OSError):
            runs_parent.rmdir()
    metrics, comparisons, problems = summarize(untraced, traced, setup_s, bool(args.trace))
    info = machine.describe()
    report(args, info, setup_samples, untraced, traced, metrics, problems)
    results = untraced + traced
    attempted = sum(r.attempted for r in results) + comparisons
    failed = sum(len(r.failures) for r in results) + len(problems)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
