"""Benchmark of the hardyheat CLI, end to end and per layer.

    python3 perfbench/run.py --workload sweep|certify|profile|simulate \
        [--seed 0] [--seconds 50] [--trace 0|1]

    for w in sweep certify profile simulate; do
        python3 perfbench/run.py --workload $w; done     # every workload

Run from the repository root (or any checkout of it); the package is
imported from `src/` of that checkout.  Every measurement runs in a fresh
interpreter (perfbench/worker.py) that calls `hardyheat.cli.main` in-process
with `--outdir` in a scratch directory under `.perfbench_work/`, which is
removed afterwards.

One pass is the workload's command sequence in a fresh interpreter.
--trace 0 repeats passes until --seconds have passed (at least MIN_PASSES)
and reports the median over the passes of:

  wall_s       wall time of the command sequence,
  cpu_s        process CPU time over the same interval,
  setup_s      interpreter start to `hardyheat.cli` imported,
  peak_rss_mb  peak resident memory of the interpreter.

The three times are in reference seconds: each pass runs under the speed
probe of perfbench/probe.py, the probe's own time is taken out of wall_s
and cpu_s, and the times are scaled by PROBE_REF_S / (the pass's mean
probe unit time).  On the 2-vCPU machine shared with other tenants that
the benchmark was written on, the same code ran up to 1.5x slower for
seconds to minutes at a time; raw medians of ten runs spread by up to
0.35 of their value, the scaled ones by 0.01-0.03.  The raw medians are
printed on the lines before the result.

--trace 1 alternates untraced and traced passes for --seconds (at least
MIN_PASSES of each) and reports the per-layer metrics of
perfbench/tracer.py from the fastest traced pass, in raw seconds;
trace.overhead_s is the fastest traced wall time minus the fastest
untraced one (net of the probe).

Each CLI command and each output check is one operation; the last line of
standard output is one JSON object with `correct`, `attempted`, `failed`
and `metrics`.  Lines before it name every metric with its unit, the
failed ratio and the environment.

BLAS runs single-threaded (OPENBLAS_NUM_THREADS=1): on the 2-core machine
the benchmark was written on, threaded BLAS made kernel tables slower and
their timings noisier.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

from tracer import LAYERS
from workloads import WORKLOADS, commands

MIN_PASSES = 3
PROBE_REF_S = 0.5e-3      # probe unit time of the reference speed
BUDGET_S = 165.0          # a run must end within 180 s
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_ms") or ".ms_per_" in name:
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_ratio"):
        return "1"
    return "count"


class Runner:
    """Starts worker interpreters inside one scratch directory."""

    def __init__(self, scratch: Path, workload: str, seed: int,
                 deadline: float):
        self.scratch = scratch
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.count = 0

    def spawn(self, argvs: list[list[str]], trace: bool = False) -> dict:
        self.count += 1
        tag = f"{self.count:03d}"
        outdir = self.scratch / f"out{tag}"
        spec = {"commands": argvs, "outdir": str(outdir), "trace": trace,
                "workload": self.workload, "seed": self.seed,
                "src": str(SRC), "result": str(self.scratch / f"{tag}.json")}
        spec_path = self.scratch / f"spec{tag}.json"
        spec_path.write_text(json.dumps(spec))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   TMPDIR=str(self.scratch),
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [str(SRC),
                                     os.environ.get("PYTHONPATH")])))
        log = self.scratch / f"log{tag}.txt"
        with open(log, "w") as fh:
            spawned_at = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), str(spec_path),
                 repr(spawned_at)],
                stdout=fh, stderr=subprocess.STDOUT, cwd=self.scratch,
                env=env, timeout=max(self.deadline - time.perf_counter(), 1))
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited with {proc.returncode}:\n"
                               + log.read_text()[-2000:])
        result = json.loads(Path(spec["result"]).read_text())
        if any(result["codes"]):
            sys.stderr.write(log.read_text()[-2000:])
        shutil.rmtree(outdir, ignore_errors=True)
        return result


def operations(results: list[dict]) -> tuple[int, int, list]:
    """(attempted, failed, failed checks) over the command-running results."""
    attempted = failed = 0
    misses = []
    for res in results:
        attempted += len(res["codes"]) + len(res["checks"])
        failed += sum(code != 0 for code in res["codes"])
        bad = [c for c in res["checks"] if not c[1]]
        failed += len(bad)
        misses += bad
    return attempted, failed, misses


def git_commit() -> str:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def passes(runner: Runner, seconds: float, start: float,
           traced: tuple[bool, ...]) -> dict[bool, list[dict]]:
    """Passes of the workload, cycling through `traced`, until `seconds`
    have passed since `start` and each kind has MIN_PASSES passes."""
    argvs = commands(runner.workload, runner.seed)
    runs: dict[bool, list[dict]] = {trace: [] for trace in traced}
    while True:
        for trace in traced:
            t0 = time.perf_counter()
            runs[trace].append(runner.spawn(argvs, trace=trace))
            now = time.perf_counter()
            if now + (now - t0) > runner.deadline and all(runs.values()):
                return runs
        if (now - start >= seconds
                and min(map(len, runs.values())) >= MIN_PASSES):
            return runs


def net_wall(run: dict) -> float:
    return run["wall_s"] - run.get("probe_spent_s", 0.0)


def measure(runner: Runner, seconds: float,
            start: float) -> tuple[dict, int, list]:
    """End-to-end metrics, tracing off: (metrics, passes, results)."""
    runs = passes(runner, seconds, start, (False,))[False]
    raw = {"wall_s": [net_wall(r) for r in runs],
           "cpu_s": [r["cpu_s"] - r["probe_spent_s"] for r in runs],
           "setup_s": [r["setup_s"] for r in runs]}
    scale = [PROBE_REF_S / r["probe_mean_s"] for r in runs]
    if not all(map(math.isfinite, scale)):
        raise RuntimeError("a pass ended before the first probe sample")
    metrics = {name: statistics.median(v * k for v, k in zip(values, scale))
               for name, values in raw.items()}
    metrics["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in runs)
    unit_ms = 1e3 * statistics.median(r["probe_mean_s"] for r in runs)
    print("raw medians: " + ", ".join(
        f"{name} {statistics.median(values):.6g} s"
        for name, values in raw.items()) + f"; probe unit {unit_ms:.4g} ms")
    return metrics, len(runs), runs


def trace_layers(runner: Runner, seconds: float,
                 start: float) -> tuple[dict, list]:
    """Per-layer metrics of the fastest traced pass: (metrics, results)."""
    runs = passes(runner, seconds, start, (False, True))
    plain = min(map(net_wall, runs[False]))
    traced = min(runs[True], key=lambda run: run["wall_s"])
    metrics = dict(traced["layers"])
    metrics["trace.overhead_s"] = traced["wall_s"] - plain
    print(f"passes {len(runs[False])} untraced, {len(runs[True])} traced")
    return metrics, runs[False] + runs[True]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (SRC / "hardyheat" / "cli.py").is_file():
        print(f"no hardyheat sources under {SRC}", file=sys.stderr)
        return 2

    start = time.perf_counter()
    WORK.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    runner = Runner(scratch, args.workload, args.seed, start + BUDGET_S)
    try:
        if args.trace:
            metrics, runs = trace_layers(runner, args.seconds, start)
            units = {name: unit_of(name) for name in metrics}
            extra = ""
        else:
            metrics, count, runs = measure(runner, args.seconds, start)
            units = END_TO_END
            extra = f"  (median of {count} passes)"
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    attempted, failed, misses = operations(runs)
    env = dict(runs[-1]["env"], nproc=os.cpu_count(),
               affinity=len(os.sched_getaffinity(0)), commit=git_commit())
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"interpreters={runner.count}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, value in metrics.items():
        print(f"metric {name} = {value:.6g} {units[name]}{extra}")
    print(f"metric failed_ratio = {failed / attempted:.6g} "
          f"({failed} of {attempted} operations)")
    if args.trace:
        layers = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
        print(f"layer self times sum to {layers:.6g} s of "
              f"{metrics['trace.wall_s']:.6g} s traced wall")
    for name, _, detail in misses:
        print(f"check failed: {name}: {detail}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
