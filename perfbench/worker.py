"""One measurement of the benchmark in a fresh interpreter.

    python3 perfbench/worker.py SPEC.json SPAWNED_AT

SPAWNED_AT is the parent's `time.perf_counter()` just before it started
this process (a system-wide monotonic clock on Linux), so set-up time runs
from interpreter start until `hardyheat.cli` is imported.  SPEC.json names
the CLI commands, the output directory, whether to trace and where to write
the result.  An untraced pass runs under the speed probe (perfbench/probe.py)
and reports its mean unit time and the time it took.
"""
import json
import os
import sys
import time


def _call(main, argv) -> int:
    """Exit code of one CLI command; a crash counts as a failure."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    except Exception:
        import traceback
        traceback.print_exc()
        return 1


def _environment() -> dict:
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS",
                                           "unset (library default)")}


def run_commands(cli, spec: dict) -> dict:
    """Run the command sequence, timed; trace it if asked; check outputs."""
    import resource

    import workloads
    from probe import Probe
    from tracer import Instrumentation, Tracer, layer_metrics

    # A traced pass runs without the probe, whose samples would land in
    # the spans.
    tracer = Tracer() if spec["trace"] else None
    probe = None if tracer else Probe()
    with (Instrumentation(tracer) if tracer else probe), \
            workloads.capturing_profiles(cli) as profiles:
        cpu0, wall0 = time.process_time(), time.perf_counter()
        codes = [_call(cli.main, ["--outdir", spec["outdir"], *argv])
                 for argv in spec["commands"]]
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
    result = {"codes": codes, "wall_s": wall, "cpu_s": cpu,
              "peak_rss_mb": resource.getrusage(
                  resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if probe:
        result.update(probe_mean_s=probe.mean_s(),
                      probe_spent_s=probe.spent_s,
                      probe_samples=len(probe.samples))
    workload = spec["workload"]
    try:
        obs = workloads.observe(workload, spec["outdir"], profiles)
        reference = workloads.load_reference()[workload]
        result["checks"] = workloads.check(workload, spec["seed"], obs,
                                           reference)
    except (OSError, KeyError, ValueError, TypeError) as exc:
        result["checks"] = [("outputs", False, repr(exc))]
    if tracer:
        result["layers"] = layer_metrics(tracer, wall)
    result["env"] = _environment()
    return result


def main() -> int:
    spec_path, spawned_at = sys.argv[1], float(sys.argv[2])
    import hardyheat.cli as cli
    setup_s = time.perf_counter() - spawned_at
    with open(spec_path) as fh:
        spec = json.load(fh)
    src = os.path.realpath(spec["src"])
    if not os.path.realpath(cli.__file__).startswith(src + os.sep):
        print(f"hardyheat imported from {cli.__file__}, not {src}",
              file=sys.stderr)
        return 3
    result = {"setup_s": setup_s, **run_commands(cli, spec)}
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
