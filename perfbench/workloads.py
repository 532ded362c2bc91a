"""Workloads of the benchmark: the CLI command sequences and their checks.

One pass of a workload is its command sequence in a fresh interpreter.
The benchmarked passes are kept short (2-4 s) so that one run of the
benchmark takes its medians over ten passes or more.

Seed 0 runs the inputs below as written.  `sweep` takes its initial datum
from the seed: any other seed k scales the README Gaussian's amplitude and
width by factors drawn from [0.98, 1.02], so the data differ but every
cell keeps its seed-0 verdict and about its seed-0 cost.  `certify`,
`profile` and the box run carry no randomness; any other seed k passes
`--u0 random-bumps --seed k --amplitude 0.3` to the ground-state
`simulate`.

Each workload states why it is in the benchmark:

* sweep: 6 (lambda, p) cells of the README grid on 2 distinct collocation
  operators (3 cells share each), 4 blow-up runs (LU factorizations at
  every dt change) and 2 survive runs (stepping on cached LUs to t = 50).
  Stresses the collocation matrix, the head/tail quadrature panels and
  solver stepping; the kernel is idle.
* certify: the supersolution certification, 400 pointwise singular
  integrals over callable fields.  Stresses the fracop evaluators, the
  quadrature core, kernel lookups and constructions; the solver is idle.
  The critical-constants certification (~20 s, one indivisible command)
  is left out: too long to repeat in a run.
* profile: kernel tables at small s, where the Bessel-panel quadrature is
  slowest, for N = 1, 2, 3.  The only workload dominated by `kernel`.
* simulate: the only box/FFT run (64^3) and the only general-N collocation
  matrix (N = 2); each operator is built once.

BENCHMARK.json lists sweep and certify only; profile and simulate are long
passes, runnable by hand with --workload.
"""
from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import random

WORKLOADS = ("sweep", "certify", "profile", "simulate")

RANDOM_AMPLITUDE = "0.3"
REL_TOL = 1e-6             # against values stored in reference.json
RESIDUAL_FLOOR = -1e-6     # certified supersolution residual
MASS_TOL = 1e-6            # |mass - 1| of every kernel profile
POISSON_TOL = 1e-6         # s = 1/2 table against the Poisson kernel
POISSON_SIGMA_MAX = 20.0

SWEEP = ["sweep", "--N", "3", "--s", "0.5", "--lambda-grid", "0.2,0.5",
         "--p-grid", "1.3,1.9,2.5", "--jobs", "1"]
DATUM_JITTER = 0.02        # sweep amplitude and width factors 1 +- this
SUPERSOLUTION = ["verify", "supersolution", "--N", "3", "--s", "0.5",
                 "--lambda", "0.5", "--p", "2.0"]
PROFILES = {"N1": ("1", "0.25", "60", "321"),
            "N2": ("2", "0.25", "50", "161"),
            "N3": ("3", "0.25", "50", "321")}
BOX = ["simulate", "--formulation", "direct", "--N", "3", "--s", "0.5",
       "--lambda", "0.5", "--p", "1.2", "--points", "64", "--half-width",
       "16", "--t-max", "5", "--out", "box.csv"]
GROUND_STATE = ["simulate", "--N", "2", "--s", "0.5", "--lambda", "0.2",
                "--p", "1.5", "--points", "128", "--t-max", "40",
                "--out", "gs.csv"]

REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                         "reference.json")


def commands(workload: str, seed: int) -> list[list[str]]:
    """CLI argument lists of one iteration of `workload`."""
    bumps = ([] if seed == 0 else
             ["--u0", "random-bumps", "--seed", str(seed),
              "--amplitude", RANDOM_AMPLITUDE])
    if workload == "sweep":
        return [SWEEP + sweep_datum(seed)]
    if workload == "certify":
        return [SUPERSOLUTION]
    if workload == "profile":
        return [["kernel", "build", "--N", n, "--s", s, "--sigma-max", smax,
                 "--n-points", pts, "--out", f"profile_{key}.csv"]
                for key, (n, s, smax, pts) in PROFILES.items()]
    if workload == "simulate":
        return [BOX, GROUND_STATE + bumps]
    raise ValueError(f"unknown workload {workload!r}")


def sweep_datum(seed: int) -> list[str]:
    """Gaussian amplitude and width flags of the sweep for `seed`."""
    if seed == 0:
        return []
    rng = random.Random(seed)
    amplitude, width = (1.0 + rng.uniform(-DATUM_JITTER, DATUM_JITTER)
                        for _ in range(2))
    return ["--amplitude", repr(amplitude), "--width", repr(width)]


@contextlib.contextmanager
def capturing_profiles(cli):
    """Collect the kernel tables the CLI builds, for checks on tables that
    are not written out."""
    profiles = []
    build_profile = cli.build_profile

    def capture(*args, **kwargs):
        profile = build_profile(*args, **kwargs)
        profiles.append(profile)
        return profile

    cli.build_profile = capture
    try:
        yield profiles
    finally:
        cli.build_profile = build_profile


# ---------------------------------------------------------------------------
# observations: the values a workload's outputs carry


def _read_json(outdir: str, name: str) -> dict:
    with open(os.path.join(outdir, name)) as fh:
        return json.load(fh)


def poisson_error(profile) -> float:
    """Worst relative error of an N, s=1/2 table against the closed-form
    Poisson profile Gamma((N+1)/2) pi^{-(N+1)/2} (1+sigma^2)^{-(N+1)/2}."""
    n = profile.N
    c = math.gamma((n + 1) / 2.0) / math.pi ** ((n + 1) / 2.0)
    worst = 0.0
    for sigma, h in zip(profile.sigma_grid, profile.H_values):
        if sigma <= POISSON_SIGMA_MAX:
            exact = c * (1.0 + sigma * sigma) ** (-(n + 1) / 2.0)
            worst = max(worst, abs(float(h) - exact) / exact)
    return worst


def observe(workload: str, outdir: str, profiles: list) -> dict:
    """Values read from the outputs in `outdir`; `profiles` are the kernel
    tables the commands built in memory."""
    if workload == "sweep":
        with open(os.path.join(outdir, "sweep.csv")) as fh:
            rows = [[float(r["lambda"]), float(r["p"]), r["verdict"],
                     float(r["t_star"]), float(r["final_weighted_mass"])]
                    for r in csv.DictReader(fh)]
        return {"rows": rows}
    if workload == "certify":
        sup = _read_json(outdir, "verify_supersolution.json")
        return {"A": sup["A"],
                "min_normalized_residual": sup["min_normalized_residual"],
                "pass": [sup["pass"]],
                "masses": [p.mass for p in profiles],
                "poisson_error": [poisson_error(p) for p in profiles
                                  if p.s == 0.5]}
    if workload == "profile":
        out = {}
        for key in PROFILES:
            head = _read_json(outdir, f"profile_{key}.json")
            with open(os.path.join(outdir, f"profile_{key}.csv")) as fh:
                table = list(csv.DictReader(fh))
            out[key] = {"mass": head["mass"],
                        "H": [float(row["H"]) for row in table[::32]]}
        return out
    if workload == "simulate":
        return {key: {k: v for k, v in _read_json(
                    outdir, f"{key}_verdict.json").items()
                    if k in ("verdict", "t_star")}
                for key in ("box", "gs")}
    raise ValueError(f"unknown workload {workload!r}")


# ---------------------------------------------------------------------------
# checks: one (name, ok, detail) per output check


def _close(a, b, tol=REL_TOL) -> bool:
    if a is None or b is None:
        return a is b
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= tol * max(abs(a), abs(b))


def _check_blowups(name: str, verdicts: list[tuple[str, float | None]]):
    """Invariants of a run on random data: no inconclusive verdict and a
    finite t* for every blow-up."""
    inconclusive = sum(v == "inconclusive" for v, _ in verdicts)
    bad_t = sum(v == "blew_up" and not (t is not None and math.isfinite(t))
                for v, t in verdicts)
    return [(f"{name}.no_inconclusive", inconclusive == 0,
             f"{inconclusive} inconclusive"),
            (f"{name}.finite_t_star", bad_t == 0,
             f"{bad_t} blow-ups without finite t*")]


def check(workload: str, seed: int, obs: dict, ref: dict) -> list:
    """Compare observations with the oracles and with `ref`, the seed-0
    observations stored in reference.json."""
    return [(name, bool(ok), detail)
            for name, ok, detail in _checks(workload, seed, obs, ref)]


def _checks(workload: str, seed: int, obs: dict, ref: dict) -> list:
    out = []
    if workload == "sweep":
        rows, ref_rows = obs["rows"], ref["rows"]
        grid_ok = [r[:2] for r in rows] == [r[:2] for r in ref_rows]
        out.append(("sweep.grid", grid_ok, f"{len(rows)} cells"))
        verdicts = sum(a[2] == b[2] for a, b in zip(rows, ref_rows))
        out.append(("sweep.verdicts", grid_ok and verdicts == len(ref_rows),
                    f"{verdicts}/{len(ref_rows)} match"))
        if seed == 0:
            for col, name in ((3, "t_star"), (4, "final_weighted_mass")):
                far = sum(not _close(a[col], b[col])
                          for a, b in zip(rows, ref_rows))
                out.append((f"sweep.{name}", grid_ok and far == 0,
                            f"{far} cells off by more than {REL_TOL:g}"))
        else:
            out += _check_blowups("sweep", [(r[2], r[3]) for r in rows])
        return out
    if workload == "certify":
        out.append(("supersolution.residual",
                    obs["min_normalized_residual"] >= RESIDUAL_FLOOR,
                    f"min residual {obs['min_normalized_residual']:.3e}"))
        for key in ("A", "min_normalized_residual"):
            out.append((f"certify.{key}", _close(obs[key], ref[key]),
                        f"{obs[key]!r} vs {ref[key]!r}"))
        out.append(("certify.pass", all(obs["pass"]), str(obs["pass"])))
        worst_mass = max((abs(m - 1.0) for m in obs["masses"]),
                         default=math.inf)
        out.append(("certify.unit_mass", worst_mass <= MASS_TOL,
                    f"|mass-1| {worst_mass:.2e}"))
        worst = max(obs["poisson_error"], default=math.inf)
        out.append(("certify.poisson", worst <= POISSON_TOL,
                    f"relative error {worst:.2e}"))
        return out
    if workload == "profile":
        for key in PROFILES:
            mass = obs[key]["mass"]
            out.append((f"profile.{key}.unit_mass",
                        abs(mass - 1.0) <= MASS_TOL, f"mass {mass!r}"))
            far = sum(not _close(a, b) for a, b in
                      zip(obs[key]["H"], ref[key]["H"]))
            same = len(obs[key]["H"]) == len(ref[key]["H"])
            out.append((f"profile.{key}.H", same and far == 0,
                        f"{far} sampled H values off"))
        return out
    if workload == "simulate":
        box = obs["box"]
        out.append(("simulate.box", box["verdict"] == ref["box"]["verdict"]
                    and _close(box["t_star"], ref["box"]["t_star"]),
                    f"{box['verdict']} t*={box['t_star']}"))
        gs = obs["gs"]
        if seed == 0:
            out.append(("simulate.gs", gs["verdict"] == ref["gs"]["verdict"]
                        and _close(gs["t_star"], ref["gs"]["t_star"]),
                        f"{gs['verdict']} t*={gs['t_star']}"))
        else:
            out += _check_blowups("simulate.gs",
                                  [(gs["verdict"], gs["t_star"])])
        return out
    raise ValueError(f"unknown workload {workload!r}")


def load_reference() -> dict:
    with open(REFERENCE) as fh:
        return json.load(fh)
