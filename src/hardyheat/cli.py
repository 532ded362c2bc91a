"""Command-line entry point.

Every subcommand echoes the parameters it reads, and only those, into a
manifest JSON next to its outputs, so any invocation can be reproduced
bit-identically from the manifest alone.  This module alone reads and
writes files, all through _write_json (sorted keys, indent 2, trailing
newline: JSON floats round-trip exactly) and _write_csv (floats with 17
significant digits), which create the folder of the file if it is missing.

Exit codes: 0 success, 2 usage or an output path that cannot be written,
3 domain error, 4 certification failure, 5 numerical non-convergence.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import json
# argparse's messages import locale when the first parser is built; loaded
# here, with the package, its cost counts as start-up, not as a command's
import locale  # noqa: F401
import os
import sys

import numpy as np

from . import _BLAS_THREADS, _NUMPY_LOADED_FIRST, __version__
from .errors import (BlowupFitError, CertificationError, DomainError,
                     ProfileError, QuadratureError, RegimeAmbiguityError)
from .exponents import (ProblemParams, classify_regime, exponent_profile,
                        phase_table)
from .fracop import Field, UniformGrid, verify_power_solution
from .kernel import (KernelProfile, build_profile, check_envelope,
                     profile_moment)
from .solver import RadialGrid, SolverConfig, TrajectoryReport, run
from .constructions import (TestFunctionParams, check_scaling_ode,
                            choose_supersolution, critical_case_constants,
                            energy_gap, psi_differential_inequality,
                            psi_mass_constant, smooth_bump)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_CERTIFICATION = 4
EXIT_NUMERICAL = 5

# (sigma_max, knots) of verify's kernel tables; kernel build's defaults
_CERT_TABLE = (50.0, 321)


class _UnwritableOutput(Exception):
    """An output file that cannot be written (exit 2, as a usage error)."""


def _outdir(args) -> str:
    return args.outdir or os.environ.get("HARDYHEAT_OUTDIR", ".")


def _environment() -> dict:
    """The numerical environment of this process: numpy's version, its BLAS
    name and version, the OPENBLAS_NUM_THREADS setting numpy loaded with,
    and whether numpy was loaded before hardyheat."""
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _BLAS_THREADS,
            "numpy_loaded_before_hardyheat": _NUMPY_LOADED_FIRST}


def _write_manifest(args, command: str, outputs: list[str],
                    extra: dict | None = None, unread=()) -> str:
    """Write manifest_<command>.json, or for a command with an --out file
    <stem>.<ext> manifest_<command>_<stem>.json beside that file, so that
    runs writing different outputs keep their own manifests: the parsed
    arguments that are set, less those named in `unread` (flags this run
    of the command ignores), the outputs, the numerical environment and
    the provenance `extra`."""
    manifest = {
        "command": command,
        "version": __version__,
        "environment": _environment(),
        "parameters": {k: v for k, v in sorted(vars(args).items())
                       if k not in ("func", "config", *unread)
                       and v is not None},
        "outputs": sorted(outputs),
    }
    if extra:
        manifest["provenance"] = extra
    folder, name = "", command
    if getattr(args, "out", None):
        folder, stem = os.path.split(os.path.splitext(args.out)[0])
        name += "_" + stem
    path = os.path.join(_outdir(args), folder, f"manifest_{name}.json")
    _write_json(path, manifest)
    return path


def _write_text(path, text: str) -> None:
    """Write `text` to `path`, creating its folder if it is missing.
    Refuses (_UnwritableOutput) a path that cannot be written."""
    folder = os.path.dirname(path)
    try:
        if folder:
            os.makedirs(folder, exist_ok=True)
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise _UnwritableOutput(f"cannot write {path}: {exc}") from None


def _write_json(path, obj) -> str:
    """Write `obj` as sorted, indented JSON with a trailing newline; the
    text written is returned, so the same report can be printed."""
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    _write_text(path, text)
    return text


def _write_csv(path, header: str, rows) -> None:
    """Write the `header` line, then one line per row: strings as they
    are, numbers with 17 significant digits."""
    lines = [header] + [",".join(v if isinstance(v, str) else format(v, ".17g")
                                 for v in row) for row in rows]
    _write_text(path, "\n".join(lines) + "\n")


def _sidecar(path: str, suffix: str) -> str:
    """The JSON file that goes with output `path`: its extension, if any,
    replaced by `suffix`.  A sidecar that would be `path` itself is
    refused (DomainError)."""
    side = os.path.splitext(path)[0] + suffix
    if side == path:
        raise DomainError(f"--out {path} would be overwritten by its own "
                          f"JSON sidecar; give it another name")
    return side


def save_profile(profile: KernelProfile, csv_path, json_path) -> dict:
    """Write the table (sigma, H, H') and its JSON header; the header is
    returned."""
    _write_csv(csv_path, "sigma,H,Hprime",
               zip(profile.sigma_grid, profile.H_values,
                   profile.Hprime_values))
    header = {
        "N": profile.N, "s": profile.s,
        "sigma_max": profile.sigma_max,
        "n_points": int(len(profile.sigma_grid)),
        "mass": profile.mass,
        "envelope_constant": check_envelope(profile),
    }
    _write_json(json_path, header)
    return header


def load_profile(csv_path, json_path) -> KernelProfile:
    """The table save_profile wrote.  Refuses (ProfileError) a missing file,
    a header without N, s, mass, n_points and sigma_max, a table that is
    not three columns of numbers or whose knots are not the header's, and
    every table KernelProfile refuses."""
    try:
        with open(json_path) as fh:
            header = json.load(fh)
        N, s = int(header["N"]), float(header["s"])
        mass = float(header["mass"])
        knots = [int(header["n_points"]), float(header["sigma_max"])]
        sigma, H, Hp = np.loadtxt(csv_path, delimiter=",", skiprows=1,
                                  usecols=(0, 1, 2), ndmin=2, unpack=True)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ProfileError(f"unreadable kernel table: {exc}") from None
    rows = [len(sigma), *sigma[-1:].tolist()]
    if rows != knots:
        raise ProfileError(f"kernel table rows (knots, last sigma) {rows} "
                           f"differ from its header's {knots}")
    return KernelProfile(N=N, s=s, sigma_grid=sigma, H_values=H,
                         Hprime_values=Hp, mass=mass)


def save_trajectory(report: TrajectoryReport, csv_path, json_path) -> None:
    """Write the checkpoint monitors and the verdict record of a run."""
    _write_csv(csv_path, "t,weighted_mass,critical_norm,l2,energy",
               zip(report.times, report.weighted_mass_series,
                   report.critical_norm_series, report.l2_series,
                   report.energy_series))
    cfg = report.config
    grid = cfg.grid
    box = isinstance(grid, UniformGrid)
    _write_json(json_path, {
        "verdict": report.verdict.kind,
        "t_star": report.verdict.t_star,
        "tail_linearity": report.verdict.tail_linearity,
        "reason": report.verdict.reason,
        "params": {"N": cfg.params.N, "s": cfg.params.s,
                   "lambda": cfg.params.lam, "p": cfg.params.p},
        "formulation": "direct" if box else "ground_state",
        "diffusion": cfg.diffusion,
        "potential_epsilon": cfg.potential_epsilon,
        "dt_initial": cfg.dt_initial,
        "dt_safety": cfg.dt_safety,
        "t_max": cfg.t_max,
        "blowup_threshold": cfg.blowup_threshold,
        "grid": ({"type": "uniform", "N": grid.N,
                  "half_width": grid.half_width,
                  "points_per_axis": grid.points_per_axis} if box else
                 {"type": "radial", "r_min": grid.r_min, "r_max": grid.r_max,
                  "n_points": grid.n_points}),
        "steps": {"accepted": report.steps_accepted,
                  "full": report.steps_full,
                  "rejected": report.steps_rejected,
                  "dt_min": report.dt_min, "dt_max": report.dt_max},
    })


def _parse_grid_spec(spec: str) -> np.ndarray:
    """a:b:n inclusive linear grid, or a comma list."""
    if ":" in spec:
        a, b, n = spec.split(":")
        return np.linspace(float(a), float(b), int(n))
    return np.array([float(x) for x in spec.split(",")])


def _grid_spec(spec: str) -> str:
    """The argparse type of a grid flag: the spec as written, once
    _parse_grid_spec reads at least one value from it (a usage error names
    the flag otherwise)."""
    try:
        empty = _parse_grid_spec(spec).size == 0
    except ValueError:
        empty = True
    if empty:
        raise argparse.ArgumentTypeError(
            f"{spec!r} is neither a:b:n with n >= 1 nor a comma list of "
            "numbers")
    return spec


def _config_defaults(path: str, parser: argparse.ArgumentParser) -> dict:
    """The key=value lines of a config file that name a value-taking option
    of `parser` (by a flag without its dashes or by its destination, '-'
    and '_' alike), keyed by destination, as strings that argparse converts
    with the option's type.  Other keys, and flags that take no value, are
    ignored."""
    dest_of = {name.lstrip("-").replace("-", "_"): action.dest
               for action in parser._actions
               if action.option_strings and action.nargs != 0
               for name in (action.dest, *action.option_strings)}
    values = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key, _, val = line.partition("=")
            key = key.strip().replace("-", "_")
            if key in dest_of:
                values[dest_of[key]] = val.strip()
    return values


# ---------------------------------------------------------------------------
# subcommands


def _cmd_exponents(args) -> int:
    prof = exponent_profile(args.N, args.s, getattr(args, "lam"))
    # JSON has no Infinity: the p_plus of lambda = 0 prints as null
    out = {k: None if v == np.inf else v for k, v in prof.as_dict().items()}
    print(json.dumps(out, sort_keys=True, indent=2))
    _write_manifest(args, "exponents", [])
    return EXIT_OK


def _cmd_phase_diagram(args) -> int:
    grid = _parse_grid_spec(args.lambda_grid)
    rows, errors = phase_table(args.N, args.s, grid)
    out = os.path.join(_outdir(args), args.out)
    _write_csv(out, "lambda,alpha,mu,p_minus,p_plus,fujita",
               [(r.lam, r.alpha, r.mu, r.p_minus, r.p_plus, r.fujita)
                for r in rows])
    for lam, msg in errors:
        print(f"skipped lambda={lam!r}: {msg}", file=sys.stderr)
    _write_manifest(args, "phase-diagram", [out],
                    {"rows": len(rows), "skipped": len(errors)})
    print(out)
    return EXIT_OK


def _cmd_kernel(args) -> int:
    csv_path = os.path.join(_outdir(args), args.out)
    json_path = _sidecar(csv_path, ".json")
    if args.action == "build":
        prof = build_profile(args.N, args.s, args.sigma_max, args.n_points)
        header = save_profile(prof, csv_path, json_path)
        _write_manifest(args, "kernel_build", [csv_path, json_path],
                        {key: header[key]
                         for key in ("mass", "envelope_constant")})
        print(csv_path)
        return EXIT_OK
    prof = load_profile(csv_path, json_path)
    if (prof.N, prof.s) != (args.N, args.s):
        raise DomainError(f"{json_path} holds a table for N={prof.N}, "
                          f"s={prof.s}, not --N {args.N} --s {args.s}")
    C = check_envelope(prof)
    report = {"envelope_constant": C, "mass": prof.mass,
              "mass_defect": abs(prof.mass - 1.0)}
    if args.scaling_ode:
        report["scaling_ode_residual"] = check_scaling_ode(prof)
    print(json.dumps(report, sort_keys=True, indent=2))
    _write_manifest(args, "kernel_check", [])
    ok = report["mass_defect"] <= 1e-6 and np.isfinite(C)
    if args.scaling_ode:
        ok = ok and report["scaling_ode_residual"] <= 1e-3
    return EXIT_OK if ok else EXIT_CERTIFICATION


def _cmd_verify(args) -> int:
    report: dict = {"check": args.check}
    ok = True
    if args.check == "lemma21":
        err = verify_power_solution(args.N, args.s, args.alpha,
                                    [0.5, 1.0, 2.0])
        report["max_relative_error"] = err
        ok = err <= 1e-3
    elif args.check == "psi-eta":
        prof = build_profile(args.N, args.s, *_CERT_TABLE)
        mu = exponent_profile(args.N, args.s, args.lam).mu
        mass = psi_mass_constant(prof, mu)
        exact = profile_moment(args.N, args.s, mu)
        err = abs(mass - exact) / exact
        report.update({"mass_constant": mass,
                       "mass_constant_closed_form": exact,
                       "mass_constant_relative_error": err})
        slack = psi_differential_inequality(
            TestFunctionParams(0.05, mu), prof, args.lam,
            np.geomspace(0.1, 10.0, 20))
        report["differential_inequality_min_slack"] = slack
        ok = err <= 1e-6 and slack >= -1e-6
    elif args.check == "supersolution":
        params = ProblemParams(args.N, args.s, args.lam, args.p)
        prof = build_profile(args.N, args.s, *_CERT_TABLE)
        sp, cert = choose_supersolution(params, prof)
        report.update({"A": sp.A, "gamma": sp.gamma, "T": sp.T,
                       **dataclasses.asdict(cert)})
        ok = cert.min_normalized_residual >= -1e-6
    elif args.check == "energy":
        params = ProblemParams(args.N, args.s, args.lam, args.p)
        grid = UniformGrid(args.N, 2.0 * args.radius, 64)
        h0 = Field.from_radial(grid, smooth_bump(args.radius))
        lhs, rhs = energy_gap(h0, params, args.radius)
        a_star = (rhs / lhs) ** (1.0 / (params.p - 1.0)) if rhs > 0 else 0.0
        report.update({"reaction_side_unit": lhs, "dissipation_side_unit": rhs,
                       "threshold_amplitude": a_star})
        ok = np.isfinite(a_star)
    elif args.check == "critical-constants":
        fujita = exponent_profile(args.N, args.s, args.lam).fujita
        params = ProblemParams(args.N, args.s, args.lam, fujita)
        c1, c3, d1, d3 = critical_case_constants(params, args.m, args.kappa)
        report.update({"C1": c1, "C3": c3, "C1_refinement_delta": d1,
                       "C3_refinement_delta": d3})
        ok = np.isfinite(c1) and np.isfinite(c3)
    path = os.path.join(_outdir(args), f"verify_{args.check}.json")
    report["pass"] = bool(ok)
    print(_write_json(path, report), end="")
    _write_manifest(args, f"verify_{args.check}", [path])
    return EXIT_OK if ok else EXIT_CERTIFICATION


def _make_datum(kind: str, amplitude: float, width: float, seed: int | None):
    if not 0.0 < width < np.inf:
        raise DomainError(f"--width must be positive and finite, got {width}")
    if not 0.0 <= amplitude < np.inf:
        raise DomainError(
            f"--amplitude must be nonnegative and finite, got {amplitude}")
    if seed is not None and seed < 0:
        raise DomainError(f"--seed must be nonnegative, got {seed}")
    if kind == "gaussian":
        def f(r):
            return amplitude * np.exp(-(r / width) ** 2)
        return f
    if kind == "random-bumps":
        rng = np.random.default_rng(0 if seed is None else seed)
        centers = rng.uniform(0.5, 3.0, size=4)
        amps = amplitude * rng.uniform(0.5, 1.0, size=4)

        def f(r):
            r = np.asarray(r, dtype=float)
            return sum(a * np.exp(-((r - c) / width) ** 2)
                       for a, c in zip(amps, centers))
        return f
    raise DomainError(f"unknown datum kind {kind!r}")


def _run_one(cell):
    """One sweep cell (args, lambda, p): the parsed sweep arguments and the
    cell's coupling and exponent."""
    args, lam, p = cell
    params = ProblemParams(args.N, args.s, lam, p)
    grid = RadialGrid(args.r_min, args.r_max, args.points)
    cfg = SolverConfig(params=params, grid=grid, t_max=args.t_max,
                       dt_initial=args.dt_initial,
                       blowup_threshold=args.blowup_threshold, n_monitor=32)
    rep = run(_make_datum(args.u0, args.amplitude, args.width, args.seed), cfg)
    t_star = rep.verdict.t_star
    try:
        regime = classify_regime(params).value
    except RegimeAmbiguityError:
        regime = "ambiguous"
    return (lam, p, rep.verdict.kind,
            float("nan") if t_star is None else t_star,
            float(rep.weighted_mass_series[-1]), regime, rep.steps_accepted,
            sum(rep.steps_rejected.values()))


def _cmd_simulate(args) -> int:
    csv_path = os.path.join(_outdir(args), args.out)
    json_path = _sidecar(csv_path, "_verdict.json")
    params = ProblemParams(args.N, args.s, args.lam, args.p)
    if args.formulation == "direct":
        grid = UniformGrid(args.N, args.half_width, args.points)
        datum = Field.from_radial(
            grid, _make_datum(args.u0, args.amplitude, args.width, args.seed))
        unread = ("r_min", "r_max")
    elif args.formulation == "ground_state":
        grid = RadialGrid(args.r_min, args.r_max, args.points)
        datum = _make_datum(args.u0, args.amplitude, args.width, args.seed)
        unread = ("half_width", "potential_epsilon")
    else:
        raise DomainError(f"unknown formulation {args.formulation!r}")
    cfg = SolverConfig(params=params, grid=grid, t_max=args.t_max,
                       dt_initial=args.dt_initial, dt_safety=args.dt_safety,
                       blowup_threshold=args.blowup_threshold,
                       potential_epsilon=args.potential_epsilon,
                       n_monitor=args.n_monitor)
    rep = run(datum, cfg)
    save_trajectory(rep, csv_path, json_path)
    _write_manifest(args, "simulate", [csv_path, json_path],
                    {"verdict": rep.verdict.kind,
                     "t_star": rep.verdict.t_star}, unread)
    print(json.dumps({"verdict": rep.verdict.kind,
                      "t_star": rep.verdict.t_star,
                      "reason": rep.verdict.reason}, sort_keys=True))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    if args.jobs < 1:
        raise DomainError(f"--jobs must be at least 1, got {args.jobs}")
    # every cell rebuilds the datum; refuse its flags before any worker starts
    _make_datum(args.u0, args.amplitude, args.width, args.seed)
    lam_grid = _parse_grid_spec(args.lambda_grid)
    p_grid = _parse_grid_spec(args.p_grid)
    cells = [(args, float(lam), float(p)) for lam in lam_grid for p in p_grid]
    if args.jobs > 1:
        # only here: every other command would pay for importing the pool
        from concurrent.futures import ProcessPoolExecutor

        # whole lambda rows per worker: each builds a row's operator once,
        # so a worker past one per row would start and sit idle
        with ProcessPoolExecutor(
                max_workers=min(args.jobs, len(lam_grid))) as pool:
            results = list(pool.map(_run_one, cells, chunksize=len(p_grid)))
    else:
        results = [_run_one(cell) for cell in cells]
    results.sort(key=lambda row: (row[0], row[1]))
    out = os.path.join(_outdir(args), args.out)
    # no solution exists past p_plus, so any verdict but inconclusive there
    # contradicts the theory
    _write_csv(out, "lambda,p,verdict,t_star,final_weighted_mass,regime,"
               "regime_conflict,steps,rejected",
               [(lam, p, verdict, t_star, wm, regime,
                 int(regime == "non_existence" and verdict != "inconclusive"),
                 steps, rejected)
                for lam, p, verdict, t_star, wm, regime, steps, rejected
                in results])
    _write_manifest(args, "sweep", [out], {"cells": len(results)})
    print(out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="hardyheat",
        description="Critical exponents, kernel profiles, nonlocal operators "
                    "and blow-up simulation for the fractional heat equation "
                    "with a Hardy potential.")
    top.add_argument("--outdir", default=None,
                     help="output directory (or HARDYHEAT_OUTDIR, default .)")
    top.add_argument("--config", default=None,
                     help="key=value config file merged under explicit flags")
    sub = top.add_subparsers(dest="command")
    # parents= shares these actions, so none has a default --config could set
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--N", type=int, required=True)
    common.add_argument("--s", type=float, required=True)
    command = functools.partial(sub.add_parser, parents=[common])

    def run_flags(leaf, t_max: float, dt_initial: float, points: int):
        # simulate's and sweep's datum, clock and grid flags; each leaf its
        # own actions, which --config may set (parents= would share them)
        leaf.add_argument("--u0", default="gaussian")
        leaf.add_argument("--amplitude", type=float, default=1.0)
        leaf.add_argument("--width", type=float, default=1.0)
        leaf.add_argument("--seed", type=int, default=None)
        leaf.add_argument("--t-max", type=float, default=t_max)
        leaf.add_argument("--dt-initial", type=float, default=dt_initial)
        leaf.add_argument("--blowup-threshold", type=float, default=1e4)
        leaf.add_argument("--r-min", type=float, default=1e-3)
        leaf.add_argument("--r-max", type=float, default=1e3)
        leaf.add_argument("--points", type=int, default=points)

    pe = command("exponents", help="print an exponent profile as JSON")
    pe.add_argument("--lambda", dest="lam", type=float, required=True)
    pe.set_defaults(func=_cmd_exponents)

    pp = command("phase-diagram", help="exponent table over a lambda grid")
    pp.add_argument("--lambda-grid", type=_grid_spec, required=True,
                    help="a:b:n linear grid or comma list")
    pp.add_argument("--out", default="phase.csv")
    pp.set_defaults(func=_cmd_phase_diagram)

    pk = sub.add_parser("kernel", help="build or validate a kernel profile")
    actions = pk.add_subparsers(dest="action", required=True)
    pb = actions.add_parser("build", parents=[common])
    pb.add_argument("--sigma-max", type=float, default=_CERT_TABLE[0])
    pb.add_argument("--n-points", type=int, default=_CERT_TABLE[1])
    pb.add_argument("--out", default="profile.csv")
    pc = actions.add_parser("check", parents=[common])
    pc.add_argument("--out", default="profile.csv")
    pc.add_argument("--scaling-ode", action="store_true")
    pk.set_defaults(func=_cmd_kernel)

    pv = sub.add_parser("verify", help="run one certification")
    checks = pv.add_subparsers(dest="check", required=True)
    flags = {"lemma21": "alpha", "psi-eta": "lambda",
             "supersolution": "lambda p", "energy": "lambda p radius",
             "critical-constants": "lambda m kappa"}
    defaults = {"lambda": 0.5, "alpha": 0.5, "p": 2.0, "m": 3.4,
                "kappa": 0.05, "radius": 2.0}
    for check, names in flags.items():
        leaf = checks.add_parser(check, parents=[common])
        for name in names.split():
            leaf.add_argument(f"--{name}", type=float, default=defaults[name],
                              dest="lam" if name == "lambda" else None)
    pv.set_defaults(func=_cmd_verify)

    ps = command("simulate", help="run one Cauchy instance")
    ps.add_argument("--lambda", dest="lam", type=float, required=True)
    ps.add_argument("--p", type=float, required=True)
    ps.add_argument("--formulation", default="ground_state")
    run_flags(ps, t_max=10.0, dt_initial=0.01, points=192)
    ps.add_argument("--dt-safety", type=float, default=0.5)
    ps.add_argument("--potential-epsilon", type=float, default=None)
    ps.add_argument("--n-monitor", type=int, default=64)
    ps.add_argument("--half-width", type=float, default=16.0)
    ps.add_argument("--out", default="trajectory.csv")
    ps.set_defaults(func=_cmd_simulate)

    pw = command("sweep", help="verdict per (lambda, p) grid cell")
    pw.add_argument("--lambda-grid", type=_grid_spec, required=True)
    pw.add_argument("--p-grid", type=_grid_spec, required=True)
    run_flags(pw, t_max=50.0, dt_initial=0.02, points=128)
    pw.add_argument("--jobs", type=int, default=1)
    pw.add_argument("--out", default="sweep.csv")
    pw.set_defaults(func=_cmd_sweep)

    return top


def _leaf(parser: argparse.ArgumentParser, args) -> argparse.ArgumentParser:
    """The sub-parser that read `args`: down the sub-commands they name."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return _leaf(action.choices[getattr(args, action.dest)], args)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    if args.config:
        # config values become the defaults of the sub-parser that runs, so
        # explicit flags win; the first parse checked the required flags
        leaf = _leaf(parser, args)
        try:
            leaf.set_defaults(**_config_defaults(args.config, leaf))
        except OSError as exc:
            parser.error(f"argument --config: {exc}")
        args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except CertificationError as exc:
        print(f"certification failure: {exc}", file=sys.stderr)
        return EXIT_CERTIFICATION
    except (QuadratureError, BlowupFitError) as exc:
        print(f"numerical non-convergence: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except _UnwritableOutput as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
