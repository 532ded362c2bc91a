"""Command-line entry point.

Every subcommand echoes the parameters it reads, and only those, into a
manifest JSON next to its outputs, so any invocation can be reproduced
bit-identically from the manifest alone.  Numbers in CSV files carry 17
significant digits; JSON floats round-trip exactly.

Exit codes: 0 success, 2 usage, 3 domain error, 4 certification failure,
5 numerical non-convergence.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__
from .errors import (BlowupFitError, CertificationError, DomainError,
                     QuadratureError, RegimeAmbiguityError)
from .exponents import (ProblemParams, classify_regime, exponent_profile,
                        phase_table, phase_table_csv)
from .fracop import Field, UniformGrid, verify_power_solution
from .kernel import (build_profile, check_envelope, load_profile,
                     profile_moment, save_profile)
from .solver import RadialGrid, SolverConfig, run, save_trajectory
from .constructions import (TestFunctionParams, check_scaling_ode,
                            choose_supersolution, critical_case_constants,
                            energy_gap, psi_differential_inequality,
                            psi_mass_constant, smooth_bump)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_CERTIFICATION = 4
EXIT_NUMERICAL = 5


def _outdir(args) -> str:
    out = args.outdir or os.environ.get("HARDYHEAT_OUTDIR", ".")
    os.makedirs(out, exist_ok=True)
    return out


def _write_manifest(args, command: str, outputs: list[str],
                    extra: dict | None = None) -> str:
    manifest = {
        "command": command,
        "version": __version__,
        "parameters": {k: v for k, v in sorted(vars(args).items())
                       if k not in ("func", "config") and v is not None},
        "outputs": sorted(outputs),
    }
    if extra:
        manifest["provenance"] = extra
    path = os.path.join(_outdir(args), f"manifest_{command.replace(' ', '_')}.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path


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
    print(json.dumps(prof.as_dict(), sort_keys=True, indent=2))
    _write_manifest(args, "exponents", [])
    return EXIT_OK


def _cmd_phase_diagram(args) -> int:
    grid = _parse_grid_spec(args.lambda_grid)
    rows, errors = phase_table(args.N, args.s, grid)
    out = os.path.join(_outdir(args), args.out)
    with open(out, "w") as fh:
        fh.write(phase_table_csv(rows))
    for lam, msg in errors:
        print(f"skipped lambda={lam!r}: {msg}", file=sys.stderr)
    _write_manifest(args, "phase-diagram", [out],
                    {"rows": len(rows), "skipped": len(errors)})
    print(out)
    return EXIT_OK


def _cmd_kernel(args) -> int:
    outdir = _outdir(args)
    if args.action == "build":
        prof = build_profile(args.N, args.s, args.sigma_max, args.n_points)
        csv_path = os.path.join(outdir, args.out)
        json_path = csv_path.rsplit(".", 1)[0] + ".json"
        save_profile(prof, csv_path, json_path)
        _write_manifest(args, "kernel_build", [csv_path, json_path],
                        {"mass": prof.mass,
                         "envelope_constant": check_envelope(prof)})
        print(csv_path)
        return EXIT_OK
    csv_path = os.path.join(outdir, args.out)
    json_path = csv_path.rsplit(".", 1)[0] + ".json"
    prof = load_profile(csv_path, json_path)
    if (prof.N, prof.s) != (args.N, args.s):
        raise DomainError(f"{json_path} holds a table for N={prof.N}, "
                          f"s={prof.s}, not --N {args.N} --s {args.s}")
    prof.validate()
    C = check_envelope(prof)
    report = {"envelope_constant": C, "mass": prof.mass,
              "mass_defect": abs(prof.mass - 1.0)}
    if args.scaling_ode:
        report["scaling_ode_residual"] = check_scaling_ode(prof)
    print(json.dumps(report, sort_keys=True, indent=2))
    _write_manifest(args, "kernel_check", [])
    ok = report["mass_defect"] <= 1e-6 and np.isfinite(C)
    if args.scaling_ode:
        ok = ok and report["scaling_ode_residual"] <= 1e-2
    return EXIT_OK if ok else EXIT_CERTIFICATION


def _cmd_verify(args) -> int:
    outdir = _outdir(args)
    report: dict = {"check": args.check}
    ok = True
    if args.check == "lemma21":
        err = verify_power_solution(args.N, args.s, args.alpha,
                                    [0.5, 1.0, 2.0])
        report["max_relative_error"] = err
        ok = err <= 1e-3
    elif args.check == "psi-eta":
        prof = build_profile(args.N, args.s, 50.0, 321)
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
        prof = build_profile(args.N, args.s, 50.0, 321)
        sp, res = choose_supersolution(params, prof)
        report.update({"A": sp.A, "gamma": sp.gamma, "T": sp.T,
                       "min_normalized_residual": res})
        ok = res >= -1e-6
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
    path = os.path.join(outdir, f"verify_{args.check}.json")
    report["pass"] = bool(ok)
    with open(path, "w") as fh:
        json.dump(report, fh, sort_keys=True, indent=2)
        fh.write("\n")
    print(json.dumps(report, sort_keys=True, indent=2))
    _write_manifest(args, f"verify_{args.check}", [path])
    return EXIT_OK if ok else EXIT_CERTIFICATION


def _make_datum(kind: str, amplitude: float, width: float, seed: int | None):
    if not 0.0 < width < np.inf:
        raise DomainError(f"--width must be positive and finite, got {width}")
    if not np.isfinite(amplitude):
        raise DomainError(f"--amplitude must be finite, got {amplitude}")
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
            float(rep.weighted_mass_series[-1]), regime)


def _cmd_simulate(args) -> int:
    params = ProblemParams(args.N, args.s, args.lam, args.p)
    if args.formulation == "direct":
        grid = UniformGrid(args.N, args.half_width, args.points)
        datum = Field.from_radial(
            grid, _make_datum(args.u0, args.amplitude, args.width, args.seed))
    elif args.formulation == "ground_state":
        grid = RadialGrid(args.r_min, args.r_max, args.points)
        datum = _make_datum(args.u0, args.amplitude, args.width, args.seed)
    else:
        raise DomainError(f"unknown formulation {args.formulation!r}")
    cfg = SolverConfig(params=params, grid=grid, t_max=args.t_max,
                       dt_initial=args.dt_initial, dt_safety=args.dt_safety,
                       blowup_threshold=args.blowup_threshold,
                       potential_epsilon=args.potential_epsilon,
                       n_monitor=args.n_monitor)
    rep = run(datum, cfg)
    outdir = _outdir(args)
    csv_path = os.path.join(outdir, args.out)
    json_path = csv_path.rsplit(".", 1)[0] + "_verdict.json"
    save_trajectory(rep, csv_path, json_path)
    _write_manifest(args, "simulate", [csv_path, json_path],
                    {"verdict": rep.verdict.kind,
                     "t_star": rep.verdict.t_star})
    print(json.dumps({"verdict": rep.verdict.kind,
                      "t_star": rep.verdict.t_star,
                      "reason": rep.verdict.reason}, sort_keys=True))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    lam_grid = _parse_grid_spec(args.lambda_grid)
    p_grid = _parse_grid_spec(args.p_grid)
    cells = [(args, float(lam), float(p)) for lam in lam_grid for p in p_grid]
    if args.jobs > 1:
        # whole lambda rows per worker: each builds a row's operator once
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            results = list(pool.map(_run_one, cells, chunksize=len(p_grid)))
    else:
        results = [_run_one(cell) for cell in cells]
    results.sort(key=lambda row: (row[0], row[1]))
    outdir = _outdir(args)
    out = os.path.join(outdir, args.out)
    with open(out, "w") as fh:
        fh.write("lambda,p,verdict,t_star,final_weighted_mass,regime,"
                 "regime_conflict\n")
        for lam, p, verdict, t_star, wm, regime in results:
            # no solution exists past p_plus, so any verdict but
            # inconclusive there contradicts the theory
            conflict = int(regime == "non_existence"
                           and verdict != "inconclusive")
            fh.write(f"{lam:.17g},{p:.17g},{verdict},{t_star:.17g},{wm:.17g},"
                     f"{regime},{conflict}\n")
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
    pb.add_argument("--sigma-max", type=float, default=50.0)
    pb.add_argument("--n-points", type=int, default=321)
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
    ps.add_argument("--u0", default="gaussian")
    ps.add_argument("--amplitude", type=float, default=1.0)
    ps.add_argument("--width", type=float, default=1.0)
    ps.add_argument("--seed", type=int, default=None)
    ps.add_argument("--t-max", type=float, default=10.0)
    ps.add_argument("--dt-initial", type=float, default=0.01)
    ps.add_argument("--dt-safety", type=float, default=0.5)
    ps.add_argument("--blowup-threshold", type=float, default=1e4)
    ps.add_argument("--potential-epsilon", type=float, default=None)
    ps.add_argument("--n-monitor", type=int, default=64)
    ps.add_argument("--r-min", type=float, default=1e-3)
    ps.add_argument("--r-max", type=float, default=1e3)
    ps.add_argument("--half-width", type=float, default=16.0)
    ps.add_argument("--points", type=int, default=192)
    ps.add_argument("--out", default="trajectory.csv")
    ps.set_defaults(func=_cmd_simulate)

    pw = command("sweep", help="verdict per (lambda, p) grid cell")
    pw.add_argument("--lambda-grid", type=_grid_spec, required=True)
    pw.add_argument("--p-grid", type=_grid_spec, required=True)
    pw.add_argument("--u0", default="gaussian")
    pw.add_argument("--amplitude", type=float, default=1.0)
    pw.add_argument("--width", type=float, default=1.0)
    pw.add_argument("--seed", type=int, default=None)
    pw.add_argument("--t-max", type=float, default=50.0)
    pw.add_argument("--dt-initial", type=float, default=0.02)
    pw.add_argument("--blowup-threshold", type=float, default=1e4)
    pw.add_argument("--r-min", type=float, default=1e-3)
    pw.add_argument("--r-max", type=float, default=1e3)
    pw.add_argument("--points", type=int, default=128)
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


if __name__ == "__main__":
    sys.exit(main())
