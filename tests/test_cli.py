import concurrent.futures
import csv
import importlib.util
import json
import math
import os
import shlex
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from hardyheat import cli, errors, solver
from hardyheat.cli import main, save_profile
from hardyheat.exponents import ProblemParams
from hardyheat.solver import RadialGrid, SolverConfig


def run_cli(args, tmp_path):
    return main(["--outdir", str(tmp_path)] + args)


class TestExponentsCommand:
    def test_worked_instance(self, tmp_path, capsys):
        code = run_cli(["exponents", "--N", "3", "--s", "0.5",
                        "--lambda", "0.5"], tmp_path)
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["p_plus"] == pytest.approx(3.0, abs=1e-12)
        assert out["fujita"] == pytest.approx(1.4, abs=1e-12)
        assert (tmp_path / "manifest_exponents.json").exists()

    def test_potential_free_limit_prints_json(self, tmp_path, capsys):
        # p_plus = inf at lambda = 0 must print as null: Infinity and NaN
        # are not JSON
        def refuse(name):
            raise ValueError(f"{name} is not JSON")

        code = run_cli(["exponents", "--N", "3", "--s", "0.5",
                        "--lambda", "0"], tmp_path)
        assert code == 0
        out = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert out["p_plus"] is None
        assert out["fujita"] == pytest.approx(1.0 + 2.0 * 0.5 / 3.0,
                                              rel=1e-15)

    def test_domain_error_exit(self, tmp_path):
        assert run_cli(["exponents", "--N", "3", "--s", "0.5",
                        "--lambda", "5.0"], tmp_path) == 3

    def test_usage_exit(self):
        assert main([]) == 2


class TestPhaseDiagram:
    def test_csv_written(self, tmp_path, capsys):
        code = run_cli(["phase-diagram", "--N", "3", "--s", "0.5",
                        "--lambda-grid", "0.1:0.6:6"], tmp_path)
        assert code == 0
        lines = (tmp_path / "phase.csv").read_text().splitlines()
        assert lines[0] == "lambda,alpha,mu,p_minus,p_plus,fujita"
        assert len(lines) == 7

    def test_bad_lambda_skipped_and_reported(self, tmp_path, capsys):
        code = run_cli(["phase-diagram", "--N", "3", "--s", "0.5",
                        "--lambda-grid", "0,0.5"], tmp_path)
        assert code == 0
        assert "skipped lambda=0.0:" in capsys.readouterr().err
        lines = (tmp_path / "phase.csv").read_text().splitlines()
        assert len(lines) == 2 and lines[1].startswith("0.5,")
        manifest = json.loads(
            (tmp_path / "manifest_phase-diagram_phase.json").read_text())
        assert manifest["provenance"] == {"rows": 1, "skipped": 1}

    def test_determinism(self, tmp_path):
        for _ in range(2):
            run_cli(["phase-diagram", "--N", "3", "--s", "0.5",
                     "--lambda-grid", "0.1:0.6:4"], tmp_path)
            if _ == 0:
                first = (tmp_path / "phase.csv").read_bytes()
                manifest1 = (tmp_path / "manifest_phase-diagram_phase.json"
                             ).read_bytes()
        assert (tmp_path / "phase.csv").read_bytes() == first
        assert (tmp_path / "manifest_phase-diagram_phase.json"
                ).read_bytes() == manifest1


class TestVerify:
    def test_lemma21(self, tmp_path, capsys):
        code = run_cli(["verify", "lemma21", "--N", "3", "--s", "0.5",
                        "--alpha", "0.5"], tmp_path)
        assert code == 0
        report = json.loads((tmp_path / "verify_lemma21.json").read_text())
        assert report["pass"] is True
        assert report["max_relative_error"] <= 1e-3


class TestVerifyCertifications:
    def test_energy(self, tmp_path, capsys):
        code = run_cli(["verify", "energy", "--N", "3", "--s", "0.5",
                        "--lambda", "0.5", "--p", "2.0",
                        "--radius", "2.0"], tmp_path)
        assert code == 0
        report = json.loads((tmp_path / "verify_energy.json").read_text())
        assert report["pass"] is True
        assert report["threshold_amplitude"] > 0.0

    def test_supersolution(self, tmp_path, capsys):
        code = run_cli(["verify", "supersolution", "--N", "3", "--s", "0.5",
                        "--lambda", "0.5", "--p", "2.0"], tmp_path)
        assert code == 0
        report = json.loads(
            (tmp_path / "verify_supersolution.json").read_text())
        assert report["min_normalized_residual"] >= -1e-6
        assert report["gamma"] == pytest.approx(0.75)
        # the worst sample point and its dominant term
        assert report["worst_t"] == 6.0
        assert report["worst_r"] == pytest.approx(0.3164, abs=1e-4)
        assert report["worst_sigma"] == pytest.approx(0.0452, abs=1e-4)
        assert report["worst_term"] == "laplacian"

    def test_supersolution_at_small_order(self, tmp_path, capsys):
        code = run_cli(["verify", "supersolution", "--N", "3", "--s", "0.2",
                        "--lambda", "0.05", "--p", "4.0"], tmp_path)
        assert code == 0
        report = json.loads(
            (tmp_path / "verify_supersolution.json").read_text())
        assert report["pass"] is True

    def test_supersolution_refusal_names_the_window(self, tmp_path, capsys):
        # the window is fixed, so the refusal names it instead of advising
        # a change no flag can make
        code = run_cli(["verify", "supersolution", "--N", "3", "--s", "0.5",
                        "--lambda", "0.5", "--p", "1.5"], tmp_path)
        assert code == 3
        err = capsys.readouterr().err
        assert "r in [0.05, 4], t in [0, 9]" in err
        assert "certifies no amplitude for p=1.5" in err
        assert "shrink" not in err

    def test_critical_constants_report_refinement(self, tmp_path, capsys):
        code = run_cli(["verify", "critical-constants", "--N", "3", "--s",
                        "0.5", "--lambda", "0.5", "--m", "3.4", "--kappa",
                        "0.05"], tmp_path)
        assert code == 0
        report = json.loads(
            (tmp_path / "verify_critical-constants.json").read_text())
        for key in ("C1_refinement_delta", "C3_refinement_delta"):
            assert math.isfinite(report[key]) and report[key] <= 0.01

    @pytest.mark.parametrize("flags,edge", [
        (["--m", "3.1"], "outer edge (theta -> 0) unless m > p' - 1/3"),
        (["--kappa", "0.14"],
         "inner edge (theta -> 1) unless kappa < 1/(3 (p' - 1))"),
        (["--N", "4", "--lambda", "0.5"],
         "outer edge (theta -> 0) unless m > p' - 1/3 = 4.34")])
    def test_critical_constants_outside_the_window(self, tmp_path, capsys,
                                                   flags, edge):
        # C3 diverges there; refused by its exponents before any quadrature
        code = run_cli(["verify", "critical-constants", "--N", "3", "--s",
                        "0.5", "--lambda", "0.5", *flags], tmp_path)
        assert code == 3
        assert f"C3 diverges at the shell's {edge}" in capsys.readouterr().err
        assert not (tmp_path / "verify_critical-constants.json").exists()

    @pytest.mark.parametrize("flags", [
        ["--m", "3.2"], ["--kappa", "0.12"],
        ["--N", "4", "--lambda", "0.5", "--m", "4.5"]])
    def test_critical_constants_inside_the_window(self, tmp_path, capsys,
                                                  flags):
        code = run_cli(["verify", "critical-constants", "--N", "3", "--s",
                        "0.5", "--lambda", "0.5", *flags], tmp_path)
        assert code == 0
        report = json.loads(
            (tmp_path / "verify_critical-constants.json").read_text())
        assert report["pass"] is True
        assert report["C3_refinement_delta"] <= 1e-3

    def test_psi_eta(self, tmp_path, capsys):
        code = run_cli(["verify", "psi-eta", "--N", "3", "--s", "0.5",
                        "--lambda", "0.5"], tmp_path)
        assert code == 0
        report = json.loads((tmp_path / "verify_psi-eta.json").read_text())
        assert report["mass_constant_closed_form"] == pytest.approx(
            math.sqrt(2.0) / 2.0, rel=1e-14)
        assert report["mass_constant_relative_error"] <= 1e-6

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 8: at s = 0.2 the mass-law error "
                              "is 2.4e-5 against the 1e-6 bound")
    def test_psi_eta_small_order(self, tmp_path, capsys):
        code = run_cli(["verify", "psi-eta", "--N", "3", "--s", "0.2",
                        "--lambda", "0.1"], tmp_path)
        assert code == 0


class TestKernelCommand:
    def test_build_and_check(self, tmp_path, capsys):
        code = run_cli(["kernel", "build", "--N", "1", "--s", "0.5",
                        "--sigma-max", "30", "--n-points", "121",
                        "--out", "k.csv"], tmp_path)
        assert code == 0
        assert (tmp_path / "k.csv").exists()
        assert (tmp_path / "k.json").exists()
        capsys.readouterr()
        code = run_cli(["kernel", "check", "--N", "1", "--s", "0.5",
                        "--out", "k.csv"], tmp_path)
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["mass_defect"] <= 1e-6
        # rebuilding reproduces the table byte-for-byte
        first = (tmp_path / "k.csv").read_bytes()
        run_cli(["kernel", "build", "--N", "1", "--s", "0.5",
                 "--sigma-max", "30", "--n-points", "121",
                 "--out", "k.csv"], tmp_path)
        assert (tmp_path / "k.csv").read_bytes() == first

    def test_build_at_small_order(self, tmp_path, capsys):
        # at (3, 0.2) the panels at the default sigma_max = 50 would pass
        # their cap; no quadrature runs past sigma_c = 0.27
        code = run_cli(["kernel", "build", "--N", "3", "--s", "0.2"],
                       tmp_path)
        assert code == 0
        assert (tmp_path / "profile.json").exists()

    def test_corrupt_table_exits_certification(self, tmp_path, capsys):
        run_cli(["kernel", "build", "--N", "3", "--s", "0.5",
                 "--n-points", "33", "--out", "k.csv"], tmp_path)
        path = tmp_path / "k.csv"
        lines = path.read_text().splitlines()
        sigma, _, hprime = lines[10].split(",")
        lines[10] = f"{sigma},-1.0,{hprime}"
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = run_cli(["kernel", "check", "--N", "3", "--s", "0.5",
                        "--out", "k.csv"], tmp_path)
        assert code == 4
        assert "certification failure:" in capsys.readouterr().err

    @pytest.mark.parametrize("keep", [28, 11], ids=["last-5-deleted",
                                                     "cut-to-11"])
    def test_truncated_table_exits_certification(self, tmp_path, capsys,
                                                 keep):
        # the rows left still end in series knots that meet the series, so
        # only the header's n_points and sigma_max show the cut
        run_cli(["kernel", "build", "--N", "3", "--s", "0.5",
                 "--n-points", "33", "--out", "k.csv"], tmp_path)
        path = tmp_path / "k.csv"
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:1 + keep]) + "\n")
        capsys.readouterr()
        code = run_cli(["kernel", "check", "--N", "3", "--s", "0.5",
                        "--out", "k.csv"], tmp_path)
        assert code == 4
        err = capsys.readouterr().err
        assert f"(knots, last sigma) [{keep}, " in err
        assert "differ from its header's [33, 50.0]" in err

    @pytest.mark.parametrize("action", ["error", "default"])
    def test_empty_table_exits_certification(self, tmp_path, capsys,
                                             action):
        # a table with its header line and no rows: one refusal line and
        # no numpy warning, whether warnings are errors or printed
        run_cli(["kernel", "build", "--N", "3", "--s", "0.5",
                 "--n-points", "33", "--out", "k.csv"], tmp_path)
        path = tmp_path / "k.csv"
        path.write_text(path.read_text().splitlines()[0] + "\n")
        capsys.readouterr()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter(action)
            code = run_cli(["kernel", "check", "--N", "3", "--s", "0.5",
                            "--out", "k.csv"], tmp_path)
        assert code == 4
        assert caught == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("certification failure: unreadable kernel "
                                 "table")

    def test_check_refuses_another_problems_table(self, tmp_path, capsys,
                                                  prof_3_05):
        # --N --s must name the (N, s) of the table's JSON header
        save_profile(prof_3_05, tmp_path / "k.csv", tmp_path / "k.json")
        code = run_cli(["kernel", "check", "--N", "1", "--s", "0.25",
                        "--out", "k.csv"], tmp_path)
        assert code == 3
        err = capsys.readouterr().err
        assert "N=3, s=0.5" in err and "--N 1 --s 0.25" in err

    @pytest.mark.parametrize("column,factor", [(1, 1.0 + 1e-6),
                                               (2, 1.0 + 1e-5)],
                             ids=["H", "Hprime"])
    def test_edge_mismatch_exits_certification(self, tmp_path, capsys,
                                               column, factor):
        # column 1 is H, column 2 is H'
        run_cli(["kernel", "build", "--N", "3", "--s", "0.5",
                 "--n-points", "33", "--out", "k.csv"], tmp_path)
        path = tmp_path / "k.csv"
        lines = path.read_text().splitlines()
        cells = lines[-1].split(",")
        cells[column] = f"{float(cells[column]) * factor:.17g}"
        lines[-1] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        code = run_cli(["kernel", "check", "--N", "3", "--s", "0.5",
                        "--out", "k.csv"], tmp_path)
        assert code == 4
        assert "table edge" in capsys.readouterr().err

    def test_join_mismatch_exits_certification(self, tmp_path, capsys,
                                               perturbed_series):
        code = run_cli(["kernel", "build", "--N", "3", "--s", "0.5",
                        "--n-points", "33", "--out", "k.csv"], tmp_path)
        assert code == 4
        assert "quadrature at sigma_c" in capsys.readouterr().err
        assert not (tmp_path / "k.csv").exists()


class TestSidecarPaths:
    """The JSON beside a table or trajectory takes the name of the --out
    file with its extension replaced, in the same directory."""

    def test_kernel_header_stays_beside_its_table(self, tmp_path, capsys):
        (tmp_path / "a.b").mkdir()
        for action in (["build", "--n-points", "33"], ["check"]):
            assert run_cli(["kernel", *action, "--N", "3", "--s", "0.5",
                            "--out", "a.b/k"], tmp_path) == 0
        assert (tmp_path / "a.b" / "k.json").exists()
        assert not (tmp_path / "a.json").exists()

    def test_simulate_verdict_stays_beside_its_trajectory(self, tmp_path,
                                                          capsys):
        (tmp_path / "a.b").mkdir()
        assert run_cli(["simulate", "--N", "3", "--s", "0.5", "--lambda",
                        "0.5", "--p", "1.2", "--points", "32", "--t-max",
                        "0.5", "--out", "a.b/t"], tmp_path) == 0
        assert (tmp_path / "a.b" / "t_verdict.json").exists()
        assert not (tmp_path / "a_verdict.json").exists()

    @pytest.mark.parametrize("argv", [
        ["kernel", "build", "--N", "3", "--s", "0.5", "--n-points", "33",
         "--out", "k.json"],
        ["kernel", "check", "--N", "3", "--s", "0.5", "--out", "k.json"],
    ], ids=["build", "check"])
    def test_table_named_like_its_header_is_refused(self, tmp_path, capsys,
                                                    argv):
        assert run_cli(argv, tmp_path) == 3
        assert "JSON sidecar" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestMissingFolders:
    """The writers create the folders of the files they write; a command
    that only reads creates none."""

    @pytest.mark.parametrize("argv", [
        ["phase-diagram", "--lambda-grid", "0.1,0.2"],
        ["sweep", "--lambda-grid", "0.5", "--p-grid", "1.9", "--t-max",
         "0.1", "--points", "32"],
    ], ids=["phase-diagram", "sweep"])
    def test_out_into_a_missing_folder(self, tmp_path, capsys, argv):
        out = tmp_path / "new"
        assert main(["--outdir", str(out), argv[0], "--N", "3", "--s",
                     "0.5", *argv[1:], "--out", "a/b/x.csv"]) == 0
        assert (out / "a" / "b" / "x.csv").exists()
        assert (out / "a" / "b" / f"manifest_{argv[0]}_x.json").exists()

    def test_check_in_a_missing_folder_exits_certification(self, tmp_path,
                                                           capsys):
        out = tmp_path / "new"
        assert main(["--outdir", str(out), "kernel", "check", "--N", "3",
                     "--s", "0.5"]) == 4
        assert "unreadable kernel table" in capsys.readouterr().err
        assert not out.exists()


LEAF_FLAGS = {
    ("kernel", "build"): {"sigma_max", "n_points", "out"},
    ("kernel", "check"): {"out", "scaling_ode"},
    ("verify", "lemma21"): {"alpha"},
    ("verify", "psi-eta"): {"lam"},
    ("verify", "supersolution"): {"lam", "p"},
    ("verify", "energy"): {"lam", "p", "radius"},
    ("verify", "critical-constants"): {"lam", "m", "kappa"},
}


class TestManifests:
    @pytest.mark.parametrize("command,leaf", list(LEAF_FLAGS),
                             ids=[" ".join(key) for key in LEAF_FLAGS])
    def test_manifest_holds_only_the_flags_read(self, tmp_path, capsys,
                                                prof_3_05, command, leaf):
        save_profile(prof_3_05, tmp_path / "profile.csv",
                     tmp_path / "profile.json")
        assert run_cli([command, leaf, "--N", "3", "--s", "0.5"],
                       tmp_path) == 0
        # kernel actions name their manifest after the --out table too
        stem = "_profile" if command == "kernel" else ""
        manifest = tmp_path / f"manifest_{command}_{leaf}{stem}.json"
        params = json.loads(manifest.read_text())["parameters"]
        name = "action" if command == "kernel" else "check"
        assert params.pop(name) == leaf
        assert set(params) == (LEAF_FLAGS[command, leaf]
                               | {"N", "s", "command", "outdir"})

    def test_runs_with_different_outs_keep_their_manifests(self, tmp_path,
                                                            capsys):
        # each manifest sits beside its --out file, named after its stem
        (tmp_path / "sub").mkdir()
        outs = ("a.csv", "b.csv", "sub/a.csv")
        for out in outs:
            assert run_cli(["sweep", "--N", "3", "--s", "0.5",
                            "--lambda-grid", "0.5", "--p-grid", "1.9",
                            "--t-max", "0.1", "--points", "32",
                            "--out", out], tmp_path) == 0
        for out in outs:
            folder, name = os.path.split(out)
            manifest = (tmp_path / folder
                        / f"manifest_sweep_{name.removesuffix('.csv')}.json")
            record = json.loads(manifest.read_text())
            assert record["parameters"]["out"] == out
            assert record["outputs"] == [str(tmp_path / out)]

    # the verdict record names the box settings only for a box run: a
    # ground-state run is Crank-Nicolson on the exact potential
    @pytest.mark.parametrize("flags,unread,box", [
        (["--half-width", "3", "--potential-epsilon", "0.25"],
         {"half_width", "potential_epsilon"}, False),
        (["--formulation", "direct", "--points", "16", "--half-width", "8",
          "--r-min", "0.01", "--r-max", "500"], {"r_min", "r_max"}, True)],
        ids=["ground_state", "direct"])
    def test_simulate_manifest_leaves_out_the_other_formulation(
            self, tmp_path, capsys, flags, unread, box):
        assert run_cli(["simulate", "--N", "3", "--s", "0.5", "--lambda",
                        "0.2", "--p", "1.3", "--t-max", "0.1", "--points",
                        "32", *flags], tmp_path) == 0
        params = json.loads((tmp_path / "manifest_simulate_trajectory.json")
                            .read_text())["parameters"]
        read = {"half_width", "potential_epsilon", "r_min",
                "r_max"} - unread
        assert not unread & set(params)
        assert read - {"potential_epsilon"} <= set(params)
        verdict = json.loads((tmp_path / "trajectory_verdict.json")
                             .read_text())
        box_settings = {"diffusion", "potential_epsilon"}
        assert (box_settings & set(verdict)) == (box_settings if box
                                                 else set())


class TestSimulate:
    def test_trajectory_and_manifest(self, tmp_path, capsys):
        code = run_cli(["simulate", "--N", "3", "--s", "0.5",
                        "--lambda", "0.5", "--p", "1.2",
                        "--amplitude", "1.0", "--t-max", "40",
                        "--points", "128", "--out", "traj.csv"], tmp_path)
        assert code == 0
        verdict = json.loads(capsys.readouterr().out)
        assert verdict["verdict"] == "blew_up"
        assert (tmp_path / "traj.csv").exists()
        assert (tmp_path / "traj_verdict.json").exists()
        assert (tmp_path / "manifest_simulate_traj.json").exists()

    def test_threshold_exit_names_its_reason(self, tmp_path, capsys):
        code = run_cli(["simulate", "--N", "3", "--s", "0.5",
                        "--lambda", "0.2", "--p", "1.3", "--t-max", "40",
                        "--points", "64", "--out", "thr.csv"], tmp_path)
        assert code == 0
        printed = json.loads(capsys.readouterr().out)
        saved = json.loads((tmp_path / "thr_verdict.json").read_text())
        for verdict in (printed, saved):
            assert verdict["verdict"] == "blew_up"
            assert verdict["reason"] == "weighted mass over threshold"
        assert math.isfinite(saved["tail_linearity"])

    def test_non_finite_matrix_exits_numerical(self, tmp_path, matrix_builds,
                                               monkeypatch):
        build = solver.build_ground_state_matrix

        def with_nan(r_grid, mu, N, s):
            A = build(r_grid, mu, N, s)
            A[3, 5] = np.nan
            return A

        monkeypatch.setattr(solver, "build_ground_state_matrix", with_nan)
        code = run_cli(["simulate", "--N", "3", "--s", "0.5",
                        "--lambda", "0.2", "--p", "1.3", "--t-max", "1",
                        "--points", "32", "--out", "nan.csv"], tmp_path)
        assert code == 5
        assert len(matrix_builds) == 1

    def test_unknown_datum_exits_domain(self, tmp_path, capsys):
        assert run_cli(["simulate", "--N", "3", "--s", "0.5",
                        "--lambda", "0.5", "--p", "1.2",
                        "--u0", "nope"], tmp_path) == 3
        assert "unknown datum kind 'nope'" in capsys.readouterr().err

    def test_unknown_formulation_exits_domain(self, tmp_path):
        assert run_cli(["simulate", "--N", "3", "--s", "0.5",
                        "--lambda", "0.5", "--p", "1.2",
                        "--formulation", "bogus"], tmp_path) == 3

    def test_determinism(self, tmp_path):
        args = ["simulate", "--N", "3", "--s", "0.5", "--lambda", "0.5",
                "--p", "2.0", "--amplitude", "0.1", "--t-max", "1.0",
                "--points", "96", "--out", "d.csv"]
        run_cli(args, tmp_path)
        first = (tmp_path / "d.csv").read_bytes()
        run_cli(args, tmp_path)
        assert (tmp_path / "d.csv").read_bytes() == first


class TestSweep:
    def test_parallel_grid(self, tmp_path):
        code = run_cli(["sweep", "--N", "3", "--s", "0.5",
                        "--lambda-grid", "0.5,0.5", "--p-grid", "1.2,2.0",
                        "--t-max", "30", "--amplitude", "0.5",
                        "--points", "96", "--jobs", "2",
                        "--out", "sw.csv"], tmp_path)
        assert code == 0
        lines = (tmp_path / "sw.csv").read_text().splitlines()
        assert lines[0] == ("lambda,p,verdict,t_star,final_weighted_mass,"
                            "regime,regime_conflict,steps,rejected")
        assert len(lines) == 5
        verdicts = {}
        for line in lines[1:]:
            lam, p, verdict, *_ = line.split(",")
            verdicts[float(p)] = verdict
        assert verdicts[1.2] == "blew_up"
        assert verdicts[2.0] == "survived"

    def test_step_columns_count_the_run(self, tmp_path):
        # the steps and rejected columns are the run's own counts
        argv = ["--lambda-grid", "0.2", "--p-grid", "1.9", "--t-max", "2",
                "--points", "48"]
        assert run_cli(["sweep", "--N", "3", "--s", "0.5", *argv],
                       tmp_path) == 0
        (row,) = csv.DictReader(
            (tmp_path / "sweep.csv").read_text().splitlines())
        cfg = SolverConfig(params=ProblemParams(3, 0.5, 0.2, 1.9),
                           grid=RadialGrid(1e-3, 1e3, 48), t_max=2.0,
                           dt_initial=0.02, blowup_threshold=1e4,
                           n_monitor=32)
        rep = solver.run(lambda r: np.exp(-r ** 2), cfg)
        assert (int(row["steps"]), int(row["rejected"])) == (
            rep.steps_accepted, sum(rep.steps_rejected.values()))
        assert rep.steps_accepted > 0

    @pytest.mark.parametrize("flags, message", [
        (["--u0", "random-bumps", "--seed", "-1"],
         "--seed must be nonnegative"),
        (["--amplitude", "-1"], "--amplitude must be nonnegative"),
    ], ids=["seed-negative", "amplitude-negative"])
    def test_datum_refused_before_the_pool(self, tmp_path, capsys,
                                           monkeypatch, flags, message):
        def no_pool(*args, **kwargs):
            pytest.fail("sweep started a process pool")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            no_pool)
        code = run_cli(["sweep", "--N", "3", "--s", "0.5",
                        "--lambda-grid", "0.5", "--p-grid", "1.9,2.0",
                        *flags, "--jobs", "2"], tmp_path)
        assert code == 3
        assert message in capsys.readouterr().err

    def test_no_more_workers_than_lambda_rows(self, tmp_path, monkeypatch):
        # each worker takes whole lambda rows, so --jobs 64 on two rows
        # asks for two workers; a stand-in pool runs the rows in-process
        asked = []

        class InlinePool:
            def __init__(self, max_workers):
                asked.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor",
                            InlinePool)
        argv = ["sweep", "--N", "3", "--s", "0.5", "--lambda-grid",
                "0.2,0.5", "--p-grid", "1.9", "--t-max", "0.5",
                "--points", "48"]
        assert run_cli(argv + ["--jobs", "64"], tmp_path / "pool") == 0
        assert asked == [2]
        assert run_cli(argv + ["--jobs", "1"], tmp_path / "serial") == 0
        assert ((tmp_path / "pool" / "sweep.csv").read_bytes()
                == (tmp_path / "serial" / "sweep.csv").read_bytes())


    def test_regime_column(self, tmp_path):
        # lambda = 0.6 puts p_plus = 1 + 1/mu below 2.5
        code = run_cli(["sweep", "--N", "3", "--s", "0.5",
                        "--lambda-grid", "0.6", "--p-grid", "2.5",
                        "--t-max", "0.5", "--points", "48"], tmp_path)
        assert code == 0
        rows = list(csv.DictReader(
            (tmp_path / "sweep.csv").read_text().splitlines()))
        assert [row["regime"] for row in rows] == ["non_existence"]
        # no solution exists there, yet the discretization reports one
        assert rows[0]["verdict"] != "inconclusive"
        assert [row["regime_conflict"] for row in rows] == ["1"]

    def test_ambiguous_regime_column(self, tmp_path):
        # p_plus = 3 at (3, 1/2, 1/2); the theory leaves the behaviour at
        # p_plus open, so no verdict contradicts the regime there
        code = run_cli(["sweep", "--N", "3", "--s", "0.5",
                        "--lambda-grid", "0.5", "--p-grid", "3.0",
                        "--t-max", "1", "--points", "64"], tmp_path)
        assert code == 0
        (row,) = csv.DictReader(
            (tmp_path / "sweep.csv").read_text().splitlines())
        assert (row["regime"], row["regime_conflict"]) == ("ambiguous", "0")


SMALL_SWEEP = ["sweep", "--N", "3", "--s", "0.5",
               "--lambda-grid", "0.2,0.5", "--p-grid", "1.3,1.9,2.5",
               "--t-max", "2", "--points", "48"]


class TestSweepReuse:
    def test_one_build_per_lambda_row(self, tmp_path, matrix_builds):
        assert run_cli(SMALL_SWEEP + ["--jobs", "1"], tmp_path) == 0
        assert len(matrix_builds) == 2
        rows = list(csv.DictReader(
            (tmp_path / "sweep.csv").read_text().splitlines()))
        assert len(rows) == 6
        assert [row["regime_conflict"] for row in rows] == ["0"] * 6

    def test_jobs_do_not_change_the_csv(self, tmp_path):
        outputs = []
        for jobs in ("1", "2"):
            out = tmp_path / jobs
            assert run_cli(SMALL_SWEEP + ["--jobs", jobs], out) == 0
            outputs.append((out / "sweep.csv").read_bytes())
        assert outputs[0] == outputs[1]


class TestExponentsOnce:
    # a problem computes its exponent profile once, whoever reads it: the
    # run, classify_regime and the supersolution family
    @pytest.mark.parametrize("workload,calls", [("sweep", 6),
                                                ("certify", 1)])
    def test_one_profile_per_problem(self, tmp_path, monkeypatch, workload,
                                     calls):
        from hardyheat import exponents
        seen = []

        def counted(N, s, lam):
            seen.append((N, s, lam))
            return original(N, s, lam)

        # every namespace of the package that binds it, as the benchmark's
        # tracer counts it
        original = exponents.exponent_profile
        for name, module in list(sys.modules.items()):
            if (name.split(".")[0] == "hardyheat"
                    and getattr(module, "exponent_profile", None) is original):
                monkeypatch.setattr(module, "exponent_profile", counted)
        (argv,) = _perfbench_module("workloads").commands(workload, 0)
        assert run_cli(argv, tmp_path) == 0
        assert len(seen) == calls


IMPORT_GUARD = """
import json
import sys

from hardyheat.cli import main

out = sys.argv[1]
benchmark = json.loads(sys.argv[2])
imported = set(sys.modules)
for argv in benchmark:
    assert main(["--outdir", out, *argv]) == 0
loaded_by_benchmark = sorted(set(sys.modules) - imported)
numpy_ma = "numpy.ma" in sys.modules
assert main(["--outdir", out, "simulate", "--N", "2", "--s", "0.5",
             "--lambda", "0.2", "--p", "1.5", "--points", "32",
             "--t-max", "1"]) == 0
for n in ("2", "4"):
    assert main(["--outdir", out, "kernel", "build", "--N", n, "--s", "0.5",
                 "--n-points", "16", "--out", f"profile_{n}.csv"]) == 0
print(json.dumps({
    "scipy": sorted(name for name in sys.modules
                    if name.split(".")[0] == "scipy"),
    "concurrent": sorted(name for name in sys.modules
                         if name.split(".")[0] == "concurrent"),
    "loaded_by_benchmark": loaded_by_benchmark, "numpy.ma": numpy_ma}))
"""


class TestImports:
    def test_commands_run_on_numpy_alone(self, tmp_path):
        # scipy cost half a second of start-up on every command, numpy.ma,
        # which np.unique imports on its first call, some 15 ms, and the
        # process pool, which only sweep --jobs > 1 uses, some 25 ms; a
        # module first loaded by a command would move start-up cost into
        # the benchmark's wall time
        workloads = _perfbench_module("workloads")
        benchmark = [*workloads.commands("sweep", 0),
                     *workloads.commands("certify", 0)]
        src = str(Path(solver.__file__).resolve().parent.parent)
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ,
                   PYTHONPATH=src if not path else src + os.pathsep + path)
        done = subprocess.run(
            [sys.executable, "-c", IMPORT_GUARD, str(tmp_path),
             json.dumps(benchmark)], env=env,
            capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        modules = json.loads(done.stdout.splitlines()[-1])
        assert modules == {"scipy": [], "concurrent": [],
                           "loaded_by_benchmark": [], "numpy.ma": False}


BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class TestBlasThreads:
    def test_in_process_sweep_matches_the_console_run(self, tmp_path):
        # the suite's process imports hardyheat before numpy (conftest.py),
        # so its BLAS runs on the threads a console run gets; with numpy
        # loaded first at the machine's default count, the two CSVs
        # differed.  On a single core every count is one thread, and this
        # cannot fail.
        (argv,) = _perfbench_module("workloads").commands("sweep", 0)
        assert run_cli(argv, tmp_path / "in_process") == 0
        src = str(Path(solver.__file__).resolve().parent.parent)
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ,
                   PYTHONPATH=src if not path else src + os.pathsep + path)
        done = subprocess.run(
            [sys.executable, "-m", "hardyheat.cli", "--outdir",
             str(tmp_path / "console"), *argv], env=env,
            capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        assert ((tmp_path / "in_process" / "sweep.csv").read_bytes()
                == (tmp_path / "console" / "sweep.csv").read_bytes())

    EXPONENTS = ["exponents", "--N", "3", "--s", "0.5", "--lambda", "0.5"]

    def test_manifest_records_the_environment(self, tmp_path):
        # numpy, BLAS and the thread setting as the benchmark worker reads
        # them; the suite imports hardyheat before numpy (conftest.py)
        assert run_cli(self.EXPONENTS, tmp_path) == 0
        env = json.loads((tmp_path / "manifest_exponents.json").read_text()
                         )["environment"]
        worker = _perfbench_module("worker")._environment()
        assert env == {**{k: worker[k] for k in
                          ("numpy", "blas", "blas_threads")},
                       "numpy_loaded_before_hardyheat": False}

    def test_manifest_says_numpy_was_loaded_first(self, tmp_path):
        # a process that loads numpy before hardyheat keeps the library's
        # thread count, and its manifest says so
        src = str(Path(solver.__file__).resolve().parent.parent)
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ,
                   PYTHONPATH=src if not path else src + os.pathsep + path)
        for name in BLAS_THREADS:
            env.pop(name, None)
        done = subprocess.run(
            [sys.executable, "-c", "import os, sys, numpy; from hardyheat "
             "import cli; code = cli.main(sys.argv[1:]); "
             "print(os.environ['OPENBLAS_NUM_THREADS']); sys.exit(code)",
             "--outdir", str(tmp_path), *self.EXPONENTS], env=env,
            capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        env = json.loads((tmp_path / "manifest_exponents.json").read_text()
                         )["environment"]
        assert env["numpy_loaded_before_hardyheat"] is True
        assert env["numpy"] == np.__version__
        # numpy loaded with the thread variables unset, whatever the pin
        # reads after it; the pin is still set, for --jobs workers
        assert env["blas_threads"] == "unset (library default)"
        assert done.stdout.splitlines()[-1] == "1"


class TestErrorExits:
    def test_numerical_nonconvergence_exit(self, tmp_path):
        # tiny fractional order blows the oscillatory panel budget
        code = run_cli(["kernel", "build", "--N", "1", "--s", "0.05",
                        "--sigma-max", "50", "--n-points", "32",
                        "--out", "x.csv"], tmp_path)
        assert code == 5

    @pytest.mark.parametrize("outdir, out", [("file", "x.csv"),
                                             (".", "file/x.csv")],
                             ids=["outdir-is-a-file", "out-folder-is-a-file"])
    def test_unwritable_output_exits_usage(self, tmp_path, capsys, outdir,
                                           out):
        (tmp_path / "file").write_text("")
        code = main(["--outdir", str(tmp_path / outdir), "phase-diagram",
                     "--N", "3", "--s", "0.5", "--lambda-grid", "0.1,0.2",
                     "--out", out])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("output error: cannot write ")
        assert str(tmp_path / "file") in err
        assert err.count("\n") == 1 and "Traceback" not in err

    @pytest.mark.parametrize("name", sorted(
        name for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, Exception)))
    def test_every_error_class_has_an_exit(self, tmp_path, capsys,
                                           monkeypatch, name):
        def fail(args):
            raise getattr(errors, name)("raised")

        monkeypatch.setattr(cli, "_cmd_exponents", fail)
        code = run_cli(["exponents", "--N", "3", "--s", "0.5",
                        "--lambda", "0.5"], tmp_path)
        assert code in (3, 4, 5)
        assert capsys.readouterr().err.endswith(": raised\n")


class TestInputRefused:
    @pytest.mark.parametrize("argv,flag", [
        (["sweep", "--N", "3", "--s", "0.5", "--lambda-grid", "0.1:0.5",
          "--p-grid", "1.5"], "--lambda-grid"),
        (["sweep", "--N", "3", "--s", "0.5", "--lambda-grid", "0.1,x",
          "--p-grid", "1.5"], "--lambda-grid"),
        (["sweep", "--N", "3", "--s", "0.5", "--lambda-grid", "0.1",
          "--p-grid", "1.5:2:-3"], "--p-grid"),
        (["sweep", "--N", "3", "--s", "0.5", "--lambda-grid", "0.1:0.5:0",
          "--p-grid", "1.5"], "--lambda-grid"),
        (["phase-diagram", "--N", "3", "--s", "0.5",
          "--lambda-grid", "0.1:0.5:x"], "--lambda-grid"),
        (["--config", "nofile.cfg", "exponents", "--N", "3", "--s", "0.5",
          "--lambda", "0.5"], "--config"),
    ], ids=["two-part", "not-a-number", "negative-count", "empty",
            "phase-diagram", "missing-config"])
    def test_usage_exit_names_the_flag(self, tmp_path, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            run_cli(argv, tmp_path)
        assert exc.value.code == 2
        assert f"argument {flag}:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,flag", [
        (["verify", "critical-constants", "--N", "3", "--s", "0.5", "--p",
          "2"], "--p"),
        (["verify", "lemma21", "--N", "3", "--s", "0.5", "--lambda", "0.5"],
         "--lambda"),
        (["kernel", "check", "--N", "3", "--s", "0.5", "--sigma-max", "50"],
         "--sigma-max"),
        (["kernel", "build", "--N", "3", "--s", "0.5", "--scaling-ode"],
         "--scaling-ode"),
    ], ids=["critical-constants-p", "lemma21-lambda", "check-sigma-max",
            "build-scaling-ode"])
    def test_flag_the_leaf_does_not_read_is_refused(self, tmp_path, capsys,
                                                    argv, flag):
        with pytest.raises(SystemExit) as exc:
            run_cli(argv, tmp_path)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_manifest_keeps_the_grid_spec(self, tmp_path, capsys):
        assert run_cli(["phase-diagram", "--N", "3", "--s", "0.5",
                        "--lambda-grid", "0.1:0.6:6"], tmp_path) == 0
        manifest = json.loads(
            (tmp_path / "manifest_phase-diagram_phase.json").read_text())
        assert manifest["parameters"]["lambda_grid"] == "0.1:0.6:6"

    @pytest.mark.parametrize("damage", ["missing", "not-a-number"])
    def test_unreadable_table_exits_certification(self, tmp_path, capsys,
                                                  prof_3_05, damage):
        save_profile(prof_3_05, tmp_path / "k.csv", tmp_path / "k.json")
        if damage == "missing":
            (tmp_path / "k.csv").unlink()
        else:
            lines = (tmp_path / "k.csv").read_text().splitlines()
            lines[5] = lines[5].split(",", 1)[0] + ",x,1"
            (tmp_path / "k.csv").write_text("\n".join(lines) + "\n")
        code = run_cli(["kernel", "check", "--N", "3", "--s", "0.5",
                        "--out", "k.csv"], tmp_path)
        assert code == 4
        assert "unreadable kernel table" in capsys.readouterr().err

    def test_negative_monitor_count_exits_domain(self, tmp_path, capsys):
        code = run_cli(["simulate", "--N", "3", "--s", "0.5",
                        "--lambda", "0.2", "--p", "1.3", "--points", "32",
                        "--n-monitor", "-3"], tmp_path)
        assert code == 3
        assert "n_monitor" in capsys.readouterr().err


class TestTypedExits:
    """Inputs at the edge of what the scheme resolves end with an exit code
    the CLI documents, never with an uncaught exception."""

    @pytest.mark.parametrize("argv, reason", [
        (["--lambda", "0.5", "--p", "2.9", "--r-min", "1e-4", "--points",
          "149", "--t-max", "50", "--dt-initial", "0.02"], None),
        (["--lambda", "0.5", "--p", "3.2", "--r-min", "1e-4"], None),
        (["--lambda", "0.5", "--p", "1.9", "--amplitude", "1e6"],
         "datum's weighted mass "),
    ], ids=["stalled-clock", "above-p-plus", "large-amplitude"])
    def test_simulate_exits_typed(self, tmp_path, capsys, argv, reason):
        start = time.perf_counter()
        code = run_cli(["simulate", "--N", "3", "--s", "0.5", *argv],
                       tmp_path)
        elapsed = time.perf_counter() - start
        assert code in (0, 2, 3, 4, 5)
        out = capsys.readouterr()
        assert "Traceback" not in out.err
        assert elapsed <= 2.0
        if reason is not None:
            # the datum starts over the threshold: no step, no t*
            assert json.loads(out.out)["reason"].startswith(reason)
            steps = json.loads(
                (tmp_path / "trajectory_verdict.json").read_text())["steps"]
            assert steps["accepted"] == 0

    def test_table_the_series_cannot_continue(self, tmp_path, capsys):
        # sigma_max = 2 lies below sigma_c = 3.87 at (3, 1/2): the table is
        # all quadrature, and the series misses its edge
        code = run_cli(["kernel", "build", "--N", "3", "--s", "0.5",
                        "--sigma-max", "2", "--n-points", "33"], tmp_path)
        assert code == 4
        assert ("certification failure: far-field H misses the table edge "
                "sigma_max=2.0 by 9.54e-07 relative"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("argv, codes", [
        (["simulate", "--N", "3", "--s", "0.5", "--lambda", "0.5", "--p",
          "1.9", "--dt-initial", "nan", "--t-max", "1"], (3,)),
        (["simulate", "--N", "3", "--s", "0.5", "--lambda", "0.5", "--p",
          "1.9", "--t-max", "nan"], (3,)),
        (["simulate", "--N", "3", "--s", "0.5", "--lambda", "0.5", "--p",
          "1.9", "--t-max", "inf"], (3,)),
        (["simulate", "--N", "3", "--s", "0.5", "--lambda", "0.5", "--p",
          "1.9", "--blowup-threshold", "nan"], (3,)),
        (["simulate", "--formulation", "direct", "--N", "3", "--s", "0.5",
          "--lambda", "0.5", "--p", "1.2", "--points", "16",
          "--potential-epsilon", "nan"], (3,)),
        (["kernel", "build", "--N", "3", "--s", "0.5", "--sigma-max", "nan"],
         (3,)),
        (["kernel", "build", "--N", "3", "--s", "0.5", "--sigma-max", "inf"],
         (3,)),
        (["verify", "energy", "--N", "3", "--s", "0.5", "--lambda", "0.5",
          "--p", "1.5", "--radius", "nan"], (3,)),
        (["kernel", "build", "--N", "1", "--s", "0.05", "--n-points", "16"],
         (0, 2, 3, 4, 5)),
        (["verify", "supersolution", "--N", "3", "--s", "0.9", "--lambda",
          "0.01", "--p", "1.8"], (0, 2, 3, 4, 5)),
        (["sweep", "--N", "3", "--s", "0.5", "--lambda-grid", "0.5",
          "--p-grid", "3.2", "--r-min", "1e-6", "--points", "64",
          "--t-max", "5"], (0, 2, 3, 4, 5)),
        (["verify", "critical-constants", "--N", "3", "--s", "0.5",
          "--lambda", "0.5", "--kappa", "nan"], (3,)),
        (["verify", "critical-constants", "--N", "3", "--s", "0.5",
          "--lambda", "0.5", "--kappa", "inf"], (3,)),
        (["simulate", "--N", "3", "--s", "0.5", "--lambda", "0.5", "--p",
          "1.9", "--width", "0"], (3,)),
        (["simulate", "--formulation", "direct", "--N", "3", "--s", "0.5",
          "--lambda", "0.5", "--p", "1.2", "--points", "16", "--width",
          "inf"], (3,)),
        (["sweep", "--N", "3", "--s", "0.5", "--lambda-grid", "0.5",
          "--p-grid", "1.9", "--u0", "random-bumps", "--width", "-1"], (3,)),
        (["simulate", "--N", "3", "--s", "0.5", "--lambda", "0.5", "--p",
          "1.9", "--u0", "random-bumps", "--seed", "-1"], (3,)),
        (["sweep", "--N", "3", "--s", "0.5", "--lambda-grid", "0.5",
          "--p-grid", "1.9,2.0", "--u0", "random-bumps", "--seed", "-1",
          "--jobs", "2"], (3,)),
        (["phase-diagram", "--N", "1", "--s", "0.5", "--lambda-grid",
          "0.1,0.2"], (3,)),
        (["simulate", "--N", "3", "--s", "0.5", "--lambda", "0.5", "--p",
          "1.9", "--amplitude", "inf"], (3,)),
        (["simulate", "--N", "3", "--s", "0.5", "--lambda", "0.5", "--p",
          "1.9", "--amplitude", "nan"], (3,)),
        (["sweep", "--N", "3", "--s", "0.5", "--lambda-grid", "0.5",
          "--p-grid", "1.9", "--amplitude", "inf"], (3,)),
        (["sweep", "--N", "3", "--s", "0.5", "--lambda-grid", "0.5",
          "--p-grid", "1.9", "--amplitude", "nan"], (3,)),
        (["sweep", "--N", "3", "--s", "0.5", "--lambda-grid", "0.5",
          "--p-grid", "1.9", "--points", "32", "--t-max", "0.5",
          "--jobs", "0"], (3,)),
        (["sweep", "--N", "3", "--s", "0.5", "--lambda-grid", "0.5",
          "--p-grid", "1.9", "--points", "32", "--t-max", "0.5",
          "--jobs", "-2"], (3,)),
    ], ids=["dt-initial-nan", "t-max-nan", "t-max-inf", "threshold-nan",
            "potential-epsilon-nan", "sigma-max-nan", "sigma-max-inf",
            "radius-nan", "kernel-small-s", "supersolution-large-s",
            "sweep-tiny-r-min", "kappa-nan", "kappa-inf", "width-zero",
            "width-inf", "width-negative", "seed-negative",
            "seed-negative-jobs", "phase-diagram-n-le-2s",
            "simulate-amplitude-inf", "simulate-amplitude-nan",
            "sweep-amplitude-inf", "sweep-amplitude-nan", "jobs-zero",
            "jobs-negative"])
    def test_command_exits_typed(self, tmp_path, capsys, argv, codes):
        # a non-finite or out-of-range number is refused as a domain error,
        # whichever check it meets first
        start = time.perf_counter()
        code = run_cli(argv, tmp_path)
        elapsed = time.perf_counter() - start
        assert code in codes
        assert "Traceback" not in capsys.readouterr().err
        assert elapsed <= 2.0


def _perfbench_module(name):
    """A module of perfbench/: `workloads` defines the benchmark's commands
    and the checks of their outputs against perfbench/reference.json,
    `worker` reads the numerical environment."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchmarkReference:
    def test_seed_zero_sweep_matches_the_reference(self, tmp_path):
        # the benchmark's own output checks, run here so that a change that
        # moves the sweep past the reference shows in the suite
        workloads = _perfbench_module("workloads")
        (argv,) = workloads.commands("sweep", 0)
        assert run_cli(argv, tmp_path) == 0
        obs = workloads.observe("sweep", str(tmp_path), [])
        checks = workloads.check("sweep", 0, obs,
                                 workloads.load_reference()["sweep"])
        assert [name for name, _, _ in checks] == [
            "sweep.grid", "sweep.verdicts", "sweep.t_star",
            "sweep.final_weighted_mass"]
        assert [(name, detail) for name, ok, detail in checks if not ok] == []

    def test_certify_matches_the_reference(self, tmp_path):
        # the supersolution certification of the benchmark, checked as the
        # benchmark checks it: A and the residual against the reference,
        # the kernel table's unit mass and its Poisson error
        workloads = _perfbench_module("workloads")
        (argv,) = workloads.commands("certify", 0)
        with workloads.capturing_profiles(cli) as profiles:
            assert run_cli(argv, tmp_path) == 0
        obs = workloads.observe("certify", str(tmp_path), profiles)
        checks = workloads.check("certify", 0, obs,
                                 workloads.load_reference()["certify"])
        assert [name for name, _, _ in checks] == [
            "supersolution.residual", "certify.A",
            "certify.min_normalized_residual", "certify.pass",
            "certify.unit_mass", "certify.poisson"]
        assert [(name, detail) for name, ok, detail in checks if not ok] == []

    def test_profile_matches_the_reference(self, tmp_path):
        # the benchmark's s = 1/4 kernel tables, checked as the benchmark
        # checks them: the header's unit mass and sampled H against the
        # reference
        workloads = _perfbench_module("workloads")
        for argv in workloads.commands("profile", 0):
            assert run_cli(argv, tmp_path) == 0
        obs = workloads.observe("profile", str(tmp_path), [])
        checks = workloads.check("profile", 0, obs,
                                 workloads.load_reference()["profile"])
        assert [name for name, _, _ in checks] == [
            f"profile.{key}.{check}" for key in ("N1", "N2", "N3")
            for check in ("unit_mass", "H")]
        assert [(name, detail) for name, ok, detail in checks if not ok] == []


class TestReadmePaths:
    def test_command_line_block_parses(self):
        # every line of the README's "Command line" block, parsed only
        readme = (Path(__file__).resolve().parent.parent
                  / "README.md").read_text()
        block = readme.split("## Command line", 1)[1]
        block = block.split("```sh\n", 1)[1].split("```", 1)[0]
        lines = block.strip().splitlines()
        assert len(lines) >= 9
        for line in lines:
            word, *argv = shlex.split(line)
            assert word == "hardyheat"
            assert callable(cli._build_parser().parse_args(argv).func)

    def test_kernel_check_scaling_ode(self, tmp_path, capsys, prof_3_05):
        save_profile(prof_3_05, tmp_path / "k.csv", tmp_path / "k.json")
        code = run_cli(["kernel", "check", "--N", "3", "--s", "0.5",
                        "--out", "k.csv", "--scaling-ode"], tmp_path)
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["scaling_ode_residual"] <= 1e-3

    @pytest.mark.parametrize("n_points,code", [(64, 0), (32, 4)])
    def test_kernel_check_scaling_ode_bound(self, tmp_path, capsys,
                                            n_points, code):
        # the residual reads 7.5e-4 on a 64-point (3, 1/2) table and 6.2e-3
        # on a 32-point one; only the first is within the 1e-3 bound
        assert run_cli(["kernel", "build", "--N", "3", "--s", "0.5",
                        "--n-points", str(n_points), "--out", "k.csv"],
                       tmp_path) == 0
        capsys.readouterr()
        assert run_cli(["kernel", "check", "--N", "3", "--s", "0.5",
                        "--out", "k.csv", "--scaling-ode"], tmp_path) == code

    def test_simulate_direct_formulation(self, tmp_path, capsys):
        code = run_cli(["simulate", "--N", "3", "--s", "0.5",
                        "--lambda", "0.2", "--p", "1.3",
                        "--formulation", "direct", "--half-width", "8",
                        "--points", "16", "--t-max", "0.1",
                        "--out", "box.csv"], tmp_path)
        assert code == 0
        verdict = json.loads((tmp_path / "box_verdict.json").read_text())
        assert verdict["formulation"] == "direct"
        assert verdict["verdict"] == "survived"


class TestOutdirEnv:
    def test_env_var_respected(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("HARDYHEAT_OUTDIR", str(tmp_path))
        code = main(["exponents", "--N", "3", "--s", "0.5",
                     "--lambda", "0.5"])
        assert code == 0
        assert (tmp_path / "manifest_exponents.json").exists()


class TestConfigFile:
    def test_flags_win_over_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("out=from_config.csv\nn-points=121\n")
        code = main(["--outdir", str(tmp_path), "--config", str(cfg),
                     "kernel", "build", "--N", "1", "--s", "0.5",
                     "--sigma-max", "20"])
        assert code == 0
        assert (tmp_path / "from_config.csv").exists()
        capsys.readouterr()
        code = main(["--outdir", str(tmp_path), "--config", str(cfg),
                     "kernel", "build", "--N", "1", "--s", "0.5",
                     "--sigma-max", "20", "--out", "explicit.csv"])
        assert code == 0
        assert (tmp_path / "explicit.csv").exists()

    def test_config_fills_every_value_option(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=7\nu0=random-bumps\npotential-epsilon=0.25\n"
                       "formulation=direct\nunknown=3\n")
        code = main(["--outdir", str(tmp_path), "--config", str(cfg),
                     "simulate", "--N", "3", "--s", "0.5", "--lambda", "0.2",
                     "--p", "1.3", "--t-max", "0.1", "--points", "32",
                     "--out", "cfg.csv"])
        assert code == 0
        manifest = tmp_path / "manifest_simulate_cfg.json"
        params = json.loads(manifest.read_text())["parameters"]
        assert params["seed"] == 7
        assert params["u0"] == "random-bumps"
        assert params["potential_epsilon"] == 0.25
        assert params["formulation"] == "direct"
        assert "unknown" not in params

    def test_config_key_may_be_the_flag_name(self, tmp_path, capsys):
        # --lambda stores to `lam`; either name reaches it, past a comment
        # line and a blank one
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# the coupling\n\nlambda=0.3\n")
        code = main(["--outdir", str(tmp_path), "--config", str(cfg),
                     "verify", "energy", "--N", "3", "--s", "0.5"])
        assert code == 0
        manifest = tmp_path / "manifest_verify_energy.json"
        assert json.loads(manifest.read_text())["parameters"]["lam"] == 0.3

    def test_config_leaves_flags_alone(self, tmp_path, capsys, prof_3_05):
        save_profile(prof_3_05, tmp_path / "profile.csv",
                     tmp_path / "profile.json")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("scaling-ode=1\n")
        code = main(["--outdir", str(tmp_path), "--config", str(cfg),
                     "kernel", "check", "--N", "3", "--s", "0.5"])
        assert code == 0
        manifest = tmp_path / "manifest_kernel_check_profile.json"
        assert json.loads(manifest.read_text())["parameters"][
            "scaling_ode"] is False
