"""Tests of the benchmark's tracer, speed probe and metric list.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""
import filecmp
import json
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import hardyheat.cli as cli  # noqa: E402
from hardyheat import constructions, fracop, quadrature, solver  # noqa: E402
from probe import Probe  # noqa: E402
from run import END_TO_END, unit_of  # noqa: E402
from tracer import (LAYERS, Instrumentation, Tracer,  # noqa: E402
                    layer_metrics, self_times, tail_percentile)


class FakeClock:
    """Advances one unit per reading."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_self_times_sum_to_root_on_nested_spans():
    tracer = Tracer(clock=FakeClock())
    leaf = tracer.wrap("t.leaf", lambda: None)
    mid = tracer.wrap("t.mid", lambda: [leaf() for _ in range(3)])
    root = tracer.wrap("t.root", lambda: (mid(), leaf(), mid()))
    root()
    name_id, parent, duration, own = tracer.arrays()
    assert parent[0] == -1 and np.all(parent[1:] >= 0)
    assert own.sum() == pytest.approx(duration[0])
    assert np.all(own > 0)
    leaf_id = tracer.names.index("t.leaf")
    assert np.all(own[name_id == leaf_id] == 1.0)


def test_self_times_by_hand():
    parent = np.array([-1, 0, 1, 0])
    duration = np.array([10.0, 6.0, 2.0, 3.0])
    assert self_times(parent, duration).tolist() == [1.0, 4.0, 2.0, 3.0]


def test_tail_percentile_needs_ten_samples_beyond():
    assert tail_percentile(np.arange(19.0)) == (0.0, 0.0)
    assert tail_percentile(np.arange(100.0))[0] == 90.0
    assert tail_percentile(np.arange(1000.0))[0] == 99.0


def test_every_binding_wrapped_and_restored():
    originals = (fracop.frac_laplacian_quadrature_radial,
                 solver.lu_factor, solver.lu_solve,
                 quadrature.integrate_panels, cli.main)
    with Instrumentation(Tracer()):
        wrapped = fracop.frac_laplacian_quadrature_radial
        assert wrapped.traced_original is originals[0]
        assert constructions.frac_laplacian_quadrature_radial is wrapped
        assert solver.lu_factor.traced_original is originals[1]
        assert solver.lu_solve.traced_original is originals[2]
        assert cli.main.traced_original is originals[4]
    assert (fracop.frac_laplacian_quadrature_radial, solver.lu_factor,
            solver.lu_solve, quadrature.integrate_panels,
            cli.main) == originals
    assert constructions.frac_laplacian_quadrature_radial is originals[0]


def test_same_module_calls_get_their_parent():
    tracer = Tracer()
    with Instrumentation(tracer):
        quadrature.tail_panels(lambda x: np.exp(-x), 1.0)
    name_id, parent, _, _ = tracer.arrays()
    tail = tracer.names.index("quadrature.tail_panels")
    panels = tracer.names.index("quadrature.integrate_panels")
    roots = np.flatnonzero(name_id == tail)
    assert len(roots) == 1
    inner = np.flatnonzero(name_id == panels)
    assert len(inner) > 2 and np.all(parent[inner] == roots[0])
    metrics = layer_metrics(tracer, 1.0)
    assert metrics["quadrature.tail_panels.panels_per_call"] == len(inner)


COMMANDS = [
    ["kernel", "build", "--N", "3", "--s", "0.5", "--sigma-max", "10",
     "--n-points", "33"],
    ["simulate", "--N", "3", "--s", "0.5", "--lambda", "0.5", "--p", "1.5",
     "--points", "48", "--t-max", "2"],
    ["sweep", "--N", "3", "--s", "0.5", "--lambda-grid", "0.3,0.5",
     "--p-grid", "1.3,2.5", "--points", "48", "--t-max", "3"],
]


def _run_all(outdir: Path) -> None:
    for argv in COMMANDS:
        assert cli.main(["--outdir", str(outdir), *argv]) == 0


def test_tracing_leaves_outputs_bit_identical(tmp_path, capsys):
    # Manifests record the output directory, so both runs write to `out`.
    out, plain = tmp_path / "out", tmp_path / "plain"
    _run_all(out)
    out.rename(plain)
    tracer = Tracer()
    with Instrumentation(tracer):
        _run_all(out)
    capsys.readouterr()
    names = sorted(p.name for p in plain.iterdir())
    assert names == sorted(p.name for p in out.iterdir())
    match, mismatch, errors = filecmp.cmpfiles(plain, out, names,
                                               shallow=False)
    assert mismatch == [] and errors == []
    _, parent, duration, _ = tracer.arrays()
    metrics = layer_metrics(tracer, 1.0)
    layers = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    assert layers == pytest.approx(duration[parent < 0].sum())
    assert metrics["solver.run.calls"] == 5
    assert metrics["fracop.build_ground_state_matrix.distinct_ratio"] == 0.4


def test_benchmark_json_lists_every_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layer = layer_metrics(Tracer(), 1.0)
    layer["trace.overhead_s"] = 0.0
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit_of(name) for name in layer}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END


def test_probe_samples_a_busy_interval_and_restores_the_handler():
    previous = signal.getsignal(signal.SIGALRM)
    with Probe() as probe:
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(probe.samples) >= 5
    assert 0.0 < probe.mean_s() and sum(probe.samples) <= probe.spent_s
