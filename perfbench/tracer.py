"""Span tracing of hardyheat's layers from outside the package.

A layer is one module of the package.  `Instrumentation` replaces every
public function of each layer with a wrapper that records a span (name,
start, end, parent) and puts the wrapper in every namespace of the package
that bound the original, so a call made through `from .x import y` or
through a same-module global is traced too.  Leaving the context restores
the originals.

Self time of a span is its duration minus the durations of its child
spans; since spans of one thread nest, the self times of all spans add up
to the durations of the root spans.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
import types
from array import array

import numpy as np

PACKAGE = "hardyheat"
LAYERS = ("exponents", "kernel", "fracop", "quadrature", "solver",
          "constructions", "cli")

# Functions of other packages that a layer binds under its own name; the
# span carries the binding layer's name.
FOREIGN = {"solver": ("lu_factor", "lu_solve")}

# Ladder of percentiles for tail latency; the highest one that leaves at
# least TAIL_SAMPLES samples beyond it is reported.
PERCENTILES = (50.0, 90.0, 99.0, 99.9, 99.99)
TAIL_SAMPLES = 10


# Values kept per call, from the bound arguments and the result: the
# operator's inputs (to count distinct ones), the table size, and the
# accepted steps (the report keeps the last 4000 step times, more than any
# run of the benchmark takes).
NOTES = {
    "fracop.build_ground_state_matrix": lambda a, result: (
        np.asarray(a["r_grid"], dtype=float).tobytes(), a["mu"], a["N"],
        a["s"]),
    "kernel.build_profile": lambda a, result: len(result.sigma_grid),
    "solver.run": lambda a, result: len(result.tail_times) - 1,
}


class Tracer:
    """Records spans in flat arrays; kept in memory until the run ends."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.notes: dict[int, object] = {}
        self._stack = [-1]

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, note=None):
        """Return `fn` wrapped in a span called `name`.

        `note(arguments, result)`, if given, runs after the call with the
        bound arguments and stores its value on the span.
        """
        nid = self._name_id(name)
        clock, stack = self.clock, self._stack
        name_ids, parents = self.name_id, self.parent
        starts, ends = self.start, self.end
        signature = inspect.signature(fn) if note is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if note is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self.notes[idx] = note(bound.arguments, result)
            return result

        traced.traced_original = fn
        return traced

    def arrays(self):
        """(name_id, parent, duration, self_time) as numpy arrays."""
        name_id = np.frombuffer(self.name_id, dtype=np.intc).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.intc).astype(np.int64)
        duration = (np.frombuffer(self.end, dtype=float)
                    - np.frombuffer(self.start, dtype=float))
        return name_id, parent, duration, self_times(parent, duration)


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Duration of each span minus the durations of its direct children."""
    children = np.zeros_like(duration)
    has_parent = parent >= 0
    np.add.at(children, parent[has_parent], duration[has_parent])
    return duration - children


def layer_functions(module) -> dict[str, types.FunctionType]:
    """Public functions defined in `module` itself."""
    return {name: obj for name, obj in vars(module).items()
            if not name.startswith("_")
            and isinstance(obj, types.FunctionType)
            and obj.__module__ == module.__name__}


class Instrumentation:
    """Context manager that traces every layer function of the package."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._patched: list[tuple[types.ModuleType, str, object]] = []

    @staticmethod
    def _modules() -> list[types.ModuleType]:
        return [mod for name, mod in sorted(sys.modules.items())
                if name == PACKAGE or name.startswith(PACKAGE + ".")]

    def __enter__(self) -> "Instrumentation":
        by_identity: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            fns = dict(layer_functions(mod))
            for name in FOREIGN.get(layer, ()):
                fns[name] = getattr(mod, name)
            for name, fn in fns.items():
                span = f"{layer}.{name}"
                wrapper = self.tracer.wrap(span, fn, NOTES.get(span))
                by_identity[id(fn)] = (fn, wrapper)
        for mod in self._modules():
            for attr, value in list(vars(mod).items()):
                hit = by_identity.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
                    self._patched.append((mod, attr, value))
        missed = [f"{mod.__name__}.{attr}" for mod in self._modules()
                  for attr, value in vars(mod).items()
                  if id(value) in by_identity
                  and by_identity[id(value)][0] is value]
        if missed:
            self.__exit__(None, None, None)
            raise RuntimeError(f"bindings left unwrapped: {missed}")
        return self

    def __exit__(self, *exc) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        leftover = [f"{mod.__name__}.{attr}" for mod in self._modules()
                    for attr, value in vars(mod).items()
                    if hasattr(value, "traced_original")]
        if leftover:
            raise RuntimeError(f"wrappers left after restore: {leftover}")


def tail_percentile(samples: np.ndarray) -> tuple[float, float]:
    """(percentile, value) of the highest ladder percentile with at least
    TAIL_SAMPLES samples beyond it; (0, 0) when there are too few samples."""
    best = (0.0, 0.0)
    for q in PERCENTILES:
        if len(samples) * (100.0 - q) >= 100.0 * TAIL_SAMPLES - 1e-6:
            best = (q, float(np.percentile(samples, q)))
    return best


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced command sequence of `wall_s` s."""
    name_id, parent, duration, own = tracer.arrays()
    ids = {name: i for i, name in enumerate(tracer.names)}
    n_names = len(tracer.names)
    calls = np.bincount(name_id, minlength=n_names)
    total = np.bincount(name_id, weights=duration, minlength=n_names)
    self_sum = np.bincount(name_id, weights=own, minlength=n_names)
    parent_name = np.where(parent >= 0, name_id[np.maximum(parent, 0)], -1)

    def count(name):
        return int(calls[ids[name]]) if name in ids else 0

    def tot(name):
        return float(total[ids[name]]) if name in ids else 0.0

    def own_s(name):
        return float(self_sum[ids[name]]) if name in ids else 0.0

    def mask(name, parent_fn=None):
        """Spans of `name`, optionally only those called by `parent_fn`."""
        hit = name_id == ids.get(name, -2)
        if parent_fn is not None:
            hit &= parent_name == ids.get(parent_fn, -2)
        return hit

    def ratio(num, den):
        return num / den if den else 0.0

    def notes_of(name):
        return [tracer.notes[i] for i in np.flatnonzero(mask(name))
                if i in tracer.notes]

    out: dict[str, float] = {}
    gsm = "fracop.build_ground_state_matrix"
    out[f"{gsm}.calls"] = count(gsm)
    out[f"{gsm}.total_s"] = tot(gsm)
    out[f"{gsm}.self_s"] = own_s(gsm)
    out[f"{gsm}.distinct_ratio"] = ratio(len(set(notes_of(gsm))), count(gsm))

    for fn in ("fracop.frac_laplacian_quadrature_radial",
               "fracop.apply_ground_state_operator"):
        samples = duration[mask(fn)]
        pct, tail = tail_percentile(samples)
        out[f"{fn}.calls"] = count(fn)
        out[f"{fn}.self_s"] = own_s(fn)
        out[f"{fn}.p50_ms"] = (1e3 * float(np.median(samples))
                               if len(samples) else 0.0)
        out[f"{fn}.ptail_ms"] = 1e3 * tail
        out[f"{fn}.ptail_pct"] = pct

    panels = "quadrature.integrate_panels"
    for fn in ("quadrature.head_panels", "quadrature.tail_panels"):
        inner = int(np.count_nonzero(mask(panels, fn)))
        out[f"{fn}.calls"] = count(fn)
        out[f"{fn}.total_s"] = tot(fn)
        out[f"{fn}.panels_per_call"] = ratio(inner, count(fn))
    out[f"{panels}.calls"] = count(panels)

    bp = "kernel.build_profile"
    out[f"{bp}.calls"] = count(bp)
    out[f"{bp}.total_s"] = tot(bp)
    out[f"{bp}.ms_per_point"] = ratio(1e3 * tot(bp), sum(notes_of(bp)))

    run = "solver.run"
    steps = sum(notes_of(run))
    builds_in_run = float(duration[mask(gsm, run)].sum())
    out[f"{run}.calls"] = count(run)
    out[f"{run}.self_s"] = own_s(run)
    out[f"{run}.ms_per_step"] = ratio(1e3 * (tot(run) - builds_in_run), steps)
    for fn in ("solver.lu_factor", "solver.lu_solve"):
        out[f"{fn}.calls"] = count(fn)
        out[f"{fn}.total_s"] = tot(fn)
    solves = count("solver.lu_solve")
    out["solver.lu_reuse_ratio"] = (
        1.0 - count("solver.lu_factor") / solves if solves else 0.0)
    out["solver.steps"] = steps

    for fn in ("choose_supersolution", "supersolution_residual"):
        out[f"constructions.{fn}.total_s"] = tot(f"constructions.{fn}")
        out[f"constructions.{fn}.self_s"] = own_s(f"constructions.{fn}")
    out["exponents.exponent_profile.calls"] = count(
        "exponents.exponent_profile")

    layer_of = np.array([LAYERS.index(name.split(".")[0])
                         for name in tracer.names], dtype=np.int64)
    per_layer = np.bincount(layer_of[name_id], weights=own,
                            minlength=len(LAYERS))
    for i, layer in enumerate(LAYERS):
        out[f"{layer}.self_s"] = float(per_layer[i])
    out["trace.wall_s"] = wall_s
    out["trace.unattributed_s"] = wall_s - float(per_layer.sum())
    return out
