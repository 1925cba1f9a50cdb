"""Traced-run recorder: spans around the package's public functions.

The wrappers are installed from outside the package. A name imported by
value (``from .spectral import spectral_gap``) is a separate binding of the
same function object, so every binding in every package module, and every
value of a module-level dict, is replaced; a missed binding would silently
drop calls from the counts. Methods of ``Grid`` and ``SplitMix64`` are
replaced on the class. ``splu`` is wrapped only as bound in ``branch``.

Spans (name, start, end, parent, op id) are kept in flat typed arrays and
written out once, when the run ends.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

PACKAGE = "neumann_rigidity"
LAYERS = ("cli", "variational", "grid", "spectral", "branch", "flow", "klt",
          "constants", "rng")
# classes whose methods are the layer's kernels
_CLASSES = {"grid": "Grid", "rng": "SplitMix64"}


class Recorder:
    """Spans of one traced run, plus the solver results observed."""

    def __init__(self):
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_id = array("H")
        self.op = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.op_id = 0
        # results kept alive so that identity tests stay valid
        self.results: Dict[str, Dict[int, object]] = {}
        self.gap_hits = 0

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn: Callable,
             observe: Optional[Callable] = None) -> Callable:
        """``fn`` recording one span per call under ``name``."""
        nid = self.intern(name)
        names, ops, parents = self.name_id, self.op, self.parent
        starts, ends, stack = self.start, self.end, self._stack

        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            ops.append(self.op_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(self, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def keep(self, kind: str, result) -> bool:
        """Remember ``result``; False when the same object was seen before."""
        seen = self.results.setdefault(kind, {})
        if id(result) in seen:
            return False
        seen[id(result)] = result
        return True

    def arrays(self) -> Dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.uint16).copy(),
            "op": np.frombuffer(self.op, dtype=np.uint16).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def save(self, path: str) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())


# ----------------------------------------------------------------------
# observers: read solver results as they pass through a wrapper
def _observe_gap(rec: Recorder, pair) -> None:
    # spectral_gap returns the cached EigenPair object on a cache hit
    if not rec.keep("spectral_gap", pair):
        rec.gap_hits += 1


def _observe(kind: str) -> Callable:
    def observe(rec: Recorder, result) -> None:
        rec.keep(kind, result)
    return observe


_OBSERVERS = {
    "spectral.spectral_gap": _observe_gap,
    "spectral.schrodinger_ground_state": _observe("ground_state"),
    # lambda_of_mu returns the very QuotientSolve of minimize_quotient for
    # p < 1, so both feed one identity-keyed set
    "variational.minimize_quotient": _observe("quotient"),
    "variational.lambda_of_mu": _observe("quotient"),
    "branch.trace_branch": _observe("branch"),
    "flow.nonlinear_flow_run": _observe("flow"),
    "flow.heat_flow_run": _observe("flow"),
    "klt.klt_duality_check": _observe("klt"),
}


def _targets(modules) -> List[Tuple[str, object, str, Callable]]:
    """(span name, owner, attribute, function) for every traced callable."""
    out = []
    for layer in LAYERS:
        mod = modules[layer]
        cls = getattr(mod, _CLASSES[layer]) if layer in _CLASSES else None
        methods = set()
        if cls is not None:
            for attr, obj in vars(cls).items():
                if inspect.isfunction(obj) and not attr.startswith("_"):
                    out.append((f"{layer}.{attr}", cls, attr, obj))
                    methods.add(attr)
        for attr, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not attr.startswith("_")):
                # grid.integrate / grid.lp_norm exist both as Grid methods
                # and as Field adapters that call them
                name = (f"{layer}.{attr}_field" if attr in methods
                        else f"{layer}.{attr}")
                out.append((name, mod, attr, obj))
    out.append(("branch.splu", modules["branch"], "splu",
                modules["branch"].splu))
    return out


def install(rec: Recorder) -> Callable[[], None]:
    """Wrap every traced callable on every binding; returns an undo."""
    modules = {layer: sys.modules[f"{PACKAGE}.{layer}"] for layer in LAYERS}
    package_mods = [m for k, m in sorted(sys.modules.items())
                    if k == PACKAGE or k.startswith(PACKAGE + ".")]
    undo: List[Tuple[object, object, object]] = []

    def replace(container, key, new, old):
        if isinstance(container, dict):
            container[key] = new
        else:
            setattr(container, key, new)
        undo.append((container, key, old))

    for name, owner, attr, fn in _targets(modules):
        wrapped = rec.wrap(name, fn, _OBSERVERS.get(name))
        if inspect.isclass(owner) or name == "branch.splu":
            replace(owner, attr, wrapped, fn)
            continue
        for mod in package_mods:
            for key, val in list(vars(mod).items()):
                if val is fn:
                    replace(mod, key, wrapped, fn)
                elif isinstance(val, dict):
                    for dkey, dval in list(val.items()):
                        if dval is fn:
                            replace(val, dkey, wrapped, fn)

    def restore() -> None:
        for container, key, old in reversed(undo):
            if isinstance(container, dict):
                container[key] = old
            else:
                setattr(container, key, old)

    return restore


def wrapper_cost(repeats: int = 5, n: int = 20000) -> float:
    """Median seconds one traced call adds over a plain call."""
    def plain():
        return None

    costs = []
    for _ in range(repeats):
        traced = Recorder().wrap("calibration", plain)
        t0 = perf_counter()
        for _ in range(n):
            plain()
        t1 = perf_counter()
        for _ in range(n):
            traced()
        t2 = perf_counter()
        costs.append(max(0.0, ((t2 - t1) - (t1 - t0)) / n))
    return float(np.median(costs))


# ----------------------------------------------------------------------
# span-tree arithmetic
def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Duration minus the time covered by child spans.

    Calls are single-threaded, so the children of one span never overlap
    and the covered time is the sum of their durations.
    """
    has = parent >= 0
    covered = np.bincount(parent[has], weights=duration[has],
                          minlength=duration.size)
    return duration - covered


def under(parent: np.ndarray, ancestor: np.ndarray) -> np.ndarray:
    """Mask of spans with at least one ancestor for which ``ancestor`` holds."""
    out = np.zeros(parent.size, dtype=bool)
    up = parent.copy()
    live = up >= 0
    while np.any(live):
        out[live] |= ancestor[up[live]]
        up[live] = parent[up[live]]
        live = up >= 0
    return out


def op_balance(op: np.ndarray, parent: np.ndarray,
               duration: np.ndarray) -> float:
    """Largest |sum of self times - root duration| over the ops, in seconds."""
    selfs = self_times(parent, duration)
    total = np.bincount(op, weights=selfs)
    root = np.bincount(op[parent < 0], weights=duration[parent < 0],
                       minlength=total.size)
    return float(np.max(np.abs(total - root))) if total.size else 0.0


def op_summary(rec: Recorder) -> dict:
    """Span count, traced duration of each op and the self-time balance."""
    a = rec.arrays()
    dur = a["end"] - a["start"]
    root = a["parent"] < 0
    return {"spans": int(dur.size),
            "op_traced_s": np.bincount(a["op"][root],
                                       weights=dur[root]).tolist(),
            "self_time_balance_s": op_balance(a["op"], a["parent"], dur)}


# ----------------------------------------------------------------------
# per-layer metrics of one traced run
def kernel_bytes(grid) -> Dict[str, int]:
    """Bytes one call of each stencil kernel reads and writes, from sizes.

    Counts the operand, coefficient, face-weight and result arrays once
    each; temporaries and cache misses are ignored.
    """
    field = grid.weights.nbytes
    faces = sum(fw.nbytes for fw in grid.face_weights)
    return {"stiffness_apply": 2 * field + faces,
            "weighted_stiffness_apply": 3 * field + faces}


def layer_metrics(rec: Recorder, loop_wall: float, cost: float,
                  grid) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric, as name -> (value, unit)."""
    a = rec.arrays()
    nid, parent = a["name_id"], a["parent"]
    dur = a["end"] - a["start"]
    selfs = self_times(parent, dur)

    def where(pred) -> np.ndarray:
        ids = [i for i, n in enumerate(rec.names) if pred(n)]
        return np.isin(nid, ids)

    def named(name: str) -> np.ndarray:
        return where(lambda n: n == name)

    def calls(name: str, within: Optional[np.ndarray] = None) -> int:
        m = named(name)
        return int(np.sum(m if within is None else m & within))

    def secs(name: str) -> float:
        return float(np.sum(dur[named(name)]))

    def self_s(name: str) -> float:
        return float(np.sum(selfs[named(name)]))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def kept(kind: str) -> list:
        return list(rec.results.get(kind, {}).values())

    in_var = under(parent, where(lambda n: n.startswith("variational.")))
    in_mu2 = under(parent, named("variational.estimate_mu2"))
    in_nl = under(parent, named("flow.nonlinear_flow_run"))
    in_heat = under(parent, named("flow.heat_flow_run"))

    solves = kept("quotient")
    grad_evals = calls("grid.stiffness_apply", in_var)
    trials = calls("grid.energy", in_var)
    starts = sum(s.restarts_used for s in solves)
    traces = kept("branch")
    points = sum(len(t.points) for t in traces)
    factorizations = calls("branch.splu")
    gaps = kept("spectral_gap")
    nbytes = kernel_bytes(grid)

    m: Dict[str, Tuple[float, str]] = {}
    m["variational.estimate_mu2.s"] = (secs("variational.estimate_mu2"), "s")
    for fn in ("minimize_quotient", "lambda_of_mu"):
        name = f"variational.{fn}"
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.s"] = (secs(name), "s")
    m["variational.minimize_quotient.self_s"] = (
        self_s("variational.minimize_quotient"), "s")
    m["variational.solves_per_bracket"] = (ratio(
        calls("variational.minimize_quotient", in_mu2),
        calls("variational.estimate_mu2")), "ratio")
    m["variational.unconverged_frac"] = (ratio(
        sum(not s.converged for s in solves), len(solves)), "frac")
    m["variational.grad_evals"] = (grad_evals, "count")
    m["variational.linesearch_trials"] = (trials, "count")
    # each start takes one gradient before its first step and one per
    # accepted step; every other energy trial was rejected
    m["variational.rejected_trial_frac"] = (ratio(
        trials - (grad_evals - starts), trials), "frac")

    for fn in ("stiffness_apply", "energy", "lp_norm", "integrate",
               "weighted_stiffness_apply", "laplacian"):
        name = f"grid.{fn}"
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.s"] = (secs(name), "s")
    for fn, size in nbytes.items():
        m[f"grid.{fn}.bytes_computed"] = (
            size if calls(f"grid.{fn}") else 0, "B")

    m["branch.trace_branch.s"] = (secs("branch.trace_branch"), "s")
    m["branch.trace_branch.self_s"] = (self_s("branch.trace_branch"), "s")
    m["branch.points"] = (points, "count")
    m["branch.truncated_frac"] = (ratio(
        sum(t.truncated for t in traces), len(traces)), "frac")
    m["branch.factorizations"] = (factorizations, "count")
    m["branch.factorization_s"] = (secs("branch.splu"), "s")
    m["branch.factorizations_per_point"] = (ratio(factorizations, points),
                                            "ratio")

    m["flow.nonlinear_flow_run.s"] = (secs("flow.nonlinear_flow_run"), "s")
    m["flow.nonlinear_flow_run.self_s"] = (
        self_s("flow.nonlinear_flow_run"), "s")
    m["flow.heat_flow_run.s"] = (secs("flow.heat_flow_run"), "s")
    m["flow.nonlinear.step_trials"] = (
        calls("grid.weighted_stiffness_apply", in_nl), "count")
    m["flow.heat.steps"] = (calls("grid.laplacian", in_heat), "count")
    m["flow.records"] = (sum(len(t.times) for t in kept("flow")), "count")

    m["klt.klt_duality_check.calls"] = (calls("klt.klt_duality_check"),
                                        "count")
    m["klt.klt_duality_check.s"] = (secs("klt.klt_duality_check"), "s")
    m["klt.relative_gap_max"] = (max(
        (r.relative_gap for r in kept("klt")), default=0.0), "ratio")

    for fn in ("schrodinger_ground_state", "spectral_gap"):
        name = f"spectral.{fn}"
        m[f"{name}.calls"] = (calls(name), "count")
        m[f"{name}.s"] = (secs(name), "s")
    m["spectral.ground_state_iterations"] = (sum(
        g.iterations for g in kept("ground_state")), "count")
    m["spectral.gap_cache_hit_frac"] = (ratio(
        rec.gap_hits, calls("spectral.spectral_gap")), "frac")
    m["spectral.gap_iterations"] = (sum(g.iterations for g in gaps), "count")

    m["cli.self_s"] = (float(np.sum(selfs[where(
        lambda n: n.startswith("cli."))])), "s")
    m["constants.rigidity_bounds.s"] = (secs("constants.rigidity_bounds"),
                                        "s")
    m["rng.uniforms.calls"] = (calls("rng.uniforms"), "count")
    m["rng.uniforms.s"] = (secs("rng.uniforms"), "s")
    m["trace.overhead_frac"] = (ratio(cost * nid.size, loop_wall), "frac")
    return m
