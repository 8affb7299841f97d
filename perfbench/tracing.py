"""Span tracing from outside the program, and the per-layer metrics.

The tracer wraps named public functions of ohmlab and rebinds the wrapper
under every module attribute that held the original, so calls made through
`from .linalg import solve_laplacian` in routing or thresholds are traced
too. A span is (name, start, end, parent span index, operation id). Spans
stay in memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import importlib
import sys
import time

import numpy as np

# Functions wrapped in a traced run. Every name here yields `<name>.s`
# (inclusive seconds) unless listed in ATTRIBUTION_ONLY, which are wrapped
# only so their time lands in the right module's self time.
TRACED = (
    "graphs.conductance_exact",
    "graphs.conductance_bounds",
    "graphs.random_regular",
    "graphs.read_graph",
    "graphs.gadget_subdivide",
    "graphs.graph_union",
    "linalg.solve_laplacian",
    "linalg.laplacian",
    "linalg.induced_pnorm_nonneg",
    "routing.competitive_ratio_inf",
    "routing.flow_projection",
    "routing.localization",
    "routing.competitive_ratio",
    "thresholds.threshold_profile",
    "thresholds.check_integral_identity",
    "thresholds.check_unit_flow",
    "thresholds.check_derivative_bounds",
    "thresholds.diagnostic_rows",
    "sparsify.read_partition",
    "sparsify.schur_edge_weights",
    "sparsify.harmonic_extension",
    "sparsify.min_l1_extension",
    "sparsify.expected_cut_l1",
    "maxflow.min_cut",
    "experiments.run_experiment",
    "experiments.run_report",
    "experiments.run_diagnose",
    "experiments.run_sparsify",
    "experiments.render_csv",
)
ATTRIBUTION_ONLY = {
    "graphs.gadget_subdivide", "graphs.graph_union", "sparsify.read_partition",
    "experiments.run_experiment", "experiments.run_report",
    "experiments.run_diagnose", "experiments.run_sparsify",
    "experiments.render_csv",
}
COUNTED = (
    "graphs.conductance_exact", "graphs.conductance_bounds",
    "graphs.random_regular", "linalg.solve_laplacian", "linalg.laplacian",
    "linalg.induced_pnorm_nonneg", "maxflow.min_cut",
)
MODULES = ("graphs", "linalg", "routing", "thresholds", "sparsify", "maxflow",
           "experiments", "cli")
ROOT = "cli.main"  # the span the benchmark opens around each CLI operation

# Counts that depend only on the inputs; they must repeat exactly.
DETERMINISTIC = tuple(f"{name}.calls" for name in COUNTED) + (
    "graphs.conductance_exact.cuts", "linalg.solve_laplacian.iterations",
    "routing.pairs",
)


def metric_names() -> list:
    """Every per-layer metric, in the order BENCHMARK.json lists them."""
    names = []
    for name in TRACED:
        if name in COUNTED:
            names.append(f"{name}.calls")
        if name not in ATTRIBUTION_ONLY:
            names.append(f"{name}.s")
        if name == "graphs.conductance_exact":
            names.append(f"{name}.cuts")
        if name == "linalg.solve_laplacian":
            names += [f"{name}.iterations", f"{name}.max_rel_residual"]
    names += ["routing.pairs", "routing.solves_per_pair"]
    names += [f"{module}.self_s" for module in MODULES]
    names.append("traced.wall_s")  # set by the runner, like untraced wall_s
    return names


def _graph_key(g) -> tuple:
    return (g.n, g.tails.tobytes(), g.heads.tobytes(), g.weights.tobytes())


class Tracer:
    """Installs span-recording wrappers; one instance per traced run."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent, op]
        self.solves = []  # (graph key id, demand key, iterations, rel residual)
        self.cut_sizes = []  # n per conductance_exact call
        self.missing = []
        self._stack = []
        self._op = -1
        self._graph_ids = {}
        self._restore = []

    # -- spans -------------------------------------------------------------
    def span(self, name, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        rec = [name, time.perf_counter(), None, parent, self._op]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def operation(self, op_id, fn, *args):
        """Run one CLI operation under a root span."""
        self._op = op_id
        try:
            return self.span(ROOT, fn, *args)
        finally:
            self._op = -1

    def _wrap(self, name, fn):
        tracer = self

        if name == "linalg.solve_laplacian":
            def wrapper(g, b, *args, **kwargs):
                rep = tracer.span(name, fn, g, b, *args, **kwargs)
                tracer._record_solve(g, b, rep)
                return rep
        elif name == "graphs.conductance_exact":
            def wrapper(g, *args, **kwargs):
                tracer.cut_sizes.append(g.n)
                return tracer.span(name, fn, g, *args, **kwargs)
        else:
            def wrapper(*args, **kwargs):
                return tracer.span(name, fn, *args, **kwargs)
        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def _record_solve(self, g, b, rep):
        key = self._graph_ids.setdefault(_graph_key(g), len(self._graph_ids))
        b = np.asarray(b, dtype=np.float64)
        nz = np.flatnonzero(b)
        if nz.size == 2 and b[nz].sum() == 0.0:
            demand = (int(nz[0]), int(nz[1]))  # an endpoint pair
        else:
            demand = b.tobytes()
        centered = float(np.linalg.norm(b - b.mean()))
        rel = rep.residual_norm / centered if centered > 0.0 else 0.0
        self.solves.append((key, demand, rep.iterations, rel))

    # -- install -----------------------------------------------------------
    def install(self):
        # import every layer first, so no module binds a wrapper at import
        for module in MODULES:
            importlib.import_module(f"ohmlab.{module}")
        mods = {name: mod for name, mod in sys.modules.items()
                if name == "ohmlab" or name.startswith("ohmlab.")}
        for name in TRACED:
            module, func = name.split(".")
            fn = getattr(mods.get(f"ohmlab.{module}"), func, None)
            if fn is None:
                self.missing.append(name)
                continue
            wrapper = self._wrap(name, fn)
            for mod in mods.values():
                for attr, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, attr, wrapper)
                        self._restore.append((mod, attr, fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._restore):
            setattr(mod, attr, fn)
        self._restore.clear()

    def reset(self):
        self.spans, self.solves, self.cut_sizes = [], [], []
        self._graph_ids = {}

    # -- metrics -----------------------------------------------------------
    def pass_metrics(self) -> dict:
        """Per-layer metrics of the spans recorded since the last reset."""
        inclusive = {}
        calls = {}
        child_time = [0.0] * len(self.spans)
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            if parent >= 0:
                child_time[parent] += end - start
            if not self._inside_same(i):
                inclusive[name] = inclusive.get(name, 0.0) + (end - start)
        self_s = {module: 0.0 for module in MODULES}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name.split(".")[0]] += (end - start) - child_time[i]

        out = {}
        for name in TRACED:
            if name in self.missing:
                continue
            if name in COUNTED:
                out[f"{name}.calls"] = calls.get(name, 0)
            if name not in ATTRIBUTION_ONLY:
                out[f"{name}.s"] = inclusive.get(name, 0.0)
        if "graphs.conductance_exact" not in self.missing:
            out["graphs.conductance_exact.cuts"] = sum(2 ** (n - 1) for n in self.cut_sizes)
        pairs = len({(key, demand) for key, demand, _, _ in self.solves})
        if "linalg.solve_laplacian" not in self.missing:
            out["linalg.solve_laplacian.iterations"] = sum(s[2] for s in self.solves)
            out["linalg.solve_laplacian.max_rel_residual"] = max(
                (s[3] for s in self.solves), default=0.0)
            out["routing.pairs"] = pairs
            out["routing.solves_per_pair"] = len(self.solves) / pairs if pairs else 0.0
        for module in MODULES:
            out[f"{module}.self_s"] = self_s[module]
        return out

    def _inside_same(self, i: int) -> bool:
        """True when span i runs inside another span of the same name."""
        name = self.spans[i][0]
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False
