"""Outside-in tracing of perigid: spans recorded from the benchmark's own code.

:meth:`Tracer.install` replaces every public function and method of the
layer modules with a wrapper that records a span (name, start, end, parent),
in every perigid namespace that holds it, so names other modules imported
with ``from .x import f`` are traced too.  ``numpy.linalg`` factorisations
called inside a span are counted with a flop estimate from their shapes;
they are not spans, so their time stays in the perigid function that asked
for them.  Spans live in memory until :meth:`Tracer.write`.
"""

from __future__ import annotations

import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "fileformat", "gain", "framework", "stress", "linalg",
          "certify", "optimize", "construct", "svg")

# Per-edge accessor: a span per call would cost more than the call measures.
UNTRACED = {"gain.GainGraph.vertex_index"}

FACTORISATIONS = ("svd", "eigh", "eigvalsh", "qr")

# Per-layer metrics: metric name -> the spans whose self time it sums.
SPAN_GROUPS = {
    "fileformat.loads_s": ("fileformat.loads", "fileformat.loads_finite"),
    "fileformat.dumps_s": ("fileformat.dumps", "fileformat.to_document"),
    "gain.graph_build_s": ("gain.GainGraph.__init__", "gain.canonicalize_edge"),
    "gain.incidence_s": ("gain.GainGraph.incidence", "gain.GainGraph.incidence_zd",
                         "gain.GainGraph.gain_matrix"),
    "gain.gain_rank_s": ("gain.GainGraph.gain_rank", "gain.GainGraph.components",
                         "gain.GainGraph.is_connected"),
    "gain.full_rank_condition_s": ("gain.GainGraph.full_rank_condition",),
    "gain.covering_window_s": ("gain.GainGraph.covering_window", "gain.CoveringWindow.build"),
    "framework.rigidity_matrix_s": ("framework.rigidity_matrix",
                                    "framework.fixed_rigidity_matrix",
                                    "framework.volume_rigidity_matrix"),
    "framework.edge_vectors_s": ("framework.edge_vectors",),
    "framework.random_realization_s": ("framework.random_realization",),
    "stress.weighted_laplacians_s": ("stress.weighted_laplacians",),
    "stress.verify_equilibrium_s": ("stress.verify_equilibrium",),
    "stress.stress_space_s": ("stress.stress_space", "stress.fixed_stress_space",
                              "stress.lambda_stress_space"),
    "linalg.numeric_rank_s": ("linalg.numeric_rank",),
    "linalg.nullspace_s": ("linalg.nullspace",),
    "linalg.psd_check_s": ("linalg.psd_check",),
    "linalg.smith_rank_s": ("linalg.smith_rank",),
    "optimize.standard_realization_s": ("optimize.standard_realization",),
    "optimize.energy_s": ("optimize.energy", "optimize.energy_gradient"),
    "optimize.verify_kkt_s": ("optimize.verify_kkt",),
    "construct.finite_to_periodic_s": ("construct.finite_to_periodic",),
    "svg.render_covering_s": ("svg.render_covering",),
}

GENERIC_TESTS = ("certify.generic_global_rigidity_test",
                 "certify.generic_fixed_global_rigidity_test")


def factorisation_flops(name: str, args: tuple, kwargs: dict) -> float:
    """Flop estimate of one factorisation from its operand's shape (Golub & Van Loan)."""
    a = np.asarray(args[0])
    if a.ndim != 2:
        return 0.0
    rows, cols = a.shape
    m, n = max(rows, cols), min(rows, cols)
    if name == "svd":
        if not kwargs.get("compute_uv", args[2] if len(args) > 2 else True):
            return 4.0 * m * n * n - 4.0 * n ** 3 / 3.0
        if kwargs.get("full_matrices", args[1] if len(args) > 1 else True):
            return 4.0 * m * m * n + 8.0 * m * n * n + 9.0 * n ** 3
        return 6.0 * m * n * n + 20.0 * n ** 3
    if name == "eigh":
        return 9.0 * n ** 3
    if name == "eigvalsh":
        return 4.0 * n ** 3 / 3.0
    flops = 2.0 * m * n * n - 2.0 * n ** 3 / 3.0  # qr: Householder R
    if kwargs.get("mode", args[1] if len(args) > 1 else "reduced") == "complete":
        flops += 4.0 * m * m * n - 4.0 * m * n * n + 4.0 * n ** 3 / 3.0
    return flops


class Tracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._root = None
        self.reset()

    def reset(self) -> None:
        """Forget every record (spans, counters); wrappers stay installed."""
        self.spans: list[list] = []  # [id, name, start, end, parent id]
        self.factorisations: list[tuple] = []  # (name, flops, seconds)
        self.trials = 0

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1][0]
            else:  # a batch worker thread: its cause is the open CLI call
                parent = None if tracer._root is None else tracer._root[0]
            record = [next(tracer._ids), name, 0.0, 0.0, parent]
            if not stack and threading.current_thread() is threading.main_thread():
                tracer._root = record
            stack.append(record)
            record[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = time.perf_counter()
                stack.pop()
                tracer.spans.append(record)
                if tracer._root is record:
                    tracer._root = None
            if name in GENERIC_TESTS:
                with tracer._lock:
                    tracer.trials += len(result.trial_log)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def _wrap_factorisation(self, name: str, fn):
        tracer = self

        def counted(*args, **kwargs):
            if not tracer._stack():
                return fn(*args, **kwargs)
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            seconds = time.perf_counter() - start
            flops = factorisation_flops(name, args, kwargs)
            with tracer._lock:
                tracer.factorisations.append((name, flops, seconds))
            return result

        return counted

    def install(self) -> None:
        """Wrap the layer modules' public callables and numpy.linalg factorisations."""
        replaced: dict[int, object] = {}
        modules = [importlib.import_module(f"perigid.{layer}") for layer in LAYERS]
        for layer, module in zip(LAYERS, modules):
            source = module.__file__
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__code__.co_filename == source:
                    replaced[id(obj)] = self.wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._wrap_methods(layer, obj, source)
        for name, module in list(sys.modules.items()):
            if name == "perigid" or name.startswith("perigid."):
                for attr, obj in list(vars(module).items()):
                    if id(obj) in replaced:
                        setattr(module, attr, replaced[id(obj)])
        for name in FACTORISATIONS:
            setattr(np.linalg, name, self._wrap_factorisation(name, getattr(np.linalg, name)))

    def _wrap_methods(self, layer: str, cls: type, source: str) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if name in UNTRACED:
                continue
            if isinstance(member, staticmethod):
                fn = member.__func__
                if fn.__code__.co_filename == source:
                    setattr(cls, attr, staticmethod(self.wrap(name, fn)))
            elif inspect.isfunction(member) and member.__code__.co_filename == source:
                setattr(cls, attr, self.wrap(name, member))

    # -- results -----------------------------------------------------------

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Span name -> (total self seconds, calls).

        Self time is a span's duration minus the union of its children's
        intervals, clipped to the span.
        """
        children: dict[int, list] = defaultdict(list)
        for rec in self.spans:
            if rec[4] is not None:
                children[rec[4]].append((rec[2], rec[3]))
        totals: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for rec in self.spans:
            start, end = rec[2], rec[3]
            covered, reach = 0.0, start
            for lo, hi in sorted(children.get(rec[0], ())):
                lo, hi = max(lo, reach), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            entry = totals[rec[1]]
            entry[0] += (end - start) - covered
            entry[1] += 1
        return {name: (v[0], v[1]) for name, v in totals.items()}

    def write(self, path) -> None:
        """Spans as JSON lines: id, name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            for rec in sorted(self.spans, key=lambda r: r[0]):
                fh.write(json.dumps({"id": rec[0], "name": rec[1], "start": rec[2],
                                     "end": rec[3], "parent": rec[4]}) + "\n")


def layer_metrics(tracer: Tracer, rounds: int, decisions_per_round: int,
                  time_scale: float) -> dict[str, float]:
    """Per-round per-layer metrics from one traced run of ``rounds`` rounds.

    Times are multiplied by ``time_scale``, the run's speed calibration.
    """
    selfs = {name: (seconds * time_scale, calls)
             for name, (seconds, calls) in tracer.self_times().items()}
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(v[0] for k, v in selfs.items()
                                     if k.split(".", 1)[0] == layer) / rounds
    for metric, names in SPAN_GROUPS.items():
        out[metric] = sum(selfs.get(n, (0.0, 0))[0] for n in names) / rounds
    out["stress.weighted_laplacians_calls"] = selfs.get("stress.weighted_laplacians",
                                                        (0.0, 0))[1] / rounds
    count = len(tracer.factorisations)
    out["linalg.factorisations"] = count / rounds
    out["linalg.factorisations_per_decision"] = count / (rounds * decisions_per_round)
    out["linalg.factorisation_gflop"] = sum(f[1] for f in tracer.factorisations) / rounds / 1e9
    out["linalg.factorisation_s"] = (sum(f[2] for f in tracer.factorisations) / rounds
                                     * time_scale)
    out["certify.trials"] = tracer.trials / rounds
    return out
