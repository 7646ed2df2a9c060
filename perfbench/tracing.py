"""Spans around declab's layers, recorded from outside the library.

``Tracer.install`` replaces each traced function at every module attribute
where declab (or numpy, for ``numpy.linalg``) looks it up, so calls made
through ``from .operators import propagator`` are seen as well.  Spans are
kept in memory as (name, start, end, parent, item, work) and turned into
per-layer metrics after the pass; ``uninstall`` restores the originals.  A
target that no longer exists is reported as absent, never as zero.
"""

import functools
import importlib
import sys
import time

import numpy as np

# (span name, module, attribute)
FUNCTIONS = (
    ("quadrature.gauss_legendre_adaptive", "declab.quadrature", "gauss_legendre_adaptive"),
    ("models.decoherence_function", "declab.models", "decoherence_function"),
    ("models.spin_evolve", "declab.models", "spin_evolve"),
    ("models.asymptotic_map", "declab.models", "asymptotic_map"),
    ("models.az_evolve", "declab.models", "az_evolve"),
    ("models.full_simulation_oracle", "declab.models", "full_simulation_oracle"),
    ("operators.propagator", "declab.operators", "propagator"),
    ("operators.hermitian_eig", "declab.operators", "hermitian_eig"),
    ("operators.partial_trace_env", "declab.operators", "partial_trace_env"),
    ("states.trace_distance", "declab.states", "trace_distance"),
    ("superselection.off_diagonal_norms", "declab.superselection", "off_diagonal_norms"),
    ("superselection.sector_probabilities", "declab.superselection", "sector_probabilities"),
    ("superselection.fit_power_law_decay", "declab.superselection", "fit_power_law_decay"),
    ("cli.parse_config", "declab.cli", "parse_config"),
    ("cli.run_scenario", "declab.cli", "run_scenario"),
)
INITIALIZERS = (("states.DensityOperator", "declab.states", "DensityOperator"),)
LINALG = (("linalg.eigh", "eigh"), ("linalg.eigvalsh", "eigvalsh"), ("linalg.svd", "svd"))
INTEGRAND = "quadrature.integrand"
# The integrand is the caller's code (for spin, the rotation kernel), so its
# own time belongs to models, not to the quadrature layer that calls it.
LAYER_OF = {INTEGRAND: "models"}
LAYERS = ("quadrature", "models", "operators", "linalg", "states", "superselection", "cli")

# Per-layer metrics in the order they are reported: (name, unit).
_CALLS_S = ("calls", "count"), ("s", "s")
_CALLS_S_SELF = _CALLS_S + (("self_s", "s"),)
METRICS = (
    [("quadrature.gauss_legendre_adaptive." + q, u) for q, u in _CALLS_S]
    + [("quadrature.nodes", "count"), ("quadrature.nodes_per_call", "nodes/call"),
       ("quadrature.integrand.s", "s")]
    + [("models.decoherence_function." + q, u) for q, u in _CALLS_S]
    + [("models.spin_evolve." + q, u) for q, u in _CALLS_S]
    + [("models.asymptotic_map.s", "s")]
    + [("models.az_evolve." + q, u) for q, u in _CALLS_S_SELF]
    + [("models.full_simulation_oracle." + q, u) for q, u in _CALLS_S_SELF]
    + [(f"operators.{f}.{q}", u) for f in ("propagator", "hermitian_eig", "partial_trace_env")
       for q, u in _CALLS_S]
    + [("linalg.eigh." + q, u) for q, u in _CALLS_S] + [("linalg.eigh.n3", "count")]
    + [(f"linalg.{f}.{q}", u) for f in ("eigvalsh", "svd") for q, u in _CALLS_S]
    + [(f"states.{f}.{q}", u) for f in ("DensityOperator", "trace_distance") for q, u in _CALLS_S]
    + [(f"superselection.{f}.{q}", u) for f in ("off_diagonal_norms", "sector_probabilities")
       for q, u in _CALLS_S]
    + [("superselection.fit_power_law_decay.s", "s")]
    + [("cli.parse_config.s", "s"), ("cli.run_scenario.self_s", "s"), ("cli.csv_bytes", "bytes")]
    + [(f"{layer}.{q}", "s") for layer in LAYERS for q in ("s", "self_s")]
    + [("process.cpu_s", "s"), ("trace.pass_s", "s"), ("trace.overhead_s", "s")]
)


def _declab_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "declab" or name.startswith("declab."))]


class Tracer:
    def __init__(self):
        self.spans = []
        self.item = -1
        self.absent = set()
        self._stack = []
        self._restore = []

    def reset(self):
        self.spans = []
        self._stack = []

    def _wrap(self, name, fn, work=None):
        clock = time.perf_counter
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            spans = self.spans
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.item,
                    work(args) if work else 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()

        return traced

    def _wrap_quadrature(self, name, fn):
        def with_traced_integrand(f, *args, **kwargs):
            integrand = self._wrap(INTEGRAND, f, work=lambda a: int(np.size(a[0])))
            return fn(integrand, *args, **kwargs)

        return self._wrap(name, functools.wraps(fn)(with_traced_integrand))

    def _patch(self, owner, attr, new):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, new)

    def install(self):
        modules = _declab_modules()
        for name, modname, attr in FUNCTIONS:
            try:
                original = getattr(importlib.import_module(modname), attr)
            except (ImportError, AttributeError):
                self.absent.add(name)
                continue
            if name == "quadrature.gauss_legendre_adaptive":
                wrapper = self._wrap_quadrature(name, original)
            else:
                wrapper = self._wrap(name, original)
            for module in modules:
                for key in [k for k, v in vars(module).items() if v is original]:
                    self._patch(module, key, wrapper)
        for name, modname, attr in INITIALIZERS:
            cls = getattr(importlib.import_module(modname), attr, None)
            if cls is None or "__init__" not in vars(cls):
                self.absent.add(name)
                continue
            self._patch(cls, "__init__", self._wrap(name, vars(cls)["__init__"]))
        for name, attr in LINALG:
            work = (lambda a: int(np.shape(a[0])[-1]) ** 3) if attr == "eigh" else None
            self._patch(np.linalg, attr, self._wrap(name, getattr(np.linalg, attr), work))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def summarize(self):
        """Totals per span name and per layer for the spans recorded so far."""
        spans = self.spans
        n = len(spans)
        duration = [s[2] - s[1] for s in spans]
        child = [0.0] * n
        layer = [LAYER_OF.get(s[0], s[0].split(".")[0]) for s in spans]
        names_above = [frozenset()] * n
        layers_above = [frozenset()] * n
        for i, (name, _, _, parent, _, _) in enumerate(spans):
            if parent >= 0:
                child[parent] += duration[i]
                names_above[i] = names_above[parent] | {spans[parent][0]}
                layers_above[i] = layers_above[parent] | {layer[parent]}
        totals = {}

        def add(key, value):
            totals[key] = totals.get(key, 0) + value

        for i, (name, _, _, _, _, work) in enumerate(spans):
            own = duration[i] - child[i]
            add(name + ".calls", 1)
            add(name + ".self_s", own)
            add(name + ".work", work)
            add(layer[i] + ".self_s", own)
            if name not in names_above[i]:
                add(name + ".s", duration[i])
            if layer[i] not in layers_above[i]:
                add(layer[i] + ".s", duration[i])
        return totals


def layer_metrics(totals, absent, extra):
    """Values for every name in METRICS; absent targets map to None."""
    calls = totals.get("quadrature.gauss_legendre_adaptive.calls", 0)
    derived = {
        "quadrature.nodes": totals.get(INTEGRAND + ".work", 0),
        "quadrature.nodes_per_call": totals.get(INTEGRAND + ".work", 0) / calls if calls else 0.0,
        "linalg.eigh.n3": totals.get("linalg.eigh.work", 0),
    }
    derived.update(extra)
    out = {}
    for name, _ in METRICS:
        function = name.rsplit(".", 1)[0]
        if function in absent or (name.startswith("quadrature.") and
                                  "quadrature.gauss_legendre_adaptive" in absent):
            out[name] = None
        elif name in derived:
            out[name] = derived[name]
        else:
            out[name] = totals.get(name, 0)
    return out
