"""Span tracer for the fronthaul_planner package, driven from outside it.

install() replaces every public function of each package module, and every
public method (plus __post_init__) of each class the module defines, with a
wrapper that records a span: id, parent id, name, start, end and whether the
call raised. A function is replaced at every import site, so
experiments.grid_cells and cli.grid_search are traced as well as
optimizer.grid_cells. uninstall() puts the originals back.

Spans stay in memory; layer_stats() turns one pass's spans into per-layer
call counts and self times (a span's duration minus that of its children).
A few wrappers also count work where it happens, into Tracer.counters.
"""

import functools
import importlib
import inspect
import time
import tracemalloc
from collections import Counter, defaultdict

import numpy as np

PACKAGE = "fronthaul_planner"
MODULES = ("seeds", "channel", "config", "fronthaul", "rate", "energy",
           "optimizer", "experiments", "cli")
LAYERS = ("seeds", "channel", "config", "fronthaul", "rate.closed", "rate.mc",
          "energy", "optimizer", "experiments", "cli")


def layer_of(module, name):
    """Layer of a traced function: its module, with rate split in two."""
    if module == "rate":
        return "rate.mc" if name.startswith("mc_") else "rate.closed"
    return module


def _count_ee_cells(counters, args, kwargs, out):
    counters["energy.cells"] += int(np.size(out))


def _count_grid_cells(counters, args, kwargs, out):
    counters["optimizer.cells"] += int(np.size(out[2]))


def _count_fallback(counters, args, kwargs, out):
    counters["optimizer.quadratic_calls"] += 1
    counters["optimizer.fallbacks"] += int(bool(out.fallback_used))


def _mc_observer(signature):
    def observe(counters, args, kwargs, out):
        bound = signature.bind(*args, **kwargs)
        m, k = np.atleast_2d(bound.arguments["beta"]).shape
        trials = int(bound.arguments["trials"])
        counters["rate.mc.trials"] += trials
        # float64 standard normals per trial: fading (m x k complex), receiver
        # noise (m complex) and quantization noise (m complex)
        counters["rate.mc.rng_bytes_computed"] += trials * (2 * m * k + 4 * m) * 8
    return observe


def _record_output(counters, args, kwargs, out, paths):
    spec = args[0] if args else kwargs["spec"]
    paths.append(spec.output_path)


class Tracer:
    """Wraps the package's public callables and records spans in memory."""

    def __init__(self):
        self.spans = []  # (id, parent id, name, layer, start, end, failed)
        self.counters = Counter()
        self.output_paths = []  # CSV paths written by experiments runners
        self._stack = []
        self._next_id = 0
        self._undo = []

    def reset(self):
        self.spans = []
        self.counters.clear()
        self.output_paths.clear()
        self._next_id = 0

    def _observer(self, module, name, fn):
        if module == "energy" and name == "ee_symmetric":
            return _count_ee_cells
        if module == "optimizer" and name == "grid_cells":
            return _count_grid_cells
        if module == "optimizer" and name == "capacity_coeff_quadratic":
            return _count_fallback
        if module == "rate" and name == "mc_validate_terms":
            return _mc_observer(inspect.signature(fn))
        if module == "experiments" and name.startswith("run_"):
            return functools.partial(_record_output, paths=self.output_paths)
        return None

    def _wrap(self, fn, module, qualname):
        name = f"{module}.{qualname}"
        layer = layer_of(module, qualname)
        observe = self._observer(module, qualname, fn)
        measure_alloc = layer == "rate.mc"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            if measure_alloc:
                tracemalloc.start()
            failed = True
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
                failed = False
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((sid, parent, name, layer, start, end, failed))
                if measure_alloc:
                    peak = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                    self.counters["rate.mc.peak_alloc_bytes"] = max(
                        self.counters["rate.mc.peak_alloc_bytes"], peak)
            if observe is not None:
                observe(self.counters, args, kwargs, out)
            return out

        return wrapper

    def install(self):
        """Wrap every public callable of the package at every import site."""
        modules = {name: importlib.import_module(f"{PACKAGE}.{name}")
                   for name in MODULES}
        wrapped = {}
        for short, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self._wrap(obj, short, attr)
                elif inspect.isclass(obj):
                    self._wrap_methods(obj, short)
        sites = list(modules.values()) + [importlib.import_module(PACKAGE)]
        for mod in sites:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(mod, attr, wrapped[obj], obj)

    def _wrap_methods(self, cls, short):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__post_init__":
                continue
            qualname = f"{cls.__name__}.{attr}"
            if isinstance(member, (classmethod, staticmethod)):
                new = type(member)(self._wrap(member.__func__, short, qualname))
            elif inspect.isfunction(member):
                new = self._wrap(member, short, qualname)
            else:
                continue
            self._set(cls, attr, new, member)

    def _set(self, owner, attr, new, old):
        setattr(owner, attr, new)
        self._undo.append((owner, attr, old))

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


def layer_stats(spans):
    """Per-layer {calls, self_s, failed} from one pass's spans."""
    child_time = defaultdict(float)
    for _, parent, _, _, start, end, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    stats = {layer: {"calls": 0, "self_s": 0.0, "failed": 0} for layer in LAYERS}
    for sid, _, _, layer, start, end, failed in spans:
        entry = stats[layer]
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time[sid]
        entry["failed"] += int(failed)
    return stats
