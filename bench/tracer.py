"""Span tracer for the benchmark's traced run.

``Tracer.install`` wraps every public function and method of the csymlab
modules in ``LAYERS`` and numpy's SVD; ``uninstall`` restores the
originals, so untraced passes run the unmodified code.  Modules bind names
with ``from .linalg import intersect``, so each wrapper replaces the
original in every ``csymlab.*`` namespace and module-level dict that holds
it.  Spans are kept in memory as flat ``(id, name, start, end, parent,
report)`` rows; a span's self time is its duration minus that of its child
spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = (
    "linalg",
    "antilinear",
    "relations",
    "csym",
    "doubling",
    "extensions",
    "polar",
    "powers",
    "problems",
    "fixtures",
    "cli",
)
ROOT_SPAN = "bench.report"
SVD = "linalg.svd"
BRUTE_FORCE = "extensions.brute_force_extensions"


def _numpy_svd_modules() -> list:
    """numpy.linalg and the module whose global ``svd`` np.linalg.norm calls."""
    mods = [np.linalg]
    for name in ("numpy.linalg._linalg", "numpy.linalg.linalg"):
        try:
            mod = importlib.import_module(name)
        except ImportError:
            continue
        if getattr(mod, "svd", None) is np.linalg.svd:
            mods.append(mod)
            break
    return mods


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.rows = array("d")  # per span: id, name index, start, end, parent id, report
        self.stats: dict = {}  # name -> [calls, total_s, self_s]
        self.counters: dict = defaultdict(float)
        self.report = -1
        self._next = 0
        self._stack: list = []  # frames: [span id, child seconds, name index]
        self._patches: list = []  # (owner, key, original, is_dict)

    # -- spans ---------------------------------------------------------
    def _name_index(self, name: str) -> int:
        if name not in self.stats:
            self.stats[name] = [0, 0.0, 0.0]
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn, observe=None):
        """fn wrapped in a span; observe(args, result, parent frame) runs on return."""
        index = self._name_index(name)
        entry = self.stats[name]
        stack = self._stack
        rows = self.rows

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [self._next, 0.0, index]
            self._next += 1
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[1]
                if parent is None:
                    parent_id = -1
                else:
                    parent[1] += duration
                    parent_id = parent[0]
                rows.extend((frame[0], index, start, end, parent_id, self.report))
            if observe is not None:
                observe(args, result, parent)
            return result

        return wrapper

    def run_report(self, report: int, fn, *args):
        """Run fn under a root span that owns one CLI report."""
        self.report = report
        return self.wrap(ROOT_SPAN, fn)(*args)

    def span_table(self) -> dict:
        columns = ["id", "name", "start", "end", "parent", "report"]
        rows = self.rows.tolist()
        table = {col: rows[i :: len(columns)] for i, col in enumerate(columns)}
        table["name"] = [self.names[int(i)] for i in table["name"]]
        return table

    # -- layer-specific observations ------------------------------------
    def _observe_svd(self, args, result, parent):
        shape = np.shape(args[0])
        m, n = shape[-2:]
        batch = math.prod(shape[:-2])
        self.counters["linalg.svd.work"] += batch * m * n * min(m, n)
        self.counters["linalg.svd.max_dim"] = max(self.counters["linalg.svd.max_dim"], m, n)

    def _observe_brute_force(self, args, result, parent):
        self.counters["extensions.bf.hits"] += len(result)

    def _observe_csa_test(self, args, result, parent):
        if parent is not None and self.names[parent[2]] == BRUTE_FORCE:
            self.counters["extensions.bf.candidates"] += 1

    # -- patching ------------------------------------------------------
    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        observers = {
            BRUTE_FORCE: self._observe_brute_force,
            "csym.is_c_selfadjoint": self._observe_csa_test,
        }
        wrappers: dict = {}  # id(original) -> wrapper
        used: set = set()
        for layer in LAYERS:
            mod = importlib.import_module(f"csymlab.{layer}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    name = f"{layer}.{attr}"
                    used.add(name)
                    wrappers[id(obj)] = (obj, self.wrap(name, obj, observers.get(name)))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_methods(layer, mod, obj, used)
        subspace = importlib.import_module("csymlab.linalg").Subspace
        self._patch(subspace, "__post_init__", self.wrap("linalg.Subspace", subspace.__post_init__))

        svd = np.linalg.svd
        svd_wrapper = self.wrap(SVD, svd, self._observe_svd)
        for mod in _numpy_svd_modules():
            self._patch(mod, "svd", svd_wrapper)

        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "csymlab" or mod_name.startswith("csymlab.")):
                continue
            for attr, value in list(vars(mod).items()):
                if attr.startswith("__"):
                    continue
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._patch(mod, attr, wrappers[id(value)][1])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in wrappers and wrappers[id(item)][0] is item:
                            self._patch(value, key, wrappers[id(item)][1], is_dict=True)

    def _wrap_methods(self, layer: str, mod, cls, used: set):
        """Methods are named layer.method unless that name is taken."""
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            name = f"{layer}.{attr}"
            if name in used or attr in vars(mod):
                name = f"{layer}.{cls.__name__}.{attr}"
            used.add(name)
            self._patch(cls, attr, self.wrap(name, obj))

    def _patch(self, owner, key, value, is_dict=False):
        if is_dict:
            self._patches.append((owner, key, owner[key], True))
            owner[key] = value
        else:
            self._patches.append((owner, key, vars(owner)[key], False))
            setattr(owner, key, value)

    def uninstall(self):
        for owner, key, original, is_dict in reversed(self._patches):
            if is_dict:
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    # -- summaries -----------------------------------------------------
    def layer_self_seconds(self) -> dict:
        out: dict = defaultdict(float)
        for name, (_, _, self_s) in self.stats.items():
            out[name.split(".")[0]] += self_s
        return dict(out)
