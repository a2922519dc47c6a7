"""Layer spans recorded from outside the package.

``install()`` replaces each function in FUNCTIONS at every ``dyncov`` module
that binds it (found by identity, so re-exports and aliases count too) and
each method in METHODS on its class.  A wrapper records a span: its name,
duration and parent (the innermost open span on the same thread).  A span's
self time is its duration minus the durations of its direct children, so on
one thread the self times of all spans add up to the root span.

Spans opened on worker threads (``--workers > 1``) have no parent; their
time is summed into their own names but not subtracted from the main-thread
span that waits for them.

Spans are kept in memory as per-name totals and written out once, by the
caller, when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict

ROOT = "cli.main"

# (defining module, qualified name); the span is "<layer>.<qualified name>".
FUNCTIONS = [
    ("dyncov.forest", "grow_tree"),
    ("dyncov.forest", "train_forest"),
    ("dyncov.forest", "weight_vector"),
    ("dyncov.covariance", "raw_cov"),
    ("dyncov.covariance", "write_matrix_csv"),
    ("dyncov.thresholding", "shrink"),
    ("dyncov.thresholding", "pd_correct"),
    ("dyncov.simulation", "run_experiment"),
    ("dyncov.simulation", "sample_dataset"),
    ("dyncov.simulation", "static_baseline"),
    ("dyncov.simulation", "kernel_dcm_baseline"),
    ("dyncov.portfolio", "backtest"),
    ("dyncov.portfolio", "min_var_weights"),
    ("dyncov.data", "load_returns_csv"),
]
METHODS = [
    ("dyncov.thresholding", "ForestCV.__init__"),
    ("dyncov.thresholding", "ForestCV.select"),
    ("dyncov.data", "Dataset.fingerprint"),
    ("dyncov.data", "Dataset.subset"),
]


def span_name(module: str, qualname: str) -> str:
    return f"{module.rsplit('.', 1)[1]}.{qualname.replace('.__init__', '.build')}"


# Counters read from a span's return value.
COUNTERS = {
    "forest.grow_tree": lambda tree: {
        "forest.nodes": len(tree.feature),
        "forest.oversized_leaves": int(tree.oversized.sum()),
    },
    "forest.weight_vector": lambda w: {"covariance.weight_nnz": len(w.indices)},
    "thresholding.pd_correct": lambda out: {"thresholding.pd_applied": int(out[1].applied)},
    "thresholding.ForestCV.select": lambda sel: {
        "thresholding.lambda_grid_edge": int(sel.lam in (sel.grid[0], sel.grid[-1]))
    },
}


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main = threading.get_ident()
        self.calls = defaultdict(int)
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.edges = defaultdict(int)  # (parent, child) -> calls
        self.counts = defaultdict(int)
        self.main_self_s = 0.0  # sum of self times on the main thread
        self.sites: dict[str, list[str]] = {}

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                self._record(name, parent, elapsed, elapsed - frame[1])
            if counter is not None:
                with self._lock:
                    for key, value in counter(result).items():
                        self.counts[key] += value
            return result

        return wrapper

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name, parent, elapsed, own) -> None:
        with self._lock:
            self.calls[name] += 1
            self.total_s[name] += elapsed
            self.self_s[name] += own
            self.edges[parent, name] += 1
            if threading.get_ident() == self._main:
                self.main_self_s += own

    def run(self, main, argv):
        """Call the driver's main(argv) inside the root span."""
        return self.wrap(ROOT, main)(argv)

    def summary(self) -> dict:
        return {
            "spans": {
                name: {"calls": self.calls[name], "s": self.total_s[name], "self_s": self.self_s[name]}
                for name in self.calls
            },
            "edges": {f"{parent}>{child}": n for (parent, child), n in self.edges.items()},
            "counts": dict(self.counts),
            "main_self_s": self.main_self_s,
        }


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "dyncov" or name.startswith("dyncov."))]


def install() -> Tracer:
    """Wrap FUNCTIONS and METHODS; ``tracer.sites`` lists where each was bound."""
    tracer = Tracer()
    modules = _package_modules()
    for module_name, qualname in FUNCTIONS:
        original = getattr(importlib.import_module(module_name), qualname)
        name = span_name(module_name, qualname)
        wrapper = tracer.wrap(name, original)
        sites = tracer.sites[name] = []
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
                    sites.append(f"{module.__name__}.{attr}")
    for module_name, qualname in METHODS:
        cls_name, method = qualname.split(".")
        cls = getattr(importlib.import_module(module_name), cls_name)
        name = span_name(module_name, qualname)
        setattr(cls, method, tracer.wrap(name, cls.__dict__[method]))
        tracer.sites[name] = [f"{module_name}.{qualname}"]
    return tracer
