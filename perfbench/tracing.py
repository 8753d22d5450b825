"""Span tracing installed from outside the program.

A :class:`Tracer` replaces the module attributes that callers look up (for
example ``isotn.model.amplitude`` or ``numpy.tensordot``) with wrappers that
record one span per call: name, start, end, parent span and op id. Spans
are kept in memory in column lists and written out once, when the run
ends. Nothing is installed unless :meth:`Tracer.install` is called, and
:meth:`Tracer.uninstall` restores every original attribute.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import sys
import time
from collections import defaultdict

# (layer name, module, attribute path). The attribute is wrapped wherever an
# isotn module holds the same function object, so ``from .x import f``
# copies are covered too. Module names are the repo's layers; numpy.tensordot
# is the dense-kernel boundary beneath network and training.
TARGETS = (
    ("corpus.build_vocab", "isotn.corpus", "build_vocab"),
    ("corpus.tokenize", "isotn.corpus", "tokenize"),
    ("corpus.windows", "isotn.corpus", "windows"),
    ("model_io.save_model", "isotn.model_io", "save_model"),
    ("model_io.load_model", "isotn.model_io", "load_model"),
    ("graph.topological_layers", "isotn.graph", "topological_layers"),
    ("graph.is_tree", "isotn.graph", "is_tree"),
    ("tensor_core.is_isometry", "isotn.tensor_core", "is_isometry"),
    ("tensor_core.project_to_isometry", "isotn.tensor_core", "project_to_isometry"),
    ("network.random_network", "isotn.network", "random_network"),
    ("network.amplitude", "isotn.network", "amplitude"),
    ("network.site_marginal", "isotn.network", "site_marginal"),
    ("network.TensorNetwork.max_isometry_violation", "isotn.network",
     "TensorNetwork.max_isometry_violation"),
    ("model.log_likelihood", "isotn.model", "log_likelihood"),
    ("manifold.tangent_project", "isotn.manifold", "tangent_project"),
    ("manifold.retract", "isotn.manifold", "retract"),
    ("training.mean_gradient", "isotn.training", "mean_gradient"),
    ("sampling.conditional_distribution", "isotn.sampling", "conditional_distribution"),
    ("diagnostics.decay_curve", "isotn.diagnostics", "decay_curve"),
    ("diagnostics.fit_decay", "isotn.diagnostics", "fit_decay"),
    ("numpy.tensordot", "numpy", "tensordot"),
)

SETUP_OP = -1

_MARK = "__perfbench_span__"


def _holders(module_name: str, attr: str):
    """(object, attribute name) pairs through which callers reach the target."""
    owner = importlib.import_module(module_name)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    original = getattr(owner, name)
    holders = [(owner, name)]
    if path:  # a method: callers reach it through the class only
        return original, holders
    for mod_name, mod in list(sys.modules.items()):
        if mod is owner or not (mod_name == "isotn" or mod_name.startswith("isotn.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                holders.append((mod, key))
    return original, holders


def installed_wrappers() -> list[str]:
    """Names of target attributes that currently hold a tracing wrapper."""
    found = []
    for layer, module_name, attr in TARGETS:
        _, holders = _holders(module_name, attr)
        if any(getattr(getattr(obj, key), _MARK, None) for obj, key in holders):
            found.append(layer)
    return found


class Tracer:
    """In-memory span recorder with install/uninstall of call wrappers."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.span_name: list[int] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.current_op = SETUP_OP
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, layer: str, fn):
        name_id = self._name_id.setdefault(layer, len(self.names))
        if name_id == len(self.names):
            self.names.append(layer)
        clock = time.perf_counter
        stack = self._stack
        span_name, start, end, parent, op = (
            self.span_name, self.start, self.end, self.parent, self.op)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            span_name.append(name_id)
            parent.append(stack[-1] if stack else -1)
            op.append(self.current_op)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()

        setattr(wrapper, _MARK, True)
        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for layer, module_name, attr in TARGETS:
            original, holders = _holders(module_name, attr)
            wrapper = self._wrap(layer, original)
            for obj, key in holders:
                self._saved.append((obj, key, original))
                setattr(obj, key, wrapper)

    def uninstall(self) -> None:
        for obj, key, original in reversed(self._saved):
            setattr(obj, key, original)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def summary(self, ops: set[int]) -> dict[str, dict[str, float]]:
        """Per layer over the spans of ``ops``: calls, inclusive s, self s.

        Inclusive time counts only the outermost span of a layer, so a
        layer that re-enters itself is not counted twice. Self time is the
        span's duration minus the time its direct children cover.
        """
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
        for i in range(n):
            if self.op[i] not in ops:
                continue
            name = self.span_name[i]
            row = out[self.names[name]]
            dur = self.end[i] - self.start[i]
            row["calls"] += 1
            row["self_s"] += dur - child[i]
            p = self.parent[i]
            while p >= 0 and self.span_name[p] != name:
                p = self.parent[p]
            if p < 0:
                row["s"] += dur
        return dict(out)

    def write(self, path) -> None:
        """All spans as gzipped CSV: id, name, start, end, parent, op."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id,name,start,end,parent,op\n")
            for i in range(len(self.start)):
                fh.write(f"{i},{self.names[self.span_name[i]]},{self.start[i]!r},"
                         f"{self.end[i]!r},{self.parent[i]},{self.op[i]}\n")
