"""Span recorder for the module boundaries of a package, installed from outside it.

``Tracer.install()`` replaces every function-valued global of each module of
the package, and the ``__init__`` of every class a module defines, with a
wrapper that records a span; ``restore()`` puts the originals back. Each span
is charged to the module that defines the function, so a function imported
into another module, or called from within its own module through a global
lookup, still counts for its own layer. Modules are found at run time: one
that cannot be imported is skipped and listed in ``skipped``, and a global
that is not a function defined in the package is left alone.

Only calls made inside ``Tracer.op`` are recorded; the op's own span has the
layer ``ENTRY``. Spans are kept in memory until the caller reads ``spans``.
"""

from __future__ import annotations

import importlib
import itertools
import pkgutil
import threading
import time
import types
from collections import namedtuple

import numpy as np

ENTRY = "entry"

# boundary: the caller belongs to another layer. bytes_in/bytes_out are the
# nbytes of the ndarray arguments and results (computed, not measured
# traffic); matrices is the batch size of the first array argument and
# result_arrays the number of arrays returned. These four are filled only on
# boundary spans. bins_modified comes from a returned report; it is kept only
# on the innermost span that returned one, so a report passed up the stack is
# counted once.
Span = namedtuple(
    "Span",
    "op sid parent layer name start_ns end_ns self_ns boundary "
    "bytes_in bytes_out matrices result_arrays bins_modified",
)


def discover(package: str) -> list[str]:
    """The package and all its direct submodules, by name."""
    pkg = importlib.import_module(package)
    return [package] + [f"{package}.{m.name}" for m in pkgutil.iter_modules(pkg.__path__)]


def _arrays(obj, depth: int = 0):
    """ndarrays in obj, in tuples/lists and dataclass fields up to two levels down."""
    if isinstance(obj, np.ndarray):
        yield obj
    elif depth < 2:
        if isinstance(obj, (tuple, list)):
            for item in obj:
                yield from _arrays(item, depth + 1)
        else:
            fields = getattr(type(obj), "__dataclass_fields__", None)
            if fields:
                for name in fields:
                    yield from _arrays(getattr(obj, name, None), depth + 1)


def _report_bins(result):
    for item in result if isinstance(result, tuple) else (result,):
        value = getattr(item, "bins_modified", None)
        if isinstance(value, int):
            return value
    return None


class Tracer:
    """Records spans for calls between the modules of ``package``."""

    def __init__(self, package: str = "conv_spectra", modules: list[str] | None = None):
        self.package = package
        self.module_names = modules
        self.spans: list[Span] = []
        self.layers: set[str] = set()
        self.skipped: list[str] = []
        self._patched: list[tuple[object, str, object]] = []
        self._wrappers: dict = {}
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._op = 0

    def __enter__(self) -> Tracer:
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()

    def _layer_of(self, fn) -> str | None:
        module = getattr(fn, "__module__", None) or ""
        if module == self.package:
            return module
        if module.startswith(self.package + "."):
            return module[len(self.package) + 1 :]
        return None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def install(self) -> Tracer:
        """Patch the package; spans, layers and ids carry over from an earlier install."""
        if self.module_names is None:
            self.module_names = discover(self.package)
        self.skipped = []
        modules = []
        for name in self.module_names:
            try:
                modules.append(importlib.import_module(name))
            except ModuleNotFoundError:
                self.skipped.append(name)
        wrappers = self._wrappers
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType):
                    layer = self._layer_of(value)
                    if layer is None:
                        continue
                    if value not in wrappers:
                        wrappers[value] = self._wrap(value, layer, value.__qualname__, False)
                    self._patch(mod, attr, wrappers[value])
                elif isinstance(value, type) and value.__module__ == mod.__name__:
                    init = value.__dict__.get("__init__")
                    layer = self._layer_of(value)
                    if isinstance(init, types.FunctionType) and layer is not None:
                        if init not in wrappers:
                            wrappers[init] = self._wrap(init, layer, init.__qualname__, True)
                        self._patch(value, "__init__", wrappers[init])
        return self

    def _patch(self, target, attr: str, wrapper) -> None:
        self._patched.append((target, attr, getattr(target, attr)))
        setattr(target, attr, wrapper)
        self.layers.add(wrapper.layer)

    def restore(self) -> None:
        while self._patched:
            target, attr, original = self._patched.pop()
            setattr(target, attr, original)

    def op(self, fn, *args, **kwargs):
        """Call fn as one operation: a root span that every recorded span descends from."""
        stack = self._stack()
        if stack:
            raise RuntimeError("Tracer.op calls may not nest")
        self._op += 1
        frame = [next(self._ids), ENTRY, 0, False]
        stack.append(frame)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append(
                Span(self._op, frame[0], None, ENTRY, ENTRY, start, end,
                     end - start - frame[2], False, 0, 0, 0, 0, None)
            )

    def _wrap(self, fn, layer: str, name: str, is_init: bool):
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            # frame: span id, layer, time covered by child spans, a report was seen below
            frame = [next(tracer._ids), layer, 0, False]
            stack.append(frame)
            result = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                parent[2] += end - start
                bins = None
                if not frame[3]:
                    bins = _report_bins(result)
                if frame[3] or bins is not None:
                    parent[3] = True
                boundary = parent[1] != layer
                bytes_in = bytes_out = matrices = result_arrays = 0
                if boundary:
                    inputs = list(_arrays(args[1:] if is_init else args))
                    inputs += _arrays(tuple(kwargs.values()))
                    bytes_in = sum(a.nbytes for a in inputs)
                    first = next((a for a in inputs if a.ndim >= 2), None)
                    if first is not None:
                        matrices = int(np.prod(first.shape[:-2], dtype=np.int64))
                    outputs = list(_arrays(result))
                    bytes_out = sum(a.nbytes for a in outputs)
                    result_arrays = len(outputs)
                tracer.spans.append(
                    Span(tracer._op, frame[0], parent[0], layer, name, start, end,
                         end - start - frame[2], boundary, bytes_in, bytes_out,
                         matrices, result_arrays, bins)
                )

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = name
        traced.layer = layer
        return traced


def summarize(spans, layers) -> dict[str, float]:
    """Per-operation means of self time, boundary calls and computed bytes, per layer.

    ``entry.self_ms`` is the time of the operation outside every layer, so the
    ``self_ms`` values of all layers and the entry add up to the mean
    operation time.
    """
    ops = {s.op for s in spans}
    n_ops = max(len(ops), 1)
    out = {}
    for layer in sorted(set(layers) | {ENTRY}):
        mine = [s for s in spans if s.layer == layer]
        calls = [s for s in mine if s.boundary]
        out[f"{layer}.self_ms"] = sum(s.self_ns for s in mine) / n_ops / 1e6
        if layer == ENTRY:
            continue
        out[f"{layer}.calls"] = len(calls) / n_ops
        out[f"{layer}.bytes_in"] = sum(s.bytes_in for s in calls) / n_ops
        out[f"{layer}.bytes_out"] = sum(s.bytes_out for s in calls) / n_ops
    return out
