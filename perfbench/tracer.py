"""In-memory span tracer for the benchmark's traced runs.

The tracer wraps public functions of the program from the outside: every
call becomes a span ``(id, layer, start, end, parent)`` appended to one
flat ``array('d')`` (one C-level ``extend`` per span, so spans recorded
from the service's server thread never interleave with the main thread's).
Nothing is written while the timed phase runs; :meth:`Tracer.layer_table`
turns the spans into per-layer self times afterwards and :meth:`dump`
writes them out.

Callers bind many of these functions by name (``from x import f``), so a
patch replaces *every* module attribute of the ``repro`` package that is
bound to the original function object, not only the defining module's.
Pool children forked after the patch run the wrappers as plain
pass-throughs: their spans could never reach the parent anyway.
"""

from __future__ import annotations

import gzip
import importlib
import itertools
import json
import os
import sys
import threading
import time
from array import array
from pathlib import Path
from typing import Any, Callable

#: Attributes of ``functools.lru_cache`` wrappers that callers use and a
#: plain wrapper function would otherwise hide.
_CACHE_ATTRIBUTES = ("cache_info", "cache_clear")

#: The five values recorded per span.
SPAN_FIELDS = ("id", "layer", "start", "end", "parent")


class Tracer:
    """Collects spans of wrapped calls and the counters their hooks add."""

    def __init__(self) -> None:
        self.layers: list[str] = []
        self.counters: dict[str, float] = {}
        self._layer_ids: dict[str, int] = {}
        self._rows = array("d")
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []
        self._local.stack = self._main_stack
        self.enabled = True
        os.register_at_fork(after_in_child=self._disable)

    def _disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Forget every span and counter recorded so far (e.g. during set-up)."""
        del self._rows[:]
        self.counters.clear()

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def _layer_id(self, layer: str) -> int:
        if layer not in self._layer_ids:
            self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        return self._layer_ids[layer]

    def _stack(self) -> tuple[list[int], int]:
        """This thread's open-span stack and the parent of a new span.

        A span opened on another thread with nothing open there (the
        campaign server handling a request) is parented to the main
        thread's innermost open span -- the client call waiting for it.
        """
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        if stack:
            return stack, stack[-1]
        if threading.current_thread() is not self._main and self._main_stack:
            return stack, self._main_stack[-1]
        return stack, -1

    def wrap(
        self,
        layer: str,
        function: Callable,
        hook: "Callable[[tuple, dict, Any], None] | None" = None,
    ) -> Callable:
        """A span-recording stand-in for ``function``.

        ``hook(args, kwargs, result)`` runs after the span closes, so the
        counting it does is not billed to the wrapped layer.
        """
        layer_id = self._layer_id(layer)
        rows, ids, clock = self._rows, self._ids, time.perf_counter

        def traced(*args, **kwargs):
            if not self.enabled:
                return function(*args, **kwargs)
            stack, parent = self._stack()
            span = next(ids)
            stack.append(span)
            start = clock()
            try:
                result = function(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                rows.extend((span, layer_id, start, end, parent))
            if hook is not None:
                hook(args, kwargs, result)
            return result

        traced.__wrapped__ = function  # type: ignore[attr-defined]
        traced.__name__ = getattr(function, "__name__", layer)
        for attribute in _CACHE_ATTRIBUTES:
            if hasattr(function, attribute):
                setattr(traced, attribute, getattr(function, attribute))
        return traced

    def wrap_generator(self, layer: str, function: Callable) -> Callable:
        """Like :meth:`wrap`, but one span per ``next()`` of the generator."""
        layer_id = self._layer_id(layer)
        rows, ids, clock = self._rows, self._ids, time.perf_counter

        def traced(*args, **kwargs):
            iterator = function(*args, **kwargs)
            try:
                while True:
                    stack, parent = self._stack()
                    span = next(ids)
                    stack.append(span)
                    start = clock()
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        end = clock()
                        stack.pop()
                        rows.extend((span, layer_id, start, end, parent))
                    yield item
            finally:
                iterator.close()

        traced.__wrapped__ = function  # type: ignore[attr-defined]
        return traced

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def patch_function(self, target: str, layer: str, hook=None) -> None:
        """Wrap ``module:function`` and rebind every ``repro`` alias of it."""
        module_name, attribute = target.split(":")
        original = getattr(importlib.import_module(module_name), attribute)
        traced = self.wrap(layer, original, hook)
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    setattr(module, name, traced)

    def patch_method(self, target: str, layer: str, hook=None, generator=False) -> None:
        """Wrap ``module:Class.method`` on the class (static/class methods too)."""
        module_name, qualified = target.split(":")
        class_name, attribute = qualified.split(".")
        owner = getattr(importlib.import_module(module_name), class_name)
        raw = owner.__dict__[attribute]
        kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
        function = raw.__func__ if kind is not None else raw
        if generator:
            traced = self.wrap_generator(layer, function)
        else:
            traced = self.wrap(layer, function, hook)
        setattr(owner, attribute, kind(traced) if kind is not None else traced)

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def spans(self) -> list[tuple[int, int, float, float, int]]:
        rows = self._rows
        return [
            (int(rows[i]), int(rows[i + 1]), rows[i + 2], rows[i + 3], int(rows[i + 4]))
            for i in range(0, len(rows), len(SPAN_FIELDS))
        ]

    def layer_table(self, wall_s: float) -> dict[str, dict[str, float]]:
        """Per-layer ``self_s``/``total_s``/``calls`` plus an ``other`` row.

        A span's self time is its duration minus its children's durations.
        ``other`` is the wall time no top-level span covers, so the self
        times of all layers plus ``other`` sum to ``wall_s``.
        """
        spans = self.spans()
        children: dict[int, float] = {}
        for _span, _layer, start, end, parent in spans:
            if parent >= 0:
                children[parent] = children.get(parent, 0.0) + (end - start)
        table = {
            layer: {"self_s": 0.0, "total_s": 0.0, "calls": 0} for layer in self.layers
        }
        covered = 0.0
        for span, layer_id, start, end, parent in spans:
            row = table[self.layers[layer_id]]
            duration = end - start
            row["self_s"] += duration - children.get(span, 0.0)
            row["total_s"] += duration
            row["calls"] += 1
            if parent < 0:
                covered += duration
        table["other"] = {"self_s": wall_s - covered, "total_s": wall_s - covered, "calls": 0}
        return table

    def dump(self, path: str, meta: dict[str, Any]) -> None:
        """Write ``meta`` as ``<path>.json`` and the raw spans as ``<path>.spans.gz``.

        The span file is the flat native-endian float64 array, five values
        per span in :data:`SPAN_FIELDS` order (``perf_counter`` seconds,
        ``parent`` -1 for top-level spans); ``layer`` indexes ``layers``.
        """
        spans_path = f"{path}.spans.gz"
        with gzip.open(spans_path, "wb", compresslevel=1) as handle:
            handle.write(self._rows.tobytes())
        payload = dict(meta)
        payload.update(
            layers=self.layers,
            span_fields=list(SPAN_FIELDS),
            spans=Path(spans_path).name,
            span_count=len(self._rows) // len(SPAN_FIELDS),
        )
        Path(f"{path}.json").write_text(json.dumps(payload, indent=1, sort_keys=True))
