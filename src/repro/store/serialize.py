"""JSON codec for optimisation results (frozen dataclasses in, JSON out).

The persistent :class:`~repro.store.packed.PackedResultStore` keeps one JSON
record per solved scenario.  The record payload is the full
:class:`~repro.optimize.result.TwoStepResult` graph -- nested frozen
dataclasses (architectures, channel groups, modules, wrappers, scenarios)
plus tuples and one enum.  This module converts that graph to and from
JSON-compatible data **exactly**: every ``int``/``float``/``str``/``bool``
field round-trips bit-identically (Python's ``json`` encodes floats via
``repr``, which round-trips), so a result read back from disk is equal to
the result that was written.

Two design points:

* **Type allowlist.**  Only classes registered with
  :func:`register_storable` are encoded/decoded (the whole result graph is
  pre-registered).  Decoding never imports arbitrary code paths from the
  payload -- an unknown type name raises :class:`~repro.core.exceptions.
  StoreError`, which the store treats as a corrupt record.
* **Interning.**  Identical sub-objects are emitted once and back-referenced
  afterwards.  A Step-2 result carries one architecture per evaluated site
  count and each architecture carries the full SOC; interning keeps the
  record small (tens of KB instead of MBs for a d695 result) and makes
  decoding fast enough that a warm store read is far cheaper than re-solving.

The codec is deliberately independent of the scenario layer: it serialises
*results*; scenario identity is handled by the store via the scenario's
canonical digest.
"""

from __future__ import annotations

import dataclasses
from enum import Enum
from typing import Any

from repro.core.exceptions import StoreError

#: Reserved marker keys of the wire format.  Encoded dataclasses are tagged
#: ``__dataclass__`` (+ ``__id__`` for back-references), tuples
#: ``__tuple__``, enums ``__enum__``, and repeated objects ``__ref__``.
MARKER_KEYS = ("__dataclass__", "__enum__", "__tuple__", "__ref__", "__id__")

_STORABLE: dict[str, type] = {}

#: Exact JSON scalar types, the decoder's most common node (fast path).
_SCALARS = frozenset({type(None), bool, int, float, str})


def register_storable(cls: type) -> type:
    """Register ``cls`` (a dataclass or :class:`~enum.Enum`) as storable.

    Registration is by class name, which therefore must be unique among
    storable types.  Returns ``cls`` so it can be used as a decorator by
    extensions that persist their own result types.
    """
    name = cls.__name__
    registered = _STORABLE.get(name)
    if registered is not None and registered is not cls:
        raise StoreError(f"storable type name {name!r} is already registered")
    _STORABLE[name] = cls
    return cls


def _ensure_builtin_storables() -> None:
    """Register the full result graph (imported lazily to avoid cycles)."""
    if "TwoStepResult" in _STORABLE:
        return
    from repro.ate.probe_station import ProbeStation
    from repro.ate.spec import AteSpec
    from repro.multisite.cost_model import TestTiming
    from repro.multisite.throughput import MultiSiteScenario
    from repro.optimize.config import Objective, OptimizationConfig
    from repro.optimize.result import SitePoint, Step1Result, TwoStepResult
    from repro.rpct.wrapper import ErpctWrapper
    from repro.soc.module import Module, ScanChain
    from repro.soc.soc import Soc
    from repro.tam.architecture import TestArchitecture
    from repro.tam.channel_group import ChannelGroup

    for cls in (
        AteSpec,
        ChannelGroup,
        ErpctWrapper,
        Module,
        MultiSiteScenario,
        Objective,
        OptimizationConfig,
        ProbeStation,
        ScanChain,
        SitePoint,
        Soc,
        Step1Result,
        TestArchitecture,
        TestTiming,
        TwoStepResult,
    ):
        register_storable(cls)


def storable_names() -> tuple[str, ...]:
    """Names of every registered storable type, sorted."""
    _ensure_builtin_storables()
    return tuple(sorted(_STORABLE))


class _Encoder:
    """One encoding pass; owns the interning memo."""

    def __init__(self) -> None:
        self._ids: dict[int, int] = {}
        # Keeps encoded objects alive so CPython cannot recycle an id()
        # for a different object within this pass.
        self._keepalive: list[Any] = []

    def encode(self, obj: Any) -> Any:
        if obj is None or isinstance(obj, (bool, int, str)):
            return obj
        if isinstance(obj, float):
            return obj
        if isinstance(obj, tuple):
            return {"__tuple__": [self.encode(item) for item in obj]}
        if isinstance(obj, Enum):
            name = type(obj).__name__
            if _STORABLE.get(name) is not type(obj):
                raise StoreError(f"enum type {name!r} is not registered as storable")
            return {"__enum__": name, "value": obj.value}
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            name = type(obj).__name__
            if _STORABLE.get(name) is not type(obj):
                raise StoreError(f"type {name!r} is not registered as storable")
            ref = self._ids.get(id(obj))
            if ref is not None:
                return {"__ref__": ref}
            ident = len(self._ids)
            self._ids[id(obj)] = ident
            self._keepalive.append(obj)
            fields = {
                field.name: self.encode(getattr(obj, field.name))
                for field in dataclasses.fields(obj)
                if field.init
            }
            return {"__dataclass__": name, "__id__": ident, "fields": fields}
        raise StoreError(f"cannot encode object of type {type(obj).__name__}")


class _Decoder:
    """One decoding pass; resolves back-references as they appear."""

    def __init__(self) -> None:
        self._table: dict[int, Any] = {}
        # Registered names already checked to be dataclasses in this pass.
        self._dataclasses: dict[str, type] = {}

    def decode(self, data: Any) -> Any:
        if type(data) in _SCALARS or isinstance(data, (bool, int, float, str)):
            return data
        if not isinstance(data, dict):
            raise StoreError(f"malformed payload node of type {type(data).__name__}")
        if "__dataclass__" in data:
            return self._decode_dataclass(data)
        if "__ref__" in data:
            ref = data["__ref__"]
            if ref not in self._table:
                raise StoreError(f"dangling back-reference {ref!r}")
            return self._table[ref]
        if "__tuple__" in data:
            items = data["__tuple__"]
            if not isinstance(items, list):
                raise StoreError("malformed tuple payload")
            decode = self.decode
            return tuple(
                [item if type(item) in _SCALARS else decode(item) for item in items]
            )
        if "__enum__" in data:
            cls = _STORABLE.get(data["__enum__"])
            if cls is None or not issubclass(cls, Enum):
                raise StoreError(f"unknown enum type {data.get('__enum__')!r}")
            try:
                return cls(data["value"])
            except (KeyError, ValueError) as error:
                raise StoreError(f"invalid enum payload: {error}") from error
        raise StoreError(f"malformed payload node with keys {sorted(data)!r}")

    def _decode_dataclass(self, data: dict) -> Any:
        name = data["__dataclass__"]
        cls = self._dataclasses.get(name) if isinstance(name, str) else None
        if cls is None:
            cls = _STORABLE.get(name) if isinstance(name, str) else None
            if cls is None or not dataclasses.is_dataclass(cls):
                raise StoreError(f"unknown storable type {name!r}")
            self._dataclasses[name] = cls
        fields = data.get("fields")
        if not isinstance(fields, dict):
            raise StoreError(f"malformed fields payload for {cls.__name__}")
        decode = self.decode
        try:
            obj = cls(
                **{
                    field: value if type(value) in _SCALARS else decode(value)
                    for field, value in fields.items()
                }
            )
        except TypeError as error:
            raise StoreError(f"cannot rebuild {cls.__name__}: {error}") from error
        if "__id__" in data:
            self._table[data["__id__"]] = obj
        return obj


def encode_result(obj: Any) -> Any:
    """Encode a result graph into JSON-compatible data.

    Raises
    ------
    StoreError
        When the graph contains an object whose type is not registered.
    """
    _ensure_builtin_storables()
    return _Encoder().encode(obj)


def decode_result(data: Any) -> Any:
    """Rebuild a result graph encoded by :func:`encode_result`.

    Dataclass invariants are re-validated on construction (every storable
    type is a frozen dataclass with ``__post_init__`` checks), so a tampered
    payload fails with :class:`~repro.core.exceptions.StoreError` or the
    library's own validation errors -- both of which the store treats as
    corruption, never as a valid hit.
    """
    _ensure_builtin_storables()
    return _Decoder().decode(data)
