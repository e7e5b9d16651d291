"""Typed metric instruments and the registry that collects them.

Every layer of the serving stack keeps counters -- ``ServiceStats``,
``ServerStats``, per-tenant SLA reservoirs, view stats -- but each rolls
its own snapshot dataclass and none is machine-readable.  This module
gives them one vocabulary: a :class:`MetricsRegistry` of named, typed
instruments (:class:`Counter`, :class:`Gauge`) with
Prometheus-style label sets, which the exporters in
:mod:`repro.obs.export` render as a text scrape or a JSON snapshot.

Two registration styles are supported:

* **Direct** -- hot paths call ``counter.inc()`` / ``gauge.set()``
  themselves (the front door's execution-EMA gauge works this way).
* **Callback-backed** -- :meth:`Counter.set_function` /
  :meth:`Gauge.set_function` bind a labelset to a zero-argument callable
  that is evaluated at *collection* time.  This is how the legacy stats
  objects "register into" the registry without double counting: the
  registry reads the very same live counters that ``ServiceStats`` /
  ``ServerStats`` snapshot, so the two surfaces cannot drift and the
  steady-state cost is zero (nothing runs until someone scrapes).
  Owners bind through :class:`Bindings` and freeze them at close: a
  callback closing over its owner is a reference cycle (owner -> registry
  -> callback -> owner), so a closed owner would otherwise stay alive
  until a full garbage collection.

Instrument and label names follow the Prometheus data model
(``[a-zA-Z_:][a-zA-Z0-9_:]*`` for metric names); re-registering the same
name with the same type and label names returns the existing instrument,
while a conflicting re-registration raises, so independently wired
components can safely share one registry.
"""

from __future__ import annotations

import re
import threading
from typing import Any, Callable, Iterable

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


def _validate_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name: {name!r}")
    return name


def _validate_labels(label_names: Iterable[str]) -> tuple[str, ...]:
    names = tuple(label_names)
    for label in names:
        if not _LABEL_RE.match(label):
            raise ValueError(f"invalid label name: {label!r}")
    if len(set(names)) != len(names):
        raise ValueError(f"duplicate label names: {names!r}")
    return names


class Instrument:
    """Base class for all instruments: a name, help text, label names.

    Each concrete instrument keeps one slot of state per distinct label
    *value* tuple; an unlabelled instrument has exactly one slot (the
    empty tuple).  Subclasses store either plain values or zero-argument
    callables resolved at collection time.
    """

    kind = "untyped"

    def __init__(
        self, name: str, help: str, label_names: tuple[str, ...]
    ) -> None:
        self.name = _validate_name(name)
        self.help = help
        self.label_names = _validate_labels(label_names)
        self._lock = threading.Lock()
        self._slots: dict[tuple[str, ...], Any] = {}

    def _key(self, labels: dict[str, Any]) -> tuple[str, ...]:
        """Validate a label kwargs dict against the declared label names."""
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"{self.name}: expected labels {self.label_names}, "
                f"got {tuple(sorted(labels))}"
            )
        return tuple(str(labels[name]) for name in self.label_names)

    def _labelled(self, key: tuple[str, ...]) -> dict[str, str]:
        return dict(zip(self.label_names, key))

    def samples(self) -> list[dict[str, Any]]:
        """Collection-time samples: ``{"labels": {...}, "value": float}``.

        Callback-backed slots are resolved *outside* the instrument lock
        (callables may acquire other locks, e.g. a reservoir's); output is
        sorted by label values for deterministic export.
        """
        with self._lock:
            slots = list(self._slots.items())
        rendered = []
        for key, value in sorted(slots):
            if callable(value):
                value = float(value())
            rendered.append(
                {"labels": self._labelled(key), "value": float(value)}
            )
        return rendered

    def freeze(self, source: Callable[[], float], **labels: Any) -> None:
        """Pin a callback-backed labelset at ``source``'s current value.

        A no-op when the labelset is no longer bound to ``source`` (another
        owner rebound it since).
        """
        key = self._key(labels)
        value = float(source())
        with self._lock:
            if self._slots.get(key) is source:
                self._slots[key] = value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}({self.name!r}, "
            f"labels={self.label_names!r}, slots={len(self._slots)})"
        )


class Counter(Instrument):
    """A monotonically increasing total (or a callback reading one).

    A labelset is either *owned* (driven by :meth:`inc`) or
    *callback-backed* (bound once via :meth:`set_function` to a live
    source such as ``lambda: counters.admitted``); mixing the two styles
    on one labelset raises, because a callback would silently shadow
    increments.
    """

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: Any) -> None:
        """Add ``amount`` (>= 0) to the labelset's running total."""
        if amount < 0:
            raise ValueError(f"{self.name}: counter increment < 0: {amount}")
        key = self._key(labels)
        with self._lock:
            current = self._slots.get(key, 0.0)
            if callable(current):
                raise ValueError(
                    f"{self.name}{key}: labelset is callback-backed; "
                    "cannot inc() it"
                )
            self._slots[key] = current + amount

    def set_function(
        self, source: Callable[[], float], **labels: Any
    ) -> None:
        """Bind the labelset to a callable read at collection time."""
        key = self._key(labels)
        with self._lock:
            self._slots[key] = source

    def value(self, **labels: Any) -> float:
        """The labelset's current total (resolving a callback if bound)."""
        key = self._key(labels)
        with self._lock:
            current = self._slots.get(key, 0.0)
        return float(current()) if callable(current) else float(current)


class Gauge(Instrument):
    """A value that can go up and down (queue depth, token-bucket level)."""

    kind = "gauge"

    def set(self, value: float, **labels: Any) -> None:
        """Set the labelset to ``value``."""
        key = self._key(labels)
        with self._lock:
            self._slots[key] = float(value)

    def set_function(
        self, source: Callable[[], float], **labels: Any
    ) -> None:
        """Bind the labelset to a callable read at collection time."""
        key = self._key(labels)
        with self._lock:
            self._slots[key] = source

    def value(self, **labels: Any) -> float:
        """The labelset's current value (resolving a callback if bound)."""
        key = self._key(labels)
        with self._lock:
            current = self._slots.get(key, 0.0)
        return float(current()) if callable(current) else float(current)


class Bindings:
    """The callback-backed labelsets one owner bound, frozen at its close.

    :meth:`freeze` pins every labelset at its final value and drops the
    callbacks, which breaks the owner -> registry -> callback -> owner
    cycle while scrapes keep reporting the closed owner's totals.
    """

    def __init__(self) -> None:
        self._bound: list[tuple[Instrument, dict[str, Any], Callable]] = []

    def bind(
        self,
        instrument: "Counter | Gauge",
        source: Callable[[], float],
        **labels: Any,
    ) -> None:
        """``instrument.set_function(source, **labels)``, remembered."""
        instrument.set_function(source, **labels)
        self._bound.append((instrument, labels, source))

    def freeze(self) -> None:
        """Pin every remembered labelset at its current value; idempotent."""
        bound, self._bound = self._bound, []
        for instrument, labels, source in bound:
            instrument.freeze(source, **labels)


class MetricsRegistry:
    """The named collection of instruments one process exports.

    ``counter`` / ``gauge`` are get-or-create: asking for
    an existing name with the same type and label names returns the
    existing instrument (so the service and the front door can both bind
    into a shared registry idempotently); a type or label mismatch raises.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._instruments: dict[str, Instrument] = {}

    def _register(self, cls, name, help, label_names) -> Instrument:
        label_names = _validate_labels(label_names)
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if (
                    type(existing) is not cls
                    or existing.label_names != label_names
                ):
                    raise ValueError(
                        f"{name}: already registered as "
                        f"{type(existing).__name__}"
                        f"{existing.label_names} "
                        f"(asked for {cls.__name__}{label_names})"
                    )
                return existing
            instrument = cls(name, help, label_names)
            self._instruments[name] = instrument
            return instrument

    def counter(
        self, name: str, help: str = "", labels: Iterable[str] = ()
    ) -> Counter:
        """Get or create a :class:`Counter`."""
        return self._register(Counter, name, help, tuple(labels))

    def gauge(
        self, name: str, help: str = "", labels: Iterable[str] = ()
    ) -> Gauge:
        """Get or create a :class:`Gauge`."""
        return self._register(Gauge, name, help, tuple(labels))

    def get(self, name: str) -> Instrument | None:
        """The instrument registered under ``name``, or ``None``."""
        with self._lock:
            return self._instruments.get(name)

    def names(self) -> list[str]:
        """All registered instrument names, sorted."""
        with self._lock:
            return sorted(self._instruments)

    def collect(self) -> list[dict[str, Any]]:
        """Resolve every instrument into an export-ready document list.

        Each entry is ``{"name", "kind", "help", "labels", "samples"}``,
        sorted by name; callback-backed slots are evaluated here, which
        is the only time they cost anything.
        """
        with self._lock:
            instruments = sorted(
                self._instruments.values(), key=lambda i: i.name
            )
        return [
            {
                "name": instrument.name,
                "kind": instrument.kind,
                "help": instrument.help,
                "labels": list(instrument.label_names),
                "samples": instrument.samples(),
            }
            for instrument in instruments
        ]

    def __len__(self) -> int:
        with self._lock:
            return len(self._instruments)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._instruments


__all__ = [
    "Bindings",
    "Counter",
    "Gauge",
    "Instrument",
    "MetricsRegistry",
]
