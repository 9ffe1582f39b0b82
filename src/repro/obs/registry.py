"""Hierarchical metrics registry: typed instruments, snapshots, merge/diff.

This is the single instrumentation surface of the reproduction.  Every
stats producer (caches, MSHR file, timing model, speculator, prefetcher,
forwarding engine, relocation runtime) registers its counters here under
dotted names -- ``cache.l1.miss.load_full``, ``slots.load_stall`` -- and
every consumer (experiment drivers, the sweep executor, run manifests)
reads :class:`Snapshot` objects instead of plucking attributes off
bespoke stat structs.

Two registration styles exist, because the simulator has two kinds of
producer:

* **Owned instruments** (:meth:`Registry.counter` /:meth:`~Registry.gauge`
  /:meth:`~Registry.histogram`) are created and mutated through the
  registry -- the right choice for cold-path counters such as the
  experiment runner's capture/replay/cache tallies.
* **Bound instruments** (:meth:`Registry.bind`) wrap a zero-argument
  getter that is only evaluated at snapshot time.  This is the *hot-path
  flush contract*: the generated kernel of :mod:`repro.core.kernel`
  keeps mutating the same flat counter slots the layered components
  own (``CacheStats``, ``MSHRStats``, ``TimingModel`` fields, ...) with
  zero added cost, and the registry pulls those slots into the metric
  tree only when someone asks for a snapshot -- first calling its
  :attr:`Registry.flush` hook, through which a machine drains the
  references it has not costed yet.

Snapshots are plain immutable mappings of dotted name to value with
O(1) per-metric access, and they compose: :meth:`Snapshot.merge` sums
counters (and histograms key-wise) while taking the maximum of gauges --
exactly the semantics needed to aggregate shard results from a parallel
sweep -- and :meth:`Snapshot.diff` subtracts an earlier snapshot from a
later one, which is how spans attribute work to a region of execution.
"""

from __future__ import annotations

import sys
from typing import Any, Callable, Iterator, Mapping

#: Instrument kinds.  Counters and histograms accumulate and merge by
#: summation; gauges are level measurements and merge by maximum (the
#: only gauge the simulator reports, heap high water, is a maximum by
#: construction).
COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"

_KINDS = (COUNTER, GAUGE, HISTOGRAM)


class MetricError(ValueError):
    """Invalid metric name, kind, or a structural conflict."""


class Counter:
    """Monotonic sum (int or float)."""

    __slots__ = ("name", "value")
    kind = COUNTER

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: int | float = 0

    def inc(self, amount: int | float = 1) -> None:
        self.value += amount


class Gauge:
    """Last-set level measurement."""

    __slots__ = ("name", "value")
    kind = GAUGE

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: int | float = 0

    def set(self, value: int | float) -> None:
        self.value = value

    def track_max(self, value: int | float) -> None:
        if value > self.value:
            self.value = value


class Histogram:
    """Sparse histogram: observed key -> occurrence count."""

    __slots__ = ("name", "counts")
    kind = HISTOGRAM

    def __init__(self, name: str) -> None:
        self.name = name
        self.counts: dict[int, int] = {}

    def observe(self, key: int, count: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + count

    @property
    def total(self) -> int:
        return sum(self.counts.values())


def _check_name(name: str) -> None:
    if not name or name.startswith(".") or name.endswith(".") or ".." in name:
        raise MetricError(f"invalid metric name {name!r}")


#: Each dotted metric name :meth:`Snapshot.tree` has seen, split once
#: into ``(interior keys, leaf key)`` of interned strings, so trees
#: share their key objects instead of re-splitting every name per
#: build.  Metric names come from the program, never from its input, so
#: the table stays as small as the metric catalogue.
_TREE_KEYS: dict[str, tuple[tuple[str, ...], str]] = {}


def _tree_keys(name: str) -> tuple[tuple[str, ...], str]:
    parts = [sys.intern(part) for part in name.split(".")]
    keys = _TREE_KEYS[name] = (tuple(parts[:-1]), parts[-1])
    return keys


class Snapshot(Mapping[str, Any]):
    """Immutable point-in-time view of a metric tree.

    Maps dotted metric names to values: numbers for counters and gauges,
    ``{key: count}`` dicts for histograms.  Construction is O(n) in the
    number of metrics; lookups are O(1); ``merge``/``diff`` are O(n)
    single passes that never lose a key.
    """

    __slots__ = ("_values", "_kinds")

    def __init__(
        self,
        values: dict[str, Any] | None = None,
        kinds: dict[str, str] | None = None,
    ) -> None:
        self._values: dict[str, Any] = dict(values or {})
        self._kinds: dict[str, str] = dict(kinds or {})
        for name in self._values:
            self._kinds.setdefault(name, COUNTER)

    # -- mapping protocol ----------------------------------------------
    def __getitem__(self, name: str) -> Any:
        return self._values[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Snapshot):
            return NotImplemented
        return self._values == other._values and self._kinds == other._kinds

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Snapshot({len(self._values)} metrics)"

    def kind(self, name: str) -> str:
        """Instrument kind (counter/gauge/histogram) of ``name``."""
        return self._kinds[name]

    # -- composition ---------------------------------------------------
    def merge(self, other: "Snapshot") -> "Snapshot":
        """Combine two snapshots (e.g. shards of a sweep) into one.

        Counters and histograms sum; gauges take the maximum.  The result
        carries the union of both key sets -- no key is ever dropped.
        A name present in both with different kinds is a programming
        error and raises.
        """
        values = dict(self._values)
        kinds = dict(self._kinds)
        for name, theirs in other._values.items():
            kind = other._kinds[name]
            if name not in values:
                values[name] = dict(theirs) if kind == HISTOGRAM else theirs
                kinds[name] = kind
                continue
            if kinds[name] != kind:
                raise MetricError(
                    f"cannot merge {name!r}: kind {kinds[name]} vs {kind}"
                )
            if kind == HISTOGRAM:
                merged = dict(values[name])
                for key, count in theirs.items():
                    merged[key] = merged.get(key, 0) + count
                values[name] = merged
            elif kind == GAUGE:
                values[name] = max(values[name], theirs)
            else:
                values[name] = values[name] + theirs
        return Snapshot(values, kinds)

    def diff(self, older: "Snapshot") -> "Snapshot":
        """Work done between ``older`` and ``self`` (span attribution).

        Counters and histograms subtract; gauges keep their current
        (``self``) value.  Keys only in ``self`` pass through unchanged;
        keys only in ``older`` appear negated, so ``a.diff(b)`` never
        loses a key either.
        """
        values: dict[str, Any] = {}
        kinds = dict(self._kinds)
        for name, mine in self._values.items():
            kind = self._kinds[name]
            theirs = older._values.get(name)
            if theirs is None:
                values[name] = dict(mine) if kind == HISTOGRAM else mine
            elif kind == HISTOGRAM:
                delta = {
                    key: mine.get(key, 0) - theirs.get(key, 0)
                    for key in set(mine) | set(theirs)
                }
                values[name] = {k: v for k, v in delta.items() if v}
            elif kind == GAUGE:
                values[name] = mine
            else:
                values[name] = mine - theirs
        for name, theirs in older._values.items():
            if name in self._values:
                continue
            kind = older._kinds[name]
            kinds[name] = kind
            if kind == HISTOGRAM:
                values[name] = {k: -v for k, v in theirs.items()}
            elif kind == GAUGE:
                values[name] = theirs
            else:
                values[name] = -theirs
        return Snapshot(values, kinds)

    def nonzero(self) -> "Snapshot":
        """Copy without zero-valued counters/gauges and empty histograms."""
        values = {
            name: value
            for name, value in self._values.items()
            if value not in (0, 0.0, {})
        }
        kinds = {name: self._kinds[name] for name in values}
        return Snapshot(values, kinds)

    # -- views ---------------------------------------------------------
    def tree(self) -> dict[str, Any]:
        """Nested-dict form of the metric hierarchy (JSON-friendly).

        Histogram keys become strings so the result is valid JSON.
        """
        root: dict[str, Any] = {}
        known = _TREE_KEYS.get
        for name in sorted(self._values):
            interior, leaf = known(name) or _tree_keys(name)
            node = root
            for part in interior:
                node = node.setdefault(part, {})
            value = self._values[name]
            if self._kinds[name] == HISTOGRAM:
                value = {str(key): count for key, count in sorted(value.items())}
            node[leaf] = value
        return root

    def flat(self) -> dict[str, Any]:
        """Plain ``{dotted name: value}`` dict copy."""
        return dict(self._values)


#: The empty snapshot -- identity element of :meth:`Snapshot.merge`.
EMPTY = Snapshot()


def histogram_quantiles(
    counts: Mapping[Any, int], quantiles: Iterable[float] = (0.5, 0.99)
) -> dict[str, float]:
    """Nearest-rank quantiles of a sparse ``{value: count}`` histogram.

    Accepts the exact shapes histograms take across the codebase: int
    keys (live instruments) or their stringified form (JSON round
    trips).  Returns ``{"p50": ..., "p99": ...}``-style keys; empty
    histograms yield an empty dict.  This is how the serve layer turns
    its latency histograms into p50/p99 without retaining per-event
    samples.
    """
    total = 0
    pairs: list[tuple[float, int]] = []
    for key, count in counts.items():
        if count <= 0:
            continue
        pairs.append((float(key), count))
        total += count
    if not total:
        return {}
    pairs.sort()
    out: dict[str, float] = {}
    for quantile in quantiles:
        if not 0 < quantile <= 1:
            raise ValueError(f"quantile must be in (0, 1], got {quantile}")
        rank = max(1, -(-quantile * total // 1))  # ceil without math import
        seen = 0
        for value, count in pairs:
            seen += count
            if seen >= rank:
                label = f"{quantile * 100:g}"
                out[f"p{label}"] = value
                break
    return out


class Registry:
    """Hierarchical registry of owned and bound instruments.

    One registry instance corresponds to one observation domain: a
    machine, a replay, an experiment runner.  Names form a tree by
    dotted segments; a name may not be both a leaf and an interior node
    (``cache.l1`` cannot coexist with ``cache.l1.hits``), which keeps
    :meth:`Snapshot.tree` well-defined.
    """

    __slots__ = ("_owned", "_bound", "_prefixes", "flush")

    def __init__(self) -> None:
        self._owned: dict[str, Counter | Gauge | Histogram] = {}
        #: name -> (kind, getter); evaluated lazily at snapshot time.
        self._bound: dict[str, tuple[str, Callable[[], Any]]] = {}
        #: Called first by :meth:`snapshot`, so the bound sources are up
        #: to date when read (a machine drains its pending chunk here).
        self.flush: Callable[[], None] | None = None
        self._prefixes: set[str] = set()

    # -- registration --------------------------------------------------
    def _claim(self, name: str) -> None:
        _check_name(name)
        if name in self._owned or name in self._bound:
            raise MetricError(f"metric {name!r} already registered")
        if name in self._prefixes:
            raise MetricError(
                f"metric {name!r} is already an interior node of the tree"
            )
        parts = name.split(".")
        for depth in range(1, len(parts)):
            prefix = ".".join(parts[:depth])
            if prefix in self._owned or prefix in self._bound:
                raise MetricError(
                    f"metric {name!r} conflicts with existing leaf {prefix!r}"
                )
            self._prefixes.add(prefix)

    def counter(self, name: str) -> Counter:
        """Create (or fetch) an owned counter."""
        existing = self._owned.get(name)
        if existing is not None:
            if existing.kind != COUNTER:
                raise MetricError(f"{name!r} exists with kind {existing.kind}")
            return existing
        self._claim(name)
        instrument = Counter(name)
        self._owned[name] = instrument
        return instrument

    def gauge(self, name: str) -> Gauge:
        """Create (or fetch) an owned gauge."""
        existing = self._owned.get(name)
        if existing is not None:
            if existing.kind != GAUGE:
                raise MetricError(f"{name!r} exists with kind {existing.kind}")
            return existing
        self._claim(name)
        instrument = Gauge(name)
        self._owned[name] = instrument
        return instrument

    def histogram(self, name: str) -> Histogram:
        """Create (or fetch) an owned histogram."""
        existing = self._owned.get(name)
        if existing is not None:
            if existing.kind != HISTOGRAM:
                raise MetricError(f"{name!r} exists with kind {existing.kind}")
            return existing
        self._claim(name)
        instrument = Histogram(name)
        self._owned[name] = instrument
        return instrument

    def bind(
        self, name: str, getter: Callable[[], Any], kind: str = COUNTER
    ) -> None:
        """Register a source-backed metric read at snapshot time.

        ``getter`` must be cheap and side-effect free; it is evaluated on
        every :meth:`snapshot`.  This is how hot-path components expose
        their flat counter slots without paying any per-event cost.
        """
        if kind not in _KINDS:
            raise MetricError(f"unknown metric kind {kind!r}")
        self._claim(name)
        self._bound[name] = (kind, getter)

    # -- accounting ----------------------------------------------------
    def absorb(self, snapshot: Snapshot) -> None:
        """Fold a snapshot into this registry's owned instruments.

        Counters and histogram buckets add; gauges track the maximum.
        This is the registry-merge primitive the sweep aggregation and
        the experiment runner use instead of hand-summing dicts.
        """
        for name, value in snapshot.items():
            kind = snapshot.kind(name)
            if kind == HISTOGRAM:
                instrument = self.histogram(name)
                for key, count in value.items():
                    instrument.observe(key, count)
            elif kind == GAUGE:
                self.gauge(name).track_max(value)
            else:
                self.counter(name).inc(value)

    # -- observation ---------------------------------------------------
    def snapshot(self) -> Snapshot:
        """O(metrics) point-in-time view of every registered instrument."""
        if self.flush is not None:
            self.flush()
        values: dict[str, Any] = {}
        kinds: dict[str, str] = {}
        for name, instrument in self._owned.items():
            kinds[name] = instrument.kind
            if instrument.kind == HISTOGRAM:
                values[name] = dict(instrument.counts)
            else:
                values[name] = instrument.value
        for name, (kind, getter) in self._bound.items():
            kinds[name] = kind
            value = getter()
            values[name] = dict(value) if kind == HISTOGRAM else value
        return Snapshot(values, kinds)
