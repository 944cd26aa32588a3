"""Per-layer attribution: wrappers around each layer's entry points.

A *layer* is a ``repro`` package on the request path.  :data:`LAYERS`
names, per layer, the functions through which other layers (or the
benchmark) call into it.  :class:`Tracer` replaces each of them on its
class with a wrapper that counts calls and times the host CPU spent in
the call, and takes the wrappers out again with :meth:`Tracer.remove`.

Wrappers go on the classes *before* a testbed is built: hot paths bind
methods at construction (UDP handlers, TX/RX hooks, NFS handler tables),
and a testbed built before :meth:`Tracer.install` keeps the originals.

Generator entry points are timed per resume slice, not per call: a
simulated request suspends inside them while simulated time passes, and
only the slices that run on the host count.  Self time is a span minus
the spans of wrapped callees nested in it, so every host nanosecond of
the timed window lands in exactly one layer, or in the remainder
outside ``Simulator.run``.  Code in helpers that are not wrapped (buffer
slicing, RNG draws) counts toward the nearest wrapped caller.

Count-only wrappers with ``delay_us`` set add a busy-wait to every call
into one layer: the sensitivity check in ``check.py`` uses this to show
that a slower layer moves ``host_ops_per_s`` by its calls per op times
the delay, and leaves workloads that never call the layer alone.
"""

from __future__ import annotations

import importlib
import inspect
import time
from typing import Any, Dict, List, Optional, Sequence, Tuple

#: layer -> ((module, class, (method names...)), ...)
LAYERS: Dict[str, Tuple[Tuple[str, str, Tuple[str, ...]], ...]] = {
    "sim": (
        ("repro.sim.engine", "Simulator", ("run",)),
    ),
    "workloads": (
        ("repro.workloads.microbench", "AllHitReadWorkload", ("_stream",)),
        ("repro.workloads.specsfs", "SpecSfsWorkload", ("_worker",)),
        ("repro.workloads.specweb", "SpecWebWorkload", ("_worker",)),
        ("repro.workloads.fleetzipf", "FleetZipfWorkload",
         ("_stream", "_issue")),
    ),
    "net": (
        ("repro.net.stack", "NetworkStack",
         ("udp_send", "receive", "_rx_process")),
        ("repro.net.stack", "TCPConnection", ("send",)),
        ("repro.net.network", "NIC", ("send",)),
        ("repro.net.network", "Network", ("forward", "_arrive")),
        ("repro.net.host", "Host", ("run_tx_hooks", "run_rx_hooks")),
    ),
    "nfs": (
        ("repro.nfs.client", "NfsClient", ("call", "_on_reply")),
        ("repro.nfs.server", "NfsServer", ("_enqueue", "_handle")),
    ),
    "http": (
        ("repro.http.client", "HttpClient", ("get", "_on_response")),
        ("repro.http.khttpd", "KHttpd", ("_on_request",)),
    ),
    "core": (
        ("repro.core.ncache", "NCacheModule",
         ("rx_hook", "tx_hook", "try_serve_read", "write_back_chunk",
          "lbn_annotator")),
        ("repro.core.store", "NCacheStore",
         ("lookup_lbn", "lookup_fho", "resolve", "make_room", "insert",
          "remap", "drop")),
    ),
    "cache": (
        ("repro.cache.kernel", "CacheKernel",
         ("insert", "make_room", "remove", "rekey", "resize", "steal",
          "grant", "clear", "touch", "record_hit", "record_miss")),
        ("repro.cache.sharded", "ShardedKernel",
         ("insert", "make_room", "remove", "rekey", "resize", "steal",
          "grant", "clear", "touch", "record_hit", "record_miss")),
    ),
    "fs": (
        ("repro.fs.vfs", "VFS",
         ("read", "sendfile_payload", "write", "read_inode_metadata",
          "read_dir_metadata", "truncate", "remove", "flush_lbn",
          "flush_oldest", "write_back_entry")),
        ("repro.fs.buffer_cache", "BufferCache",
         ("lookup", "make_room", "insert", "invalidate", "pin", "unpin",
          "mark_clean")),
        ("repro.fs.image", "FsImage", ("file_payload",)),
        ("repro.fs.localdev", "LocalBlockDevice", ("read", "write")),
        ("repro.fs.disk", "Raid0", ("io",)),
    ),
    "iscsi": (
        ("repro.iscsi.initiator", "IscsiInitiator",
         ("read", "write", "_on_message")),
        ("repro.iscsi.target", "IscsiTarget", ("_on_message",)),
    ),
    "copymodel": (
        ("repro.copymodel.accounting", "CopyAccountant",
         ("note_physical_copy", "note_logical_copy", "note_compute",
          "note_checksum", "charge_ns", "physical_copy", "logical_copy",
          "move", "compute", "checksum")),
    ),
    "fleet": (
        ("repro.fleet.builder", "Fleet", ("route",)),
        ("repro.fleet.peer", "PeerCacheClient", ("fetch", "_fetch_one",
                                                 "push")),
        ("repro.fleet.peer", "PeerCacheService", ("_handle",)),
    ),
    "obs": (
        ("repro.obs.trace", "TraceBus", ("emit", "complete")),
        ("repro.obs.metrics", "Histogram", ("record",)),
    ),
}

#: Entry points whose calls are counted but not timed: process creation
#: is the engine's own work and runs inside whatever layer starts it.
COUNTED = (("sim.processes", "repro.sim.process", "Process", "__init__"),)


class Entry:
    """One wrapped function: where it lives and what it accumulated."""

    __slots__ = ("layer", "owner", "name", "original", "is_gen",
                 "is_static")

    def __init__(self, layer: str, owner: Any, name: str) -> None:
        self.layer = layer
        self.owner = owner
        self.name = name
        raw = owner.__dict__[name]
        self.is_static = isinstance(raw, staticmethod)
        self.original = raw.__func__ if self.is_static else raw
        self.is_gen = inspect.isgeneratorfunction(self.original)

    @property
    def label(self) -> str:
        return f"{self.layer}:{self.owner.__name__}.{self.name}"


def resolve_entries(layers: Sequence[str]) -> Tuple[List[Entry], List[str]]:
    """The entry points of ``layers`` that exist in this tree, plus the
    labels of those that do not (reported, never silently dropped)."""
    entries: List[Entry] = []
    missing: List[str] = []
    for layer in layers:
        for module_name, class_name, names in LAYERS[layer]:
            owner = getattr(importlib.import_module(module_name),
                            class_name, None)
            for name in names:
                if owner is None or name not in owner.__dict__:
                    missing.append(f"{layer}:{class_name}.{name}")
                    continue
                entries.append(Entry(layer, owner, name))
    return entries, missing


class Tracer:
    """Counts and times calls into every wrapped entry point.

    ``timed=False`` counts calls only, and then ``delay_us`` busy-waits
    that long on every call (the sensitivity runs, which must not pay
    for timing).  Spans — one
    ``(entry index, start_ns, duration_ns, depth)`` record per timed
    call or slice — are kept in memory up to ``max_spans`` and returned
    by :meth:`spans` for writing out when the run ends.
    """

    def __init__(self, layers: Sequence[str], timed: bool = True,
                 delay_us: float = 0.0, max_spans: int = 20000) -> None:
        self.entries, self.missing = resolve_entries(layers)
        self.timed = timed
        self.delay_ns = int(delay_us * 1000)
        self.max_spans = max_spans
        n = len(self.entries)
        self.calls = [0] * n
        #: generator entries only: calls that ran to completion
        self.done = [0] * n
        self.self_ns = [0] * n
        self.counted = {label: 0 for label, *_ in COUNTED}
        self._stack: List[List[int]] = []
        self._spans: List[Tuple[int, int, int, int]] = []
        self._installed = False

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        for index, entry in enumerate(self.entries):
            wrapper = self._wrap(index, entry)
            setattr(entry.owner, entry.name,
                    staticmethod(wrapper) if entry.is_static else wrapper)
        if self.timed:
            for label, module_name, class_name, name in COUNTED:
                owner = getattr(importlib.import_module(module_name),
                                class_name)
                setattr(owner, name, self._count(label,
                                                 owner.__dict__[name]))
        self._installed = True

    def remove(self) -> None:
        if not self._installed:
            return
        for entry in self.entries:
            setattr(entry.owner, entry.name,
                    staticmethod(entry.original) if entry.is_static
                    else entry.original)
        if self.timed:
            for label, module_name, class_name, name in COUNTED:
                owner = getattr(importlib.import_module(module_name),
                                class_name)
                setattr(owner, name, owner.__dict__[name].__wrapped__)
        self._installed = False

    def reset(self) -> None:
        """Zero the accumulators (the warm-up/timed-window boundary)."""
        n = len(self.entries)
        self.calls[:] = [0] * n
        self.done[:] = [0] * n
        self.self_ns[:] = [0] * n
        for label in self.counted:
            self.counted[label] = 0
        self._spans.clear()

    # -- wrappers ------------------------------------------------------------

    def _count(self, label: str, fn: Any) -> Any:
        counted = self.counted

        def counting(*args: Any, **kwargs: Any) -> Any:
            counted[label] += 1
            return fn(*args, **kwargs)

        counting.__wrapped__ = fn  # type: ignore[attr-defined]
        return counting

    def _wrap(self, index: int, entry: Entry) -> Any:
        fn = entry.original
        calls = self.calls
        delay_ns = self.delay_ns
        clock = time.perf_counter_ns
        if not self.timed:
            # A generator function's wrapper returns its generator, so
            # one plain wrapper counts (and delays) both kinds at the call.
            def counted(*args: Any, **kwargs: Any) -> Any:
                calls[index] += 1
                if delay_ns:
                    _spin(clock, delay_ns)
                return fn(*args, **kwargs)
            return counted

        stack = self._stack
        done = self.done
        self_ns = self.self_ns
        spans = self._spans
        max_spans = self.max_spans

        def close(frame: List[int], t0: int) -> None:
            dt = clock() - t0
            stack.pop()
            self_ns[index] += dt - frame[0]
            if stack:
                stack[-1][0] += dt
            if len(spans) < max_spans:
                spans.append((index, t0, dt, len(stack)))

        if entry.is_gen:
            def slices(gen: Any) -> Any:
                value: Any = None
                error: Optional[BaseException] = None
                while True:
                    frame = [0]
                    stack.append(frame)
                    t0 = clock()
                    try:
                        if error is not None:
                            target = gen.throw(error)
                        else:
                            target = gen.send(value)
                    except StopIteration as stop:
                        close(frame, t0)
                        done[index] += 1
                        return stop.value
                    except BaseException:
                        close(frame, t0)
                        raise
                    close(frame, t0)
                    try:
                        value = yield target
                        error = None
                    except GeneratorExit:
                        gen.close()
                        raise
                    except BaseException as exc:  # forwarded into gen
                        value, error = None, exc

            def timed_gen(*args: Any, **kwargs: Any) -> Any:
                calls[index] += 1
                return slices(fn(*args, **kwargs))
            return timed_gen

        def timed_call(*args: Any, **kwargs: Any) -> Any:
            calls[index] += 1
            frame = [0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                close(frame, t0)
        return timed_call

    # -- results -------------------------------------------------------------

    def layer_calls(self, layer: str, names: Sequence[str] = (),
                    completed: bool = False) -> int:
        """Calls into ``layer``, optionally only the named entries
        (written ``Class.method``); ``completed`` counts generator calls
        that ran to the end instead of calls made."""
        counts = self.done if completed else self.calls
        return sum(counts[i] for i, e in enumerate(self.entries)
                   if e.layer == layer and
                   (not names or f"{e.owner.__name__}.{e.name}" in names))

    def layer_self_ns(self) -> Dict[str, int]:
        totals: Dict[str, int] = {}
        for i, entry in enumerate(self.entries):
            totals[entry.layer] = totals.get(entry.layer, 0) \
                + self.self_ns[i]
        return totals

    def entry_table(self) -> List[Dict[str, Any]]:
        return [{"entry": e.label, "calls": self.calls[i],
                 "self_ms": round(self.self_ns[i] / 1e6, 3)}
                for i, e in enumerate(self.entries) if self.calls[i]]

    def spans(self) -> List[Dict[str, Any]]:
        labels = [e.label for e in self.entries]
        return [{"entry": labels[i], "start_ns": t0, "dur_ns": dt,
                 "depth": depth} for i, t0, dt, depth in self._spans]


def _spin(clock: Any, delay_ns: int) -> None:
    end = clock() + delay_ns
    while clock() < end:
        pass
