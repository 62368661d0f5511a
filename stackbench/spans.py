"""In-memory span tracer and the layer wrappers the traced run installs.

Spans are recorded around calls into the public functions of
``repro.solvers``, ``repro.core``, ``repro.engine`` and ``repro.serve``
by wrappers that live here, in the benchmark; the program itself is not
edited.  A wrapper replaces every reference to the wrapped function that
an imported ``repro`` module holds, so calls made through re-exports
(``repro.solve``, ``repro.serve.server.solve``) are seen too.

A span is ``(id, parent_id, name, start, end)``.  Its parent is the
innermost open span on the same thread; a thread with no open span (the
remote transport's pump threads, the server's executor threads) hangs
its spans under the innermost open span of the thread that enabled the
tracer.  A layer's self time is its span's duration minus the union of
the intervals its child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
from collections import defaultdict
from time import perf_counter

#: (layer name, module, attribute) of every wrapped function or method.
#: Methods are patched on their class; functions on every ``repro``
#: module that holds a reference to them.
LAYERS = (
    ("core.log_convolve", "repro.core.convolution", "log_convolve"),
    ("core.convolution_mva", "repro.core.convolution", "convolution_mva"),
    ("core.mvasd", "repro.core.mvasd", "mvasd"),
    ("core.exact_mva", "repro.core.mva", "exact_mva"),
    ("facade.auto_method", "repro.solvers.facade", "auto_method"),
    ("facade.solve", "repro.solvers.facade", "solve"),
    ("facade.solve_stack", "repro.solvers.facade", "solve_stack"),
    ("scenario.fingerprint", "repro.solvers.scenario", "Scenario.fingerprint"),
    ("cache.fetch", "repro.solvers.cache", "SolverCache.fetch"),
    ("cache.put", "repro.solvers.cache", "SolverCache.put"),
    ("cache.stats", "repro.solvers.cache", "SolverCache.stats"),
    ("persistent.get", "repro.solvers.persistent", "PersistentCache.get"),
    ("persistent.put", "repro.solvers.persistent", "PersistentCache.put"),
    ("persistent.stats", "repro.solvers.persistent", "PersistentCache.stats"),
    ("trajectory.serve", "repro.solvers.trajectory", "TrajectoryStore.serve"),
    ("trajectory.offer", "repro.solvers.trajectory", "TrajectoryStore.offer"),
    ("batched.kernel", "repro.engine.batched", "batched_exact_mva"),
    ("batched.kernel", "repro.engine.batched", "batched_mvasd"),
    ("batched.kernel", "repro.engine.batched", "batched_schweitzer_amva"),
    ("batched.kernel", "repro.engine.batched", "batched_ld_mva"),
    ("backends.process_sharded", "repro.engine.backends", "ProcessShardedBackend.run"),
    ("backends.concat", "repro.engine.backends", "_concat_results"),
    ("fabric.dispatch", "repro.engine.fabric", "Dispatcher.run"),
    ("transport.run_shards", "repro.engine.transport", "RemoteTransport.run_shards"),
    ("protocol.decode_request", "repro.serve.protocol", "decode_request"),
    ("protocol.decode_scenario", "repro.serve.protocol", "decode_scenario"),
    ("protocol.encode_result", "repro.serve.protocol", "encode_result"),
    ("protocol.encode_scenario", "repro.serve.protocol", "encode_scenario"),
    ("protocol.encode_stack_result", "repro.serve.protocol", "encode_stack_result"),
    ("protocol.decode_stack_result", "repro.serve.protocol", "decode_stack_result"),
    ("server.execute", "repro.serve.server", "SolverServer._execute"),
    ("client.round_trip", "repro.serve.client", "ServeClient.request"),
    ("client.readline", "repro.serve.client", "ServeClient._readline_bounded"),
)


def _count_fetch_hit(tracer, args, out):
    if out[0] is not None:
        tracer.count("cache.fetch.hits")


def _count_persistent_hit(tracer, args, out):
    if out is not None:
        tracer.count("persistent.get.hits")


def _count_prefix(tracer, args, out):
    if out is not None and out[0] == "prefix":
        tracer.count("trajectory.serve.prefix")


def _count_kernel_rows(tracer, args, out):
    tracer.count("batched.scenarios", len(out))


def _count_request_bytes(tracer, args, out):
    tracer.count("protocol.request_bytes", len(args[0]))


def _count_response_bytes(tracer, args, out):
    tracer.count("protocol.response_bytes", len(out))


def _count_shard_retries(tracer, args, out):
    transport = args[0]
    tracer.count("fabric.retries", sum(isinstance(o, BaseException) for o in out))
    seen = getattr(transport, "_traced_overload_retries", 0)
    tracer.count("fabric.overload_retries", transport.overload_retries - seen)
    transport._traced_overload_retries = transport.overload_retries


#: Counters derived from a wrapped call's arguments and result.
AFTER = {
    "cache.fetch": _count_fetch_hit,
    "persistent.get": _count_persistent_hit,
    "trajectory.serve": _count_prefix,
    "batched.kernel": _count_kernel_rows,
    "protocol.decode_request": _count_request_bytes,
    "client.readline": _count_response_bytes,
    "transport.run_shards": _count_shard_retries,
}


class Tracer:
    """Spans and counters kept in memory while :attr:`enabled` is set."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._owner_stack: list[int] = []
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def enable(self) -> None:
        """Start recording; the calling thread becomes the owner thread."""
        self._local.stack = self._owner_stack
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def count(self, key: str, n: float = 1) -> None:
        with self._lock:
            self.counts[key] += n

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name`` (when enabled)."""
        if not self.enabled:
            return fn(*args, **kwargs)
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            parent = self._owner_stack[-1] if self._owner_stack else 0
        sid = next(self._ids)
        stack.append(sid)
        t0 = perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, t0, t1))
        after = AFTER.get(name)
        if after is not None:
            after(self, args, out)
        return out

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            return tracer.call(name, fn, *args, **kwargs)

        traced.__traced_original__ = fn
        return traced

    # -- installing the wrappers --------------------------------------------

    def install(self) -> None:
        """Wrap every entry of :data:`LAYERS` (imports the modules it names)."""
        import importlib

        for module in (
            "repro.solvers.builtin",
            "repro.engine.fabric",
            "repro.engine.transport",
            "repro.engine.resilience",
            "repro.serve.server",
            "repro.serve.client",
        ):
            importlib.import_module(module)
        for name, module_name, attr in LAYERS:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self.wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if not mod_name.startswith("repro") or mod is None:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- the ledger ---------------------------------------------------------

    def ledger(self) -> dict:
        """Per layer name: calls, inclusive seconds and self seconds."""
        return build_ledger(self.spans, self.counts)


def union_length(intervals) -> float:
    """Total length covered by a set of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def build_ledger(spans, counts) -> dict:
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for _sid, parent, _name, t0, t1 in spans:
        children[parent].append((t0, t1))
    layers: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    )
    for sid, _parent, name, t0, t1 in spans:
        covered = union_length(
            (max(a, t0), min(b, t1)) for a, b in children.get(sid, ()) if b > t0 and a < t1
        )
        entry = layers[name]
        entry["calls"] += 1
        entry["total_s"] += t1 - t0
        entry["self_s"] += (t1 - t0) - covered
    return {"layers": dict(layers), "counts": dict(counts)}


def merge_ledgers(*ledgers: dict) -> dict:
    """Sum the ledgers of several processes (client, server, worker)."""
    layers: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    )
    counts: dict[str, float] = defaultdict(float)
    for ledger in ledgers:
        for name, entry in ledger["layers"].items():
            for key, value in entry.items():
                layers[name][key] += value
        for key, value in ledger["counts"].items():
            counts[key] += value
    return {"layers": dict(layers), "counts": dict(counts)}


#: (metric, unit, better) of every per-layer metric the traced run prints.
LAYER_METRICS = (
    ("core.log_convolve.calls_per_op", "count", "lower"),
    ("core.convolution_mva.ms_per_call", "ms", "lower"),
    ("core.mvasd.ms_per_call", "ms", "lower"),
    ("core.exact_mva.ms_per_call", "ms", "lower"),
    ("facade.auto_method.us_per_call", "us", "lower"),
    ("facade.solve.self_ms_per_op", "ms", "lower"),
    ("facade.solve_stack.self_ms_per_op", "ms", "lower"),
    ("scenario.fingerprint.us_per_call", "us", "lower"),
    ("scenario.fingerprint.calls_per_op", "count", "lower"),
    ("cache.fetch.us_per_call", "us", "lower"),
    ("cache.put.us_per_call", "us", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.stats.calls_per_op", "count", "lower"),
    ("persistent.get.ms_per_call", "ms", "lower"),
    ("persistent.put.ms_per_call", "ms", "lower"),
    ("persistent.stats.ms_per_call", "ms", "lower"),
    ("persistent.hit_ratio", "ratio", "higher"),
    ("trajectory.serve.us_per_call", "us", "lower"),
    ("trajectory.offer.us_per_call", "us", "lower"),
    ("trajectory.prefix_ratio", "ratio", "higher"),
    ("protocol.decode_scenario.us_per_call", "us", "lower"),
    ("protocol.encode_result.ms_per_call", "ms", "lower"),
    ("protocol.response_bytes_per_op", "B", "lower"),
    ("server.residual_ms_per_op", "ms", "lower"),
    ("client.round_trip_ms_per_op", "ms", "lower"),
    ("batched.kernel.ms_per_call", "ms", "lower"),
    ("batched.scenarios_per_s", "1/s", "higher"),
    ("backends.process_sharded.ms_per_call", "ms", "lower"),
    ("backends.concat.ms_per_call", "ms", "lower"),
    ("fabric.dispatch.self_ms_per_op", "ms", "lower"),
    ("fabric.retries_per_op", "count", "lower"),
    ("fabric.overload_retries_per_op", "count", "lower"),
    ("transport.run_shards.ms_per_op", "ms", "lower"),
    ("protocol.encode_scenario.us_per_call", "us", "lower"),
    ("protocol.encode_stack_result.ms_per_call", "ms", "lower"),
    ("protocol.decode_stack_result.ms_per_call", "ms", "lower"),
    ("protocol.request_bytes_per_op", "B", "lower"),
    ("trace.overhead_ratio", "ratio", "higher"),
    ("trace.unaccounted_share", "ratio", "lower"),
)

_SCALE = {"ms": 1e3, "us": 1e6}


def layer_metrics(ledger: dict, ops: int, overhead_ratio: float) -> dict:
    """Every :data:`LAYER_METRICS` value; 0 for a layer never reached."""
    layers, counts = ledger["layers"], ledger["counts"]

    def entry(name):
        return layers.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    def per_call(name, unit):
        e = entry(name)
        return e["total_s"] / e["calls"] * _SCALE[unit] if e["calls"] else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    values = {}
    for metric, unit, _better in LAYER_METRICS:
        layer, _, kind = metric.rpartition(".")
        if kind in ("ms_per_call", "us_per_call"):
            values[metric] = per_call(layer, unit)
        elif kind == "calls_per_op":
            values[metric] = ratio(entry(layer)["calls"], ops)
        elif kind == "self_ms_per_op":
            values[metric] = ratio(entry(layer)["self_s"] * 1e3, ops)
    values["cache.hit_ratio"] = ratio(
        counts.get("cache.fetch.hits", 0), entry("cache.fetch")["calls"]
    )
    values["persistent.hit_ratio"] = ratio(
        counts.get("persistent.get.hits", 0), entry("persistent.get")["calls"]
    )
    values["trajectory.prefix_ratio"] = ratio(
        counts.get("trajectory.serve.prefix", 0), entry("trajectory.serve")["calls"]
    )
    values["protocol.response_bytes_per_op"] = ratio(
        counts.get("protocol.response_bytes", 0), ops
    )
    values["protocol.request_bytes_per_op"] = ratio(
        counts.get("protocol.request_bytes", 0), ops
    )
    round_trip = entry("client.round_trip")["total_s"]
    server_side = entry("server.execute")["total_s"] + entry("protocol.decode_request")["total_s"]
    values["client.round_trip_ms_per_op"] = ratio(round_trip * 1e3, ops)
    values["server.residual_ms_per_op"] = (
        ratio((round_trip - server_side) * 1e3, ops) if round_trip else 0.0
    )
    kernel = entry("batched.kernel")
    values["batched.scenarios_per_s"] = ratio(
        counts.get("batched.scenarios", 0), kernel["total_s"]
    )
    values["fabric.retries_per_op"] = ratio(counts.get("fabric.retries", 0), ops)
    values["fabric.overload_retries_per_op"] = ratio(
        counts.get("fabric.overload_retries", 0), ops
    )
    values["transport.run_shards.ms_per_op"] = ratio(
        entry("transport.run_shards")["total_s"] * 1e3, ops
    )
    op = entry("op")
    values["trace.unaccounted_share"] = ratio(op["self_s"], op["total_s"])
    values["trace.overhead_ratio"] = overhead_ratio
    return {
        metric: {"value": float(values[metric]), "unit": unit}
        for metric, unit, _better in LAYER_METRICS
    }
