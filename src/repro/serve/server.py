"""The asyncio capacity-planning server behind ``repro serve``.

One long-lived process owns a :class:`~repro.solvers.cache.SolverCache`
(optionally backed by the persistent sqlite tier) and answers JSON-lines
requests over TCP.  Every solve routes through the ordinary
facade → cache → backend stack — the server adds no solver logic of its
own, only:

* **per-request timeouts** — a solve that exceeds ``timeout`` seconds
  answers with a structured error envelope instead of wedging the
  connection (the worker thread finishes in the background; subsequent
  requests queue behind it);
* **cache-tier provenance** — each response reports where its answer
  came from (``memory`` / ``persistent`` / ``trajectory-prefix`` /
  ``trajectory-extend`` / ``cold``), measured as a counter diff around
  the solve.  Solves are serialized by a lock to keep that diff exact;
  the protocol layer stays fully concurrent, so slow clients do not
  block fast ones — only concurrent *solves* queue.
* **admission control** — at most ``max_concurrent`` solves run at
  once (default 1, which is also what keeps provenance diffs exact;
  raising it trades exact provenance for parallelism) and at most
  ``admission_queue`` more may wait.  Beyond that the server answers
  immediately with a structured ``Overloaded`` error envelope instead
  of queueing unboundedly — the fabric transport treats that as
  *retry-later*, not host death, which is what lets an overloaded
  worker shed shards to its peers instead of being retired.
* **graceful drain** — SIGTERM (or the ``drain`` op) closes the
  listener, lets every in-flight request finish and answer, then exits
  cleanly; SIGINT remains an immediate shutdown.  The ``health`` op
  reports in-flight/queue-depth/uptime/cache counters for supervisors'
  heartbeats.

The server binds ``127.0.0.1:7173`` by default; pass ``port=0`` to let
the OS pick (the chosen port is printed on the ``listening`` line and
available as ``server.port`` — how the bench and CI smoke find it).
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
import time
from typing import Any, Mapping

from ..engine import faults
from ..engine.backends import scenario_offset
from ..solvers import solve, solve_stack
from ..solvers.cache import SolverCache
from .protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    _encode_failures,
    decode_request,
    decode_scenario,
    encode_result,
    encode_stack_result,
    error_envelope,
    ok_envelope,
)

__all__ = ["DEFAULT_PORT", "Overloaded", "SolverServer", "run_server"]

DEFAULT_PORT = 7173
DEFAULT_TIMEOUT = 30.0
DEFAULT_MAX_CONCURRENT = 1
DEFAULT_ADMISSION_QUEUE = 16


class Overloaded(RuntimeError):
    """The server's admission queue is full — retry later, host is healthy.

    The envelope ``type`` clients key on: the fabric transport re-queues
    the shard instead of retiring the worker, and the supervisor's
    heartbeat does *not* count it as a health-probe failure.
    """

#: Priority order for collapsing a single-solve counter diff to a label.
_TIERS = (
    ("memory", "hits"),
    ("persistent", "persistent_hits"),
    ("trajectory-prefix", "trajectory_hits"),
    ("trajectory-extend", "trajectory_extends"),
)


def _provenance_counts(before, after) -> dict:
    """Per-tier request counts between two cache snapshots.

    A trajectory-served request first misses the key-value tiers (one
    ``misses`` tick) and then hits the trajectory store, so true cold
    solves are the misses *not* explained by trajectory serving.
    """
    counts = {
        label: getattr(after, field) - getattr(before, field) for label, field in _TIERS
    }
    counts["cold"] = max(
        0,
        (after.misses - before.misses)
        - counts["trajectory-prefix"]
        - counts["trajectory-extend"],
    )
    counts["uncacheable"] = after.uncacheable - before.uncacheable
    return counts


def _provenance_label(counts: Mapping[str, int]) -> str:
    for label, _ in _TIERS:
        if counts.get(label, 0) > 0:
            return label
    if counts.get("cold", 0) > 0:
        return "cold"
    return "uncached"


class SolverServer:
    """Asyncio JSON-lines solver service around one :class:`SolverCache`."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = DEFAULT_PORT,
        cache: SolverCache | None = None,
        cache_path: str | None = None,
        maxsize: int = 1024,
        timeout: float = DEFAULT_TIMEOUT,
        max_concurrent: int = DEFAULT_MAX_CONCURRENT,
        admission_queue: int = DEFAULT_ADMISSION_QUEUE,
    ) -> None:
        self.host = host
        self.port = int(port)
        if cache is None:
            cache = SolverCache(maxsize=maxsize, persistent=cache_path)
        self.cache = cache
        self.timeout = float(timeout)
        self.max_concurrent = int(max_concurrent)
        self.admission_queue = int(admission_queue)
        if self.max_concurrent < 1:
            raise ValueError(f"max_concurrent must be >= 1, got {max_concurrent}")
        if self.admission_queue < 0:
            raise ValueError(f"admission_queue must be >= 0, got {admission_queue}")
        self._server: asyncio.AbstractServer | None = None
        self._shutdown = asyncio.Event()
        #: Serializes solves so provenance counter-diffs are unambiguous.
        self._solve_lock = threading.Lock()
        #: Bounds concurrent solver-op executions (event-loop side).
        self._solve_slots: asyncio.Semaphore | None = None
        #: Solver ops admitted and not yet answered (running or queued).
        self._admitted = 0
        #: Requests currently being dispatched or having their response
        #: written — what SIGTERM drain waits on (``wait_closed`` alone
        #: does not wait for handler coroutines on py3.10/3.11).
        self._active_requests = 0
        self._draining = False
        self._started_at: float | None = None
        self.requests_handled = 0
        self.overload_rejections = 0

    # -- lifecycle ------------------------------------------------------------

    async def start(self) -> None:
        # the default StreamReader limit (64 KB) would reject the large
        # solve_shard request lines the protocol explicitly allows
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port, limit=MAX_LINE_BYTES + 1024
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._solve_slots = asyncio.Semaphore(self.max_concurrent)
        self._started_at = time.monotonic()

    async def serve_until_shutdown(self) -> None:
        if self._server is None:
            await self.start()
        async with self._server:
            await self._shutdown.wait()

    def request_shutdown(self) -> None:
        self._shutdown.set()

    def request_drain(self) -> None:
        """Graceful stop: refuse new work, finish in-flight, then shut down.

        Safe to call from a signal handler on the event loop (SIGTERM) or
        from the ``drain`` op.  Idempotent.
        """
        if self._draining:
            return
        self._draining = True
        asyncio.get_running_loop().create_task(self._drain())

    async def _drain(self) -> None:
        if self._server is not None:
            self._server.close()  # stop accepting new connections
        # The request that carried the `drain` op is itself active until
        # its response is written; poll until every handler has answered.
        while self._active_requests > 0:
            await asyncio.sleep(0.005)
        self._shutdown.set()

    # -- connection handling --------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionResetError, asyncio.LimitOverrunError):
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                self._active_requests += 1
                try:
                    response = await self._dispatch(line)
                    shutdown_after = bool(response.pop("_shutdown", False))
                    writer.write(json.dumps(response).encode() + b"\n")
                    try:
                        await writer.drain()
                    except ConnectionResetError:
                        break
                finally:
                    self._active_requests -= 1
                self.requests_handled += 1
                if shutdown_after:
                    self.request_shutdown()
                    break
                if self._draining:
                    break  # answered; no further requests on this connection
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _dispatch(self, line: bytes) -> dict:
        request_id = None
        try:
            try:
                request = decode_request(line)
            except ProtocolError:
                # Salvage the id so the client can still correlate the
                # error envelope with the request that caused it.
                try:
                    probe = json.loads(line)
                    if isinstance(probe, dict):
                        request_id = probe.get("id")
                except (ValueError, UnicodeDecodeError):
                    pass
                raise
            request_id = request.get("id")
            op = request["op"]
            if op == "ping":
                return ok_envelope(request_id, {"pong": True, "pid": os.getpid()})
            if op == "cache_stats":
                return ok_envelope(request_id, self._cache_stats())
            if op == "health":
                return ok_envelope(request_id, self.health())
            if op == "drain":
                self.request_drain()
                return ok_envelope(request_id, {"draining": True, "pid": os.getpid()})
            if op == "shutdown":
                envelope = ok_envelope(request_id, {"stopping": True})
                envelope["_shutdown"] = True
                return envelope
            # solver ops: admission gate, then a worker thread under the
            # request timeout, at most max_concurrent at once
            if self._draining:
                self.overload_rejections += 1
                return error_envelope(
                    request_id, Overloaded(f"server is draining, cannot admit {op}")
                )
            if (
                self._admitted >= self.max_concurrent + self.admission_queue
                or faults.take_one_shot("admission") is not None
            ):
                self.overload_rejections += 1
                return error_envelope(
                    request_id,
                    Overloaded(
                        f"admission queue full ({self._admitted} admitted, "
                        f"{self.max_concurrent} solving + {self.admission_queue} "
                        f"queued max); retry later"
                    ),
                )
            self._admitted += 1
            try:
                async with self._solve_slots:
                    loop = asyncio.get_running_loop()
                    future = loop.run_in_executor(None, self._execute, op, request)
                    try:
                        result, provenance = await asyncio.wait_for(future, self.timeout)
                    except asyncio.TimeoutError:
                        return error_envelope(
                            request_id,
                            TimeoutError(
                                f"{op} exceeded the {self.timeout:g}s request timeout"
                            ),
                        )
            finally:
                self._admitted -= 1
            return ok_envelope(request_id, result, provenance)
        except Exception as exc:  # every failure answers; none kills the server
            return error_envelope(request_id, exc)

    def health(self) -> dict:
        """The ``health`` op body: load, lifecycle and cache counters."""
        uptime = (
            0.0 if self._started_at is None else time.monotonic() - self._started_at
        )
        stats = self.cache.stats()
        return {
            "pid": os.getpid(),
            "uptime": uptime,
            "draining": self._draining,
            # The health request itself is one of the active requests;
            # report the depth the *other* clients are contributing.
            "in_flight": max(0, self._active_requests - 1),
            "admitted": self._admitted,
            "max_concurrent": self.max_concurrent,
            "admission_queue": self.admission_queue,
            "requests_handled": self.requests_handled,
            "overload_rejections": self.overload_rejections,
            "cache": {"hits": stats.hits, "misses": stats.misses, "size": stats.size},
        }

    # -- op execution (worker thread) -----------------------------------------

    def _classified(self, fn):
        """Run ``fn`` under the solve lock, classifying its cache traffic."""
        with self._solve_lock:
            before = self.cache.stats()
            out = fn()
            after = self.cache.stats()
        return out, _provenance_counts(before, after)

    def _execute(self, op: str, request: Mapping[str, Any]):
        if op == "solve":
            return self._op_solve(request)
        if op == "solve_stack":
            return self._op_solve_stack(request)
        if op == "solve_shard":
            return self._op_solve_shard(request)
        if op == "whatif":
            return self._op_whatif(request)
        if op == "bottlenecks":
            return self._op_bottlenecks(request)
        if op == "compose":
            return self._op_compose(request)
        raise ProtocolError(f"unhandled op {op!r}")  # pragma: no cover

    def _op_solve(self, request):
        scenario = decode_scenario(request.get("scenario"))
        method = str(request.get("method", "auto"))
        options = dict(request.get("options") or {})
        at = request.get("at")

        result, counts = self._classified(
            lambda: solve(scenario, method=method, cache=self.cache, **options)
        )
        payload = encode_result(result)
        if at is not None:
            payload = {"kind": "at", "solver": result.solver, **result.at(int(at))}
        return payload, _provenance_label(counts)

    def _solve_scenarios(self, op, request, start=0, **stack_options):
        """Decode, fingerprint-verify and solve a ``scenarios`` list.

        The one path behind ``solve_stack`` and ``solve_shard``.  When the
        request carries ``fingerprints`` (computed by the client from its
        *original* scenarios), each decoded scenario must hash to its
        entry — a mismatch means the codec could not express the demand
        model exactly, and the stack must be solved locally.
        """
        raw = request.get("scenarios")
        if not isinstance(raw, list) or not raw:
            raise ProtocolError(f"{op} needs a non-empty scenarios list")
        scenarios = [decode_scenario(item) for item in raw]
        expected = request.get("fingerprints")
        if expected is not None:
            if not isinstance(expected, list) or len(expected) != len(scenarios):
                raise ProtocolError(f"{op} fingerprints must parallel the scenarios list")
            for idx, (sc, fp) in enumerate(zip(scenarios, expected)):
                if sc.fingerprint() != fp:
                    raise ProtocolError(
                        f"scenario #{idx} fingerprint mismatch after decode "
                        f"({sc.fingerprint()[:12]} != {str(fp)[:12]}): the wire "
                        "codec cannot express this demand model exactly; "
                        "solve this shard locally"
                    )
        method = str(request.get("method", "auto"))
        options = dict(request.get("options") or {})

        def run():
            with scenario_offset(start):
                return solve_stack(
                    scenarios, method=method, cache=self.cache, **stack_options, **options
                )

        return self._classified(run)

    def _op_solve_stack(self, request):
        """Summary view of a stack solve, for interactive clients."""
        result, counts = self._solve_scenarios(
            "solve_stack", request, errors=str(request.get("errors", "isolate"))
        )
        payload = {
            "kind": "batched",
            "solver": result.solver,
            "count": result.n_scenarios,
            "peak_throughput": result.peak_throughput().tolist(),
            "failures": _encode_failures(result),
        }
        return payload, _provenance_label(counts)

    def _op_solve_shard(self, request):
        """One fabric shard: solve a sub-stack and ship the full arrays back.

        The remote-sweep workhorse: every trajectory array returns
        bit-exactly, plus the shard's ``start`` offset so the dispatcher
        can re-assemble ``_concat_results`` order.
        """
        backend = str(request.get("backend", "auto"))
        if backend not in ("auto", "serial", "batched"):
            raise ProtocolError(
                f"solve_shard backend must be auto/serial/batched, got {backend!r}"
            )
        start = int(request.get("start", 0))
        result, counts = self._solve_scenarios(
            "solve_shard", request, start=start, backend=backend
        )
        return (
            {**encode_stack_result(result), "start": start},
            _provenance_label(counts),
        )

    def _op_whatif(self, request):
        """One snapshot per requested population — the capacity question.

        Each population is its own ``solve()`` at ``N' = n``; with the
        trajectory store active, one deep solve answers the whole sweep
        (prefix slices below the deepest N seen, one resume above it).
        """
        scenario = decode_scenario(request.get("scenario"))
        raw_pops = request.get("populations")
        if not isinstance(raw_pops, list) or not raw_pops:
            raise ProtocolError("whatif needs a non-empty populations list")
        populations = [int(n) for n in raw_pops]
        if any(n < 1 for n in populations):
            raise ProtocolError("whatif populations must be >= 1")
        method = str(request.get("method", "auto"))
        options = dict(request.get("options") or {})

        def sweep():
            snapshots = []
            for n in populations:
                sc = (
                    scenario
                    if n == scenario.max_population
                    else scenario.with_overrides(max_population=n)
                )
                result = solve(sc, method=method, cache=self.cache, **options)
                snapshots.append({"solver": result.solver, **result.at(n)})
            return snapshots

        snapshots, counts = self._classified(sweep)
        return {"kind": "whatif", "snapshots": snapshots}, counts

    def _op_compose(self, request):
        """Hierarchical composition: aggregate station groups, solve reduced.

        ``aggregates`` is a list of ``{"stations": [...], "name": ...}``
        groups applied **in sequence** — each group aggregates stations
        of the scenario as reduced by the groups before it, so a later
        group may fold an earlier flow-equivalent station into a deeper
        level of the hierarchy.  The subsystem solves ride the server's
        cache like any other request (re-composing an unchanged
        subsystem is a cache hit).  ``flat_check: true`` additionally
        solves the flat scenario and reports the max throughput
        divergence.
        """
        from ..solvers.fes import aggregate as fes_aggregate
        from ..solvers.fes import compose as fes_compose

        scenario = decode_scenario(request.get("scenario"))
        raw_groups = request.get("aggregates")
        if not isinstance(raw_groups, list) or not raw_groups:
            raise ProtocolError("compose needs a non-empty aggregates list")
        method = str(request.get("method", "auto"))
        options = dict(request.get("options") or {})
        flat_check = bool(request.get("flat_check", False))

        def run():
            current = scenario
            built = []
            for idx, group in enumerate(raw_groups):
                if not isinstance(group, Mapping) or "stations" not in group:
                    raise ProtocolError(f"aggregate #{idx} needs a stations list")
                members = [str(name) for name in group["stations"]]
                fes = fes_aggregate(
                    current,
                    members,
                    name=group.get("name"),
                    method=method,
                    cache=self.cache,
                    **options,
                )
                current = fes_compose(current, [fes])
                built.append(fes)
            result = solve(current, method="auto", cache=self.cache, **options)
            flat_parity = None
            if flat_check:
                flat = solve(scenario, method=method, cache=self.cache, **options)
                import numpy as np

                flat_parity = float(
                    np.abs(
                        np.asarray(result.throughput) - np.asarray(flat.throughput)
                    ).max()
                )
            return current, built, result, flat_parity

        (current, built, result, flat_parity), counts = self._classified(run)
        payload = {
            **encode_result(result),
            "composition": {
                "stations": list(current.station_names),
                "aggregates": [
                    {
                        "name": fes.name,
                        "members": list(fes.members),
                        "solver": fes.solver,
                        "source_fingerprint": fes.source_fingerprint,
                        "max_population": fes.max_population,
                    }
                    for fes in built
                ],
            },
        }
        if flat_parity is not None:
            payload["flat_parity"] = flat_parity
        return payload, _provenance_label(counts)

    def _op_bottlenecks(self, request):
        from ..analysis.bottlenecks import solved_bottleneck_ranking

        scenario = decode_scenario(request.get("scenario"))
        method = str(request.get("method", "auto"))

        def rank():
            return solved_bottleneck_ranking(
                scenario.resolved_network(),
                scenario.max_population,
                method=method,
                cache=self.cache,
            )

        ranking, counts = self._classified(rank)
        payload = {
            "kind": "bottlenecks",
            "population": ranking.population,
            "solver": ranking.solver,
            "stations": list(ranking.stations),
            "utilizations": ranking.utilizations.tolist(),
        }
        return payload, _provenance_label(counts)

    def _cache_stats(self) -> dict:
        stats = self.cache.stats()
        payload = {
            "hits": stats.hits,
            "misses": stats.misses,
            "evictions": stats.evictions,
            "uncacheable": stats.uncacheable,
            "errors": stats.errors,
            "size": stats.size,
            "maxsize": stats.maxsize,
            "persistent_hits": stats.persistent_hits,
            "trajectory_hits": stats.trajectory_hits,
            "trajectory_extends": stats.trajectory_extends,
            "requests_handled": self.requests_handled,
        }
        if stats.persistent is not None:
            payload["persistent"] = {
                "hits": stats.persistent.hits,
                "misses": stats.persistent.misses,
                "errors": stats.persistent.errors,
                "writes": stats.persistent.writes,
                "entries": stats.persistent.entries,
                "bytes": stats.persistent.bytes,
                "path": stats.persistent.path,
            }
        if self.cache.trajectory is not None:
            payload["trajectory"] = self.cache.trajectory.stats()
        return payload


async def _amain(server: SolverServer, announce, banner: str = "repro-serve") -> None:
    await server.start()
    if announce is not None:
        announce(f"{banner} listening on {server.host}:{server.port}")
    loop = asyncio.get_running_loop()
    try:
        import signal

        # SIGINT stops immediately; SIGTERM drains — refuse new work,
        # answer everything in flight, then exit 0 (how `repro fleet
        # down`/`drain` and orchestrators stop workers without dropping
        # requests).
        loop.add_signal_handler(signal.SIGINT, server.request_shutdown)
        loop.add_signal_handler(signal.SIGTERM, server.request_drain)
    except (ImportError, NotImplementedError, RuntimeError):  # pragma: no cover
        pass
    await server.serve_until_shutdown()


def run_server(
    host: str = "127.0.0.1",
    port: int = DEFAULT_PORT,
    cache_path: str | None = None,
    maxsize: int = 1024,
    timeout: float = DEFAULT_TIMEOUT,
    max_concurrent: int = DEFAULT_MAX_CONCURRENT,
    admission_queue: int = DEFAULT_ADMISSION_QUEUE,
    announce=None,
    banner: str = "repro-serve",
) -> SolverServer:
    """Blocking entry point used by ``repro serve`` and ``repro worker``.

    Builds the server, prints the ``listening`` line (flushed, so a
    parent process can scrape the bound port), and runs until a client
    sends ``shutdown`` or the process receives SIGINT/SIGTERM.  The
    ``banner`` prefix distinguishes interactive service processes from
    fabric workers in logs; the ``listening on`` suffix is stable either
    way, so port-scraping launchers work for both.
    """
    server = SolverServer(
        host=host,
        port=port,
        cache_path=cache_path,
        maxsize=maxsize,
        timeout=timeout,
        max_concurrent=max_concurrent,
        admission_queue=admission_queue,
    )
    if announce is None:
        def announce(message: str) -> None:
            print(message, flush=True)

    asyncio.run(_amain(server, announce, banner))
    return server
