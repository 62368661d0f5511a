"""Fleet supervision: managed worker lifecycle for the remote fabric.

On its own, :class:`~repro.engine.transport.RemoteTransport` assumes a
pre-started, static fleet — hosts must already be running ``repro
worker`` and a dead host stays dead.  This module closes the lifecycle
half: a :class:`FleetSupervisor` *starts* N workers through a pluggable
:class:`Launcher`, watches them with a ``ping``-based heartbeat thread,
restarts crashed workers under bounded :class:`RetryPolicy` backoff,
quarantines flapping hosts behind a per-worker circuit breaker, and
publishes the resulting live membership — the ``hosts()`` view the
elastic transport polls mid-sweep, so a relaunched worker (on a fresh
OS-picked port) starts draining queued shards the moment its probe
answers.

Per-worker health state machine (driven by the heartbeat thread)::

    healthy ──ping fails──▶ suspect ──K consecutive──▶ quarantined
       ▲                      │        failures            │
       │                      │ (managed process dead:     │ cooldown
       │ ping ok              │  relaunch w/ backoff)      ▼
       └──────────────────────┴──────────────────────  half-open
                                 probe ok ▲                │
                                          └────probe───────┘
                                               fails: re-open,
                                               cooldown doubles

Only *healthy* workers are members.  A quarantined worker consumes no
probes until its cooldown expires; the half-open probe either re-admits
it (membership event ``readmit``) or re-opens the breaker with a doubled
cooldown.  An ``Overloaded`` answer to a ping never counts as a failure
— load shedding is the server protecting itself, not dying.

Two launchers ship:

:class:`LocalLauncher`
    ``subprocess`` children running ``repro worker --port 0`` with the
    bound port scraped from the ``listening on host:port`` banner — the
    single-machine fleet (tests, CI, laptop sweeps).
:class:`CommandLauncher`
    An arbitrary command template (``{slot}`` substituted) whose stdout
    prints the same banner — which covers SSH (``ssh wk{slot} repro
    worker ...``), container runners, or anything else that can exec a
    worker and forward its stdout.

Chaos hooks: an armed ``kill-worker-process`` fault
(:func:`repro.engine.faults.take_one_shot`, point ``"fleet"``) makes the
heartbeat SIGKILL the matching worker slot exactly once — the
deterministic drill CI runs to prove kill → relaunch → bit-identical
sweep.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Protocol, Sequence

from . import faults
from .resilience import RetryPolicy

__all__ = [
    "CircuitBreaker",
    "CommandLauncher",
    "FLEET_STATE_VERSION",
    "FleetSupervisor",
    "Launcher",
    "LocalLauncher",
    "StaticMembership",
    "WorkerHandle",
    "load_fleet_state",
    "save_fleet_state",
]

FLEET_STATE_VERSION = "repro-fleet-v1"

#: How long a launcher waits for the worker's ``listening`` banner.
DEFAULT_LAUNCH_TIMEOUT = 30.0


@dataclass
class WorkerHandle:
    """One launched worker: where it listens and how to reach its process."""

    slot: int
    host: str
    port: int
    pid: int | None = None
    process: subprocess.Popen | None = None

    @property
    def endpoint(self) -> tuple[str, int]:
        return (self.host, self.port)

    def alive(self) -> bool:
        """Is the underlying process (if managed) still running?"""
        if self.process is not None:
            return self.process.poll() is None
        if self.pid is None:
            return True  # unmanaged: only the ping can tell
        try:
            os.kill(self.pid, 0)
        except (ProcessLookupError, PermissionError):
            return False
        return True


class Launcher(Protocol):
    """Starts and stops one worker per fleet slot."""

    def launch(self, slot: int) -> WorkerHandle:
        """Start the worker for ``slot``; blocks until it is listening."""
        ...  # pragma: no cover - protocol

    def terminate(self, handle: WorkerHandle, graceful: bool = True) -> None:
        """Stop the worker (SIGTERM drain when ``graceful``, else SIGKILL)."""
        ...  # pragma: no cover - protocol


def _scrape_banner(process: subprocess.Popen, timeout: float) -> tuple[str, int]:
    """Read the ``... listening on host:port`` line from a worker's stdout."""
    deadline = time.monotonic() + timeout
    assert process.stdout is not None
    while True:
        if time.monotonic() > deadline:
            process.kill()
            raise TimeoutError("worker did not print its listening banner in time")
        line = process.stdout.readline()
        if not line:
            raise RuntimeError(
                f"worker exited (rc={process.poll()}) before printing its banner"
            )
        text = line.decode(errors="replace").strip()
        if "listening on" in text:
            address = text.rsplit("listening on", 1)[1].strip()
            host, _, port = address.rpartition(":")
            return host, int(port)


def _reap(process: subprocess.Popen, timeout: float) -> None:
    try:
        process.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        process.kill()
        try:
            process.wait(timeout=5.0)
        except subprocess.TimeoutExpired:  # pragma: no cover - kernel wedge
            pass


class LocalLauncher:
    """Spawn ``repro worker`` subprocesses on this machine.

    Each worker binds ``--port 0`` (the OS picks a free port — which is
    why a relaunched worker comes back on a *different* endpoint and
    membership must be elastic) and inherits ``extra_args`` such as
    ``--cache-path`` so the fleet shares a persistent cache tier.
    """

    def __init__(
        self,
        extra_args: Sequence[str] = (),
        launch_timeout: float = DEFAULT_LAUNCH_TIMEOUT,
        python: str | None = None,
    ) -> None:
        self.extra_args = tuple(str(a) for a in extra_args)
        self.launch_timeout = float(launch_timeout)
        self.python = python or sys.executable

    def launch(self, slot: int) -> WorkerHandle:
        argv = [
            self.python,
            "-m",
            "repro",
            "worker",
            "--port",
            "0",
            *self.extra_args,
        ]
        process = subprocess.Popen(
            argv,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            env={
                **os.environ,
                "PYTHONPATH": os.pathsep.join(
                    p
                    for p in (
                        os.path.dirname(os.path.dirname(os.path.dirname(__file__))),
                        os.environ.get("PYTHONPATH", ""),
                    )
                    if p
                ),
            },
        )
        host, port = _scrape_banner(process, self.launch_timeout)
        return WorkerHandle(slot=slot, host=host, port=port, pid=process.pid, process=process)

    def terminate(self, handle: WorkerHandle, graceful: bool = True) -> None:
        process = handle.process
        if process is None or process.poll() is not None:
            return
        process.send_signal(signal.SIGTERM if graceful else signal.SIGKILL)
        _reap(process, timeout=10.0 if graceful else 5.0)


class CommandLauncher:
    """Spawn workers through an arbitrary command template.

    ``template`` is a list of argv words; every word is formatted with
    ``{slot}`` before exec.  The command's stdout must forward the
    worker's ``listening on host:port`` banner (SSH does this for free).
    ``advertise_host`` overrides the scraped host per slot — a remote
    worker binds and prints its *loopback* address, but the driver must
    dial the SSH target instead::

        CommandLauncher(
            ["ssh", "wk{slot}", "repro", "worker", "--host", "0.0.0.0",
             "--port", "7173"],
            advertise_host="wk{slot}",
        )
    """

    def __init__(
        self,
        template: Sequence[str],
        advertise_host: str | None = None,
        launch_timeout: float = DEFAULT_LAUNCH_TIMEOUT,
    ) -> None:
        self.template = tuple(str(w) for w in template)
        if not self.template:
            raise ValueError("CommandLauncher needs a non-empty command template")
        self.advertise_host = advertise_host
        self.launch_timeout = float(launch_timeout)

    def launch(self, slot: int) -> WorkerHandle:
        argv = [word.format(slot=slot) for word in self.template]
        process = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL
        )
        host, port = _scrape_banner(process, self.launch_timeout)
        if self.advertise_host is not None:
            host = self.advertise_host.format(slot=slot)
        return WorkerHandle(slot=slot, host=host, port=port, pid=process.pid, process=process)

    def terminate(self, handle: WorkerHandle, graceful: bool = True) -> None:
        process = handle.process
        if process is None or process.poll() is not None:
            return
        process.send_signal(signal.SIGTERM if graceful else signal.SIGKILL)
        _reap(process, timeout=10.0 if graceful else 5.0)


@dataclass
class CircuitBreaker:
    """Per-worker quarantine: K consecutive failures open the circuit.

    ``closed`` admits probes; after ``threshold`` consecutive failures
    the circuit opens for ``cooldown`` seconds (no probes at all), then
    half-opens for a single probe — success closes it, failure re-opens
    with the cooldown doubled (capped at ``max_cooldown``).
    """

    threshold: int = 3
    cooldown: float = 2.0
    max_cooldown: float = 60.0
    failures: int = 0
    state: str = "closed"  # closed | open | half-open
    _open_until: float = field(default=0.0, repr=False)
    _current_cooldown: float = field(default=0.0, repr=False)

    def record_success(self) -> None:
        self.failures = 0
        self.state = "closed"
        self._current_cooldown = 0.0

    def record_failure(self, now: float) -> bool:
        """Count one failure; returns True when this opened the circuit."""
        self.failures += 1
        if self.state == "half-open":
            self._current_cooldown = min(
                self.max_cooldown, self._current_cooldown * 2.0 or self.cooldown
            )
            self.state = "open"
            self._open_until = now + self._current_cooldown
            return True
        if self.state == "closed" and self.failures >= self.threshold:
            self.state = "open"
            self._current_cooldown = self.cooldown
            self._open_until = now + self._current_cooldown
            return True
        return False

    def allows_probe(self, now: float) -> bool:
        """May the heartbeat touch this worker right now?"""
        if self.state == "closed":
            return True
        if self.state == "open" and now >= self._open_until:
            self.state = "half-open"
            return True
        return self.state == "half-open"


@dataclass
class _Slot:
    """Supervisor-internal bookkeeping for one fleet slot."""

    handle: WorkerHandle | None = None
    breaker: CircuitBreaker = field(default_factory=CircuitBreaker)
    healthy: bool = False
    relaunch_attempt: int = 0
    next_relaunch_at: float = 0.0


class StaticMembership:
    """The trivial membership source: an explicitly managed host list.

    What ``sweep-grid --fleet`` uses when attaching to an already-running
    fleet from its state file, and what tests use to drive mid-sweep
    joins without a supervisor: ``add()`` a host while a sweep is running
    and the elastic transport starts pumping it.
    """

    def __init__(self, hosts: Sequence[tuple[str, int]] = ()) -> None:
        self._hosts = [(str(h), int(p)) for h, p in hosts]
        self._lock = threading.Lock()

    def hosts(self) -> list[tuple[str, int]]:
        with self._lock:
            return list(self._hosts)

    def add(self, host: str, port: int) -> None:
        with self._lock:
            self._hosts.append((str(host), int(port)))

    def remove(self, host: str, port: int) -> None:
        with self._lock:
            self._hosts = [hp for hp in self._hosts if hp != (str(host), int(port))]


class FleetSupervisor:
    """Start, watch, heal and retire a fleet of solver workers.

    ``start()`` launches ``workers`` slots through the ``launcher`` and
    spins up the heartbeat thread; from then on :meth:`hosts` is the
    live membership (healthy workers only) that
    :class:`~repro.engine.transport.RemoteTransport` polls.  Crashed
    workers are relaunched under ``relaunch_policy`` backoff; flapping
    ones are quarantined by their :class:`CircuitBreaker` and re-admitted
    through its half-open probe.  Every transition is appended to
    :attr:`events` as ``(kind, slot, detail)`` and mirrored in the
    counters (``relaunches``, ``quarantines``, ``readmissions``).

    Use as a context manager, or pair :meth:`start` with :meth:`stop`.
    """

    def __init__(
        self,
        workers: int = 2,
        launcher: Launcher | None = None,
        heartbeat_interval: float = 0.5,
        ping_timeout: float = 5.0,
        relaunch_policy: RetryPolicy | None = None,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 2.0,
    ) -> None:
        if workers < 1:
            raise ValueError(f"fleet needs at least one worker, got {workers}")
        self.n_workers = int(workers)
        self.launcher: Launcher = launcher if launcher is not None else LocalLauncher()
        self.heartbeat_interval = float(heartbeat_interval)
        self.ping_timeout = float(ping_timeout)
        self.relaunch_policy = (
            relaunch_policy
            if relaunch_policy is not None
            else RetryPolicy(max_retries=5, backoff_base=0.2, backoff_max=5.0)
        )
        self.breaker_threshold = int(breaker_threshold)
        self.breaker_cooldown = float(breaker_cooldown)
        self._slots: dict[int, _Slot] = {}
        self._lock = threading.RLock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self.events: list[tuple[str, int, str]] = []
        self.relaunches = 0
        self.quarantines = 0
        self.readmissions = 0

    # -- lifecycle ------------------------------------------------------------

    def start(self) -> "FleetSupervisor":
        with self._lock:
            for slot_index in range(self.n_workers):
                self._slots[slot_index] = self._launch_slot(slot_index)
        self._thread = threading.Thread(
            target=self._heartbeat_loop, name="fleet-heartbeat", daemon=True
        )
        self._thread.start()
        return self

    def _launch_slot(self, slot_index: int) -> _Slot:
        slot = _Slot(
            breaker=CircuitBreaker(
                threshold=self.breaker_threshold, cooldown=self.breaker_cooldown
            )
        )
        try:
            slot.handle = self.launcher.launch(slot_index)
            slot.healthy = True
            self._event("launch", slot_index, f"{slot.handle.host}:{slot.handle.port}")
        except Exception as exc:
            slot.handle = None
            slot.healthy = False
            self._event("launch-failed", slot_index, str(exc))
        return slot

    def add_worker(self) -> int:
        """Grow the fleet by one slot (launched immediately); returns its index."""
        with self._lock:
            slot_index = max(self._slots, default=-1) + 1
            self._slots[slot_index] = self._launch_slot(slot_index)
            self.n_workers = len(self._slots)
            return slot_index

    def detach(self) -> None:
        """Stop supervising without touching the worker processes.

        What detached ``repro fleet up`` uses: the heartbeat (and its
        relaunch machinery) stops, the workers live on as orphans
        findable through the state file.
        """
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None

    def stop(self, graceful: bool = True) -> None:
        """Tear the fleet down (SIGTERM drain by default) and stop the loop."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        with self._lock:
            slots = list(self._slots.items())
        for slot_index, slot in slots:
            if slot.handle is not None:
                try:
                    self.launcher.terminate(slot.handle, graceful=graceful)
                except Exception:
                    pass
                self._event("stop", slot_index, f"graceful={graceful}")

    def drain(self, timeout: float = 30.0) -> bool:
        """Ask every worker to drain (finish in-flight, then exit).

        Returns True when every managed worker process exited within
        ``timeout`` — with exit code 0, the no-request-dropped guarantee
        the chaos drill asserts.
        """
        from ..serve.client import ServeClient

        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=10.0)
            self._thread = None
        with self._lock:
            handles = [s.handle for s in self._slots.values() if s.handle is not None]
        for handle in handles:
            try:
                with ServeClient(
                    handle.host, handle.port, timeout=self.ping_timeout
                ) as client:
                    client.drain()
            except OSError:
                pass  # already gone — nothing in flight to preserve
        deadline = time.monotonic() + timeout
        clean = True
        for handle in handles:
            if handle.process is None:
                continue
            remaining = max(0.1, deadline - time.monotonic())
            try:
                code = handle.process.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                handle.process.kill()
                clean = False
                continue
            clean = clean and code == 0
        return clean

    def __enter__(self) -> "FleetSupervisor":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- membership -----------------------------------------------------------

    def hosts(self) -> list[tuple[str, int]]:
        """Endpoints of the currently *healthy* workers (the membership)."""
        with self._lock:
            return [
                slot.handle.endpoint
                for slot in self._slots.values()
                if slot.healthy and slot.handle is not None
            ]

    def status(self) -> list[dict]:
        """One row per slot: endpoint, health, breaker state, process pid."""
        with self._lock:
            rows = []
            for slot_index, slot in sorted(self._slots.items()):
                rows.append(
                    {
                        "slot": slot_index,
                        "host": slot.handle.host if slot.handle else None,
                        "port": slot.handle.port if slot.handle else None,
                        "pid": slot.handle.pid if slot.handle else None,
                        "healthy": slot.healthy,
                        "breaker": slot.breaker.state,
                        "consecutive_failures": slot.breaker.failures,
                    }
                )
            return rows

    def _event(self, kind: str, slot_index: int, detail: str = "") -> None:
        with self._lock:
            self.events.append((kind, slot_index, detail))

    # -- heartbeat ------------------------------------------------------------

    def _heartbeat_loop(self) -> None:
        while not self._stop.wait(self.heartbeat_interval):
            with self._lock:
                slots = list(self._slots.items())
            for slot_index, slot in slots:
                if self._stop.is_set():
                    return
                try:
                    self._check_slot(slot_index, slot)
                except Exception as exc:  # the loop must survive anything
                    self._event("heartbeat-error", slot_index, str(exc))

    def _check_slot(self, slot_index: int, slot: _Slot) -> None:
        now = time.monotonic()
        # Deterministic chaos: an armed kill-worker-process fault for this
        # slot SIGKILLs the worker exactly once — the heartbeat must then
        # detect the death and relaunch.
        fault = faults.take_one_shot("fleet", shard=slot_index)
        if fault is not None and slot.handle is not None and slot.handle.pid:
            try:
                os.kill(slot.handle.pid, signal.SIGKILL)
                self._event("chaos-kill", slot_index, f"pid={slot.handle.pid}")
            except ProcessLookupError:
                pass
        if not slot.breaker.allows_probe(now):
            return  # quarantined: cooldown still running
        half_open = slot.breaker.state == "half-open"
        ok = self._probe(slot)
        if ok:
            was_down = not slot.healthy
            slot.breaker.record_success()
            slot.healthy = True
            slot.relaunch_attempt = 0
            if half_open:
                self.readmissions += 1
                self._event(
                    "readmit",
                    slot_index,
                    f"{slot.handle.host}:{slot.handle.port}" if slot.handle else "",
                )
            elif was_down:
                self._event("recover", slot_index, "")
            return
        slot.healthy = False
        opened = slot.breaker.record_failure(now)
        if opened:
            self.quarantines += 1
            self._event(
                "quarantine",
                slot_index,
                f"{slot.breaker.failures} consecutive failures, "
                f"cooldown {slot.breaker._current_cooldown:g}s",
            )
        self._maybe_relaunch(slot_index, slot, now)

    def _probe(self, slot: _Slot) -> bool:
        """One health probe: process liveness, then a ping over a socket."""
        handle = slot.handle
        if handle is None:
            return False
        if not handle.alive():
            return False
        from ..serve.client import ServeClient, ServeError

        try:
            with ServeClient(
                handle.host, handle.port, timeout=self.ping_timeout,
                connect_timeout=self.ping_timeout,
            ) as client:
                client.ping()
            return True
        except ServeError as exc:
            # A structured answer (even Overloaded) proves the event loop
            # is alive — shedding load is healthy behaviour.
            return "Overloaded" in str(exc)
        except (OSError, ValueError):
            return False

    def _maybe_relaunch(self, slot_index: int, slot: _Slot, now: float) -> None:
        """Relaunch a dead *managed* worker under bounded backoff."""
        handle = slot.handle
        if handle is None or handle.process is None:
            if handle is not None:
                return  # unmanaged worker: nothing to relaunch, probes continue
        elif handle.alive():
            return  # process is up but unresponsive: let the breaker decide
        if now < slot.next_relaunch_at:
            return
        if slot.relaunch_attempt >= self.relaunch_policy.max_retries:
            return  # exhausted: stays quarantined until an operator acts
        slot.relaunch_attempt += 1
        slot.next_relaunch_at = now + self.relaunch_policy.backoff(slot.relaunch_attempt)
        if handle is not None and handle.process is not None:
            try:  # reap the corpse so it cannot zombie
                handle.process.poll()
            except Exception:
                pass
        try:
            slot.handle = self.launcher.launch(slot_index)
        except Exception as exc:
            self._event("relaunch-failed", slot_index, str(exc))
            return
        self.relaunches += 1
        # launch() blocked until the new worker printed its listening
        # banner, so the endpoint is verified-live: admit it right away
        # (queued shards should not wait one extra heartbeat).
        slot.breaker.record_success()
        slot.healthy = True
        self._event(
            "relaunch", slot_index, f"{slot.handle.host}:{slot.handle.port}"
        )


# -- fleet state files ---------------------------------------------------------


def save_fleet_state(path: str, supervisor: FleetSupervisor, cache_path=None) -> None:
    """Persist a running fleet's endpoints for other processes to attach.

    What ``repro fleet up`` writes: enough for ``fleet status``/``drain``/
    ``down`` and ``sweep-grid --fleet`` to find the workers without
    holding the supervisor object.
    """
    workers = [
        {"host": row["host"], "port": row["port"], "pid": row["pid"]}
        for row in supervisor.status()
        if row["port"] is not None
    ]
    state = {"version": FLEET_STATE_VERSION, "workers": workers}
    if cache_path:
        state["cache_path"] = str(cache_path)
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(state, fh, indent=2)
    os.replace(tmp, path)


def load_fleet_state(path: str) -> dict:
    """Read and validate a fleet state file."""
    with open(path, encoding="utf-8") as fh:
        state = json.load(fh)
    if not isinstance(state, dict) or state.get("version") != FLEET_STATE_VERSION:
        raise ValueError(
            f"{path}: not a {FLEET_STATE_VERSION} fleet state file"
        )
    workers = state.get("workers")
    if not isinstance(workers, list):
        raise ValueError(f"{path}: fleet state has no workers list")
    return state
