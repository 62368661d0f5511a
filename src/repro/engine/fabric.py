"""The execution fabric: plan → dispatch → transport, as separate layers.

:class:`WorkPlan` (*planning*)
    What to solve: the contiguous :class:`WorkShard` slices of a stack
    (via :func:`~repro.engine.backends.shard_bounds`), each carrying its
    content-addressed :meth:`SweepCheckpoint.shard_key` so completed
    work is recognizable across runs.
:class:`Dispatcher` (*dispatch*)
    How failures are survived: the staged
    sharded → batched → serial → isolate degradation chain with
    :class:`~repro.engine.resilience.RetryPolicy` backoff, per-shard
    timeouts, checkpoint journaling as shards land, and
    :func:`~repro.engine.backends._concat_results` reassembly.  The
    attempt counter published to :mod:`repro.engine.faults` stays
    monotone across stages, so deterministic faults fire exactly once.
:class:`~repro.engine.transport.Transport` (*transport*)
    Where a shard physically runs — forked local processes
    (:class:`~repro.engine.transport.LocalProcessTransport`) or a fleet
    of ``repro worker`` hosts over JSON lines
    (:class:`~repro.engine.transport.RemoteTransport`).  The dispatcher
    never knows the difference.

The ``process-sharded``, ``resilient`` and ``remote`` backends are all
this one :class:`Dispatcher`, configured by
:func:`~repro.engine.backends.get_backend`; :class:`RemoteBackend` adds
only the wire-capability check and the transport's lifetime.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from . import backends, faults
from .resilience import RetryPolicy, SweepCheckpoint

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..solvers.registry import SolverSpec
    from ..solvers.scenario import Scenario
    from .transport import Transport

__all__ = [
    "Dispatcher",
    "RemoteBackend",
    "WorkPlan",
    "WorkShard",
]


@dataclass(frozen=True)
class WorkShard:
    """One contiguous slice of a scenario stack, with its journal key."""

    index: int
    start: int
    stop: int
    key: str | None = None

    @property
    def bounds(self) -> tuple[int, int, int]:
        """The ``(shard, start, stop)`` tuple transports consume."""
        return (self.index, self.start, self.stop)

    @property
    def n_scenarios(self) -> int:
        return self.stop - self.start


@dataclass(frozen=True)
class WorkPlan:
    """The partitioning of one stack solve, before anything executes."""

    method: str
    child_backend: str
    shards: tuple[WorkShard, ...]
    n_scenarios: int

    @classmethod
    def build(
        cls,
        spec: "SolverSpec",
        scenarios: Sequence["Scenario"],
        options: Mapping[str, Any],
        n_shards: int,
        checkpoint: SweepCheckpoint | None = None,
    ) -> "WorkPlan":
        """Partition ``scenarios`` into at most ``n_shards`` shards.

        When a ``checkpoint`` is given, each shard is stamped with its
        content-addressed journal key (``None`` for uncacheable
        requests) so the dispatcher can recognize completed work.
        """
        scenarios = list(scenarios)
        shards = []
        for i, start, stop in backends.shard_bounds(len(scenarios), n_shards):
            key = None
            if checkpoint is not None:
                key = SweepCheckpoint.shard_key(
                    spec.name,
                    options,
                    [sc.fingerprint() for sc in scenarios[start:stop]],
                )
            shards.append(WorkShard(i, start, stop, key))
        return cls(
            method=spec.name,
            child_backend="batched" if spec.batched_kernel else "serial",
            shards=tuple(shards),
            n_scenarios=len(scenarios),
        )


class Dispatcher:
    """Transport-agnostic staged execution of a :class:`WorkPlan`.

    Execution proceeds in stages, and only *failed* work is ever redone:

    1. **Transport fan-out** — pending shards go to
       ``transport.run_shards`` with the policy's per-shard timeout;
       shards that come back as exceptions are retried with exponential
       backoff up to ``policy.max_retries`` times.  Completed shards are
       journaled to the checkpoint (if any) as they land.  Skipped
       entirely when ``transport.fan_out`` says the fan-out is not worth
       it (e.g. one local worker).
    2. **In-process degradation** — shards that exhaust their retries
       are re-solved in the driver: the method's batched kernel first
       (if registered), then the serial per-scenario loop.
    3. **Per-scenario isolation** — scenarios that still fail are
       raised (``errors="raise"``) or recorded as
       :class:`~repro.engine.batched.ScenarioFailure` entries with NaN
       rows (``errors="isolate"``).

    ``errors``, the policy default and checkpoint-path coercion are
    checked here and nowhere else: every dispatcher preset of
    :func:`~repro.engine.backends.get_backend` goes through them.
    """

    def __init__(
        self,
        transport: "Transport",
        name: str | None = None,
        policy: RetryPolicy | None = None,
        checkpoint: SweepCheckpoint | str | None = None,
        errors: str = "raise",
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        if errors not in ("raise", "isolate"):
            raise ValueError(f"errors must be 'raise' or 'isolate', got {errors!r}")
        self.transport = transport
        self.name = name if name is not None else transport.name
        self.policy = policy if policy is not None else RetryPolicy()
        if checkpoint is not None and not isinstance(checkpoint, SweepCheckpoint):
            checkpoint = SweepCheckpoint(checkpoint)
        self.checkpoint = checkpoint
        self.errors = errors
        self._sleep = sleep

    def run(self, spec, scenarios, options):
        policy = self.policy
        scenarios = list(scenarios)
        plan = WorkPlan.build(
            spec,
            scenarios,
            options,
            n_shards=self.transport.preferred_shards(len(scenarios)),
            checkpoint=self.checkpoint,
        )
        parts: dict[int, Any] = {}
        retries: dict[int, int] = {s.index: 0 for s in plan.shards}

        if self.checkpoint is not None:
            completed = self.checkpoint.load()
            for shard in plan.shards:
                part = completed.get(shard.key) if shard.key is not None else None
                if part is not None and part.n_scenarios == shard.n_scenarios:
                    parts[shard.index] = part

        pending = [s for s in plan.shards if s.index not in parts]
        payload = (spec.name, plan.child_backend, scenarios, dict(options))
        attempt = 0
        try:
            # Stage 1: transport fan-out with bounded retry + backoff.
            if self.transport.fan_out(len(plan.shards)):
                while pending and attempt <= policy.max_retries:
                    if attempt:
                        self._sleep(policy.backoff(attempt))
                    faults.set_attempt(attempt)
                    outs = self.transport.run_shards(
                        [s.bounds for s in pending],
                        payload,
                        timeout=policy.shard_timeout,
                        return_exceptions=True,
                    )
                    still_failed = []
                    for shard, out in zip(pending, outs):
                        if isinstance(out, BaseException):
                            retries[shard.index] += 1
                            still_failed.append(shard)
                        else:
                            parts[shard.index] = out
                            if self.checkpoint is not None:
                                self.checkpoint.record(shard.key, out)
                    pending = still_failed
                    attempt += 1

            # Stage 2/3: in-process degradation, then isolation.
            for shard in pending:
                sub = scenarios[shard.start : shard.stop]
                part = None
                last_exc: BaseException | None = None
                chain = ["batched"] if spec.batched_kernel else []
                chain.append("serial")
                with backends.scenario_offset(shard.start):
                    for backend_name in chain:
                        faults.set_attempt(attempt)
                        attempt += 1
                        try:
                            part = backends.get_backend(backend_name).run(
                                spec, sub, options
                            )
                            break
                        except Exception as exc:
                            retries[shard.index] += 1
                            last_exc = exc
                    if part is None:
                        faults.set_attempt(attempt)
                        attempt += 1
                        if self.errors != "isolate":
                            raise last_exc
                        if spec.batched_kernel is not None:
                            part = backends.solve_isolated_batched(
                                spec, sub, options, retries=retries[shard.index]
                            )
                        else:
                            part = backends.solve_isolated(
                                spec, sub, options, retries=retries[shard.index]
                            )
                parts[shard.index] = part
                if self.checkpoint is not None:
                    self.checkpoint.record(shard.key, part)
        finally:
            faults.set_attempt(0)

        ordered = [parts[s.index] for s in plan.shards]
        return backends._concat_results(ordered, self.name)


def _check_remote_capability(spec, scenarios, options) -> None:
    """Reject stacks the wire codec cannot ship faithfully.

    Remote solves must be *bit-identical* to local ones, so anything the
    JSON codec cannot round-trip fingerprint-exactly is refused up front
    (the worker-side fingerprint verification would reject it anyway —
    this just fails fast with a better message).  Only the first
    scenario is round-trip-probed; per-scenario drift is still caught by
    the worker and degrades to a local re-solve of that shard.
    """
    import json as _json

    from ..solvers.facade import SolverCapabilityError

    first = scenarios[0]
    if first.is_multiclass and first.has_varying_demands:
        level = float(first.demand_level)
        if level != int(level) or not 1 <= level <= first.max_population:
            # Class fingerprints sample integer totals only, so an
            # off-grid freeze level would round-trip fingerprint-equal
            # while the decoded interpolant evaluates differently there.
            raise SolverCapabilityError(
                "remote backend: multi-class stacks with varying demands need "
                "an integer demand_level within 1..max_population to cross "
                "the wire exactly — solve locally"
            )
    if options.get("demand_axis") == "throughput":
        raise SolverCapabilityError(
            "remote backend: demand_axis='throughput' evaluates demand curves "
            "off the integer population grid the wire codec ships — solve "
            "locally (mirrors the cache's uncacheable rule)"
        )
    try:
        _json.dumps(dict(options))
    except (TypeError, ValueError):
        raise SolverCapabilityError(
            "remote backend: options must be JSON-serializable — callable "
            "rates= laws cannot cross the wire (encode them as "
            "Scenario.rate_tables)"
        ) from None
    from ..serve.protocol import ProtocolError, decode_scenario, encode_scenario

    try:
        encoded = encode_scenario(first)
        roundtrip = decode_scenario(encoded).fingerprint()
    except ProtocolError as exc:
        raise SolverCapabilityError(f"remote backend: {exc}") from None
    if roundtrip != first.fingerprint():
        raise SolverCapabilityError(
            "remote backend: scenario does not survive the wire codec "
            "fingerprint-identically (off-grid demand_level on a "
            "varying-demand scenario?) — solve locally"
        )


class RemoteBackend(Dispatcher):
    """``backend="remote"``: shards solved by ``repro worker`` hosts.

    The :class:`Dispatcher` over a
    :class:`~repro.engine.transport.RemoteTransport` to ``hosts`` (or to
    an elastic ``membership``), so remote sweeps share the retry/backoff,
    checkpoint journaling and in-process degradation of every other
    dispatcher preset.  A fleet that dies entirely never aborts the
    sweep: the dispatcher finishes it locally.  Each run first checks
    that the stack survives the wire codec, and closes the transport's
    connections when it ends.
    """

    def __init__(
        self,
        hosts: Sequence[str | tuple] | str = (),
        policy: RetryPolicy | None = None,
        checkpoint: SweepCheckpoint | str | None = None,
        errors: str = "raise",
        shards_per_host: int | None = None,
        connect_timeout: float = 10.0,
        membership=None,
        reprobe_interval: float = 0.5,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        from .transport import DEFAULT_SHARDS_PER_HOST, RemoteTransport, parse_hosts

        transport = RemoteTransport(
            parse_hosts(hosts) if isinstance(hosts, str) else hosts,
            connect_timeout=connect_timeout,
            shards_per_host=(
                DEFAULT_SHARDS_PER_HOST if shards_per_host is None else shards_per_host
            ),
            membership=membership,
            reprobe_interval=reprobe_interval,
        )
        super().__init__(
            transport,
            name="remote",
            policy=policy,
            checkpoint=checkpoint,
            errors=errors,
            sleep=sleep,
        )

    @property
    def last_transport(self):
        """The transport runs go through — read its elastic counters
        (``overload_retries``, ``readmissions``) after a run."""
        return self.transport

    def run(self, spec, scenarios, options):
        _check_remote_capability(spec, scenarios, options)
        try:
            return super().run(spec, scenarios, options)
        finally:
            self.transport.close()
