"""High-throughput execution layer for solver and simulation sweeps.

``repro.engine.batched``
    Vectorized NumPy kernels that advance S scenarios through one MVA /
    AMVA / MVASD population recursion at once — demand stacks of shape
    ``(S, K)`` or ``(S, N, K)``, per-level work amortized over the whole
    grid.  Results match the scalar solvers to 1e-10.  Also the three
    stack containers and the :class:`StackLayout` every codec of them
    derives from.
``repro.engine.sweep``
    Fork-join execution of independent tasks (DES replications,
    pipeline validations, what-if solves): :class:`ScenarioGrid`
    builders, an ordered :func:`parallel_map` over a process pool with a
    serial fallback, and :func:`spawn_seeds` for worker-count-invariant
    seeding.
``repro.engine.backends`` / ``repro.engine.fabric`` / ``repro.engine.transport``
    How ``solve_stack`` executes a stack.  Each backend name is a preset
    over one of two mechanisms:

    ===================  ==========================  =====================  ============================
    name                 mechanism                   transport              policy
    ===================  ==========================  =====================  ============================
    ``serial``           :class:`InProcessBackend`   —                      per-scenario scalar loop
    ``batched``          :class:`InProcessBackend`   —                      one vectorized kernel call
    ``process-sharded``  :class:`Dispatcher`         local processes        no retries, no shard timeout
    ``resilient``        :class:`Dispatcher`         local processes        caller's :class:`RetryPolicy`
    ``remote``           :class:`Dispatcher`         ``repro worker`` hosts caller's :class:`RetryPolicy`
    ===================  ==========================  =====================  ============================

    The :class:`Dispatcher` runs a :class:`WorkPlan` through the staged
    sharded → batched → serial → isolate degradation chain over a
    :class:`Transport` — forked local processes
    (:class:`LocalProcessTransport`) or a fleet of ``repro worker``
    hosts over the serve protocol (:class:`RemoteTransport`).
``repro.engine.resilience`` / ``repro.engine.faults``
    :class:`RetryPolicy` knobs, crash-safe :class:`SweepCheckpoint`
    journals keyed on scenario fingerprints, and the deterministic
    :class:`FaultPlan` injection harness that proves the recovery paths.

See ``benchmarks/bench_perf01_batch_speedup.py`` for the measured
speedups and the `repro sweep-grid` CLI subcommand for the command-line
surface.
"""

from .backends import (
    ExecutionBackend,
    InProcessBackend,
    ProcessShardedBackend,
    backend_names,
    get_backend,
    shard_bounds,
    solve_isolated,
    solve_isolated_batched,
)
from .batched import (
    BatchedMultiClassResult,
    BatchedMultiClassTrajectory,
    BatchedMVAResult,
    ScenarioFailure,
    StackLayout,
    batched_exact_multiclass,
    batched_exact_mva,
    batched_ld_mva,
    batched_multiclass_mvasd,
    batched_mvasd,
    batched_schweitzer_amva,
    demand_matrix_stack,
)
from .fabric import Dispatcher, RemoteBackend, WorkPlan, WorkShard
from .faults import Fault, FaultPlan, InjectedFault
from .resilience import RetryPolicy, SweepCheckpoint
from .supervisor import (
    CircuitBreaker,
    CommandLauncher,
    FleetSupervisor,
    Launcher,
    LocalLauncher,
    StaticMembership,
    WorkerHandle,
)
from .sweep import ScenarioGrid, parallel_map, resolve_workers, spawn_seeds
from .transport import (
    LocalProcessTransport,
    RemoteTransport,
    Transport,
    WorkerConnectionLost,
    WorkerOverloaded,
    parse_hosts,
)

__all__ = [
    "BatchedMVAResult",
    "BatchedMultiClassResult",
    "BatchedMultiClassTrajectory",
    "CircuitBreaker",
    "CommandLauncher",
    "Dispatcher",
    "ExecutionBackend",
    "Fault",
    "FaultPlan",
    "FleetSupervisor",
    "InProcessBackend",
    "InjectedFault",
    "Launcher",
    "LocalLauncher",
    "LocalProcessTransport",
    "ProcessShardedBackend",
    "RemoteBackend",
    "RemoteTransport",
    "RetryPolicy",
    "ScenarioFailure",
    "ScenarioGrid",
    "StackLayout",
    "StaticMembership",
    "SweepCheckpoint",
    "Transport",
    "WorkPlan",
    "WorkShard",
    "WorkerConnectionLost",
    "WorkerHandle",
    "WorkerOverloaded",
    "backend_names",
    "batched_exact_multiclass",
    "batched_exact_mva",
    "batched_ld_mva",
    "batched_multiclass_mvasd",
    "batched_mvasd",
    "batched_schweitzer_amva",
    "demand_matrix_stack",
    "get_backend",
    "parallel_map",
    "parse_hosts",
    "resolve_workers",
    "shard_bounds",
    "solve_isolated",
    "solve_isolated_batched",
    "spawn_seeds",
]
