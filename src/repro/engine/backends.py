"""Execution backends for ``solve_stack``: five names, two mechanisms.

The facade decides *what* to solve (method selection, validation,
caching); a backend decides *how* the stack is executed.  Every backend
name is a preset that :func:`get_backend` maps onto one of two
mechanisms:

==================  ========================  =====================  ==============================
name                mechanism                 transport              policy
==================  ========================  =====================  ==============================
``serial``          :class:`InProcessBackend`  —                      per-scenario scalar loop
``batched``         :class:`InProcessBackend`  —                      one vectorized kernel call
``process-sharded`` :class:`Dispatcher`        local processes        no retries, no shard timeout
``resilient``       :class:`Dispatcher`        local processes        the caller's ``RetryPolicy``
``remote``          :class:`Dispatcher`        ``repro worker`` hosts the caller's ``RetryPolicy``
==================  ========================  =====================  ==============================

Every preset produces trajectories that agree to ≤1e-10 — the parity
suite in ``tests/test_backends.py`` pins them against each other.

This module must not import :mod:`repro.solvers` at module scope (the
solvers package imports the engine); worker entry points import the
facade lazily.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import replace
from typing import TYPE_CHECKING, Any, Mapping, Protocol, Sequence

import numpy as np

from . import faults
from .batched import (
    BatchedMultiClassResult,
    BatchedMultiClassTrajectory,
    BatchedMVAResult,
    ScenarioFailure,
    batched_exact_multiclass,
    batched_exact_mva,
    batched_ld_mva,
    batched_multiclass_mvasd,
    batched_mvasd,
    batched_schweitzer_amva,
    mix_populations,
)
from .fabric import Dispatcher, RemoteBackend
from .resilience import RetryPolicy
from .sweep import resolve_workers

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids the import cycle
    from ..solvers.registry import SolverSpec
    from ..solvers.scenario import Scenario

__all__ = [
    "ExecutionBackend",
    "InProcessBackend",
    "ProcessShardedBackend",
    "backend_names",
    "get_backend",
    "scenario_offset",
    "shard_bounds",
    "solve_isolated",
    "solve_isolated_batched",
]


class ExecutionBackend(Protocol):
    """How a stack of topology-sharing scenarios gets executed."""

    name: str

    def run(
        self,
        spec: "SolverSpec",
        scenarios: Sequence["Scenario"],
        options: Mapping[str, Any],
    ) -> BatchedMVAResult:
        """Solve every scenario with ``spec`` and stack the trajectories."""
        ...  # pragma: no cover - protocol


def _failure_record(
    scenario: "Scenario", index: int, solver: str, exc: BaseException, retries: int
) -> ScenarioFailure:
    try:
        fingerprint = scenario.fingerprint()
    except Exception:
        # A demand model broken enough to fail fingerprinting still gets
        # a record — the index and error keep it actionable.
        fingerprint = "<unavailable>"
    return ScenarioFailure(
        index=index,
        fingerprint=fingerprint,
        solver=solver,
        error=f"{type(exc).__name__}: {exc}",
        retries=retries,
    )


def solve_isolated(
    spec: "SolverSpec",
    scenarios: Sequence["Scenario"],
    options: Mapping[str, Any],
    retries: int = 0,
    isolate: bool = True,
):
    """The per-scenario scalar loop, stacked into one batched container.

    Works for every trajectory and multi-class method.  With
    ``isolate=False`` the first failure propagates — that is the
    ``serial`` backend.  Otherwise failed scenarios contribute NaN rows
    plus a :class:`ScenarioFailure` record, and ``retries`` stamps the
    records with how many recovery attempts preceded isolation.
    """
    scenarios = list(scenarios)
    offset = _scenario_offset()
    results: dict[int, Any] = {}
    failures: list[ScenarioFailure] = []
    for i, sc in enumerate(scenarios):
        try:
            faults.maybe_inject("kernel", scenario=offset + i)
            results[i] = spec.solve(sc, **options)
        except Exception as exc:
            if not isolate:
                raise
            failures.append(_failure_record(sc, i, spec.name, exc, retries))
    return _stack_scalar_results(spec, scenarios, results, failures)


def _stack_scalar_results(spec, scenarios, results, failures):
    """Stack per-scenario scalar results along the container's layout.

    Scenarios missing from ``results`` (failed) get NaN rows.  The
    ``given`` fields are not read row by row from the scalar results:
    the shared ones come from the first survivor, or from the scenario
    description when nothing survived.
    """
    first_sc = scenarios[0]
    first = next(iter(results.values()), None)
    n = first_sc.max_population
    if spec.returns != "multiclass":
        cls = BatchedMVAResult
        # The concrete scalar label ("stacked-linearizer-amva", not the
        # registry alias) — cache keys and bench reports depend on it.
        solver = f"stacked-{first.solver}" if first is not None else spec.name
        given = {
            "populations": first.populations if first is not None else np.arange(1, n + 1),
            "think_times": np.array([sc.think for sc in scenarios]),
        }
    else:
        # Multi-class scalar results carry no per-result solver label;
        # the registry name is the concrete one.
        solver = f"stacked-{spec.name}"
        given = {
            "class_names": first_sc.class_names,
            "think_times": np.asarray(first_sc.class_think_times, dtype=float),
        }
        trajectory = (
            hasattr(first, "totals")
            if first is not None
            else spec.batched_kernel == "multiclass-mvasd"
        )
        if trajectory:
            cls = BatchedMultiClassTrajectory
            if first is not None:
                given.update(totals=first.totals, populations=first.populations)
            else:
                weights = np.array(first_sc.class_populations, dtype=float)
                given.update(
                    totals=np.arange(1, n + 1),
                    populations=mix_populations(weights / weights.sum(), n),
                )
        else:
            cls = BatchedMultiClassResult
            given["populations"] = first_sc.class_populations
    dims = {
        "n": n,
        "t": n,
        "k": len(first_sc.station_names),
        "c": len(first_sc.classes) if first_sc.is_multiclass else 0,
    }
    columns: dict[str, Any] = {}
    for name, letters in cls.layout.stacked.items():
        if name in given:
            continue
        rows = {i: getattr(r, name, None) for i, r in results.items()}
        if name == "demands_used" and (not rows or any(v is None for v in rows.values())):
            columns[name] = None
            continue
        column = np.full((len(scenarios), *(dims[d] for d in letters)), np.nan)
        for i, row in rows.items():
            column[i] = row
        columns[name] = column
    return cls(
        station_names=first_sc.station_names,
        solver=solver,
        backend="serial",
        failures=tuple(failures),
        **given,
        **columns,
    )


def _kernel_input(spec: "SolverSpec", scenario: "Scenario") -> np.ndarray:
    """The per-scenario input row the method's batched kernel consumes.

    Extracting rows one scenario at a time (rather than inside the
    kernel) is what lets the ``errors="isolate"`` path probe each
    scenario independently and substitute a placeholder for poisoned
    rows before the single vectorized call.
    """
    kernel = spec.batched_kernel
    if kernel in ("exact-mva", "schweitzer-amva"):
        return scenario.fixed_demands(spec.name)
    if kernel == "mvasd":
        return scenario.resolved_demand_matrix(spec.name)
    if kernel == "ld-mva":
        # Packed (K, N+1) row: demand column + the mu_k(j) rate matrix.
        return np.concatenate(
            [scenario.fixed_demands(spec.name)[:, None], scenario.ld_rate_matrix(spec.name)],
            axis=1,
        )
    if kernel == "exact-multiclass":
        return scenario.multiclass_demand_matrix(spec.name)
    if kernel == "multiclass-mvasd":
        return scenario.multiclass_demand_tensor(spec.name)
    from ..solvers.validation import SolverInputError

    raise SolverInputError(f"{spec.name}: unknown batched kernel {kernel!r}")


def _kernel_input_shape(spec: "SolverSpec", scenario: "Scenario") -> tuple[int, ...]:
    """Shape of one kernel input row — for masked-out placeholder rows."""
    k = len(scenario.network.stations)
    n = scenario.max_population
    kernel = spec.batched_kernel
    if kernel in ("exact-mva", "schweitzer-amva"):
        return (k,)
    if kernel == "mvasd":
        return (n, k)
    if kernel == "ld-mva":
        return (k, n + 1)
    c = len(scenario.classes) if scenario.is_multiclass else 0
    if kernel == "exact-multiclass":
        return (k, c)
    return (n, k, c)


def _run_kernel(spec, scenarios, rows, options, mask=None):
    """One vectorized kernel call over pre-extracted input ``rows``.

    ``mask`` (optional ``(S,)`` bool, ``True`` = solve) flows straight
    into the kernel's in-recursion NaN masking — masked rows come back
    all-NaN without demoting the healthy rows to a scalar loop.
    """
    first = scenarios[0]
    kernel = spec.batched_kernel
    if kernel in ("exact-multiclass", "multiclass-mvasd"):
        if first.is_multiserver:
            from ..solvers.facade import SolverCapabilityError

            raise SolverCapabilityError(
                f"{spec.name}: multi-class solvers take single-server/delay "
                f"stations only — Seidmann-transform the network first "
                f"(repro.core.amva.seidmann_transform)"
            )
        stack = np.stack(rows)
        kinds = tuple(st.kind for st in first.network.stations)
        if kernel == "exact-multiclass":
            return batched_exact_multiclass(
                stack,
                populations=first.class_populations,
                think_times=first.class_think_times,
                station_names=first.station_names,
                station_kinds=kinds,
                class_names=first.class_names,
                mask=mask,
            )
        return batched_multiclass_mvasd(
            station_names=first.station_names,
            class_names=first.class_names,
            demand_tensors=stack,
            mix=[float(p) for p in first.class_populations],
            max_total_population=first.max_population,
            think_times=first.class_think_times,
            station_kinds=kinds,
            mask=mask,
        )
    network = first.resolved_network()
    n = first.max_population
    think = np.array([sc.think for sc in scenarios])
    stack = np.stack(rows)
    if kernel == "exact-mva":
        return batched_exact_mva(network, n, stack, think_times=think, mask=mask)
    if kernel == "schweitzer-amva":
        return batched_schweitzer_amva(network, n, stack, think_times=think, mask=mask)
    if kernel == "ld-mva":
        return batched_ld_mva(network, n, stack, think_times=think, mask=mask)
    # _kernel_input already rejected unknown kernels; "mvasd" is what's left.
    return batched_mvasd(
        network,
        n,
        stack,
        single_server=bool(options.get("single_server", False)),
        think_times=think,
        mask=mask,
    )


def solve_isolated_batched(
    spec: "SolverSpec",
    scenarios: Sequence["Scenario"],
    options: Mapping[str, Any],
    retries: int = 0,
):
    """Masked-kernel isolation: failed rows NaN, healthy rows stay batched.

    Probes every scenario's kernel input independently (the injection
    point and the place bad demand models blow up); scenarios whose
    probe fails are masked out of the single vectorized kernel call
    with a placeholder row, so surviving scenarios keep batched speed.
    Falls back to :func:`solve_isolated` if the masked kernel call
    itself still fails.
    """
    scenarios = list(scenarios)
    offset = _scenario_offset()
    rows: list[np.ndarray] = []
    mask = np.ones(len(scenarios), dtype=bool)
    failures: list[ScenarioFailure] = []
    for i, sc in enumerate(scenarios):
        try:
            faults.maybe_inject("kernel", scenario=offset + i)
            row = np.asarray(_kernel_input(spec, sc), dtype=float)
            if not np.isfinite(row).all():
                raise ValueError("non-finite demands")
            rows.append(row)
        except Exception as exc:
            mask[i] = False
            rows.append(np.ones(_kernel_input_shape(spec, sc)))
            failures.append(_failure_record(sc, i, spec.name, exc, retries))
    try:
        result = _run_kernel(
            spec, scenarios, rows, options, mask=None if mask.all() else mask
        )
    except Exception:
        # The kernel failed on the surviving rows too (or the probe
        # missed a poison the full recursion hits) — degrade all the way.
        return solve_isolated(spec, scenarios, options, retries=retries)
    return replace(result, backend="batched", failures=tuple(failures))


class InProcessBackend:
    """``serial`` and ``batched``: the whole stack solved in this process.

    ``batched`` is one vectorized :mod:`repro.engine.batched` recursion
    advancing all scenarios together (the method must register a
    ``batched_kernel``); ``serial`` is the per-scenario scalar loop of
    :func:`solve_isolated`.  With ``errors="isolate"`` a failing kernel
    call falls back to :func:`solve_isolated_batched`, and the loop
    records failures instead of raising the first one.
    """

    def __init__(self, name: str = "batched", errors: str = "raise") -> None:
        self.name = name
        self.errors = errors

    def run(self, spec, scenarios, options):
        isolate = self.errors == "isolate"
        if self.name == "serial":
            return solve_isolated(spec, scenarios, options, isolate=isolate)
        try:
            if faults.active_plan() is not None:
                # A poisoned scenario takes the whole vectorized recursion
                # down with it — exactly the failure mode errors="isolate"
                # and the dispatcher's degradation chain exist to contain.
                offset = _scenario_offset()
                for i in range(len(scenarios)):
                    faults.maybe_inject("kernel", scenario=offset + i)
            rows = [_kernel_input(spec, sc) for sc in scenarios]
            result = _run_kernel(spec, scenarios, rows, options)
        except Exception:
            if not isolate:
                raise
            return solve_isolated_batched(spec, scenarios, options)
        return replace(result, backend=self.name)


#: Global scenario index of the first scenario the current (sub-)stack
#: solve covers — lets shard workers report fault/failure indices in the
#: coordinates of the full stack.  Worker-local (set after fork) or
#: save/restored around in-parent shard retries.
_SCENARIO_OFFSET = 0


def _scenario_offset() -> int:
    return _SCENARIO_OFFSET


@contextmanager
def scenario_offset(start: int):
    """Publish ``start`` as the stack offset for the enclosed solve."""
    global _SCENARIO_OFFSET
    previous = _SCENARIO_OFFSET
    _SCENARIO_OFFSET = start
    try:
        yield
    finally:
        _SCENARIO_OFFSET = previous


def shard_bounds(n_scenarios: int, workers: int | None) -> list[tuple[int, int, int]]:
    """Contiguous ``(shard_index, start, stop)`` slices of a stack."""
    n_shards = min(resolve_workers(workers), n_scenarios)
    edges = np.linspace(0, n_scenarios, n_shards + 1).astype(int)
    return [
        (i, int(edges[i]), int(edges[i + 1]))
        for i in range(n_shards)
        if edges[i] < edges[i + 1]
    ]


def _solve_shard(bounds, payload):
    """Worker entry point: solve one contiguous slice of the shared stack.

    ``payload`` (method name, child backend, the full scenario list,
    options) is fork-inherited, so only the ``(shard, start, stop)``
    bounds and the result arrays are ever pickled.  Also the injection
    point for shard-level faults (worker crash, wedged worker) and the
    place the shard's scenario offset is published so kernel-level
    faults and failure records use full-stack indices.
    """
    from ..solvers.facade import solve_stack

    method, child_backend, scenarios, options = payload
    shard, start, stop = bounds
    faults.maybe_inject("shard", shard=shard)
    with scenario_offset(start):
        return solve_stack(
            scenarios[start:stop],
            method=method,
            backend=child_backend,
            cache=None,
            **options,
        )


def _concat_results(parts: Sequence[Any], backend: str):
    """Reassemble sharded sub-stack results along the scenario axis."""
    failures = []
    offset = 0
    for p in parts:
        failures.extend(replace(f, index=offset + f.index) for f in p.failures)
        offset += p.n_scenarios
    columns = {}
    for name in parts[0].layout.stacked:
        values = [getattr(p, name) for p in parts]
        # demands_used is optional: one part without it drops it stack-wide
        columns[name] = None if any(v is None for v in values) else np.concatenate(values)
    return replace(parts[0], **columns, backend=backend, failures=tuple(failures))


class ProcessShardedBackend(Dispatcher):
    """``process-sharded``: the :class:`Dispatcher` preset with no retries.

    Zero retries and no shard timeout over a local process transport.
    Contiguous sub-stacks fan out over forked
    :func:`~repro.engine.sweep.parallel_map` workers; a shard that fails
    there is re-solved in-process through the dispatcher's
    batched → serial degradation, and a deterministic failure then
    raises (or, with ``errors="isolate"``, is isolated per shard).
    """

    def __init__(self, workers: int | None = None, errors: str = "raise") -> None:
        from .transport import LocalProcessTransport  # deferred: imports us

        super().__init__(
            LocalProcessTransport(workers),
            name="process-sharded",
            policy=RetryPolicy(max_retries=0, shard_timeout=None),
            errors=errors,
        )

    # Its own attribute (not inherited), so process-sharded runs can be
    # traced apart from every other Dispatcher run.
    def run(self, spec, scenarios, options):
        return super().run(spec, scenarios, options)


def backend_names() -> tuple[str, ...]:
    """The selectable execution backends, cheapest-to-set-up first."""
    return ("serial", "batched", "process-sharded", "resilient", "remote")


def get_backend(
    name: str,
    workers: int | None = None,
    errors: str = "raise",
    **dispatch,
) -> ExecutionBackend:
    """The one table from a backend name to its mechanism (module docstring).

    ``workers`` sizes the local process transport of ``process-sharded``
    and ``resilient``.  ``dispatch`` (``policy``, ``checkpoint``,
    ``sleep`` — plus ``hosts``/``membership`` and the other
    :class:`~repro.engine.fabric.RemoteBackend` knobs for ``remote``)
    configures the caller-tuned dispatcher presets; the in-process and
    ``process-sharded`` presets fix their own policy and ignore it.
    """
    if name in ("serial", "batched"):
        return InProcessBackend(name, errors=errors)
    if name == "process-sharded":
        return ProcessShardedBackend(workers, errors=errors)
    if name == "resilient":
        from .transport import LocalProcessTransport  # deferred: imports us

        return Dispatcher(
            LocalProcessTransport(workers), name=name, errors=errors, **dispatch
        )
    if name == "remote":
        return RemoteBackend(errors=errors, **dispatch)
    raise ValueError(f"unknown backend {name!r}; known: {backend_names()}")
