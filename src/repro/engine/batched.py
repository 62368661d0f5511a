"""Batched MVA-family kernels — one recursion, S scenarios.

Every sweep artifact in this repo (deviation tables, what-if grids, the
Fig. 6/7/16 validation loops, the ablation benches) solves the *same*
recursion over a grid of demand vectors, demand scalings or think
times.  Solving the grid one scenario at a time leaves almost all of the
work in Python-level loop overhead: at every population level the
scalar solvers touch K stations with K-element arrays, so the NumPy
call overhead dominates the arithmetic.

The kernels here instead advance **all S scenarios together** through
the population recursion: demands come in as a stack of shape
``(S, K)`` (constant-demand solvers) or ``(S, N, K)`` (MVASD demand
matrices, precomputed once via
:func:`repro.core.mvasd.precompute_demand_matrix`), and every update is
an array operation over the scenario axis.  The per-level Python cost
is then paid once per level instead of once per level *per scenario*,
which is where the order-of-magnitude speedups of
``benchmarks/bench_perf01_batch_speedup.py`` come from.

The batched kernels perform the same floating-point operations in the
same order as their scalar counterparts (elementwise across the
scenario axis), so trajectories agree with
:func:`repro.core.mva.exact_mva`, :func:`repro.core.amva.schweitzer_amva`
and :func:`repro.core.mvasd.mvasd` to rounding — the equivalence suite
pins them to within 1e-10.

Scenarios must share the network *topology* (station kinds, server
counts) — that is what makes the recursion batchable — but may differ
in demands and think times.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import ClassVar, Mapping, Sequence

import numpy as np

from ..core.multiclass import MultiClassResult
from ..core.multiclass_amva import MultiClassTrajectory
from ..core.mvasd import DemandFn, precompute_demand_matrix
from ..core.network import ClosedNetwork
from ..core.results import MVAResult

__all__ = [
    "BatchedMVAResult",
    "BatchedMultiClassResult",
    "BatchedMultiClassTrajectory",
    "STACK_CONTAINERS",
    "ScenarioFailure",
    "StackLayout",
    "batched_exact_mva",
    "batched_exact_multiclass",
    "batched_ld_mva",
    "batched_multiclass_mvasd",
    "batched_schweitzer_amva",
    "batched_mvasd",
    "demand_matrix_stack",
]

# Mirrors of the scalar Schweitzer fixed-point controls (amva.py).
_MAX_ITER = 10_000
_TOL = 1e-10
# Mirror of the scalar Bard-Schweitzer controls (multiclass_amva.py).
_MC_MAX_ITER = 50_000


def _mask_stack(mask, s: int, solver: str) -> np.ndarray | None:
    """Validate an optional ``(S,)`` boolean scenario-validity mask.

    ``True`` rows are solved; ``False`` rows are excluded from input
    validation and the recursion (their inputs are replaced by benign
    placeholders) and come back as all-NaN output rows.  ``None`` keeps
    the strict all-rows-must-be-valid behavior.
    """
    if mask is None:
        return None
    arr = np.asarray(mask, dtype=bool)
    if arr.shape != (s,):
        raise ValueError(f"{solver}: expected a ({s},) scenario mask, got shape {arr.shape}")
    return arr


def _nan_rows(mask: np.ndarray | None, *arrays: np.ndarray) -> None:
    """Overwrite the masked-out scenario rows of each array with NaN."""
    if mask is None or mask.all():
        return
    for arr in arrays:
        arr[~mask] = np.nan


@dataclass(frozen=True)
class ScenarioFailure:
    """One scenario a ``solve_stack(errors="isolate")`` run could not solve.

    Carried on :attr:`BatchedMVAResult.failures` instead of aborting the
    stack; the failed scenario's rows in the result arrays are NaN.

    Attributes
    ----------
    index:
        Position of the scenario in the solved stack.
    fingerprint:
        :meth:`Scenario.fingerprint` content hash, so the failure can be
        matched to its scenario across runs (``"<unavailable>"`` when
        the demand model is too broken to fingerprint).
    solver:
        Registry name of the method that rejected the scenario.
    error:
        ``"ExcType: message"`` of the final exception.
    retries:
        How many recovery attempts the execution layer made before
        isolating the scenario.
    """

    index: int
    fingerprint: str
    solver: str
    error: str
    retries: int = 0


#: The field whose length each dimension letter of a layout shape names.
_EXTENTS = {"n": "populations", "t": "totals", "k": "station_names", "c": "class_names"}


@dataclass(frozen=True)
class StackLayout:
    """Where one stack container keeps its data.

    The one declaration that the shape checks, the shard concatenation,
    the per-scenario loop, the checkpoint journal and the ``solve_shard``
    wire codec all derive from.  Shapes are strings of dimension
    letters: ``n`` populations, ``t`` mix-sweep steps, ``k`` stations,
    ``c`` classes.

    Attributes
    ----------
    wire_kind / journal_tag:
        The container's name on the wire and in checkpoint records.
    labels:
        Tuple-of-string fields (station and class names).
    index:
        Integer population axes every scenario of the stack shares.
    shared:
        Float arrays every scenario of the stack shares.
    stacked:
        Float arrays with a leading scenario axis.  ``demands_used`` is
        the one optional (``None``) entry.
    """

    wire_kind: str
    journal_tag: str
    labels: tuple[str, ...]
    index: Mapping[str, str]
    shared: Mapping[str, str]
    stacked: Mapping[str, str]


class _Stack:
    """Checks and accessors common to the three stack containers."""

    layout: ClassVar[StackLayout]

    def __post_init__(self) -> None:
        dims = {d: len(getattr(self, f)) for d, f in _EXTENTS.items() if hasattr(self, f)}
        s = self.n_scenarios
        layout = self.layout
        for lead, fields in (((), layout.index), ((), layout.shared), ((s,), layout.stacked)):
            for name, letters in fields.items():
                value = getattr(self, name)
                if value is None and name == "demands_used":
                    continue
                shape = lead + tuple(dims[d] for d in letters)
                if np.shape(value) != shape:
                    raise ValueError(f"{name} must have shape {shape}")
        object.__setattr__(self, "failures", tuple(self.failures))
        for f in self.failures:
            if not 0 <= f.index < s:
                raise ValueError(
                    f"failure index {f.index} out of range for {s} scenarios"
                )

    @property
    def failed_indices(self) -> tuple[int, ...]:
        """Stack positions of the isolated scenarios, ascending."""
        return tuple(sorted(f.index for f in self.failures))

    @property
    def n_scenarios(self) -> int:
        return self.throughput.shape[0]

    def __len__(self) -> int:
        return self.n_scenarios


@dataclass(frozen=True)
class BatchedMVAResult(_Stack):
    """Trajectories of S scenarios solved in one batched recursion.

    The arrays carry a leading scenario axis on top of the scalar
    :class:`~repro.core.results.MVAResult` layout: ``throughput`` is
    ``(S, N)``, the per-station trajectories are ``(S, N, K)``.
    :meth:`scenario` slices one scenario back out as a plain
    :class:`MVAResult` for downstream code that expects the scalar
    container.
    """

    populations: np.ndarray
    throughput: np.ndarray
    response_time: np.ndarray
    queue_lengths: np.ndarray
    residence_times: np.ndarray
    utilizations: np.ndarray
    station_names: tuple[str, ...]
    think_times: np.ndarray
    solver: str
    demands_used: np.ndarray | None = None
    #: Execution backend that produced this result ("serial", "batched",
    #: "process-sharded", "resilient"), stamped by the solve_stack facade;
    #: ``None`` for results built by calling a kernel directly.
    backend: str | None = None
    #: Scenarios isolated by ``solve_stack(errors="isolate")`` — their
    #: rows in the trajectory arrays are NaN.  Empty for fault-free runs.
    failures: tuple[ScenarioFailure, ...] = ()

    layout: ClassVar[StackLayout] = StackLayout(
        wire_kind="batched-stack",
        journal_tag="mva",
        labels=("station_names",),
        index={"populations": "n"},
        shared={},
        stacked={
            "throughput": "n",
            "response_time": "n",
            "queue_lengths": "nk",
            "residence_times": "nk",
            "utilizations": "nk",
            "think_times": "",
            "demands_used": "nk",
        },
    )

    @property
    def cycle_time(self) -> np.ndarray:
        """``R^n + Z`` per scenario, shape ``(S, N)``."""
        return self.response_time + self.think_times[:, None]

    def peak_throughput(self) -> np.ndarray:
        """Max throughput over the population sweep, per scenario ``(S,)``."""
        return self.throughput.max(axis=1)

    def scenario(self, index: int) -> MVAResult:
        """One scenario's trajectories as a scalar :class:`MVAResult`."""
        s = self.n_scenarios
        if not -s <= index < s:
            raise IndexError(f"scenario index {index} out of range for {s} scenarios")
        return MVAResult(
            populations=self.populations,
            throughput=self.throughput[index],
            response_time=self.response_time[index],
            queue_lengths=self.queue_lengths[index],
            residence_times=self.residence_times[index],
            utilizations=self.utilizations[index],
            station_names=self.station_names,
            think_time=float(self.think_times[index]),
            solver=self.solver,
            demands_used=(
                np.array(self.demands_used[index])
                if self.demands_used is not None
                else None
            ),
        )


def _demand_stack(
    network: ClosedNetwork, demands, solver: str = "batched", mask: np.ndarray | None = None
) -> np.ndarray:
    """Validate and shape a ``(S, K)`` stack of constant demand vectors."""
    arr = np.asarray(demands, dtype=float)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2 or arr.shape[1] != len(network):
        raise ValueError(
            f"{solver}: expected a (S, {len(network)}) demand stack, "
            f"got shape {arr.shape}"
        )
    if mask is not None:
        # Masked-out rows may carry arbitrary garbage; neutralize them so
        # the validity checks and the recursion only see the live rows.
        arr = arr.copy()
        arr[~mask] = 1.0
    # isfinite before the sign check: NaN compares False against 0, so a
    # plain `arr < 0` guard would let NaN/Inf demands poison the recursion.
    if not np.isfinite(arr).all():
        raise ValueError(
            f"{solver}: demands must be finite, got non-finite values at "
            f"scenario indices {sorted(set(np.nonzero(~np.isfinite(arr))[0].tolist()))}"
        )
    if np.any(arr < 0):
        raise ValueError(f"{solver}: demands must be non-negative")
    return arr


def _think_stack(
    network: ClosedNetwork, think_times, s: int, mask: np.ndarray | None = None
) -> np.ndarray:
    """Per-scenario think times ``(S,)`` (default: the network's)."""
    if think_times is None:
        return np.full(s, network.think_time)
    z = np.asarray(think_times, dtype=float)
    if z.ndim == 0:
        z = np.full(s, float(z))
    if z.shape != (s,):
        raise ValueError(f"expected {s} think times, got shape {z.shape}")
    if mask is not None:
        # Masked rows keep their (reported) think time when it is usable —
        # the serial isolate path reports the real Z for failed scenarios
        # too — and only garbage values are neutralized.
        z = z.copy()
        with np.errstate(invalid="ignore"):
            dead = ~mask & (~np.isfinite(z) | (z < 0))
        z[dead] = 0.0
    if not np.isfinite(z).all():
        raise ValueError("think times must be finite")
    if np.any(z < 0):
        raise ValueError("think times must be non-negative")
    return z


def demand_matrix_stack(
    demand_functions: Sequence[Sequence[DemandFn]],
    max_population: int,
) -> np.ndarray:
    """Precompute the ``(S, N, K)`` demand-matrix stack for S scenarios.

    ``demand_functions`` holds one per-station callable sequence per
    scenario (all the same length K); each is evaluated once over the
    whole population grid via
    :func:`~repro.core.mvasd.precompute_demand_matrix`.
    """
    matrices = [
        precompute_demand_matrix(fns, max_population) for fns in demand_functions
    ]
    if not matrices:
        raise ValueError("need at least one scenario")
    return np.stack(matrices, axis=0)


def batched_exact_mva(
    network: ClosedNetwork,
    max_population: int,
    demands,
    think_times=None,
    mask=None,
) -> BatchedMVAResult:
    """Exact single-server MVA (Algorithm 1) over a stack of scenarios.

    Parameters
    ----------
    network:
        Shared topology (station kinds; servers are ignored exactly as in
        the scalar :func:`~repro.core.mva.exact_mva`).
    max_population:
        Largest population ``N``; results cover ``n = 1..N``.
    demands:
        ``(S, K)`` array — one constant demand vector per scenario.  A
        single ``(K,)`` vector is treated as ``S = 1``.
    think_times:
        Optional per-scenario think times ``(S,)`` (default: the
        network's ``Z`` for every scenario).
    mask:
        Optional ``(S,)`` boolean validity mask: ``False`` rows are
        skipped by input validation and return all-NaN trajectories
        while the surviving rows keep the batched recursion (the
        ``errors="isolate"`` path).  All masked kernels share this
        contract; survivors see exactly the arithmetic of an unmasked
        run because every update is elementwise along the scenario axis.
    """
    if max_population < 1:
        raise ValueError(f"max_population must be >= 1, got {max_population}")
    arr = np.asarray(demands, dtype=float)
    s0 = arr.shape[0] if arr.ndim > 1 else 1
    mask = _mask_stack(mask, s0, "batched-exact-mva")
    d = _demand_stack(network, demands, solver="batched-exact-mva", mask=mask)
    s, k = d.shape
    z = _think_stack(network, think_times, s, mask=mask)
    is_queue = np.array([st.kind == "queue" for st in network.stations])
    servers = network.servers().astype(float)

    pops = np.arange(1, max_population + 1)
    n_levels = max_population
    xs = np.empty((s, n_levels))
    rs = np.empty((s, n_levels))
    qs = np.empty((s, n_levels, k))
    rks = np.empty((s, n_levels, k))
    utils = np.empty((s, n_levels, k))

    q = np.zeros((s, k))
    for i, n in enumerate(pops):
        r_k = np.where(is_queue, d * (1.0 + q), d)
        r_total = r_k.sum(axis=1)
        x = n / (r_total + z)
        q = x[:, None] * r_k
        xs[:, i] = x
        rs[:, i] = r_total
        qs[:, i] = q
        rks[:, i] = r_k
        utils[:, i] = x[:, None] * d / servers

    demands_used = np.broadcast_to(d[:, None, :], (s, n_levels, k))
    if mask is not None:
        demands_used = demands_used.copy()
        _nan_rows(mask, xs, rs, qs, rks, utils, demands_used)
    return BatchedMVAResult(
        populations=pops,
        throughput=xs,
        response_time=rs,
        queue_lengths=qs,
        residence_times=rks,
        utilizations=utils,
        station_names=network.station_names,
        think_times=z,
        solver="batched-exact-mva",
        demands_used=demands_used,
    )


def batched_ld_mva(
    network: ClosedNetwork,
    max_population: int,
    inputs,
    think_times=None,
    mask=None,
) -> BatchedMVAResult:
    """Exact load-dependent MVA over a stack of scenarios.

    The hot kernel of hierarchical composition: every composed scenario
    (flow-equivalent stations carrying tabulated rate laws) resolves to
    one ``(K, N+1)`` row — column 0 is the constant demand vector,
    columns ``1..N`` the service-rate matrix ``mu_k(j)`` of
    :meth:`Scenario.ld_rate_matrix` — and the marginal-probability
    recursion of :func:`repro.core.ld_mva.exact_load_dependent_mva`
    advances all S scenarios together.  Per level the work is a handful
    of ``(S, K, n)`` array operations, elementwise along the scenario
    axis, so trajectories match the scalar solver to rounding.

    Parameters
    ----------
    network:
        Shared topology (station kinds and server counts; the rate
        matrix already folds the multi-server law in).
    max_population:
        Largest population ``N``; results cover ``n = 1..N``.
    inputs:
        ``(S, K, N+1)`` packed stack; a single ``(K, N+1)`` row is
        treated as ``S = 1``.  Delay stations carry ``+inf`` rate rows.
    think_times:
        Optional per-scenario think times ``(S,)``.
    mask:
        Optional ``(S,)`` validity mask, the
        :func:`batched_exact_mva` isolate contract.
    """
    if max_population < 1:
        raise ValueError(f"max_population must be >= 1, got {max_population}")
    arr = np.asarray(inputs, dtype=float)
    if arr.ndim == 2:
        arr = arr[None, :, :]
    k, big_n = len(network), max_population
    if arr.ndim != 3 or arr.shape[1:] != (k, big_n + 1):
        raise ValueError(
            f"batched-ld-mva: expected a (S, {k}, {big_n + 1}) input stack "
            f"(demand column + rate table), got shape {arr.shape}"
        )
    s = arr.shape[0]
    mask = _mask_stack(mask, s, "batched-ld-mva")
    d = _demand_stack(network, arr[:, :, 0], solver="batched-ld-mva", mask=mask)
    mu = arr[:, :, 1:]
    if mask is not None:
        mu = mu.copy()
        mu[~mask] = 1.0
    if np.any(np.isnan(mu)) or np.any(mu <= 0):
        bad = np.nonzero(np.any(np.isnan(mu) | (mu <= 0), axis=(1, 2)))[0]
        raise ValueError(
            f"batched-ld-mva: service rates must be positive at scenario "
            f"indices {sorted(bad.tolist())}"
        )
    z = _think_stack(network, think_times, s, mask=mask)
    is_queue = np.array([st.kind == "queue" for st in network.stations])
    servers = network.servers().astype(float)

    # Same weight table and update expressions as the scalar recursion,
    # with a leading scenario axis; +inf rates (delay rows) contribute 0.
    weights = np.arange(1, big_n + 1, dtype=float) / mu
    p = np.zeros((s, k, big_n + 1))
    p[:, :, 0] = 1.0

    pops = np.arange(1, big_n + 1)
    xs = np.empty((s, big_n))
    rs = np.empty((s, big_n))
    qs = np.empty((s, big_n, k))
    rks = np.empty((s, big_n, k))
    utils = np.empty((s, big_n, k))

    for i, n in enumerate(pops):
        r_queue = (weights[:, :, :n] * p[:, :, :n]).sum(axis=2)
        r_k = np.where(is_queue, r_queue, d)
        r_total = r_k.sum(axis=1)
        x = n / (r_total + z)

        tail = (x[:, None, None] / mu[:, :, :n]) * p[:, :, :n]
        p[:, :, 1 : n + 1] = tail
        p[:, :, 0] = np.maximum(0.0, 1.0 - tail.sum(axis=2))

        xs[:, i] = x
        rs[:, i] = r_total
        rks[:, i] = r_k
        qs[:, i] = x[:, None] * r_k
        utils[:, i] = x[:, None] * d / servers

    demands_used = np.broadcast_to(d[:, None, :], (s, big_n, k))
    if mask is not None:
        demands_used = demands_used.copy()
        _nan_rows(mask, xs, rs, qs, rks, utils, demands_used)
    return BatchedMVAResult(
        populations=pops,
        throughput=xs,
        response_time=rs,
        queue_lengths=qs,
        residence_times=rks,
        utilizations=utils,
        station_names=network.station_names,
        think_times=z,
        solver="batched-exact-load-dependent-mva",
        demands_used=demands_used,
    )


def batched_schweitzer_amva(
    network: ClosedNetwork,
    max_population: int,
    demands,
    think_times=None,
    mask=None,
) -> BatchedMVAResult:
    """Schweitzer approximate MVA over a stack of scenarios.

    Each population level is a fixed point per scenario; scenarios are
    iterated together and *frozen* individually as soon as their own
    convergence criterion (identical to the scalar solver's) fires, so
    every scenario sees exactly the iterates the scalar
    :func:`~repro.core.amva.schweitzer_amva` would produce.  ``mask``
    follows the :func:`batched_exact_mva` isolate contract.
    """
    if max_population < 1:
        raise ValueError(f"max_population must be >= 1, got {max_population}")
    arr = np.asarray(demands, dtype=float)
    s0 = arr.shape[0] if arr.ndim > 1 else 1
    mask = _mask_stack(mask, s0, "batched-schweitzer-amva")
    d = _demand_stack(network, demands, solver="batched-schweitzer-amva", mask=mask)
    s, k = d.shape
    z = _think_stack(network, think_times, s, mask=mask)
    is_queue = np.array([st.kind == "queue" for st in network.stations])
    servers = network.servers().astype(float)

    pops = np.arange(1, max_population + 1)
    n_levels = max_population
    xs = np.empty((s, n_levels))
    rs = np.empty((s, n_levels))
    qs = np.empty((s, n_levels, k))
    rks = np.empty((s, n_levels, k))
    utils = np.empty((s, n_levels, k))

    q = np.full((s, k), 1.0 / k)
    x = np.empty(s)
    r_k = np.empty((s, k))
    for i, n in enumerate(pops):
        n = int(n)
        active = np.arange(s)
        for _ in range(_MAX_ITER):
            qa = q[active]
            da = d[active]
            q_arr = (n - 1.0) / n * qa
            r = np.where(is_queue, da * (1.0 + q_arr), da)
            xa = n / (r.sum(axis=1) + z[active])
            q_new = xa[:, None] * r
            x[active] = xa
            r_k[active] = r
            q[active] = q_new
            converged = (
                np.abs(q_new - qa).max(axis=1)
                <= _TOL * np.maximum(1.0, q_new.max(axis=1))
            )
            active = active[~converged]
            if active.size == 0:
                break
        xs[:, i] = x
        rs[:, i] = r_k.sum(axis=1)
        qs[:, i] = q
        rks[:, i] = r_k
        utils[:, i] = x[:, None] * d / servers

    demands_used = np.broadcast_to(d[:, None, :], (s, n_levels, k))
    if mask is not None:
        demands_used = demands_used.copy()
        _nan_rows(mask, xs, rs, qs, rks, utils, demands_used)
    return BatchedMVAResult(
        populations=pops,
        throughput=xs,
        response_time=rs,
        queue_lengths=qs,
        residence_times=rks,
        utilizations=utils,
        station_names=network.station_names,
        think_times=z,
        solver="batched-schweitzer-amva",
        demands_used=demands_used,
    )


class _BatchedMultiServerState:
    """S parallel copies of :class:`repro.core.multiserver.MultiServerState`.

    Carries the full marginal vectors ``p(j | n)`` of one multi-server
    station for all S scenarios as a ``(S, N+1)`` array and applies the
    scalar class's residence/update/renormalize steps elementwise along
    the scenario axis — same operations, same order, so the trajectories
    match the scalar recursion to rounding.
    """

    __slots__ = ("servers", "_p", "_weights", "_level")

    def __init__(self, servers: int, max_population: int, n_scenarios: int) -> None:
        self.servers = int(servers)
        self._p = np.zeros((n_scenarios, max_population + 1))
        self._p[:, 0] = 1.0  # empty network, every scenario
        js = np.arange(1, max_population + 1, dtype=float)
        self._weights = js / np.minimum(js, self.servers)
        self._level = 0

    def residence(self, n: int, demand: np.ndarray) -> np.ndarray:
        """``R_k`` per scenario at population ``n``; ``demand`` is ``(S,)``."""
        if n != self._level + 1:
            raise ValueError(
                f"out-of-order recursion: expected n={self._level + 1}, got {n}"
            )
        return demand * (self._weights[:n] * self._p[:, :n]).sum(axis=1)

    def update(self, n: int, x: np.ndarray, demand: np.ndarray) -> None:
        """Advance all scenarios' marginals once ``X^n`` ``(S,)`` is known."""
        if n != self._level + 1:
            raise ValueError(
                f"out-of-order recursion: expected n={self._level + 1}, got {n}"
            )
        mu_scale = x * demand
        js = np.arange(1, n + 1, dtype=float)
        new_tail = (mu_scale[:, None] / np.minimum(js, self.servers)) * self._p[:, :n]
        self._p[:, 1 : n + 1] = new_tail
        self._p[:, 0] = np.maximum(0.0, 1.0 - new_tail.sum(axis=1))
        total = self._p[:, : n + 1].sum(axis=1)
        positive = total > 0
        self._p[positive, : n + 1] /= total[positive, None]
        self._level = n


def batched_mvasd(
    network: ClosedNetwork,
    max_population: int,
    demand_matrices,
    single_server: bool = False,
    think_times=None,
    mask=None,
) -> BatchedMVAResult:
    """MVASD (Algorithm 3, population axis) over a stack of scenarios.

    Parameters
    ----------
    network:
        Shared topology; server counts drive the multi-server
        correction exactly as in :func:`~repro.core.mvasd.mvasd`.
    max_population:
        Largest population ``N``.
    demand_matrices:
        ``(S, N, K)`` stack of precomputed ``SS_k^n`` matrices — build
        with :func:`demand_matrix_stack` or by scaling one
        :func:`~repro.core.mvasd.precompute_demand_matrix` output.  A
        single ``(N, K)`` matrix is treated as ``S = 1``.
    single_server:
        The Fig. 8 normalized single-server baseline.
    think_times:
        Optional per-scenario think times ``(S,)``.

    Notes
    -----
    Only ``demand_axis="population"`` is batchable (the demand matrix is
    known before the recursion); for the Section-7 throughput-axis fixed
    point use the scalar :func:`~repro.core.mvasd.mvasd` per scenario.
    Marginal-probability histories are not recorded in batched mode.
    """
    if max_population < 1:
        raise ValueError(f"max_population must be >= 1, got {max_population}")
    matrices = np.asarray(demand_matrices, dtype=float)
    if matrices.ndim == 2:
        matrices = matrices[None, :, :]
    k = len(network)
    if matrices.ndim != 3 or matrices.shape[1:] != (max_population, k):
        raise ValueError(
            f"expected a (S, {max_population}, {k}) demand-matrix stack, "
            f"got shape {matrices.shape}"
        )
    mask = _mask_stack(mask, matrices.shape[0], "batched-mvasd")
    if mask is not None:
        matrices = matrices.copy()
        matrices[~mask] = 1.0
    if not np.isfinite(matrices).all():
        raise ValueError(
            "batched-mvasd: demand matrices must be finite, got non-finite "
            f"values at scenario indices "
            f"{sorted(set(np.nonzero(~np.isfinite(matrices))[0].tolist()))}"
        )
    if np.any(matrices < 0):
        raise ValueError("demand matrices must be non-negative")
    s = matrices.shape[0]
    z = _think_stack(network, think_times, s, mask=mask)
    stations = network.stations
    servers = network.servers().astype(float)

    states = (
        None
        if single_server
        else [
            _BatchedMultiServerState(st.servers, max_population, s)
            if st.kind == "queue"
            else None
            for st in stations
        ]
    )

    pops = np.arange(1, max_population + 1)
    n_levels = max_population
    xs = np.empty((s, n_levels))
    rs = np.empty((s, n_levels))
    qs = np.empty((s, n_levels, k))
    rks = np.empty((s, n_levels, k))
    utils = np.empty((s, n_levels, k))

    q = np.zeros((s, k))
    r_k = np.empty((s, k))
    for i, n in enumerate(pops):
        n = int(n)
        d = matrices[:, i, :]
        for idx, st in enumerate(stations):
            col = d[:, idx]
            if st.kind == "delay":
                r_k[:, idx] = col
            elif single_server:
                r_k[:, idx] = (col / st.servers) * (1.0 + q[:, idx])
            else:
                r_k[:, idx] = states[idx].residence(n, col)
        r_total = r_k.sum(axis=1)
        x = n / (r_total + z)
        q = x[:, None] * r_k
        if not single_server:
            for idx, st in enumerate(stations):
                if st.kind == "queue":
                    states[idx].update(n, x, d[:, idx])
        xs[:, i] = x
        rs[:, i] = r_total
        qs[:, i] = q
        rks[:, i] = r_k
        utils[:, i] = x[:, None] * d / servers

    if mask is not None:
        _nan_rows(mask, xs, rs, qs, rks, utils, matrices)
    solver = "batched-mvasd-single-server" if single_server else "batched-mvasd"
    return BatchedMVAResult(
        populations=pops,
        throughput=xs,
        response_time=rs,
        queue_lengths=qs,
        residence_times=rks,
        utilizations=utils,
        station_names=network.station_names,
        think_times=z,
        solver=solver,
        demands_used=matrices,
    )


@dataclass(frozen=True)
class BatchedMultiClassResult(_Stack):
    """Full-population multi-class solutions of S scenarios in one batch.

    The multi-class analogue of :class:`BatchedMVAResult`: the arrays
    carry a leading scenario axis on top of the scalar
    :class:`~repro.core.multiclass.MultiClassResult` layout —
    ``throughput`` is ``(S, C)``, ``queue_lengths_by_class`` is
    ``(S, K, C)``.  Scenarios share the population vector, class names
    and per-class think times (that is what makes the class-lattice
    recursion batchable) but differ in their demand matrices.
    """

    populations: tuple[int, ...]
    class_names: tuple[str, ...]
    throughput: np.ndarray
    response_time: np.ndarray
    queue_lengths: np.ndarray
    queue_lengths_by_class: np.ndarray
    utilizations: np.ndarray
    station_names: tuple[str, ...]
    think_times: np.ndarray
    solver: str
    demands_used: np.ndarray | None = None
    backend: str | None = None
    failures: tuple[ScenarioFailure, ...] = ()

    layout: ClassVar[StackLayout] = StackLayout(
        wire_kind="multiclass-stack",
        journal_tag="multiclass",
        labels=("station_names", "class_names"),
        index={"populations": "c"},
        shared={"think_times": "c"},
        stacked={
            "throughput": "c",
            "response_time": "c",
            "queue_lengths": "k",
            "queue_lengths_by_class": "kc",
            "utilizations": "k",
            "demands_used": "kc",
        },
    )

    def __post_init__(self) -> None:
        # Codecs hand over whatever list or array the wire or journal held.
        object.__setattr__(self, "populations", tuple(int(n) for n in self.populations))
        super().__post_init__()

    @property
    def total_throughput(self) -> np.ndarray:
        """``sum_c X_c`` per scenario, shape ``(S,)``."""
        return self.throughput.sum(axis=1)

    def scenario(self, index: int) -> MultiClassResult:
        """One scenario's solution as a scalar :class:`MultiClassResult`."""
        s = self.n_scenarios
        if not -s <= index < s:
            raise IndexError(f"scenario index {index} out of range for {s} scenarios")
        return MultiClassResult(
            populations=self.populations,
            throughput=np.array(self.throughput[index]),
            response_time=np.array(self.response_time[index]),
            queue_lengths=np.array(self.queue_lengths[index]),
            queue_lengths_by_class=np.array(self.queue_lengths_by_class[index]),
            utilizations=np.array(self.utilizations[index]),
            station_names=self.station_names,
            think_times=tuple(float(z) for z in self.think_times),
        )


@dataclass(frozen=True)
class BatchedMultiClassTrajectory(_Stack):
    """Mix-sweep trajectories of S multi-class scenarios in one batch.

    Batched analogue of
    :class:`~repro.core.multiclass_amva.MultiClassTrajectory`:
    ``throughput``/``response_time`` are ``(S, T, C)`` over the shared
    total-population sweep ``totals`` with the shared realized integer
    mixes ``populations`` ``(T, C)``; ``utilizations`` is ``(S, T, K)``.
    """

    class_names: tuple[str, ...]
    station_names: tuple[str, ...]
    totals: np.ndarray
    populations: np.ndarray
    throughput: np.ndarray
    response_time: np.ndarray
    utilizations: np.ndarray
    think_times: np.ndarray
    solver: str
    demands_used: np.ndarray | None = None
    backend: str | None = None
    failures: tuple[ScenarioFailure, ...] = ()

    layout: ClassVar[StackLayout] = StackLayout(
        wire_kind="multiclass-trajectory-stack",
        journal_tag="multiclass-trajectory",
        labels=("station_names", "class_names"),
        index={"totals": "t", "populations": "tc"},
        shared={"think_times": "c"},
        stacked={
            "throughput": "tc",
            "response_time": "tc",
            "utilizations": "tk",
            "demands_used": "tkc",
        },
    )

    @property
    def total_throughput(self) -> np.ndarray:
        """``sum_c X_c`` per scenario and step, shape ``(S, T)``."""
        return self.throughput.sum(axis=2)

    def scenario(self, index: int) -> MultiClassTrajectory:
        """One scenario's sweep as a scalar :class:`MultiClassTrajectory`."""
        s = self.n_scenarios
        if not -s <= index < s:
            raise IndexError(f"scenario index {index} out of range for {s} scenarios")
        return MultiClassTrajectory(
            class_names=self.class_names,
            station_names=self.station_names,
            totals=self.totals,
            populations=self.populations,
            throughput=np.array(self.throughput[index]),
            response_time=np.array(self.response_time[index]),
            utilizations=np.array(self.utilizations[index]),
            think_times=tuple(float(z) for z in self.think_times),
        )


#: Every stack container, each declaring its :class:`StackLayout`.
STACK_CONTAINERS = (BatchedMVAResult, BatchedMultiClassResult, BatchedMultiClassTrajectory)


def mix_populations(weights: np.ndarray, max_total_population: int) -> np.ndarray:
    """Realized integer class mixes ``(T, C)`` of a totals ``1..T`` sweep.

    Largest-remainder apportionment of the normalized class ``weights``
    at every total, exactly as the scalar multi-class MVASD sweep rounds
    it.
    """
    pops = np.zeros((int(max_total_population), len(weights)), dtype=int)
    for i, total in enumerate(range(1, int(max_total_population) + 1)):
        raw = weights * total
        base = np.floor(raw).astype(int)
        order = np.argsort(-(raw - base))
        base[order[: total - int(base.sum())]] += 1
        pops[i] = base
    return pops


def _class_axes(
    class_names, think_times, station_names, station_kinds, k: int, solver: str
):
    """Validate the shared class/station structure of a multi-class batch."""
    names = (
        tuple(station_names)
        if station_names
        else tuple(f"station-{i}" for i in range(k))
    )
    if len(names) != k:
        raise ValueError(f"{solver}: expected {k} station names")
    kinds = tuple(station_kinds) if station_kinds else ("queue",) * k
    if len(kinds) != k or any(kd not in ("queue", "delay") for kd in kinds):
        raise ValueError(f"{solver}: station_kinds must be 'queue'/'delay' per station")
    z = np.asarray(think_times, dtype=float)
    c = z.shape[0] if z.ndim == 1 else 0
    if z.ndim != 1 or c == 0 or not np.isfinite(z).all() or np.any(z < 0):
        raise ValueError(f"{solver}: think_times must be finite non-negative per class")
    cls = (
        tuple(class_names)
        if class_names
        else tuple(f"class-{i}" for i in range(c))
    )
    if len(cls) != c:
        raise ValueError(f"{solver}: expected {c} class names")
    is_queue = np.array([kd == "queue" for kd in kinds])
    return names, kinds, is_queue, z, cls


def _multiclass_demand_stack(
    demands, trailing: tuple[int, ...], solver: str, mask
) -> tuple[np.ndarray, np.ndarray | None]:
    """Validate a per-scenario multi-class demand stack ``(S, *trailing)``."""
    arr = np.asarray(demands, dtype=float)
    if arr.ndim == len(trailing):
        arr = arr[None]
    if arr.ndim != len(trailing) + 1 or arr.shape[1:] != trailing:
        raise ValueError(
            f"{solver}: expected a (S, {', '.join(map(str, trailing))}) "
            f"demand stack, got shape {arr.shape}"
        )
    mask = _mask_stack(mask, arr.shape[0], solver)
    if mask is not None:
        arr = arr.copy()
        arr[~mask] = 1.0
    if not np.isfinite(arr).all():
        raise ValueError(
            f"{solver}: demands must be finite, got non-finite values at "
            f"scenario indices {sorted(set(np.nonzero(~np.isfinite(arr))[0].tolist()))}"
        )
    if np.any(arr < 0):
        raise ValueError(f"{solver}: demands must be non-negative")
    return arr, mask


def batched_exact_multiclass(
    demands,
    populations,
    think_times,
    station_names=None,
    station_kinds=None,
    class_names=None,
    mask=None,
) -> BatchedMultiClassResult:
    """Exact multi-class MVA over a stack of scenarios.

    Vectorizes the class-lattice recursion of
    :func:`~repro.core.multiclass.exact_multiclass_mva` over the
    scenario axis: the ``Q_k(n)`` lattice table gains a leading
    scenario dimension and every update is an array operation across
    all S scenarios, so the ``O(K * prod_c (N_c + 1))`` Python-level
    lattice walk is paid once for the whole stack instead of once per
    scenario.  Operations are elementwise along the scenario axis in
    the scalar solver's order, so each row matches the scalar result
    to rounding (pinned at 1e-10 by the equivalence suite).

    Parameters
    ----------
    demands:
        ``(S, K, C)`` stack — one ``(K, C)`` class-demand matrix per
        scenario.  A single ``(K, C)`` matrix is treated as ``S = 1``.
    populations / think_times:
        Shared class populations ``(N_1, ..., N_C)`` and per-class
        think times.
    station_names / station_kinds / class_names:
        Optional shared labels and ``"queue"``/``"delay"`` flags.
    mask:
        Optional ``(S,)`` validity mask (the ``errors="isolate"``
        path); see :func:`batched_exact_mva`.

    Notes
    -----
    The lattice table costs ``S`` times the scalar solver's memory —
    ``prod_c (N_c + 1) * S * K`` floats — so keep class populations
    modest (the facade's ``EXACT_MULTICLASS_LATTICE_LIMIT`` guards
    this).
    """
    arr = np.asarray(demands, dtype=float)
    if arr.ndim not in (2, 3):
        raise ValueError(
            f"batched-exact-multiclass: demands must be (S, K, C), got shape {arr.shape}"
        )
    k, c = (arr.shape[1], arr.shape[2]) if arr.ndim == 3 else arr.shape
    d, mask = _multiclass_demand_stack(demands, (k, c), "batched-exact-multiclass", mask)
    s = d.shape[0]
    pops = tuple(int(p) for p in populations)
    if len(pops) != c or any(p < 0 for p in pops):
        raise ValueError(
            f"batched-exact-multiclass: populations must be {c} non-negative "
            f"integers, got {populations}"
        )
    names, _kinds, is_queue, z, cls = _class_axes(
        class_names, think_times, station_names, station_kinds, k,
        "batched-exact-multiclass",
    )
    if z.shape != (c,):
        raise ValueError(f"batched-exact-multiclass: think_times must be {c} values")

    if sum(pops) == 0:
        zero_sc = np.zeros((s, c))
        return BatchedMultiClassResult(
            populations=pops,
            class_names=cls,
            throughput=zero_sc,
            response_time=zero_sc.copy(),
            queue_lengths=np.zeros((s, k)),
            queue_lengths_by_class=np.zeros((s, k, c)),
            utilizations=np.zeros((s, k)),
            station_names=names,
            think_times=z,
            solver="batched-exact-multiclass",
            demands_used=d,
        )

    # Station queue lengths Q_k(n) over the lattice, for all S scenarios.
    shape = tuple(p + 1 for p in pops)
    q_table = np.zeros(shape + (s, k))
    last_x = np.zeros((s, c))
    last_r = np.zeros((s, c))
    last_qkc = np.zeros((s, k, c))

    for n in product(*(range(p + 1) for p in pops)):
        if sum(n) == 0:
            continue
        r_kc = np.zeros((s, k, c))
        x_c = np.zeros((s, c))
        for ci in range(c):
            if n[ci] == 0:
                continue
            prev = list(n)
            prev[ci] -= 1
            q_prev = q_table[tuple(prev)]
            r_kc[:, :, ci] = np.where(is_queue, d[:, :, ci] * (1.0 + q_prev), d[:, :, ci])
            x_c[:, ci] = n[ci] / (z[ci] + r_kc[:, :, ci].sum(axis=1))
        q_kc = r_kc * x_c[:, None, :]
        q_table[n] = q_kc.sum(axis=2)
        if n == pops:
            last_x = x_c
            last_r = r_kc.sum(axis=1)
            last_qkc = q_kc

    util = (d * last_x[:, None, :]).sum(axis=2)
    queue_lengths = last_qkc.sum(axis=2)
    if mask is not None:
        _nan_rows(mask, last_x, last_r, last_qkc, queue_lengths, util, d)
    return BatchedMultiClassResult(
        populations=pops,
        class_names=cls,
        throughput=last_x,
        response_time=last_r,
        queue_lengths=queue_lengths,
        queue_lengths_by_class=last_qkc,
        utilizations=util,
        station_names=names,
        think_times=z,
        solver="batched-exact-multiclass",
        demands_used=d,
    )


def batched_multiclass_mvasd(
    station_names,
    class_names,
    demand_tensors,
    mix,
    max_total_population,
    think_times,
    station_kinds=None,
    mask=None,
) -> BatchedMultiClassTrajectory:
    """Multi-class MVASD mix sweep over a stack of scenarios.

    Vectorizes :func:`~repro.core.multiclass_amva.multiclass_mvasd`
    over the scenario axis: at every total population the shared
    largest-remainder mix apportionment is computed once, and the
    Bard-Schweitzer fixed point iterates all S scenarios together —
    each scenario is *frozen* individually the moment its own
    convergence criterion (identical to the scalar solver's) fires, so
    every row reproduces the scalar iterates exactly.

    Parameters
    ----------
    station_names / class_names:
        Shared labels (stations in order; classes in order).
    demand_tensors:
        ``(S, T, K, C)`` stack of per-total class-demand matrices for
        totals ``1..T`` — the multi-class analogue of the precomputed
        MVASD demand matrix, evaluated from the per-class ``SS_{k,c}(n)``
        curves.  A single ``(T, K, C)`` tensor is treated as ``S = 1``.
    mix:
        Shared relative class weights (normalized internally; realized
        integer populations follow largest-remainder rounding, exactly
        as in the scalar sweep).
    max_total_population:
        Sweep 1..N total users (``T = N``).
    think_times:
        Per-class think times, shared across scenarios.
    station_kinds:
        Optional ``"queue"``/``"delay"`` per station.
    mask:
        Optional ``(S,)`` validity mask (the ``errors="isolate"``
        path); see :func:`batched_exact_mva`.
    """
    names = tuple(station_names)
    k = len(names)
    cls = tuple(class_names)
    c = len(cls)
    if not c:
        raise ValueError("batched-multiclass-mvasd: need at least one class")
    t = int(max_total_population)
    if t < 1:
        raise ValueError("batched-multiclass-mvasd: max_total_population must be >= 1")
    d, mask = _multiclass_demand_stack(
        demand_tensors, (t, k, c), "batched-multiclass-mvasd", mask
    )
    s = d.shape[0]
    weights = np.asarray(mix, dtype=float)
    if weights.shape != (c,) or np.any(weights < 0) or weights.sum() <= 0:
        raise ValueError(
            "batched-multiclass-mvasd: mix weights must be non-negative with positive sum"
        )
    weights = weights / weights.sum()
    _names, _kinds, is_queue, z, cls = _class_axes(
        cls, think_times, names, station_kinds, k, "batched-multiclass-mvasd"
    )
    if z.shape != (c,):
        raise ValueError(f"batched-multiclass-mvasd: think_times must be {c} values")

    steps = np.arange(1, t + 1)
    # Shared largest-remainder apportionment of the mix at every total.
    pops = mix_populations(weights, t)
    xs = np.zeros((s, t, c))
    rs = np.zeros((s, t, c))
    utils = np.zeros((s, t, k))

    for i in range(t):
        n_c = pops[i].astype(float)
        active_cls = n_c > 0
        d_step = d[:, i, :, :]

        # Bard-Schweitzer fixed point, all scenarios together; rows are
        # frozen individually on the scalar convergence criterion.
        q = np.zeros((s, k, c))
        if active_cls.any():
            q[:, :, active_cls] = n_c[active_cls] / k  # even initial spread
        x = np.zeros((s, c))
        r_c_out = np.zeros((s, c))
        alive = np.arange(s)
        for _ in range(_MC_MAX_ITER):
            qa = q[alive]
            da = d_step[alive]
            a = alive.size
            q_total = qa.sum(axis=2)
            r = np.empty((a, k, c))
            for ci in range(c):
                if not active_cls[ci]:
                    r[:, :, ci] = 0.0
                    continue
                # arrival-theorem queue with one class-ci customer removed
                removed = qa[:, :, ci] / n_c[ci]
                q_arr = np.maximum(q_total - removed, 0.0)
                r[:, :, ci] = np.where(is_queue, da[:, :, ci] * (1.0 + q_arr), da[:, :, ci])
            r_c = r.sum(axis=1)
            with np.errstate(divide="ignore", invalid="ignore"):
                xa = np.where(active_cls, n_c / (z + r_c), 0.0)
            q_new = r * xa[:, None, :]
            x[alive] = xa
            r_c_out[alive] = r_c
            q[alive] = q_new
            converged = (
                np.abs(q_new - qa).reshape(a, -1).max(axis=1)
                <= _TOL * np.maximum(1.0, q_new.reshape(a, -1).max(axis=1))
            )
            alive = alive[~converged]
            if alive.size == 0:
                break

        xs[:, i] = x
        rs[:, i] = r_c_out
        utils[:, i] = (d_step * x[:, None, :]).sum(axis=2)

    if mask is not None:
        _nan_rows(mask, xs, rs, utils, d)
    return BatchedMultiClassTrajectory(
        class_names=cls,
        station_names=names,
        totals=steps,
        populations=pops,
        throughput=xs,
        response_time=rs,
        utilizations=utils,
        think_times=z,
        solver="batched-multiclass-mvasd",
        demands_used=d,
    )
