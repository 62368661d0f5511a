"""Execution-backend parity: serial, batched and process-sharded agree.

The PR-4 acceptance bar: for every registered method with a batched
kernel, the `process-sharded` stack result and the cached-hit result
match the serial/batched paths to ≤1e-10; methods without a kernel
shard over their serial loop just as faithfully.
"""

import numpy as np
import pytest

from repro.core.network import ClosedNetwork, Station
from repro.engine import get_backend
from repro.solvers import (
    Scenario,
    SolverCache,
    SolverCapabilityError,
    list_solvers,
    solve,
    solve_stack,
)

ATOL = 1e-10


@pytest.fixture
def single_server_net():
    return ClosedNetwork(
        [Station("web", demand=0.02), Station("db", demand=0.05)], think_time=1.0
    )


@pytest.fixture
def multiserver_net():
    return ClosedNetwork(
        [Station("web", demand=0.08, servers=4), Station("db", demand=0.05)],
        think_time=1.0,
    )


@pytest.fixture
def varying_net():
    return ClosedNetwork(
        [
            Station("web", demand=lambda n: 0.05 + 0.0005 * n, servers=4),
            Station("db", demand=lambda n: 0.03 + 0.0002 * n),
        ],
        think_time=1.0,
    )


def _stack_for(spec, net):
    """A small stack exercising ``spec`` on ``net``'s topology."""
    return [
        Scenario(net, 15, demand_matrix=None, demand_level=1.0, think_time=z)
        for z in (0.5, 1.0, 1.5, 2.0, 2.5)
    ]


# Single-class kernel methods; the multi-class kernels have their own
# parity suite in tests/test_multiclass_batched.py (different fixtures).
BATCHED_METHODS = [
    s.name for s in list_solvers() if s.batched_kernel and not s.multiclass
]


class TestParityAcrossBackends:
    @pytest.mark.parametrize("method", BATCHED_METHODS)
    def test_every_kernel_method_serial_batched_sharded(
        self, method, single_server_net, multiserver_net, varying_net
    ):
        spec = next(s for s in list_solvers() if s.name == method)
        net = varying_net if spec.varying_demands else (
            multiserver_net if spec.multiserver else single_server_net
        )
        stack = _stack_for(spec, net)
        serial = solve_stack(stack, method=method, backend="serial", cache=None)
        batched = solve_stack(stack, method=method, backend="batched", cache=None)
        sharded = solve_stack(
            stack, method=method, backend="process-sharded", workers=2, cache=None
        )
        for other in (batched, sharded):
            np.testing.assert_allclose(serial.throughput, other.throughput, atol=ATOL)
            np.testing.assert_allclose(
                serial.response_time, other.response_time, atol=ATOL
            )
            np.testing.assert_allclose(
                serial.queue_lengths, other.queue_lengths, atol=ATOL
            )
            np.testing.assert_allclose(
                serial.utilizations, other.utilizations, atol=ATOL
            )
        assert serial.backend == "serial"
        assert batched.backend == "batched"
        assert sharded.backend == "process-sharded"

    @pytest.mark.parametrize("method", BATCHED_METHODS)
    def test_cached_hit_matches_fresh(self, method, single_server_net, multiserver_net,
                                      varying_net):
        spec = next(s for s in list_solvers() if s.name == method)
        net = varying_net if spec.varying_demands else (
            multiserver_net if spec.multiserver else single_server_net
        )
        stack = _stack_for(spec, net)
        cache = SolverCache()
        cold = solve_stack(stack, method=method, cache=cache)
        warm = solve_stack(list(stack), method=method, cache=cache)
        fresh = solve_stack(list(stack), method=method, cache=None)
        assert warm is cold
        assert cache.stats().hits == 1
        np.testing.assert_allclose(warm.throughput, fresh.throughput, atol=ATOL)
        np.testing.assert_allclose(warm.response_time, fresh.response_time, atol=ATOL)

    def test_kernel_less_method_shards_over_serial_loop(self, single_server_net):
        stack = [
            Scenario(single_server_net, 12, think_time=z) for z in (0.5, 1.0, 1.5)
        ]
        serial = solve_stack(stack, method="linearizer", backend="serial", cache=None)
        sharded = solve_stack(
            stack, method="linearizer", backend="process-sharded", workers=2, cache=None
        )
        np.testing.assert_allclose(serial.throughput, sharded.throughput, atol=ATOL)
        assert sharded.backend == "process-sharded"
        assert sharded.solver == serial.solver == "stacked-linearizer-amva"

    def test_sharding_lambda_demand_networks(self, varying_net):
        # Lambda demands are unpicklable, but the scenario list rides to
        # the forked workers as payload — only chunk bounds are pickled.
        stack = [Scenario(varying_net, 20, think_time=z) for z in (0.5, 1.0, 2.0)]
        batched = solve_stack(stack, method="mvasd", backend="batched", cache=None)
        sharded = solve_stack(
            stack, method="mvasd", backend="process-sharded", workers=2, cache=None
        )
        np.testing.assert_allclose(batched.throughput, sharded.throughput, atol=ATOL)


class TestBackendSelection:
    def test_auto_prefers_batched_below_threshold(self, single_server_net):
        stack = [Scenario(single_server_net, 10, think_time=z) for z in (0.5, 1.0)]
        result = solve_stack(stack, method="exact-mva", cache=None)
        assert result.backend == "batched"

    def test_auto_shards_above_threshold(self, single_server_net, monkeypatch):
        from repro.solvers import facade

        monkeypatch.setattr(facade, "AUTO_SHARD_THRESHOLD", 4)
        stack = [
            Scenario(single_server_net, 10, think_time=0.5 + 0.1 * i) for i in range(6)
        ]
        result = solve_stack(stack, method="exact-mva", workers=2, cache=None)
        assert result.backend == "process-sharded"
        reference = solve_stack(stack, method="exact-mva", backend="batched", cache=None)
        np.testing.assert_allclose(result.throughput, reference.throughput, atol=ATOL)

    def test_auto_stays_in_process_with_one_worker(self, single_server_net, monkeypatch):
        from repro.solvers import facade

        monkeypatch.setattr(facade, "AUTO_SHARD_THRESHOLD", 2)
        stack = [
            Scenario(single_server_net, 10, think_time=0.5 + 0.1 * i) for i in range(4)
        ]
        result = solve_stack(stack, method="exact-mva", workers=1, cache=None)
        assert result.backend == "batched"

    def test_scalar_alias_maps_to_serial(self, single_server_net):
        stack = [Scenario(single_server_net, 10, think_time=z) for z in (0.5, 1.0)]
        result = solve_stack(stack, method="exact-mva", backend="scalar", cache=None)
        assert result.backend == "serial"

    def test_unknown_backend_rejected(self, single_server_net):
        stack = [Scenario(single_server_net, 10)]
        with pytest.raises(Exception, match="backend"):
            solve_stack(stack, backend="gpu", cache=None)

    def test_batched_without_kernel_names_nearest_method(self, single_server_net):
        stack = [Scenario(single_server_net, 10), Scenario(single_server_net, 10)]
        with pytest.raises(SolverCapabilityError, match="no batched kernel") as exc:
            solve_stack(stack, method="linearizer", backend="batched", cache=None)
        assert "schweitzer-amva" in str(exc.value)

    def test_get_backend_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown backend"):
            get_backend("quantum")

    def test_single_scenario_rejects_sharded(self, single_server_net):
        with pytest.raises(Exception, match="backend"):
            solve(Scenario(single_server_net, 10), backend="process-sharded")


class TestShardReassembly:
    def test_more_workers_than_scenarios(self, single_server_net):
        stack = [Scenario(single_server_net, 10, think_time=z) for z in (0.5, 1.0)]
        sharded = solve_stack(
            stack, method="exact-mva", backend="process-sharded", workers=8, cache=None
        )
        reference = solve_stack(stack, method="exact-mva", backend="batched", cache=None)
        assert sharded.n_scenarios == 2
        np.testing.assert_allclose(sharded.throughput, reference.throughput, atol=ATOL)

    def test_order_preserved_across_shards(self, single_server_net):
        thinks = [0.25 * (i + 1) for i in range(9)]
        stack = [Scenario(single_server_net, 10, think_time=z) for z in thinks]
        sharded = solve_stack(
            stack, method="exact-mva", backend="process-sharded", workers=3, cache=None
        )
        np.testing.assert_allclose(sharded.think_times, thinks, atol=ATOL)
        # Throughput decreases as think time grows — order must survive.
        peak = sharded.peak_throughput()
        assert np.all(np.diff(peak) < 0)

    def test_demands_used_concatenated(self, varying_net):
        stack = [Scenario(varying_net, 12, think_time=z) for z in (0.5, 1.0, 1.5)]
        sharded = solve_stack(
            stack, method="mvasd", backend="process-sharded", workers=2, cache=None
        )
        batched = solve_stack(stack, method="mvasd", backend="batched", cache=None)
        assert sharded.demands_used is not None
        np.testing.assert_allclose(
            sharded.demands_used, batched.demands_used, atol=ATOL
        )


class TestCapabilityMatrix:
    def test_batched_kernel_column(self, capsys):
        from repro.cli import main

        assert main(["solvers"]) == 0
        out = capsys.readouterr().out
        assert "batched kernel" in out

    def test_sweep_grid_reports_backend(self, capsys):
        from repro.cli import main

        code = main(
            [
                "sweep-grid",
                "--demands", "0.02,0.05",
                "--think", "1",
                "--population", "30",
                "--scales", "0.5,1.0",
                "--backend", "process-sharded",
                "--workers", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "scenarios solved in one batch" in out
        assert "[process-sharded]" in out


class _Curve:
    """Varying demand ``base + 0.0005 n`` — or, when ``bad``, one that
    raises on every evaluation (a deterministically broken scenario)."""

    def __init__(self, base, bad=False):
        self.base = base
        self.bad = bad

    def __call__(self, n):
        if self.bad:
            raise ValueError("broken demand curve")
        return self.base + 0.0005 * np.asarray(n, dtype=float)


def _single_class_stack(bad):
    return [
        Scenario(
            ClosedNetwork(
                [
                    Station("web", _Curve(0.05 + 0.01 * i, bad=i == bad), servers=2),
                    Station("db", demand=0.03),
                ],
                think_time=1.0,
            ),
            12,
        )
        for i in range(5)
    ]


def _multiclass_stack(bad):
    from repro.solvers import WorkloadClass

    net = ClosedNetwork([Station("web", 0.0), Station("db", 0.0)], think_time=1.0)
    return [
        Scenario(
            net,
            6,
            classes=(
                WorkloadClass(
                    "a", 2, {"web": _Curve(0.02 + 0.01 * i, bad=i == bad), "db": 0.05},
                    think_time=1.0,
                ),
                WorkloadClass("b", 1, {"web": 0.01, "db": 0.04}, think_time=0.5),
            ),
        )
        for i in range(5)
    ]


def _preset_kwargs(name):
    from repro.engine import RetryPolicy

    if name == "process-sharded":
        return {"workers": 2}
    if name == "resilient":
        return {"workers": 2, "retry_policy": RetryPolicy(backoff_base=0.0)}
    return {}


PRESETS = ("serial", "batched", "process-sharded", "resilient")
BAD = 2


class TestPresetParity:
    """Every backend preset fails, isolates and survives the same way.

    A deterministically broken scenario must raise the same exception
    type under ``errors="raise"`` and become the same NaN row and failure
    index under ``errors="isolate"``, whatever the mechanism; survivor
    rows are bit-identical across presets.
    """

    @pytest.mark.parametrize("make", [_single_class_stack, _multiclass_stack])
    @pytest.mark.parametrize("preset", PRESETS)
    def test_raise_mode_same_exception_type(self, make, preset):
        with pytest.raises(ValueError, match="broken demand curve"):
            solve_stack(make(BAD), backend=preset, cache=None, **_preset_kwargs(preset))

    @pytest.mark.parametrize("make", [_single_class_stack, _multiclass_stack])
    def test_isolate_mode_same_failures_and_survivors(self, make):
        results = {
            preset: solve_stack(
                make(BAD), backend=preset, cache=None, errors="isolate",
                **_preset_kwargs(preset),
            )
            for preset in PRESETS
        }
        reference = results["serial"]
        survivors = [i for i in range(5) if i != BAD]
        for preset, result in results.items():
            assert result.failed_indices == (BAD,), preset
            (failure,) = result.failures
            assert failure.error == "ValueError: broken demand curve", preset
            for field in reference.layout.stacked:
                if field in ("think_times", "demands_used"):
                    continue
                value = getattr(result, field)
                assert np.isnan(value[BAD]).all(), (preset, field)
                assert np.array_equal(
                    value[survivors], getattr(reference, field)[survivors]
                ), (preset, field)
