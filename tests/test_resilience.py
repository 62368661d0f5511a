"""Resilient execution: retries, degradation, isolation, checkpoint/resume.

Complements ``tests/test_faults.py`` (fault-kind recovery parity) with
the machinery-level contracts: :func:`parallel_map`'s infrastructure
vs task failure split, :class:`RetryPolicy` arithmetic, per-scenario
``errors="isolate"`` semantics (including the property-based good/bad
mixed-stack test), :class:`SweepCheckpoint` crash-and-resume
bit-identity, non-fatal cache behavior, and the non-finite demand
validation the isolation path depends on to fail loudly.
"""

import json
import os
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.mvasd import mvasd
from repro.core.network import ClosedNetwork, Station
from repro.engine import (
    FaultPlan,
    RetryPolicy,
    SweepCheckpoint,
    batched_exact_mva,
    get_backend,
    parallel_map,
)
from repro.engine import faults, sweep
from repro.solvers import (
    Scenario,
    SolverCache,
    SolverInputError,
    cache_stats,
    solve,
    solve_stack,
)
from repro.solvers.validation import check_finite_demands

ATOL = 1e-10


@pytest.fixture(autouse=True)
def _disarm():
    yield
    faults.deactivate()


@pytest.fixture
def net():
    return ClosedNetwork(
        [Station("web", demand=0.02), Station("db", demand=0.05)], think_time=1.0
    )


@pytest.fixture
def stack(net):
    return [Scenario(net, 12, think_time=0.5 + 0.1 * i) for i in range(6)]


@pytest.fixture
def baseline(stack):
    return solve_stack(stack, method="exact-mva", backend="serial", cache=None)


# -- parallel_map robustness ---------------------------------------------------
# Module-level worker functions: the parallel path pickles them by
# reference.  Each takes the parent PID as the payload so it can behave
# differently in a forked child vs the in-parent serial retry.


def _crash_in_child(item, parent_pid):
    if item == "boom" and os.getpid() != parent_pid:
        os._exit(1)
    return item * 2


def _hang_in_child(item, parent_pid):
    if item == "slow" and os.getpid() != parent_pid:
        time.sleep(30)
    return item.upper()


def _raise_on_bad(item, payload):
    if item < 0:
        raise ValueError(f"bad item {item}")
    return item + 1


class TestParallelMapRobustness:
    def test_crashed_worker_item_recomputed_serially(self):
        items = ["a", "boom", "c", "d"]
        out = parallel_map(_crash_in_child, items, workers=2, payload=os.getpid())
        assert out == ["aa", "boomboom", "cc", "dd"]

    def test_wedged_worker_abandoned_and_recomputed(self):
        items = ["slow", "ok"]
        start = time.time()
        out = parallel_map(
            _hang_in_child, items, workers=2, payload=os.getpid(), timeout=0.4
        )
        assert out == ["SLOW", "OK"]
        assert time.time() - start < 10  # never waited on the wedged pool

    def test_task_exception_propagates_unchanged(self):
        with pytest.raises(ValueError, match="bad item -3"):
            parallel_map(_raise_on_bad, [1, -3, 2], workers=2)

    def test_return_exceptions_collects_task_errors(self):
        out = parallel_map(
            _raise_on_bad, [1, -3, 2], workers=2, return_exceptions=True
        )
        assert out[0] == 2 and out[2] == 3
        assert isinstance(out[1], ValueError)

    def test_return_exceptions_serial_path(self):
        out = parallel_map(
            _raise_on_bad, [1, -3], workers=1, return_exceptions=True
        )
        assert out[0] == 2 and isinstance(out[1], ValueError)

    def test_payload_global_restored(self):
        sentinel = object()
        sweep._PAYLOAD = sentinel
        try:
            parallel_map(_raise_on_bad, [1, 2, 3], workers=2)
            assert sweep._PAYLOAD is sentinel
        finally:
            sweep._PAYLOAD = None


class TestRetryPolicy:
    def test_backoff_progression_and_cap(self):
        p = RetryPolicy(backoff_base=0.1, backoff_multiplier=2.0, backoff_max=0.3)
        assert p.backoff(1) == pytest.approx(0.1)
        assert p.backoff(2) == pytest.approx(0.2)
        assert p.backoff(3) == pytest.approx(0.3)  # capped, not 0.4
        assert p.backoff(0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_retries=-1)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(shard_timeout=0)

    def test_bad_errors_mode_rejected(self):
        with pytest.raises(ValueError, match="errors"):
            get_backend("resilient", errors="ignore")


class TestErrorIsolation:
    def test_isolate_returns_failure_records(self, stack, baseline):
        with faults.injected(FaultPlan.parse("raise-in-kernel@scenario=2")):
            result = solve_stack(
                stack, method="exact-mva", backend="serial",
                cache=None, errors="isolate",
            )
        assert result.failed_indices == (2,)
        (failure,) = result.failures
        assert failure.solver == "exact-mva"
        assert "InjectedFault" in failure.error
        assert failure.fingerprint == stack[2].fingerprint()
        assert np.isnan(result.throughput[2]).all()
        good = [i for i in range(len(stack)) if i != 2]
        np.testing.assert_array_equal(
            result.throughput[good], baseline.throughput[good]
        )

    def test_raise_mode_propagates(self, stack):
        with faults.injected(FaultPlan.parse("raise-in-kernel@scenario=2")):
            with pytest.raises(Exception, match="injected raise-in-kernel"):
                solve_stack(
                    stack, method="exact-mva", backend="serial", cache=None
                )

    def test_invalid_errors_value(self, stack):
        with pytest.raises(SolverInputError, match="errors must be"):
            solve_stack(stack, cache=None, errors="retry")

    def test_single_scenario_solve_rejects_stack_knobs(self, net):
        with pytest.raises(SolverInputError, match="scenario stacks"):
            solve(Scenario(net, 10), errors="isolate")

    def test_failed_results_never_cached(self, stack):
        store = SolverCache()
        with faults.injected(FaultPlan.parse("raise-in-kernel@scenario=0")):
            bad = solve_stack(
                stack, method="exact-mva", backend="serial",
                cache=store, errors="isolate",
            )
        assert bad.failures and len(store) == 0
        clean = solve_stack(
            stack, method="exact-mva", backend="serial",
            cache=store, errors="isolate",
        )
        assert not clean.failures and len(store) == 1

    def test_resilient_isolates_persistent_failure(self, stack, baseline):
        # Armed for every attempt the degradation chain can make, the
        # poisoned scenario must end as a failure record, not an abort.
        spec = ";".join(
            f"raise-in-kernel@scenario=4,attempt={a}" for a in range(8)
        )
        with faults.injected(FaultPlan.parse(spec)):
            result = solve_stack(
                stack, method="exact-mva", backend="resilient",
                workers=1, cache=None, errors="isolate",
            )
        assert result.failed_indices == (4,)
        assert result.failures[0].retries > 0
        good = [i for i in range(len(stack)) if i != 4]
        np.testing.assert_allclose(
            result.throughput[good], baseline.throughput[good], atol=ATOL
        )

    @settings(max_examples=12, deadline=None)
    @given(bad=st.sets(st.integers(min_value=0, max_value=5), min_size=1, max_size=4))
    def test_isolate_preserves_good_scenarios_exactly(self, bad):
        net = ClosedNetwork(
            [Station("web", demand=0.02), Station("db", demand=0.05)],
            think_time=1.0,
        )
        stack = [Scenario(net, 10, think_time=0.5 + 0.1 * i) for i in range(6)]
        spec = ";".join(f"raise-in-kernel@scenario={i}" for i in sorted(bad))
        with faults.injected(FaultPlan.parse(spec)):
            mixed = solve_stack(
                stack, method="exact-mva", backend="serial",
                cache=None, errors="isolate",
            )
        faults.deactivate()
        good = [i for i in range(6) if i not in bad]
        assert mixed.failed_indices == tuple(sorted(bad))
        assert np.isnan(mixed.throughput[sorted(bad)]).all()
        if good:
            clean = solve_stack(
                [stack[i] for i in good], method="exact-mva",
                backend="serial", cache=None,
            )
            np.testing.assert_array_equal(mixed.throughput[good], clean.throughput)
            np.testing.assert_array_equal(
                mixed.queue_lengths[good], clean.queue_lengths
            )


class TestSweepCheckpoint:
    def test_kill_and_resume_bit_identical(self, tmp_path, stack, baseline):
        path = tmp_path / "sweep.ckpt"
        full = solve_stack(
            stack, method="exact-mva", workers=2, cache=None, checkpoint=path
        )
        # Simulate a crash that lost the tail: keep only the first
        # journaled shard plus a torn half-written record.
        lines = path.read_text().splitlines()
        assert len(lines) >= 2
        path.write_text(lines[0] + "\n" + lines[1][: len(lines[1]) // 2])
        resumed = solve_stack(
            stack, method="exact-mva", workers=2, cache=None, checkpoint=path
        )
        assert np.array_equal(resumed.throughput, full.throughput)
        assert np.array_equal(resumed.queue_lengths, full.queue_lengths)
        assert np.array_equal(resumed.utilizations, full.utilizations)
        np.testing.assert_allclose(full.throughput, baseline.throughput, atol=ATOL)

    def test_completed_checkpoint_skips_recomputation(self, tmp_path, stack):
        path = tmp_path / "sweep.ckpt"
        solve_stack(stack, method="exact-mva", workers=2, cache=None, checkpoint=path)
        size = path.stat().st_size
        solve_stack(stack, method="exact-mva", workers=2, cache=None, checkpoint=path)
        assert path.stat().st_size == size  # nothing re-journaled

    def test_corrupted_payload_is_resolved_fresh(self, tmp_path, stack):
        path = tmp_path / "sweep.ckpt"
        solve_stack(stack, method="exact-mva", workers=2, cache=None, checkpoint=path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        records[0]["payload"] = records[0]["payload"][:-8] + "AAAAAAAA"
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        ck = SweepCheckpoint(path)
        loaded = ck.load()
        assert records[0]["key"] not in loaded  # checksum mismatch dropped
        assert len(loaded) == len(records) - 1

    def test_garbage_journal_ignored(self, tmp_path, stack, baseline):
        path = tmp_path / "sweep.ckpt"
        path.write_text("this is not json\n{\"half\": true\n")
        result = solve_stack(
            stack, method="exact-mva", workers=2, cache=None, checkpoint=path
        )
        np.testing.assert_allclose(result.throughput, baseline.throughput, atol=ATOL)

    def test_shard_key_refuses_uncacheable_options(self):
        assert SweepCheckpoint.shard_key("mvasd", {"hook": lambda: 0}, ("fp",)) is None
        assert (
            SweepCheckpoint.shard_key("mvasd", {"demand_axis": "throughput"}, ("fp",))
            is None
        )
        key = SweepCheckpoint.shard_key("mvasd", {"single_server": True}, ("fp",))
        assert isinstance(key, str) and len(key) == 64

    def test_failed_parts_never_journaled(self, tmp_path, stack):
        path = tmp_path / "sweep.ckpt"
        spec = ";".join(f"raise-in-kernel@scenario=1,attempt={a}" for a in range(8))
        with faults.injected(FaultPlan.parse(spec)):
            result = solve_stack(
                stack, method="exact-mva", backend="resilient", workers=1,
                cache=None, errors="isolate", checkpoint=path,
            )
        assert result.failures
        ck = SweepCheckpoint(path)
        assert ck.load() == {}  # the failed shard must be recomputed next run


class TestMulticlassCheckpoint:
    """Satellite: all three stack containers ride the shard journal.

    Multi-class sweeps used to skip journaling (the npz layout only knew
    the single-class trajectory container); these pin the extended
    ``container``-tagged layout and the resume bit-identity it buys.
    """

    def _mc_stack(self, net, s=6):
        from repro.solvers import WorkloadClass

        scales = np.linspace(0.8, 1.2, s)
        return [
            Scenario(
                net,
                5,
                classes=(
                    WorkloadClass(
                        "a", 3, {"web": 0.02 * sc, "db": 0.05 * sc}, think_time=1.0
                    ),
                    WorkloadClass(
                        "b", 2, {"web": 0.01 * sc, "db": 0.04 * sc}, think_time=0.5
                    ),
                ),
            )
            for sc in scales
        ]

    def test_multiclass_kill_and_resume_bit_identical(self, tmp_path, net):
        stack = self._mc_stack(net)
        path = tmp_path / "mc.ckpt"
        full = solve_stack(
            stack, method="exact-multiclass", workers=2, cache=None, checkpoint=path
        )
        lines = path.read_text().splitlines()
        assert len(lines) >= 2
        assert all(
            json.loads(line)["meta"]["container"] == "multiclass" for line in lines
        )
        # crash that lost the tail: first shard survives, half a torn record
        path.write_text(lines[0] + "\n" + lines[1][: len(lines[1]) // 2])
        resumed = solve_stack(
            stack, method="exact-multiclass", workers=2, cache=None, checkpoint=path
        )
        assert np.array_equal(resumed.throughput, full.throughput)
        assert np.array_equal(resumed.queue_lengths_by_class, full.queue_lengths_by_class)
        assert np.array_equal(resumed.utilizations, full.utilizations)
        assert resumed.populations == full.populations
        assert resumed.class_names == full.class_names
        serial = solve_stack(
            stack, method="exact-multiclass", backend="serial", cache=None
        )
        np.testing.assert_allclose(full.throughput, serial.throughput, atol=ATOL)

    def test_multiclass_trajectory_container_round_trips(self, tmp_path, net):
        stack = self._mc_stack(net)
        part = solve_stack(stack, method="multiclass-mvasd", backend="batched", cache=None)
        ck = SweepCheckpoint(tmp_path / "traj.ckpt")
        key = "c" * 64
        ck.record(key, part)
        loaded = ck.load()[key]
        assert type(loaded) is type(part)
        assert loaded.class_names == part.class_names
        assert np.array_equal(loaded.totals, part.totals)
        assert np.array_equal(np.asarray(loaded.populations), np.asarray(part.populations))
        assert np.array_equal(loaded.throughput, part.throughput)
        assert np.array_equal(loaded.response_time, part.response_time)
        assert np.array_equal(loaded.utilizations, part.utilizations)

    def test_v1_untagged_record_still_decodes(self, tmp_path, stack):
        """Journals written before the container tag keep loading as mva."""
        path = tmp_path / "v1.ckpt"
        solve_stack(stack, method="exact-mva", workers=2, cache=None, checkpoint=path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        for record in records:
            record["meta"].pop("container")
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        loaded = SweepCheckpoint(path).load()
        assert len(loaded) == len(records)
        for part in loaded.values():
            assert part.throughput.ndim == 2  # BatchedMVAResult shape

    def test_unknown_container_skipped_not_fatal(self, tmp_path, stack, baseline):
        path = tmp_path / "future.ckpt"
        solve_stack(stack, method="exact-mva", workers=2, cache=None, checkpoint=path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        records[0]["meta"]["container"] = "from-the-future"
        path.write_text("\n".join(json.dumps(r) for r in records) + "\n")
        loaded = SweepCheckpoint(path).load()
        assert len(loaded) == len(records) - 1  # unknown shard re-solves
        result = solve_stack(
            stack, method="exact-mva", workers=2, cache=None, checkpoint=path
        )
        np.testing.assert_allclose(result.throughput, baseline.throughput, atol=ATOL)


class TestNonFiniteDemands:
    def test_check_finite_names_the_solver(self):
        with pytest.raises(SolverInputError, match="exact-mva: demands must be finite"):
            check_finite_demands(np.array([0.1, np.nan]), solver="exact-mva")
        with pytest.raises(SolverInputError, match="finite"):
            check_finite_demands(np.array([np.inf, 0.1]), solver="amva")

    def test_nan_does_not_slip_past_sign_check(self):
        # NaN < 0 is False — a bare `demands < 0` guard admits NaN.
        arr = np.array([np.nan, 0.05])
        with pytest.raises(SolverInputError):
            check_finite_demands(arr)

    def test_batched_kernel_rejects_nan_stack(self, net):
        stack = np.array([[0.02, 0.05], [np.nan, 0.05]])
        with pytest.raises(ValueError, match="batched-exact-mva.*finite"):
            batched_exact_mva(net, 10, stack)

    def test_mvasd_rejects_nan_demand_function(self):
        netv = ClosedNetwork(
            [Station("cpu", demand=0.02), Station("db", demand=0.05)], think_time=1.0
        )
        with pytest.raises(ValueError, match="non-finite"):
            mvasd(
                netv, 10,
                demand_functions=[lambda n: np.nan, lambda n: 0.05],
            )


class TestNonFatalCache:
    def test_unhashable_key_degrades_to_miss(self):
        store = SolverCache()
        assert store.get(["not", "hashable"]) is None
        store.put(["not", "hashable"], object())  # must not raise
        s = store.stats()
        assert s.errors == 2 and s.size == 0

    def test_cache_stats_indexable(self):
        store = SolverCache()
        store.get("missing")
        assert cache_stats(store)["misses"] == 1
        assert cache_stats(store)["errors"] == 0
        with pytest.raises(KeyError):
            cache_stats(store)["not-a-counter"]

    def test_injected_cache_fault_never_reaches_solve(self, net):
        store = SolverCache()
        scenario = Scenario(net, 10)
        clean = solve(scenario, method="exact-mva", cache=None)
        with faults.injected(FaultPlan.parse("corrupt-cache-entry")):
            result = solve(scenario, method="exact-mva", cache=store)
        np.testing.assert_allclose(result.throughput, clean.throughput, atol=ATOL)
        assert store.stats().errors > 0 and len(store) == 0

    def test_clear_resets_error_counter(self):
        store = SolverCache()
        store.get(["unhashable"])
        store.clear()
        assert store.stats().errors == 0


class TestSweepGridCLI:
    def test_inject_faults_flag(self, capsys):
        from repro.cli import main

        code = main([
            "sweep-grid", "--demands", "0.02,0.05", "--think", "1",
            "--population", "15", "--scales", "0.75,1.0,1.25",
            "--solver", "mva", "--errors", "isolate",
            "--inject-faults", "raise-in-kernel@scenario=1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "FAILED" in out and "failed scenario 1" in out

    def test_bad_fault_spec_exits(self):
        from repro.cli import main

        with pytest.raises(SystemExit, match="inject-faults"):
            main([
                "sweep-grid", "--demands", "0.02,0.05", "--population", "10",
                "--inject-faults", "meteor-strike",
            ])

    def test_checkpoint_flag_resumes_identically(self, tmp_path, capsys):
        from repro.cli import main

        args = [
            "sweep-grid", "--demands", "0.02,0.05", "--think", "1",
            "--population", "15", "--scales", "0.75,1.0",
            "--backend", "resilient", "--workers", "2",
            "--checkpoint", str(tmp_path / "grid.ckpt"),
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        assert capsys.readouterr().out == first
