"""Tests of the benchmark itself: gates, percentiles, seeds and spans.

Run from the repository root::

    python3 -m pytest stackbench/tests -q
"""

import os
import sys
from dataclasses import replace

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]

from stackbench import gates, spans, stats, workloads  # noqa: E402
from stackbench.run import input_digest, measure  # noqa: E402
from stackbench.speed import Speedometer  # noqa: E402


# -- tiny variants of the four workloads ---------------------------------------


class TinyColdSolve(workloads.ColdSolve):
    sizes = {"conv": (12, 16), "mvasd": (10, 12), "mva": (15, 20)}


class TinySweep(workloads.Sweep):
    sizes = {"vary": (3, 5), "single": (4, 6), "sharded": (1024, 1024)}
    populations = {"vary": 8, "single": 10, "sharded": 4}


class TinyRemoteSweep(workloads.RemoteSweep):
    sizes = (3, 6)
    population = 8


class TinyServeMix(workloads.ServeMix):
    read_set = 12
    read_sizes = (5, 10)
    whatif_targets = (2, 5, 8)
    whatif_levels = 3
    cold_sizes = (4, 6)


def _noop(message):
    raise AssertionError(message)


@pytest.mark.parametrize(
    "workload, ops",
    [(TinyColdSolve(), 10), (TinySweep(), 10), (TinyRemoteSweep(), 4), (TinyServeMix(), 20)],
    ids=["cold-solve", "sweep", "remote-sweep", "serve-mix"],
)
def test_tiny_workload_passes_its_gates(workload, ops):
    state = workload.setup(5, {"rep": 0, "trace": False})
    try:
        phase = measure(workload, state, 5, 0, 60.0, None, _noop, Speedometer(), max_ops=ops)
        assert workload.finish(state) == []
    finally:
        workload.teardown(state)
    assert phase["attempted"] == ops
    assert phase["failed"] == 0
    assert len(phase["lat"]) == ops


# -- perturbed outputs fail the matching gate ----------------------------------


def _cold_inputs(stratum):
    w = TinyColdSolve()
    i = w.cycle.index(stratum)
    inputs = w.build(None, w.draw(3, i))
    return w, inputs, workloads.solvers.solve(inputs[1], cache=None)


def test_clean_cold_solve_outputs_pass():
    for stratum in ("conv", "mvasd", "mva"):
        w, inputs, result = _cold_inputs(stratum)
        assert w.check(None, inputs, result) == []


def test_perturbed_throughput_fails_littles_law():
    w, inputs, result = _cold_inputs("conv")
    bad = replace(result, throughput=result.throughput * (1 + 1e-6))
    errors = w.check(None, inputs, bad)
    assert any("Little's law" in e for e in errors)


def test_utilization_above_one_fails():
    w, inputs, result = _cold_inputs("mva")
    bad = replace(result, utilizations=result.utilizations + 1.0)
    assert any("utilization outside" in e for e in w.check(None, inputs, bad))


def test_mvasd_band_is_the_documented_transition_bias():
    w, inputs, result = _cold_inputs("mvasd")
    u = result.utilizations.copy()
    u[-1, 0] = 1.0 + gates.MVASD_TRANSITION_BIAS / 2
    within = gates.operational_laws(
        "x", result.populations, result.throughput, result.response_time,
        result.think_time, u, u_max=1.0 + gates.MVASD_TRANSITION_BIAS,
    )
    assert within == []
    u[-1, 0] = 1.0 + 2 * gates.MVASD_TRANSITION_BIAS
    beyond = gates.operational_laws(
        "x", result.populations, result.throughput, result.response_time,
        result.think_time, u, u_max=1.0 + gates.MVASD_TRANSITION_BIAS,
    )
    assert any("utilization outside" in e for e in beyond)


def test_scalar_vs_batched_gate_catches_a_drift():
    w, inputs, result = _cold_inputs("mva")
    drifted = replace(result, throughput=result.throughput + 1e-8)
    assert gates.close("x", drifted, result)
    assert gates.close("x", result, result) == []


def test_served_snapshot_one_ulp_off_fails():
    _, inputs, result = _cold_inputs("mva")
    snap = {"kind": "at", "solver": result.solver, **result.at(5)}
    served = dict(snap, throughput=float(np.nextafter(snap["throughput"], np.inf)))
    assert gates.equal_payload("at", snap, dict(snap)) == []
    assert gates.equal_payload("at", served, snap)


def test_remote_stack_one_ulp_off_fails_bit_identity():
    w = TinySweep()
    draw, stack = w.build(None, w.draw(3, 0))
    local = workloads.solvers.solve_stack(stack, cache=None)
    x = local.throughput.copy()
    x[0, -1] = np.nextafter(x[0, -1], np.inf)
    assert gates.bit_identical("remote", local, local) == []
    assert gates.bit_identical("remote", replace(local, throughput=x), local)


# -- the percentile helper -------------------------------------------------------


def test_nearest_rank_counts_samples_beyond():
    values = list(range(1, 101))
    assert stats.nearest_rank(values, 90) == (90, 10)
    assert stats.nearest_rank(values, 99) == (99, 1)
    assert stats.nearest_rank(values, 50) == (50, 50)
    assert stats.nearest_rank(list(range(1, 1001)), 99) == (990, 10)
    assert stats.nearest_rank([7.0], 99) == (7.0, 0)


def test_tail_keeps_the_declared_percentile_or_falls_back():
    assert stats.tail(list(range(1, 1001)), 99.0) == (99.0, 990, 10)
    # 100 samples leave only one beyond p99: fall back to p90 (10 beyond)
    assert stats.tail(list(range(1, 101)), 99.0) == (90.0, 90, 10)
    # a faster run (more samples) keeps the declared percentile
    assert stats.tail(list(range(1, 2001)), 90.0) == (90.0, 1800, 200)


# -- seeds -------------------------------------------------------------------------


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_seeds_are_deterministic(name):
    w = workloads.WORKLOADS[name]
    assert input_digest(w, 7) == input_digest(w, 7)
    assert input_digest(w, 7) != input_digest(w, 8)
    for i in range(3 * len(w.cycle)):
        a, b, c = w.draw(7, i), w.draw(7, i), w.draw(8, i)
        for key in a:
            assert np.array_equal(a[key], b[key])
        # other seeds: same stratum and sizes, other demands
        assert a.get("stratum") == c.get("stratum")
        assert a.get("n") == c.get("n")
        if "base" in a:
            assert a["base"].shape == c["base"].shape
            assert not np.array_equal(a["base"], c["base"])


# -- spans and the ledger --------------------------------------------------------------


def test_union_length_merges_overlaps():
    assert spans.union_length([]) == 0.0
    assert spans.union_length([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)


def test_self_time_is_span_minus_covered_children():
    ledger = spans.build_ledger(
        [(1, 0, "op", 0.0, 10.0), (2, 1, "a", 1.0, 4.0), (3, 1, "a", 3.0, 6.0),
         (4, 2, "b", 2.0, 3.0)],
        {},
    )
    assert ledger["layers"]["op"]["self_s"] == pytest.approx(5.0)
    assert ledger["layers"]["a"]["calls"] == 2
    assert ledger["layers"]["a"]["total_s"] == pytest.approx(6.0)
    assert ledger["layers"]["a"]["self_s"] == pytest.approx(5.0)


def test_tracer_counts_convolutions_and_uninstalls():
    from repro.core import convolution

    original = convolution.log_convolve
    tracer = spans.Tracer()
    tracer.install()
    try:
        w, inputs, _ = _cold_inputs("conv")
        tracer.enable()
        tracer.call("op", workloads.solvers.solve, inputs[1], cache=None)
        tracer.disable()
    finally:
        tracer.uninstall()
    assert convolution.log_convolve is original
    metrics = spans.layer_metrics(tracer.ledger(), 1, 1.0)
    # three queues + think: 3 convolutions for G, 2 per multi-server station
    assert metrics["core.log_convolve.calls_per_op"]["value"] == 7
    assert metrics["core.convolution_mva.ms_per_call"]["value"] > 0
    assert metrics["protocol.encode_result.ms_per_call"]["value"] == 0
    assert set(metrics) == {m for m, _, _ in spans.LAYER_METRICS}
