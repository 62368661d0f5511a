"""One container layout: journal, wire codec and shard reassembly agree.

Each stack container declares its fields once (``layout`` in
:mod:`repro.engine.batched`); the checkpoint journal, the
``solve_shard`` wire codec and ``_concat_results`` all derive from that
declaration.  These tests pin that every derived codec round-trips all
three containers bit-identically — with and without ``demands_used``,
with and without failure records — and that a journal written before
the codecs were derived from the layout still resumes bit-identically.
"""

import json
import shutil
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.core.network import ClosedNetwork, Station
from repro.engine import ScenarioFailure, SweepCheckpoint
from repro.engine.backends import _concat_results
from repro.engine.batched import STACK_CONTAINERS
from repro.serve.protocol import decode_stack_result, encode_stack_result
from repro.solvers import Scenario, WorkloadClass, solve_stack

#: Journal with one record per stack below, written by the release
#: before the layout-derived codecs (2 scenarios each, N <= 5).
PARENT_JOURNAL = Path(__file__).parent / "data" / "checkpoint_v1.journal"


def _stacks():
    """The stacks (and methods) the committed journal was written for."""
    net = ClosedNetwork(
        [Station("web", demand=0.02), Station("db", demand=0.05)], think_time=1.0
    )
    single = [Scenario(net, 5, think_time=z) for z in (0.5, 1.5)]
    multi = ClosedNetwork(
        [Station("web", demand=0.04, servers=2), Station("db", demand=0.05)],
        think_time=1.0,
    )
    vary = [
        Scenario(
            multi,
            5,
            demand_matrix=np.array([[0.04 + 0.001 * n * s, 0.05] for n in range(1, 6)]),
            think_time=1.0,
        )
        for s in (1, 2)
    ]
    mc = [
        Scenario(
            net,
            4,
            classes=(
                WorkloadClass("a", 2, {"web": 0.02 * s, "db": 0.05 * s}, think_time=1.0),
                WorkloadClass("b", 2, {"web": 0.01 * s, "db": 0.04 * s}, think_time=0.5),
            ),
        )
        for s in (1.0, 1.2)
    ]
    return [
        ("exact-mva", single),
        ("mvasd", vary),
        ("exact-multiclass", mc),
        ("multiclass-mvasd", mc),
    ]


def _fields(result):
    layout = result.layout
    return (*layout.labels, *layout.index, *layout.shared, *layout.stacked)


def assert_bit_identical(a, b, labels=True):
    assert type(a) is type(b)
    for name in _fields(a):
        x, y = getattr(a, name), getattr(b, name)
        if x is None or y is None:
            assert x is None and y is None, name
        elif isinstance(x, tuple):
            assert x == y, name
        else:
            assert x.dtype == y.dtype and x.shape == y.shape, name
            assert x.tobytes() == y.tobytes(), name
    if labels:
        assert (a.solver, a.backend, a.failures) == (b.solver, b.backend, b.failures)


def _containers():
    """All three containers, with/without demands_used and a failure."""
    cases = []
    for method, stack in _stacks()[1:]:  # mvasd, exact-multiclass, multiclass-mvasd
        whole = solve_stack(stack * 2, method=method, backend="batched", cache=None)
        failure = ScenarioFailure(2, "f" * 64, method, "ValueError: broken", retries=3)
        assert whole.demands_used is not None
        for demands in (True, False):
            for failures in ((), (failure,)):
                case = replace(
                    whole,
                    demands_used=whole.demands_used if demands else None,
                    failures=failures,
                )
                cases.append(
                    pytest.param(case, id=f"{method}-demands={demands}-failures={len(failures)}")
                )
    return cases


def _slice(result, start, stop):
    stacked = {
        name: None if getattr(result, name) is None else getattr(result, name)[start:stop]
        for name in result.layout.stacked
    }
    failures = tuple(
        replace(f, index=f.index - start) for f in result.failures if start <= f.index < stop
    )
    return replace(result, **stacked, failures=failures)


class TestLayoutCodecs:
    def test_every_container_declares_a_layout(self):
        kinds = {cls.layout.wire_kind for cls in STACK_CONTAINERS}
        tags = {cls.layout.journal_tag for cls in STACK_CONTAINERS}
        assert kinds == {"batched-stack", "multiclass-stack", "multiclass-trajectory-stack"}
        assert tags == {"mva", "multiclass", "multiclass-trajectory"}

    @pytest.mark.parametrize("result", _containers())
    def test_wire_round_trip_bit_identical(self, result):
        wire = json.loads(json.dumps(encode_stack_result(result)))
        assert_bit_identical(decode_stack_result(wire), result)

    @pytest.mark.parametrize("result", _containers())
    def test_checkpoint_round_trip_bit_identical(self, result):
        meta, raw = SweepCheckpoint._encode(result)
        decoded = SweepCheckpoint._decode(json.loads(json.dumps(meta)), raw)
        # the journal never carries failures: failed parts are not recorded
        assert_bit_identical(decoded, replace(result, failures=()))

    @pytest.mark.parametrize("result", _containers())
    def test_concat_of_split_equals_whole(self, result):
        parts = [_slice(result, 0, 1), _slice(result, 1, 3), _slice(result, 3, 4)]
        assert_bit_identical(_concat_results(parts, result.backend), result)

    @pytest.mark.parametrize("result", _containers())
    def test_failed_parts_are_not_journaled(self, tmp_path, result):
        journal = SweepCheckpoint(tmp_path / "j.ckpt")
        journal.record("k" * 64, result)
        assert bool(journal.load()) == (not result.failures)


class TestParentJournal:
    def test_parent_journal_resumes_bit_identical(self, tmp_path):
        path = tmp_path / "journal.ckpt"
        shutil.copy(PARENT_JOURNAL, path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert {r["meta"]["container"] for r in records} == {
            "mva",
            "multiclass",
            "multiclass-trajectory",
        }
        assert len(SweepCheckpoint(path).load()) == len(records) == 4
        size = path.stat().st_size
        for method, stack in _stacks():
            fresh = solve_stack(stack, method=method, backend="batched", cache=None)
            resumed = solve_stack(
                stack, method=method, backend="resilient", workers=1, cache=None,
                checkpoint=path,
            )
            assert_bit_identical(resumed, fresh, labels=False)
            assert resumed.solver == fresh.solver
        assert path.stat().st_size == size  # every shard came from the journal
