"""The four benchmark workloads: inputs, set-up, the timed op and its gates.

Every input is drawn from ``numpy.random.default_rng([seed, ...])``, so
the same seed gives the same inputs.  Each workload repeats a fixed
cycle of strata, and each stratum walks its size range along a fixed
low-discrepancy sequence (:func:`size`); the seed only moves the demands
and think times.  Different seeds therefore give the same strata counts
and the same op sizes, which keeps run-to-run spread low, and the op
times spread evenly over each range instead of bunching at a few sizes.

All four are closed loops with one caller: the next op starts only
after the previous one has answered and been checked.
"""

from __future__ import annotations

import json
import os
import shutil
import signal
import subprocess
import sys
import time

import numpy as np

import repro.solvers as solvers
from repro.core.network import ClosedNetwork, Station
from repro.serve import protocol
from repro.serve.client import ServeClient
from repro.solvers.cache import SolverCache, default_cache
from repro.solvers.scenario import Scenario

from . import gates

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK_DIR = os.path.join(ROOT, ".bench_work")
STATIONS = ("web", "app", "db")
MULTI = (4, 2, 1)
SINGLE = (1, 1, 1)


def rng_for(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng([seed, *key])


_GOLDEN = (5 ** 0.5 - 1) / 2


def golden(k: int, phase: float = 0.0) -> float:
    """The ``k``-th point of a golden-ratio walk over ``[0, 1)``."""
    return (k * _GOLDEN + phase) % 1.0


def size(k: int, lo: int, hi: int, phase: float = 0.0) -> int:
    """The ``k``-th size of a stratum: a golden-ratio walk over ``[lo, hi]``."""
    return lo + int(round((hi - lo) * golden(k, phase)))


def ordinal(cycle: tuple[str, ...], i: int) -> int:
    """How many ops of op ``i``'s stratum came before it."""
    stratum = cycle[i % len(cycle)]
    return (i // len(cycle)) * cycle.count(stratum) + cycle[: i % len(cycle)].count(stratum)


def draw_demands(rng, count: int, servers, varying: bool) -> dict:
    """Random per-station base demands (and demand-curve shapes)."""
    out = {
        "base": rng.uniform(0.002, 0.008, size=(count, len(STATIONS))) * np.asarray(servers),
        "think": rng.uniform(0.5, 2.0, size=count),
    }
    if varying:
        out["a"] = rng.uniform(0.4, 0.9, size=(count, len(STATIONS)))
        out["tau"] = rng.uniform(20.0, 80.0, size=(count, len(STATIONS)))
    return out


def demand_curves(base, a, tau, n: int) -> np.ndarray:
    """``(S, n, K)`` demands falling from ``base`` towards ``a * base``."""
    levels = np.arange(1, n + 1, dtype=float)[None, :, None]
    return base[:, None, :] * (a[:, None, :] + (1 - a[:, None, :]) * np.exp(-levels / tau[:, None, :]))


def build_scenarios(draw: dict, servers, n: int) -> list[Scenario]:
    base, think = draw["base"], draw["think"]
    matrices = demand_curves(base, draw["a"], draw["tau"], n) if "a" in draw else None
    out = []
    for s in range(len(base)):
        network = ClosedNetwork(
            [Station(name, float(d), servers=c) for name, d, c in zip(STATIONS, base[s], servers)],
            think_time=float(think[s]),
        )
        if matrices is None:
            out.append(Scenario(network, max_population=n))
        else:
            out.append(Scenario(network, max_population=n, demand_matrix=matrices[s]))
    return out


def run_probe(name: str, seed: int) -> None:
    """Set-up of an in-process workload in a fresh interpreter (timed)."""
    subprocess.run(
        [sys.executable, os.path.join(ROOT, "stackbench", "run.py"),
         "--workload", name, "--seed", str(seed), "--setup-probe"],
        check=True,
        cwd=ROOT,
        stdout=subprocess.DEVNULL,
        timeout=120,
    )


def peak_rss_mb(pid: int | str = "self") -> float:
    """``VmHWM`` (peak resident set) of a process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


class Workload:
    """One workload: fixed strata cycle, set-up, timed op and gates."""

    name = ""
    #: Declared tail percentile (see :func:`stackbench.stats.tail`).
    tail_percentile = 90.0
    cycle: tuple[str, ...] = ()
    #: What ``throughput`` counts: "ops" or "scenarios".
    unit = "ops"
    #: Whether some ops fork workers that run on every CPU.
    forks = False

    def draw(self, seed: int, i: int) -> dict:
        raise NotImplementedError

    def digest_material(self, seed: int, count: int = 64):
        for i in range(count):
            yield self.draw(seed, i)

    def warm(self, state) -> None:
        """In-process warm-up before the first timed op."""

    def setup(self, seed: int, ctx: dict):
        raise NotImplementedError

    def teardown(self, state) -> None:
        pass

    def build(self, state, draw: dict):
        raise NotImplementedError

    def run(self, state, inputs):
        raise NotImplementedError

    def check(self, state, inputs, output) -> list[str]:
        raise NotImplementedError

    def units(self, inputs) -> int:
        return 1

    def fans_out(self, inputs) -> bool:
        """Does this op's work run on every CPU (see :mod:`stackbench.speed`)?"""
        return False

    def after(self, state) -> None:
        """Untimed clean-up after each op.

        The process-global L1 keeps up to 256 results; clearing it keeps
        this process's footprint independent of the op count.  Every op
        misses it either way, since no two ops share a scenario.
        """
        default_cache().clear()

    def children(self, state) -> list:
        """Server or worker processes whose peak RSS the run reports."""
        return []

    def start_trace(self, state) -> None:
        """Turn on span recording in the processes this workload started."""

    def finish(self, state) -> list[str]:
        """End-of-run gates; run before teardown."""
        return []

    def remote_ledgers(self, state) -> list[dict]:
        return []


class InProcess(Workload):
    """Set-up: a fresh interpreter imports ``repro`` and warms up (what a
    user's cold start pays), then the same warm-up runs in this process."""

    def setup(self, seed, ctx):
        run_probe(self.name, seed)
        self.warm(None)
        return {"seed": seed}


class ColdSolve(InProcess):
    name = "cold-solve"
    cycle = ("conv", "mvasd", "conv", "mva", "conv", "conv", "mvasd", "conv", "mva", "conv")
    tail_percentile = 90.0
    #: Population range per stratum.
    sizes = {"conv": (100, 300), "mvasd": (100, 300), "mva": (300, 1000)}
    expected = {"conv": "exact-multiserver-mva", "mvasd": "mvasd", "mva": "exact-mva"}

    def draw(self, seed, i):
        stratum = self.cycle[i % len(self.cycle)]
        servers = SINGLE if stratum == "mva" else MULTI
        return {
            "stratum": stratum,
            "n": size(ordinal(self.cycle, i), *self.sizes[stratum]),
            "servers": servers,
            **draw_demands(rng_for(seed, i), 1, servers, varying=stratum == "mvasd"),
        }

    def warm(self, state):
        for i in range(len(self.cycle)):
            d = self.draw(0, i)
            solvers.solve(build_scenarios(d, d["servers"], 20)[0])
        default_cache().clear()

    def build(self, state, draw):
        return draw, build_scenarios(draw, draw["servers"], draw["n"])[0]

    def run(self, state, inputs):
        return solvers.solve(inputs[1])

    def check(self, state, inputs, result):
        draw, scenario = inputs
        label = f"{draw['stratum']} N={draw['n']}"
        out = gates.result_laws(label, result, draw["servers"])
        want = self.expected[draw["stratum"]]
        if result.solver != want:
            out.append(f"{label}: auto chose {result.solver!r}, expected {want!r}")
        if draw["stratum"] != "conv":
            # scalar vs batched kernel of the same method: documented <= 1e-10
            batched = solvers.solve_stack(
                [scenario], method=want, backend="batched", cache=None
            ).scenario(0)
            out += gates.close(label + " scalar vs batched", result, batched)
        return out


class Sweep(InProcess):
    name = "sweep"
    unit = "scenarios"
    cycle = ("vary", "single", "vary", "vary", "sharded", "single", "vary", "single", "vary", "sharded")
    tail_percentile = 90.0
    #: Stack-size range per stratum; "sharded" stacks reach
    #: AUTO_SHARD_THRESHOLD (1024), so auto picks process-sharded.
    sizes = {"vary": (64, 256), "single": (256, 512), "sharded": (1024, 1280)}
    populations = {"vary": 100, "single": 200, "sharded": 60}
    forks = True
    expected = {
        "vary": ("batched-mvasd", "batched"),
        "single": ("batched-exact-mva", "batched"),
        "sharded": ("batched-mvasd", "process-sharded"),
    }

    def draw(self, seed, i):
        stratum = self.cycle[i % len(self.cycle)]
        count = size(ordinal(self.cycle, i), *self.sizes[stratum])
        servers = SINGLE if stratum == "single" else MULTI
        return {
            "stratum": stratum,
            "n": self.populations[stratum],
            "servers": servers,
            **draw_demands(rng_for(seed, i), count, servers, varying=stratum != "single"),
        }

    def warm(self, state):
        for stratum, servers in (("vary", MULTI), ("single", SINGLE)):
            d = draw_demands(rng_for(0, 0), 8, servers, varying=stratum == "vary")
            solvers.solve_stack(build_scenarios(d, servers, 20))
        default_cache().clear()

    def build(self, state, draw):
        return draw, build_scenarios(draw, draw["servers"], draw["n"])

    def run(self, state, inputs):
        return solvers.solve_stack(inputs[1])

    def units(self, inputs):
        return len(inputs[1])

    def fans_out(self, inputs):
        return inputs[0]["stratum"] == "sharded"

    def check(self, state, inputs, result):
        draw, stack = inputs
        label = f"{draw['stratum']} S={len(stack)}"
        out = gates.result_laws(label, result, draw["servers"])
        solver, backend = self.expected[draw["stratum"]]
        if (result.solver, result.backend) != (solver, backend):
            out.append(
                f"{label}: ran {result.solver!r} on {result.backend!r}, expected "
                f"{solver!r} on {backend!r}"
            )
        method = solver.removeprefix("batched-")
        for idx in (0, len(stack) - 1):
            # stack rows vs the scalar solver: backends agree <= 1e-10
            scalar = solvers.solve(stack[idx], method=method, cache=None)
            out += gates.close(f"{label} row {idx}", result.scenario(idx), scalar)
        return out


class ServerProcess:
    """A ``repro serve``/``repro worker`` child and one client connection."""

    def __init__(self, args: list[str], tag: str, ledger: str | None) -> None:
        os.makedirs(WORK_DIR, exist_ok=True)
        self.log_path = os.path.join(WORK_DIR, f"{tag}.log")
        self.ledger = ledger
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(ROOT, "src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        if ledger is None:
            cmd = [sys.executable, "-m", "repro", *args]
        else:
            cmd = [sys.executable, os.path.join(ROOT, "stackbench", "launch.py"), ledger, *args]
        with open(self.log_path, "w") as log:
            self.proc = subprocess.Popen(
                cmd, stdout=log, stderr=subprocess.STDOUT, cwd=ROOT, env=env
            )
        try:
            self.port = self._wait_for_port()
            self.client = ServeClient("127.0.0.1", self.port, timeout=120.0)
        except BaseException:
            self.kill()
            raise

    def _wait_for_port(self, timeout: float = 60.0) -> int:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with open(self.log_path) as fh:
                for line in fh:
                    if "listening on" in line:
                        return int(line.rsplit(":", 1)[1])
            if self.proc.poll() is not None:
                break
            time.sleep(0.01)
        raise RuntimeError(f"server did not come up; see {self.log_path}")

    def peak_rss_mb(self) -> float:
        return peak_rss_mb(self.proc.pid)

    def enable_trace(self) -> None:
        os.kill(self.proc.pid, signal.SIGUSR1)
        time.sleep(0.05)
        self.client.call("ping")

    def stop(self) -> dict | None:
        """Shut the server down, wait for it, return its ledger if traced."""
        try:
            self.client.call("shutdown")
        except (OSError, ValueError):
            pass
        self.client.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.kill()
            return None
        os.remove(self.log_path)
        if self.ledger is None:
            return None
        with open(self.ledger) as fh:
            ledger = json.load(fh)
        os.remove(self.ledger)
        return ledger

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=30)


class RemoteSweep(Workload):
    name = "remote-sweep"
    unit = "scenarios"
    cycle = ("vary",)
    sizes = (32, 96)
    population = 100
    tail_percentile = 90.0
    #: Worker L1 capacity.  Shard results are large; at the default 4096
    #: the worker's resident set would grow with the op count, so the
    #: benchmark caps it and fills it during set-up.
    worker_maxsize = 16

    def draw(self, seed, i):
        count = size(i, *self.sizes)
        return {"n": self.population, **draw_demands(rng_for(seed, i), count, MULTI, varying=True)}

    def setup(self, seed, ctx):
        tag = f"worker-{os.getpid()}-{ctx['rep']}"
        ledger = os.path.join(WORK_DIR, tag + ".ledger.json") if ctx["trace"] else None
        worker = ServerProcess(
            ["worker", "--port", "0", "--maxsize", str(self.worker_maxsize)], tag, ledger
        )
        state = {"worker": worker, "hosts": [f"127.0.0.1:{worker.port}"], "shards": 0}
        try:
            # Warm-up: enough shards to fill the worker's L1.
            for i in range(self.worker_maxsize // 4):
                self.run(state, self.build(state, self.draw(seed + 1, i)))
            state["baseline"] = worker.client.call("cache_stats")["requests_handled"]
        except BaseException:
            worker.kill()
            raise
        return state

    def build(self, state, draw):
        return draw, build_scenarios(draw, MULTI, draw["n"])

    def run(self, state, inputs):
        return solvers.solve_stack(inputs[1], hosts=state["hosts"])

    def units(self, inputs):
        return len(inputs[1])

    def check(self, state, inputs, result):
        draw, stack = inputs
        label = f"remote S={len(stack)}"
        state["shards"] += min(len(stack), 4)
        out = gates.result_laws(label, result, MULTI)
        if result.backend != "remote":
            out.append(f"{label}: ran on {result.backend!r}, expected 'remote'")
        local = solvers.solve_stack(stack, cache=None)
        out += gates.bit_identical(label, result, local)
        return out

    def finish(self, state):
        # Every shard must have reached the worker: a dispatcher that
        # quietly degraded to local solving would pass the parity gate.
        handled = state["worker"].client.call("cache_stats")["requests_handled"]
        served = handled - state["baseline"] - 1
        if served < state["shards"]:
            return [f"worker answered {served} requests for {state['shards']} shards"]
        return []

    def children(self, state):
        return [state["worker"]]

    def start_trace(self, state):
        state["worker"].enable_trace()

    def teardown(self, state):
        state["ledger"] = state["worker"].stop()

    def remote_ledgers(self, state):
        return [state["ledger"]] if state.get("ledger") else []


class ServeMix(Workload):
    name = "serve-mix"
    cycle = (
        "warm", "at", "warm", "whatif", "warm", "cold", "warm", "at", "warm", "whatif",
        "warm", "cold", "warm", "at", "warm", "whatif", "warm", "cold", "at", "warm",
    )
    tail_percentile = 99.0
    #: Stored scenarios; more than the server's 1024-entry L1 holds.
    read_set = 1280
    read_sizes = (40, 120)
    #: Stored scenarios the what-if sweeps run under.
    whatif_targets = tuple(range(0, 160, 5))
    whatif_levels = 6
    cold_sizes = (20, 60)

    @staticmethod
    def payload(draw: dict, n: int) -> dict:
        return {
            "stations": [{"name": s, "demand": float(d)} for s, d in zip(STATIONS, draw["base"][0])],
            "think_time": float(draw["think"][0]),
            "max_population": int(n),
        }

    def stored(self, seed: int, j: int) -> dict:
        draw = draw_demands(rng_for(seed, 1, j), 1, SINGLE, varying=False)
        return self.payload(draw, size(j, *self.read_sizes))

    def draw(self, seed, i):
        stratum = self.cycle[i % len(self.cycle)]
        k = ordinal(self.cycle, i)
        rng = rng_for(seed, 0, i)
        if stratum == "cold":
            draw = draw_demands(rng, 1, SINGLE, varying=False)
            return {"stratum": stratum, "scenario": self.payload(draw, size(k, *self.cold_sizes))}
        if stratum == "whatif":
            # What-if cost depends on which levels the trajectory store
            # and the L1 already hold; fixed walks over the targets and
            # levels give every seed the same pattern.
            j = self.whatif_targets[size(k, 0, len(self.whatif_targets) - 1)]
            n = size(j, *self.read_sizes)
            m = self.whatif_levels
            levels = sorted({1 + int((n - 2) * golden(k, q / m)) for q in range(m)})
            return {"stratum": stratum, "j": j, "populations": [n] + levels}
        # Uniform reads over a store larger than the L1: about 1024/1280
        # of them hit the L1, the rest sqlite.
        j = int(rng.integers(self.read_set))
        out = {"stratum": stratum, "j": j}
        if stratum == "at":
            out["at"] = int(rng.integers(1, size(j, *self.read_sizes) + 1))
        return out

    def digest_material(self, seed, count=64):
        yield from super().digest_material(seed, count)
        for j in range(self.read_set):
            yield self.stored(seed, j)

    def setup(self, seed, ctx):
        tag = f"serve-{os.getpid()}-{ctx['rep']}"
        work = os.path.join(WORK_DIR, tag)
        shutil.rmtree(work, ignore_errors=True)
        os.makedirs(work)
        path = os.path.join(work, "store.sqlite")
        stored = [self.stored(seed, j) for j in range(self.read_set)]
        # Fill the store through the same facade path the server uses,
        # then start the server on it: its L1 starts empty.
        fill = SolverCache(maxsize=1, persistent=path, trajectory=False)
        for payload in stored:
            solvers.solve(protocol.decode_scenario(payload), cache=fill)
        fill.persistent.close()
        ledger = os.path.join(WORK_DIR, tag + ".ledger.json") if ctx["trace"] else None
        server = ServerProcess(["serve", "--port", "0", "--cache-path", path], tag, ledger)
        try:
            # Warm-up: read every stored scenario once, so the L1 is full
            # (1024 of the 1280) before the first timed op.
            for payload in stored:
                server.client.call("solve", scenario=payload, at=1)
        except BaseException:
            server.kill()
            raise
        return {"server": server, "stored": stored, "work": work}

    def build(self, state, draw):
        stratum = draw["stratum"]
        if stratum == "cold":
            scenario = draw["scenario"]
        else:
            scenario = state["stored"][draw["j"]]
        request = {"op": "whatif" if stratum == "whatif" else "solve", "scenario": scenario}
        if stratum == "whatif":
            request["populations"] = draw["populations"]
        if stratum == "at":
            request["at"] = draw["at"]
        return draw, request

    def run(self, state, inputs):
        return state["server"].client.request(inputs[1])

    def check(self, state, inputs, envelope):
        draw, request = inputs
        label = f"{draw['stratum']} op"
        if not envelope.get("ok"):
            return [f"{label}: server error {envelope.get('error')}"]
        served = envelope["result"]
        scenario = protocol.decode_scenario(request["scenario"])
        if draw["stratum"] == "whatif":
            out = []
            for n, snap in zip(request["populations"], served["snapshots"]):
                sc = scenario if n == scenario.max_population else scenario.with_overrides(max_population=n)
                local = solvers.solve(sc, cache=None)
                out += gates.equal_payload(f"{label} n={n}", snap, {"solver": local.solver, **local.at(n)})
            return out
        local = solvers.solve(scenario, cache=None)
        if draw["stratum"] == "at":
            n = request["at"]
            want = {"kind": "at", "solver": local.solver, **local.at(n)}
            return gates.equal_payload(f"{label} at={n}", served, want)
        return gates.served_laws(label, served) + gates.equal_payload(
            label, served, protocol.encode_result(local)
        )

    def children(self, state):
        return [state["server"]]

    def start_trace(self, state):
        state["server"].enable_trace()

    def teardown(self, state):
        state["ledger"] = state["server"].stop()
        shutil.rmtree(state["work"], ignore_errors=True)

    def remote_ledgers(self, state):
        return [state["ledger"]] if state.get("ledger") else []


WORKLOADS = {w.name: w for w in (ColdSolve(), ServeMix(), Sweep(), RemoteSweep())}
