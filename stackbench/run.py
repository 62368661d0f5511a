"""Run one benchmark workload and print its metrics as the last stdout line.

Usage (from the repository root)::

    python3 stackbench/run.py --workload cold-solve --seed 1 --seconds 12 --trace 0

``--trace 0`` prints the end-to-end metrics (``setup_s``, ``op_p50_ms``,
``op_tail_ms``, ``throughput``, ``peak_rss_mb``); ``--trace 1`` splits
the measured time into an untraced and a traced half and prints the
per-layer metrics of the traced half plus ``trace.overhead_ratio``.  See ``stackbench/WORKLOADS.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 3


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=12.0,
                   help="summed op latency to measure, at the reference speed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only import and warm up the workload (times a cold set-up)")
    return p.parse_args(argv)


def read_cpu_times() -> list[int] | None:
    try:
        with open("/proc/stat") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return [int(v) for v in fields[1:]]


def steal_share(before, after) -> float | None:
    """Share of CPU time stolen by the hypervisor between two samples."""
    if before is None or after is None:
        return None
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta[:8])  # user..steal; guest time is already in user
    return delta[7] / total if total > 0 and len(delta) > 7 else 0.0


def source_digest() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "repro")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()[:16]


def commit() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return None


def input_digest(workload, seed: int) -> str:
    import numpy as np

    h = hashlib.sha256()
    for item in workload.digest_material(seed):
        for key in sorted(item):
            h.update(key.encode())
            value = item[key]
            if isinstance(value, np.ndarray):
                h.update(np.ascontiguousarray(value).tobytes())
            else:
                h.update(repr(value).encode())
    return h.hexdigest()[:16]


def host_record(workload, seed: int, steal) -> dict:
    import numpy
    import scipy

    return {
        "cores": os.cpu_count(),
        "cpu_steal_share": steal,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": {
            k: os.environ.get(k)
            for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "commit": commit(),
        "source_digest": source_digest(),
        "input_digest": input_digest(workload, seed),
        "strata_per_cycle": {s: workload.cycle.count(s) for s in dict.fromkeys(workload.cycle)},
        "throughput_counts": workload.unit,
    }


def measure(workload, state, seed, start, budget_s, tracer, log, speed, max_ops=None):
    """Closed loop until the summed op latency, at the reference speed,
    reaches ``budget_s`` (or, given ``max_ops``, until that many ops
    have run).  Budgeting reference-speed time keeps the op count, and
    so the tail percentile's sample count, the same on a slow host.

    Inputs are built, the calibration loop timed and outputs checked
    outside the timed region; the tracer (when given and enabled)
    records one ``op`` span per op.  Returns raw and reference-speed
    latencies.
    """
    latencies, at, work, attempted, failed = [], [], [], 0, 0
    fans_out = []
    wall_cap = time.monotonic() + max(4 * budget_s, budget_s + 60)
    i = start
    spent = 0.0
    while time.monotonic() < wall_cap and (
        attempted < max_ops if max_ops is not None else spent < budget_s
    ):
        inputs = workload.build(state, workload.draw(seed, i))
        speed.maybe_sample()
        i += 1
        attempted += 1
        traced = tracer is not None and tracer.enabled
        try:
            t0 = time.perf_counter()
            if traced:
                out = tracer.call("op", workload.run, state, inputs)
            else:
                out = workload.run(state, inputs)
            t1 = time.perf_counter()
        except Exception as exc:  # a failed op is counted, not fatal
            failed += 1
            log(f"op {i - 1} raised {type(exc).__name__}: {exc}")
            continue
        if traced:
            tracer.disable()
        errors = workload.check(state, inputs, out)
        if traced:
            tracer.enable()
        if errors:
            failed += 1
            log(f"op {i - 1} failed its gates: {errors[:3]}")
        latencies.append(t1 - t0)
        at.append((t0, t1))
        fans_out.append(workload.fans_out(inputs))
        spent += (t1 - t0) * speed.current_scale()
        work.append(workload.units(inputs))
        workload.after(state)
    speed.sample()
    return {
        "raw": latencies,
        "lat": [
            dt * speed.scale(a, b, wide) for dt, (a, b), wide in zip(latencies, at, fans_out)
        ],
        "work": work,
        "attempted": attempted,
        "failed": failed,
        "next": i,
    }


def rate(phase, ops=None, key="lat") -> float:
    """Completed work per second of op time, over the first ``ops`` ops."""
    return sum(phase["work"][:ops]) / sum(phase[key][:ops])


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print(f"stackbench: no repro package under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, os.path.join(ROOT, "src")]
    from stackbench import spans, stats
    from stackbench.speed import REFERENCE_S, Speedometer, pin_to_one_cpu
    from stackbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"stackbench: unknown workload {args.workload!r}; "
              f"known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        workload.warm(None)
        return 0

    def log(message):
        print(f"[{workload.name}] {message}", file=sys.stderr, flush=True)

    pinned_cpu, cpus = pin_to_one_cpu()
    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
    cpu_before = read_cpu_times()
    speed = Speedometer([c for c in cpus if c != pinned_cpu] if workload.forks else ())
    raw_setup, setup_times, state = [], [], None
    for rep in range(SETUP_REPS):
        speed.sample()
        t0 = time.perf_counter()
        state = workload.setup(args.seed, {"rep": rep, "trace": bool(args.trace)})
        t1 = time.perf_counter()
        speed.sample()
        raw_setup.append(t1 - t0)
        setup_times.append((t1 - t0) * speed.scale(t0, t1))
        if rep < SETUP_REPS - 1:
            workload.teardown(state)
    # With --trace 1 the run splits its time: an untraced half, then a
    # traced half of the same number of whole strata cycles, so their
    # throughput ratio is the tracing overhead.
    budget = args.seconds / 2 if tracer is not None else args.seconds
    try:
        first = measure(workload, state, args.seed, 0, budget, None, log, speed)
        phases = [first]
        if tracer is not None:
            period = len(workload.cycle)
            matched = max(period, len(first["lat"]) - len(first["lat"]) % period)
            start = -(-first["next"] // period) * period
            workload.start_trace(state)
            tracer.enable()
            phases.append(measure(workload, state, args.seed, start, budget,
                                  tracer, log, speed, max_ops=matched))
            tracer.disable()
        end_failures = workload.finish(state)
        rss = workload_rss(workload, state)
    finally:
        workload.teardown(state)
    for message in end_failures:
        log(f"end-of-run gate failed: {message}")
    steal = steal_share(cpu_before, read_cpu_times())

    attempted = sum(p["attempted"] for p in phases)
    failed = sum(p["failed"] for p in phases)
    if end_failures:
        failed = attempted
    lat = first["lat"]
    record = host_record(workload, args.seed, steal)
    record["pinned_cpu"] = pinned_cpu
    if tracer is None:
        pct, tail_value, beyond = stats.tail(lat, workload.tail_percentile)
        raw = first["raw"]
        record.update(
            ops=len(lat),
            tail_percentile=pct,
            tail_samples=len(lat),
            tail_beyond=beyond,
            setup_samples_s=setup_times,
            wall_clock={
                "setup_s": statistics.median(raw_setup),
                "op_p50_ms": stats.nearest_rank(raw, 50.0)[0] * 1e3,
                "op_tail_ms": stats.nearest_rank(raw, pct)[0] * 1e3,
                "throughput": rate(first, key="raw"),
            },
            speed_scale_median=statistics.median(REFERENCE_S / s for s in speed.seconds),
        )
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "op_p50_ms": {"value": stats.nearest_rank(lat, 50.0)[0] * 1e3, "unit": "ms"},
            "op_tail_ms": {"value": tail_value * 1e3, "unit": "ms"},
            "throughput": {"value": rate(first), "unit": "1/s"},
            "peak_rss_mb": {"value": rss, "unit": "MB"},
        }
    else:
        untraced, traced = phases
        overhead = rate(traced) / rate(untraced, len(traced["lat"]))
        ledger = spans.merge_ledgers(tracer.ledger(), *workload.remote_ledgers(state))
        os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
        out_path = os.path.join(ROOT, ".bench_work",
                                f"ledger-{workload.name}-s{args.seed}.json")
        with open(out_path, "w") as fh:
            json.dump(ledger, fh, indent=1, sort_keys=True)
        op_time = sum(traced["raw"])  # spans are raw wall time
        top = sorted(ledger["layers"].items(), key=lambda kv: -kv[1]["self_s"])[:8]
        record.update(
            ops=len(traced["lat"]),
            ledger=os.path.relpath(out_path, ROOT),
            self_time_share={name: e["self_s"] / op_time for name, e in top},
        )
        metrics = spans.layer_metrics(ledger, len(traced["lat"]), overhead)
    print("host " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def workload_rss(workload, state) -> float:
    """Peak resident set of this process plus every server/worker child."""
    from stackbench.workloads import peak_rss_mb

    return peak_rss_mb() + sum(child.peak_rss_mb() for child in workload.children(state))


if __name__ == "__main__":
    sys.exit(main())
