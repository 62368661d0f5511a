"""Correctness gates run on every op's output, outside the timed region.

Each gate returns a list of failure messages; an op whose output fails
any gate counts as one failed op.
"""

from __future__ import annotations

import numpy as np
from repro.core import laws

#: Tolerance of the operational-law checks (relative).
LAW_TOL = 1e-9

#: Agreement DESIGN.md documents between exact paths that share a model
#: (scalar vs batched vs sharded backends, facade vs legacy solver).
EXACT_TOL = 1e-10

#: Documented bias of the renormalized multi-server marginal recursion
#: MVASD runs (DESIGN.md section 8, item 2: "<= ~2 % bias confined to the
#: saturation transition"; tests/test_multiserver.py pins it below
#: 2.5 %).  Its throughput may pass the C/D capacity bound by that much
#: near saturation, so its utilizations are gated at 1 + this band.
MVASD_TRANSITION_BIAS = 0.025


def operational_laws(
    label: str,
    populations,
    throughput,
    response_time,
    think_time,
    utilizations,
    demands=None,
    servers=None,
    u_max: float = 1.0,
) -> list[str]:
    """Little's law, ``0 <= U <= u_max`` and, given demands, the utilization law.

    Array arguments may carry a leading scenario axis (a stack):
    ``throughput``/``response_time`` are ``(..., N)``, ``utilizations``
    and ``demands`` ``(..., N, K)``, ``think_time`` a scalar or ``(S,)``.
    """
    pops = np.asarray(populations, dtype=float)
    x = np.asarray(throughput, dtype=float)
    r = np.asarray(response_time, dtype=float)
    u = np.asarray(utilizations, dtype=float)
    z = np.asarray(think_time, dtype=float)
    if z.ndim == 1:
        z = z[:, None]
    out = []
    if not (np.isfinite(x).all() and np.isfinite(r).all() and np.isfinite(u).all()):
        return [f"{label}: non-finite throughput, response time or utilization"]
    if (x <= 0).any():
        out.append(f"{label}: throughput must be positive")
    try:
        n_little = laws.littles_law_population(x, r, z)
    except ValueError as exc:
        return out + [f"{label}: Little's law inputs rejected: {exc}"]
    err = np.abs(n_little - pops) / pops
    if (err > LAW_TOL).any():
        out.append(f"{label}: Little's law N = X (R + Z) off by {err.max():.3g} (relative)")
    if (u < -LAW_TOL).any() or (u > u_max + LAW_TOL).any():
        out.append(
            f"{label}: utilization outside [0, {u_max:g}] (min {u.min():.6g}, max {u.max():.6g})"
        )
    if demands is not None:
        per_server = np.asarray(demands, dtype=float) / np.asarray(servers, dtype=float)
        expected = laws.utilization(x[..., None], per_server)
        err = np.abs(expected - u) / np.maximum(np.abs(expected), 1e-300)
        if (err > LAW_TOL).any():
            out.append(f"{label}: utilization law U = X D / C off by {err.max():.3g}")
    return out


def result_laws(label: str, result, servers) -> list[str]:
    """:func:`operational_laws` of an ``MVAResult`` or ``BatchedMVAResult``."""
    think = getattr(result, "think_times", None)
    if think is None:
        think = result.think_time
    u_max = 1.0
    if result.solver.endswith("mvasd") and max(servers) > 1:
        u_max += MVASD_TRANSITION_BIAS
    return operational_laws(
        label,
        result.populations,
        result.throughput,
        result.response_time,
        think,
        result.utilizations,
        demands=result.demands_used,
        servers=servers,
        u_max=u_max,
    )


def served_laws(label: str, payload: dict) -> list[str]:
    """:func:`operational_laws` of an ``encode_result`` payload."""
    return operational_laws(
        label,
        payload["populations"],
        payload["throughput"],
        payload["response_time"],
        payload["think_time"],
        payload["utilizations"],
    )


_TRAJECTORY_FIELDS = (
    "throughput",
    "response_time",
    "queue_lengths",
    "residence_times",
    "utilizations",
    "demands_used",
)


def bit_identical(label: str, got, want) -> list[str]:
    """Every trajectory array of two (stack) results equal bit for bit."""
    out = []
    for name in _TRAJECTORY_FIELDS:
        a, b = getattr(got, name, None), getattr(want, name, None)
        if a is None and b is None:
            continue
        if a is None or b is None or not np.array_equal(a, b):
            out.append(f"{label}: {name} differs from the in-process result")
    return out


def close(label: str, got, want, tol: float = EXACT_TOL) -> list[str]:
    """Trajectory arrays agree within ``tol`` (absolute or relative)."""
    out = []
    for name in ("throughput", "response_time", "queue_lengths", "utilizations"):
        a = np.asarray(getattr(got, name), dtype=float)
        b = np.asarray(getattr(want, name), dtype=float)
        if a.shape != b.shape:
            out.append(f"{label}: {name} shape {a.shape} != {b.shape}")
            continue
        diff = np.abs(a - b) / np.maximum(1.0, np.abs(b))
        if (diff > tol).any():
            out.append(f"{label}: {name} differs by {diff.max():.3g} (> {tol:g})")
    return out


def equal_payload(label: str, got, want) -> list[str]:
    """A served JSON payload equal, float for float, to the expected one."""
    if got != want:
        return [f"{label}: served payload differs from the in-process result"]
    return []
