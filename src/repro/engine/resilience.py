"""Recovery knobs and the crash-safe shard journal.

:class:`RetryPolicy`
    Bounded retries with exponential backoff and a per-shard timeout —
    the knobs of every recovery decision the
    :class:`~repro.engine.fabric.Dispatcher` makes, in one frozen value
    object.
:class:`SweepCheckpoint`
    An append-only journal of completed shards, content-addressed on
    ``Scenario.fingerprint()`` + method + canonical options (the solver
    cache's keys).  Killing the driver and re-running with the same
    checkpoint resumes exactly where it died — journaled shards are
    byte-exact array round-trips, so the resumed result is bit-identical
    to an uninterrupted run.

Every recovery path is exercised by the deterministic fault-injection
harness (:mod:`repro.engine.faults`) in ``tests/test_faults.py`` — the
faulted run must match the fault-free run to ≤1e-10.
"""

from __future__ import annotations

import base64
import hashlib
import io
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

import numpy as np

from .batched import STACK_CONTAINERS

__all__ = [
    "RetryPolicy",
    "SweepCheckpoint",
]

#: Journal-format version; bumped whenever the record layout changes so
#: stale checkpoints are recomputed instead of misread.
_CHECKPOINT_VERSION = "repro-checkpoint-v1"


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded-retry and backoff knobs for the resilient execution path.

    Attributes
    ----------
    max_retries:
        Sharded-stage retries after the first attempt (so the stack is
        tried at most ``max_retries + 1`` times before degrading).
    backoff_base:
        Sleep before the first retry, in seconds.
    backoff_multiplier:
        Exponential growth factor of successive backoffs.
    backoff_max:
        Upper bound on any single backoff sleep.
    shard_timeout:
        Per-shard wall-clock budget in seconds; a shard exceeding it is
        treated like a crashed worker (``None`` disables the timeout).
    """

    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_multiplier: float = 2.0
    backoff_max: float = 2.0
    shard_timeout: float | None = 60.0

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_base < 0 or self.backoff_max < 0:
            raise ValueError("backoff bounds must be non-negative")
        if self.backoff_multiplier < 1.0:
            raise ValueError(
                f"backoff_multiplier must be >= 1, got {self.backoff_multiplier}"
            )
        if self.shard_timeout is not None and self.shard_timeout <= 0:
            raise ValueError(
                f"shard_timeout must be positive or None, got {self.shard_timeout}"
            )

    def backoff(self, retry_number: int) -> float:
        """Sleep before retry ``retry_number`` (1-based), capped."""
        if retry_number < 1:
            return 0.0
        return min(
            self.backoff_max,
            self.backoff_base * self.backoff_multiplier ** (retry_number - 1),
        )


class SweepCheckpoint:
    """Append-only journal of completed shards for crash-safe sweeps.

    Each record is one line of JSON holding a content-addressed shard
    key (:meth:`shard_key` — scenario fingerprints + method + canonical
    options, the same identity the solver cache uses), a SHA-256 of the
    payload, and the shard's result arrays (any of the three stack
    containers, laid out by its :class:`~repro.engine.batched.StackLayout`
    and tagged by a ``container`` meta field) as a base64 ``.npz``
    blob.  The array round-trip is lossless, so a
    resumed sweep reassembles *bit-identical* results from journaled
    shards.  Loading tolerates a torn tail (the line a killed driver was
    writing) and corrupted records by skipping anything that fails JSON
    parsing or the checksum — those shards are simply re-solved.
    """

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)

    @staticmethod
    def shard_key(
        method: str,
        options: Mapping[str, Any],
        fingerprints: Sequence[str],
    ) -> str | None:
        """Content hash identifying one shard's solve request.

        ``None`` when the options cannot be canonicalized (callables) —
        such shards are solved but not journaled, exactly mirroring the
        result cache's uncacheable rule.
        """
        from ..solvers.cache import canonical_options

        opts = canonical_options(options)
        if opts is None or options.get("demand_axis") == "throughput":
            return None
        h = hashlib.sha256()
        h.update(_CHECKPOINT_VERSION.encode("ascii"))
        h.update(method.encode("utf-8"))
        h.update(repr(opts).encode("utf-8"))
        for fp in fingerprints:
            h.update(fp.encode("ascii"))
            h.update(b"\x00")
        return h.hexdigest()

    def load(self) -> dict[str, Any]:
        """All valid journaled shards, keyed by shard key (latest wins)."""
        completed: dict[str, Any] = {}
        try:
            lines = self.path.read_text().splitlines()
        except (FileNotFoundError, OSError):
            return completed
        for line in lines:
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                if record.get("version") != _CHECKPOINT_VERSION:
                    continue
                raw = base64.b64decode(record["payload"].encode("ascii"))
                if hashlib.sha256(raw).hexdigest() != record["sha256"]:
                    continue
                completed[record["key"]] = self._decode(record["meta"], raw)
            except Exception:
                continue  # torn tail or corrupted record: re-solve that shard
        return completed

    def record(self, key: str | None, part) -> None:
        """Append one completed shard (no-op for unkeyed/failed parts).

        All three stack containers journal, each laid out by its
        :class:`~repro.engine.batched.StackLayout` and tagged by a
        ``container`` field in the record meta.  Parts carrying failures
        are never journaled: a resume after fixing the inputs must
        recompute them.
        """
        if key is None or part.failures or type(part) not in STACK_CONTAINERS:
            return
        meta, raw = self._encode(part)
        record = {
            "version": _CHECKPOINT_VERSION,
            "key": key,
            "sha256": hashlib.sha256(raw).hexdigest(),
            "meta": meta,
            "payload": base64.b64encode(raw).decode("ascii"),
        }
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="ascii") as fh:
            fh.write(json.dumps(record, separators=(",", ":")) + "\n")
            fh.flush()
            try:
                os.fsync(fh.fileno())
            except OSError:  # pragma: no cover - fsync-less filesystems
                pass

    @staticmethod
    def _encode(part) -> tuple[dict, bytes]:
        layout = part.layout
        meta = {
            "solver": part.solver,
            "backend": part.backend,
            "container": layout.journal_tag,
            **{name: list(getattr(part, name)) for name in layout.labels},
        }
        arrays = {
            name: np.asarray(getattr(part, name))
            for name in (*layout.index, *layout.shared, *layout.stacked)
            if getattr(part, name) is not None
        }
        buf = io.BytesIO()
        np.savez_compressed(buf, **arrays)
        return meta, buf.getvalue()

    @staticmethod
    def _decode(meta: Mapping, raw: bytes):
        # "mva" is the implicit default so v1 single-class records
        # (written before the tag existed) keep decoding unchanged.
        tag = meta.get("container", "mva")
        cls = next((c for c in STACK_CONTAINERS if c.layout.journal_tag == tag), None)
        if cls is None:
            raise ValueError(f"unknown checkpoint container {tag!r}")
        layout = cls.layout
        with np.load(io.BytesIO(raw), allow_pickle=False) as data:
            return cls(
                solver=str(meta["solver"]),
                backend=meta.get("backend"),
                **{name: tuple(meta[name]) for name in layout.labels},
                **{
                    name: data[name]
                    for name in (*layout.index, *layout.shared, *layout.stacked)
                    if name in data
                },
            )
