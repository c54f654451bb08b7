"""Persistent content-addressed cache of built :class:`ModelTables`.

The batch engine's warm path pays for table *construction*: every memoized
machine/config-derived quantity (latency tables, bandwidth caps, survival
hit rates, TLB tiers, placement splits) is computed on first touch and
reused forever after.  Construction is vectorized, but a fresh process —
a restarted service, a new CLI invocation, a worker pool — still rebuilds
everything from scratch.  This module persists the built tables to disk,
content-addressed exactly like run results, so a fresh process warms by
*loading* instead of rebuilding.

Content address
---------------
``table_key(machine, config)`` hashes, canonically JSON-encoded:

* the machine fingerprint (:func:`repro.core.executor.machine_fingerprint`
  — preset facts plus registry tier/mode extras), so two machines never
  share an entry;
* :data:`repro.engine.batch.TABLES_VERSION`, so any change to the model
  arithmetic or snapshot schema invalidates every stored table; and
* the config fingerprint (:func:`repro.core.executor.config_fingerprint`
  — MCDRAM mode, cache fraction/associativity, numactl policy).

One entry therefore covers one (machine, model version, configuration)
and accumulates every footprint/thread/write-fraction slice ever seen:
:meth:`TableCache.store` merges with the existing payload (read – merge –
atomic replace), so a grid that extends a cached config space reuses the
overlapping slices and only the new cells are computed.  Stores to one
entry are serialized by an ``flock`` on a per-key ``tables-<key>.lock``
file, which covers separate instances in one process as well as separate
processes sharing the directory.

Bit identity
------------
Snapshots hold plain ints and floats only; Python's JSON round trip is
exact for IEEE doubles, so a loaded table answers with the same bits a
fresh build would.  Files carry a payload checksum; a corrupt or
truncated file (checksum mismatch, unparseable JSON, malformed shape) is
treated as a miss, deleted, and rebuilt — never half-loaded.

Observability: ``tables.cache_hits`` / ``tables.cache_misses`` /
``tables.cache_corrupt`` / ``tables.cache_stores`` counters and
``tables.load`` / ``tables.store`` spans (plus ``tables.build`` around a
config-state boot in :class:`repro.engine.batch.BatchEvaluator`), see
docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import contextlib
import fcntl
import hashlib
import json
import os
import tempfile
import threading
from collections.abc import Iterator
from pathlib import Path
from typing import TYPE_CHECKING, Any

from repro.engine.batch import TABLES_VERSION
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

if TYPE_CHECKING:
    from repro.core.configs import SystemConfig
    from repro.machine.topology import KNLMachine


def _canonical(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _checksum(payload: Any) -> str:
    return hashlib.sha256(_canonical(payload).encode()).hexdigest()


def table_key(machine: "KNLMachine", config: "SystemConfig") -> str:
    """Content address of one machine x model-version x config table set."""
    # Imported lazily: repro.core.executor imports repro.engine.batch at
    # module level, so a top-level import here would be circular.
    from repro.core.executor import config_fingerprint, machine_fingerprint

    material = {
        "kind": "model-tables",
        "tables_version": TABLES_VERSION,
        "machine": machine_fingerprint(machine),
        "config": config_fingerprint(config),
    }
    return hashlib.sha256(_canonical(material).encode()).hexdigest()


def _merge(old: dict[str, Any], new: dict[str, Any]) -> dict[str, Any]:
    """Recursive dict union; ``new`` wins on leaf conflicts.

    Conflicting leaves are bit-identical by construction (both sides
    computed the same scalar quantity), so "wins" only matters against a
    tampered file — and then the fresher build is the right answer.
    """
    out = dict(old)
    for key, value in new.items():
        base = out.get(key)
        if isinstance(value, dict) and isinstance(base, dict):
            out[key] = _merge(base, value)
        else:
            out[key] = value
    return out


class TableCache:
    """On-disk store of :meth:`ModelTables.snapshot` payloads by key.

    Thread-safe; safe for concurrent instances and processes sharing a
    directory (per-key file lock around merge-on-store, atomic replace,
    checksum-verified loads).  Lives in a subdirectory of the run-result
    cache by default (see :class:`repro.core.executor.SweepExecutor`).
    """

    def __init__(self, directory: str | Path) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.corrupt = 0
        self.stores = 0

    def _path(self, key: str) -> Path:
        return self.directory / f"tables-{key}.json"

    @staticmethod
    def _decode(raw: str) -> dict[str, Any] | None:
        """Parse + checksum-verify a cache file; None if corrupt."""
        try:
            wrapper = json.loads(raw)
            checksum = wrapper["checksum"]
            payload = wrapper["payload"]
        except (json.JSONDecodeError, KeyError, TypeError):
            return None
        if not isinstance(payload, dict) or not isinstance(checksum, str):
            return None
        if checksum != _checksum(payload):
            return None
        return payload

    def load(self, key: str) -> dict[str, Any] | None:
        """The stored payload for ``key``, or None (miss / corrupt)."""
        path = self._path(key)
        with self._lock, obs_trace.span("tables.load"):
            try:
                raw = path.read_text()
            except OSError:
                self.misses += 1
                obs_metrics.add("tables.cache_misses")
                return None
            payload = self._decode(raw)
            if payload is None:
                self._discard_corrupt(path)
                return None
            self.hits += 1
            obs_metrics.add("tables.cache_hits")
            return payload

    @contextlib.contextmanager
    def _key_lock(self, key: str) -> Iterator[None]:
        """Exclusive ``flock`` on the entry's lock file.

        flock belongs to the open file description, so two instances in
        one process exclude each other just as two processes do.
        Closing the file releases the lock.
        """
        with open(self.directory / f"tables-{key}.lock", "a") as handle:
            fcntl.flock(handle, fcntl.LOCK_EX)
            yield

    def store(self, key: str, payload: dict[str, Any]) -> None:
        """Merge ``payload`` into the entry for ``key`` and persist it.

        Read – merge – atomic replace, all under the entry's file lock:
        an entry only ever grows, and no writer sharing the directory can
        drop a slice another writer stored.  Readers never wait; the
        replace is atomic, so they see the old or the new file whole.
        A store that adds nothing — the merge equals the verified file —
        leaves the file alone.
        """
        path = self._path(key)
        with self._lock, obs_trace.span("tables.store"), self._key_lock(key):
            try:
                existing = self._decode(path.read_text())
            except OSError:
                existing = None
            if existing is not None:
                payload = _merge(existing, payload)
                if payload == existing:
                    return
            wrapper = {"checksum": _checksum(payload), "payload": payload}
            fd, tmp = tempfile.mkstemp(
                dir=self.directory, prefix=f"{path.name}.", suffix=".tmp"
            )
            try:
                with os.fdopen(fd, "w") as handle:
                    handle.write(json.dumps(wrapper))
                os.replace(tmp, path)
            except BaseException:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)
                raise
            self.stores += 1
            obs_metrics.add("tables.cache_stores")

    def mark_corrupt(self, key: str) -> None:
        """Record that a decoded payload turned out structurally invalid.

        Called by :class:`repro.engine.batch.BatchEvaluator` when
        ``prefill`` rejects a payload that passed the checksum (e.g. a
        consistent-but-wrong-schema file).  Deletes the file so the next
        store rebuilds it from scratch.
        """
        with self._lock:
            self._discard_corrupt(self._path(key))

    def _discard_corrupt(self, path: Path) -> None:
        self.corrupt += 1
        self.misses += 1
        obs_metrics.add("tables.cache_corrupt")
        obs_metrics.add("tables.cache_misses")
        try:
            path.unlink()
        except OSError:
            pass
