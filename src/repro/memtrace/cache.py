"""Content-addressed artifact cache for generated traces and streams.

Synthetic trace generation is the dominant fixed cost of an experiment
campaign: every run regenerates the same calibrated streams from the same
``(config, seed)`` pairs.  The paper sidesteps the analogous cost by
collecting Pin traces once and reusing the collection across analyses
(§III-A); this module is that reuse for our synthetic stand-ins.

An :class:`ArtifactCache` stores numpy array bundles under a directory,
addressed purely by content identity: the key is a SHA-256 over a
canonical JSON encoding of everything that determines the generated
bytes — the artifact kind, the full :class:`~repro.memtrace.synthetic.
WorkloadConfig`, the generator seed, the request shape (event counts,
block size, threads), and the bundle :data:`~repro.memtrace.io.
FORMAT_VERSION`.  Two processes that would generate identical arrays
therefore compute identical keys, and any change to the workload
parameters or the on-disk layout changes the key (automatic
invalidation, never staleness).

Entries are :mod:`repro.memtrace.io` bundles, deflated at zlib level 1
(:data:`~repro.memtrace.io.DEFLATE_LEVEL`).  The level is not part of
the format or the key: a directory filled when bundles were written at
numpy's level 6 still reads warm, entry for entry.

Hits, misses, and traffic are recorded as ``repro.cache.*`` counters in
the cache's :class:`~repro.obs.metrics.MetricsRegistry`; in a parallel
run each worker's counters are snapshotted and merged by the runner
(see :mod:`repro.experiments.parallel`).

The module-level *active cache* is how the experiment layer opts in
without threading a cache handle through every experiment signature:
``repro-experiments --cache-dir DIR`` activates one per process (workers
included), and the cache-aware generators in
:mod:`repro.memtrace.synthetic` consult it by default.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import asdict
from pathlib import Path
from typing import TYPE_CHECKING, Mapping

import numpy as np

from repro.errors import TraceError
from repro.memtrace.io import FORMAT_VERSION, load_arrays, save_arrays
from repro.obs.metrics import Counter, MetricsRegistry

if TYPE_CHECKING:  # import cycle: synthetic's generators consult this module
    from repro.memtrace.synthetic import WorkloadConfig


#: Infix of a bundle's temporary name while :meth:`ArtifactCache.store`
#: writes it (``<key>.tmp-<pid>-<thread>.npz``).
_TMP_MARKER = ".tmp-"


def artifact_key(kind: str, **identity) -> str:
    """SHA-256 key of one artifact's full generative identity.

    ``identity`` must be JSON-serializable; the encoding is canonical
    (sorted keys, no whitespace), so key equality is independent of
    argument order, process, and platform.  :data:`FORMAT_VERSION` is
    always part of the key: bumping the bundle layout invalidates every
    prior entry rather than misreading it.
    """
    payload = {"artifact": kind, "format_version": FORMAT_VERSION, **identity}
    try:
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    except TypeError as exc:
        raise TraceError(f"cache key fields must be JSON-serializable: {exc}") from exc
    return hashlib.sha256(canonical.encode()).hexdigest()


def workload_identity(config: "WorkloadConfig") -> dict:
    """The cache-key fields of a :class:`WorkloadConfig` (a plain dict)."""
    return asdict(config)


class ArtifactCache:
    """A directory of content-addressed ``.npz`` array bundles.

    Concurrent writers are safe, across processes and threads alike:
    each bundle is written to a temporary name of its own (process and
    thread id) and atomically renamed into place, and identical keys
    imply identical arrays, so the last rename winning is harmless.
    Counter updates take a lock, so the ``repro.cache.*`` totals stay
    exact under threads, and concurrent loads are safe
    (:func:`~repro.memtrace.io.load_arrays` serializes bundle reads).
    """

    def __init__(
        self,
        cache_dir: str | Path,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        """Open (creating if needed) the cache rooted at ``cache_dir``."""
        self.cache_dir = Path(cache_dir)
        try:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise TraceError(f"cannot create cache dir {self.cache_dir}: {exc}") from exc
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._lock = threading.Lock()
        self._hits = self.metrics.counter(
            "repro.cache.hits",
            help="Artifact-cache lookups served from disk.",
            unit="lookups",
        )
        self._misses = self.metrics.counter(
            "repro.cache.misses",
            help="Artifact-cache lookups that required regeneration.",
            unit="lookups",
        )
        self._bytes_read = self.metrics.counter(
            "repro.cache.bytes_read",
            help="Compressed bytes read from the artifact cache.",
            unit="bytes",
        )
        self._bytes_written = self.metrics.counter(
            "repro.cache.bytes_written",
            help="Compressed bytes written into the artifact cache.",
            unit="bytes",
        )

    # ------------------------------------------------------------------

    def path_for(self, key: str) -> Path:
        """The bundle path a key resolves to (whether or not it exists)."""
        return self.cache_dir / f"{key}.npz"

    def load(self, key: str, kind: str) -> dict[str, np.ndarray] | None:
        """Return the cached arrays for ``key``, or None on a miss.

        A corrupt or wrong-version bundle counts as a miss and is left
        for the subsequent :meth:`store` to overwrite.
        """
        path = self.path_for(key)
        try:
            arrays, _metadata = load_arrays(path)
            size = path.stat().st_size
        except (TraceError, OSError, ValueError):
            self._count(self._misses, kind)
            return None
        self._count(self._hits, kind)
        self._count(self._bytes_read, kind, size)
        return arrays

    def store(
        self,
        key: str,
        kind: str,
        arrays: Mapping[str, np.ndarray],
        **metadata,
    ) -> Path:
        """Persist ``arrays`` under ``key`` (atomic; returns final path)."""
        path = self.path_for(key)
        # One temporary name per writing thread: two threads of one
        # process may store the same key at once.
        tmp = path.with_name(
            f"{key}{_TMP_MARKER}{os.getpid()}-{threading.get_ident()}.npz"
        )
        try:
            save_arrays(dict(arrays), tmp, artifact=kind, **metadata)
            size = tmp.stat().st_size
            os.replace(tmp, path)
        except OSError as exc:
            raise TraceError(f"cannot publish cache entry {path}: {exc}") from exc
        finally:
            tmp.unlink(missing_ok=True)
        self._count(self._bytes_written, kind, size)
        return path

    def _count(self, counter: Counter, kind: str, amount: int = 1) -> None:
        """Add ``amount`` to one artifact kind's child of ``counter``."""
        with self._lock:
            counter.labels(artifact=kind).inc(amount)

    # ------------------------------------------------------------------

    def __len__(self) -> int:
        """Published entries; a killed writer's temporary file is not one."""
        return sum(
            1
            for path in self.cache_dir.glob("*.npz")
            if _TMP_MARKER not in path.name
        )

    def stats(self) -> dict[str, int]:
        """Current hit/miss/traffic totals (for footers and tests)."""
        return {
            "hits": self._hits.value,
            "misses": self._misses.value,
            "bytes_read": self._bytes_read.value,
            "bytes_written": self._bytes_written.value,
        }


# ----------------------------------------------------------------------
# Active cache (per-process opt-in used by the experiment layer)
# ----------------------------------------------------------------------

_ACTIVE_CACHE: ArtifactCache | None = None


def activate(cache: ArtifactCache | None) -> ArtifactCache | None:
    """Install ``cache`` as this process's active cache (None clears it).

    Returns the previously active cache so callers can restore it.
    """
    global _ACTIVE_CACHE
    previous = _ACTIVE_CACHE
    _ACTIVE_CACHE = cache
    return previous


def active_cache() -> ArtifactCache | None:
    """The cache installed by :func:`activate`, or None."""
    return _ACTIVE_CACHE
