"""Tests for the content-addressed artifact cache."""

import gc
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.memtrace import cache as cache_mod
from repro.memtrace.cache import ArtifactCache, artifact_key, workload_identity
from repro.memtrace.synthetic import (
    WorkloadConfig,
    generate_segment_streams,
    generate_trace,
)
from repro.memtrace.trace import Segment
from tests.memtrace.bundle_oracle import GENERATOR_ARRAYS, save_arrays_level6

_SRC = str(Path(__file__).resolve().parents[2] / "src")


@pytest.fixture
def config():
    return WorkloadConfig().scaled(1 / 256)


@pytest.fixture
def cache(tmp_path):
    return ArtifactCache(tmp_path / "artifacts")


class TestArtifactKey:
    def test_argument_order_independent(self):
        assert artifact_key("t", a=1, b=2) == artifact_key("t", b=2, a=1)

    def test_distinct_identity_distinct_key(self, config):
        base = artifact_key("t", config=workload_identity(config), seed=1)
        assert base != artifact_key("t", config=workload_identity(config), seed=2)
        assert base != artifact_key("u", config=workload_identity(config), seed=1)

    def test_config_change_invalidates(self, config):
        other = config.scaled(1 / 2)
        assert artifact_key("t", config=workload_identity(config)) != artifact_key(
            "t", config=workload_identity(other)
        )

    def test_format_version_invalidates(self, monkeypatch):
        before = artifact_key("t", seed=7)
        monkeypatch.setattr(cache_mod, "FORMAT_VERSION", cache_mod.FORMAT_VERSION + 1)
        assert artifact_key("t", seed=7) != before

    def test_unserializable_identity_rejected(self):
        from repro.errors import TraceError

        with pytest.raises(TraceError):
            artifact_key("t", payload=object())

    def test_stable_across_processes(self, config):
        """The key is a pure content hash: a fresh interpreter agrees."""
        local = artifact_key("t", config=workload_identity(config), seed=3)
        script = (
            "from repro.memtrace.cache import artifact_key, workload_identity\n"
            "from repro.memtrace.synthetic import WorkloadConfig\n"
            "config = WorkloadConfig().scaled(1 / 256)\n"
            "print(artifact_key('t', config=workload_identity(config), seed=3))\n"
        )
        env = dict(os.environ, PYTHONPATH=_SRC)
        remote = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        ).stdout.strip()
        assert remote == local


class TestArtifactCache:
    def test_roundtrip(self, cache):
        arrays = {"a": np.arange(5, dtype=np.int64), "b": np.ones(3)}
        key = artifact_key("t", seed=0)
        cache.store(key, "t", arrays)
        loaded = cache.load(key, "t")
        assert set(loaded) == {"a", "b"}
        assert (loaded["a"] == arrays["a"]).all()
        assert (loaded["b"] == arrays["b"]).all()
        assert len(cache) == 1

    def test_missing_key_is_miss(self, cache):
        assert cache.load(artifact_key("t", seed=1), "t") is None
        assert cache.stats()["misses"] == 1
        assert cache.stats()["hits"] == 0

    def test_corrupt_bundle_is_miss(self, cache):
        key = artifact_key("t", seed=2)
        cache.path_for(key).write_bytes(b"not an npz bundle")
        assert cache.load(key, "t") is None
        assert cache.stats()["misses"] == 1

    def test_truncated_bundle_is_miss(self, cache):
        key = artifact_key("t", seed=3)
        path = cache.store(key, "t", {"a": np.arange(100_000)})
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        assert cache.load(key, "t") is None
        assert cache.stats()["misses"] == 1
        assert cache.stats()["hits"] == 0

    def test_plain_npy_payload_is_miss(self, cache):
        key = artifact_key("t", seed=4)
        path = cache.store(key, "t", {"a": np.arange(100)})
        with open(path, "wb") as handle:
            np.save(handle, np.arange(100))
        assert cache.load(key, "t") is None
        assert cache.stats()["misses"] == 1

    def test_counters_track_traffic(self, cache):
        key = artifact_key("t", seed=0)
        cache.store(key, "t", {"a": np.arange(100)})
        cache.load(key, "t")
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["bytes_written"] > 0
        assert stats["bytes_read"] == stats["bytes_written"]

    def test_len_skips_stale_temp_file(self, cache):
        """Regression: a killed writer's ``<key>.tmp-<pid>-<tid>.npz`` was
        counted as an entry."""
        key = artifact_key("t", seed=5)
        cache.store(key, "t", {"a": np.arange(10)})
        cache.path_for(key).with_name(f"{key}.tmp-999-1.npz").write_bytes(b"torn")
        assert len(cache) == 1

    def test_level6_entry_is_hit(self, cache):
        """An entry written by ``np.savez_compressed`` (zlib level 6)
        still loads as a hit with the same arrays."""
        key = artifact_key("t", seed=6)
        save_arrays_level6(GENERATOR_ARRAYS, cache.path_for(key), artifact="t")
        loaded = cache.load(key, "t")
        assert cache.stats()["hits"] == 1 and cache.stats()["misses"] == 0
        for name, value in GENERATOR_ARRAYS.items():
            assert loaded[name].tobytes() == np.asarray(value).tobytes()

    def test_object_array_not_published(self, cache):
        """An unstorable array raises and leaves no entry behind."""
        from repro.errors import TraceError

        key = artifact_key("t", seed=7)
        with pytest.raises(TraceError, match="object"):
            cache.store(key, "t", {"a": np.array([None, 1], dtype=object)})
        assert list(cache.cache_dir.iterdir()) == []

    def test_bad_cache_dir_rejected(self, tmp_path):
        from repro.errors import TraceError

        blocker = tmp_path / "file"
        blocker.write_text("x")
        with pytest.raises(TraceError):
            ArtifactCache(blocker / "cache")


class TestThreadedWriters:
    @staticmethod
    def _run_threads(target, count):
        errors = []

        def guarded():
            try:
                target()
            except Exception as exc:  # reported by the assertion below
                errors.append(exc)

        threads = [threading.Thread(target=guarded) for _ in range(count)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []

    def test_two_threads_store_one_key(self, cache):
        """Both writers publish whole bundles; the survivor loads."""
        key = artifact_key("t", seed=11)
        arrays = {"a": np.arange(300_000), "b": np.ones(1000)}
        barrier = threading.Barrier(2)

        def store():
            barrier.wait(timeout=30)
            cache.store(key, "t", arrays)

        self._run_threads(store, 2)
        assert len(cache) == 1
        assert list(cache.cache_dir.iterdir()) == [cache.path_for(key)]
        loaded = cache.load(key, "t")
        assert (loaded["a"] == arrays["a"]).all()
        assert (loaded["b"] == arrays["b"]).all()
        assert cache.stats()["hits"] == 1 and cache.stats()["misses"] == 0

    def test_counts_exact_under_threads(self, cache):
        present = artifact_key("t", seed=12)
        absent = artifact_key("t", seed=13)
        size = cache.store(present, "t", {"a": np.arange(10)}).stat().st_size
        threads, rounds = 8, 40

        def lookups():
            for _ in range(rounds):
                assert cache.load(present, "t") is not None
                assert cache.load(absent, "t") is None

        self._run_threads(lookups, threads)
        stats = cache.stats()
        assert stats["hits"] == threads * rounds
        assert stats["misses"] == threads * rounds
        assert stats["bytes_read"] == threads * rounds * size

    def test_loads_survive_finalizers_mid_parse(self, cache):
        """Concurrent loads stay exact while the GC runs Python finalizers.

        numpy parses ``.npy`` headers with ``ast.literal_eval``; a
        finalizer run by the collector can hand the GIL to another
        parsing thread midway, which CPython 3.11 reports as a
        ``SystemError`` unless bundle reads are serialized.
        """
        key = artifact_key("t", seed=14)
        cache.store(key, "t", {"a": np.arange(10), "b": np.ones(3)})
        threads, rounds = 8, 100

        class Finalized:
            def __del__(self):
                sum(range(50))

        def lookups():
            for _ in range(rounds):
                for _ in range(30):
                    first, second = Finalized(), Finalized()
                    first.other, second.other = second, first
                assert cache.load(key, "t") is not None

        threshold = gc.get_threshold()
        gc.set_threshold(50)
        try:
            self._run_threads(lookups, threads)
        finally:
            gc.set_threshold(*threshold)
        assert cache.stats()["hits"] == threads * rounds


class TestActiveCache:
    def test_activate_returns_previous(self, cache):
        previous = cache_mod.activate(cache)
        try:
            assert cache_mod.active_cache() is cache
        finally:
            cache_mod.activate(previous)
        assert cache_mod.active_cache() is previous


class TestCachedGeneration:
    def test_streams_warm_equals_cold(self, config, cache):
        events = {Segment.CODE: 4000, Segment.HEAP: 3000}
        cold = generate_segment_streams(config, events, seed=5, cache=cache)
        warm = generate_segment_streams(config, events, seed=5, cache=cache)
        fresh = generate_segment_streams(config, events, seed=5)
        assert cache.stats()["hits"] == 1 and cache.stats()["misses"] == 1
        for segment in events:
            assert (cold[segment] == warm[segment]).all()
            assert (cold[segment] == fresh[segment]).all()

    def test_trace_warm_equals_cold(self, config, cache):
        cold = generate_trace(config, 5000, seed=5, threads=2, cache=cache)
        warm = generate_trace(config, 5000, seed=5, threads=2, cache=cache)
        fresh = generate_trace(config, 5000, seed=5, threads=2)
        assert cache.stats()["hits"] == 1 and cache.stats()["misses"] == 1
        for loaded in (warm, fresh):
            assert (cold.addr == loaded.addr).all()
            assert (cold.kind == loaded.kind).all()
            assert (cold.segment == loaded.segment).all()
            assert (cold.thread == loaded.thread).all()
            assert cold.instruction_count == loaded.instruction_count

    def test_different_request_different_entry(self, config, cache):
        generate_trace(config, 5000, seed=5, cache=cache)
        generate_trace(config, 5000, seed=6, cache=cache)
        assert cache.stats()["misses"] == 2
        assert len(cache) == 2
