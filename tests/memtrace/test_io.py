"""Tests for trace persistence."""

import gc
import warnings
import zipfile

import numpy as np
import pytest

from repro.errors import TraceError
from repro.memtrace.io import load_arrays, load_trace, save_arrays, save_trace
from repro.memtrace.synthetic import SyntheticWorkload, WorkloadConfig
from repro.memtrace.trace import Trace
from tests.memtrace.bundle_oracle import GENERATOR_ARRAYS, save_arrays_level6


@pytest.fixture
def trace():
    workload = SyntheticWorkload(WorkloadConfig().scaled(1 / 256), seed=9)
    return workload.generate(20_000, threads=2)


class TestRoundtrip:
    def test_arrays_preserved(self, trace, tmp_path):
        path = save_trace(trace, tmp_path / "leaf")
        loaded, __ = load_trace(path)
        assert (loaded.addr == trace.addr).all()
        assert (loaded.kind == trace.kind).all()
        assert (loaded.segment == trace.segment).all()
        assert (loaded.thread == trace.thread).all()
        assert loaded.instruction_count == trace.instruction_count

    def test_suffix_appended(self, trace, tmp_path):
        path = save_trace(trace, tmp_path / "leaf")
        assert path.suffix == ".npz"

    def test_metadata_roundtrip(self, trace, tmp_path):
        path = save_trace(trace, tmp_path / "x", profile="s1-leaf", scale=0.0625)
        __, metadata = load_trace(path)
        assert metadata == {"profile": "s1-leaf", "scale": 0.0625}

    def test_empty_trace(self, tmp_path):
        path = save_trace(Trace.empty(), tmp_path / "empty")
        loaded, __ = load_trace(path)
        assert len(loaded) == 0

    def test_bad_metadata_rejected(self, trace, tmp_path):
        with pytest.raises(TraceError):
            save_trace(trace, tmp_path / "x", generator=object())

    def test_missing_file(self, tmp_path):
        with pytest.raises(TraceError):
            load_trace(tmp_path / "nope.npz")

    def test_not_a_bundle(self, tmp_path):
        path = tmp_path / "junk.npz"
        np.savez(path, something=np.arange(3))
        with pytest.raises(TraceError):
            load_trace(path)

    def test_truncated_bundle_raises_trace_error(self, trace, tmp_path):
        path = save_trace(trace, tmp_path / "t.npz")
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(TraceError, match="torn or corrupt"):
            load_trace(path)

    @pytest.mark.parametrize("kind", ["truncated", "junk"])
    def test_unreadable_bundle_closes_its_file(self, tmp_path, kind):
        """Regression: every torn bundle leaked an open file handle."""
        path = save_arrays({"xs": np.arange(10_000)}, tmp_path / "b")
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2] if kind == "truncated" else b"junk")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            try:
                load_arrays(path)
            except TraceError:
                pass
            gc.collect()
        leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert not leaks, [str(w.message) for w in leaks]

    def test_plain_npy_payload_raises_trace_error(self, tmp_path):
        """Regression: a ``.npy`` payload under a ``.npz`` name raised a raw
        ``TypeError`` (``np.load`` returns an array, not an archive)."""
        path = tmp_path / "plain.npz"
        with open(path, "wb") as handle:
            np.save(handle, np.arange(10))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(TraceError, match="plain .npy payload"):
                load_arrays(path)
            gc.collect()
        leaks = [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert not leaks, [str(w.message) for w in leaks]

    def test_uppercase_suffix_respected(self, trace, tmp_path):
        """Regression: ``t.NPZ`` used to come back as ``t.NPZ.npz``."""
        path = save_trace(trace, tmp_path / "t.NPZ")
        assert path == tmp_path / "t.NPZ"
        loaded, __ = load_trace(path)
        assert (loaded.addr == trace.addr).all()

    def test_missing_parent_dir_raises_trace_error(self, trace, tmp_path):
        """Regression: a missing parent surfaced as a raw ``OSError``."""
        with pytest.raises(TraceError, match="cannot write"):
            save_trace(trace, tmp_path / "no" / "such" / "dir" / "t")


class TestArrayBundles:
    def test_roundtrip_with_metadata(self, tmp_path):
        arrays = {"xs": np.arange(7, dtype=np.int64), "ys": np.ones(2)}
        path = save_arrays(arrays, tmp_path / "bundle", kind="streams")
        loaded, metadata = load_arrays(path)
        assert metadata == {"kind": "streams"}
        assert (loaded["xs"] == arrays["xs"]).all()
        assert (loaded["ys"] == arrays["ys"]).all()

    def test_header_name_reserved(self, tmp_path):
        with pytest.raises(TraceError, match="header"):
            save_arrays({"header": np.arange(3)}, tmp_path / "bundle")

    def test_version_mismatch_rejected(self, tmp_path, monkeypatch):
        from repro.memtrace import io as io_mod

        path = save_arrays({"xs": np.arange(3)}, tmp_path / "bundle")
        monkeypatch.setattr(io_mod, "FORMAT_VERSION", io_mod.FORMAT_VERSION + 1)
        with pytest.raises(TraceError, match="format version"):
            load_arrays(path)


class TestDeflatedWriter:
    @pytest.mark.parametrize("name", sorted(GENERATOR_ARRAYS))
    def test_exact_bits_and_dtype(self, tmp_path, name):
        value = np.asarray(GENERATOR_ARRAYS[name])
        path = save_arrays({name: GENERATOR_ARRAYS[name]}, tmp_path / "b")
        loaded, __ = load_arrays(path)
        assert loaded[name].dtype == value.dtype
        assert loaded[name].shape == value.shape
        assert loaded[name].tobytes() == value.tobytes()

    def test_strided_and_fortran_inputs(self, tmp_path):
        strided = np.arange(1000, dtype=np.uint64)[::3]
        fortran = np.asfortranarray(np.arange(12, dtype=np.int64).reshape(3, 4))
        path = save_arrays({"s": strided, "f": fortran}, tmp_path / "b")
        loaded, __ = load_arrays(path)
        assert (loaded["s"] == strided).all()
        assert (loaded["f"] == fortran).all()

    def test_members_deflated(self, tmp_path):
        """Bundles stay compressed: a stored archive would be ~4x larger."""
        path = save_arrays(GENERATOR_ARRAYS, tmp_path / "b", seed=5)
        with zipfile.ZipFile(path) as archive:
            infos = archive.infolist()
        assert {info.filename for info in infos} == {
            f"{name}.npy" for name in ["header", *GENERATOR_ARRAYS]
        }
        assert all(info.compress_type == zipfile.ZIP_DEFLATED for info in infos)
        heap = next(info for info in infos if info.filename == "HEAP.npy")
        assert heap.compress_size < heap.file_size / 2

    def test_level6_bundle_loads(self, tmp_path):
        """A bundle written by ``np.savez_compressed`` reads unchanged."""
        path = save_arrays_level6(GENERATOR_ARRAYS, tmp_path / "old.npz", seed=5)
        loaded, metadata = load_arrays(path)
        assert metadata == {"seed": 5}
        assert set(loaded) == set(GENERATOR_ARRAYS)
        for name, value in GENERATOR_ARRAYS.items():
            value = np.asarray(value)
            assert loaded[name].dtype == value.dtype
            assert loaded[name].tobytes() == value.tobytes()

    def test_object_array_rejected(self, tmp_path):
        """Regression: an object array was pickled into the bundle, which
        ``load_arrays`` then reported as torn or corrupt."""
        path = tmp_path / "b.npz"
        with pytest.raises(TraceError, match="'mixed'.*object"):
            save_arrays(
                {"ok": np.arange(3), "mixed": np.array([1, "a", None], dtype=object)},
                path,
            )
        assert not path.exists()
