"""Trace persistence.

Generating the bigger synthetic traces and search-engine traces takes real
time; persisting them as compressed ``.npz`` bundles lets experiment
campaigns and notebooks reuse collections, the way the paper reuses its Pin
trace collections across analyses ("results are qualitatively similar over
multiple such collections", §III-A).

A bundle is a zip archive of ``.npy`` members, the layout
:func:`numpy.savez_compressed` writes, but deflated at zlib level 1
(:data:`DEFLATE_LEVEL`) instead of numpy's fixed level 6: on the
artifact cache's streams that writes about five times faster for about
8 % more bytes.  The level is not part of the format: :func:`numpy.load`
inflates a member at any level, so bundles written by
``np.savez_compressed`` read exactly as before.

Two layers live here:

* :func:`save_trace` / :func:`load_trace` — the :class:`Trace` bundle
  format used by notebooks and the CLI tools.
* :func:`save_arrays` / :func:`load_arrays` — the generic versioned
  array-bundle format underneath it, which
  :mod:`repro.memtrace.cache` uses to persist arbitrary artifacts
  (per-segment line streams, traces) content-addressed by key.
"""

from __future__ import annotations

import json
import threading
import zipfile
import zlib
from pathlib import Path

import numpy as np

from repro.errors import TraceError
from repro.memtrace.trace import Trace

#: Format version written into every bundle; bump on layout changes.
FORMAT_VERSION = 1

#: zlib level of every bundle member.  Level 1 keeps most of level 6's
#: size reduction on trace streams at a fraction of its write time.
DEFLATE_LEVEL = 1

#: Serializes bundle reads across threads.  numpy parses each member's
#: ``.npy`` header with :func:`ast.literal_eval`, and CPython before
#: 3.12 keeps the AST converter's recursion depth in per-interpreter
#: state: two threads parsing at once can fail with ``SystemError: AST
#: constructor recursion depth mismatch``.
_READ_LOCK = threading.Lock()


def _normalize_path(path: str | Path) -> Path:
    """Append ``.npz`` unless the path already carries it (any case)."""
    path = Path(path)
    if path.suffix.lower() != ".npz":
        path = path.with_suffix(path.suffix + ".npz")
    return path


def save_arrays(arrays: dict[str, np.ndarray], path: str | Path, **metadata) -> Path:
    """Write named arrays (plus JSON-able metadata) as a versioned bundle.

    The suffix ``.npz`` is appended when missing (case-insensitively, so
    ``leaf.NPZ`` is left alone).  Returns the final path.  Each member is
    a ``.npy`` file deflated at :data:`DEFLATE_LEVEL`.  Object-dtype
    arrays (which ``.npy`` can hold only pickled), bad metadata, a missing
    parent directory or other filesystem failure raise
    :class:`TraceError`, not a raw ``OSError``; the arguments are checked
    before the file is opened.
    """
    path = _normalize_path(path)
    if "header" in arrays:
        raise TraceError("array name 'header' is reserved for the bundle header")
    try:
        header = json.dumps(
            {"version": FORMAT_VERSION, "metadata": metadata}, sort_keys=True
        )
    except TypeError as exc:
        raise TraceError(f"metadata must be JSON-serializable: {exc}") from exc
    members = {"header": np.frombuffer(header.encode(), np.uint8)}
    for name, value in arrays.items():
        value = np.asanyarray(value)
        if value.dtype.hasobject:
            raise TraceError(
                f"array {name!r} has object dtype {value.dtype}, which .npy "
                "stores only pickled; bundles hold no pickled members"
            )
        members[name] = value
    try:
        # Members are laid out as numpy's ``savez`` lays them out, so
        # ``np.load`` reads them; zip64 is forced so that a member over
        # 4 GiB stays readable (numpy gh-10776).
        with open(path, "wb") as handle, zipfile.ZipFile(
            handle,
            mode="w",
            compression=zipfile.ZIP_DEFLATED,
            compresslevel=DEFLATE_LEVEL,
            allowZip64=True,
        ) as archive:
            for name, value in members.items():
                with archive.open(f"{name}.npy", "w", force_zip64=True) as member:
                    np.lib.format.write_array(member, value, allow_pickle=False)
    except OSError as exc:
        raise TraceError(f"cannot write bundle {path}: {exc}") from exc
    return path


def load_arrays(path: str | Path) -> tuple[dict[str, np.ndarray], dict]:
    """Read a bundle written by :func:`save_arrays`.

    Returns ``(arrays, metadata)``; the version in the header must match
    :data:`FORMAT_VERSION`.  A truncated, corrupt or non-``.npz`` file
    (a plain ``.npy`` payload included) raises :class:`TraceError`, like
    every other unreadable bundle, and the file is closed on every path.
    Safe to call from several threads at once (reads take
    :data:`_READ_LOCK`).
    """
    path = Path(path)
    if not path.exists():
        raise TraceError(f"no trace bundle at {path}")
    try:
        # ``np.load(path)`` would open the file itself and leak the handle
        # when the archive turns out torn; a handle we own always closes.
        with _READ_LOCK, open(path, "rb") as handle:
            bundle = np.load(handle)
            if not isinstance(bundle, np.lib.npyio.NpzFile):
                raise TraceError(
                    f"{path} is not a trace bundle: a plain .npy payload"
                )
            with bundle:
                try:
                    header = json.loads(bytes(bundle["header"]).decode())
                except KeyError as exc:
                    raise TraceError(
                        f"{path} is not a trace bundle: missing {exc}"
                    ) from exc
                arrays = {
                    name: bundle[name]
                    for name in bundle.files
                    if name != "header"
                }
    except (zipfile.BadZipFile, EOFError, zlib.error, ValueError) as exc:
        raise TraceError(f"{path} is a torn or corrupt bundle: {exc}") from exc
    if header.get("version") != FORMAT_VERSION:
        raise TraceError(
            f"{path} has format version {header.get('version')}; "
            f"this library reads version {FORMAT_VERSION}"
        )
    return arrays, header.get("metadata", {})


def save_trace(trace: Trace, path: str | Path, **metadata) -> Path:
    """Write a trace (plus optional JSON-able metadata) to ``path``.

    The suffix ``.npz`` is appended when missing.  Returns the final path.
    """
    return save_arrays(
        {
            "addr": trace.addr,
            "kind": trace.kind,
            "segment": trace.segment,
            "thread": trace.thread,
            "instruction_count": np.int64(trace.instruction_count),
        },
        path,
        **metadata,
    )


def load_trace(path: str | Path) -> tuple[Trace, dict]:
    """Read a trace bundle; returns ``(trace, metadata)``."""
    arrays, metadata = load_arrays(path)
    try:
        trace = Trace(
            addr=arrays["addr"],
            kind=arrays["kind"],
            segment=arrays["segment"],
            thread=arrays["thread"],
            instruction_count=int(arrays["instruction_count"]),
        )
    except KeyError as exc:
        raise TraceError(f"{path} is not a trace bundle: missing {exc}") from exc
    return trace, metadata
