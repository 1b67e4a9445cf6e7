"""Shared read-only artifact memory: mmap the tables, never copy them.

A fleet of serving workers must not pay one copy of the weight and
pre-encoded plaintext tables *per worker* — the tables are immutable
after export, so every worker should read the same physical pages
(the Cell-BE local-store discipline: stage shared read-only data once,
stream it, never duplicate it).  :class:`ArtifactMap` opens a serving
artifact so that every numpy payload is **mmap-backed**: artifacts are
written with ``ZIP_STORED`` members, so the ``.npz`` file is mapped *in
place* — one ``mmap``, with each member's ``.npy`` data exposed as a
zero-copy ndarray view at its offset inside the archive.  A deflated
member is not addressable and is rejected by name.
``ArtifactMap(path).load()`` is the only way to read an artifact.

The arrays come back **read-only** (any in-place write raises), so the
"never copied, never mutated on the request path" invariant of
``tests/test_serve_pool.py`` is enforced by the OS, not by convention.
"""

from __future__ import annotations

import json
import mmap
import os
import zipfile
from typing import Dict, Optional

import numpy as np
from numpy.lib import format as npy_format

from repro.serve.artifact import ArtifactSchemaError, artifact_from_doc

_LOCAL_HEADER_SIZE = 30  # fixed part of a zip local file header (PK\x03\x04)


def is_mmap_backed(array: np.ndarray) -> bool:
    """True when ``array``'s buffer ultimately lives in an mmap.

    Walks the ``base`` chain: views of views of a ``np.memmap`` (or of
    an ndarray wrapping an ``mmap.mmap`` buffer) all count — what
    matters is the physical pages, not the wrapper type.
    """
    node = array
    while node is not None:
        if isinstance(node, (np.memmap, mmap.mmap)):
            return True
        if isinstance(node, memoryview):
            node = node.obj
            continue
        node = getattr(node, "base", None)
    return False


def _npy_view(buffer: mmap.mmap, start: int, size: int) -> np.ndarray:
    """A zero-copy read-only ndarray over one ``.npy`` member at
    ``buffer[start:start+size]``."""
    magic = bytes(buffer[start : start + 6])
    if magic != npy_format.MAGIC_PREFIX:
        raise ArtifactSchemaError("zip member is not a .npy payload")
    major, minor = buffer[start + 6], buffer[start + 7]
    if major == 1:
        header_len = int.from_bytes(buffer[start + 8 : start + 10], "little")
        header_start = start + 10
    else:
        header_len = int.from_bytes(buffer[start + 8 : start + 12], "little")
        header_start = start + 12
    header = bytes(buffer[header_start : header_start + header_len]).decode("latin1")
    shape, fortran, dtype = _parse_header_dict(header)
    data_start = header_start + header_len
    count = int(np.prod(shape)) if shape else 1
    array = np.frombuffer(buffer, dtype=dtype, count=count, offset=data_start)
    array = array.reshape(shape, order="F" if fortran else "C")
    if data_start + array.nbytes > start + size:
        raise ArtifactSchemaError("zip member truncated")
    return array


def _parse_header_dict(header: str):
    """Parse the ``.npy`` header dict literal -> (shape, fortran, dtype)."""
    import ast

    doc = ast.literal_eval(header)
    return tuple(doc["shape"]), bool(doc["fortran_order"]), np.dtype(doc["descr"])


class ArtifactMap:
    """A serving artifact opened over shared read-only memory.

    Args:
        path: the ``.npz`` artifact path.
    """

    def __init__(self, path: str):
        if not path.endswith(".npz"):
            path = path + ".npz"
        if not os.path.exists(path):
            raise FileNotFoundError(path)
        self.path = path
        self._mmap: Optional[mmap.mmap] = None
        self._arrays: Dict[str, np.ndarray] = {}
        self._open()

    # -- opening -----------------------------------------------------------
    def _open(self) -> None:
        """Map every ``ZIP_STORED`` member in place inside the archive."""
        with zipfile.ZipFile(self.path) as archive:
            members = archive.infolist()
        for info in members:
            if info.compress_type != zipfile.ZIP_STORED:
                raise ArtifactSchemaError(
                    f"{self.path}: member {info.filename} is compressed and "
                    "cannot be mapped in place; re-export uncompressed"
                )
        # The map holds its own descriptor: the file closes at once.
        with open(self.path, "rb") as f:
            self._mmap = mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ)
        for info in members:
            # The central directory's extra field can differ from the
            # local header's: read the local header to find the data.
            header = self._mmap[
                info.header_offset : info.header_offset + _LOCAL_HEADER_SIZE
            ]
            if header[:4] != b"PK\x03\x04":
                raise ArtifactSchemaError(
                    f"{self.path}: bad local header for {info.filename}"
                )
            name_len = int.from_bytes(header[26:28], "little")
            extra_len = int.from_bytes(header[28:30], "little")
            data_start = (
                info.header_offset + _LOCAL_HEADER_SIZE + name_len + extra_len
            )
            name = info.filename
            if name.endswith(".npy"):
                name = name[: -len(".npy")]
            self._arrays[name] = _npy_view(
                self._mmap, data_start, info.file_size
            )
        for name, array in self._arrays.items():
            if array.flags.writeable:  # pragma: no cover - mmap('r') is RO
                array.flags.writeable = False
            if not is_mmap_backed(array):  # pragma: no cover - invariant
                raise ArtifactSchemaError(
                    f"{self.path}: member {name} is not mmap-backed"
                )

    # -- access ------------------------------------------------------------
    @property
    def arrays(self) -> Dict[str, np.ndarray]:
        """Member name -> read-only mmap-backed array (no ``__manifest__``)."""
        return {
            name: array
            for name, array in self._arrays.items()
            if name != "__manifest__"
        }

    def manifest_doc(self) -> Dict:
        manifest = self._arrays.get("__manifest__")
        if manifest is None:
            raise ArtifactSchemaError(f"{self.path}: not a serving artifact")
        return json.loads(bytes(manifest).decode("utf-8"))

    def mapped_bytes(self) -> int:
        """Total bytes of table memory served from the map."""
        return sum(array.nbytes for array in self.arrays.values())

    def load(self):
        """Build the :class:`~repro.serve.artifact.ServingArtifact` whose
        numpy payloads are views into this map (zero table copies)."""
        return artifact_from_doc(
            self.manifest_doc(), lambda ref: self._arrays[ref], path=self.path
        )

    def close(self) -> None:
        """Drop the mapping (arrays handed out keep it alive until GC'd)."""
        # The mmap object stays referenced by any outstanding array
        # views; closing it here would invalidate them, so just drop our
        # handle and let refcounting reclaim the mapping.
        self._arrays = {}
        self._mmap = None

    def __enter__(self) -> "ArtifactMap":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
