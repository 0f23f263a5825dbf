"""Tile-addressable output sinks — bounded assembly, checkpoint, resume.

A 16K² int64 class map is 2 GB; the streaming runner therefore never
assembles its output. A sink receives one finished macro-tile at a time
and owns durability:

* :class:`MemorySink` — per-tile dict for tests and small scenes.
* :class:`NpyDirectorySink` — one ``.npy`` per macro-tile, written via
  write-temp-then-``os.replace``. **The tile files are the checkpoint**:
  a file exists iff its tile completed (the atomic rename can't leave a
  torn file), so :meth:`completed` needs no side manifest and a killed
  run resumes by skipping exactly the files on disk. Filenames derive
  from tile *origins*, so artifacts survive schedule-order changes.

Both sinks share digest/assemble helpers; the bench proves byte-identity
of a killed-and-resumed run by comparing :meth:`digest` values.
"""

from __future__ import annotations

import hashlib
import os
import tempfile
from pathlib import Path
from typing import Dict, Optional, Set, Union

import numpy as np

from ..perf import write_json_atomic
from .planner import MacroTile, StreamPlan

__all__ = ["MemorySink", "NpyDirectorySink"]

#: Refuse whole-scene assembly above this many elements (it defeats the
#: point of streaming); tests and demos stay far below.
_ASSEMBLE_LIMIT = 1 << 27


def _out_shape(plan: StreamPlan) -> tuple:
    if plan.kind == "volume":
        return plan.scene_shape
    return plan.scene_shape[:2]


def _assemble(plan: StreamPlan, fetch, dtype) -> np.ndarray:
    total = int(np.prod(_out_shape(plan)))
    if total > _ASSEMBLE_LIMIT:
        raise ValueError(
            f"refusing to assemble {total} elements (> {_ASSEMBLE_LIMIT}); "
            "consume tiles individually instead")
    out = np.zeros(_out_shape(plan), dtype=dtype)
    for t in plan.tiles:
        out[t.slices()] = fetch(t)
    return out


def _tile_digest(arr: np.ndarray) -> str:
    """blake2b of one C-contiguous tile's bytes, hashed in place."""
    return hashlib.blake2b(arr.reshape(-1).view(np.uint8),
                           digest_size=16).hexdigest()


def _digest(plan: StreamPlan, fetch) -> str:
    """Order-independent content digest: tiles hashed in origin order."""
    h = hashlib.blake2b(digest_size=16)
    for t in sorted(plan.tiles, key=lambda t: t.origin):
        arr = np.ascontiguousarray(fetch(t))
        h.update(t.name.encode())
        h.update(str(arr.dtype).encode())
        h.update(arr.tobytes())
    return h.hexdigest()


class MemorySink:
    """Hold finished tiles in a dict keyed by tile name (small scenes only)."""

    def __init__(self) -> None:
        self.tiles: Dict[str, np.ndarray] = {}

    def completed(self, plan: StreamPlan) -> Set[int]:
        return {t.index for t in plan.tiles if t.name in self.tiles}

    def write(self, tile: MacroTile, class_map: np.ndarray) -> None:
        self.tiles[tile.name] = np.asarray(class_map)

    def read(self, tile: MacroTile) -> np.ndarray:
        return self.tiles[tile.name]

    def assemble(self, plan: StreamPlan, dtype=np.int64) -> np.ndarray:
        return _assemble(plan, self.read, dtype)

    def digest(self, plan: StreamPlan) -> str:
        return _digest(plan, self.read)


class NpyDirectorySink:
    """Out-of-core sink: one atomically-written ``.npy`` per macro-tile.

    Parameters
    ----------
    root:
        Output directory (created if missing).
    dtype:
        Optional storage dtype (e.g. ``np.uint8`` shrinks a class map 8x).
        The cast must be value-exact; lossy writes raise instead of
        silently corrupting the bit-identity contract.
    """

    def __init__(self, root: Union[str, Path], dtype=None):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.dtype = np.dtype(dtype) if dtype is not None else None
        #: digests of the tiles this sink wrote, taken from the bytes in
        #: memory so :meth:`finalize` need not hash them again
        self._tile_digests: Dict[str, str] = {}

    def _path(self, tile: MacroTile) -> Path:
        return self.root / f"{tile.name}.npy"

    def _expected_shape(self, plan: StreamPlan, tile: MacroTile) -> tuple:
        if plan.kind == "volume":
            return tile.size + plan.scene_shape[1:]
        return tile.size

    def completed(self, plan: StreamPlan) -> Set[int]:
        """Tiles already durable on disk (atomic writes ⇒ presence = done).

        An artifact only counts when its header matches the plan (shape,
        and dtype when the sink pins one), so stale files from a run with
        a different tile size or storage dtype are recomputed rather than
        silently accepted. Resume still assumes the same model/config —
        tile *values* are not re-derived. Orphaned ``.tmp`` files from a
        hard kill are swept here.
        """
        for orphan in self.root.glob("*.tmp"):
            orphan.unlink()
        done = set()
        for t in plan.tiles:
            path = self._path(t)
            if not path.exists():
                continue
            try:
                arr = np.load(path, mmap_mode="r")   # header only, no data
            except (OSError, ValueError):
                continue
            if arr.shape != self._expected_shape(plan, t):
                continue
            if self.dtype is not None and arr.dtype != self.dtype:
                continue
            done.add(t.index)
        return done

    def discard(self) -> None:
        """Delete every tile artifact, including orphaned temp files."""
        for p in (*self.root.glob("*.npy"), *self.root.glob("*.tmp")):
            p.unlink()
        self._tile_digests.clear()

    def write(self, tile: MacroTile, class_map: np.ndarray) -> None:
        arr = np.asarray(class_map)
        if self.dtype is not None and arr.dtype != self.dtype:
            cast = arr.astype(self.dtype)
            if not np.array_equal(cast.astype(arr.dtype), arr):
                raise ValueError(
                    f"values of {tile.name} do not fit dtype {self.dtype}")
            arr = cast
        digest = _tile_digest(np.ascontiguousarray(arr))
        fd, tmp = tempfile.mkstemp(dir=self.root, prefix=tile.name + ".",
                                   suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                np.save(fh, arr)
            os.replace(tmp, self._path(tile))
            self._tile_digests[tile.name] = digest
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def read(self, tile: MacroTile) -> np.ndarray:
        return np.load(self._path(tile))

    def assemble(self, plan: StreamPlan, dtype=np.int64) -> np.ndarray:
        return _assemble(plan, self.read, dtype)

    def digest(self, plan: StreamPlan) -> str:
        return _digest(plan, self.read)

    def finalize(self, plan: StreamPlan, report: Optional[dict] = None) -> None:
        """Write ``manifest.json`` (scene metadata + per-tile digests).

        One pass over the artifacts: the combined digest accumulates the
        same ``(name, dtype, bytes)`` stream :func:`_digest` hashes, so
        tiles are loaded once, not twice. A tile's own digest was taken
        by :meth:`write`; only tiles an earlier run left on disk are
        hashed twice here.
        """
        tiles = {}
        combined = hashlib.blake2b(digest_size=16)
        for t in sorted(plan.tiles, key=lambda t: t.origin):
            arr = np.ascontiguousarray(self.read(t))
            data = arr.reshape(-1).view(np.uint8)
            tiles[t.name] = (self._tile_digests.get(t.name)
                             or _tile_digest(arr))
            combined.update(t.name.encode())
            combined.update(str(arr.dtype).encode())
            combined.update(data)
        manifest = {"plan": plan.describe(), "tiles": tiles,
                    "digest": combined.hexdigest()}
        if report is not None:
            manifest["report"] = report
        write_json_atomic(self.root / "manifest.json", manifest)
