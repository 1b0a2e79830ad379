"""One store for every derived array artifact: ``.npz`` plus mmap sidecar.

Traces, frontend plans, entangling plans and the replacement pre-pass
are bulk numpy arrays derived deterministically from their inputs.  All
four are cached by an :class:`ArtifactStore`, which owns the whole
on-disk lifecycle:

* ``<stem>.npz`` — the durable, compressed copy: a ``meta`` JSON member
  plus one member per array, deflated at level 1 (:func:`write_npz`).
  Written to a temp file and renamed into place, so a concurrent reader
  never loads a partial file; the temp file is removed even when the
  write raises.
* ``<stem>.mmap/`` — the *sidecar*: the same arrays as raw ``.npy``
  files, served through ``np.load(mmap_mode="r")`` so every sweep
  worker loading one workload shares one page cache instead of each
  inflating its own copy.  Built in a temp directory and committed by
  rename, with ``meta.json`` written last.  Besides the artifact's own
  meta it records the size and sha1 of the npz it was derived from, so
  a sidecar that outlives a rewritten npz is detected as stale.

Lookup order is in-process memo, sidecar, npz, then a fresh build.
Anything corrupt, stale, or not matching the caller's ``expect`` meta
(fingerprint, record count) is discarded and the next layer tried; a
good npz whose sidecar is missing gets the sidecar repaired.  The
``npz`` and ``sidecar`` fault sites (:mod:`repro.common.faults`) fire
right after each commit, so injected damage lands on the files readers
trust.

An artifact class supplies only ``FIELDS`` (its array attribute names),
``meta()`` (a JSON-able dict) and a classmethod ``from_parts(meta,
arrays)`` that validates format and lengths and raises on a mismatch.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import zipfile
from collections import OrderedDict
from pathlib import Path
from typing import Callable, Dict, Mapping, Optional

import numpy as np
from numpy.lib.format import write_array

from repro.common.faults import fire

#: Deflate level of every npz the store writes.  A cold build writes its
#: trace and plan once; level 1 writes them about 4x faster than
#: ``np.savez_compressed``'s level 6 for files about 24% larger.
#: Readers accept any level.
NPZ_DEFLATE_LEVEL = 1


def sidecar_path(npz: Path) -> Path:
    """The mmap sidecar directory belonging to an artifact ``.npz``."""
    return npz.with_name(f"{npz.stem}.mmap")


#: npz content hashes keyed by (path, size, mtime_ns): the staleness
#: check hashes each npz at most once per process.
_sha1_memo: Dict[tuple, str] = {}


def _file_sha1(path: Path) -> str:
    stat = path.stat()
    key = (str(path), stat.st_size, stat.st_mtime_ns)
    digest = _sha1_memo.get(key)
    if digest is None:
        h = hashlib.sha1()
        with path.open("rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
        digest = _sha1_memo[key] = h.hexdigest()
    return digest


def write_npz(path: Path, arrays: Mapping[str, np.ndarray]) -> None:
    """Write ``arrays`` as an ``np.load``-able npz at :data:`NPZ_DEFLATE_LEVEL`.

    The same layout ``np.savez_compressed`` writes (one ``<name>.npy``
    member per array), with the compression level chosen here.
    """
    with zipfile.ZipFile(
        path, "w", zipfile.ZIP_DEFLATED, allowZip64=True,
        compresslevel=NPZ_DEFLATE_LEVEL,
    ) as zf:
        for name, value in arrays.items():
            with zf.open(f"{name}.npy", "w", force_zip64=True) as fh:
                write_array(fh, np.asanyarray(value), allow_pickle=False)


def _check(meta: Mapping[str, object], expect: Mapping[str, object]) -> None:
    wrong = {k: meta.get(k) for k, v in expect.items() if meta.get(k) != v}
    if wrong:
        raise ValueError(f"artifact meta {wrong} does not match {dict(expect)}")


class ArtifactStore:
    """The ``.npz`` + ``.mmap/`` cache for one artifact class.

    ``memo_cap`` bounds the in-process LRU memo (0 disables it), keyed
    by the entry's file name, which embeds its fingerprint.  Unless
    ``always_disk`` is set, ``REPRO_NO_DISK_CACHE=1`` keeps the store
    off disk entirely.
    """

    def __init__(self, kind, memo_cap: int = 0, always_disk: bool = False) -> None:
        self.kind = kind
        self.memo_cap = memo_cap
        self.always_disk = always_disk
        self._memo: "OrderedDict[str, object]" = OrderedDict()

    def clear_memo(self) -> None:
        self._memo.clear()

    def get(
        self,
        path: Path,
        build: Callable[[], object],
        expect: Mapping[str, object] = {},
        use_disk: Optional[bool] = None,
    ):
        """The artifact cached at ``path``, building and saving it on a miss.

        ``expect`` is meta the entry must carry (fingerprint, record
        count); ``use_disk`` overrides the store's disk default.
        """
        key = path.name
        artifact = self._memo.get(key)
        if artifact is not None:
            self._memo.move_to_end(key)
            return artifact
        if use_disk is None:
            use_disk = (
                self.always_disk or os.environ.get("REPRO_NO_DISK_CACHE", "") != "1"
            )
        if use_disk and path.exists():
            artifact = self._load(path, expect)
        if artifact is None:
            artifact = build()
            if use_disk:
                self.put(path, artifact)
        self._memo[key] = artifact
        while len(self._memo) > self.memo_cap:
            self._memo.popitem(last=False)
        return artifact

    def _load(self, path: Path, expect: Mapping[str, object]):
        sidecar = sidecar_path(path)
        if sidecar.is_dir():
            try:
                return self.read_sidecar(path, expect)
            except Exception:
                shutil.rmtree(sidecar, ignore_errors=True)  # corrupt/stale
        try:
            artifact = self.read_npz(path, expect)
        except Exception:
            path.unlink(missing_ok=True)  # corrupt/stale: rebuild
            return None
        self._write_sidecar(path, artifact)  # repair for future workers
        return artifact

    def put(self, path: Path, artifact) -> None:
        """Write ``artifact`` to ``path`` (write-then-rename) and its sidecar."""
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(f"{path.stem}.{os.getpid()}.tmp.npz")
        try:
            write_npz(tmp, {
                "meta": np.bytes_(json.dumps(artifact.meta(), sort_keys=True).encode()),
                **{name: getattr(artifact, name) for name in self.kind.FIELDS},
            })
            os.replace(tmp, path)
        finally:
            tmp.unlink(missing_ok=True)
        fire("npz", str(path))
        self._write_sidecar(path, artifact)

    def _write_sidecar(self, path: Path, artifact) -> None:
        """Best effort: a lost race leaves the other writer's sidecar."""
        dirpath = sidecar_path(path)
        tmp = dirpath.with_name(f"{dirpath.name}.{os.getpid()}.tmp")
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            meta = dict(
                artifact.meta(),
                npz_size=path.stat().st_size,
                npz_sha1=_file_sha1(path),
            )
            tmp.mkdir(parents=True)
            for name in self.kind.FIELDS:
                np.save(tmp / f"{name}.npy", np.asarray(getattr(artifact, name)))
            (tmp / "meta.json").write_text(json.dumps(meta, sort_keys=True))
            shutil.rmtree(dirpath, ignore_errors=True)
            os.replace(tmp, dirpath)
        except OSError:
            return
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        fire("sidecar", str(dirpath / "meta.json"))

    def read_npz(self, path: Path, expect: Mapping[str, object] = {}):
        """Load the artifact from its ``.npz``; raises on any mismatch."""
        with np.load(path) as data:
            meta = json.loads(bytes(data["meta"]).decode())
            _check(meta, expect)
            arrays = {name: data[name] for name in self.kind.FIELDS}
        return self.kind.from_parts(meta, arrays)

    def read_sidecar(self, path: Path, expect: Mapping[str, object] = {}):
        """Load the artifact from the sidecar of ``path``, arrays mapped.

        Raises on any corruption or staleness: unreadable meta or
        arrays, an npz whose size or hash no longer matches the one the
        sidecar was derived from, or meta not matching ``expect``.
        """
        dirpath = sidecar_path(path)
        meta = json.loads((dirpath / "meta.json").read_text())
        # Cheap checks first: a resized npz or a wrong fingerprint is
        # rejected without hashing the npz.
        _check(meta, {"npz_size": path.stat().st_size, **expect})
        _check(meta, {"npz_sha1": _file_sha1(path)})
        arrays = {
            name: np.load(dirpath / f"{name}.npy", mmap_mode="r")
            for name in self.kind.FIELDS
        }
        return self.kind.from_parts(meta, arrays)
