"""The artifact store's corruption matrix, run over all four kinds.

Traces, frontend plans, entangling plans and the replacement pre-pass
share one ``.npz`` + ``.mmap/`` lifecycle (:mod:`repro.common.artifacts`).
Every case here damages one piece of a stored entry and asserts the
store never serves wrong arrays: it falls back to the next layer,
rebuilds only when the npz itself is unusable, and repairs the sidecar.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.common import artifacts as artifacts_mod
from repro.common import faults
from repro.common.artifacts import sidecar_path
from repro.frontend.entangling_plan import ENTANGLING_PLAN_STORE, build_entangling_plan
from repro.frontend.plan import PLAN_STORE, build_plan
from repro.harness.schemes import SchemeContext, make_scheme
from repro.mem.prepass import PREPASS_STORE, build_replacement_prepass
from repro.uarch.params import DEFAULT_MACHINE
from repro.workloads.profiles import get_workload
from repro.workloads.trace import TRACE_STORE

#: kind -> (store, meta key naming the entry, a per-record array field)
KINDS = {
    "trace": (TRACE_STORE, "name", "blocks"),
    "plan": (PLAN_STORE, "fingerprint", "mispredict"),
    "entangling": (ENTANGLING_PLAN_STORE, "fingerprint", "cand_lo"),
    "prepass": (PREPASS_STORE, "fingerprint", "set_index"),
}


@pytest.fixture(scope="module")
def artifacts(tiny_trace):
    scheme = make_scheme("lru", SchemeContext(trace=tiny_trace))
    entangling, _ = build_entangling_plan(tiny_trace, DEFAULT_MACHINE, scheme, "lru")
    return {
        "trace": tiny_trace,
        "plan": build_plan(tiny_trace, DEFAULT_MACHINE, "fdp"),
        "entangling": entangling,
        "prepass": build_replacement_prepass(tiny_trace),
    }


class Entry:
    """One kind's artifact stored under ``tmp_path``, with a build counter."""

    def __init__(self, kind, artifact, tmp_path):
        self.store, self.ident, self.field = KINDS[kind]
        self.artifact = artifact
        self.path = tmp_path / f"entry.{kind}.npz"
        self.sidecar = sidecar_path(self.path)
        self.expect = {
            self.ident: artifact.meta()[self.ident],
            "records": len(artifact),
        }
        self.builds = 0

    def _build(self):
        self.builds += 1
        return self.artifact

    def get(self, expect=None):
        self.store.clear_memo()
        return self.store.get(
            self.path, self._build, expect or self.expect, use_disk=True
        )

    def assert_equal(self, loaded, other=None):
        for name in self.store.kind.FIELDS:
            want = getattr(other or self.artifact, name)
            assert np.array_equal(getattr(loaded, name), want), name
        assert loaded.meta() == (other or self.artifact).meta()

    def assert_mapped(self):
        loaded = self.get()
        for name in self.store.kind.FIELDS:
            assert isinstance(getattr(loaded, name), np.memmap), name
        self.assert_equal(loaded)


@pytest.fixture(params=sorted(KINDS))
def entry(request, artifacts, tmp_path, monkeypatch):
    monkeypatch.delenv("REPRO_FAULT", raising=False)
    faults.reset()
    kind = request.param
    yield Entry(kind, artifacts[kind], tmp_path)
    KINDS[kind][0].clear_memo()


class TestCorruptionMatrix:
    def test_hit_returns_memmap_arrays(self, entry):
        entry.assert_equal(entry.get())
        assert entry.sidecar.is_dir()
        entry.assert_mapped()
        assert entry.builds == 1

    def test_corrupt_npz_is_rebuilt(self, entry):
        entry.get()
        entry.path.write_bytes(b"not an npz")
        entry.assert_equal(entry.get())
        assert entry.builds == 2
        entry.assert_equal(entry.store.read_npz(entry.path))

    def test_truncated_array_falls_back_to_npz(self, entry):
        entry.get()
        array = entry.sidecar / f"{entry.field}.npy"
        array.write_bytes(array.read_bytes()[:-16])
        entry.assert_equal(entry.get())
        assert entry.builds == 1
        entry.assert_mapped()

    def test_zero_byte_meta_falls_back_to_npz(self, entry):
        entry.get()
        (entry.sidecar / "meta.json").write_bytes(b"")
        entry.assert_equal(entry.get())
        assert entry.builds == 1
        assert (entry.sidecar / "meta.json").stat().st_size > 0
        entry.assert_mapped()

    def test_missing_array_file_falls_back_to_npz(self, entry):
        entry.get()
        (entry.sidecar / f"{entry.field}.npy").unlink()
        entry.assert_equal(entry.get())
        assert entry.builds == 1
        assert (entry.sidecar / f"{entry.field}.npy").exists()
        entry.assert_mapped()

    def test_stale_sidecar_is_discarded_when_npz_changes(self, entry, tmp_path):
        entry.get()
        original = getattr(entry.artifact, entry.field)
        changed = dataclasses.replace(
            entry.artifact, **{entry.field: np.asarray(original)[::-1].copy()}
        )
        assert not np.array_equal(getattr(changed, entry.field), original)
        kept = tmp_path / "kept-sidecar"
        shutil.copytree(entry.sidecar, kept)
        entry.store.put(entry.path, changed)
        shutil.rmtree(entry.sidecar)
        shutil.copytree(kept, entry.sidecar)  # the old sidecar, now stale

        entry.assert_equal(entry.get(), changed)
        assert entry.builds == 1

    def test_wrong_fingerprint_is_rebuilt(self, entry):
        entry.get()
        wrong = dict(entry.expect, **{entry.ident: "0" * 12})
        entry.get(expect=wrong)
        assert entry.builds == 2

    def test_missing_sidecar_is_repaired_from_npz(self, entry):
        entry.get()
        shutil.rmtree(entry.sidecar)
        loaded = entry.get()
        entry.assert_equal(loaded)
        assert not isinstance(getattr(loaded, entry.field), np.memmap)
        assert entry.builds == 1
        assert entry.sidecar.is_dir()
        entry.assert_mapped()

    def test_sidecar_meta_records_the_npz(self, entry):
        entry.get()
        meta = json.loads((entry.sidecar / "meta.json").read_text())
        assert meta["npz_size"] == entry.path.stat().st_size
        assert meta["records"] == len(entry.artifact)


class TestWriteFaults:
    def test_npz_truncate_fault_is_rebuilt(self, entry, monkeypatch):
        monkeypatch.setenv("REPRO_FAULT", "npz:truncate@1")
        faults.reset()
        entry.get()
        truncated = entry.path.stat().st_size
        monkeypatch.delenv("REPRO_FAULT")
        faults.reset()
        shutil.rmtree(entry.sidecar)  # force the npz path

        entry.assert_equal(entry.get())
        assert entry.builds == 2
        assert entry.path.stat().st_size > truncated, "npz was rebuilt whole"

    def test_raising_npz_write_leaves_no_temp_file(self, entry, monkeypatch):
        real = artifacts_mod.write_npz

        def write_then_raise(file, *args, **kwargs):
            real(file, *args, **kwargs)
            raise RuntimeError("disk full")

        monkeypatch.setattr(artifacts_mod, "write_npz", write_then_raise)
        with pytest.raises(RuntimeError, match="disk full"):
            entry.get()
        assert not entry.path.exists()
        assert not list(entry.path.parent.glob("*.tmp.npz"))
        assert not list(entry.path.parent.glob("*.tmp"))

    def test_raising_sidecar_write_leaves_no_temp_dir(self, entry, monkeypatch):
        real = np.save

        def write_then_raise(file, *args, **kwargs):
            real(file, *args, **kwargs)
            raise RuntimeError("disk full")

        monkeypatch.setattr(np, "save", write_then_raise)
        with pytest.raises(RuntimeError, match="disk full"):
            entry.get()
        assert entry.path.exists()
        assert not entry.sidecar.exists()
        assert not list(entry.path.parent.glob("*.tmp.npz"))
        assert not list(entry.path.parent.glob("*.tmp"))


class TestNpzFormat:
    def test_store_npz_loads_identically_through_plain_np_load(self, entry):
        entry.get()
        via_store = entry.store.read_npz(entry.path)
        entry.assert_equal(via_store)
        with np.load(entry.path) as data:
            assert sorted(data.files) == sorted(("meta", *entry.store.kind.FIELDS))
            assert json.loads(bytes(data["meta"]).decode()) == via_store.meta()
            for name in entry.store.kind.FIELDS:
                want = np.asarray(getattr(via_store, name))
                assert data[name].dtype == want.dtype, name
                assert np.array_equal(data[name], want), name

    def test_committed_level6_trace_loads_without_rewrite(self, tmp_path):
        """Entries written by ``np.savez_compressed`` stay readable as-is."""
        profile = get_workload("media-streaming")
        committed = (
            Path(__file__).resolve().parents[1] / ".cache" / "traces"
            / f"media-streaming-r2000-s{profile.seed}.npz"
        )
        entry = tmp_path / committed.name
        shutil.copy2(committed, entry)
        before = (entry.stat().st_mtime_ns, entry.read_bytes())

        def build():
            raise AssertionError("a committed entry must not be rebuilt")

        want = TRACE_STORE.read_npz(committed)
        trace = TRACE_STORE.get(entry, build, expect={"records": len(want)})
        for name in TRACE_STORE.kind.FIELDS:
            assert np.array_equal(getattr(trace, name), getattr(want, name)), name
        assert (entry.stat().st_mtime_ns, entry.read_bytes()) == before


class TestMemo:
    @pytest.mark.parametrize(
        "store, cap",
        [(TRACE_STORE, 0), (PLAN_STORE, 8), (PREPASS_STORE, 8), (ENTANGLING_PLAN_STORE, 4)],
    )
    def test_memo_sizes(self, store, cap):
        assert store.memo_cap == cap

    def test_memo_hit_returns_same_object(self, artifacts, tmp_path):
        entry = Entry("plan", artifacts["plan"], tmp_path)
        first = entry.get()
        assert PLAN_STORE.get(entry.path, entry._build, entry.expect) is first
        PLAN_STORE.clear_memo()

    def test_unmemoised_trace_reloads(self, artifacts, tmp_path):
        entry = Entry("trace", artifacts["trace"], tmp_path)
        first = entry.get()
        assert TRACE_STORE.get(entry.path, entry._build) is not first
