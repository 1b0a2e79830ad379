"""Sharded (windowed, ledgered) execution is pinned to single-pass runs.

Four layers:

* the **ledger** — ``ShardLedger`` round-trips boundary states through
  fsync'd JSONL + state files, tolerates torn tails, falls back past
  truncated/stale/foreign entries instead of trusting them, prunes to
  the fallback horizon, and deletes everything on ``finish``;
* the **harness** — ``run_experiment(shard_window=...)`` stitches a
  windowed run scalar-identical to a single pass for *every registered
  scheme*, across awkward window sizes, resumes a drained run from its
  ledger, and reports per-shard progress;
* the **fault matrix** — ``shard:kill/truncate/stale`` faults at window
  boundaries (``REPRO_FAULT``) recover scalar-identical, including a
  SIGKILL'd sweep worker whose replacement resumes mid-pair;
* the **slices** — ``Trace.window`` / ``FrontendPlan.slice`` /
  ``EntanglingPlan.slice`` materialize windows whose re-based arrays
  agree with the parent and round-trip through npz + mmap sidecars.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.common import faults
from repro.frontend.entangling_plan import ENTANGLING_PLAN_STORE, build_entangling_plan
from repro.frontend.plan import PLAN_STORE, build_plan
from repro.harness.experiment import run_experiment
from repro.harness.runner import Runner
from repro.harness.schemes import SchemeContext, available_schemes, make_scheme
from repro.harness.shards import (
    SHARD_FORMAT,
    DrainRequested,
    ShardLedger,
    ledger_for,
    shard_window,
    shards_dir,
    window_spans,
)
from repro.uarch.params import DEFAULT_MACHINE
from repro.workloads.profiles import get_workload
from repro.workloads.trace import cached_trace_window

SCALARS = (
    "instructions",
    "accesses",
    "cycles",
    "demand_misses",
    "late_prefetch_misses",
    "prefetches_issued",
    "mispredicted_transitions",
)

RECORDS = 4_000
WINDOW = 1_500
WORKLOAD = "media-streaming"


def _scalars(run):
    return {k: getattr(run, k) for k in SCALARS}


@pytest.fixture(autouse=True)
def shard_env(tmp_path, monkeypatch):
    """Isolated ledger/result dirs; no ambient shard/checkpoint config."""
    monkeypatch.setenv("REPRO_RESULT_CACHE", str(tmp_path))
    monkeypatch.delenv("REPRO_SHARD_WINDOW", raising=False)
    monkeypatch.delenv("REPRO_CHECKPOINT_EVERY", raising=False)
    monkeypatch.delenv("REPRO_FAULT", raising=False)
    monkeypatch.delenv("REPRO_FAULT_ONCE", raising=False)
    faults.reset()
    yield tmp_path
    faults.reset()


@pytest.fixture(scope="module")
def trace():
    return get_workload(WORKLOAD).trace(records=RECORDS)


@pytest.fixture(scope="module")
def context(trace):
    return SchemeContext(trace=trace, machine=DEFAULT_MACHINE)


@pytest.fixture(scope="module")
def plain_runs(context):
    """Single-pass reference scalars, one per scheme, built on demand."""
    memo = {}

    def get(scheme, prefetcher="fdp"):
        key = (scheme, prefetcher)
        if key not in memo:
            memo[key] = _scalars(
                run_experiment(
                    WORKLOAD,
                    scheme,
                    prefetcher=prefetcher,
                    records=RECORDS,
                    context=context,
                ).run
            )
        return memo[key]

    return get


def _sharded(scheme, context, window, **kwargs):
    return run_experiment(
        WORKLOAD,
        scheme,
        records=RECORDS,
        context=context,
        shard_window=window,
        **kwargs,
    ).run


class TestWindowSpans:
    def test_tiles_exactly(self):
        spans = window_spans(4_000, 1_500)
        assert spans == [(0, 1_500), (1_500, 3_000), (3_000, 4_000)]

    def test_divisor_window(self):
        assert window_spans(4_000, 1_000) == [
            (0, 1_000), (1_000, 2_000), (2_000, 3_000), (3_000, 4_000)
        ]

    @pytest.mark.parametrize("window", (0, 4_000, 9_999))
    def test_degenerate_single_span(self, window):
        assert window_spans(4_000, window) == [(0, 4_000)]

    def test_empty_total_rejected(self):
        with pytest.raises(ValueError):
            window_spans(0, 100)


class TestShardWindowEnv:
    def test_default_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHARD_WINDOW", raising=False)
        assert shard_window() == 0

    def test_parses(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_WINDOW", "2500")
        assert shard_window() == 2_500

    def test_negative_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARD_WINDOW", "-1")
        with pytest.raises(ValueError):
            shard_window()


def _state(next_record, tag="x"):
    """A plausible boundary-state stand-in (the ledger is payload-agnostic)."""
    return {
        "mode": "planned",
        "next_record": next_record,
        "counters": {"cycles": float(next_record), "tag": tag},
    }


class TestShardLedger:
    def _ledger(self, tmp_path, window=100, fp="feedface00"):
        return ShardLedger(tmp_path / "shards", f"w.s.{fp}", fp, window)

    def test_roundtrip_latest(self, tmp_path):
        ledger = self._ledger(tmp_path)
        ledger.record(_state(100))
        ledger.record(_state(200, "newer"))
        assert ledger.latest() == _state(200, "newer")
        ledger.close()

    def test_resume_across_instances(self, tmp_path):
        self._ledger(tmp_path).record(_state(100))
        again = self._ledger(tmp_path)
        assert again.latest() == _state(100)

    def test_torn_tail_tolerated(self, tmp_path):
        ledger = self._ledger(tmp_path)
        ledger.record(_state(100))
        ledger.close()
        with open(ledger.ledger_path, "a") as fh:
            fh.write('{"shard": 2, "next_re')  # torn mid-crash line
        assert self._ledger(tmp_path).latest() == _state(100)

    def test_truncated_state_falls_back(self, tmp_path):
        ledger = self._ledger(tmp_path)
        ledger.record(_state(100))
        ledger.record(_state(200))
        path = ledger.dir / f"{ledger.stem}.s2.state"
        path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])
        assert self._ledger(tmp_path).latest() == _state(100)

    def test_stale_state_falls_back(self, tmp_path):
        ledger = self._ledger(tmp_path)
        ledger.record(_state(100))
        ledger.record(_state(200))
        (ledger.dir / f"{ledger.stem}.s2.state").write_bytes(faults.STALE_BYTES)
        assert self._ledger(tmp_path).latest() == _state(100)

    def test_missing_state_falls_back(self, tmp_path):
        ledger = self._ledger(tmp_path)
        ledger.record(_state(100))
        ledger.record(_state(200))
        (ledger.dir / f"{ledger.stem}.s2.state").unlink()
        assert self._ledger(tmp_path).latest() == _state(100)

    def test_foreign_fingerprint_ignored(self, tmp_path):
        self._ledger(tmp_path, fp="feedface00").record(_state(100))
        other = ShardLedger(
            tmp_path / "shards", "w.s.feedface00", "0ddba11000", 100
        )
        assert other.latest() is None

    def test_window_mismatch_ignored(self, tmp_path):
        self._ledger(tmp_path, window=100).record(_state(100))
        assert self._ledger(tmp_path, window=50).latest() is None

    def test_prune_keeps_fallback_horizon(self, tmp_path):
        ledger = self._ledger(tmp_path)
        for k in range(1, 6):
            ledger.record(_state(100 * k))
        kept = sorted(p.name for p in ledger.dir.glob("*.state"))
        assert kept == [f"{ledger.stem}.s4.state", f"{ledger.stem}.s5.state"]
        assert ledger.latest() == _state(500)

    def test_finish_removes_everything(self, tmp_path):
        ledger = self._ledger(tmp_path)
        ledger.record(_state(100))
        ledger.finish()
        assert not list((tmp_path / "shards").iterdir())

    def test_close_keeps_files(self, tmp_path):
        ledger = self._ledger(tmp_path)
        ledger.record(_state(100))
        ledger.close()
        assert ledger.ledger_path.exists()

    def test_entries_skip_junk_lines(self, tmp_path):
        ledger = self._ledger(tmp_path)
        ledger.record(_state(100))
        ledger.close()
        with open(ledger.ledger_path, "a") as fh:
            fh.write("not json at all\n")
            fh.write(json.dumps({"no": "keys"}) + "\n")
        entries = self._ledger(tmp_path).entries()
        assert [e["next_record"] for e in entries if "next_record" in e] == [100]

    def test_format_bump_ignored(self, tmp_path, monkeypatch):
        ledger = self._ledger(tmp_path)
        ledger.record(_state(100))
        ledger.close()
        import repro.harness.shards as shards_mod

        monkeypatch.setattr(shards_mod, "SHARD_FORMAT", SHARD_FORMAT + 1)
        assert self._ledger(tmp_path).latest() is None

    def test_ledger_for_fingerprint_sensitivity(self):
        base = dict(
            workload="w", scheme="s", prefetcher_key="fdp", records=1000,
            machine_fingerprint="m", trace_digest="t", mode="planned",
        )
        a = ledger_for(window=100, **base)
        b = ledger_for(window=200, **base)
        c = ledger_for(window=100, **{**base, "scheme": "s2"})
        assert len({a.fingerprint, b.fingerprint, c.fingerprint}) == 3
        assert a.stem != b.stem


class TestShardedStitching:
    @pytest.mark.parametrize("scheme", sorted(available_schemes()))
    def test_every_scheme_stitches_identical(
        self, scheme, context, plain_runs
    ):
        run = _sharded(scheme, context, WINDOW)
        assert _scalars(run) == plain_runs(scheme)
        assert not list(shards_dir().glob("*")), (
            "completed sharded run must clean its ledger"
        )

    @pytest.mark.parametrize("window", (129, 1_000, 3_999, 4_000, 9_999))
    def test_awkward_window_sizes(self, window, context, plain_runs):
        assert _scalars(_sharded("lru", context, window)) == plain_runs("lru")

    def test_acic_awkward_window(self, context, plain_runs):
        assert _scalars(_sharded("acic", context, 1_999)) == plain_runs("acic")

    def test_env_window_routes_through_shards(
        self, context, plain_runs, monkeypatch
    ):
        monkeypatch.setenv("REPRO_SHARD_WINDOW", str(WINDOW))
        # Env sharding must also win over plain checkpointing.
        monkeypatch.setenv("REPRO_CHECKPOINT_EVERY", "777")
        run = run_experiment(
            WORKLOAD, "lru", records=RECORDS, context=context
        ).run
        assert _scalars(run) == plain_runs("lru")
        assert not list(shards_dir().glob("*"))

    def test_entangling_replay_shards_identical(self, context, plain_runs):
        # Cold exact-mode run IS the recording pass (never windowed);
        # the windowed run replays the recorded stream shard by shard.
        plain = plain_runs("lru", prefetcher="entangling")
        run = run_experiment(
            WORKLOAD,
            "lru",
            prefetcher="entangling",
            records=RECORDS,
            context=context,
            shard_window=WINDOW,
        ).run
        assert _scalars(run) == plain

    def test_shard_progress_reported(self, context, trace):
        boundaries = []
        _sharded(
            "lru", context, WINDOW,
            on_shard=lambda s, d, t: boundaries.append((s, d, t)),
        )
        total = len(trace)
        assert boundaries == [
            (k, k * WINDOW, total) for k in range(1, total // WINDOW + 1)
        ]

    def test_drain_persists_and_resumes_identical(self, context, plain_runs):
        boundaries = []
        with pytest.raises(DrainRequested) as excinfo:
            _sharded(
                "acic", context, WINDOW,
                on_shard=lambda s, d, t: boundaries.append(s),
                should_stop=lambda: len(boundaries) >= 1,
            )
        assert excinfo.value.records_done == WINDOW
        assert list(shards_dir().glob("*.ledger")), "drain must keep the ledger"

        resumed_boundaries = []
        run = _sharded(
            "acic", context, WINDOW,
            on_shard=lambda s, d, t: resumed_boundaries.append(s),
        )
        assert resumed_boundaries[0] == 2, "resume must skip the done shard"
        assert _scalars(run) == plain_runs("acic")
        assert not list(shards_dir().glob("*"))


class TestShardFaults:
    """The shard fault site: crash/corruption at window boundaries."""

    @pytest.fixture()
    def arm(self, shard_env, monkeypatch):
        def _arm(spec, latch=True):
            monkeypatch.setenv("REPRO_FAULT", spec)
            if latch:
                monkeypatch.setenv(
                    "REPRO_FAULT_ONCE", str(shard_env / "latch")
                )
            faults.reset()

        yield _arm
        faults.reset()

    @pytest.mark.parametrize("kind", ("truncate", "stale"))
    def test_mangled_boundary_falls_back_one_shard(
        self, kind, arm, context, plain_runs
    ):
        """Corrupt the newest committed state, drain there, resume.

        truncate/stale do not interrupt execution, so the test drains
        at the mangled boundary: resume must detect the bad sha1, fall
        back one shard, recompute the lost window and still stitch
        scalar-identical.
        """
        plain = plain_runs("lru")
        arm(f"shard:{kind}@2")
        boundaries = []
        with pytest.raises(DrainRequested):
            _sharded(
                "lru", context, WINDOW,
                on_shard=lambda s, d, t: boundaries.append(s),
                should_stop=lambda: len(boundaries) >= 2,
            )
        resumed = []
        run = _sharded(
            "lru", context, WINDOW, on_shard=lambda s, d, t: resumed.append(s)
        )
        assert resumed[0] == 2, "mangled shard 2 must be recomputed"
        assert _scalars(run) == plain
        assert not list(shards_dir().glob("*"))

    def test_raise_at_boundary_resumes(self, arm, context, plain_runs):
        plain = plain_runs("lru")
        arm("shard:raise@2")
        with pytest.raises(faults.FaultInjected):
            _sharded("lru", context, WINDOW)
        resumed = []
        run = _sharded(
            "lru", context, WINDOW, on_shard=lambda s, d, t: resumed.append(s)
        )
        assert resumed[0] == 3, "boundary 2 was committed before the crash"
        assert _scalars(run) == plain

    def test_killed_sweep_worker_resumes_mid_pair(
        self, arm, monkeypatch, plain_runs
    ):
        """SIGKILL a pool worker between windows; supervision recovers.

        The replacement worker's ``run_experiment`` finds the dead
        worker's fsync'd ledger and resumes from its last boundary —
        the end-to-end crash path the tentpole promises.
        """
        expected = {
            (WORKLOAD, s): plain_runs(s) for s in ("lru", "acic")
        }
        monkeypatch.setenv("REPRO_SHARD_WINDOW", str(WINDOW))
        monkeypatch.setenv("REPRO_NO_DISK_CACHE", "1")
        arm("shard:kill@2")
        runner = Runner(records=RECORDS, use_disk_cache=False)
        results = runner.sweep_pairs(list(expected), jobs=2)
        assert {k: _scalars(v) for k, v in results.items()} == expected
        assert not list(shards_dir().glob("*"))


class TestTraceWindow:
    def test_materializes_contiguous_copy(self, trace):
        w = trace.window(500, 1_300)
        assert len(w) == 800
        assert w.blocks.flags["C_CONTIGUOUS"] and w.blocks.flags["OWNDATA"]
        assert (w.blocks == trace.blocks[500:1_300]).all()
        assert (w.branch_site == trace.branch_site[500:1_300]).all()
        assert w.name == f"{trace.name}@w[500:1300]"
        assert w.digest != trace.digest

    @pytest.mark.parametrize("bounds", ((-1, 10), (10, 10), (0, 10**9)))
    def test_bounds_validated(self, trace, bounds):
        with pytest.raises(ValueError):
            trace.window(*bounds)

    def test_cached_trace_window_roundtrip(self, trace, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        built = cached_trace_window("k", 100, 900, trace)
        again = cached_trace_window("k", 100, 900, trace)  # sidecar hit
        assert again.digest == built.digest
        assert (tmp_path / "k.w100-900.npz").exists()
        assert (tmp_path / "k.w100-900.mmap").is_dir()
        other = cached_trace_window("k", 900, 1_700, trace)
        assert other.digest != built.digest


class TestFrontendPlanSlice:
    LO, HI = 500, 1_300

    @pytest.fixture(scope="class")
    def plan(self, trace):
        return build_plan(trace, DEFAULT_MACHINE, "fdp")

    def test_rebased_invariants(self, trace, plan):
        s = plan.slice(self.LO, self.HI)
        assert len(s) == self.HI - self.LO
        assert (np.diff(s.cum_mispredict) == s.mispredict).all()
        assert s.cum_mispredict[-1] == (
            plan.cum_mispredict[self.HI] - plan.cum_mispredict[self.LO]
        )
        # Every re-based span names the same blocks as the parent span
        # (clipped at the window edge), through the windowed trace.
        wblocks = trace.window(self.LO, self.HI).blocks_list
        pblocks = trace.blocks_list
        for i in range(len(s)):
            got = wblocks[s.cand_lo[i] : s.cand_hi[i]]
            j = self.LO + i
            want = (
                pblocks[plan.cand_lo[j] : min(plan.cand_hi[j], self.HI)]
                if plan.cand_hi[j] > plan.cand_lo[j]
                else []
            )
            assert got == want

    def test_identity_slice(self, plan):
        s = plan.slice(0, len(plan))
        assert (s.mispredict == plan.mispredict).all()
        assert (s.cand_lo == plan.cand_lo).all()
        assert (s.cand_hi == plan.cand_hi).all()
        assert s.warmup_end == plan.warmup_end
        assert s.fingerprint != plan.fingerprint  # window-marked

    def test_warmup_clipping(self, plan):
        assert plan.slice(0, self.HI).warmup_end == plan.warmup_end
        assert plan.slice(self.LO + plan.warmup_end, self.HI).warmup_end == 0

    def test_roundtrip_npz_and_mmap(self, plan, tmp_path):
        s = plan.slice(self.LO, self.HI)
        path = tmp_path / "w.npz"
        PLAN_STORE.put(path, s)
        for loaded in (PLAN_STORE.read_npz(path), PLAN_STORE.read_sidecar(path)):
            assert loaded.fingerprint == s.fingerprint
            assert loaded.warmup_end == s.warmup_end
            assert (loaded.cum_mispredict == s.cum_mispredict).all()
            assert (loaded.cand_hi == s.cand_hi).all()

    def test_bounds_validated(self, plan):
        with pytest.raises(ValueError):
            plan.slice(10, 10)


class TestEntanglingPlanSlice:
    LO, HI = 500, 1_300

    @pytest.fixture(scope="class")
    def eplan(self, trace, context):
        plan, _run = build_entangling_plan(
            trace, DEFAULT_MACHINE, make_scheme("lru", context), "lru"
        )
        return plan

    def test_rebased_invariants(self, eplan):
        s = eplan.slice(self.LO, self.HI)
        assert len(s) == self.HI - self.LO
        assert len(s.cand_blocks) == int(s.cand_hi[-1])
        for i in range(len(s)):
            assert (
                s._cand_blocks_list[s.cand_lo[i] : s.cand_hi[i]]
                == eplan._cand_blocks_list[
                    eplan.cand_lo[self.LO + i] : eplan.cand_hi[self.LO + i]
                ]
            )
        assert ((s.miss_rec >= 0) & (s.miss_rec < len(s))).all()
        in_window = (eplan.miss_rec >= self.LO) & (eplan.miss_rec < self.HI)
        assert (s.miss_rec == eplan.miss_rec[in_window] - self.LO).all()
        assert (s.miss_cycle == eplan.miss_cycle[in_window]).all()
        assert (s.ent_src == eplan.ent_src).all()
        assert len(s.base) == len(s)

    def test_roundtrip_npz_and_mmap(self, eplan, tmp_path):
        s = eplan.slice(self.LO, self.HI)
        path = tmp_path / "w.ent.npz"
        ENTANGLING_PLAN_STORE.put(path, s)
        for loaded in (
            ENTANGLING_PLAN_STORE.read_npz(path),
            ENTANGLING_PLAN_STORE.read_sidecar(path),
        ):
            assert (loaded.cand_blocks == s.cand_blocks).all()
            assert (loaded.miss_rec == s.miss_rec).all()
            assert loaded.fingerprint == s.fingerprint

    def test_bounds_validated(self, eplan):
        with pytest.raises(ValueError):
            eplan.slice(-1, 10)
