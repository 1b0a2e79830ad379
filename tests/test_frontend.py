"""Tests for the branch-prediction stack and prefetchers."""

import pickle
import random

import numpy as np
import pytest

from repro.common.bitops import fold_hash

from repro.frontend.branch_predictors import (
    BimodalPredictor,
    GsharePredictor,
    TagePredictor,
)
from repro.frontend.btb import BranchTargetBuffer
from repro.frontend.entangling import EntanglingPrefetcher
from repro.frontend.fdp import FetchDirectedPrefetcher, NullPrefetcher
from repro.frontend.stack import BranchStack
from repro.workloads.trace import BranchKind, Trace


def make_trace(blocks, kinds=None, sites=None):
    n = len(blocks)
    return Trace(
        name="t",
        blocks=np.asarray(blocks, dtype=np.int64),
        instrs=np.full(n, 6, dtype=np.uint8),
        branch_kind=np.asarray(kinds if kinds is not None else [0] * n, dtype=np.uint8),
        branch_site=np.asarray(sites if sites is not None else [-1] * n, dtype=np.int64),
    )


class TestBTB:
    def test_miss_then_hit(self):
        btb = BranchTargetBuffer(entries=64, ways=4)
        assert btb.predict(10) is None
        btb.update(10, 42)
        assert btb.predict(10) == 42

    def test_last_target_prediction(self):
        btb = BranchTargetBuffer(entries=64, ways=4)
        btb.update(10, 42)
        btb.update(10, 43)
        assert btb.predict(10) == 43

    def test_invalid_geometry(self):
        with pytest.raises(ValueError):
            BranchTargetBuffer(entries=100, ways=4)


class TestBimodal:
    def test_learns_bias(self):
        p = BimodalPredictor()
        for _ in range(4):
            p.update(7, True)
        assert p.predict(7)
        for _ in range(8):
            p.update(7, False)
        assert not p.predict(7)


class TestGshare:
    def test_learns_alternation(self):
        p = GsharePredictor(table_bits=10, history_bits=4)
        # Strict alternation is learnable with history, not without.
        outcome = True
        for _ in range(400):
            p.update(3, outcome)
            outcome = not outcome
        correct = 0
        for _ in range(100):
            if p.predict(3) == outcome:
                correct += 1
            p.update(3, outcome)
            outcome = not outcome
        assert correct > 90


class TestTage:
    def test_learns_strong_bias_fast(self):
        p = TagePredictor()
        for _ in range(8):
            p.update(11, True)
        assert p.predict(11)

    def test_learns_periodic_pattern(self):
        p = TagePredictor()
        pattern = [True, True, False, True, False, False]
        for rep in range(300):
            for outcome in pattern:
                p.update(5, outcome)
        correct = 0
        total = 0
        for rep in range(30):
            for outcome in pattern:
                correct += p.predict(5) == outcome
                p.update(5, outcome)
                total += 1
        assert correct / total > 0.8

    def test_save_load_roundtrip(self):
        stream = _branch_stream(seed=6, n=2_000)
        original = TagePredictor()
        for site, taken in stream[:1_200]:
            original.update(site, taken)
        state = pickle.loads(pickle.dumps(original.save_state()))
        assert "_alloc_seed" not in state
        # States saved before the dead ``_alloc_seed`` was dropped (shard
        # ledgers on disk) still load.
        legacy = dict(state, _alloc_seed=0x9E37)
        for saved in (state, legacy):
            restored = TagePredictor()
            for site, taken in _branch_stream(seed=8, n=300):
                restored.update(site, taken)
            restored.load_state(saved)
            _assert_same_state(restored, original)
            assert not hasattr(restored, "_alloc_seed")
            for site, taken in stream[1_200:]:
                assert restored.predict(site) == original.predict(site)
                restored.update(site, taken)
                original.update(site, taken)
            _assert_same_state(restored, original)
            original.load_state(state)

    def test_geometric_history_lengths(self):
        p = TagePredictor(num_tables=4, min_history=4, max_history=64)
        assert p.history_lengths[0] == 4
        assert p.history_lengths[-1] == 64
        assert all(a < b for a, b in zip(p.history_lengths, p.history_lengths[1:]))


class ReferenceTage(TagePredictor):
    """TAGE as first written: refold the GHR on every lookup, memoise nothing.

    The differential reference for :class:`TagePredictor`'s incremental
    folded histories and per-site provider memo.
    """

    def _index(self, table, site):
        folded = self._fold_history(self.history_lengths[table], self.table_bits)
        return fold_hash(site ^ (folded << 1) ^ table, self.table_bits)

    def _tag(self, table, site):
        folded = self._fold_history(self.history_lengths[table], self.tag_bits)
        return fold_hash(site ^ (folded << 3) ^ (table << 7), self.tag_bits)

    def _provider(self, site):
        for table in range(self.num_tables - 1, -1, -1):
            idx = self._index(table, site)
            entry = self.tables[table][idx]
            if entry is not None and entry.tag == self._tag(table, site):
                return table, idx, entry
        return None


#: Geometries for the differential test: the default (history lengths
#: 4/10/25/64; the 10-bit history into 10 index bits covers a fold whose
#: outgoing bit lands on bit 0), and one with histories shorter and far
#: longer than the fold widths.
TAGE_GEOMETRIES = [
    {},
    dict(num_tables=6, table_bits=7, tag_bits=8, min_history=1, max_history=300),
]


def _branch_stream(seed, n):
    """``(site, taken)`` pairs: biased, periodic and history-correlated sites."""
    rng = random.Random(seed)
    sites = [rng.randrange(1 << 24) for _ in range(40)]
    bias = {s: rng.choice((0.03, 0.5, 0.97)) for s in sites}
    period = {s: rng.choice((0, 0, 3, 5, 7)) for s in sites}
    stream, last = [], False
    for k in range(n):
        site = rng.choice(sites)
        if period[site]:
            taken = k % period[site] < period[site] // 2 + 1
        elif bias[site] == 0.5:
            taken = not last  # correlated with the previous outcome
        else:
            taken = rng.random() < bias[site]
        stream.append((site, taken))
        last = taken
    return stream


def _tables(p):
    return [
        [None if e is None else (e.tag, e.counter, e.useful) for e in table]
        for table in p.tables
    ]


def _provided(p, site):
    found = p._provider(site)
    if found is None:
        return None
    table, idx, e = found
    return table, idx, e.tag, e.counter, e.useful


def _assert_same_state(a, b):
    assert a.ghr == b.ghr
    assert _tables(a) == _tables(b)
    assert a.base.table == b.base.table
    assert a.stats == b.stats


def _assert_folds_exact(p):
    assert p._fold_idx == [
        p._fold_history(length, p.table_bits) for length in p.history_lengths
    ]
    assert p._fold_tag == [
        p._fold_history(length, p.tag_bits) for length in p.history_lengths
    ]


def _lockstep(fast, ref, stream, probe_seed):
    """Drive both through ``stream``; every prediction and fold must agree."""
    rng = random.Random(probe_seed)
    sites = [site for site, _ in stream]
    tagged = 0
    for site, taken in stream:
        probe = rng.choice(sites)
        assert fast.predict(probe) == ref.predict(probe)
        assert fast.predict(site) == ref.predict(site)
        assert _provided(fast, site) == _provided(ref, site)
        tagged += ref._provider(site) is not None
        fast.update(site, taken)
        ref.update(site, taken)
        _assert_folds_exact(fast)
        assert fast.predict(site) == ref.predict(site)
    _assert_same_state(fast, ref)
    return tagged


class TestTageIncrementalFolds:
    @pytest.mark.parametrize("geometry", TAGE_GEOMETRIES, ids=["default", "wide"])
    def test_matches_refolding_reference(self, geometry):
        fast, ref = TagePredictor(**geometry), ReferenceTage(**geometry)
        stream = _branch_stream(seed=1, n=6_000)
        tagged = _lockstep(fast, ref, stream[:3_000], probe_seed=2)

        # Mid-stream checkpoint into a predictor trained on other data.
        state = pickle.loads(pickle.dumps(fast.save_state()))
        restored = TagePredictor(**geometry)
        for site, taken in _branch_stream(seed=9, n=700):
            restored.update(site, taken)
        restored.load_state(state)
        _assert_folds_exact(restored)
        tagged += _lockstep(restored, ref, stream[3_000:], probe_seed=3)

        restored.reset()
        ref.reset()
        _assert_folds_exact(restored)
        assert restored.ghr == 0 and not restored._providers
        tagged += _lockstep(restored, ref, _branch_stream(seed=4, n=1_500), 5)
        # The tagged components must actually provide predictions, or
        # the folds were never exercised.
        assert tagged > 1_000


class TestBranchStack:
    def test_sequential_always_predictable(self):
        trace = make_trace([1, 2, 3])
        stack = BranchStack(trace)
        assert stack.predictable(1)
        assert stack.predictable(2)

    def test_returns_predictable(self):
        trace = make_trace([1, 2], kinds=[0, BranchKind.RETURN], sites=[-1, 9])
        stack = BranchStack(trace)
        assert stack.predictable(1)

    def test_unseen_call_unpredictable_then_learned(self):
        kinds = [0, BranchKind.CALL, 0, BranchKind.CALL]
        sites = [-1, 5, -1, 5]
        trace = make_trace([1, 8, 9, 8], kinds=kinds, sites=sites)
        stack = BranchStack(trace)
        assert not stack.predictable(1)  # BTB cold
        assert stack.retire(1)           # mispredicted; trains BTB
        stack.retire(2)
        assert stack.predictable(3)      # same site, same target: hit

    def test_retire_counts_mispredictions(self):
        kinds = [0, BranchKind.INDIRECT]
        trace = make_trace([1, 2], kinds=kinds, sites=[-1, 3])
        stack = BranchStack(trace)
        stack.retire(1)
        assert stack.stats.mispredicted_transitions == 1


class TestFDP:
    def test_runahead_covers_sequential_path(self):
        trace = make_trace(list(range(20)))
        stack = BranchStack(trace)
        fdp = FetchDirectedPrefetcher(trace, stack, depth=8)
        out = fdp.candidates(0)
        assert out == list(range(1, 9))

    def test_runahead_incremental_no_duplicates(self):
        trace = make_trace(list(range(20)))
        stack = BranchStack(trace)
        fdp = FetchDirectedPrefetcher(trace, stack, depth=8)
        first = fdp.candidates(0)
        second = fdp.candidates(1)
        assert set(first).isdisjoint(second)

    def test_runahead_stalls_at_cold_indirect(self):
        kinds = [0, 0, BranchKind.INDIRECT, 0]
        trace = make_trace([1, 2, 30, 31], kinds=kinds, sites=[-1, -1, 7, -1])
        stack = BranchStack(trace)
        fdp = FetchDirectedPrefetcher(trace, stack, depth=8)
        out = fdp.candidates(0)
        assert out == [2]  # stops before the unpredictable dispatch
        assert fdp.stats.runahead_stalls == 1

    def test_rearms_after_resolution(self):
        kinds = [0, BranchKind.INDIRECT, 0, 0]
        trace = make_trace([1, 30, 31, 32], kinds=kinds, sites=[-1, 7, -1, -1])
        stack = BranchStack(trace)
        fdp = FetchDirectedPrefetcher(trace, stack, depth=4)
        assert fdp.candidates(0) == []
        stack.retire(1)
        assert 31 in fdp.candidates(1)

    def test_invalid_depth(self):
        trace = make_trace([1])
        with pytest.raises(ValueError):
            FetchDirectedPrefetcher(trace, BranchStack(trace), depth=0)


class TestEntangling:
    def test_entangles_and_prefetches(self):
        blocks = [1, 2, 3, 99]
        trace = make_trace(blocks)
        pf = EntanglingPrefetcher(trace, latency_estimate=2)
        pf.observe_fetch(1, 0)
        pf.observe_fetch(2, 5)
        pf.observe_fetch(3, 10)
        pf.on_demand_miss(99, 12)  # source: earliest fetch >= 2 cycles back
        # Source should be block 1 or 2 (far enough back); fetching it
        # again prefetches 99.
        issued = []
        for i, b in enumerate(blocks):
            got = pf.candidates(i)
            issued.extend(got)
        assert 99 in issued or pf.stats.entangled == 1

    def test_dest_cap(self):
        trace = make_trace([1])
        pf = EntanglingPrefetcher(trace, dests_per_entry=2, latency_estimate=1)
        pf.observe_fetch(1, 0)
        for i, dest in enumerate((50, 51, 52)):
            pf.on_demand_miss(dest, 100 + i)
        dests = pf.table.get(1)
        assert dests is not None and len(dests) <= 2

    def test_null_prefetcher(self):
        trace = make_trace([1, 2])
        pf = NullPrefetcher(trace)
        assert pf.candidates(0) == []
