"""Tests for the synthetic program model, walker, traces and profiles."""

import numpy as np
import pytest

from repro.workloads.generator import WalkParams, generate_trace
from repro.workloads.profiles import (
    ALL_WORKLOADS,
    DATACENTER_WORKLOADS,
    SPEC_WORKLOADS,
    get_workload,
)
from repro.workloads.program import (
    OP_CALL,
    ProgramShape,
    build_program,
    return_site,
)
from repro.workloads.trace import TRACE_STORE, BranchKind, Trace, validate_trace

SHAPE = ProgramShape(
    hot_functions=8,
    groups=2,
    handlers_per_group=6,
    handler_size=(4, 10),
    shared_handlers=4,
    cold_functions=30,
    cold_size=(8, 16),
)
WALK = WalkParams(target_records=6_000, phases=(3, 5), cold_phase_prob=0.3)


class TestProgramBuilder:
    def test_deterministic(self):
        a = build_program(SHAPE, seed=5)
        b = build_program(SHAPE, seed=5)
        assert [f.base_block for f in a.functions] == [
            f.base_block for f in b.functions
        ]
        assert a.total_blocks == b.total_blocks

    def test_different_seeds_differ(self):
        a = build_program(SHAPE, seed=5)
        b = build_program(SHAPE, seed=6)
        assert a.total_blocks != b.total_blocks or any(
            fa.n_blocks != fb.n_blocks for fa, fb in zip(a.functions, b.functions)
        )

    def test_block_ranges_disjoint_and_contiguous(self):
        program = build_program(SHAPE, seed=1)
        expected_base = 0
        for f in program.functions:
            assert f.base_block == expected_base
            expected_base += f.n_blocks

    def test_call_graph_is_acyclic(self):
        """Calls only target hot/shared leaves or deeper group members."""
        program = build_program(SHAPE, seed=2)
        hot = set(program.hot_ids)
        shared = set(program.shared_ids)
        member_rank = {}
        for group in program.groups:
            for rank, fid in enumerate(group.members):
                member_rank[fid] = (group.gid, rank)
        for f in program.functions:
            for op in f.ops.values():
                if op.kind != OP_CALL:
                    continue
                callee = op.callee
                if callee in hot or callee in shared:
                    continue
                assert f.fid in member_rank, "only members may call members"
                gid, rank = member_rank[f.fid]
                callee_gid, callee_rank = member_rank[callee]
                assert callee_gid == gid and callee_rank > rank

    def test_hot_functions_are_leaves(self):
        program = build_program(SHAPE, seed=2)
        for fid in program.hot_ids:
            ops = program.functions[fid].ops
            assert all(op.kind != OP_CALL for op in ops.values())

    def test_cold_functions_are_leaves(self):
        program = build_program(SHAPE, seed=2)
        for fid in program.cold_ids:
            ops = program.functions[fid].ops
            assert all(op.kind != OP_CALL for op in ops.values())

    def test_return_site_namespace(self):
        assert return_site(3) == (3 << 12) | 0xFFF

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ProgramShape(groups=0)
        with pytest.raises(ValueError):
            ProgramShape(roots_per_group=99, handlers_per_group=2)
        with pytest.raises(ValueError):
            ProgramShape(handler_size=(10, 5))


class TestWalker:
    @pytest.fixture(scope="class")
    def trace(self):
        program = build_program(SHAPE, seed=1)
        return generate_trace(program, WALK, seed=2, name="walk-test")

    def test_structurally_valid(self, trace):
        assert validate_trace(trace) == []

    def test_reaches_target_length(self, trace):
        assert len(trace) >= WALK.target_records

    def test_deterministic(self):
        program = build_program(SHAPE, seed=1)
        a = generate_trace(program, WALK, seed=2)
        b = generate_trace(program, WALK, seed=2)
        assert np.array_equal(a.blocks, b.blocks)
        assert np.array_equal(a.branch_kind, b.branch_kind)

    def test_blocks_belong_to_program(self, trace):
        program = build_program(SHAPE, seed=1)
        assert trace.blocks.max() < program.total_blocks
        assert trace.blocks.min() >= 0

    def test_contains_dispatch_indirects(self, trace):
        kinds = trace.branch_kind
        assert (kinds == BranchKind.INDIRECT).sum() > 0
        assert (kinds == BranchKind.CALL).sum() > 0
        assert (kinds == BranchKind.RETURN).sum() > 0

    def test_cold_stream_present(self, trace):
        program = build_program(SHAPE, seed=1)
        cold_blocks = set()
        for fid in program.cold_ids:
            cold_blocks.update(program.functions[fid].blocks)
        touched = set(np.unique(trace.blocks).tolist())
        assert touched & cold_blocks

    def test_distance_zero_mass_dominates(self, trace):
        same = (trace.blocks[1:] == trace.blocks[:-1]).mean()
        assert same > 0.6

    def test_walk_params_validation(self):
        with pytest.raises(ValueError):
            WalkParams(target_records=0)
        with pytest.raises(ValueError):
            WalkParams(request_self_transition=1.0)
        with pytest.raises(ValueError):
            WalkParams(phases=(5, 3))
        with pytest.raises(ValueError):
            WalkParams(member_zipf=0.5)
        with pytest.raises(ValueError):
            WalkParams(cold_phase_prob=1.5)


class TestTraceContainer:
    def test_total_instructions(self):
        t = Trace(
            name="t",
            blocks=np.array([1, 2], dtype=np.int64),
            instrs=np.array([6, 4], dtype=np.uint8),
            branch_kind=np.zeros(2, dtype=np.uint8),
            branch_site=np.full(2, -1, dtype=np.int64),
        )
        assert t.total_instructions == 10
        assert t.mpki_of(1) == pytest.approx(100.0)

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            Trace(
                name="t",
                blocks=np.array([1, 2], dtype=np.int64),
                instrs=np.array([6], dtype=np.uint8),
                branch_kind=np.zeros(2, dtype=np.uint8),
                branch_site=np.full(2, -1, dtype=np.int64),
            )

    def test_save_load_roundtrip(self, tmp_path):
        program = build_program(SHAPE, seed=1)
        trace = generate_trace(program, WALK, seed=2, name="roundtrip")
        path = tmp_path / "trace.npz"
        TRACE_STORE.put(path, trace)
        loaded = TRACE_STORE.read_npz(path)
        assert loaded.name == "roundtrip"
        assert np.array_equal(loaded.blocks, trace.blocks)
        assert np.array_equal(loaded.branch_site, trace.branch_site)

    def test_slice(self):
        program = build_program(SHAPE, seed=1)
        trace = generate_trace(program, WALK, seed=2)
        part = trace.slice(10, 20)
        assert len(part) == 10
        assert np.array_equal(part.blocks, trace.blocks[10:20])


class TestProfiles:
    def test_counts(self):
        assert len(DATACENTER_WORKLOADS) == 10
        assert len(SPEC_WORKLOADS) == 5
        assert len(ALL_WORKLOADS) == 15

    def test_paper_mpki_recorded(self):
        assert ALL_WORKLOADS["media-streaming"].paper_mpki == pytest.approx(81.2)
        assert ALL_WORKLOADS["web-search"].paper_mpki == pytest.approx(151.5)

    def test_unknown_workload_raises(self):
        with pytest.raises(KeyError, match="unknown workload"):
            get_workload("nope")

    def test_trace_builds_and_caches(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE_CACHE", str(tmp_path))
        profile = get_workload("x264")
        first = profile.trace(records=3000)
        assert validate_trace(first) == []
        # Second call loads from the cache file.
        second = profile.trace(records=3000)
        assert np.array_equal(first.blocks, second.blocks)
        assert any(tmp_path.iterdir())

    @pytest.mark.parametrize("name", sorted(ALL_WORKLOADS))
    def test_every_profile_generates_valid_trace(self, name):
        trace = get_workload(name).trace(records=4000)
        assert validate_trace(trace) == []
        assert trace.unique_blocks > 50
