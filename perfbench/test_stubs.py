"""The benchmark's stub schemes measure what the engine floor and miss path need.

Run with ``PYTHONPATH=src python -m pytest perfbench/test_stubs.py``.
"""

from __future__ import annotations

import pytest

from repro.frontend.plan import build_plan
from repro.harness.schemes import SchemeContext, make_scheme
from repro.uarch.params import DEFAULT_MACHINE
from repro.uarch.timing import simulate
from repro.workloads.generator import WalkParams, generate_trace
from repro.workloads.program import ProgramShape, build_program

from layers import SCALARS, scalars_of
from stubs import AlwaysHitScheme, AlwaysMissScheme


@pytest.fixture(scope="module")
def trace_and_plan():
    """A small generated trace with more code than the L1I holds."""
    shape = ProgramShape(
        hot_functions=8,
        groups=4,
        handlers_per_group=12,
        handler_size=(8, 16),
        shared_handlers=4,
        cold_functions=120,
        cold_size=(16, 32),
    )
    walk = WalkParams(target_records=8_000, phases=(3, 5), cold_phase_prob=0.4)
    trace = generate_trace(build_program(shape, seed=3), walk, seed=4, name="stubs")
    return trace, build_plan(trace, DEFAULT_MACHINE, "fdp")


def _run(trace_and_plan, scheme, **kwargs):
    trace, plan = trace_and_plan
    return simulate(trace, scheme, machine=DEFAULT_MACHINE, plan=plan, **kwargs)


@pytest.mark.parametrize("stub", [AlwaysHitScheme, AlwaysMissScheme])
def test_stub_accesses_equal_lru(trace_and_plan, stub):
    lru = _run(trace_and_plan, make_scheme("lru", SchemeContext(trace=trace_and_plan[0])))
    run = _run(trace_and_plan, stub())
    assert lru.demand_misses > 0
    assert run.accesses == lru.accesses
    assert run.instructions == lru.instructions


def test_always_hit_has_no_misses(trace_and_plan):
    run = _run(trace_and_plan, AlwaysHitScheme())
    assert run.demand_misses == 0
    assert run.late_prefetch_misses == 0
    assert run.prefetches_issued == 0


def test_always_miss_misses_every_access(trace_and_plan):
    run = _run(trace_and_plan, AlwaysMissScheme())
    assert run.demand_misses == run.accesses
    assert run.prefetches_issued > 0


@pytest.mark.parametrize("stub", [AlwaysHitScheme, AlwaysMissScheme])
def test_stub_resumes_from_checkpoint(trace_and_plan, stub):
    states = []
    whole = _run(
        trace_and_plan, stub(), checkpoint_every=2_000,
        on_checkpoint=lambda state: states.append(state),
    )
    resumed = _run(trace_and_plan, stub(), resume=states[1])
    assert scalars_of(resumed) == scalars_of(whole)
    assert set(SCALARS) <= set(scalars_of(whole))
