"""Direct, span-recorded calls into each layer, one workload at a time.

:func:`measure_workload` rebuilds one workload from nothing through the
program's public calls and records a span around each call:

* ``harness.context_build`` — ``Runner.context_for`` on empty caches,
  the cold context a sweep parent builds before it forks (its own
  cache directory, so the builds below are cold too);
* ``workloads.trace_build`` / ``workloads.trace_load`` — cold
  ``WorkloadProfile.trace`` then a warm reload from disk (the trace
  layer keeps no in-process memo), list materialisation included;
* ``frontend.plan_build`` / ``frontend.plan_load`` — cold
  ``cached_plan`` then a warm reload with the memo cleared;
* ``mem.oracle_build`` / ``mem.prepass_build`` — ``SchemeContext.oracle``
  and ``cached_replacement_prepass``, only when a scheme needs them;
* ``uarch.engine_floor`` / ``mem.miss_path`` — planned ``simulate`` of
  the always-hit and always-miss stubs;
* ``<module>.<scheme>.simulate`` — ``make_scheme`` plus planned
  ``simulate`` for each scheme asked for.

It returns the spans and every pair's scalars, so the caller can both
split host time by layer and check the program's own results against
these direct ones.  It runs in the benchmark process or in spawned
workers (:func:`run_direct`).
"""

from __future__ import annotations

import multiprocessing
import os
import shutil
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from pathlib import Path
from typing import Dict, List, Sequence

import numpy as np

from repro.frontend.plan import cached_plan, clear_plan_memo
from repro.harness.runner import Runner
from repro.harness.schemes import SchemeContext, make_scheme, scheme_needs_oracle
from repro.mem.prepass import (
    PREPASS_SCHEMES,
    cached_replacement_prepass,
    clear_prepass_memo,
)
from repro.uarch.params import DEFAULT_MACHINE
from repro.uarch.timing import simulate
from repro.workloads.profiles import WorkloadProfile, register_workload

from spans import Tracer
from stubs import AlwaysHitScheme, AlwaysMissScheme

#: The seven simulated scalars a pair is checked on.
SCALARS = (
    "instructions",
    "accesses",
    "cycles",
    "demand_misses",
    "late_prefetch_misses",
    "prefetches_issued",
    "mispredicted_transitions",
)

#: The module each measured scheme's lookup/fill code lives in.
SCHEME_LAYER = {
    "acic": "core",
    "lru": "mem.policies",
    "srrip": "mem.policies",
    "ship": "mem.policies",
    "harmony": "mem.policies",
    "ghrp": "mem.policies",
    "opt": "mem.policies",
    "36kb-l1i": "mem.policies",
    "dsb": "baselines",
    "obm": "baselines",
    "vc3k": "baselines",
    "vvc": "baselines",
    "opt-bypass": "baselines",
}

#: Every cache the program writes, pointed at a fresh directory per phase.
CACHE_VARS = {
    "REPRO_TRACE_CACHE": "traces",
    "REPRO_PLAN_CACHE": "plans",
    "REPRO_RESULT_CACHE": "results",
    "REPRO_SEARCH_DIR": "search",
}


def fresh_caches(base: Path) -> Path:
    """Point every cache at empty directories under ``base``.

    The plan and pre-pass memos are process-wide and keyed by content,
    so they are dropped too: otherwise a rebuilt trace would find its
    plan already in memory and the phase would not start cold.
    """
    base.mkdir(parents=True, exist_ok=False)
    for var, sub in CACHE_VARS.items():
        os.environ[var] = str(base / sub)
    clear_plan_memo()
    clear_prepass_memo()
    return base


def scalars_of(run) -> Dict[str, object]:
    return {k: getattr(run, k) for k in SCALARS}


def measure_workload(
    profile: WorkloadProfile,
    scratch: str,
    records: int,
    schemes: Sequence[str],
    traced: bool = True,
) -> dict:
    """Rebuild ``profile`` cold and simulate ``schemes`` on it directly.

    ``traced=False`` skips the stub runs and records no spans: the
    cheap form the untraced run uses to spot-check results.
    """
    register_workload(profile)  # spawned workers start with an empty registry
    tracer = Tracer(traced)
    name = profile.name
    machine = DEFAULT_MACHINE
    artifacts = f"{name}::artifacts"
    root = Path(scratch)
    try:
        if traced:
            fresh_caches(root / "context")
            with tracer.span("harness.context_build", artifacts):
                Runner(records=records).context_for(name)
        fresh_caches(root / "direct")
        with tracer.span("workloads.trace_build", artifacts):
            profile.trace(records=records)
        with tracer.span("workloads.trace_load", artifacts):
            trace = profile.trace(records=records)
            trace.blocks_list, trace.instrs_list
        with tracer.span("frontend.plan_build", artifacts):
            cached_plan(trace, machine, "fdp")
        clear_plan_memo()
        with tracer.span("frontend.plan_load", artifacts):
            plan = cached_plan(trace, machine, "fdp")
            plan.mispredict_list, plan.cand_lo_list, plan.cand_hi_list
            plan.candidate_blocks_list(trace)
        ctx = SchemeContext(trace=trace, machine=machine)
        if any(scheme_needs_oracle(s) for s in schemes):
            with tracer.span("mem.oracle_build", artifacts):
                ctx.oracle
        if set(schemes) & set(PREPASS_SCHEMES):
            with tracer.span("mem.prepass_build", artifacts):
                cached_replacement_prepass(trace)
        out = {
            "workload": name,
            "records": len(trace),
            "unique_blocks": int(np.unique(np.asarray(trace.blocks)).size),
            "mispredicted_transitions": plan.mispredicted_after_warmup(),
            "scalars": {},
        }
        if traced:
            with tracer.span("uarch.engine_floor", f"{name}::always-hit"):
                simulate(trace, AlwaysHitScheme(), machine=machine, plan=plan)
            with tracer.span("mem.miss_path", f"{name}::always-miss"):
                simulate(trace, AlwaysMissScheme(), machine=machine, plan=plan)
        for scheme in schemes:
            span = f"{SCHEME_LAYER[scheme]}.{scheme}.simulate"
            with tracer.span(span, f"{name}::{scheme}"):
                run = simulate(
                    trace, make_scheme(scheme, ctx), machine=machine, plan=plan
                )
            out["scalars"][scheme] = scalars_of(run)
            if scheme == "acic":
                live = run.scheme
                out["acic"] = {
                    "victims_considered": live.stats.victims_considered,
                    "victims_admitted": live.stats.victims_admitted,
                    "ifilter_lookups": live.ifilter.stats.lookups,
                    "ifilter_hits": live.ifilter.stats.hits,
                }
        out["spans"] = tracer.spans
        return out
    finally:
        shutil.rmtree(root, ignore_errors=True)


def run_direct(
    profiles: Sequence[WorkloadProfile],
    records: int,
    schemes: Sequence[str],
    scratch: Path,
    jobs: int,
    traced: bool = True,
) -> List[dict]:
    """:func:`measure_workload` over ``profiles``, on ``jobs`` processes.

    Workers are spawned (not forked) so they start from a fresh import,
    each with its own cache directories under ``scratch``.
    """
    task = partial(measure_workload, records=records, schemes=tuple(schemes), traced=traced)
    dirs = [str(scratch / f"direct-{i}") for i in range(len(profiles))]
    if jobs <= 1 or len(profiles) <= 1:
        return list(map(task, profiles, dirs))
    context = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=jobs, mp_context=context) as pool:
        return list(pool.map(task, profiles, dirs))
