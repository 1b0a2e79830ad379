#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, every metric by name.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig11-cold --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload search-score --seed 1 --seconds 20 --trace 1

``--trace 0`` measures the end-to-end metrics listed in
``BENCHMARK.json`` with tracing off.  ``--trace 1`` runs the same timed
region with spans, then rebuilds every workload directly through the
program's public calls with a span around each call into a layer, and
prints the per-layer metrics; the spans are written to
``.perfbench/out/``.  Its tracing overhead is measured against the
untraced run of the same workload, seed and ``--seconds`` recorded
there, or against an untraced pass it makes first when there is none.  Either way the program's outputs are
checked against direct recomputation; a mismatch makes the run exit 1
with ``"correct": false``.  Every run works in fresh, empty cache
directories under ``.perfbench/tmp/`` and fails if the repository's
own ``.cache/`` changed.  The benchmark runs in a child process group,
and this script returns only once every process of it has ended.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it repeat each metric with its unit and add workload-specific detail.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import uuid  # noqa: E402
from statistics import median  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Optional  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".perfbench"

#: Fresh processes timed for ``setup_s``; the median is reported.
SETUP_SAMPLES = 5

#: Set in the supervised child, so that it (and the set-up processes
#: it starts) runs the benchmark instead of supervising again.
SUPERVISED = "PERFBENCH_SUPERVISED"

#: Seconds left processes get to end before they are killed.
REAP_GRACE_S = 10.0

PR_SET_CHILD_SUBREAPER = 36


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only", action="store_true",
        help="set the workload up, print 'ready', tear down (times setup_s)",
    )
    return parser.parse_args(argv)


def cache_snapshot() -> Dict[str, int]:
    """File list and sizes of the repository's own ``.cache/``."""
    base = ROOT / ".cache"
    return {
        str(p.relative_to(base)): p.stat().st_size
        for p in sorted(base.rglob("*")) if p.is_file()
    }


def snapshot_problems(before: Dict[str, int], after: Dict[str, int]) -> List[str]:
    changed = sorted(k for k in before.keys() | after.keys() if before.get(k) != after.get(k))
    if not changed:
        return []
    return [f"repository .cache/ changed during the run: {changed[:5]} ({len(changed)} files)"]


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def setup_samples(args: argparse.Namespace) -> List[float]:
    """Process start to workload ready, in fresh interpreters."""
    samples = []
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--setup-only",
    ]
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - t0
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if line != "ready" or code != 0:
            raise RuntimeError(f"set-up process failed (exit {code}, said {line!r})")
        samples.append(elapsed)
    return samples


def out_stem(args: argparse.Namespace, trace: int) -> str:
    return f"{args.workload}-seed{args.seed}-s{args.seconds}-trace{trace}"


def recorded_wall_s(args: argparse.Namespace) -> Optional[float]:
    """``wall_s`` of a correct untraced run of the same workload, seed and size.

    A traced run reuses it for ``trace.overhead_s`` when this checkout
    has one in ``.perfbench/out/``; otherwise it times the untraced
    region itself first.
    """
    try:
        result = json.loads((WORK / "out" / f"{out_stem(args, 0)}.json").read_text())
        return result["metrics"]["wall_s"]["value"] if result["correct"] else None
    except (OSError, ValueError, KeyError, TypeError):
        return None  # none recorded, or not a result this benchmark wrote


def geomean(values: List[float]) -> float:
    return statistics.geometric_mean(values) if values else 0.0


def per_layer_metrics(wl, out, untraced_wall_s, tracer, live) -> Dict[str, float]:
    """Per-layer metrics from the traced region and the direct pass."""
    from layers import SCHEME_LAYER

    m: Dict[str, float] = {}
    for d in wl.direct:
        tracer.adopt(d["spans"])
    total = tracer.total
    records = sum(d["records"] for d in wl.direct)
    floor = total("uarch.engine_floor")
    m["workloads.trace_build_s"] = total("workloads.trace_build")
    m["workloads.trace_load_s"] = total("workloads.trace_load")
    m["workloads.records"] = float(records)
    m["workloads.unique_blocks"] = float(sum(d["unique_blocks"] for d in wl.direct))
    m["frontend.plan_build_s"] = total("frontend.plan_build")
    m["frontend.plan_load_s"] = total("frontend.plan_load")
    m["frontend.mispredicted_transitions"] = float(
        sum(d["mispredicted_transitions"] for d in wl.direct)
    )
    m["mem.oracle_build_s"] = total("mem.oracle_build")
    m["mem.prepass_build_s"] = total("mem.prepass_build")
    m["mem.miss_path_us_per_miss"] = (
        (total("mem.miss_path") - floor) / records * 1e6 if records else 0.0
    )
    for counter in ("demand_misses", "prefetches_issued", "late_prefetch_misses"):
        m[f"mem.{counter}"] = float(
            sum(s[counter] for d in wl.direct for s in d["scalars"].values())
        )
    m["uarch.engine_floor_s"] = floor
    m["uarch.engine_floor_krec_per_s"] = records / floor / 1e3 if floor else 0.0
    marginal = {f"{layer}.{scheme}.marginal_s": 0.0 for scheme, layer in SCHEME_LAYER.items()}
    simulate_s = 0.0
    for d in wl.direct:
        own_floor = sum(
            s["end"] - s["start"] for s in d["spans"] if s["name"] == "uarch.engine_floor"
        )
        for s in d["spans"]:
            if s["name"].endswith(".simulate"):
                took = s["end"] - s["start"]
                simulate_s += took
                marginal[s["name"][: -len("simulate")] + "marginal_s"] += took - own_floor
    m["uarch.simulate_s"] = simulate_s
    m.update(marginal)
    acic = [d["acic"] for d in wl.direct if "acic" in d]
    considered = sum(a["victims_considered"] for a in acic)
    lookups = sum(a["ifilter_lookups"] for a in acic)
    m["core.acic_admission_rate"] = (
        sum(a["victims_admitted"] for a in acic) / considered if considered else 0.0
    )
    m["core.ifilter_hit_ratio"] = (
        sum(a["ifilter_hits"] for a in acic) / lookups if lookups else 0.0
    )
    m["harness.context_build_s"] = total("harness.context_build")
    artifacts = m["workloads.trace_build_s"] + m["frontend.plan_build_s"] + m["mem.oracle_build_s"]
    work = artifacts + m["mem.prepass_build_s"] + simulate_s
    m["split.artifact_share"] = artifacts / work if work else 0.0
    m["harness.sweep_residual_s"] = (
        out.wall_s - work / wl.jobs if wl.name == "fig11-cold" else 0.0
    )
    m["trace.wall_s"] = out.wall_s
    m["trace.overhead_s"] = out.wall_s - untraced_wall_s
    m.update(live)
    return m


def report(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"  {name:38s} {value!r:>24} {unit}" + (f"   ({note})" if note else ""))


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {src}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    # Knobs inherited from the caller's environment must not change what
    # is measured; each phase then points the caches at fresh directories.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    sys.path.insert(0, str(src))

    from spans import Tracer, tail
    from workloads import PAPER_ACIC_SPEEDUP, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    jobs = len(os.sched_getaffinity(0))
    scratch = WORK / "tmp" / f"{os.getpid()}-{uuid.uuid4().hex[:8]}"
    before = cache_snapshot()
    wl = WORKLOADS[args.workload](args.seed, args.seconds, scratch, jobs)
    try:
        wl.prepare()
        if args.setup_only:
            print("ready", flush=True)
            wl.close()
            return 0
        setup_self_s = time.perf_counter() - T_START
        if args.trace:
            untraced_wall_s = recorded_wall_s(args)
            untraced_source = "an earlier untraced run in .perfbench/out"
            if untraced_wall_s is None:
                untraced_wall_s = wl.timed(Tracer(False)).wall_s
                untraced_source = "an untraced pass in this run"
                wl.close()
                wl.prepare()
            tracer = Tracer(True)
            out = wl.timed(tracer)
            live = wl.live_layers(tracer, out) if not out.failed else {}
        else:
            out = wl.timed(Tracer(False))
            rss = peak_rss_mb()
        wl.close()
        problems = out.problems + wl.check(out, full=bool(args.trace))
        wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
        notes: Dict[str, str] = {}
        if args.trace:
            values = per_layer_metrics(wl, out, untraced_wall_s, tracer, live) if not out.failed else {}
        else:
            pct, op_tail = tail(out.op_s) if out.op_s else (0.0, 0.0)
            setups = setup_samples(args)
            values = {
                "setup_s": median(setups),
                "wall_s": out.wall_s,
                "op_p50_ms": median(out.op_s) * 1e3 if out.op_s else 0.0,
                "op_tail_ms": op_tail * 1e3,
                "peak_rss_mb": rss,
                "acic_speedup_gmean": geomean(out.speedups),
            }
            notes = {
                "setup_s": f"median of {len(setups)} fresh processes",
                "op_tail_ms": f"p{pct:.1f}, n={len(out.op_s)}",
                "op_p50_ms": f"n={len(out.op_s)}",
                "acic_speedup_gmean": (
                    f"simulated; n={len(out.speedups)}; paper {PAPER_ACIC_SPEEDUP}"
                ),
            }
            out.details["failed_share"] = (out.failed / out.attempted, "ratio", "")
            out.details["setup_self_s"] = (setup_self_s, "s", "this process, imports included")
        problems += snapshot_problems(before, cache_snapshot())
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    metrics = {}
    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace} jobs={jobs}")
    for m in wanted:
        if m["name"] not in values:
            problems.append(f"metric {m['name']} was not measured")
            continue
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        report(m["name"], values[m["name"]], m["unit"], notes.get(m["name"], ""))
    for name, (value, unit, note) in out.details.items():
        report(name, value, unit, note)
    if args.trace:
        print(f"# trace.overhead_s is against wall_s {untraced_wall_s!r} from {untraced_source}")
        selfs = tracer.self_times()
        print("# self time by span name (s)")
        for name in sorted(selfs, key=selfs.get, reverse=True):
            report(name, selfs[name], "s")
    for error in out.errors[:5]:
        print(f"# failed operation: {error}")
    for problem in problems[:20]:
        print(f"! {problem}")
    out_dir = WORK / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = out_stem(args, args.trace)
    if args.trace:
        tracer.write(out_dir / f"{stem}.spans.jsonl")
    result = {
        "correct": not problems,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }
    (out_dir / f"{stem}.json").write_text(json.dumps(
        dict(result, details={k: v[0] for k, v in out.details.items()},
             problems=problems), indent=1))
    print(json.dumps(result))
    return 0 if not problems else 1


def become_subreaper() -> None:
    """Adopt orphaned descendants, so that they can be waited for (Linux)."""
    import ctypes

    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return  # the process-group check in reap() still applies
    prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                      ctypes.c_ulong, ctypes.c_ulong]
    prctl.restype = ctypes.c_int
    prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)


def reap(pgid: int) -> None:
    """Wait until no process of group ``pgid`` is left, killing stragglers.

    Adopted descendants are reaped as they end; any process of the
    group still there after :data:`REAP_GRACE_S` is sent SIGKILL.
    """
    deadline = time.monotonic() + REAP_GRACE_S
    killed = False
    while True:
        try:
            while os.waitpid(-1, os.WNOHANG)[0]:
                pass
        except ChildProcessError:
            pass  # nothing adopted (left)
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        if time.monotonic() > deadline:
            if killed:
                print(f"perfbench: processes of group {pgid} did not end",
                      file=sys.stderr)
                return
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                return
            killed = True
            deadline = time.monotonic() + REAP_GRACE_S
        time.sleep(0.01)


def supervise(argv: List[str]) -> int:
    """Run the benchmark in a child process group and outlive all of it.

    Helpers that pools start, such as multiprocessing's resource
    tracker, end only after the process that started them has.  As a
    child subreaper this process inherits them when the benchmark
    exits, and it returns only once every process of the benchmark's
    group has ended, on every path out, signals included.
    """
    become_subreaper()
    child = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), *argv],
        env=dict(os.environ, **{SUPERVISED: "1"}),
        start_new_session=True,
    )

    def end() -> None:
        reap(child.pid)
        # A killed child leaves its scratch caches (named by its pid).
        for scratch in (WORK / "tmp").glob(f"{child.pid}-*"):
            shutil.rmtree(scratch, ignore_errors=True)

    def stop(signum: int, _frame) -> None:
        # end() waits for the child too: Popen.wait is not reentrant.
        try:
            os.killpg(child.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        end()
        sys.exit(128 + signum)

    for signum in (signal.SIGTERM, signal.SIGINT, signal.SIGHUP):
        signal.signal(signum, stop)
    code = child.wait()
    end()
    return code if code >= 0 else 1


if __name__ == "__main__":
    if os.environ.get(SUPERVISED):
        sys.exit(main(sys.argv[1:]))
    sys.exit(supervise(sys.argv[1:]))
