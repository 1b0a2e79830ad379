"""The benchmark's three workloads.

Each workload builds its inputs from the benchmark seed as seeded
copies of the program's own profiles, registered with
``register_workload`` under new names, so the program only ever sees
generated inputs.  Its life is ``prepare`` (fresh empty caches,
registration, ``Runner``/``ServiceThread`` ready: the set-up the
``setup_s`` metric times), ``timed`` (the measured region), ``check``
(the program's outputs against direct recomputation) and ``close``.

Why these three, and what each loads and bypasses, is in
``WORKLOADS.md`` beside this file.
"""

from __future__ import annotations

import itertools
import json
import random
import statistics
import threading
import time
from statistics import median
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.harness.runner import Runner
from repro.harness.scoring import (
    SCORE_SCHEMES,
    acic_share_of_opt,
    average_share,
    score_profile,
)
from repro.service.client import ServiceClient, ServiceError
from repro.service.protocol import pair_token
from repro.service.server import ServiceConfig, ServiceThread
from repro.uarch.params import DEFAULT_MACHINE
from repro.uarch.timing import RunResult
from repro.workloads.profiles import DATACENTER_WORKLOADS, register_workload
from repro.workloads.search.strategies import FIG11_SPACE

from layers import SCALARS, fresh_caches, run_direct, scalars_of
from spans import Tracer, tail

#: LRU plus the Figure 10/11 comparison schemes (the ``SCHEMES`` tuple of
#: ``benchmarks/test_fig10_speedup.py``).
FIG11_SCHEMES = (
    "lru", "srrip", "ship", "harmony", "ghrp", "dsb", "obm", "vvc",
    "vc3k", "acic", "36kb-l1i", "opt", "opt-bypass",
)

#: Paper values the simulated metrics are printed against.
PAPER_ACIC_OPT_SHARE = 0.5585
PAPER_ACIC_SPEEDUP = 1.0223


@dataclass
class Outcome:
    """What one timed region measured."""

    wall_s: float
    op_s: List[float]
    attempted: int
    failed: int
    #: Simulated ACIC-over-LRU speedup of every workload the region ran.
    speedups: List[float]
    #: Extra report lines: name -> (value, unit, note).
    details: Dict[str, Tuple[float, str, str]] = field(default_factory=dict)
    #: Wrong outputs: any of these fails the run.
    problems: List[str] = field(default_factory=list)
    #: Why operations failed (they count in ``failed``, not as wrong output).
    errors: List[str] = field(default_factory=list)


def compare(label: str, got: Dict[str, object], want: Dict[str, object]) -> List[str]:
    """Problems where ``got`` differs from ``want`` on the seven scalars."""
    diff = [k for k in SCALARS if got.get(k) != want.get(k)]
    if not diff:
        return []
    return [
        f"{label}: " + ", ".join(f"{k} {got.get(k)!r} != {want.get(k)!r}" for k in diff)
    ]


def run_result(name: str, scheme: str, scalars: Dict[str, object]) -> RunResult:
    return RunResult(
        workload=name, scheme_name=scheme, prefetcher_name="fdp",
        **{k: scalars[k] for k in SCALARS},
    )


def lru_mpki_err_pct(pairs: Sequence[Tuple[float, float]]) -> float:
    """Mean |measured - paper| / paper over (measured, paper) MPKI pairs, in %."""
    return 100.0 * statistics.fmean(abs(m - p) / p for m, p in pairs)


class Workload:
    name = ""
    records = 0

    def __init__(self, seed: int, seconds: int, scratch: Path, jobs: int) -> None:
        self.seed = seed
        self.scratch = scratch
        self.jobs = jobs
        self._phases = itertools.count()
        #: Direct-pass results of the last full check (traced runs).
        self.direct: List[dict] = []

    def fresh(self, label: str) -> Path:
        return fresh_caches(self.scratch / f"{next(self._phases)}-{label}")

    def prepare(self) -> None:
        raise NotImplementedError

    def timed(self, tracer: Tracer) -> Outcome:
        raise NotImplementedError

    def check(self, out: Outcome, full: bool) -> List[str]:
        raise NotImplementedError

    def live_layers(self, tracer: Tracer, out: Outcome) -> Dict[str, float]:
        """Per-layer numbers read from the live program after a traced region.

        Only the service workload loads the service layer; the others
        report its metrics as 0.
        """
        return {
            "harness.pairs_simulated": float(self.pairs_simulated()),
            "harness.result_hit_ms": result_hit_ms(self.runner, self.warm_pair()),
            **{name: 0.0 for name in SERVICE_LAYER_METRICS},
        }

    def close(self) -> None:
        pass


SERVICE_LAYER_METRICS = (
    "service.healthz_p50_ms",
    "service.warm_minus_floor_ms",
    "service.admitted",
    "service.warm",
    "service.joined",
    "service.rejected",
    "service.join_ratio",
    "split.service_warm_share",
)


def result_hit_ms(runner: Runner, pair: Tuple[str, str]) -> float:
    """Median per-call time of ``Runner.cached`` on an entry held in memory."""
    runner.cached(*pair)  # a disk hit the first time; memory from then on
    batches = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(1000):
            runner.cached(*pair)
        batches.append((time.perf_counter() - t0) / 1000)
    return median(batches) * 1e3


class Fig11Cold(Workload):
    """The ten Table III workloads x the Fig 11 schemes, one cold grid."""

    name = "fig11-cold"
    records = 160_000

    def __init__(self, seed: int, seconds: int, scratch: Path, jobs: int) -> None:
        super().__init__(seed, seconds, scratch, jobs)
        # Seed 0 keeps every profile's committed seed, so that run can be
        # checked against the committed .cache/results entries.
        self.bases = list(DATACENTER_WORKLOADS.values())
        self.profiles = [
            replace(p, name=f"{p.name}.s{seed}", seed=p.seed + 100 * seed)
            for p in self.bases
        ]
        self.pairs = [(p.name, s) for p in self.profiles for s in FIG11_SCHEMES]

    def prepare(self) -> None:
        self.fresh("fig11")
        for p in self.profiles:
            register_workload(p)
        self.runner = Runner(records=self.records)

    def timed(self, tracer: Tracer) -> Outcome:
        stamps: List[float] = []
        results: Dict[Tuple[str, str], RunResult] = {}
        problems: List[str] = []
        with tracer.span("harness.sweep", self.name) as sweep_id:
            start = time.perf_counter()

            def on_result(workload: str, scheme: str, result: RunResult) -> None:
                now = time.perf_counter()
                tracer.record(
                    "harness.pair_gap", stamps[-1] if stamps else start, now,
                    parent=sweep_id, op=f"{workload}::{scheme}",
                )
                stamps.append(now)

            try:
                results = self.runner.sweep_pairs(
                    self.pairs, jobs=self.jobs, on_result=on_result
                )
            except Exception as exc:  # the run reports it; no retry
                problems.append(f"sweep failed: {type(exc).__name__}: {exc}")
            wall = time.perf_counter() - start
        self.results = results
        self.stamps = stamps
        # A pair's time is the span of ``jobs`` consecutive callback gaps:
        # with N workers busy, each one completes a pair per N completions,
        # whatever the phase between the workers' finishing times.
        times = [start] + stamps
        out = Outcome(
            wall_s=wall,
            op_s=[b - a for a, b in zip(times, times[self.jobs:])],
            attempted=len(self.pairs),
            failed=len(self.pairs) - len(results),
            speedups=[],
            problems=problems,
        )
        if results:
            names = [p.name for p in self.profiles]
            out.speedups = [
                results[(w, "lru")].cycles / results[(w, "acic")].cycles
                for w in names
            ]
            share, _cards = average_share(self.runner, names)
            out.details["acic_opt_share"] = (
                share, "ratio",
                f"simulated; grid of average reductions; paper {PAPER_ACIC_OPT_SHARE}",
            )
            out.details["lru_mpki_err_pct"] = (
                lru_mpki_err_pct([
                    (results[(p.name, "lru")].mpki, b.paper_mpki)
                    for p, b in zip(self.profiles, self.bases)
                ]),
                "%",
                "error against the paper's reported Table III MPKI, "
                "not against hardware (the model is unvalidated)",
            )
        return out

    def check(self, out: Outcome, full: bool) -> List[str]:
        if out.failed:
            return []  # already reported by the timed region
        problems = []
        if len(self.stamps) != len(self.pairs):
            problems.append(
                f"{len(self.stamps)} pairs simulated on a cold run, "
                f"{len(self.pairs)} requested"
            )
        for p in self.profiles:
            first = scalars_of(self.results[(p.name, "lru")])
            for scheme in FIG11_SCHEMES:
                got = scalars_of(self.results[(p.name, scheme)])
                for k in ("instructions", "accesses", "mispredicted_transitions"):
                    if got[k] != first[k]:
                        problems.append(f"{p.name}::{scheme}: {k} differs from lru's")
        if self.seed == 0:
            problems += self.check_committed()
        if full:
            self.direct = run_direct(
                self.profiles, self.records, FIG11_SCHEMES,
                self.scratch / "direct", self.jobs,
            )
            checked = self.direct
        else:
            rng = random.Random(self.seed)
            a, b = rng.sample(self.profiles, 2)
            checked = run_direct(
                [a], self.records,
                (rng.choice(("ghrp", "harmony")), "acic"),
                self.scratch / "spot-a", 1, traced=False,
            ) + run_direct(
                [b], self.records,
                (rng.choice(("opt", "opt-bypass")),
                 rng.choice(("lru", "srrip", "ship", "dsb", "obm", "vvc", "vc3k",
                             "36kb-l1i"))),
                self.scratch / "spot-b", 1, traced=False,
            )
        for d in checked:
            for scheme, want in d["scalars"].items():
                got = scalars_of(self.results[(d["workload"], scheme)])
                problems += compare(f"{d['workload']}::{scheme} sweep vs direct", got, want)
        return problems

    def pairs_simulated(self) -> int:
        return len(self.stamps)

    def warm_pair(self) -> Tuple[str, str]:
        return self.pairs[0]

    def check_committed(self) -> List[str]:
        """At the committed seeds, every pair must equal .cache/results."""
        problems = []
        results_dir = Path(__file__).resolve().parents[1] / ".cache" / "results"
        fingerprint = DEFAULT_MACHINE.fingerprint()
        for p, base in zip(self.profiles, self.bases):
            for scheme in FIG11_SCHEMES:
                path = results_dir / (
                    f"{base.name}.{scheme}.fdp.r{self.records}.{fingerprint}.json"
                )
                try:
                    want = json.loads(path.read_text())
                except FileNotFoundError:
                    problems.append(f"committed result missing: {path.name}")
                    continue
                problems += compare(
                    f"{base.name}::{scheme} vs committed",
                    scalars_of(self.results[(p.name, scheme)]), want,
                )
        return problems


class SearchScore(Workload):
    """Search candidates scored on three trace seeds each, serially."""

    name = "search-score"
    records = 80_000
    trace_seeds = 3
    #: Host seconds one candidate's three scores take (sizes the run).
    seconds_per_candidate = 2.5
    #: The candidate shapes are one fixed draw, so that every benchmark
    #: seed scores the same amount of work and run-to-run spread measures
    #: the program rather than the draw; the benchmark seed picks each
    #: candidate's three trace seeds.  This draw's footprints fall on
    #: both sides of the 512-block L1I.
    draw_seed = 1

    def __init__(self, seed: int, seconds: int, scratch: Path, jobs: int) -> None:
        super().__init__(seed, seconds, scratch, jobs)
        candidates = max(2, round(seconds / self.seconds_per_candidate))
        self.profiles = []
        for i in range(candidates):
            spec = FIG11_SPACE.sample(self.draw_seed, i)
            base = spec.build()
            for j in range(self.trace_seeds):
                trace_seed = 1000 * (self.trace_seeds * seed + j) + i
                self.profiles.append(
                    replace(base, name=f"{spec.workload_name}.t{trace_seed}",
                            seed=trace_seed)
                )

    def prepare(self) -> None:
        self.fresh("search")
        for p in self.profiles:
            register_workload(p)
        self.runner = Runner(records=self.records)

    def timed(self, tracer: Tracer) -> Outcome:
        self.cards = {}
        ops = []
        problems = []
        start = time.perf_counter()
        for p in self.profiles:
            with tracer.span("harness.score", p.name):
                t0 = time.perf_counter()
                try:
                    self.cards[p.name] = score_profile(self.runner, p)
                except Exception as exc:  # counted as a failed operation
                    problems.append(f"score {p.name}: {type(exc).__name__}: {exc}")
                    continue
                ops.append(time.perf_counter() - t0)
        wall = time.perf_counter() - start
        names = list(self.cards)
        out = Outcome(
            wall_s=wall,
            op_s=ops,
            attempted=len(self.profiles),
            failed=len(self.profiles) - len(names),
            speedups=[self.runner.speedup(w, "acic") for w in names],
            problems=problems,
        )
        if names:
            share, _cards = average_share(self.runner, names)
            out.details["acic_opt_share"] = (
                share, "ratio",
                f"simulated; drawn candidates, not Table III; paper {PAPER_ACIC_OPT_SHARE}",
            )
        return out

    def pairs_simulated(self) -> int:
        return len(SCORE_SCHEMES) * len(self.cards)

    def warm_pair(self) -> Tuple[str, str]:
        return (next(iter(self.cards)), "lru")

    def check(self, out: Outcome, full: bool) -> List[str]:
        if out.failed:
            return []
        if full:
            profiles = self.profiles
        else:
            i = random.Random(self.seed).randrange(len(self.profiles) // self.trace_seeds)
            profiles = self.profiles[i * self.trace_seeds:(i + 1) * self.trace_seeds]
        direct = run_direct(
            profiles, self.records, SCORE_SCHEMES, self.scratch / "direct",
            self.jobs if full else 1, traced=full,
        )
        if full:
            self.direct = direct
        problems = []
        for d in direct:
            name = d["workload"]
            runs = {s: run_result(name, s, d["scalars"][s]) for s in SCORE_SCHEMES}
            for s, run in runs.items():
                problems += compare(
                    f"{name}::{s} runner vs direct",
                    scalars_of(self.runner.run(name, s)), scalars_of(run),
                )
            reductions = {
                s: runs[s].mpki_reduction_over(runs["lru"])
                for s in SCORE_SCHEMES if s != "lru"
            }
            card = self.cards[name]
            want = (runs["lru"].mpki, reductions, acic_share_of_opt(reductions))
            got = (card.baseline_mpki, dict(card.reductions), card.share)
            if got != want:
                problems.append(f"{name}: score card {got} != direct {want}")
        return problems


@dataclass(frozen=True)
class Request:
    kind: str  # "cold" or "warm"
    grid: Tuple[str, ...]


class ServiceMix(Workload):
    """Two closed-loop clients against an in-process sweep service.

    The run is a sequence of rounds that both clients start together.
    In most rounds one client (alternating) requests a cold grid of two
    fresh workloads and then repeats served grids, while the other
    client repeats served grids during that simulation; in a seeded 30%
    of rounds both request the same cold grid at once, so admission
    joins them.  Either way about nine warm repeats go with each cold
    grid, and the other client's repeats overlap the cold simulation.
    """

    name = "service-mix"
    records = 20_000
    schemes = SCORE_SCHEMES
    warm_per_cold = 9
    join_share = 0.3
    #: Rounds per second of run (sizes the run).
    rounds_per_second = 2.5

    def __init__(self, seed: int, seconds: int, scratch: Path, jobs: int) -> None:
        super().__init__(seed, seconds, scratch, jobs)
        self.clients = jobs
        rng = random.Random(seed)
        bases = list(DATACENTER_WORKLOADS.values())
        self.bases: Dict[str, object] = {}
        self.profiles = []
        serial = itertools.count()

        def fresh_grid() -> Tuple[str, ...]:
            names = []
            for _ in range(2):
                # Bases in a fixed rotation, so every seed simulates the
                # same mix of Table III shapes; the seed sets the traces.
                k = next(serial)
                base = bases[k % len(bases)]
                p = replace(base, name=f"{base.name}.m{seed}-{k}",
                            seed=base.seed + 1000 * (k + 1) + 1_000_000 * seed)
                self.profiles.append(p)
                self.bases[p.name] = base
                names.append(p.name)
            return tuple(names)

        rounds = max(2, round(seconds * self.rounds_per_second))
        # Round 0 is joined, so every later round has a served grid to repeat.
        joined = {0} | set(rng.sample(range(1, rounds), round(rounds * self.join_share) - 1))
        #: Per client, per round: the requests it sends in that round.
        self.rounds: List[List[List[Request]]] = [[] for _ in range(self.clients)]
        served: List[Tuple[str, ...]] = []
        for r in range(rounds):
            grid = fresh_grid()
            cold = range(self.clients) if r in joined else (r % self.clients,)
            warm_left = self.warm_per_cold
            for c in range(self.clients):
                reqs = [Request("cold", grid)] if c in cold else []
                share = -(-warm_left // (self.clients - c))  # ceil: split the rest
                reqs += [Request("warm", rng.choice(served or [grid])) for _ in range(share)]
                warm_left -= share
                self.rounds[c].append(reqs)
            served.append(grid)
        self.grids = list(served)

    def prepare(self) -> None:
        self.fresh("service")
        for p in self.profiles:
            register_workload(p)
        self.service = ServiceThread(ServiceConfig()).start()
        self.client = ServiceClient(port=self.service.port, retries=0)

    def close(self) -> None:
        self.service.stop()

    def timed(self, tracer: Tracer) -> Outcome:
        barrier = threading.Barrier(self.clients)
        #: (client, index) -> (request, latency_s, response or None)
        self.log: Dict[Tuple[int, int], Tuple[Request, float, Optional[dict]]] = {}
        errors: List[str] = []

        def client_loop(c: int) -> None:
            client = ServiceClient(port=self.service.port, retries=0)
            i = 0
            try:
                for reqs in self.rounds[c]:
                    barrier.wait(timeout=120)
                    for req in reqs:
                        with tracer.span("service.request", f"c{c}-{i}"):
                            t0 = time.perf_counter()
                            try:
                                response = client.sweep(
                                    req.grid, self.schemes, records=self.records
                                )
                            except (ServiceError, OSError) as exc:
                                errors.append(f"client {c} request {i}: {exc}")
                                response = None
                            self.log[(c, i)] = (req, time.perf_counter() - t0, response)
                        i += 1
            except threading.BrokenBarrierError:
                errors.append(f"client {c}: the other client stopped early")
            finally:
                barrier.abort()  # never leave the other client waiting

        threads = [
            threading.Thread(target=client_loop, args=(c,), name=f"bench-client-{c}")
            for c in range(self.clients)
        ]
        start = time.perf_counter()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=170)
        wall = time.perf_counter() - start
        if any(t.is_alive() for t in threads):
            errors.append("a client did not finish")
        self.stats = self.client.health()["stats"]

        attempted = sum(len(reqs) for rounds in self.rounds for reqs in rounds)
        done = [(req, lat, resp) for req, lat, resp in self.log.values() if resp is not None]
        out = Outcome(
            wall_s=wall,
            op_s=[lat for _req, lat, _resp in done],
            attempted=attempted,
            failed=attempted - len(done),
            speedups=[],
            problems=[],
        )
        for kind in ("warm", "cold"):
            lats = [lat * 1e3 for req, lat, _resp in done if req.kind == kind]
            if lats:
                pct, value = tail(lats)
                out.details[f"{kind}_p50_ms"] = (median(lats), "ms", f"n={len(lats)}")
                out.details[f"{kind}_tail_ms"] = (value, "ms", f"p{pct:.1f}, n={len(lats)}")
        out.errors = errors
        # The first response per grid is the reference every repeat must match.
        self.responses: Dict[Tuple[str, ...], dict] = {}
        for (c, i) in sorted(self.log):
            req, _lat, resp = self.log[(c, i)]
            if resp is not None:
                self.responses.setdefault(req.grid, resp["results"])
        runs = {}
        for grid, results in self.responses.items():
            for w in grid:
                runs[w] = {s: run_result(w, s, results[pair_token(w, s)]) for s in self.schemes}
        out.speedups = [r["acic"].speedup_over(r["lru"]) for r in runs.values()]
        if runs:
            avg = {
                s: statistics.fmean(r[s].mpki_reduction_over(r["lru"]) for r in runs.values())
                for s in ("acic", "opt")
            }
            out.details["acic_opt_share"] = (
                acic_share_of_opt(avg), "ratio",
                f"simulated at r={self.records}; paper {PAPER_ACIC_OPT_SHARE}",
            )
            out.details["lru_mpki_err_pct"] = (
                lru_mpki_err_pct([(r["lru"].mpki, self.bases[w].paper_mpki)
                                  for w, r in runs.items()]),
                "%",
                f"at r={self.records} against the paper's Table III MPKI; "
                "model unvalidated against hardware",
            )
        return out

    def live_layers(self, tracer: Tracer, out: Outcome) -> Dict[str, float]:
        for i in range(200):
            with tracer.span("service.healthz", f"healthz-{i}"):
                self.client.health()
        floor_ms = median(tracer.durations("service.healthz")) * 1e3
        warm_ms = out.details["warm_p50_ms"][0]
        grid = next(iter(self.responses))
        hit_ms = result_hit_ms(Runner(records=self.records), (grid[0], "lru"))
        stats = self.stats
        joined, admitted = stats["dedup_hits"], stats["admitted"]
        pairs_per_grid = len(grid) * len(self.schemes)
        return {
            "harness.pairs_simulated": float(admitted),
            "harness.result_hit_ms": hit_ms,
            "service.healthz_p50_ms": floor_ms,
            "service.warm_minus_floor_ms": warm_ms - floor_ms,
            "service.admitted": float(admitted),
            "service.warm": float(stats["warm_hits"]),
            "service.joined": float(joined),
            "service.rejected": float(stats["rejected"]),
            "service.join_ratio": joined / (joined + admitted) if joined + admitted else 0.0,
            "split.service_warm_share": 1.0 - pairs_per_grid * hit_ms / warm_ms,
        }

    def check(self, out: Outcome, full: bool) -> List[str]:
        problems = []
        for (c, i), (req, _lat, resp) in sorted(self.log.items()):
            if resp is None:
                continue
            if resp["results"] != self.responses[req.grid]:
                problems.append(f"client {c} request {i}: differs from the first answer")
            if req.kind == "warm" and set(resp["sources"].values()) != {"warm"}:
                problems.append(f"client {c} request {i}: repeat was not served warm")
        grids = [g for g in self.grids if g in self.responses]
        if full:
            sample = random.Random(self.seed).sample(self.profiles, min(4, len(self.profiles)))
            self.direct = run_direct(
                sample, self.records, self.schemes, self.scratch / "direct", self.jobs
            )
        else:
            grids = random.Random(self.seed).sample(grids, min(2, len(grids)))
        self.fresh("verify")
        runner = Runner(records=self.records)
        pairs = [(w, s) for g in grids for w in g for s in self.schemes]
        direct = runner.sweep_pairs(pairs, jobs=self.jobs if full else 1)
        for grid in grids:
            for w in grid:
                for s in self.schemes:
                    problems += compare(
                        f"{w}::{s} service vs direct Runner",
                        self.responses[grid][pair_token(w, s)],
                        scalars_of(direct[(w, s)]),
                    )
        return problems


WORKLOADS = {w.name: w for w in (Fig11Cold, SearchScore, ServiceMix)}
