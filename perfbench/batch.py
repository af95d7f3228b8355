"""The in-process workloads: ``races_scan`` and ``hard_mhb``.

``races_scan`` is what ``repro races --feasible`` runs by default: the
serial feasible race scan, one shared planner per execution.
``hard_mhb`` asks MHB on the Theorem 1 / Theorem 3 constructions, the
case where only the exhaustive engine can answer.  Both run in this
process (there is no server to separate from a load generator), so
``peak_rss_mb`` is this process's peak, read before any reference work.

Both measure whole *passes*: a pass is a fixed shape of inputs with
fresh content (``corpus.py``), and the window closes at the first pass
boundary after ``--seconds``, so every run measures the same mix.
Their work is CPU-bound, so every time they report is scaled to the
reference CPU speed (``harness.ReferenceClock``).
"""

from __future__ import annotations

import gc
import json
import random
import time
from typing import Any, Dict, List, Tuple

import corpus
import layers
import reference
from harness import Deadline, ReferenceClock, Tally, median, quantile, vm_hwm_mb
from repro.lang.parser import parse_program
from repro.lang.interpreter import run_program
from repro.model import serialize
from repro.obs.trace import RecordingSink
from repro.races import RaceDetector
from repro.races.detector import UNKNOWN, classify_pair
from repro.reductions import event_reduction, semaphore_reduction
from repro.solve import PlannerReport, QueryPlanner, SolveContext

#: engine-only re-checks per run, by the tier that decided the pair,
#: drawn from every pair the run classified; a structural pair costs
#: the bare engine about a second (it must exhaust the search)
RECHECK = {"structural": 2, "observed": 2, "witness": 6, "exact": 6}


class _Batch:
    """Shared pass loop: ``_pass_inputs(k)`` makes pass ``k``'s inputs,
    ``_load_one`` turns one into something queryable, and ``_work``
    loads and queries (timed) each input of a pass in turn."""

    def __init__(self, seed: int, scratch: str) -> None:
        self.seed = seed
        self.scratch = scratch
        self.tally = Tally()
        self.inputs = self._pass_inputs(0)

    def setup(self, setups: ReferenceClock) -> None:
        """Load all of pass 0: one set-up sample."""
        gc.collect()  # no collector debt from the benchmark's own garbage
        setups.ready()
        t0 = time.perf_counter()
        for e in self.inputs:
            self._load_one(e)
        elapsed = time.perf_counter() - t0
        setups.add([elapsed], elapsed)
        setups.flush()

    def untraced(self, seconds: float) -> Dict[str, float]:
        # set-up is re-timed after every pass, so its median spans the
        # whole window rather than one moment of the machine's speed
        setups = ReferenceClock()
        self.setup(setups)
        clock = ReferenceClock()
        deadline = Deadline(seconds)
        inputs, k = self.inputs, 0
        while True:
            gc.collect()
            self._work(k, inputs, clock)
            clock.flush()
            k += 1
            self.setup(setups)
            if deadline.over():
                break
            inputs = self._pass_inputs(k)
        rss = vm_hwm_mb()
        self.check()
        lat = clock.samples
        print(f"  passes={k} queries={len(lat)} {self.summary()}")
        return {
            "setup_s": median(setups.samples), "peak_rss_mb": rss,
            "query_p50_ms": quantile(lat, 0.5), "query_p95_ms": quantile(lat, 0.95),
            "queries_per_s": len(lat) / clock.seconds,
        }


# ----------------------------------------------------------------------
# races_scan
# ----------------------------------------------------------------------
def _scan(exe, pair_ms: List[float], tracer=None):
    last = [0.0]

    def classified(_c) -> None:
        now = time.perf_counter()
        pair_ms.append((now - last[0]) * 1e3)
        last[0] = now

    t0 = last[0] = time.perf_counter()
    report = RaceDetector(exe).feasible_races(on_classified=classified, tracer=tracer)
    return report, time.perf_counter() - t0


def _source(entry) -> Dict[str, Any]:
    """What it takes to load ``entry`` again, kept compact (the JSON
    text, not the document or execution): the re-check reservoir holds
    these, and peak memory should not hinge on which inputs it drew."""
    return {k: entry[k] for k in ("body", "program", "sched_seed", "model")}


class RacesRun(_Batch):
    def __init__(self, seed: int, scratch: str) -> None:
        # per deciding tier, a seeded reservoir of (name, source, pair) to
        # re-check with the bare engine; nothing else is kept, so peak
        # memory does not grow with the number of passes
        self.rng = random.Random(f"recheck:{seed}")
        self.samples: Dict[str, List[Tuple[str, Any, Any]]] = {}
        self.seen: Dict[str, int] = {}
        self.tiers = PlannerReport()
        super().__init__(seed, scratch)

    def _pass_inputs(self, k: int):
        return corpus.scan_corpus(self.seed, k)

    @staticmethod
    def _load_one(e):
        """An input as ``repro races`` users provide it: a saved
        document is loaded, a program text is parsed and run."""
        if e["program"] is None:
            return serialize.execution_from_dict(e["doc"])
        return run_program(
            parse_program(e["program"]), e["sched_seed"], memory_model=e["model"]
        ).to_execution()

    def _work(self, k: int, inputs, clock: ReferenceClock, tracer=None) -> None:
        self.reports = []
        for entry in inputs:
            name = f"pass{k}/{entry['name']}"
            exe = self._load_one(entry)
            pair_ms: List[float] = []
            clock.ready()
            report, wall = _scan(exe, pair_ms, tracer)
            clock.add(pair_ms, wall)
            if tracer is not None:
                tracer.drain()
            self.reports.append(report)
            self._check_scan(name, entry, report)

    def _check_scan(self, name: str, entry, report) -> None:
        """Every reported race's witness must replay; every pair joins
        its deciding tier's re-check reservoir."""
        self.tiers.merge(report.planner)
        self.tally.attempted += len(report.classifications)
        for race in report.races:
            try:
                race.witness.validate()
            except Exception as exc:  # noqa: BLE001 - any failure is a wrong answer
                self.tally.fail(f"{name}: witness of ({race.a},{race.b}) does not replay: {exc}")
        for c in report.classifications:
            if c.status == UNKNOWN:
                self.tally.unknown += 1
                self.tally.fail(f"UNKNOWN pair ({c.a},{c.b}) on {name}")
                continue
            tier = c.decided_by or "-"
            seen = self.seen[tier] = self.seen.get(tier, 0) + 1
            keep = self.samples.setdefault(tier, [])
            if len(keep) < RECHECK.get(tier, 1):
                keep.append((name, _source(entry), c))
            else:
                slot = self.rng.randrange(seen)
                if slot < len(keep):
                    keep[slot] = (name, _source(entry), c)

    def check(self) -> None:
        """The sampled pairs must get the same classification from the
        bare engine (no cheap tiers)."""
        for tier, items in sorted(self.samples.items()):
            for name, source, c in items:
                exe = self._load_one(dict(source, doc=json.loads(source["body"])))
                bare = QueryPlanner(SolveContext(exe), ("engine",))
                ref = classify_pair(exe, c.a, c.b, planner=bare)
                if ref.status != c.status:
                    self.tally.fail(
                        f"{name}: pair ({c.a},{c.b}) scan says {c.status} "
                        f"({tier}), bare engine says {ref.status}"
                    )

    def traced(self, seconds: float) -> Dict[str, float]:
        """One untraced and one traced scan of pass 0 (a fixed slice of
        work, so the counts are exact)."""
        walls = []
        for tracer in (RecordingSink(), None):
            clock = ReferenceClock()
            self._work(0, self.inputs, clock, tracer)
            clock.flush()
            walls.append(clock.seconds)
        reports = self.reports  # the untraced pass
        self.check()
        merged = PlannerReport()
        for report in reports:
            merged.merge(report.planner)
        snap = merged.snapshot()
        pairs = sum(len(r.classifications) for r in reports)
        out = {
            "races.pairs": float(pairs),
            "races.found": float(sum(len(r.races) for r in reports)),
            "races.scan_wall_s": walls[1],
            "bench.trace_overhead_pct": (walls[0] / walls[1] - 1.0) * 100.0,
        }
        out.update(layers.tier_metrics(snap))
        out.update(layers.tier_ms(snap, pairs))
        out.update(layers.engine_metrics(snap))
        out.update(layers.probe(
            [dict(e, exe=self._load_one(e)) for e in self.inputs], self.scratch
        ))
        return out

    def shape(self) -> str:
        return corpus.describe(self.inputs)

    def summary(self) -> str:
        return "decided per tier: " + " ".join(reference.tier_shares(self.tiers.snapshot()))


# ----------------------------------------------------------------------
# hard_mhb
# ----------------------------------------------------------------------
#: pass order (``corpus.MHB_SHAPES`` lists three UNSAT semaphore, three
#: UNSAT event-variable, one SAT of each): the styles interleaved
_ORDER = (0, 3, 6, 1, 4, 2, 5, 7)


class MhbRun(_Batch):
    def _pass_inputs(self, k: int):
        instances = corpus.mhb_instances(self.seed, k)
        return [instances[i] for i in _ORDER]

    @staticmethod
    def _load_one(inst):
        """The Theorem 1 / 3 construction for one formula."""
        make = semaphore_reduction if inst["style"] == "sem" else event_reduction
        return make(inst["cnf"])

    def _work(self, k: int, inputs, clock: ReferenceClock, tracer=None,
              report: PlannerReport = None) -> None:
        for inst in inputs:
            red = self._load_one(inst)
            # one MHB query on a fresh planner, as `repro analyze --pair`
            # runs it; checked against the theorem: MHB iff UNSAT
            clock.ready()
            t0 = time.perf_counter()
            planner = QueryPlanner(SolveContext(red.execution))
            if tracer is not None:
                planner.attach_tracer(tracer)
            verdict = planner.mhb_verdict(red.a, red.b)
            elapsed = time.perf_counter() - t0
            clock.add([elapsed * 1e3], elapsed)
            if report is not None:
                report.merge(planner.report)
            if tracer is not None:
                tracer.drain()
            self.tally.attempted += 1
            if verdict.is_unknown:
                self.tally.unknown += 1
                self.tally.fail(f"UNKNOWN MHB on pass{k}/{inst['name']}")
            elif verdict.is_true != inst["unsat"]:
                self.tally.fail(
                    f"pass{k}/{inst['name']}: MHB={verdict.truth} but DPLL says "
                    f"{'UNSAT' if inst['unsat'] else 'SAT'}"
                )

    def check(self) -> None:
        pass  # every answer was checked against DPLL as it came

    def traced(self, seconds: float) -> Dict[str, float]:
        walls, reports = [], []
        for tracer in (None, RecordingSink()):
            report = PlannerReport()
            clock = ReferenceClock()
            self._work(0, self.inputs, clock, tracer, report)
            clock.flush()
            walls.append(clock.seconds)
            reports.append(report.snapshot())
        snap = reports[0]
        out = {
            "engine.mhb_wall_s": walls[0],
            "bench.trace_overhead_pct": (walls[1] / walls[0] - 1.0) * 100.0,
        }
        out.update(layers.tier_metrics(snap))
        out.update(layers.tier_ms(snap, len(self.inputs)))
        out.update(layers.engine_metrics(snap))
        exes = [self._load_one(inst).execution for inst in self.inputs]
        out.update(layers.probe(
            [{"name": inst["name"], "exe": exe,
              "doc": serialize.execution_to_dict(exe), "program": None}
             for inst, exe in zip(self.inputs, exes)],
            self.scratch,
        ))
        return out

    def shape(self) -> str:
        return "\n".join(
            f"  {i['name']:<24} style={i['style']} vars={i['cnf'].num_vars} "
            f"clauses={len(i['cnf'].clauses)} expect MHB={'TRUE' if i['unsat'] else 'FALSE'}"
            for i in self.inputs
        )

    def summary(self) -> str:
        return "decided per tier: engine=1.00"


def run(workload: str, root: str, scratch: str, seed: int, seconds: float, traced: bool):
    r = RacesRun(seed, scratch) if workload == "races_scan" else MhbRun(seed, scratch)
    print(f"corpus ({workload}, seed {seed}, pass 0):\n{r.shape()}")
    metrics = r.traced(seconds) if traced else r.untraced(seconds)
    return r.tally, metrics
