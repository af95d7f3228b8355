"""Seeded inputs for the workloads.

Every input is derived from the workload seed alone, and the *shape*
of each workload -- execution sizes, memory models, query kinds and
their proportions, formula sizes and SAT/UNSAT counts -- is fixed
across seeds.  The seed only changes content, so two seeds load the
same layers about equally and a metric's spread across seeds measures
the system, not the draw.  The program sees only the generated
documents, program texts and formulas, never the seed.
"""

from __future__ import annotations

import json
import random
from typing import Any, Dict, List, Tuple

from repro.lang.unparse import unparse_program
from repro.lang.parser import parse_program
from repro.lang.interpreter import run_program
from repro.model import serialize
from repro.sat import solve as sat_solve
from repro.sat.generators import random_ksat
from repro.workloads import (
    figure1_execution,
    pipeline_program,
    producer_consumer_program,
    random_computation_overlay,
    readers_writers_program,
    work_queue_program,
)

#: relations a serve query may ask, in the proportions a corpus uses
PAIR_RELATIONS = ("mhb", "ccw", "chb", "race")

#: the store-buffering litmus: the one program whose race exists only
#: under TSO
STORE_BUFFERING = """\
proc A {
  x := 1 @aw
  $t := y @ar
}
proc B {
  y := 2 @bw
  x := 2 @bx
}
"""


def _rng(seed: int, stream: str) -> random.Random:
    return random.Random(f"{stream}:{seed}")


def _overlay(processes: int, per_process: int, seed: int, model: str, *, shared_vars: int = 4):
    exe = random_computation_overlay(
        processes=processes,
        events_per_process=per_process,
        semaphores=2,
        shared_vars=shared_vars,
        seed=seed,
    )
    return exe if model == "sc" else exe.with_memory_model(model)


def program_execution(text: str, sched_seed: int, model: str):
    """The lang path a user takes: parse the text, run it under a
    seeded scheduler, capture the execution."""
    return run_program(
        parse_program(text), sched_seed, memory_model=model
    ).to_execution()


def entry(name: str, exe, *, program: str = None, sched_seed: int = 0) -> Dict[str, Any]:
    doc = serialize.execution_to_dict(exe)
    return {
        "name": name,
        "doc": doc,
        "body": json.dumps(doc).encode(),
        "events": len(exe.events),
        "model": exe.memory_model,
        "program": program,
        "sched_seed": sched_seed,
        "exe": exe,
    }


def _pair_queries(e, rng: random.Random, count: int) -> List[Dict[str, Any]]:
    pairs = e["exe"].conflicting_pairs()
    out = []
    for i in range(count):
        a, b = pairs[rng.randrange(len(pairs))]
        out.append(
            {"entry": e, "relation": PAIR_RELATIONS[i % len(PAIR_RELATIONS)],
             "a": a, "b": b}
        )
    return out


# ----------------------------------------------------------------------
# serve_hot: a small stored corpus that fits a worker's planner cache
# ----------------------------------------------------------------------
def hot_corpus(seed: int) -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]]]:
    """Eight executions (figure 1, four overlays with |E| = 128 -- one
    of them TSO -- and three captured programs) plus a shuffled list of
    96 queries: 12 pair queries per overlay and program, 4 on figure 1,
    and one ``feasible`` per execution."""
    rng = _rng(seed, "hot")
    entries = [entry("figure1", figure1_execution())]
    for i, model in enumerate(("sc", "sc", "sc", "tso")):
        exe = _overlay(4, 32, rng.randrange(1 << 30), model)
        entries.append(entry(f"overlay{i}", exe))
    programs = (
        ("producer_consumer", producer_consumer_program(items=4)),
        ("work_queue", work_queue_program(items=6, workers=3)),
        ("pipeline", pipeline_program(stages=5)),
    )
    for name, prog in programs:
        text = unparse_program(prog)
        sched = rng.randrange(1 << 30)
        entries.append(
            entry(name, program_execution(text, sched, "sc"),
                   program=text, sched_seed=sched)
        )
    queries: List[Dict[str, Any]] = []
    for e in entries:
        count = 4 if e["name"] == "figure1" else 12
        queries += _pair_queries(e, rng, count)
        queries.append({"entry": e, "relation": "feasible", "a": None, "b": None})
    rng.shuffle(queries)
    return entries, queries


# ----------------------------------------------------------------------
# races_scan: overlays plus captured programs under sc and tso
# ----------------------------------------------------------------------
#: (processes, events per process) of a pass's overlays: four of |E|
#: 160, one size, so a pass's cost does not hinge on which size drew a
#: deep search.  One overlay's scan cost varies by about 15% (coefficient
#: of variation) with its content, and by 20-35% at |E| 192-224, so many
#: mid-sized overlays per run (about 40) average the draw where a few
#: large ones (about 16 of |E| 224) left the run-to-run spread at 0.15
SCAN_OVERLAYS = ((5, 32),) * 4
#: shared variables of the scan overlays: with 8, about 11% of the
#: pairs reach the engine (4% with 4), so the per-pair 95th percentile
#: lies inside the engine's cost class instead of on the boundary
#: between the witness and engine classes, where it jumped 2x between
#: seeds
SCAN_SHARED_VARS = 8


def scan_corpus(seed: int, pass_no: int = 0) -> List[Dict[str, Any]]:
    """One pass of the scan: four overlay documents (|E| 160, SC) and
    five program texts, each captured under both ``sc`` and
    ``tso`` (ten executions).  An entry carries either a ``doc`` to
    load or a ``program`` to parse and run -- the two ingest paths a
    ``repro races`` user has.  Every pass draws new content."""
    rng = _rng(seed, f"scan{pass_no}")
    out = []
    for i, (procs, per) in enumerate(SCAN_OVERLAYS):
        exe = _overlay(procs, per, rng.randrange(1 << 30), "sc", shared_vars=SCAN_SHARED_VARS)
        out.append(entry(f"overlay{i}", exe))
    programs = (
        ("producer_consumer", unparse_program(producer_consumer_program(items=5))),
        ("work_queue", unparse_program(work_queue_program(items=8, workers=3))),
        ("pipeline", unparse_program(pipeline_program(stages=6))),
        ("readers_writers", unparse_program(readers_writers_program(readers=3, writes=2))),
        ("store_buffering", STORE_BUFFERING),
    )
    for name, text in programs:
        sched = rng.randrange(1 << 30)
        for model in ("sc", "tso"):
            exe = program_execution(text, sched, model)
            out.append(entry(f"{name}.{model}", exe, program=text, sched_seed=sched))
    return out


# ----------------------------------------------------------------------
# hard_mhb: Theorem 1 / Theorem 3 reductions of seeded 3CNF formulas
# ----------------------------------------------------------------------
#: (style, variables, clauses, satisfiable, how many); mostly UNSAT --
#: the exhaustive case, whose cost is nearly constant per size -- and a
#: few SAT, whose witness search ends early.  Three of each UNSAT style
#: put the median inside the cheaper style's cost and the 95th
#: percentile well inside the dearer one's, not at its maximum.  With 3
#: variables (about 2,600 and 4,300 states per UNSAT search) a run asks
#: about 160 queries, so the 95th percentile has about eight beyond it;
#: with 4 variables and 18 clauses (9,500 and 25,000 states) a run asked
#: 32, and the percentile rested on one or two
MHB_SHAPES = (
    ("sem", 3, 14, False, 3),
    ("evt", 3, 14, False, 3),
    ("sem", 3, 14, True, 1),
    ("evt", 3, 14, True, 1),
)


def mhb_instances(seed: int, pass_no: int = 0) -> List[Dict[str, Any]]:
    """One pass: formulas drawn until each shape's SAT/UNSAT quota is
    met; the repo's DPLL decides which is which, outside any timed
    region.  Every pass draws new formulas."""
    rng = _rng(seed, f"mhb{pass_no}")
    out = []
    for style, nvars, nclauses, sat, count in MHB_SHAPES:
        found = 0
        while found < count:
            cnf = random_ksat(nvars, nclauses, seed=rng.randrange(1 << 30))
            if (sat_solve(cnf) is not None) != sat:
                continue
            out.append(
                {"name": f"{style}({nvars},{nclauses}).{'sat' if sat else 'unsat'}{found}",
                 "style": style, "cnf": cnf, "unsat": not sat,
                 "events": None, "model": "sc"}
            )
            found += 1
    return out


def describe(entries: List[Dict[str, Any]]) -> str:
    """One line per input: name, |E| and memory model."""
    return "\n".join(
        f"  {e['name']:<24} |E|={e['events']!s:<5} model={e['model']}" for e in entries
    )
