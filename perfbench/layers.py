"""Per-layer probes: time each layer's public functions on a workload's
own inputs, from the benchmark's code (traced runs only).

Each probe calls one layer directly -- ``model`` (load, fingerprint),
``memmodel`` (program-order constraints), ``lang`` (parse, interpret),
``solve.context`` (build) and ``serve.store`` (put, flush, bytes on
disk) -- so a change to one layer shows in that layer's number even
when the end-to-end metrics hide it.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from typing import Any, Dict, List

from harness import TIERS, median
from repro.lang.interpreter import run_program
from repro.lang.parser import parse_program
from repro.memmodel import SC, TSO, po_constraint_pairs
from repro.model import serialize
from repro.serve.store import WitnessStore
from repro.solve import SolveContext

#: timed repetitions per input; the metric is the median
REPEATS = 3


def _timed(fn, *args) -> float:
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return median(times) * 1e3


def _po_pairs(exe, model) -> None:
    by_proc: Dict[str, List[Any]] = {}
    for e in exe.events:
        by_proc.setdefault(e.process, []).append(e)
    for events in by_proc.values():
        po_constraint_pairs(sorted(events, key=lambda e: e.index), model)


def _dir_bytes(path: str) -> int:
    return sum(
        os.path.getsize(os.path.join(dirpath, name))
        for dirpath, _, names in os.walk(path) for name in names
    )


def probe(entries: List[Dict[str, Any]], scratch: str) -> Dict[str, float]:
    """Median per-input cost of each layer over ``entries`` (each with
    ``doc`` and ``exe``; ``program``/``sched_seed`` when it came from a
    program text)."""
    out: Dict[str, List[float]] = {k: [] for k in (
        "model.load_ms", "model.fingerprint_ms", "memmodel.po_pairs_ms.sc",
        "memmodel.po_pairs_ms.tso", "context.build_ms", "store.put_ms",
        "store.flush_ms", "store.bytes_per_execution",
        "lang.parse_ms", "lang.interpret_ms",
    )}
    root = tempfile.mkdtemp(prefix="store-", dir=scratch)
    try:
        store = WitnessStore(root)
        for e in entries:
            exe, doc = e["exe"], e["doc"]
            out["model.load_ms"].append(_timed(serialize.execution_from_dict, doc))
            out["model.fingerprint_ms"].append(_timed(serialize.execution_fingerprint, exe))
            out["memmodel.po_pairs_ms.sc"].append(_timed(_po_pairs, exe, SC))
            out["memmodel.po_pairs_ms.tso"].append(_timed(_po_pairs, exe, TSO))
            out["context.build_ms"].append(_timed(SolveContext, exe))
            t0 = time.perf_counter()
            fp = store.put_execution(exe)  # durable execution.json
            out["store.put_ms"].append((time.perf_counter() - t0) * 1e3)
            t0 = time.perf_counter()
            store.flush()  # durable witnesses.json (the observed schedule)
            out["store.flush_ms"].append((time.perf_counter() - t0) * 1e3)
            out["store.bytes_per_execution"].append(_dir_bytes(os.path.join(root, fp)))
            if e.get("program"):
                text, sched, model = e["program"], e["sched_seed"], e["model"]
                out["lang.parse_ms"].append(_timed(parse_program, text))
                program = parse_program(text)
                out["lang.interpret_ms"].append(
                    _timed(lambda: run_program(program, sched, memory_model=model).to_execution())
                )
    finally:
        shutil.rmtree(root, ignore_errors=True)
    return {k: (median(v) if v else 0.0) for k, v in out.items()}


def tier_metrics(report: Dict[str, Any]) -> Dict[str, float]:
    """``planner.<tier>.answered`` from a report snapshot."""
    tiers = report.get("tiers", {})
    return {
        f"planner.{t}.answered": float(tiers.get(t, {}).get("answered", 0))
        for t in TIERS
    }


def tier_ms(report: Dict[str, Any], queries: int) -> Dict[str, float]:
    """``planner.<tier>.ms``: tier time (answers and declines) per query."""
    tiers = report.get("tiers", {})
    return {
        f"planner.{t}.ms": tiers.get(t, {}).get("elapsed", 0.0) * 1e3 / max(1, queries)
        for t in TIERS
    }


def engine_metrics(report: Dict[str, Any]) -> Dict[str, float]:
    eng = report.get("tiers", {}).get("engine", {})
    states = int(eng.get("states", 0))
    per_state = eng.get("elapsed", 0.0) * 1e6 / states if states else 0.0
    return {"engine.states": float(states), "engine.us_per_state": per_state}
