"""In-process reference answers, computed outside every timed region.

The serve workloads are checked against a fresh in-process
``QueryPlanner`` per execution (the daemon's workers run the same
planner behind HTTP, admission, the store and the pool, so any
disagreement is a serving bug).  The same pass over a workload's fixed
query list yields the exact per-tier counts the traced run reports.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Iterable, List

from repro.races.detector import classify_pair
from repro.solve import PlannerReport, QueryPlanner, SolveContext


def answer(planner: QueryPlanner, q: Dict[str, Any]) -> str:
    """The verdict string the daemon returns for query ``q``."""
    relation = q["relation"]
    if relation == "race":
        return classify_pair(planner.ctx.exe, q["a"], q["b"], planner=planner).status
    if relation == "feasible":
        return str(planner.feasible_verdict().truth)
    return str(getattr(planner, f"{relation}_verdict")(q["a"], q["b"]).truth)


def annotate(queries: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Set ``q["expected"]`` on every query, in order, with one fresh
    planner per execution; returns the merged tier report snapshot and
    the pass's wall time."""
    planners: Dict[str, QueryPlanner] = {}
    report = PlannerReport()
    t0 = time.perf_counter()
    for q in queries:
        entry = q["entry"]
        planner = planners.get(entry["name"])
        if planner is None:
            planner = planners[entry["name"]] = QueryPlanner(SolveContext(entry["exe"]))
        q["expected"] = answer(planner, q)
    elapsed = time.perf_counter() - t0
    for planner in planners.values():
        report.merge(planner.report)
    return {"report": report.snapshot(), "elapsed": elapsed}


def verdict_of(body: Any) -> str:
    """The verdict a ``POST /query`` response carries (``""`` if none)."""
    if isinstance(body, dict):
        return str(body.get("verdict") or "")
    return ""


def is_unknown(verdict: str) -> bool:
    return verdict.upper() == "UNKNOWN"


def tier_shares(report: Dict[str, Any]) -> List[str]:
    """``tier=share`` of the answers in a report snapshot."""
    tiers = report.get("tiers", {})
    total = sum(t["answered"] for t in tiers.values()) or 1
    return [
        f"{name}={tiers[name]['answered'] / total:.2f}"
        for name in sorted(tiers) if tiers[name]["answered"]
    ]
