"""Shared plumbing: metric tables, percentiles, peak memory, results.

The metric tables below are the benchmark's single definition of what
it reports; ``manifest.py`` checks that ``BENCHMARK.json`` lists
exactly these names, units and directions.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: end-to-end metrics (untraced runs): name -> (unit, better, bound).
#: The in-process workloads' times are scaled to a reference CPU speed
#: (``ReferenceClock``); serve_hot's are wall times, set mostly by the
#: query pool's 20 ms poll.  Set-up (launching a daemon, or a few tens
#: of ms of loading) spreads most and gets the widest bound.  The
#: in-process peak memory moves with which search of the run is the
#: largest (spread about 0.07 over ten seeds on races_scan); the
#: daemon's barely moves (0.01).
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "query_p50_ms": ("ms", "lower", 0.25),
    "query_p95_ms": ("ms", "lower", 0.25),
    "queries_per_s": ("1/s", "higher", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.15),
}

TIERS = ("structural", "observed", "witness", "hmw", "engine")

#: per-layer metrics (traced runs): name -> (unit, better)
PER_LAYER = {
    "serve.overhead_ms": ("ms", "lower"),
    "admission.wait_ms": ("ms", "lower"),
    "admission.rejected": ("count", "lower"),
    "store.read_ms": ("ms", "lower"),
    "store.put_ms": ("ms", "lower"),
    "store.flush_ms": ("ms", "lower"),
    "store.bytes_per_execution": ("bytes", "lower"),
    "pool.roundtrip_ms": ("ms", "lower"),
    "pool.ipc_ms": ("ms", "lower"),
    "pool.first_query_ms": ("ms", "lower"),
    "model.load_ms": ("ms", "lower"),
    "model.fingerprint_ms": ("ms", "lower"),
    "memmodel.po_pairs_ms.sc": ("ms", "lower"),
    "memmodel.po_pairs_ms.tso": ("ms", "lower"),
    "lang.parse_ms": ("ms", "lower"),
    "lang.interpret_ms": ("ms", "lower"),
    "context.build_ms": ("ms", "lower"),
    **{f"planner.{t}.answered": ("count", "higher") for t in TIERS[:-1]},
    "planner.engine.answered": ("count", "lower"),
    **{f"planner.{t}.ms": ("ms", "lower") for t in TIERS},
    "engine.states": ("count", "lower"),
    "engine.us_per_state": ("us", "lower"),
    "races.pairs": ("count", "higher"),
    "races.found": ("count", "higher"),
    "races.scan_wall_s": ("s", "lower"),
    "engine.mhb_wall_s": ("s", "lower"),
    "serve.phase_crosscheck_pct": ("%", "lower"),
    "bench.trace_overhead_pct": ("%", "lower"),
    "bench.failed_share": ("ratio", "lower"),
    "bench.unknown_share": ("ratio", "lower"),
}

#: per-layer metrics that are exact, repeatable counts: for one seed
#: they come out identical on every run and machine, because each is
#: taken over a fixed, seed-determined slice of work (never over "what
#: fit in --seconds"), so a later change may cite them as counts
EXACT_COUNTS = (
    "engine.states",
    *(f"planner.{t}.answered" for t in TIERS),
    "races.pairs",
    "races.found",
    "store.bytes_per_execution",
)


def quantile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0 < q < 1) by linear interpolation between
    order statistics; a single sample is its own quantile."""
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        return float(values[0])
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("no samples")
    return float(statistics.median(values))


def vm_hwm_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (VmHWM) of one process, in MB; 0 if gone."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    try:
        with open(path) as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _processes():
    """``(pid, state, ppid, pgid)`` of every process (Linux ``/proc``)."""
    for name in os.listdir("/proc"):
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        # the command name may hold spaces: fields resume after ")"
        state, ppid, pgid = stat.rsplit(")", 1)[1].split()[:3]
        yield int(name), state, int(ppid), int(pgid)


def group_running(pgid: int) -> bool:
    """Whether any process of group ``pgid`` has not exited yet (a
    zombie has exited; only its parent's reaping is outstanding)."""
    return any(g == pgid and state != "Z" for _, state, _, g in _processes())


def descendants(root: int) -> List[int]:
    """``root`` and every live process below it."""
    children: Dict[int, List[int]] = {}
    for pid, _, ppid, _ in _processes():
        children.setdefault(ppid, []).append(pid)
    out, todo = [], [root]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo.extend(children.get(pid, ()))
    return out


#: speed probe rounds per second that count as the reference CPU: about
#: the median rate of a 2-core Xeon at 2.1 GHz (the machine the
#: benchmark was sized on) -- the in-process workloads report their
#: times as they would read on a CPU that probes this fast
REFERENCE_RATE = 5000.0
#: seconds one speed probe runs
PROBE_SECONDS = 0.02
#: timed work between two speed probes, at least (seconds)
SEGMENT_SECONDS = 0.25


def probe_rate() -> float:
    """Rounds per second of a fixed pure-Python loop (dict reads and
    writes, the interpreter work the program itself mostly does) over
    ``PROBE_SECONDS``: how fast this CPU runs the program's kind of code
    right now, contention from other tenants included."""
    t0 = time.perf_counter()
    n = 0
    while True:
        d: Dict[int, int] = {}
        for i in range(2000):
            d[i & 63] = d.get(i & 63, 0) + i
        n += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= PROBE_SECONDS:
            return n / elapsed


class ReferenceClock:
    """Wall times of in-process, CPU-bound work, scaled to the reference
    CPU speed.

    On a shared host the CPU's speed drifts by up to 1.5x over a minute
    and by more between seconds, so raw wall times of CPU-bound work
    differ between runs by more than any bound could allow.  This clock
    probes the speed (``probe_rate``) before and after each segment of
    at least ``SEGMENT_SECONDS`` of timed work, and scales the segment's
    times by the mean of the two rates over ``REFERENCE_RATE``: a time
    reads as it would on the reference CPU.  The probes run outside the
    timed work.  A change to the program moves the scaled times as it
    moves wall time; only the host's speed is divided out.

    Use: ``ready()`` right before each timed unit and ``add(samples,
    seconds)`` right after it, where ``samples`` is a list of raw times
    (any unit) and ``seconds`` the unit's raw wall time; ``flush()`` at
    the end.  Scaled samples go to
    ``self.samples`` and scaled seconds add up in ``self.seconds``.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self.seconds = 0.0
        self._pending: List[Tuple[List[float], float]] = []
        self._pending_seconds = 0.0
        self._rate = probe_rate()
        self._probed = time.perf_counter()

    def ready(self) -> None:
        """Call right before a timed unit: a new segment starts with a
        fresh probe unless the last one has only just ended."""
        if not self._pending and time.perf_counter() - self._probed > PROBE_SECONDS:
            self._rate = probe_rate()
            self._probed = time.perf_counter()

    def add(self, samples: Sequence[float], seconds: float) -> None:
        self._pending.append((list(samples), seconds))
        self._pending_seconds += seconds
        if self._pending_seconds >= SEGMENT_SECONDS:
            self.flush()

    def flush(self) -> None:
        if not self._pending:
            return
        rate = probe_rate()
        self._probed = time.perf_counter()
        scale = (self._rate + rate) / 2.0 / REFERENCE_RATE
        self._rate = rate
        for samples, seconds in self._pending:
            self.samples.extend(s * scale for s in samples)
            self.seconds += seconds * scale
        self._pending.clear()
        self._pending_seconds = 0.0


class Deadline:
    """A measurement window of ``seconds`` starting now."""

    def __init__(self, seconds: float) -> None:
        self.t0 = time.perf_counter()
        self.end = self.t0 + seconds

    def over(self) -> bool:
        return time.perf_counter() >= self.end


class Tally:
    """Operation accounting shared by every workload.

    ``failed`` counts operations that were refused, timed out, errored
    or disagreed with the reference; ``unknown`` counts explicit
    ``UNKNOWN`` answers (every workload is sized so that none occur, so
    they are failures too).
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.unknown = 0
        self.notes: List[str] = []

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(why)


def emit_result(tally: Tally, metrics: Dict[str, float], table: Dict) -> None:
    """Print the one-line JSON result (the last line of stdout)."""
    missing = sorted(set(table) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not measured: {', '.join(missing)}")
    for note in tally.notes:
        print(f"failed: {note}")
    doc = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": table[name][0]}
            for name in table
        },
    }
    print(json.dumps(doc), flush=True)


def print_metrics(metrics: Dict[str, float], table: Dict, counts: Iterable[str] = ()) -> None:
    """Human-readable listing: every metric by name with its unit."""
    exact = set(counts)
    for name in table:
        mark = "  (exact count)" if name in exact else ""
        print(f"  {name:<30} {metrics[name]:>14.4f} {table[name][0]}{mark}")
