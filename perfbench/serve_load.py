"""The serve workload: a closed loop of two keep-alive clients against
a ``repro serve --workers 2`` process, over a stored corpus.

Closed loop: each client sends its next request only after the
previous response has fully arrived, so the offered load adapts to the
daemon (two requests in flight at most, never a growing backlog).  The
load generator is this process; the daemon, its pool and its workers
are other processes, so this process's GIL is not what gets measured.
"""

from __future__ import annotations

import json
import os
import tempfile
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

import corpus
import layers
import reference
from daemonctl import Client, Daemon, phase_sums, query_body
from harness import Deadline, Tally, median, quantile
from repro.model import serialize

#: per-query budget sent with every query (the workload is sized so
#: that every answer is definite well inside it)
QUERY_TIMEOUT = 20.0
#: client-side socket timeout: a wedged daemon costs one failed
#: operation per client after this long, then the run ends
CLIENT_TIMEOUT = 30.0
#: setup repetitions per untraced run; setup_s is their median
SETUP_REPEATS = 3
#: every N-th operation re-posts an already stored execution, as a
#: client does that cannot know whether the store still holds it
REPOST_EVERY = 4
#: keep-alive clients: at set-up one first query per worker, at once;
#: then the measured closed loop
CLIENTS = 2


class Op:
    """One completed client operation."""

    __slots__ = ("kind", "rid", "status", "body", "seconds", "query")

    def __init__(self, kind, rid, status, body, seconds, query=None):
        self.kind, self.rid, self.status = kind, rid, status
        self.body, self.seconds, self.query = body, seconds, query


class ServeRun:
    def __init__(self, root: str, scratch: str, seed: int) -> None:
        self.root = root
        self.scratch = scratch
        self.tally = Tally()
        self.fps: Dict[str, str] = {}
        self.entries, self.queries = corpus.hot_corpus(seed)
        self.ref = reference.annotate(self.queries)

    # -- checks ----------------------------------------------------------
    def _check_put(self, op: Op, entry: Dict[str, Any]) -> None:
        self.tally.attempted += 1
        if op.status != 200:
            self.tally.fail(f"POST /executions {entry['name']}: {op.status} {op.body!r:.200}")
            return
        want = serialize.execution_fingerprint(entry["exe"])
        if op.body.get("fingerprint") != want:
            self.tally.fail(f"{entry['name']}: fingerprint {op.body.get('fingerprint')} != {want}")

    def _check_query(self, op: Op) -> None:
        self.tally.attempted += 1
        q = op.query
        if op.status != 200:
            self.tally.fail(f"query {q['relation']} on {q['entry']['name']}: {op.status} {op.body!r:.200}")
            return
        got = reference.verdict_of(op.body)
        if reference.is_unknown(got):
            self.tally.unknown += 1
            self.tally.fail(f"UNKNOWN {q['relation']}({q['a']},{q['b']}) on {q['entry']['name']}")
        elif got != q["expected"]:
            self.tally.fail(
                f"{q['relation']}({q['a']},{q['b']}) on {q['entry']['name']}: "
                f"daemon says {got}, reference says {q['expected']}"
            )

    # -- setup -------------------------------------------------------------
    def setup(self, *, trace: Optional[str] = None) -> Tuple[Daemon, List[Client], float, float]:
        """Launch, store the warm-up corpus, and get a first answer from
        each worker; returns the daemon, its clients, setup seconds and
        the slower of the two first answers (cold workers) in ms."""
        store = tempfile.mkdtemp(prefix="store-", dir=self.scratch)
        t0 = time.perf_counter()
        daemon = Daemon(self.root, store, trace=trace)
        clients = [daemon.client(CLIENT_TIMEOUT) for _ in range(CLIENTS)]
        for entry in self.entries:
            op = Op("post", "", *clients[0].call("POST", "/executions", entry["body"]))
            self._check_put(op, entry)
            if op.status == 200:
                self.fps[entry["name"]] = op.body["fingerprint"]
        # one query per client at once: both cold workers take one each
        firsts: List[Op] = [None] * CLIENTS

        def first(i: int) -> None:
            q = self.queries[i]
            fp = self.fps.get(q["entry"]["name"], "")
            firsts[i] = Op("query", "", *clients[i].call(
                "POST", "/query", query_body(q, fp, QUERY_TIMEOUT)), query=q)

        threads = [threading.Thread(target=first, args=(i,)) for i in range(CLIENTS)]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        setup_s = time.perf_counter() - t0
        for op in firsts:
            self._check_query(op)
        return daemon, clients, setup_s, max(op.seconds for op in firsts) * 1e3

    # -- the closed loop ---------------------------------------------------
    def _ops(self, cid: int, deadline: Deadline):
        ops = self.queries
        i = cid * len(ops) // CLIENTS
        n = 0
        while not deadline.over():
            n += 1
            if n % REPOST_EVERY == 0:
                yield ("post", self.entries[(n // REPOST_EVERY) % len(self.entries)])
            else:
                yield ("query", ops[i % len(ops)])
                i += 1

    def loop(self, clients: List[Client], seconds: float, tag: str) -> Tuple[List[Op], float]:
        """Run the loop's clients until the window closes; returns every
        completed operation and the window's length in seconds."""
        records: List[List[Op]] = [[] for _ in clients]
        deadline = Deadline(seconds)
        ends = [deadline.t0] * len(clients)

        def run(cid: int) -> None:
            client = clients[cid]
            n = 0
            for kind, item in self._ops(cid, deadline):
                n += 1
                rid = f"{tag}-c{cid}-{n}"
                if kind == "post":
                    op = Op(kind, rid, *client.call("POST", "/executions", item["body"], rid))
                    op.query = item
                    if op.status == 200:
                        self.fps[item["name"]] = op.body["fingerprint"]
                else:
                    fp = self.fps.get(item["entry"]["name"], "")
                    op = Op(kind, rid, *client.call(
                        "POST", "/query", query_body(item, fp, QUERY_TIMEOUT), rid), query=item)
                records[cid].append(op)
                ends[cid] = time.perf_counter()

        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(clients))]
        for th in threads:
            th.start()
        for th in threads:
            th.join()
        window = max(ends) - deadline.t0
        return [op for ops in records for op in ops], window

    def check(self, ops: List[Op]) -> None:
        for op in ops:
            if op.kind == "post":
                self._check_put(op, op.query)
            else:
                self._check_query(op)

    # -- runs --------------------------------------------------------------
    def untraced(self, seconds: float) -> Dict[str, float]:
        setups = []
        for rep in range(SETUP_REPEATS):
            daemon, clients, setup_s, _ = self.setup()
            setups.append(setup_s)
            if rep == SETUP_REPEATS - 1 or self.tally.failed:
                break  # a failing daemon is not launched again
            self._close(daemon, clients)
        try:
            ops, window = self.loop(clients, seconds, "run")
            rss = daemon.peak_rss_mb()
        finally:
            self._close(daemon, clients)
        self.check(ops)
        return {"setup_s": median(setups), "peak_rss_mb": rss, **_latency(ops, window)}

    def traced(self, seconds: float) -> Dict[str, float]:
        # segment 1: untraced, for the tracing-overhead comparison
        daemon, clients, _, _ = self.setup()
        try:
            ops, window = self.loop(clients, seconds / 2, "plain")
        finally:
            self._close(daemon, clients)
        self.check(ops)
        plain_qps = _latency(ops, window)["queries_per_s"]
        # segment 2: the daemon writes its request spans to a trace
        trace = os.path.join(tempfile.mkdtemp(prefix="trace-", dir=self.scratch), "serve.jsonl")
        daemon, clients, _, first_ms = self.setup(trace=trace)
        try:
            ops, window = self.loop(clients, seconds / 2, "traced")
            status, metrics_text, _ = clients[0].call("GET", "/metrics")
            _, status_doc, _ = clients[0].call("GET", "/status")
        finally:
            self._close(daemon, clients, drain=True)
        self.check(ops)
        traced_qps = _latency(ops, window)["queries_per_s"]
        spans = _read_spans(trace)
        out = _span_metrics(ops, spans)
        out["pool.first_query_ms"] = first_ms
        out["admission.rejected"] = float(
            status_doc.get("admission", {}).get("rejected_busy", 0)
            if isinstance(status_doc, dict) else 0
        )
        out["serve.phase_crosscheck_pct"] = _crosscheck(
            phase_sums(metrics_text if status == 200 else ""), spans
        )
        out["bench.trace_overhead_pct"] = (plain_qps / traced_qps - 1.0) * 100.0 if traced_qps else 0.0
        # planner tiers: exact answered counts from the reference pass
        # over the fixed query list; per-query time from the daemon's own
        # answers in the traced segment
        out.update(layers.tier_metrics(self.ref["report"]))
        out.update(layers.engine_metrics(self.ref["report"]))
        served = [op for op in ops if op.kind == "query" and op.status == 200]
        merged: Dict[str, Any] = {"tiers": {}}
        for op in served:
            for name, t in (op.body.get("planner") or {}).get("tiers", {}).items():
                agg = merged["tiers"].setdefault(name, {"elapsed": 0.0})
                agg["elapsed"] += t.get("elapsed", 0.0)
        out.update(layers.tier_ms(merged, len(served)))
        out.update(layers.probe(self.entries, self.scratch))
        return out

    @staticmethod
    def _close(daemon: Daemon, clients: List[Client], *, drain: bool = False) -> None:
        for c in clients:
            c.close()
        daemon.stop(drain=drain)

    def shape(self) -> str:
        kinds: Dict[str, int] = {}
        for q in self.queries:
            kinds[q["relation"]] = kinds.get(q["relation"], 0) + 1
        return (
            corpus.describe(self.entries)
            + f"\n  {len(self.queries)} queries {kinds}; reference tiers: "
            + " ".join(reference.tier_shares(self.ref["report"]))
        )


def _latency(ops: List[Op], window: float) -> Dict[str, float]:
    q = [op.seconds * 1e3 for op in ops if op.kind == "query"]
    ok = sum(1 for op in ops if op.kind == "query" and op.status == 200)
    if not q:
        raise RuntimeError("the measured window completed no query")
    return {
        "query_p50_ms": quantile(q, 0.5), "query_p95_ms": quantile(q, 0.95),
        "queries_per_s": ok / window,
    }


def _read_spans(path: str) -> Dict[str, Dict[str, Any]]:
    """request id -> {phase kind -> elapsed, "request": record}."""
    by_rid: Dict[str, Dict[str, Any]] = {}
    try:
        with open(path) as fh:
            for line in fh:
                rec = json.loads(line)
                rid = rec.get("request_id")
                if rid is None or "elapsed" not in rec:
                    continue
                kind = rec.get("kind", "")
                slot = by_rid.setdefault(rid, {})
                slot[kind] = slot.get(kind, 0.0) + rec["elapsed"]
    except (OSError, ValueError):
        pass
    return by_rid


def _span_metrics(ops: List[Op], spans: Dict[str, Dict[str, Any]]) -> Dict[str, float]:
    over, rtt, ipc, read, wait = [], [], [], [], []
    for op in ops:
        s = spans.get(op.rid)
        if s is None or op.status != 200:
            continue
        if op.kind == "query" and "serve.dispatch" in s:
            rtt.append(s["serve.dispatch"] * 1e3)
            over.append(op.seconds * 1e3 - s["serve.dispatch"] * 1e3)
            ipc.append((s["serve.dispatch"] - s.get("serve.worker.eval", 0.0)) * 1e3)
            read.append(s.get("serve.store.read", 0.0) * 1e3)
            wait.append(s.get("serve.admission.wait", 0.0) * 1e3)
    if not rtt:
        raise RuntimeError("the daemon trace holds no dispatch span for any query")
    return {
        "serve.overhead_ms": median(over),
        "pool.roundtrip_ms": median(rtt),
        "pool.ipc_ms": median(ipc),
        "store.read_ms": median(read),
        "admission.wait_ms": sum(wait) / len(wait),
    }


def _crosscheck(scraped: Dict[str, float], spans: Dict[str, Dict[str, Any]]) -> float:
    """Largest disagreement, in percent, between the daemon's
    ``/metrics`` phase sums and the same phases summed from its trace
    (the trace ends after the scrape, so it may hold a few more)."""
    worst = 0.0
    for phase, total in scraped.items():
        traced = sum(s.get(f"serve.{phase}", 0.0) for s in spans.values())
        if traced > 0:
            worst = max(worst, abs(total - traced) / traced * 100.0)
    return worst


def run(workload: str, root: str, scratch: str, seed: int, seconds: float, traced: bool):
    r = ServeRun(root, scratch, seed)
    print(f"corpus ({workload}, seed {seed}):\n{r.shape()}")
    metrics = r.traced(seconds) if traced else r.untraced(seconds)
    return r.tally, metrics
