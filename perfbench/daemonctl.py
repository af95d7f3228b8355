"""Drive a ``repro serve`` process: launch, bounded HTTP calls, teardown.

The daemon runs as its own process group, so teardown can reach the
spawn workers (and the multiprocessing resource tracker) even when the
daemon itself is wedged.  Every wait here is time-boxed: a daemon that
never comes up, or whose pool stops answering, turns into failed
operations and a finished run -- never a hung benchmark.
"""

from __future__ import annotations

import http.client
import json
import os
import re
import signal
import subprocess
import sys
import threading
import time
from collections import deque
from typing import Any, Dict, Optional, Tuple

from harness import descendants, group_running, vm_hwm_mb

#: seconds to wait for the daemon to announce its port
LAUNCH_TIMEOUT = 60.0
#: seconds a drain (SIGTERM) may take before the group is killed
DRAIN_TIMEOUT = 15.0

_ANNOUNCE = re.compile(r"serving queries on http://([^:/]+):(\d+)/")


class DaemonError(RuntimeError):
    """The daemon did not come up (its last stderr lines attached)."""


class Daemon:
    """One ``repro serve --workers 2`` process on an ephemeral port."""

    def __init__(self, root: str, store: str, *, trace: Optional[str] = None) -> None:
        cmd = [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--store", store, "--workers", "2",
            "--drain-grace", "5",
        ]
        if trace is not None:
            cmd += ["--trace", trace]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(root, "src")
        self.proc = subprocess.Popen(
            cmd, cwd=root, env=env, stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            start_new_session=True,
        )
        self.log: deque = deque(maxlen=40)
        self._port: Optional[int] = None
        self._announced = threading.Event()
        self._reader = threading.Thread(target=self._read_stderr, daemon=True)
        self._reader.start()
        if not self._announced.wait(LAUNCH_TIMEOUT) or self._port is None:
            self.stop()
            raise DaemonError(
                "repro serve did not announce a port:\n" + "\n".join(self.log)
            )
        self.port = self._port

    def _read_stderr(self) -> None:
        # keep draining for the daemon's whole life: a full pipe would
        # block its logging, and so its handler threads
        for raw in self.proc.stderr:
            line = raw.decode(errors="replace").rstrip()
            self.log.append(line)
            m = _ANNOUNCE.search(line)
            if m and self._port is None:
                self._port = int(m.group(2))
                self._announced.set()
        self._announced.set()  # EOF: the daemon is gone

    def client(self, timeout: float) -> "Client":
        return Client(self.port, timeout)

    def peak_rss_mb(self) -> float:
        """Summed peak RSS of the daemon and everything it spawned."""
        return sum(vm_hwm_mb(pid) for pid in descendants(self.proc.pid))

    def stop(self, *, drain: bool = False) -> None:
        """Kill the whole process group and wait until every member is
        gone; with ``drain``, first let the daemon drain on SIGTERM
        (which also closes its trace file)."""
        pgid = self.proc.pid
        if drain:
            try:
                os.killpg(pgid, signal.SIGTERM)
            except ProcessLookupError:
                pass
            try:
                self.proc.wait(DRAIN_TIMEOUT)
            except subprocess.TimeoutExpired:
                pass
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                break
            try:
                self.proc.wait(0.05)  # reap the daemon, our child
            except subprocess.TimeoutExpired:
                continue
            if not group_running(pgid):
                break  # the orphaned workers are dead, reaped by init
        self._reader.join(5.0)
        if self.proc.stderr is not None:
            self.proc.stderr.close()


class Client:
    """One keep-alive connection; every call is bounded by ``timeout``
    (applied to connect and to each socket read)."""

    def __init__(self, port: int, timeout: float) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)

    def call(
        self, method: str, path: str, body: Optional[bytes] = None, rid: str = ""
    ) -> Tuple[Optional[int], Any, float]:
        """``(status or None, parsed body or error text, seconds)`` --
        measured from send to the last byte of the body."""
        headers = {"X-Repro-Request-Id": rid} if rid else {}
        if body is not None:
            headers["Content-Type"] = "application/json"
        t0 = time.perf_counter()
        try:
            self.conn.request(method, path, body=body, headers=headers)
            resp = self.conn.getresponse()
            data = resp.read()
        except (OSError, http.client.HTTPException) as exc:
            elapsed = time.perf_counter() - t0
            self.conn.close()  # reconnects on the next call
            return None, f"{type(exc).__name__}: {exc}", elapsed
        elapsed = time.perf_counter() - t0
        ctype = resp.getheader("Content-Type") or ""
        if ctype.startswith("application/json"):
            try:
                return resp.status, json.loads(data), elapsed
            except ValueError:
                return resp.status, data.decode(errors="replace"), elapsed
        return resp.status, data.decode(errors="replace"), elapsed

    def close(self) -> None:
        self.conn.close()


def query_body(q: Dict[str, Any], fingerprint: str, timeout: float) -> bytes:
    doc: Dict[str, Any] = {
        "fingerprint": fingerprint, "relation": q["relation"], "timeout": timeout,
    }
    if q["a"] is not None:
        doc["a"], doc["b"] = q["a"], q["b"]
    return json.dumps(doc).encode()


def phase_sums(metrics_text: str) -> Dict[str, float]:
    """``repro_serve_phase_seconds`` histogram sums per phase, from a
    ``/metrics`` scrape."""
    sums: Dict[str, float] = {}
    for line in metrics_text.splitlines():
        if not line.startswith("repro_serve_phase_seconds_sum{"):
            continue
        labels, value = line.rsplit(" ", 1)
        phase = re.search(r'phase="([^"]+)"', labels).group(1)
        sums[phase] = sums.get(phase, 0.0) + float(value)
    return sums


__all__ = ["Client", "Daemon", "DaemonError", "phase_sums", "query_body"]
