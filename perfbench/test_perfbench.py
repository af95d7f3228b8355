"""Tests of the benchmark itself (not part of the repository's tier-1
suite).  Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import harness  # noqa: E402
import manifest  # noqa: E402


@pytest.fixture(scope="module")
def doc():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_manifest_meets_the_contract(doc):
    assert manifest.check(doc) == []
    assert manifest.check_matches_code(doc) == []
    assert manifest.main([]) == 0


@pytest.mark.parametrize(
    "mutate, expect",
    [
        (lambda d: d["workloads"][0].update(name="serve hot"), "bad name"),
        (lambda d: d["per_layer"][0].update(name="x" * 65), "bad name"),
        (lambda d: d["per_layer"].append(dict(d["per_layer"][0])), "used twice"),
        (lambda d: d["end_to_end"][1].update(unit="milli seconds"), "bad unit"),
        (lambda d: d["end_to_end"][1].update(bound=0.3), "bound"),
        (lambda d: d["end_to_end"].pop(0), "setup_s"),
        (lambda d: d["end_to_end"][1].update(bound=0.25) or d["end_to_end"][0].update(bound=0.2),
         "largest bound"),
        (lambda d: d["workloads"].extend(copy.deepcopy(d["workloads"]) * 4), "2 to 8"),
        (lambda d: d["workloads"][0].update(why="two\nlines"), "one line"),
        (lambda d: d["command"].append("src/repro/cli.py"), "outside"),
        (lambda d: d["command"].append("../elsewhere"), "leaves"),
        (lambda d: d["paths"].append("/abs"), "bad path"),
        (lambda d: d.update(run_seconds=61), "run_seconds"),
        (lambda d: d.update(extra=1), "keys must be exactly"),
    ],
)
def test_manifest_check_rejects(doc, mutate, expect):
    bad = copy.deepcopy(doc)
    mutate(bad)
    errors = manifest.check(bad)
    assert any(expect in e for e in errors), errors


def test_reference_clock_scales_by_the_probed_speed(monkeypatch):
    # a CPU probing twice the reference rate reads every time doubled
    monkeypatch.setattr(harness, "probe_rate", lambda: 2 * harness.REFERENCE_RATE)
    clock = harness.ReferenceClock()
    clock.ready()
    clock.add([1.0, 3.0], harness.SEGMENT_SECONDS)  # a full segment: flushed
    assert clock.samples == [2.0, 6.0]
    clock.ready()
    clock.add([0.5], 0.01)  # held until the segment ends
    assert clock.samples == [2.0, 6.0]
    clock.flush()
    assert clock.samples == [2.0, 6.0, 1.0]
    assert clock.seconds == 2 * (harness.SEGMENT_SECONDS + 0.01)


def _run(workload, trace, cwd=ROOT, seconds="1"):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize(
    "workload, trace",
    [("serve_hot", 0), ("serve_hot", 1), ("races_scan", 0), ("races_scan", 1),
     ("hard_mhb", 0), ("hard_mhb", 1)],
)
def test_smoke_run_prints_every_metric(workload, trace):
    out = _run(workload, trace)
    assert out.returncode == 0, out.stderr[-2000:]
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    table = harness.PER_LAYER if trace else harness.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        k: unit for k, (unit, *_) in table.items()
    }
    listing = "\n".join(lines[:-1])
    for name, (unit, *_) in table.items():
        assert f" {name} " in listing and unit in listing
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run("serve_hot", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
