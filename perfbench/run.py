"""The repository benchmark: one command, three workloads.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload serve_hot --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that reports the per-layer metrics.  Every answer
is checked (see README.md); the last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  The program under
test is built from ``src/`` of the checkout; without it the command
exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("serve_hot", "races_scan", "hard_mhb")
#: the workloads BENCHMARK.json gates on
GATED = WORKLOADS

#: per-layer metrics a workload does not exercise, with the reason;
#: they are reported as 0 and named on stdout
_IN_PROCESS = {
    m: "no daemon: this workload runs in process" for m in (
        "serve.overhead_ms", "admission.wait_ms", "admission.rejected",
        "store.read_ms", "pool.roundtrip_ms", "pool.ipc_ms",
        "pool.first_query_ms", "serve.phase_crosscheck_pct",
    )
}
_RACES = {m: "races_scan only" for m in ("races.pairs", "races.found", "races.scan_wall_s")}
_MHB = {"engine.mhb_wall_s": "hard_mhb only"}
ABSENT = {
    "serve_hot": {**_RACES, **_MHB},
    "races_scan": {**_IN_PROCESS, **_MHB},
    "hard_mhb": {
        **_IN_PROCESS, **_RACES,
        "lang.parse_ms": "the inputs are formulas, not programs",
        "lang.interpret_ms": "the inputs are formulas, not programs",
    },
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program to measure: {src}/repro is missing "
              "(run from the root of a repository checkout)", file=sys.stderr)
        return 2
    sys.path.insert(0, src)

    import batch
    import harness
    import serve_load

    scratch_root = os.path.join(ROOT, ".bench_build")
    os.makedirs(scratch_root, exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="perfbench-", dir=scratch_root)
    try:
        mod = serve_load if args.workload == "serve_hot" else batch
        tally, metrics = mod.run(
            args.workload, ROOT, scratch, args.seed, args.seconds, bool(args.trace)
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if args.trace:
        table = harness.PER_LAYER
        for name, why in sorted(ABSENT[args.workload].items()):
            metrics.setdefault(name, 0.0)
            print(f"absent: {name} ({why})")
        answered = max(1, tally.attempted)
        metrics["bench.failed_share"] = tally.failed / answered
        metrics["bench.unknown_share"] = tally.unknown / answered
    else:
        table = harness.END_TO_END
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"attempted={tally.attempted} failed={tally.failed} unknown={tally.unknown}")
    harness.print_metrics(metrics, table, harness.EXACT_COUNTS if args.trace else ())
    harness.emit_result(tally, metrics, table)
    return 0


if __name__ == "__main__":
    sys.exit(main())
