"""Check ``BENCHMARK.json`` against the benchmark manifest contract.

Usage (from the root of a checkout)::

    python3 perfbench/manifest.py            # exit 0 if valid, else 1

Besides the format rules (exact keys, counts, name/unit alphabets,
bounds, paths and command), it checks that the manifest lists exactly
the workloads and metrics the code in this directory measures, with
the same units, directions and bounds.
"""

from __future__ import annotations

import json
import os
import re
import sys
from typing import Any, Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
MAX_BYTES = 64 * 1024
#: the contract's wall-clock allowance for all runs of one manifest
TOTAL_SECONDS = 3420


def runs(workloads: int) -> int:
    """How many runs a manifest with ``workloads`` workloads gets."""
    return 4 + 22 * workloads


def _keys(errors: List[str], where: str, obj: Any, keys: set) -> bool:
    if not isinstance(obj, dict) or set(obj) != keys:
        got = sorted(obj) if isinstance(obj, dict) else type(obj).__name__
        errors.append(f"{where}: keys must be exactly {sorted(keys)}, got {got}")
        return False
    return True


def _bounded_list(errors: List[str], where: str, obj: Any, lo: int, hi: int) -> list:
    if not isinstance(obj, list) or not lo <= len(obj) <= hi:
        errors.append(f"{where}: must be a list of {lo} to {hi} entries")
        return obj if isinstance(obj, list) else []
    return obj


def _path_ok(p: str) -> bool:
    return bool(PATH.match(p)) and not p.startswith("/") and ".." not in p.split("/")


def check(doc: Any, *, size: int = 0, root: str = ROOT) -> List[str]:
    """Every way ``doc`` breaks the contract (empty when valid)."""
    errors: List[str] = []
    if size > MAX_BYTES:
        errors.append(f"file is {size} bytes; at most {MAX_BYTES}")
    if not _keys(errors, "manifest", doc, {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }):
        return errors
    names: set = set()

    def name_ok(where: str, name: Any) -> None:
        if not isinstance(name, str) or not NAME.match(name):
            errors.append(f"{where}: bad name {name!r} (letters, digits, _ . -; at most 64)")
        elif name in names:
            errors.append(f"{where}: name {name!r} used twice")
        names.add(name)

    paths = _bounded_list(errors, "paths", doc["paths"], 1, 16)
    for p in paths:
        if not isinstance(p, str) or not _path_ok(p):
            errors.append(f"paths: bad path {p!r}")
        elif root and not os.path.isdir(os.path.join(root, p)):
            errors.append(f"paths: {p!r} is not a directory")
    command = _bounded_list(errors, "command", doc["command"], 1, 32)
    for arg in command:
        if not isinstance(arg, str) or len(arg) > 200:
            errors.append(f"command: bad argument {arg!r}")
            continue
        if arg.startswith("/") or ".." in arg.split("/"):
            errors.append(f"command: {arg!r} leaves the checkout")
        elif root and "/" in arg and os.path.exists(os.path.join(root, arg)) and not any(
            isinstance(p, str) and (arg == p or arg.startswith(p.rstrip("/") + "/"))
            for p in paths
        ):
            errors.append(f"command: {arg!r} is outside the benchmark's paths")
    seconds = doc["run_seconds"]
    if not isinstance(seconds, int) or isinstance(seconds, bool) or not 1 <= seconds <= 60:
        errors.append("run_seconds: must be a whole number from 1 to 60")
    workloads = _bounded_list(errors, "workloads", doc["workloads"], 2, 8)
    for i, w in enumerate(workloads):
        if _keys(errors, f"workloads[{i}]", w, {"name", "why"}):
            name_ok(f"workloads[{i}]", w["name"])
            why = w["why"]
            if not isinstance(why, str) or not why or len(why) > 200 or "\n" in why:
                errors.append(f"workloads[{i}]: 'why' must be one line of at most 200 characters")
    if isinstance(seconds, int) and workloads and runs(len(workloads)) * seconds > TOTAL_SECONDS / 2:
        errors.append(
            f"{runs(len(workloads))} runs of {seconds}s leave under half of "
            f"{TOTAL_SECONDS}s for set-up and checks"
        )
    e2e = _bounded_list(errors, "end_to_end", doc["end_to_end"], 1, 16)
    layer = _bounded_list(errors, "per_layer", doc["per_layer"], 1, 128)
    for section, entries, keys in (
        ("end_to_end", e2e, {"name", "unit", "better", "bound"}),
        ("per_layer", layer, {"name", "unit", "better"}),
    ):
        for i, m in enumerate(entries):
            where = f"{section}[{i}]"
            if not _keys(errors, where, m, keys):
                continue
            name_ok(where, m["name"])
            if not isinstance(m["unit"], str) or not UNIT.match(m["unit"]):
                errors.append(f"{where}: bad unit {m['unit']!r}")
            if m["better"] not in ("lower", "higher"):
                errors.append(f"{where}: 'better' must be 'lower' or 'higher'")
            if "bound" in keys:
                b = m["bound"]
                if isinstance(b, bool) or not isinstance(b, (int, float)) or not 0 < b <= 0.25:
                    errors.append(f"{where}: bound must be a share in (0, 0.25]")
    setup = [m for m in e2e if isinstance(m, dict) and m.get("name") == "setup_s"]
    if not setup:
        errors.append("end_to_end: needs a setup_s metric")
    elif (setup[0].get("unit"), setup[0].get("better")) != ("s", "lower"):
        errors.append("end_to_end: setup_s must have unit 's' and better 'lower'")
    elif any(
        isinstance(m, dict) and isinstance(m.get("bound"), (int, float))
        and m["bound"] > setup[0].get("bound", 0) for m in e2e
    ):
        errors.append("end_to_end: setup_s must have the largest bound")
    return errors


def check_matches_code(doc: Dict[str, Any]) -> List[str]:
    """The manifest must list what the code measures, as it measures it."""
    sys.path.insert(0, HERE)
    import harness
    from run import GATED

    errors = []
    if [w.get("name") for w in doc["workloads"]] != list(GATED):
        errors.append(f"workloads: manifest lists {[w.get('name') for w in doc['workloads']]}, "
                      f"run.py gates on {list(GATED)}")
    e2e = {m["name"]: (m["unit"], m["better"], m["bound"]) for m in doc["end_to_end"]}
    if e2e != harness.END_TO_END:
        errors.append("end_to_end: differs from harness.END_TO_END")
    layer = {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]}
    if layer != harness.PER_LAYER:
        errors.append("per_layer: differs from harness.PER_LAYER")
    return errors


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    path = argv[0] if argv else os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        doc = json.loads(raw)
    except (OSError, ValueError) as exc:
        print(f"{path}: {exc}", file=sys.stderr)
        return 1
    errors = check(doc, size=len(raw))
    if not errors:
        errors = check_matches_code(doc)
    for e in errors:
        print(f"{path}: {e}", file=sys.stderr)
    if not errors:
        print(f"{path}: valid ({len(doc['workloads'])} workloads, "
              f"{len(doc['end_to_end'])} end-to-end and {len(doc['per_layer'])} "
              f"per-layer metrics, {runs(len(doc['workloads']))} runs)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
