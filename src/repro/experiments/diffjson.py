"""Compare two ``--json`` artifact directories, ignoring wall-clock fields.

The CI ``parallel-equivalence`` gate runs the experiment suite twice —
``--jobs 1`` and ``--jobs 4`` — and feeds both artifact directories to::

    python -m repro.experiments.diffjson artifacts-serial artifacts-par

Every field of every result must match exactly except the wall-clock
measurements (``metrics.wall_seconds``), which are the only
non-deterministic values an experiment records.  Any other divergence —
a missing artifact, a different table, a drifted counter — is a
determinism regression in :mod:`repro.parallel` and fails the build.
:func:`equal` and :func:`describe_diff` are also the comparator behind
:func:`repro.obs.baseline.compare`.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Any, Dict, List, Tuple

#: Result fields that legitimately differ between runs (wall-clock only).
#: ``wall_ms_per_run`` is E-ABL's per-variant timing table — measured cost,
#: same class of value as ``wall_seconds``.
WALL_CLOCK_FIELDS = ("wall_seconds", "wall_ms_per_run")


def strip_wall_clock(result: Dict[str, Any]) -> Dict[str, Any]:
    """A deep copy of a result dict with wall-clock metrics removed."""
    stripped = json.loads(json.dumps(result))
    metrics = stripped.get("metrics")
    if isinstance(metrics, dict):
        for field in WALL_CLOCK_FIELDS:
            metrics.pop(field, None)
    return stripped


def equal(a: Any, b: Any) -> bool:
    """Deep equality treating NaN as equal to itself.

    Inconclusive estimators record ``NaN`` gap estimates, which survive
    the JSON round-trip; under plain ``!=`` every NaN would read as a
    determinism divergence even between bit-identical artifacts.
    """
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (math.isnan(a) and math.isnan(b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(equal(a[key], b[key]) for key in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(equal(x, y) for x, y in zip(a, b, strict=True))
    return a == b


def describe_diff(
    path: str, a: Any, b: Any, diffs: List[str], names: Tuple[str, str] = ("first", "second")
) -> None:
    """Record every point of divergence under ``path`` (recursively).

    ``names`` labels the two sides in "only in ..." entries.
    """
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            if key not in a:
                diffs.append(f"{path}.{key}: only in {names[1]}")
            elif key not in b:
                diffs.append(f"{path}.{key}: only in {names[0]}")
            elif not equal(a[key], b[key]):
                describe_diff(f"{path}.{key}", a[key], b[key], diffs, names)
        return
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            diffs.append(f"{path}: list lengths {len(a)} != {len(b)}")
            return
        for index, (x, y) in enumerate(zip(a, b, strict=True)):
            if not equal(x, y):
                describe_diff(f"{path}[{index}]", x, y, diffs, names)
        return
    diffs.append(f"{path}: {a!r} != {b!r}")


def compare_dirs(serial_dir: str, parallel_dir: str) -> List[str]:
    """All divergences between two artifact directories (empty = identical)."""
    diffs: List[str] = []
    serial_files = sorted(f for f in os.listdir(serial_dir) if f.endswith(".json"))
    parallel_files = sorted(f for f in os.listdir(parallel_dir) if f.endswith(".json"))
    if serial_files != parallel_files:
        only_serial = set(serial_files) - set(parallel_files)
        only_parallel = set(parallel_files) - set(serial_files)
        if only_serial:
            diffs.append(f"artifacts only in {serial_dir}: {sorted(only_serial)}")
        if only_parallel:
            diffs.append(f"artifacts only in {parallel_dir}: {sorted(only_parallel)}")
    for name in sorted(set(serial_files) & set(parallel_files)):
        with open(os.path.join(serial_dir, name), encoding="utf-8") as handle:
            first = strip_wall_clock(json.load(handle))
        with open(os.path.join(parallel_dir, name), encoding="utf-8") as handle:
            second = strip_wall_clock(json.load(handle))
        if not equal(first, second):
            describe_diff(name, first, second, diffs)
    return diffs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.diffjson",
        description="Diff two experiment artifact directories, ignoring wall-clock.",
    )
    parser.add_argument("serial_dir", help="artifacts from the reference (serial) run")
    parser.add_argument("parallel_dir", help="artifacts from the run under test")
    args = parser.parse_args(argv)

    for directory in (args.serial_dir, args.parallel_dir):
        if not os.path.isdir(directory):
            parser.error(f"not a directory: {directory}")

    diffs = compare_dirs(args.serial_dir, args.parallel_dir)
    if diffs:
        print(f"DIVERGENCE: {len(diffs)} difference(s) beyond wall-clock:")
        for diff in diffs:
            print(f"  {diff}")
        return 1
    count = len([f for f in os.listdir(args.serial_dir) if f.endswith(".json")])
    print(f"ok: {count} artifact(s) identical modulo wall-clock")
    return 0


if __name__ == "__main__":
    sys.exit(main())
