"""The repo's end-to-end benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload paper-suite --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics (``wall_s``, ``setup_s``,
``peak_rss_mb``, ``op_p50_ms``, ``op_p99_ms``) and ``--trace 1`` the
per-layer metrics of a separate traced run, each named in
``BENCHMARK.json`` with its unit.  The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  See
``perfbench/README.md`` for the workloads, metrics and layer map.

This process only measures: every workload runs in a fresh interpreter
(``worker.py``), timed from outside.  Set-up is sampled in several more
fresh interpreters and reported as the median.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import resource
import select
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS, unit_size  # noqa: E402

#: Fresh interpreters started only to time set-up (the measured run adds one).
SETUP_SAMPLES = 10
#: Every child must be done by then, or the run fails without a result.
DEADLINE_S = 176.0
PR_SET_CHILD_SUBREAPER = 36


def adopt_orphans() -> None:
    """Become the reaper of orphaned descendants (Linux): killed pool workers are reaped here."""
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl.argtypes = [ctypes.c_int, ctypes.c_ulong, ctypes.c_ulong,
                               ctypes.c_ulong, ctypes.c_ulong]
        libc.prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def reap_all() -> None:
    """Wait for every remaining descendant that was handed to this process."""
    while True:
        try:
            os.waitpid(-1, 0)
        except ChildProcessError:
            return


class BenchError(Exception):
    """The benchmark could not produce a result."""


class Child:
    """A worker interpreter with a deadline on everything it does."""

    def __init__(self, workload: str, seed: int, mode: str, seconds: int, deadline: float):
        self.deadline = deadline
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
             "--seed", str(seed), "--mode", mode, "--seconds", str(seconds)],
            stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True,
            start_new_session=True,  # its own process group, pool workers included
        )
        self.lines = []

    def _next_line(self) -> str:
        """The worker's next line of output, ``""`` at its end, within the deadline."""
        ready, _, _ = select.select(
            [self.proc.stdout], [], [], max(0.0, self.deadline - time.perf_counter()))
        if not ready:
            raise BenchError("worker missed the deadline")
        line = self.proc.stdout.readline()
        if line:
            self.lines.append(line.rstrip("\n"))
        return line

    def setup_seconds(self) -> float:
        """Wall seconds from spawn to the worker's ``READY`` line."""
        while True:
            if not self._next_line():
                raise BenchError(f"worker ended before set-up (exit {self.proc.wait()})")
            if self.lines[-1] == "READY":
                return time.perf_counter() - self.started

    def finish(self) -> str:
        """The worker's last line, once it has exited with status 0."""
        while self._next_line():
            pass
        status = self.proc.wait(timeout=max(1.0, self.deadline - time.perf_counter()))
        if status != 0 or not self.lines:
            raise BenchError(f"worker exited with status {status}")
        return self.lines[-1]

    def result(self) -> dict:
        """The worker's last line as JSON, once it has exited with status 0."""
        return json.loads(self.finish())

    def stop(self) -> None:
        """Kill the worker and its pool processes if still running, and reap it."""
        if self.proc.poll() is None:
            os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.wait()
        self.proc.stdout.close()


def source_digest() -> str:
    """A digest of the program and workload sources, so each version has its own digests."""
    hasher = hashlib.sha256()
    for top in (os.path.join("src", "repro"), HERE):
        for directory, subdirectories, files in os.walk(top):
            subdirectories.sort()
            for name in sorted(files):
                if name.endswith(".py"):
                    path = os.path.join(directory, name)
                    hasher.update(os.path.relpath(path).encode("utf-8"))
                    with open(path, "rb") as handle:
                        hasher.update(handle.read())
    return hasher.hexdigest()[:12]


def digest_store(workload: str, seed: int, digests, checks) -> None:
    """Record unit digests; a different digest for the same unit is a failed check.

    Runs of one seed must produce identical artifacts.  The store lives in
    the checkout's build directory, so every run of one seed on the same
    sources is compared with the first run that recorded it.
    """
    directory = os.path.join(os.getcwd(), ".bench_build", "perfbench")
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, "digests.json")
    try:
        with open(path, encoding="utf-8") as handle:
            store = json.load(handle)
    except (FileNotFoundError, json.JSONDecodeError):
        store = {}
    source = source_digest()
    for index, value in enumerate(digests):
        key = f"{source}/{workload}/{unit_size(workload)}/seed{seed}/unit{index}"
        known = store.setdefault(key, value)
        checks.append((f"digest {key} = {value} matches earlier runs ({known})", known == value))
    temporary = f"{path}.{os.getpid()}"
    with open(temporary, "w", encoding="utf-8") as handle:
        json.dump(store, handle, indent=1, sort_keys=True)
    os.replace(temporary, path)


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Run the workers of one run; the outcome has metrics, counts, checks and notes."""
    deadline = time.perf_counter() + DEADLINE_S
    children = []

    def start(mode: str) -> Child:
        children.append(Child(workload, seed, mode, seconds, deadline))
        return children[-1]

    setups = []
    try:
        if trace:
            report = start("trace").result()
        else:
            for _ in range(SETUP_SAMPLES):
                child = start("setup")
                setups.append(child.setup_seconds())
                child.finish()
            child = start("run")
            setups.append(child.setup_seconds())
            report = child.result()
    finally:
        for child in children:
            child.stop()
        reap_all()

    checks = [tuple(check) for check in report.get("checks", [])]
    notes = [f"unit of work: {workload} at {unit_size(workload)}", *report.get("notes", [])]
    if trace:
        digest_store(workload, seed, [report["digest"]], checks)
        metrics = report["metrics"]
    else:
        digest_store(workload, seed, report["digests"], checks)
        rss_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                      resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        metrics = {
            "wall_s": statistics.median(report["walls"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rss_kib / 1024.0,
            "op_p50_ms": report["op_p50_ms"],
            "op_p99_ms": report["op_p99_ms"],
        }
        notes += [
            f"units {len(report['walls'])}, walls {[round(w, 3) for w in report['walls']]} s, "
            f"raw walls {[round(w, 3) for w in report['raw_walls']]} s",
            f"set-up samples {[round(s, 4) for s in setups]} s",
            f"operation latency over {report['operations']} "
            + ("scenarios, as measured" if workload == "campaign-zoo" else
               "experiments, each at its quiet-host wall"),
        ]
    return {"metrics": metrics, "attempted": report["attempted"],
            "failures": report["failures"], "checks": checks, "notes": notes}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("perfbench: run from the repository root (src/repro not found)", file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    adopt_orphans()
    # A terminated run stops its workers too: SystemExit unwinds through measure().
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    try:
        outcome = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"perfbench: no result: {exc}", file=sys.stderr)
        return 1

    section = spec["per_layer" if args.trace else "end_to_end"]
    declared = {entry["name"]: entry["unit"] for entry in section}
    if set(outcome["metrics"]) != set(declared):
        print(f"perfbench: metrics differ from BENCHMARK.json: "
              f"{sorted(set(outcome['metrics']) ^ set(declared))}", file=sys.stderr)
        return 1
    metrics = {}
    for name, unit in declared.items():
        value = outcome["metrics"][name]
        metrics[name] = {"value": value, "unit": unit}
        shown = f"{value:d}" if isinstance(value, int) else f"{value:.6f}"
        print(f"{name:40s} {shown:>18s} {unit}")
    for note in outcome["notes"]:
        print(f"note: {note}")
    for failure in outcome["failures"]:
        print(f"failed: {failure}")
    for name, ok in outcome["checks"]:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}")
    correct = all(ok for _, ok in outcome["checks"])
    print(json.dumps({
        "correct": correct,
        "attempted": outcome["attempted"],
        "failed": len(outcome["failures"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
