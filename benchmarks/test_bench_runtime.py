"""Benchmark: event-runtime overhead over lockstep on a real workload.

The event runtime with its default ``RushDelay(ConstantDelay(1))`` timing
computes the *same* executions the lockstep scheduler computes (the
equivalence lives in ``tests/test_net_runtime_properties.py``); what it
adds is the discrete-event machinery — heap scheduling, per-edge RNG
streams, delivery batching.  This file defends the claim that the seam
is cheap: running E-RND at smoke scale under the event runtime must
stay within ``MAX_OVERHEAD`` of the lockstep wall-clock.

Records both legs (and the verdict) as ``results/BENCH_runtime.json``.
"""

import json
import os
import time

from repro.context import RunContext, current, use
from repro.experiments.common import ExperimentConfig
from repro.experiments.registry import run_experiment
from repro.net.runtime import resolve_runtime

EXPERIMENT = "E-RND"
SCALE = 0.15
SEED = 20050717
REPS = 3
#: Maximum tolerated event/lockstep wall-clock ratio (the perf contract).
MAX_OVERHEAD = 1.25
ARTIFACT = os.path.join(
    os.path.dirname(__file__), "..", "results", "BENCH_runtime.json"
)


def _run_once(runtime):
    config = ExperimentConfig(seed=SEED, scale=SCALE)
    context = RunContext(resolve_runtime(runtime), current().crypto_backend)
    with use(context):
        start = time.perf_counter_ns()
        result = run_experiment(EXPERIMENT, config, jobs=1)
        elapsed = time.perf_counter_ns() - start
    assert result.passed, f"{EXPERIMENT} under {runtime}: {result.table}"
    return elapsed, result


def _best_of(runtime):
    """Min-of-REPS wall-clock (ns) plus the last result for cross-checking."""
    best = None
    result = None
    for _ in range(REPS):
        elapsed, result = _run_once(runtime)
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def test_bench_event_runtime_overhead():
    """The event runtime must stay within MAX_OVERHEAD of lockstep on E-RND."""
    lockstep_ns, lockstep_result = _best_of("lockstep")
    event_ns, event_result = _best_of("event")

    # Same science on both legs: the event default is the degenerate
    # lockstep point, so the experiment data must be identical.
    assert event_result.data == lockstep_result.data, (
        "event-runtime E-RND diverged from lockstep"
    )

    ratio = event_ns / lockstep_ns if lockstep_ns else float("inf")
    artifact = {
        "experiment": EXPERIMENT,
        "scale": SCALE,
        "reps": REPS,
        "max_overhead": MAX_OVERHEAD,
        "lockstep_ms": round(lockstep_ns / 1e6, 2),
        "event_ms": round(event_ns / 1e6, 2),
        "overhead_ratio": round(ratio, 3),
        "within_budget": ratio <= MAX_OVERHEAD,
    }
    os.makedirs(os.path.dirname(ARTIFACT), exist_ok=True)
    with open(ARTIFACT, "w", encoding="utf-8") as handle:
        json.dump(artifact, handle, indent=2, sort_keys=True)
        handle.write("\n")

    assert ratio <= MAX_OVERHEAD, (
        f"event runtime overhead {ratio:.2f}x exceeds {MAX_OVERHEAD}x"
        f" (lockstep {artifact['lockstep_ms']}ms, event {artifact['event_ms']}ms)"
    )
