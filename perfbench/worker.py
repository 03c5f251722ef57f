"""One benchmark process: set up, then run a workload untraced or traced.

Started by ``run.py`` as a fresh interpreter per run::

    python3 perfbench/worker.py --workload W --seed N --mode setup|run|trace|reference \\
        [--seconds S]

It prints ``READY`` once set-up is done (``run.py`` times set-up from
outside, up to that line) and, for ``run`` and ``trace``, one JSON line
with its findings last.  A traced ``paper-suite`` run starts one more,
``--mode reference``, for its untraced reference.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import executions  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile of a non-empty sequence."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(fraction * len(ordered))) - 1]


def untraced(workload: str, seed: int, seconds: float) -> dict:
    """Units in a closed loop until the next one would overrun ``seconds``.

    The experiment workloads time every protocol execution and report the
    quiet-host walls of ``executions``: of each unit, and of each
    experiment, which is their operation.  ``campaign-zoo`` reports its
    units' walls and its scenarios' latencies as measured.
    """
    from repro.experiments.registry import SHARDED_IDS

    clock = time.perf_counter
    timer = None
    if workload != "campaign-zoo":
        timer = executions.ExecutionTimer()
        timer.install()
    jobs = workloads.jobs(workload)
    walls, raw_walls, digests, failures, latencies, checks, notes = [], [], [], [], [], [], []
    attempted = 0
    start = clock()
    index = 0
    while True:
        unit_start = clock()
        unit = workloads.run_unit(workload, seed, index)
        raw_walls.append(clock() - unit_start)
        if timer is None:
            walls.append(raw_walls[-1])
            latencies.extend(unit.latencies_s)
        else:
            excess = executions.excess_seconds(timer.take())
            walls.append(raw_walls[-1] - sum(excess.values()) / jobs)
            for experiment_id, wall in unit.walls.items():
                workers = jobs if experiment_id in SHARDED_IDS else 1
                latencies.append(wall - excess.get(experiment_id, 0.0) / workers)
                notes.append(f"unit {index}: {experiment_id} wall {wall:.3f} s, "
                             f"quiet {latencies[-1]:.3f} s")
            checks.append((f"unit {index}: every execution ran inside an experiment",
                           None not in excess))
        digests.append(unit.digest)
        failures.extend(unit.failures)
        attempted += unit.attempted
        index += 1
        if clock() - start + raw_walls[-1] > seconds:
            break
    if timer is not None and jobs > 1:
        checks.append((f"pool workers timed {timer.pool_executions} executions",
                       timer.pool_executions > 0))
    return {
        "walls": walls,
        "raw_walls": raw_walls,
        "digests": digests,
        "attempted": attempted,
        "failures": failures,
        "checks": checks,
        "notes": notes,
        "operations": len(latencies),
        "op_p50_ms": percentile(latencies, 0.50) * 1e3,
        "op_p99_ms": percentile(latencies, 0.99) * 1e3,
    }


# -- the traced run -----------------------------------------------------------------


def _parallel_pass(seed: int):
    """``paper-suite`` at ``--jobs 2`` with only the coordinator's pool seams traced."""
    from repro.parallel.engine import ExperimentEngine

    tracer = tracing.Tracer(tracing.layer_names(tracing.PARALLEL_MAP),
                            span_layers=tracing.SPAN_LAYERS)
    tracer.install(tracing.PARALLEL_MAP)
    traced_map = ExperimentEngine.map
    tasks = [0]

    def counting_map(self, fn, arglists):
        arglists = list(arglists)
        tasks[0] += len(arglists)
        return traced_map(self, fn, arglists)

    ExperimentEngine.map = counting_map
    try:
        tracer.start()
        unit = workloads.run_unit("paper-suite", seed, 0)
        tracer.stop()
    finally:
        ExperimentEngine.map = traced_map
        tracer.uninstall()
    lid = tracer.layers.index
    metrics = {
        "parallel.prewarm_s": tracer.self_ns[lid("parallel.prewarm")] / 1e9,
        "parallel.pool_start_s": tracer.self_ns[lid("parallel.pool_start")] / 1e9,
        "parallel.map_calls": tracer.calls[lid("parallel.map")],
        "parallel.tasks": tasks[0],
        "parallel.map_wait_s": tracer.self_ns[lid("parallel.map")] / 1e9,
    }
    return unit, metrics


def heavy_reference(seed: int) -> dict:
    """The sharded (heavy) experiments of ``paper-suite``, serial and untraced."""
    from repro.experiments.registry import SHARDED_IDS

    heavy = [e for e in workloads.experiment_ids("paper-suite") if e in SHARDED_IDS]
    unit = workloads.run_experiments("paper-suite", seed, 1, ids=heavy)
    return {
        "walls": unit.walls,
        "digests": {e: workloads.digest(a) for e, a in zip(heavy, unit.artifact, strict=True)},
    }


def _start_heavy_reference(seed: int) -> subprocess.Popen:
    """``heavy_reference`` in a fresh interpreter, run beside the traced pass.

    A third full pass of ``paper-suite`` would not fit in a 180 s run, so the
    serial untraced reference is assembled: the light experiments ran whole,
    serially and untraced, in the ``--jobs 2`` pass's two workers, and the
    heavy ones run serially here, on the second core while the traced pass
    uses the first, the same two-busy-cores condition.  Both sides of the
    comparison are the program's per-experiment ``wall_seconds``.
    """
    return subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--workload", "paper-suite",
         "--seed", str(seed), "--mode", "reference"],
        stdout=subprocess.PIPE, stdin=subprocess.DEVNULL, text=True,
    )


def traced(workload: str, seed: int) -> dict:
    from repro import fastpath
    from repro.experiments import registry
    from repro.obs.export import write_chrome_trace

    checks = []
    parallel_metrics = {
        "parallel.prewarm_s": 0.0, "parallel.pool_start_s": 0.0,
        "parallel.map_calls": 0, "parallel.tasks": 0, "parallel.map_wait_s": 0.0,
    }
    if workload == "paper-suite":
        parallel_unit, parallel_metrics = _parallel_pass(seed)
        reference_proc = _start_heavy_reference(seed)
    else:
        start = time.perf_counter()
        reference = workloads.run_unit(workload, seed, 0)
        reference_wall = time.perf_counter() - start

    calibration = tracing.calibrate()
    tracer = tracing.Tracer(tracing.layer_names(tracing.LAYER_MAP),
                            span_layers=tracing.SPAN_LAYERS)
    tracer.install(tracing.LAYER_MAP)
    # Trace ids: one per experiment (``run_many`` looks ``run_experiment`` up
    # in the registry module) or one per scenario.
    run_experiment = registry.run_experiment

    def experiment_span(experiment_id, *args, **kwargs):
        start = tracer.open_harness_span(experiment_id)
        try:
            return run_experiment(experiment_id, *args, **kwargs)
        finally:
            tracer.close_harness_span(start)

    def scenario_span(position):
        tracer.trace_id = f"scenario-{position}"

    registry.run_experiment = experiment_span
    fastpath.reset_stats()
    try:
        tracer.start()
        if workload == "campaign-zoo":
            unit = workloads.run_campaign(seed, 0, on_scenario=scenario_span)
        else:
            unit = workloads.run_experiments(workload, seed, 1)
        tracer.stop()
    finally:
        registry.run_experiment = run_experiment
        tracer.uninstall()
    stats = fastpath.stats()

    # Correctness: the traced serial pass must reproduce the untraced artifact.
    if workload == "paper-suite":
        output, _ = reference_proc.communicate()
        if reference_proc.returncode != 0:
            raise RuntimeError(f"heavy reference exited with status {reference_proc.returncode}")
        heavy = json.loads(output.strip().splitlines()[-1])
        serial = dict(zip(workloads.experiment_ids(workload), unit.artifact, strict=True))
        checks.append(("serial traced == --jobs 2 digest", unit.digest == parallel_unit.digest))
        checks.append(("serial untraced heavy == serial traced heavy",
                       all(workloads.digest(serial[key]) == value
                           for key, value in heavy["digests"].items())))
        reference_wall = sum({**parallel_unit.walls, **heavy["walls"]}.values())
        traced_wall = sum(unit.walls.values())
    else:
        checks.append(("traced == untraced digest", unit.digest == reference.digest))
        traced_wall = tracer.wall_ns / 1e9
    table, wrapper_s = tracer.layer_times(calibration)
    accounted = sum(entry["self_s"] for entry in table.values()) + wrapper_s
    checks.append((f"layer self times + other.self_s + trace.wrapper_s = {accounted:.6f} s "
                   f"= traced wall {tracer.wall_ns / 1e9:.6f} s",
                   abs(accounted - tracer.wall_ns / 1e9) < 1e-6 * max(1.0, accounted)))

    residual_s = traced_wall - reference_wall - wrapper_s
    metrics = {}
    for layer in tracing.layer_names(tracing.LAYER_MAP):
        metrics[f"{layer}.calls"] = table[layer]["calls"]
        metrics[f"{layer}.self_s"] = table[layer]["self_s"]
    metrics.update(parallel_metrics)
    for name, good, bad in (
        ("fastpath.batch.accept_ratio", "batch.accepts", "batch.rejects"),
        ("fastpath.pow.table_hit_ratio", "pow.table_hits", "pow.table_misses"),
        ("fastpath.lagrange.hit_ratio", "lagrange.hits", "lagrange.misses"),
    ):
        hits = stats["counters"].get(f"fastpath.{good}", 0)
        misses = stats["counters"].get(f"fastpath.{bad}", 0)
        metrics[name] = hits / (hits + misses) if hits + misses else 0.0
    for name in workloads.WORK_COUNTERS:
        metrics[name] = unit.counters.get(name, 0)
    metrics["other.self_s"] = table[tracing.OTHER]["self_s"]
    metrics["trace.wrapper_s"] = wrapper_s
    metrics["trace.residual_s"] = residual_s
    metrics["trace.overhead_ratio"] = traced_wall / reference_wall

    out_dir = os.path.join(os.getcwd(), ".bench_build", "perfbench")
    os.makedirs(out_dir, exist_ok=True)
    trace_path = os.path.join(out_dir, f"trace-{workload}-seed{seed}.json")
    write_chrome_trace(trace_path, tracer.chrome_records(), process_name=f"perfbench {workload}")

    notes = [
        f"traced wall {tracer.wall_ns / 1e9:.3f} s, untraced reference {reference_wall:.3f} s",
        f"wrapper cost: {calibration} per entry, calibrated on a no-op and subtracted "
        f"({wrapper_s:.3f} s); the other {residual_s:.3f} s "
        f"of measured overhead stays in the layers' self times",
        f"spans kept {sum(1 for s in tracer.spans if s is not None)}, "
        f"dropped past cap {tracer.spans_dropped}; chrome trace {os.path.relpath(trace_path)}",
    ]
    if workload == "paper-suite":
        notes.append("layer split: serial (--jobs 1) traced pass; parallel.*: coordinator "
                     "of a --jobs 2 pass; untraced reference: per-experiment walls, the light "
                     "experiments' from the --jobs 2 pass, the sharded ones' from a serial "
                     "rerun beside the traced pass")
    return {
        "metrics": metrics,
        "digest": unit.digest,
        "attempted": unit.attempted,
        "failures": unit.failures,
        "checks": checks,
        "notes": notes,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/worker.py")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--mode", required=True, choices=("setup", "run", "trace", "reference"))
    parser.add_argument("--seconds", type=float, default=0.0)
    args = parser.parse_args(argv)

    workloads.setup(args.workload, args.seed)
    print("READY", flush=True)
    if args.mode == "setup":
        return 0
    if args.mode == "reference":
        report = heavy_reference(args.seed)
    elif args.mode == "run":
        # A renamed layer function fails every run, not only the traced one.
        for _, target in tracing.LAYER_MAP + tracing.PARALLEL_MAP:
            tracing.resolve(target)
        report = untraced(args.workload, args.seed, args.seconds)
    else:
        report = traced(args.workload, args.seed)
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
