"""The benchmark's three workloads, driven through the program's public entry points.

Each workload is a unit of work that the worker repeats in a closed loop
(one caller, the next unit starts when the previous one returns):

* ``paper-suite`` — all 15 experiments through ``run_many`` at
  ``--jobs 2`` and scale 0.15: the ROADMAP's unit of performance, and the
  only workload that uses ``repro.parallel``;
* ``lemma64-bgw`` — E-L64 alone, serial: BGW resharing traffic, field
  arithmetic and byte metering, no group layer and no pool;
* ``campaign-zoo`` — fuzzer scenarios over the whole protocol zoo, run one
  after another: thousands of short executions under both runtimes with
  delays, omissions and faults, and almost no field or group work.

A unit returns its deterministic artifact (for the digest), the number of
operations attempted and failed, and the program's own work counters.
"""

from __future__ import annotations

import hashlib
import json
import time
import traceback
from typing import Any, Dict, List, Optional

WORKLOADS = ("paper-suite", "lemma64-bgw", "campaign-zoo")

#: Experiment scale of ``paper-suite`` and ``lemma64-bgw`` (the scale of the
#: repo's own benchmarks).  E-L64's sample floors make any scale <= 0.3
#: cost the same.
SCALE = 0.15
#: Worker processes of ``paper-suite`` (the CLI default on 2 cores).
SUITE_JOBS = 2
#: Scenarios per ``campaign-zoo`` unit.
CAMPAIGN_UNIT = 2500

#: Program counters reported as exact work counts in the traced run.
WORK_COUNTERS = (
    "net.messages.sent",
    "net.bytes.sent",
    "net.rounds",
    "crypto.field.mul",
    "crypto.group.exp",
    "crypto.vss.shares_verified",
    "mpc.bgw.mul_gates",
)


def digest(artifact: Any) -> str:
    """A short sha256 of an artifact's canonical JSON form."""
    text = json.dumps(artifact, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class Unit:
    """What one unit of work produced."""

    def __init__(self) -> None:
        self.artifact: List[Any] = []
        self.attempted = 0
        self.failures: List[str] = []
        self.counters: Dict[str, float] = {}
        self.latencies_s: List[float] = []  # per scenario (campaign-zoo)
        self.walls: Dict[str, float] = {}

    def count(self, counters: Dict[str, float]) -> None:
        for name in WORK_COUNTERS:
            self.counters[name] = self.counters.get(name, 0) + counters.get(name, 0)

    @property
    def digest(self) -> str:
        return digest(self.artifact)


def unit_size(workload: str) -> str:
    """The input size of one unit, as stated in the output and digest keys."""
    if workload == "campaign-zoo":
        return f"{CAMPAIGN_UNIT}-scenarios"
    return f"scale-{SCALE}"


def experiment_config(seed: int):
    from repro.experiments.common import ExperimentConfig

    return ExperimentConfig(scale=SCALE, seed=seed)


def experiment_ids(workload: str) -> List[str]:
    from repro.experiments.registry import REGISTRY

    return list(REGISTRY) if workload == "paper-suite" else ["E-L64"]


def run_experiments(workload: str, seed: int, jobs: int,
                    ids: Optional[List[str]] = None) -> Unit:
    """One pass of ``run_many``; a failed operation is a MISMATCH or a raise."""
    from repro.experiments.diffjson import strip_wall_clock
    from repro.experiments.registry import run_many

    unit = Unit()
    ids = experiment_ids(workload) if ids is None else ids
    unit.attempted = len(ids)
    try:
        results = run_many(ids, experiment_config(seed), jobs=jobs)
    except Exception as exc:  # the whole pass is lost: every experiment failed
        traceback.print_exc()
        unit.failures = [f"run_many raised {type(exc).__name__}: {exc}"] * len(ids)
        return unit
    for experiment_id, result in zip(ids, results, strict=True):
        if result.experiment_id != experiment_id:
            raise RuntimeError(f"run_many returned {result.experiment_id} for {experiment_id}")
        if not result.passed:
            unit.failures.append(f"{experiment_id} MISMATCH")
        unit.artifact.append(strip_wall_clock(result.to_json_dict()))
        unit.count(result.metrics.get("counters", {}))
        unit.walls[experiment_id] = result.metrics["wall_seconds"]
    return unit


def run_campaign(seed: int, index: int, count: int = CAMPAIGN_UNIT,
                 on_scenario=None) -> Unit:
    """Scenarios ``[index * count, (index + 1) * count)`` of campaign ``seed``.

    The unit runs under a fresh metrics registry, as every experiment does,
    so that the ``net.*`` work counters exist.  ``on_scenario(i)`` is called
    before each scenario (the traced run sets its trace id there).
    """
    from repro.obs import Metrics, runtime
    from repro.scenario.fuzz import generate_scenario
    from repro.scenario.runner import run_scenario

    unit = Unit()
    clock = time.perf_counter
    with runtime.observed(metrics=Metrics()) as (_, metrics):
        for position in range(index * count, (index + 1) * count):
            if on_scenario is not None:
                on_scenario(position)
            scenario = generate_scenario(seed, position)
            unit.attempted += 1
            start = clock()
            try:
                row = run_scenario(scenario)
            except Exception as exc:  # a raise is a failed operation
                unit.latencies_s.append(clock() - start)
                traceback.print_exc()
                unit.failures.append(f"scenario {position} raised {type(exc).__name__}: {exc}")
                unit.artifact.append([position, "raised"])
                continue
            unit.latencies_s.append(clock() - start)
            if row["unexpected"]:
                kinds = sorted({v["kind"] for v in row["unexpected"]})
                unit.failures.append(f"scenario {position} unexpected {kinds}")
            unit.artifact.append([position, row["id"], row["digest"], row["verdict"],
                                  len(row["unexpected"])])
        unit.count(metrics.counters)
    return unit


def jobs(workload: str) -> int:
    """Worker processes of one unit (``run_many``'s ``jobs``)."""
    return SUITE_JOBS if workload == "paper-suite" else 1


def run_unit(workload: str, seed: int, index: int) -> Unit:
    """The ``index``-th unit of ``workload`` for ``seed``."""
    if workload == "campaign-zoo":
        return run_campaign(seed, index)
    # Experiment units after the first draw fresh experiment seeds.
    return run_experiments(workload, seed + index, jobs(workload))


def setup(workload: str, seed: int) -> None:
    """Set-up that users pay once per process: imports, warm caches, pool.

    Returns nothing; the pool started for ``paper-suite`` is closed again,
    because ``run_many`` owns the pool it times.
    """
    from repro.experiments import registry  # noqa: F401  (imports every experiment)
    from repro.parallel import ExperimentEngine, normalize_jobs, prewarm_for_config
    from repro.scenario import fuzz, runner  # noqa: F401

    prewarm_for_config(experiment_config(seed))
    if workload == "paper-suite":
        with ExperimentEngine(SUITE_JOBS) as engine:
            engine.map(normalize_jobs, [(job,) for job in range(1, SUITE_JOBS + 1)])
