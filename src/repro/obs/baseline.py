"""The standing metrics-regression surface: capture, load, and diff baselines.

The paper's efficiency claims are counter-shaped (rounds, messages,
bytes, crypto operations — Section 1/7), and every counter the obs layer
records for an experiment is deterministic given its
:class:`~repro.experiments.common.ExperimentConfig`.  That makes drift
detectable: capture a canonical snapshot of a pinned experiment set once
(``results/OBS_baseline.json``, regenerated with ``python -m repro obs
baseline``), and any later run can be compared against it with

* **exact matching** for the deterministic surface — every metrics
  counter and histogram (message counts, round counts, crypto op
  counts), plus each experiment's ``passed`` flag; any divergence is a
  behaviour change that either needs investigating or a deliberate
  baseline regeneration (the ``diffjson`` discipline, applied over time
  instead of across worker counts);
* **tolerance bands** for the wall-clock timings, which legitimately
  vary between machines and runs — drift is reported as a ratio against
  ``timing_tolerance`` and only fails the comparison when the caller
  opts in with ``strict_timings`` (CI machines are too heterogeneous
  for timing gates to be on by default).

Process-local ``fastpath.*`` telemetry never appears here: it depends on
cache warmth and process topology, so it is exported as gauges
(:func:`repro.obs.export.fastpath_gauges`) but excluded from the
regression surface by construction.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence

#: Where the committed baseline lives, relative to the repo root.
DEFAULT_BASELINE_PATH = "results/OBS_baseline.json"

#: The pinned experiment set: small enough to run in a CI smoke job,
#: broad enough to cover the network layer (E-FIG1), the round-complexity
#: table (E-RND), and the full measured-cost surface (E-COST).
PINNED_EXPERIMENTS = ("E-FIG1", "E-RND", "E-COST")

#: The pinned sample scale (matches the CI smoke runs).
PINNED_SCALE = 0.15

#: Default relative tolerance band for timing comparisons: a fresh timing
#: within [base / 4, base * 4] is unremarkable across machines.
DEFAULT_TIMING_TOLERANCE = 4.0

SCHEMA_VERSION = 1

#: Metric names that are wall-clock-derived and therefore banded, never
#: exact-matched (defensive: today only ``wall_seconds`` exists).
_TIMING_NAME = re.compile(r"(^|[._])(wall|seconds|elapsed)([._]|$)")


def pinned_config(scale: float = PINNED_SCALE, seed: Optional[int] = None):
    """The :class:`ExperimentConfig` the baseline is captured at."""
    from ..experiments.common import ExperimentConfig

    config = ExperimentConfig(scale=scale)
    if seed is not None:
        config.seed = seed
    return config


def is_timing_name(name: str) -> bool:
    return bool(_TIMING_NAME.search(name))


def canonical_snapshot(result: Any) -> Dict[str, Any]:
    """The regression-surface view of one experiment result.

    Accepts an :class:`~repro.experiments.common.ExperimentResult` or its
    ``to_json_dict()`` / ``--json`` artifact form, and splits the
    recorded metrics into the exact-match surface (``counters``,
    ``histograms``, ``passed``) and the banded ``timings``.
    """
    if isinstance(result, dict):
        passed = bool(result.get("passed", False))
        metrics = result.get("metrics") or {}
    else:
        passed = bool(result.passed)
        metrics = result.metrics or {}
    counters = {
        name: value
        for name, value in (metrics.get("counters") or {}).items()
        if not is_timing_name(name)
    }
    histograms = {
        name: dict(stats)
        for name, stats in (metrics.get("histograms") or {}).items()
        if not is_timing_name(name)
    }
    timings = {
        name: value
        for name, value in metrics.items()
        if isinstance(value, (int, float)) and is_timing_name(name)
    }
    return {
        "passed": passed,
        "counters": dict(sorted(counters.items())),
        "histograms": dict(sorted(histograms.items())),
        "timings": dict(sorted(timings.items())),
    }


def capture(
    experiment_ids: Optional[Sequence[str]] = None,
    config: Any = None,
    jobs: int = 1,
) -> Dict[str, Any]:
    """Run the pinned experiment set and build a baseline document."""
    from ..experiments.registry import run_many

    ids = list(experiment_ids or PINNED_EXPERIMENTS)
    config = pinned_config() if config is None else config
    results = run_many(ids, config, jobs=jobs)
    return {
        "schema": SCHEMA_VERSION,
        "config": {
            "n": config.n,
            "t": config.t,
            "seed": config.seed,
            "scale": config.scale,
            "security_bits": config.security_bits,
        },
        "experiments": {
            result.experiment_id: canonical_snapshot(result) for result in results
        },
    }


def save(baseline: Dict[str, Any], path: str = DEFAULT_BASELINE_PATH) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(baseline, handle, indent=2, sort_keys=True)
        handle.write("\n")


def load(path: str = DEFAULT_BASELINE_PATH) -> Dict[str, Any]:
    with open(path, "r", encoding="utf-8") as handle:
        baseline = json.load(handle)
    if baseline.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"baseline {path!r} has schema {baseline.get('schema')!r}, "
            f"expected {SCHEMA_VERSION} (regenerate with `repro obs baseline`)"
        )
    return baseline


@dataclass
class Comparison:
    """The outcome of diffing a fresh run against a baseline."""

    drifts: List[str] = field(default_factory=list)
    """Exact-surface divergences — any entry here is a regression (or an
    intentional change that needs a baseline regeneration)."""
    timing_notes: List[str] = field(default_factory=list)
    """Timings outside the tolerance band — advisory unless strict."""
    compared: int = 0
    strict_timings: bool = False

    @property
    def ok(self) -> bool:
        if self.drifts:
            return False
        return not (self.strict_timings and self.timing_notes)

    def render(self) -> str:
        lines = []
        if self.drifts:
            lines.append(f"DRIFT: {len(self.drifts)} deterministic divergence(s):")
            lines.extend(f"  {drift}" for drift in self.drifts)
        if self.timing_notes:
            qualifier = "gating" if self.strict_timings else "advisory"
            lines.append(f"timing drift ({qualifier}):")
            lines.extend(f"  {note}" for note in self.timing_notes)
        if not lines:
            lines.append(
                f"ok: {self.compared} experiment(s) match the baseline "
                "(counters exact, timings in band)"
            )
        return "\n".join(lines)


def compare(
    baseline: Dict[str, Any],
    fresh: Dict[str, Dict[str, Any]],
    timing_tolerance: float = DEFAULT_TIMING_TOLERANCE,
    strict_timings: bool = False,
) -> Comparison:
    """Diff fresh canonical snapshots against a baseline document.

    ``fresh`` maps experiment id -> :func:`canonical_snapshot`.  Counter
    and histogram surfaces must match exactly, compared by ``diffjson``'s
    NaN-tolerant structural differ; each timing must satisfy
    ``base / tol <= fresh <= base * tol``.
    """
    from ..experiments.diffjson import describe_diff

    if timing_tolerance < 1.0:
        raise ValueError(f"timing tolerance must be >= 1.0, got {timing_tolerance}")
    report = Comparison(strict_timings=strict_timings)
    expected = baseline.get("experiments", {})
    for experiment_id in sorted(expected):
        if experiment_id not in fresh:
            report.drifts.append(f"{experiment_id}: missing from the fresh run")
    for experiment_id in sorted(fresh):
        if experiment_id not in expected:
            report.drifts.append(f"{experiment_id}: not in the baseline")
    for experiment_id in sorted(set(expected) & set(fresh)):
        base, new = expected[experiment_id], fresh[experiment_id]
        report.compared += 1
        if base.get("passed") != new.get("passed"):
            report.drifts.append(
                f"{experiment_id}: passed {base.get('passed')} -> {new.get('passed')}"
            )
        for surface in ("counters", "histograms"):
            describe_diff(
                f"{experiment_id}: {surface}",
                base.get(surface) or {},
                new.get(surface) or {},
                report.drifts,
                names=("the baseline", "the fresh run"),
            )
        base_timings = base.get("timings") or {}
        new_timings = new.get("timings") or {}
        for name in sorted(set(base_timings) & set(new_timings)):
            reference, measured = base_timings[name], new_timings[name]
            if reference <= 0:
                continue
            ratio = measured / reference
            if not (1.0 / timing_tolerance <= ratio <= timing_tolerance):
                report.timing_notes.append(
                    f"{experiment_id}: {name} {measured:.3f}s vs baseline "
                    f"{reference:.3f}s (x{ratio:.2f}, band x{timing_tolerance:g})"
                )
    return report
