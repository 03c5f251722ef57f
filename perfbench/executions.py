"""Per-execution timing of the untraced experiment workloads.

The host this benchmark runs on is shared.  Its other tenants slow every
process down by 10-40% for a few seconds at a time, and a 30 s pass of the
paper suite catches a different share of those slow periods on each run:
its raw wall time spreads by 10-20% between runs of the same code.

The experiments are made of many protocol executions of a few dozen kinds
(one kind = runtime, party program, Θ backend, party count, adversary
class and number of corruptions), and the executions of one kind do the
same work up to their inputs.  This module times every execution
(``Scheduler.run``, both runtimes) and charges each one at the first
quartile of its kind, the speed of the host between slow periods:

    quiet wall = measured wall - excess / workers
    excess     = sum over executions of (time - first quartile of its kind)

``excess`` is the time executions spent above that quartile; the workers
share it, so the wall grows by about ``excess / workers``.  The same
correction applies to one experiment's ``wall_seconds`` with the
executions it ran.  Work outside executions (protocol set-up, the
estimators, about a sixth of the paper suite) is kept as measured.  The
estimate assumes that executions of one kind cost the same: a change that
makes most executions of a kind cheap and the rest dear (a cache that
mostly hits) is under-counted, and shows in the raw walls the run prints
as notes.

Pool tasks are timed in the pool's workers, which are forked after
``install`` and so inherit the timed functions; ``ExperimentEngine.map``
is wrapped so that each task ships its executions back with its payload.
Each execution is recorded with the experiment that ran it: the one the
wrapped ``run_experiment`` entered in the same process, or for a shard
task the one the coordinator is running.  Only the benchmark's own
process is patched, and the wrappers do not touch arguments or results:
the artifact digests of timed and traced runs must agree.
"""

from __future__ import annotations

import functools
import statistics
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

Kind = Tuple[Any, ...]
#: ``(experiment id, kind, seconds)``
Record = Tuple[Optional[str], Kind, float]

# Module state, not timer state: the patched ``Scheduler.run`` is process-wide,
# and forked pool workers record into their own copy of it.
#: Where ``Scheduler.run`` records; swapped per task.
sink: List[Record] = []
#: The experiment that the wrapped ``run_experiment`` entered in this process.
current: Optional[str] = None


def kind_of(scheduler: Any) -> Kind:
    """The cost class of one execution."""
    factory = scheduler._program_factory
    protocol = getattr(factory, "__self__", None)
    return (
        type(scheduler).__name__,
        getattr(factory, "__qualname__", type(factory).__name__),
        getattr(protocol, "backend", None),
        scheduler.n,
        type(scheduler.adversary).__name__,
        len(scheduler.adversary.corrupted),
    )


class Timed:
    """A task payload with the executions the task ran."""

    def __init__(self, payload: Any, executions: List[Record]):
        self.payload = payload
        self.executions = executions


class TimedTask:
    """``fn`` run with its own execution sink; picklable when ``fn`` is."""

    def __init__(self, fn: Callable[..., Any]):
        self.fn = fn

    def __call__(self, *args: Any) -> Timed:
        global sink
        outer, sink = sink, []
        try:
            payload = self.fn(*args)
            return Timed(payload, sink)
        finally:
            sink = outer


class ExecutionTimer:
    """Installs the timed ``Scheduler.run``, ``ExperimentEngine.map`` and
    ``registry.run_experiment`` for good."""

    def __init__(self) -> None:
        self.pool_executions = 0

    def install(self) -> None:
        from repro.experiments import registry
        from repro.net.scheduler import Scheduler
        from repro.parallel.engine import ExperimentEngine

        run = Scheduler.run
        engine_map = ExperimentEngine.map
        run_experiment = registry.run_experiment
        clock = time.perf_counter
        timer = self

        @functools.wraps(run)
        def timed_run(scheduler):
            start = clock()
            execution = run(scheduler)
            sink.append((current, kind_of(scheduler), clock() - start))
            return execution

        @functools.wraps(engine_map)
        def timed_map(engine, fn, arglists):
            results = engine_map(engine, TimedTask(fn), arglists)
            if engine.jobs > 1 and len(results) > 1:
                timer.pool_executions += sum(len(r.executions) for r in results)
            for result in results:
                if current is None:
                    sink.extend(result.executions)
                else:
                    sink.extend((current, kind, seconds) for _, kind, seconds in result.executions)
            return [result.payload for result in results]

        @functools.wraps(run_experiment)
        def entered_experiment(experiment_id, *args, **kwargs):
            global current
            outer, current = current, experiment_id
            try:
                return run_experiment(experiment_id, *args, **kwargs)
            finally:
                current = outer

        Scheduler.run = timed_run
        ExperimentEngine.map = timed_map
        registry.run_experiment = entered_experiment

    @staticmethod
    def take() -> List[Record]:
        """The executions recorded since the last call."""
        executions = list(sink)
        sink.clear()
        return executions


def excess_seconds(executions: Sequence[Record]) -> Dict[Optional[str], float]:
    """Per experiment, the time its executions spent above the first quartile of their kind."""
    by_kind: Dict[Kind, List[float]] = {}
    for _, kind, seconds in executions:
        by_kind.setdefault(kind, []).append(seconds)
    quartiles = {kind: statistics.quantiles(times, n=4)[0] if len(times) > 1 else times[0]
                 for kind, times in by_kind.items()}
    excess: Dict[Optional[str], float] = {}
    for experiment_id, kind, seconds in executions:
        excess[experiment_id] = excess.get(experiment_id, 0.0) + seconds - quartiles[kind]
    return excess
