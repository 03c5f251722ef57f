"""Layer-attributed tracing from outside the program.

The traced run wraps the public functions of each layer (``LAYER_MAP``)
with timers kept in memory.  A layer is a module of ``repro``; a call
into it from outside the layer opens a span, and the span's *self time*
is its duration minus the part its child spans cover.  A call from a
layer into itself (``FieldElement.__truediv__`` calling ``__mul__``, the
recursion inside ``serialization.encode``) is passed straight through:
it stays inside the open span, so ``<layer>.calls`` counts entries into
the layer.

Every wrapper costs time.  ``calibrate`` measures that cost on a no-op
function, split into the part a span records as its own self time, the
part that lands on the caller, and the cost of a same-layer pass-through.
``Tracer.layer_times`` subtracts from each layer the cost its entries
absorbed.  The subtracted total is reported as ``trace.wrapper_s``, and the
traced run checks that

    sum(<layer>.self_s) + other.self_s + trace.wrapper_s == traced wall

The calibration is a best case: inside real code a wrapped call costs
more.  The rest of the measured overhead (traced wall minus untraced wall
of the same work, less ``trace.wrapper_s``) stays in the self times of
the layers where it arose and is reported as ``trace.residual_s``.

``other`` is the root: time inside the traced unit that no wrapped
function covers.

Spans are kept only for the entries of ``SPAN_LAYERS`` (the layers
entered at most thousands of times per experiment or scenario), up to
``span_cap``; the hot layers, entered millions of times, keep only their
totals, which the Chrome export cannot show but the metrics do.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: (layer, "module:Qualified.name") — every target must resolve.
LAYER_MAP: Tuple[Tuple[str, str], ...] = (
    *(("crypto.field", f"repro.crypto.field:FieldElement.{name}") for name in (
        "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
        "__neg__", "__truediv__", "__rtruediv__", "__pow__", "inverse",
    )),
    ("crypto.field", "repro.crypto.field:PrimeField.element"),
    ("crypto.field", "repro.crypto.field:PrimeField.random"),
    *(("crypto.polynomial", f"repro.crypto.polynomial:{name}") for name in (
        "Polynomial.random", "Polynomial.__call__", "Polynomial.evaluate_many",
        "Polynomial.__add__", "Polynomial.__sub__", "Polynomial.__mul__",
        "lagrange_interpolate", "lagrange_coefficients_at_zero",
    )),
    *(("crypto.secret_sharing", f"repro.crypto.secret_sharing:ShamirSharing.{name}")
      for name in ("share", "reconstruct", "reconstruct_with_errors", "add_shares",
                   "scale_share")),
    ("mpc.bgw", "repro.mpc.bgw:bgw_evaluate"),
    ("mpc.bgw", "repro.mpc.bgw:BGWProtocol.program"),
    *(("crypto.group", f"repro.crypto.group:{name}") for name in (
        "GroupElement.__mul__", "GroupElement.__pow__", "GroupElement.inverse",
        "GroupElement.__truediv__", "SchnorrGroup.for_security", "SchnorrGroup.element",
        "SchnorrGroup.power", "SchnorrGroup.random_exponent",
        "SchnorrGroup.random_element", "SchnorrGroup.hash_to_element",
    )),
    *(("fastpath.kernels", f"repro.fastpath.kernels:{name}") for name in (
        "pow_mod", "multi_pow", "vss_expected", "pedersen_commit",
    )),
    *(("fastpath.batch", f"repro.fastpath.batch:{name}") for name in (
        "pedersen_batch_verify", "feldman_batch_verify", "pedersen_vss_batch_verify",
    )),
    *(("crypto.commitment", f"repro.crypto.commitment:{name}") for name in (
        "HashCommitment.commit", "HashCommitment.verify", "HashCommitment.check",
        "PedersenCommitment.commit", "PedersenCommitment.commit_with_randomness",
        "PedersenCommitment.verify", "PedersenCommitment.verify_batch",
        "PedersenCommitment.check", "PedersenCommitment.combine",
        "TrapdoorCommitment.equivocate",
    )),
    *(("crypto.vss", f"repro.crypto.vss:{name}") for name in (
        "FeldmanVSS.deal", "FeldmanVSS.verify_share", "FeldmanVSS.verify_shares",
        "FeldmanVSS.commitment_to_secret", "FeldmanVSS.reconstruct",
        "PedersenVSS.deal", "PedersenVSS.verify_share", "PedersenVSS.verify_shares",
        "PedersenVSS.reconstruct",
    )),
    *(("crypto.prg", f"repro.crypto.prg:{name}") for name in (
        "random_oracle", "random_oracle_int", "PRG.next_bytes", "PRG.next_int",
        "PRG.next_bit", "PRF.evaluate", "PRF.evaluate_int",
    )),
    ("serialization", "repro.serialization:encode"),
    ("serialization", "repro.serialization:encode_many"),
    # Byte metering: the scheduler imports ``payload_size`` by name, so the
    # wrapper replaces that binding as well as the defining module's.
    ("obs.metering", "repro.obs.metrics:payload_size"),
    # ``EventScheduler`` inherits ``run``; wrapping it on the subclass gives
    # event-runtime executions their own layer.
    ("net.scheduler", "repro.net.scheduler:Scheduler.run"),
    ("net.event", "repro.net.event:EventScheduler.run"),
    ("faults.injector", "repro.faults.injector:FaultInjector.apply"),
    ("obs.metrics", "repro.obs.metrics:Metrics.inc"),
    ("obs.metrics", "repro.obs.metrics:Metrics.observe"),
    *(("core", f"repro.core.{name}") for name in (
        "g:g_report", "g:g_report_from_samples", "cr:cr_report",
        "cr:cr_report_from_samples", "gstar:g_star_report", "gstar:g_star_star_report",
    )),
    ("scenario", "repro.scenario.fuzz:generate_scenario"),
    ("scenario", "repro.scenario.runner:run_scenario"),
)

#: Coordinator-side pool seams, wrapped in the ``--jobs 2`` traced pass.
#: ``_ensure_pool`` is the engine's only pool-construction seam.
PARALLEL_MAP: Tuple[Tuple[str, str], ...] = (
    ("parallel.prewarm", "repro.parallel.warmup:prewarm_for_config"),
    ("parallel.pool_start", "repro.parallel.engine:ExperimentEngine._ensure_pool"),
    ("parallel.map", "repro.parallel.engine:ExperimentEngine.map"),
)

#: Layers whose entries are kept as spans for the Chrome trace export.
SPAN_LAYERS = frozenset({
    "net.scheduler", "net.event", "faults.injector", "core", "scenario",
    "parallel.prewarm", "parallel.pool_start", "parallel.map",
})

OTHER = "other"
_INHERITED = object()  # marks a patched attribute the owner did not define itself
_clock = time.perf_counter_ns


def layer_names(layer_map: Sequence[Tuple[str, str]]) -> List[str]:
    """The distinct layers of a map, in first-seen order."""
    return list(dict.fromkeys(layer for layer, _ in layer_map))


def resolve(target: str) -> Tuple[Any, str, Any]:
    """``(owner, attribute, raw attribute)`` for ``module:Qual.name``.

    Raises ``LookupError`` naming the target when any part is missing, so a
    renamed function fails the traced run instead of dropping a layer.
    """
    module_name, _, qualname = target.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
        *path, attribute = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        raw = inspect.getattr_static(owner, attribute)
    except (ImportError, AttributeError, KeyError) as exc:
        raise LookupError(f"layer target {target!r} does not resolve: {exc!r}") from None
    if not callable(getattr(raw, "__func__", raw)):
        raise LookupError(f"layer target {target!r} is not a function")
    return owner, attribute, raw


class Tracer:
    """In-memory span recorder with per-layer self-time accounting."""

    def __init__(
        self,
        layers: Sequence[str],
        span_layers: Sequence[str] = (),
        span_cap: int = 100_000,
    ):
        self.layers = [OTHER, *layers]
        self.span_layers = frozenset(span_layers)
        size = len(self.layers)
        self.self_ns = [0] * size
        self.calls = [0] * size
        self.reentries = [0] * size
        self.child_calls = [0] * size  # wrapped entries opened from inside each layer
        self.spans: List[Optional[Tuple[int, int, int, int, str]]] = []
        self.span_cap = span_cap
        self.spans_dropped = 0
        self.trace_id = ""
        # Open entries, innermost last: layer ids and child-time accumulators
        # (index 0 is the root, ``other``), and the span indices of the open
        # span-recording entries.
        self._lids = [0]
        self._child = [0]
        self._idx = [-1]
        self._patches: List[Tuple[Any, str, Any]] = []
        self.wall_ns = 0
        self._root_start = 0

    # -- the hot path ----------------------------------------------------------

    def wrap(self, fn: Callable, layer: str) -> Callable:
        """A pass-through wrapper timing ``fn`` as an entry into ``layer``."""
        lid = self.layers.index(layer)
        lids, child, idx = self._lids, self._child, self._idx
        self_ns, calls, reentries, child_calls = (
            self.self_ns, self.calls, self.reentries, self.child_calls)
        spans = self.spans
        record = layer in self.span_layers
        clock = _clock

        def open_span() -> None:
            if len(spans) < self.span_cap:
                idx.append(len(spans))
                spans.append(None)
            else:
                idx.append(-1)
                self.spans_dropped += 1

        def close_span(start: int, end: int) -> None:
            position = idx.pop()
            if position >= 0:
                spans[position] = (lid, start, end, idx[-1], self.trace_id)

        if inspect.isgeneratorfunction(fn):
            # Party programs are generators: each resumption is one entry.
            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                if lids[-1] == lid:
                    reentries[lid] += 1
                    return (yield from fn(*args, **kwargs))
                inner = fn(*args, **kwargs)
                sent: Any = None
                thrown: Optional[BaseException] = None
                while True:
                    calls[lid] += 1
                    lids.append(lid)
                    child.append(0)
                    if record:
                        open_span()
                    start = clock()
                    try:
                        yielded = inner.throw(thrown) if thrown is not None else inner.send(sent)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        end = clock()
                        duration = end - start
                        lids.pop()
                        self_ns[lid] += duration - child.pop()
                        child[-1] += duration
                        child_calls[lids[-1]] += 1
                        if record:
                            close_span(start, end)
                    thrown = None
                    try:
                        sent = yield yielded
                    except GeneratorExit:
                        inner.close()
                        raise
                    except BaseException as exc:  # forwarded into the program
                        thrown, sent = exc, None

            return generator_wrapper

        if record:
            @functools.wraps(fn)
            def span_wrapper(*args, **kwargs):
                if lids[-1] == lid:
                    reentries[lid] += 1
                    return fn(*args, **kwargs)
                calls[lid] += 1
                lids.append(lid)
                child.append(0)
                open_span()
                start = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    end = clock()
                    duration = end - start
                    lids.pop()
                    self_ns[lid] += duration - child.pop()
                    child[-1] += duration
                    child_calls[lids[-1]] += 1
                    close_span(start, end)

            return span_wrapper

        # The hot layers' wrapper: the span wrapper without span bookkeeping.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if lids[-1] == lid:
                reentries[lid] += 1
                return fn(*args, **kwargs)
            calls[lid] += 1
            lids.append(lid)
            child.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                lids.pop()
                self_ns[lid] += duration - child.pop()
                child[-1] += duration
                child_calls[lids[-1]] += 1

        return wrapper

    # -- install / remove ------------------------------------------------------

    def install(self, layer_map: Sequence[Tuple[str, str]]) -> None:
        """Wrap every target, at its definition and at every ``repro`` import site.

        All targets resolve before any is wrapped, so a subclass target that
        inherits its function (``EventScheduler.run``) wraps the original,
        not the base class's wrapper.
        """
        for (layer, _), (owner, attribute, raw) in zip(
            layer_map, [resolve(target) for _, target in layer_map], strict=True
        ):
            if isinstance(raw, (classmethod, staticmethod)):
                replacement: Any = type(raw)(self.wrap(raw.__func__, layer))
            else:
                replacement = self.wrap(raw, layer)
            self._patch(owner, attribute, replacement)
            if not isinstance(owner, type):
                for name, module in list(sys.modules.items()):
                    if module is owner or not name.startswith("repro"):
                        continue
                    for key, value in list(vars(module).items()):
                        if value is raw:
                            self._patch(module, key, replacement)

    def _patch(self, owner: Any, attribute: str, replacement: Any) -> None:
        self._patches.append((owner, attribute, vars(owner).get(attribute, _INHERITED)))
        setattr(owner, attribute, replacement)

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self._patches):
            if original is _INHERITED:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, original)
        self._patches.clear()

    # -- the traced unit -------------------------------------------------------

    def start(self) -> None:
        self._root_start = _clock()

    def stop(self) -> None:
        if len(self._lids) != 1:
            raise RuntimeError(f"unbalanced spans at stop: {self._lids}")
        self.wall_ns = _clock() - self._root_start
        self.self_ns[0] = self.wall_ns - self._child[0]

    def open_harness_span(self, trace_id: str) -> int:
        """Open a harness-level span (one experiment) that parents later spans.

        It is not a layer: its time stays in ``other`` unless wrapped
        functions cover it.
        """
        self.trace_id = trace_id
        self._idx.append(len(self.spans))
        self.spans.append(None)
        return _clock()

    def close_harness_span(self, start: int) -> None:
        position = self._idx.pop()
        self.spans[position] = (-1, start, _clock(), self._idx[-1], self.trace_id)

    # -- results ---------------------------------------------------------------

    def calibrated_ns(self, calibration: "Calibration") -> List[int]:
        """Per layer, the calibrated wrapper cost its self time absorbed."""
        return [
            self.calls[lid] * calibration.inner_ns
            + self.child_calls[lid] * calibration.outer_ns
            + self.reentries[lid] * calibration.reentry_ns
            for lid in range(len(self.layers))
        ]

    def layer_times(self, calibration: "Calibration") -> Tuple[Dict[str, Dict[str, float]], float]:
        """Per-layer calls and self seconds net of the calibrated wrapper cost.

        Returns the table and the subtracted total in seconds.
        """
        absorbed = self.calibrated_ns(calibration)
        table = {
            layer: {"calls": self.calls[lid], "self_s": (self.self_ns[lid] - absorbed[lid]) / 1e9}
            for lid, layer in enumerate(self.layers)
        }
        return table, sum(absorbed) / 1e9

    def chrome_records(self) -> List[Dict[str, Any]]:
        """Spans in the record shape ``repro.obs.export.chrome_trace`` reads.

        Spans are stored in start order (their slot is taken on entry), and
        ``span``/``parent`` in the attributes are positions in that order.
        """
        records = []
        origin = self._root_start
        for position, span in enumerate(self.spans):
            if span is None:  # never closed
                continue
            lid, start, end, parent, trace = span
            layer = "harness" if lid < 0 else self.layers[lid]
            records.append({
                "type": "span",
                "name": trace if lid < 0 else layer,
                "path": layer,
                "start": (start - origin) / 1e9,
                "duration": (end - start) / 1e9,
                "attrs": {"trace_id": trace, "span": position, "parent": parent},
            })
        return records


@dataclass(frozen=True)
class Calibration:
    """Measured per-call wrapper cost, in ns (see the module docstring)."""

    inner_ns: int
    outer_ns: int
    reentry_ns: int


def _noop(value):
    return value


def calibrate(rounds: int = 7, calls: int = 50_000) -> Calibration:
    """Median wrapper cost over ``rounds`` loops of ``calls`` no-op calls."""
    inner, outer, reentry = [], [], []
    for _ in range(rounds):
        probe = Tracer(["probe"])
        wrapped = probe.wrap(_noop, "probe")
        start = _clock()
        for value in range(calls):
            _noop(value)
        bare = _clock() - start
        probe.start()
        start = _clock()
        for value in range(calls):
            wrapped(value)
        total = _clock() - start
        probe.stop()
        # What the spans recorded as their own self time, beyond the no-op.
        recorded = probe.self_ns[1] / calls - bare / calls
        per_call = (total - bare) / calls
        inner.append(max(0.0, recorded))
        outer.append(max(0.0, per_call - inner[-1]))
        probe._lids.append(1)  # measure the same-layer pass-through
        start = _clock()
        for value in range(calls):
            wrapped(value)
        reentry.append(max(0.0, (_clock() - start - bare) / calls))
        probe._lids.pop()
    return Calibration(*(round(statistics.median(costs)) for costs in (inner, outer, reentry)))
