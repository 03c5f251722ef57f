"""Message timing for the one scheduling loop (the runtime seam).

Every protocol execution runs :class:`repro.net.scheduler.Scheduler`'s
loop on a deterministic :class:`EventClock`.  What varies is the timing:
a :class:`DelayModel` gives each message edge its latency, drawn from
the edge's seeded stream, and an optional :class:`OmissionPolicy` loses
deliveries.  No wall time is ever read, so a run is an exact function
of ``(seed, delay model, omission policy)`` and replays are
bit-identical.

The paper's rushing adversary is *one point* in this delay-model space:
:class:`RushDelay` gives honest→corrupted edges zero latency (the
adversary hears the current round's honest traffic before corrupted
parties speak) and every other edge the base model's latency.
``RushDelay(ConstantDelay(1))`` with no omission is Section 3.1's
synchronous rounds, and the default.

Two runtime labels select timing:

* ``"lockstep"`` — the paper's timing, fixed: delay-model, omission and
  event-budget overrides are rejected rather than silently ignored;
* ``"event"`` — the same loop with the caller's timing; at the default
  timing it computes the lockstep execution exactly.

Selection: :func:`run_protocol` takes ``runtime=``/``delay_model=``/
``omission=`` keywords; with no explicit choice the current
:class:`repro.context.RunContext` decides (its default comes from the
``REPRO_RUNTIME``, ``REPRO_DELAY_MODEL`` and ``REPRO_OMISSION``
environment variables, which is how the CI runtime matrix re-runs the
whole tier-1 suite under both labels), defaulting to lockstep.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..errors import InvalidParameterError

#: Smallest latency a non-rushed edge may have: delivery strictly after
#: the sending batch, so a pathological model cannot stall the clock.
MIN_EDGE_DELAY = 1e-9


def _mix_edge_seed(seed: int, sender: int, recipient: int) -> int:
    """A stable 64-bit stream seed for one directed channel edge."""
    value = (seed or 0) & 0xFFFFFFFFFFFFFFFF
    value = (value * 0x9E3779B97F4A7C15 + 0x632BE59BD9B4E019) & 0xFFFFFFFFFFFFFFFF
    value ^= (sender * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    value = (value * 0xFF51AFD7ED558CCD) & 0xFFFFFFFFFFFFFFFF
    value ^= (recipient * 0xC4CEB9FE1A85EC53) & 0xFFFFFFFFFFFFFFFF
    return value


class _SpecValue:
    """Value semantics through ``spec()``: a model equals any same-spec copy.

    Models travel to pool workers inside a :class:`repro.context.RunContext`,
    so a pickled copy must compare equal to the coordinator's original.
    """

    def spec(self) -> Dict[str, Any]:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.spec()!r})"

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and other.spec() == self.spec()

    def __hash__(self) -> int:
        return hash(repr(self))


# -- delay models -------------------------------------------------------------------


class DelayModel(_SpecValue):
    """Per-edge message latency policy.

    ``edge_delay`` draws one latency (in abstract ticks — never wall
    time) from the edge's seeded stream; ``rushes`` marks edges into
    corrupted parties that deliver *instantly within the sending round*,
    which is how the paper's rushing advantage is expressed as a timing
    policy.
    """

    name = "abstract"

    #: The latency of every edge when it is one constant that draws
    #: nothing; ``None`` when it is drawn per edge.
    fixed_delay: Optional[float] = None

    def edge_delay(self, sender: int, recipient: int, rng: random.Random) -> float:
        raise NotImplementedError

    def rushes(self, sender: int, recipient: int, corrupted: frozenset) -> bool:
        return False

    def spec(self) -> Dict[str, Any]:
        return {"model": self.name}


class ConstantDelay(DelayModel):
    """Every edge delivers after exactly ``ticks`` (default: one round)."""

    name = "constant"

    def __init__(self, ticks: float = 1.0) -> None:
        if ticks <= 0:
            raise InvalidParameterError("constant delay must be positive")
        self.ticks = float(ticks)
        self.fixed_delay = self.ticks

    def edge_delay(self, sender: int, recipient: int, rng: random.Random) -> float:
        return self.ticks

    def spec(self) -> Dict[str, Any]:
        return {"model": self.name, "ticks": self.ticks}


class UniformDelay(DelayModel):
    """Latency drawn uniformly from ``[low, high]`` per message edge."""

    name = "uniform"

    def __init__(self, low: float = 0.5, high: float = 1.5) -> None:
        if low < 0 or high < low:
            raise InvalidParameterError(
                f"uniform delay needs 0 <= low <= high, got [{low}, {high}]"
            )
        self.low = float(low)
        self.high = float(high)

    def edge_delay(self, sender: int, recipient: int, rng: random.Random) -> float:
        return rng.uniform(self.low, self.high)

    def spec(self) -> Dict[str, Any]:
        return {"model": self.name, "low": self.low, "high": self.high}


class ExponentialDelay(DelayModel):
    """Memoryless latency with the given ``mean`` (partial synchrony's tail)."""

    name = "exponential"

    def __init__(self, mean: float = 1.0) -> None:
        if mean <= 0:
            raise InvalidParameterError("exponential delay needs a positive mean")
        self.mean = float(mean)

    def edge_delay(self, sender: int, recipient: int, rng: random.Random) -> float:
        return rng.expovariate(1.0 / self.mean)

    def spec(self) -> Dict[str, Any]:
        return {"model": self.name, "mean": self.mean}


class RushDelay(DelayModel):
    """The rushing adversary as a delay model.

    Honest→corrupted edges deliver instantly (latency zero, *within* the
    sending batch, before the adversary chooses corrupted messages);
    every other edge — honest→honest, corrupted→anyone — pays the base
    model's latency, i.e. the adversary's own edges deliver last.  With a
    :class:`ConstantDelay` base this is the paper's Section 3.1
    synchronous round with a rushing adversary.
    """

    name = "rush"

    def __init__(self, base: Optional[DelayModel] = None) -> None:
        self.base = base if base is not None else ConstantDelay(1.0)
        self.fixed_delay = self.base.fixed_delay

    def edge_delay(self, sender: int, recipient: int, rng: random.Random) -> float:
        return self.base.edge_delay(sender, recipient, rng)

    def rushes(self, sender: int, recipient: int, corrupted: Any) -> bool:
        return recipient in corrupted and sender not in corrupted

    def spec(self) -> Dict[str, Any]:
        return {"model": self.name, "base": self.base.spec()}


#: Delay-model constructors by name, for CLI / environment specs.
DELAY_MODELS = {
    "constant": ConstantDelay,
    "uniform": UniformDelay,
    "exponential": ExponentialDelay,
    "rush": RushDelay,
}


def delay_model_from_spec(spec: Any) -> Optional[DelayModel]:
    """Parse ``"uniform:0.5,1.5"`` / ``"rush"`` / ``None`` / a DelayModel.

    ``rush`` wraps the remaining spec as its base model, so
    ``"rush:uniform:0.5,1.5"`` is a rushing adversary over jittery links.
    """
    if spec is None or isinstance(spec, DelayModel):
        return spec
    text = str(spec).strip()
    if not text:
        return None
    head, _, rest = text.partition(":")
    head = head.lower()
    if head not in DELAY_MODELS:
        raise InvalidParameterError(
            f"unknown delay model {head!r}; known: {sorted(DELAY_MODELS)}"
        )
    if head == "rush":
        return RushDelay(delay_model_from_spec(rest) if rest else None)
    if not rest:
        return DELAY_MODELS[head]()
    try:
        args = [float(part) for part in rest.split(",") if part.strip()]
    except ValueError as exc:
        raise InvalidParameterError(f"bad delay-model args {rest!r}: {exc}") from None
    return DELAY_MODELS[head](*args)


# -- omission policies --------------------------------------------------------------


class OmissionPolicy(_SpecValue):
    """Which scheduled deliveries are silently lost."""

    name = "abstract"

    def omits(self, sender: int, recipient: int, message: Any, rng: random.Random) -> bool:
        return False

    def spec(self) -> Dict[str, Any]:
        return {"policy": self.name}


class NoOmission(OmissionPolicy):
    name = "none"


class DropAll(OmissionPolicy):
    """Omit every message *sent by* the given parties (a send-omission fault)."""

    name = "drop-all"

    def __init__(self, parties: Any) -> None:
        if isinstance(parties, int):
            parties = (parties,)
        self.parties = frozenset(int(p) for p in parties)

    def omits(self, sender: int, recipient: int, message: Any, rng: random.Random) -> bool:
        return sender in self.parties

    def spec(self) -> Dict[str, Any]:
        return {"policy": self.name, "parties": sorted(self.parties)}


class DropEdges(OmissionPolicy):
    """Omit traffic on specific directed ``(sender, recipient)`` edges."""

    name = "drop-edges"

    def __init__(self, edges: Any) -> None:
        self.edges = frozenset((int(s), int(r)) for s, r in edges)

    def omits(self, sender: int, recipient: int, message: Any, rng: random.Random) -> bool:
        return (sender, recipient) in self.edges

    def spec(self) -> Dict[str, Any]:
        return {"policy": self.name, "edges": sorted(self.edges)}


class RandomDrop(OmissionPolicy):
    """Omit each delivery independently with the given probability.

    Draws come from the delivery edge's seeded clock stream, so the drop
    pattern replays exactly with the run.
    """

    name = "random"

    def __init__(self, probability: float) -> None:
        if not 0.0 <= probability <= 1.0:
            raise InvalidParameterError("drop probability must be in [0, 1]")
        self.probability = float(probability)

    def omits(self, sender: int, recipient: int, message: Any, rng: random.Random) -> bool:
        return rng.random() < self.probability

    def spec(self) -> Dict[str, Any]:
        return {"policy": self.name, "probability": self.probability}


def omission_from_spec(spec: Any) -> Optional[OmissionPolicy]:
    """Parse ``"drop-all:1"`` / ``"drop-edges:1-2,3-4"`` / ``"random:0.1"``."""
    if spec is None or isinstance(spec, OmissionPolicy):
        return spec
    text = str(spec).strip()
    if not text or text.lower() == "none":
        return None
    head, _, rest = text.partition(":")
    head = head.lower()
    if head == "drop-all":
        return DropAll(int(part) for part in rest.split(",") if part.strip())
    if head == "drop-edges":
        edges = []
        for part in rest.split(","):
            part = part.strip()
            if not part:
                continue
            s, _, r = part.partition("-")
            edges.append((int(s), int(r)))
        return DropEdges(edges)
    if head == "random":
        return RandomDrop(float(rest))
    raise InvalidParameterError(
        f"unknown omission policy {head!r}; known: drop-all, drop-edges, random"
    )


# -- the deterministic discrete-event clock -----------------------------------------


class EventClock:
    """A discrete-event clock with seeded per-edge randomness and no wall time.

    Events are ordered by ``(time, insertion sequence)``: the clock keeps
    one list of items per arrival instant plus a heap of the distinct
    instants, so simultaneous deliveries pop in schedule order and the
    whole event history is a pure function of the clock seed and the
    schedule calls.  Each directed channel edge ``(sender, recipient)``
    owns an independent RNG stream derived from the clock seed, so one
    edge's delay draws can never perturb another's.
    """

    __slots__ = ("seed", "now", "_instants", "_pending", "_edge_rngs")

    def __init__(self, seed: Optional[int] = None) -> None:
        self.seed = int(seed or 0)
        self.now = 0.0
        self._instants: List[float] = []
        self._pending: Dict[float, List[Any]] = {}
        self._edge_rngs: Dict[Tuple[int, int], random.Random] = {}

    def edge_rng(self, sender: int, recipient: int) -> random.Random:
        """The RNG stream owned by the directed edge ``sender -> recipient``."""
        key = (sender, recipient)
        rng = self._edge_rngs.get(key)
        if rng is None:
            rng = random.Random(_mix_edge_seed(self.seed, sender, recipient))
            self._edge_rngs[key] = rng
        return rng

    def schedule(self, delay: float, item: Any) -> float:
        """Enqueue ``item`` for ``now + delay``; returns the arrival time."""
        arrival = self.now + (delay if delay > MIN_EDGE_DELAY else MIN_EDGE_DELAY)
        items = self._pending.get(arrival)
        if items is None:
            self._pending[arrival] = [item]
            heapq.heappush(self._instants, arrival)
        else:
            items.append(item)
        return arrival

    def __len__(self) -> int:
        return sum(len(items) for items in self._pending.values())

    @property
    def empty(self) -> bool:
        return not self._instants

    def tick(self, ticks: float = 1.0) -> float:
        """Advance time with no deliveries (a silent round)."""
        self.now += ticks
        return self.now

    def advance(self) -> Optional[Tuple[float, List[Any]]]:
        """Pop every event at the next occupied instant, advancing ``now``.

        Returns ``(time, items)`` in schedule order, or ``None`` when the
        queue is empty.
        """
        if not self._instants:
            return None
        time = heapq.heappop(self._instants)
        self.now = time
        return time, self._pending.pop(time)


# -- runtime selection --------------------------------------------------------------


@dataclass(frozen=True)
class RuntimeConfig:
    """One fully resolved runtime choice, shippable to pool workers."""

    kind: str = "lockstep"
    delay_model: Optional[DelayModel] = None
    omission: Optional[OmissionPolicy] = None
    max_events: Optional[int] = None

    def resolved_delay_model(self) -> DelayModel:
        """The timing to run: the paper's rushing round unless overridden."""
        return self.delay_model if self.delay_model is not None else RushDelay()

    def spec(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"runtime": self.kind}
        if self.delay_model is not None:
            out["delay_model"] = self.delay_model.spec()
        if self.omission is not None:
            out["omission"] = self.omission.spec()
        if self.max_events is not None:
            out["max_events"] = self.max_events
        return out


def resolve_runtime(
    runtime: Any = None,
    delay_model: Any = None,
    omission: Any = None,
    max_events: Optional[int] = None,
) -> RuntimeConfig:
    """Normalize the caller's runtime choice into a :class:`RuntimeConfig`.

    ``runtime`` may be a :class:`RuntimeConfig` (returned as-is), a kind
    string, or ``None`` — in which case the current
    :class:`repro.context.RunContext` decides the kind and, for the event
    runtime, the defaults of the other knobs.  Explicit ``delay_model`` /
    ``omission`` / ``max_events`` arguments require the event label: the
    lockstep label's timing is fixed by the paper's model, and silently
    ignoring a requested delay distribution would misreport what was
    simulated.
    """
    if isinstance(runtime, RuntimeConfig):
        return runtime
    ambient: Optional[RuntimeConfig] = None
    if runtime is None:
        from ..context import current  # deferred: repro.context imports this module

        ambient = current().runtime
        runtime = ambient.kind
    kind = str(runtime).strip().lower() or "lockstep"
    if kind not in ("lockstep", "event"):
        raise InvalidParameterError(
            f"unknown runtime {kind!r}; known: ['event', 'lockstep']"
        )
    model = delay_model_from_spec(delay_model)
    policy = omission_from_spec(omission)
    if kind == "event" and ambient is not None:
        model = ambient.delay_model if model is None else model
        policy = ambient.omission if policy is None else policy
        max_events = ambient.max_events if max_events is None else max_events
    if kind != "event" and (model is not None or policy is not None or max_events is not None):
        raise InvalidParameterError(
            "delay_model/omission/max_events require runtime='event'; "
            "the lockstep runtime's timing is fixed by the paper's model"
        )
    return RuntimeConfig(kind=kind, delay_model=model, omission=policy, max_events=max_events)

