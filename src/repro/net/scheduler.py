"""The one scheduling loop: the paper's rounds on a discrete-event clock.

Round semantics (Section 3.1 of the paper):

1. At the start of round r every honest party receives the messages sent
   to it in round r-1 (by anyone) and produces its round-r messages.
2. The adversary then sees all round-r honest traffic (it reads every
   channel) and, *rushing*, receives instantly the round-r honest messages
   addressed to corrupted parties — plus everything on the broadcast
   channel — before choosing the corrupted parties' round-r messages.
3. All round-r messages are buffered for delivery at round r+1.

The loop expresses that model as timing.  Every message becomes a
delivery on a seeded :class:`~repro.net.runtime.EventClock` at
``now + delay``, the delay coming from a
:class:`~repro.net.runtime.DelayModel`; each round pops every delivery
at the next occupied instant (or ticks once when nothing is in flight),
and edges the model *rushes* deliver inside the sending round instead.
The paper's model is the default timing ``RushDelay(ConstantDelay(1))``
with no :class:`~repro.net.runtime.OmissionPolicy`: one tick of latency
on every edge, honest→corrupted edges instant.  Other timings reorder,
batch and drop deliveries; a round is then one *event batch*.  No wall
time is ever read, so a run is a pure function of ``(seed, delay model,
omission policy)``.

The run ends when every honest party's program has returned, or aborts
with :class:`NetworkError` after ``max_rounds`` rounds or ``max_events``
deliveries (the latter after a flight-recorder dump).  Silent rounds are
ordinary rounds: a program may wait any number of them.

Two optional degradation hooks extend the clean model:

* ``fault_injector`` (see :mod:`repro.faults`) rewrites each round's
  honest traffic — dropping, delaying, duplicating, or corrupting
  messages and suppressing crashed senders — *before* the rushing
  adversary observes it, so faults degrade the adversary's view exactly
  as they degrade honest deliveries;
* ``timeout_rounds`` bounds the run gracefully: instead of raising
  :class:`NetworkError`, parties still running past the deadline are
  finalized with ``timeout_output`` (protocols pass the paper's default
  bit vector), and the execution is marked ``timed_out``.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence

from ..errors import NetworkError, ProtocolError
from ..obs import flightrec as _flightrec
from ..obs import runtime as _obs
from ..obs.metrics import payload_size
from .adversary import Adversary
from .message import BROADCAST, Draft, Inbox, Message, RoundRecord
from .party import PartyContext, PartyState
from .runtime import DelayModel, EventClock, OmissionPolicy, RushDelay
from .transcript import Execution

DEFAULT_MAX_ROUNDS = 10_000

#: Hard ceiling on processed deliveries (the event-count analogue of
#: ``max_rounds``); generous — a smoke-scale run is a few thousand events.
DEFAULT_MAX_EVENTS = 1_000_000

ProgramFactory = Callable[[PartyContext, Any], Any]


def bucket_by_recipient(
    messages: Sequence[Message], recipients: Iterable[int]
) -> Dict[int, List[Message]]:
    """One-pass routing index: recipient -> messages addressed to it.

    Equivalent to ``{i: [m for m in messages if m.addressed_to(i)]}`` (the
    per-party scan it replaces, including message order within each
    bucket), but walks the traffic once instead of once per recipient —
    the scan was quadratic in round size for the rushing instant-view
    construction.
    """
    buckets: Dict[int, List[Message]] = {i: [] for i in recipients}
    for message in messages:
        if message.recipient == -1:  # BROADCAST: addressed to everyone
            for bucket in buckets.values():
                bucket.append(message)
        else:
            bucket = buckets.get(message.recipient)
            if bucket is not None:
                bucket.append(message)
    return buckets


class Scheduler:
    """Drives one protocol execution to completion.

    ``runtime_name`` is the label the :mod:`repro.net.runtime` seam
    records on the returned :class:`Execution`; this class carries
    ``"lockstep"`` and :class:`repro.net.event.EventScheduler` ``"event"``.
    Both run this loop — the label only says how the timing was chosen.
    The RNG-derivation order in ``__init__`` is part of the determinism
    contract and must not change.
    """

    #: Recorded on the returned :class:`Execution` (the runtime seam's tag).
    runtime_name = "lockstep"

    def __init__(
        self,
        n: int,
        program_factory: ProgramFactory,
        inputs: Sequence[Any],
        adversary: Adversary,
        rng: random.Random,
        config: Any = None,
        session: str = "",
        max_rounds: int = DEFAULT_MAX_ROUNDS,
        seed: Any = None,
        fault_injector: Any = None,
        timeout_rounds: Optional[int] = None,
        timeout_output: Any = None,
        delay_model: Optional[DelayModel] = None,
        omission: Optional[OmissionPolicy] = None,
        max_events: Optional[int] = None,
    ) -> None:
        if len(inputs) != n:
            raise ProtocolError(f"expected {n} inputs, got {len(inputs)}")
        if len(adversary.corrupted) >= n and n > 0:
            raise ProtocolError("at least one party must remain honest")
        if not all(1 <= i <= n for i in adversary.corrupted):
            raise ProtocolError(
                f"corrupted set {set(adversary.corrupted)} out of range for n={n}"
            )
        self.n = n
        self.inputs = tuple(inputs)
        self.adversary = adversary
        self.rng = rng
        self.config = config
        self.session = session
        self.max_rounds = max_rounds
        self.seed = seed
        self.fault_injector = fault_injector
        self.timeout_rounds = timeout_rounds
        self.timeout_output = timeout_output
        self.delay_model = delay_model if delay_model is not None else RushDelay()
        self.omission = omission
        self.max_events = max_events if max_events is not None else DEFAULT_MAX_EVENTS
        self._program_factory = program_factory

        self.honest_ids = [i for i in range(1, n + 1) if i not in adversary.corrupted]
        self._honest: Dict[int, PartyState] = {}
        for i in self.honest_ids:
            ctx = PartyContext(
                party_id=i,
                n=n,
                rng=random.Random(rng.getrandbits(64)),
                config=config,
                session=session,
            )
            self._honest[i] = PartyState(
                party_id=i, generator=program_factory(ctx, self.inputs[i - 1])
            )

        corrupted_inputs = {
            i: self.inputs[i - 1] for i in adversary.corrupted
        }
        # Give PassiveAdversary-style adversaries the honest program.
        installer = getattr(adversary, "set_program_factory", None)
        if installer is not None:
            installer(program_factory)
        adversary.setup(
            n=n,
            config=config,
            corrupted_inputs=corrupted_inputs,
            rng=random.Random(rng.getrandbits(64)),
            session=session,
        )

        # One latency for every edge and no omission: nothing draws from
        # an edge, so a round's traffic lands as one mailbox and the clock
        # needs no per-edge streams — nor a seed drawn from ``rng``, which
        # the paper's timing leaves untouched.
        self._fixed_delay = (
            self.delay_model.fixed_delay if omission is None else None
        )
        self._clock_seed = 0 if self._fixed_delay is not None else rng.getrandbits(64)

    # -- main loop -------------------------------------------------------------

    def run(self) -> Execution:
        tracer = _obs.tracer
        if not tracer.enabled:
            return self._run_rounds()
        with tracer.span(
            "scheduler.run",
            n=self.n,
            session=self.session,
            corrupted=sorted(self.adversary.corrupted),
            seed=self.seed,
        ) as span:
            execution = self._run_rounds()
            span.set(rounds=execution.round_count)
            return execution

    def _run_rounds(self) -> Execution:
        metrics = _obs.metrics
        n = self.n
        everyone = range(1, n + 1)
        model = self.delay_model
        omission = self.omission
        fixed_delay = self._fixed_delay
        corrupted = self.adversary.corrupted
        clock = EventClock(self._clock_seed)
        # The corrupted set is fixed for the run, and with it the rushed
        # edges: (sender, corrupted recipient) pairs delivered instantly.
        rushed_edges = frozenset(
            (s, r) for r in corrupted for s in everyone if model.rushes(s, r, corrupted)
        )
        # Broadcast recipients that are not rushed, per sender.
        broadcast_to: Dict[int, tuple] = {}
        rounds: List[RoundRecord] = []
        # The clock carries mailboxes (recipient -> messages in arrival
        # order); ``inboxes`` is the one that landed this round.
        inboxes: Dict[int, List[Message]] = {}

        round_number = 0
        events = 0
        timed_out = False
        while True:
            round_number += 1
            if self.timeout_rounds is not None and round_number > self.timeout_rounds:
                timed_out = True
                self._note_timeout(round_number)
                break
            if round_number > self.max_rounds:
                raise NetworkError(
                    f"protocol did not terminate within {self.max_rounds} rounds"
                )

            # 1. Deliveries: everything landing at the next occupied
            #    instant; with nothing in flight the round passes silently.
            if round_number > 1:
                step = clock.advance()
                if step is None:
                    clock.tick()
                    inboxes = {}
                else:
                    mailboxes = step[1]
                    inboxes = mailboxes[0]
                    for mailbox in mailboxes[1:]:
                        for recipient, messages in mailbox.items():
                            inboxes.setdefault(recipient, []).extend(messages)
                    events += sum(map(len, inboxes.values()))
                    if events > self.max_events:
                        _flightrec.dump_if_active(
                            "event-budget",
                            session=self.session,
                            batch=round_number,
                            events=events,
                            delay_model=self.delay_model.spec(),
                            unfinished=self._unfinished(),
                        )
                        raise NetworkError(
                            f"runtime processed more than {self.max_events}"
                            f" deliveries without terminating"
                        )

            # 2. Honest parties speak (everyone unfinished gets an inbox,
            #    empty or not — synchronous programs keep their cadence).
            honest_traffic: List[Message] = []
            for i in self.honest_ids:
                state = self._honest[i]
                if state.finished:
                    continue
                if round_number == 1:
                    drafts = state.start()
                else:
                    drafts = state.resume(Inbox(inboxes.get(i)))
                honest_traffic.extend(draft.stamped(i) for draft in drafts)

            # 2b. Faults strike honest traffic before the adversary sees it:
            #     crashes and drops remove messages, delays shift them to a
            #     later round, corruption rewrites payloads in place.
            if self.fault_injector is not None:
                honest_traffic = self.fault_injector.apply(
                    round_number, honest_traffic
                )

            # 3. Rushing: corrupted parties hear what was delivered to them
            #    plus, on rushed edges, this very round's honest traffic.
            rushed: Dict[int, Inbox] = {}
            instant = bucket_by_recipient(honest_traffic, corrupted) if corrupted else {}
            for i in corrupted:
                view = list(inboxes.get(i, ()))
                for message in instant[i]:
                    if (message.sender, i) not in rushed_edges:
                        continue
                    if omission is not None and omission.omits(
                        message.sender, i, message, clock.edge_rng(message.sender, i)
                    ):
                        self._note_omission(round_number, message, i)
                        continue
                    view.append(message)
                rushed[i] = Inbox(view)

            corrupted_outboxes = self.adversary.act(round_number, rushed)
            corrupted_traffic = self._collect_corrupted_traffic(corrupted_outboxes)

            traffic = honest_traffic + corrupted_traffic
            self.adversary.observe(round_number, traffic)
            rounds.append(RoundRecord(round=round_number, messages=traffic))

            self._observe_round(
                round_number,
                traffic,
                honest_traffic,
                corrupted_traffic,
                time=clock.now,
                events=events,
            )

            # 4. Route every message to its recipients, minus rushed edges.
            delivered = 0
            arriving: Dict[int, List[Message]] = {i: [] for i in everyone}
            for message in traffic:
                sender = message.sender
                recipient = message.recipient
                if recipient == BROADCAST:
                    delivered += n
                    targets = broadcast_to.get(sender)
                    if targets is None:
                        targets = broadcast_to[sender] = tuple(
                            r for r in everyone if (sender, r) not in rushed_edges
                        )
                    for r in targets:
                        arriving[r].append(message)
                elif 1 <= recipient <= n:
                    delivered += 1
                    if not (rushed_edges and (sender, recipient) in rushed_edges):
                        arriving[recipient].append(message)
                else:
                    raise ProtocolError(f"message to unknown party {recipient}")

            # 5. Put them on the clock: one mailbox when every edge has the
            #    same latency, else one per edge and message.
            if fixed_delay is not None:
                if any(arriving.values()):
                    clock.schedule(fixed_delay, arriving)
            else:
                for recipient, messages in arriving.items():
                    for message in messages:
                        sender = message.sender
                        edge_rng = clock.edge_rng(sender, recipient)
                        if omission is not None and omission.omits(
                            sender, recipient, message, edge_rng
                        ):
                            self._note_omission(round_number, message, recipient)
                            delivered -= 1
                            continue
                        delay = model.edge_delay(sender, recipient, edge_rng)
                        clock.schedule(delay, {recipient: [message]})
            if metrics is not None:
                metrics.inc("net.messages.delivered", delivered)

            if all(state.finished for state in self._honest.values()):
                break

        return self._finalize(rounds, timed_out)

    # -- bookkeeping ---------------------------------------

    def _unfinished(self) -> List[int]:
        return [i for i, s in self._honest.items() if not s.finished]

    def _note_timeout(self, round_number: int) -> None:
        """Record a graceful deadline hit (metrics, trace, flight recorder)."""
        metrics = _obs.metrics
        if metrics is not None:
            metrics.inc("net.timeouts")
        unfinished = self._unfinished()
        if _obs.tracer.enabled:
            _obs.tracer.event(
                "scheduler.timeout", round=round_number, unfinished=unfinished
            )
        flight = _obs.flightrec
        if flight is not None:
            flight.push(
                "scheduler.timeout",
                round=round_number,
                session=self.session,
                unfinished=unfinished,
            )
            _flightrec.dump_if_active(
                "timeout",
                session=self.session,
                round=round_number,
                timeout_rounds=self.timeout_rounds,
                unfinished=unfinished,
            )

    def _collect_corrupted_traffic(
        self, corrupted_outboxes: Dict[int, Any]
    ) -> List[Message]:
        """Validate and stamp the adversary's outboxes for one round."""
        corrupted_traffic: List[Message] = []
        for i, drafts in corrupted_outboxes.items():
            if i not in self.adversary.corrupted:
                raise ProtocolError(
                    f"adversary produced messages for uncorrupted party {i}"
                )
            for draft in drafts or []:
                if isinstance(draft, Message):
                    # Allow adversaries to forge sender fields only among
                    # corrupted identities (channels are authenticated).
                    if draft.sender not in self.adversary.corrupted:
                        raise ProtocolError(
                            "adversary tried to forge an honest sender"
                        )
                    corrupted_traffic.append(draft)
                elif isinstance(draft, Draft):
                    corrupted_traffic.append(draft.stamped(i))
                else:
                    raise ProtocolError(
                        f"adversary yielded {type(draft).__name__}"
                    )
        return corrupted_traffic

    def _observe_round(
        self,
        round_number: int,
        traffic: Sequence[Message],
        honest_traffic: Sequence[Message],
        corrupted_traffic: Sequence[Message],
        time: float,
        events: int,
    ) -> None:
        """Fold one round into metrics/trace/flight records.

        ``time`` (the clock instant) and ``events`` (deliveries so far)
        travel with the trace and flight-recorder round summaries.
        """
        metrics = _obs.metrics
        tracer = _obs.tracer
        flight = _obs.flightrec
        if metrics is not None:
            metrics.inc("net.rounds")
            metrics.inc("net.messages.sent", len(traffic))
            metrics.inc("net.messages.honest", len(honest_traffic))
            metrics.inc("net.messages.corrupted", len(corrupted_traffic))
            round_bytes = 0
            for message in traffic:
                size = payload_size(message.payload)
                round_bytes += size
                metrics.inc(f"net.messages.sent.party.{message.sender}")
                metrics.inc(f"net.bytes.sent.party.{message.sender}", size)
                if message.is_broadcast:
                    metrics.inc("net.messages.broadcast")
            metrics.inc("net.bytes.sent", round_bytes)
            metrics.observe("net.round.messages", len(traffic))
            metrics.observe("net.round.bytes", round_bytes)
        if tracer.enabled:
            tracer.event(
                "scheduler.round",
                round=round_number,
                messages=len(traffic),
                honest=len(honest_traffic),
                corrupted=len(corrupted_traffic),
                time=time,
                events=events,
            )
        if flight is not None:
            for message in traffic:
                flight.record_message(round_number, message)
            flight.push(
                "round",
                round=round_number,
                session=self.session,
                messages=len(traffic),
                honest=len(honest_traffic),
                corrupted=len(corrupted_traffic),
                time=time,
                events=events,
            )

    def _note_omission(self, round_number: int, message: Message, recipient: int) -> None:
        metrics = _obs.metrics
        if metrics is not None:
            metrics.inc("net.messages.omitted")
        tracer = _obs.tracer
        if tracer.enabled:
            tracer.event(
                "net.omission",
                batch=round_number,
                sender=message.sender,
                recipient=recipient,
                tag=message.tag,
            )
        flight = _obs.flightrec
        if flight is not None:
            flight.push(
                "omission",
                batch=round_number,
                session=self.session,
                sender=message.sender,
                recipient=recipient,
                tag=message.tag,
            )

    def _finalize(self, rounds: List[RoundRecord], timed_out: bool) -> Execution:
        """Collect outputs (applying the timeout fallback) into an Execution."""
        metrics = _obs.metrics
        outputs = {}
        for i, state in self._honest.items():
            if state.finished or not timed_out:
                outputs[i] = state.output
            elif callable(self.timeout_output):
                outputs[i] = self.timeout_output(i)
            else:
                outputs[i] = self.timeout_output
        faults = (
            list(self.fault_injector.records)
            if self.fault_injector is not None
            else []
        )
        if self.fault_injector is not None and metrics is not None:
            undelivered = self.fault_injector.undelivered
            if undelivered:
                metrics.inc("faults.delayed.undelivered", undelivered)
        return Execution(
            n=self.n,
            corrupted=frozenset(self.adversary.corrupted),
            inputs=self.inputs,
            outputs=outputs,
            adversary_output=self.adversary.finish(),
            rounds=rounds,
            config=self.config,
            seed=self.seed,
            faults=faults,
            timed_out=timed_out,
            runtime=self.runtime_name,
        )
