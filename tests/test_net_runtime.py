"""Tests for the pluggable network runtime (repro.net.runtime / .event).

Covers the seam itself (selection, run context, validation), the delay and
omission model vocabulary, the deterministic :class:`EventClock`, the
scheduler's progress guards, and — the load-bearing part — the
regression pinning the paper's rushing-attack verdicts when the rushing
adversary is re-derived as the :class:`RushDelay` delay-model point.
"""

import pytest

from repro.adversaries import CommitEchoAdversary, SequentialCopier
from repro.context import RunContext, use
from repro.errors import InvalidParameterError, NetworkError
from repro.net import run_protocol
from repro.net.message import broadcast
from repro.net.runtime import (
    ConstantDelay,
    DropAll,
    DropEdges,
    EventClock,
    ExponentialDelay,
    MIN_EDGE_DELAY,
    NoOmission,
    RandomDrop,
    RushDelay,
    RuntimeConfig,
    UniformDelay,
    delay_model_from_spec,
    omission_from_spec,
    resolve_runtime,
)
from repro.protocols import GennaroBroadcast, NaiveCommitReveal, SequentialBroadcast


@pytest.fixture(autouse=True)
def _default_run_context():
    """This file tests explicit runtime selection; the CI runtime matrix
    exports REPRO_RUNTIME globally, so run under the default context."""
    with use(RunContext()):
        yield


class EchoProtocol:
    def __init__(self, n):
        self.n = n

    def setup(self, rng):
        return None

    def program(self, ctx, value):
        inbox = yield [broadcast(value, tag="val")]
        heard = inbox.payload_by_sender(tag="val")
        return tuple(heard.get(i) for i in range(1, ctx.n + 1))


class NeverTerminates:
    def __init__(self):
        self.n = 2

    def setup(self, rng):
        return None

    def program(self, ctx, value):
        while True:
            yield []


class SilentThenEcho:
    """Silent for ``SILENT_ROUNDS`` rounds, then returns its own input."""

    SILENT_ROUNDS = 12

    def __init__(self):
        self.n = 2

    def setup(self, rng):
        return None

    def program(self, ctx, value):
        for _ in range(self.SILENT_ROUNDS):
            yield []
        return value


class ChattyForever:
    """Keeps broadcasting forever — traffic never stops, the queue never drains."""

    def __init__(self):
        self.n = 2

    def setup(self, rng):
        return None

    def program(self, ctx, value):
        while True:
            yield [broadcast("again", tag="x")]


# -- delay models -------------------------------------------------------------------


class TestDelayModels:
    def test_constant(self):
        model = ConstantDelay(2.5)
        assert model.edge_delay(1, 2, None) == 2.5
        assert model.spec() == {"model": "constant", "ticks": 2.5}
        with pytest.raises(InvalidParameterError):
            ConstantDelay(0)

    def test_uniform_bounds(self):
        import random

        model = UniformDelay(0.5, 1.5)
        rng = random.Random(1)
        draws = [model.edge_delay(1, 2, rng) for _ in range(200)]
        assert all(0.5 <= d <= 1.5 for d in draws)
        assert len(set(draws)) > 1
        with pytest.raises(InvalidParameterError):
            UniformDelay(2.0, 1.0)

    def test_exponential_positive(self):
        import random

        model = ExponentialDelay(mean=0.7)
        rng = random.Random(2)
        draws = [model.edge_delay(1, 2, rng) for _ in range(200)]
        assert all(d > 0 for d in draws)
        with pytest.raises(InvalidParameterError):
            ExponentialDelay(0)

    def test_rush_marks_only_honest_to_corrupted_edges(self):
        model = RushDelay()
        corrupted = frozenset({3})
        assert model.rushes(1, 3, corrupted)
        assert not model.rushes(3, 1, corrupted)  # adversary edges deliver last
        assert not model.rushes(1, 2, corrupted)
        assert not model.rushes(3, 3, corrupted)

    def test_rush_defaults_to_one_round_base(self):
        model = RushDelay()
        assert isinstance(model.base, ConstantDelay)
        assert model.edge_delay(1, 2, None) == 1.0

    def test_spec_parsing(self):
        assert delay_model_from_spec(None) is None
        model = delay_model_from_spec("uniform:0.5,1.5")
        assert isinstance(model, UniformDelay)
        assert (model.low, model.high) == (0.5, 1.5)
        nested = delay_model_from_spec("rush:uniform:0.25,2.0")
        assert isinstance(nested, RushDelay)
        assert isinstance(nested.base, UniformDelay)
        passthrough = ConstantDelay(3.0)
        assert delay_model_from_spec(passthrough) is passthrough
        with pytest.raises(InvalidParameterError):
            delay_model_from_spec("warp:9")
        with pytest.raises(InvalidParameterError):
            delay_model_from_spec("uniform:fast,slow")


class TestOmissionPolicies:
    def test_drop_all_by_sender(self):
        policy = DropAll(1)
        assert policy.omits(1, 2, None, None)
        assert not policy.omits(2, 1, None, None)

    def test_drop_edges_directed(self):
        policy = DropEdges([(1, 2)])
        assert policy.omits(1, 2, None, None)
        assert not policy.omits(2, 1, None, None)

    def test_random_drop_is_seeded(self):
        import random

        policy = RandomDrop(0.5)
        first = [policy.omits(1, 2, None, random.Random(9)) for _ in range(1)]
        second = [policy.omits(1, 2, None, random.Random(9)) for _ in range(1)]
        assert first == second
        with pytest.raises(InvalidParameterError):
            RandomDrop(1.5)

    def test_spec_parsing(self):
        assert omission_from_spec(None) is None
        assert omission_from_spec("none") is None
        policy = omission_from_spec("drop-all:1,3")
        assert isinstance(policy, DropAll)
        assert policy.parties == frozenset({1, 3})
        edges = omission_from_spec("drop-edges:1-2,3-4")
        assert isinstance(edges, DropEdges)
        assert edges.edges == frozenset({(1, 2), (3, 4)})
        rnd = omission_from_spec("random:0.25")
        assert isinstance(rnd, RandomDrop)
        assert rnd.probability == 0.25
        assert isinstance(NoOmission(), NoOmission)
        with pytest.raises(InvalidParameterError):
            omission_from_spec("teleport:1")


# -- the clock ----------------------------------------------------------------------


class TestEventClock:
    def test_orders_by_time_then_schedule_order(self):
        clock = EventClock(seed=1)
        clock.schedule(2.0, "late")
        clock.schedule(1.0, "early-a")
        clock.schedule(1.0, "early-b")
        time, items = clock.advance()
        assert time == pytest.approx(1.0)
        assert items == ["early-a", "early-b"]  # schedule order, not heap noise
        time, items = clock.advance()
        assert time == pytest.approx(2.0)
        assert items == ["late"]
        assert clock.advance() is None
        assert clock.empty

    def test_zero_delay_is_clamped_strictly_forward(self):
        clock = EventClock(seed=1)
        arrival = clock.schedule(0.0, "x")
        assert arrival > clock.now
        assert arrival - clock.now >= MIN_EDGE_DELAY

    def test_edge_streams_are_independent_and_replayable(self):
        a = EventClock(seed=42)
        b = EventClock(seed=42)
        assert a.edge_rng(1, 2).random() == b.edge_rng(1, 2).random()
        # Distinct edges own distinct streams (directionally, too).
        c = EventClock(seed=42)
        assert c.edge_rng(1, 2).random() != c.edge_rng(2, 1).random()

    def test_tick_advances_without_deliveries(self):
        clock = EventClock(seed=0)
        clock.tick()
        assert clock.now == pytest.approx(1.0)
        assert len(clock) == 0


# -- runtime selection --------------------------------------------------------------


class TestResolveRuntime:
    def test_default_is_lockstep(self):
        config = resolve_runtime()
        assert config.kind == "lockstep"

    def test_env_variable_selects_runtime(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUNTIME", "event")
        monkeypatch.setenv("REPRO_DELAY_MODEL", "uniform:0.5,1.5")
        monkeypatch.setenv("REPRO_OMISSION", "drop-all:2")
        with use(RunContext.from_env()):
            config = resolve_runtime()
        assert config.kind == "event"
        assert isinstance(config.delay_model, UniformDelay)
        assert isinstance(config.omission, DropAll)

    def test_explicit_argument_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUNTIME", "event")
        with use(RunContext.from_env()):
            assert resolve_runtime().kind == "event"
            assert resolve_runtime("lockstep").kind == "lockstep"

    def test_config_passthrough(self):
        config = RuntimeConfig(kind="event", delay_model=ConstantDelay(2.0))
        assert resolve_runtime(config) is config

    def test_event_default_delay_model_is_rushing_round(self):
        resolved = RuntimeConfig(kind="event").resolved_delay_model()
        assert isinstance(resolved, RushDelay)
        assert isinstance(resolved.base, ConstantDelay)

    def test_lockstep_rejects_event_only_knobs(self):
        with pytest.raises(InvalidParameterError):
            resolve_runtime("lockstep", delay_model="uniform:0.5,1.5")
        with pytest.raises(InvalidParameterError):
            resolve_runtime("lockstep", omission="drop-all:1")
        with pytest.raises(InvalidParameterError):
            resolve_runtime("lockstep", max_events=10)

    def test_unknown_runtime_rejected(self):
        with pytest.raises(InvalidParameterError):
            resolve_runtime("quantum")


# -- the event scheduler ------------------------------------------------------------


class TestEventSchedulerEquivalence:
    """Under the default RushDelay(ConstantDelay(1)) the event engine is lockstep."""

    def test_echo_matches_lockstep_exactly(self):
        lockstep = run_protocol(EchoProtocol(3), [10, 20, 30], seed=1)
        event = run_protocol(EchoProtocol(3), [10, 20, 30], seed=1, runtime="event")
        assert event.runtime == "event" and lockstep.runtime == "lockstep"
        assert event.outputs == lockstep.outputs
        assert event.rounds == lockstep.rounds
        assert event.round_count == lockstep.round_count

    def test_execution_records_runtime(self):
        assert run_protocol(EchoProtocol(2), [1, 2], seed=1).runtime == "lockstep"

    def test_event_runtime_is_replay_identical(self):
        first = run_protocol(
            EchoProtocol(3), [1, 0, 1], seed=7, runtime="event",
            delay_model="uniform:0.5,1.5",
        )
        second = run_protocol(
            EchoProtocol(3), [1, 0, 1], seed=7, runtime="event",
            delay_model="uniform:0.5,1.5",
        )
        assert first.outputs == second.outputs
        assert first.rounds == second.rounds


class TestEventSchedulerGuards:
    def test_silent_stall_raises_without_timeout(self):
        # A protocol that never returns runs silent rounds until the
        # max_rounds guard fires.
        with pytest.raises(NetworkError):
            run_protocol(
                NeverTerminates(), [None, None], seed=1,
                runtime="event", max_rounds=30,
            )

    def test_silent_stall_finalizes_under_timeout(self):
        execution = run_protocol(
            NeverTerminates(), [None, None], seed=1,
            runtime="event", timeout_rounds=13,
            timeout_output="gave-up",
        )
        assert execution.timed_out
        assert execution.round_count == 13
        assert execution.outputs == {1: "gave-up", 2: "gave-up"}

    def test_event_budget_guard(self):
        with pytest.raises(NetworkError):
            run_protocol(
                ChattyForever(), [None, None], seed=1,
                runtime="event", max_events=50,
            )

    def test_omission_starves_echo(self):
        # Drop everything party 1 sends: party 2 never hears it.
        execution = run_protocol(
            EchoProtocol(2), [5, 6], seed=1,
            runtime="event", omission="drop-all:1",
            timeout_rounds=6, timeout_output=None,
        )
        assert execution.outputs[2] == (None, 6)


class TestSilentRounds:
    """Silent rounds are ordinary rounds under both runtime labels.

    A program may wait any number of rounds without sending; the run only
    ends when it returns, at ``timeout_rounds`` or at ``max_rounds``.
    """

    @pytest.mark.parametrize("runtime", ["lockstep", "event"])
    @pytest.mark.parametrize("timeout_rounds", [None, 20])
    def test_twelve_silent_rounds_then_output(self, runtime, timeout_rounds):
        execution = run_protocol(
            SilentThenEcho(), [3, 4], seed=1, runtime=runtime,
            timeout_rounds=timeout_rounds, timeout_output="gave-up",
        )
        assert not execution.timed_out
        assert execution.outputs == {1: 3, 2: 4}
        assert execution.round_count == SilentThenEcho.SILENT_ROUNDS + 1
        assert execution.runtime == runtime


class TestRushDelayRegression:
    """The paper's rushing-attack verdicts, reproduced as a delay-model point.

    These assertions are copies of the lockstep attack tests in
    ``tests/test_protocols_attacks.py`` run under ``runtime="event"``: the
    event engine with :class:`RushDelay` timing must reach the exact same
    verdicts (attack succeeds / protocol resists) the lockstep rushing
    scheduler reaches.
    """

    def test_sequential_copier_still_succeeds(self):
        protocol = SequentialBroadcast(4, 1)
        for x1 in (0, 1):
            lockstep = protocol.announced(
                (x1, 1, 0, 0), adversary=SequentialCopier(copier=4, target=1), seed=2
            )
            event = protocol.announced(
                (x1, 1, 0, 0),
                adversary=SequentialCopier(copier=4, target=1),
                seed=2,
                runtime="event",
            )
            assert event == lockstep
            assert event[3] == x1  # the copy attack still lands

    def test_commit_echo_still_breaks_naive_commit_reveal(self):
        protocol = NaiveCommitReveal(4, 1)
        for x1 in (0, 1):
            announced = protocol.announced(
                (x1, 1, 0, 0),
                adversary=CommitEchoAdversary(copier=4, target=1),
                seed=2,
                runtime="event",
            )
            assert announced[3] == x1

    def test_gennaro_still_resists_echo(self):
        protocol = GennaroBroadcast(4, 1, security_bits=16)
        announced = protocol.announced(
            (1, 1, 0, 0),
            adversary=CommitEchoAdversary(
                copier=4, target=1, commit_tag="gen:commit", reveal_tag="gen:reveal"
            ),
            seed=3,
            runtime="event",
        )
        assert announced[3] == 0  # disqualified, constant default
        assert announced[:3] == (1, 1, 0)

    def test_without_rushing_the_echo_attack_fails(self):
        # Control: take the rushing edge away (plain constant delays, the
        # adversary hears everything one batch late) and the reveal echo
        # misses its window — the verdict flips, proving RushDelay is what
        # carries the paper's adversary model, not the event engine itself.
        protocol = NaiveCommitReveal(4, 1)
        announced = protocol.announced(
            (1, 1, 0, 0),
            adversary=CommitEchoAdversary(copier=4, target=1),
            seed=2,
            runtime="event",
            delay_model=ConstantDelay(1.0),
            timeout_rounds=20,
        )
        assert announced[3] == 0  # no copy: the echo arrived too late
