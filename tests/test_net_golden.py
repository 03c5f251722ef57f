"""Golden digests of the paper's synchronous round semantics.

``tests/golden_rounds.json`` holds one digest per execution — the honest
outputs, the adversary's output and every round's message list — recorded
from the dedicated lockstep round loop before it was folded into the
event-clock loop.  That loop is gone; these digests are the reference the
one remaining loop is checked against.  Both runtime labels must
reproduce every digest: ``"lockstep"`` and ``"event"`` resolve to the same
``RushDelay(ConstantDelay(1))`` timing.

The cases follow the degeneracy property in
``tests/test_net_runtime_properties.py`` (the same protocols, n=4, t=1,
seeds 0-19), with corrupted parties added so the rushed view and the
adversary's own edges are exercised, plus fault-plan runs with crashes,
drops and delays.

To regenerate (only ever from a reference loop, never from the code
under test)::

    PYTHONPATH=src python tests/test_net_golden.py > tests/golden_rounds.json
"""

import hashlib
import json
import os

import pytest

from repro.adversaries import CommitEchoAdversary, SequentialCopier
from repro.context import RunContext, use
from repro.faults import CrashFault, FaultPlan, FaultRule
from repro.net import PassiveAdversary, run_protocol
from repro.protocols import (
    IdealSimultaneousBroadcast,
    NaiveCommitReveal,
    PiGBroadcast,
    SequentialBroadcast,
)
from repro.serialization import encode

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_rounds.json")
N, T = 4, 1
SEEDS = range(20)

PROTOCOLS = {
    "sequential": lambda: SequentialBroadcast(N, T),
    "ideal-sb": lambda: IdealSimultaneousBroadcast(N, T),
    "pi-g": lambda: PiGBroadcast(N, T, backend="ideal"),
}

ADVERSARIES = {
    "none": lambda: None,
    "passive-4": lambda: PassiveAdversary(corrupted=[4]),
}

PLANS = {
    "crash-recover": FaultPlan(
        name="golden-crash",
        seed=0xBEEF,
        rules=(
            FaultRule(kind="drop", probability=0.2),
            FaultRule(kind="delay", delay=1, probability=0.2),
            FaultRule(kind="corrupt", probability=0.1),
        ),
        crashes=(CrashFault(party=2, at_round=2, recover_at=4),),
    ),
    "delay-only": FaultPlan(
        name="golden-delay",
        seed=0xD1,
        rules=(FaultRule(kind="delay", delay=2, probability=0.5),),
    ),
    "crash-stop": FaultPlan(
        name="golden-crash-stop",
        seed=0xC5,
        crashes=(CrashFault(party=1, at_round=1),),
    ),
}


def _canonical(value):
    try:
        return encode(value)
    except TypeError:
        return repr(value).encode()


def digest(execution):
    """A short stable hash of outputs, adversary output and round traffic."""
    h = hashlib.sha256()
    h.update(_canonical(sorted(execution.outputs.items())))
    h.update(_canonical(execution.adversary_output))
    h.update(_canonical((execution.round_count, execution.timed_out)))
    for record in execution.rounds:
        h.update(_canonical(record.round))
        for m in record.messages:
            h.update(_canonical((m.sender, m.recipient, m.tag)))
            h.update(_canonical(m.payload))
    return h.hexdigest()[:20]


def _bits(seed):
    return [(seed >> k) & 1 for k in range(N)]


def cases():
    """``name -> zero-argument runner`` for every golden execution."""
    out = {}
    for seed in SEEDS:
        for pname, make_protocol in PROTOCOLS.items():
            for aname, make_adversary in ADVERSARIES.items():
                out[f"{pname}/{aname}/{seed}"] = (
                    lambda p=make_protocol, a=make_adversary, s=seed, **kw: run_protocol(
                        p(), _bits(s), adversary=a(), seed=s, **kw
                    )
                )
        out[f"sequential/copier-4-1/{seed}"] = (
            lambda s=seed, **kw: run_protocol(
                SequentialBroadcast(N, T), _bits(s),
                adversary=SequentialCopier(copier=4, target=1), seed=s, **kw,
            )
        )
        out[f"naive-commit-reveal/commit-echo-4-1/{seed}"] = (
            lambda s=seed, **kw: run_protocol(
                NaiveCommitReveal(N, T, security_bits=16), _bits(s),
                adversary=CommitEchoAdversary(copier=4, target=1), seed=s, **kw,
            )
        )
    for plan_name, plan in PLANS.items():
        for seed in range(3):
            out[f"faults/{plan_name}/{seed}"] = (
                lambda p=plan, s=seed, **kw: run_protocol(
                    SequentialBroadcast(5, 2), [1, 0, 1, 0, 1], seed=s,
                    fault_plan=p, fault_seed=13 + s, timeout_rounds=60,
                    timeout_output=(0,) * 5, **kw,
                )
            )
    return out


def record(**kwargs):
    return {name: digest(run(**kwargs)) for name, run in sorted(cases().items())}


@pytest.fixture(autouse=True, scope="module")
def _default_run_context():
    with use(RunContext()):
        yield


@pytest.mark.parametrize("runtime", ["lockstep", "event"])
def test_one_loop_reproduces_lockstep_golden_digests(runtime):
    with open(GOLDEN, encoding="utf-8") as handle:
        golden = json.load(handle)
    fresh = record(runtime=runtime)
    assert sorted(fresh) == sorted(golden)
    drifted = [name for name in golden if fresh[name] != golden[name]]
    assert not drifted, f"{len(drifted)} executions drifted, e.g. {drifted[:5]}"


if __name__ == "__main__":
    with use(RunContext()):
        print(json.dumps(record(runtime="lockstep"), indent=1, sort_keys=True))
