"""Tests for the run context (repro.context).

The context is the one carrier of the network runtime and crypto backend
choice: read from the environment once, scoped with ``use()``, and
shipped to pool workers with every shard task.
"""

import pickle

import pytest

from repro.context import RunContext, current, use
from repro.crypto import backend
from repro.errors import InvalidParameterError
from repro.net.runtime import DropAll, RuntimeConfig, UniformDelay, resolve_runtime
from repro.parallel import ExperimentEngine


def _current_context(_):
    """Pool task: the context the worker runs the task under."""
    return current(), backend.active().name


def _event_context():
    return RunContext(
        runtime=resolve_runtime("event", "uniform:0.5,1.5", "drop-all:1"),
        crypto_backend="python",
    )


class TestFromEnv:
    def test_reads_every_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUNTIME", " Event ")
        monkeypatch.setenv("REPRO_DELAY_MODEL", "uniform:0.5,1.5")
        monkeypatch.setenv("REPRO_OMISSION", "drop-all:1")
        monkeypatch.setenv("REPRO_CRYPTO_BACKEND", "python")
        context = RunContext.from_env()
        assert context == _event_context()
        assert context.runtime.delay_model == UniformDelay(0.5, 1.5)
        assert context.runtime.omission == DropAll(1)

    def test_defaults_and_lockstep_ignores_event_knobs(self, monkeypatch):
        for key in ("REPRO_RUNTIME", "REPRO_CRYPTO_BACKEND"):
            monkeypatch.delenv(key, raising=False)
        monkeypatch.setenv("REPRO_DELAY_MODEL", "uniform:0.5,1.5")
        monkeypatch.setenv("REPRO_OMISSION", "drop-all:1")
        assert RunContext.from_env() == RunContext()
        assert RunContext().runtime == RuntimeConfig()

    def test_bad_values_fail_fast(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUNTIME", "quantum")
        with pytest.raises(InvalidParameterError):
            RunContext.from_env()
        monkeypatch.setenv("REPRO_RUNTIME", "lockstep")
        monkeypatch.setenv("REPRO_CRYPTO_BACKEND", "numba")
        with pytest.raises(InvalidParameterError):
            RunContext.from_env()


class TestScope:
    def test_auto_backend_resolves_to_a_concrete_name(self):
        expected = "gmpy2" if backend.gmpy2_available() else "python"
        assert RunContext().crypto_backend == expected
        assert RunContext(crypto_backend=" AUTO ") == RunContext()

    def test_use_scopes_and_restores(self):
        outer = current()
        context = _event_context()
        with use(context):
            assert current() is context
            assert resolve_runtime() == context.runtime
            assert backend.active().name == "python"
        assert current() is outer

    def test_pickled_copy_is_equal(self):
        context = _event_context()
        assert pickle.loads(pickle.dumps(context)) == context


def test_context_reaches_pool_workers():
    """Shards run under the coordinator's context, and only for that map."""
    context = _event_context()
    assert context != current()
    with ExperimentEngine(jobs=2) as engine:
        with use(context):
            inside = engine.map(_current_context, [(i,) for i in range(4)])
        assert inside == [(context, "python")] * 4
        # Same persistent pool, outside the block: no stale context.
        outside = engine.map(_current_context, [(i,) for i in range(4)])
        assert outside == [(current(), current().crypto_backend)] * 4
