"""The run context: which network runtime and crypto backend a run uses.

A :class:`RunContext` is one frozen value holding the resolved
:class:`repro.net.runtime.RuntimeConfig` and the crypto backend name.
It is resolved once at the edge — a CLI builds it from its flags, a
library caller from :meth:`RunContext.from_env` or by hand — and made
current with :func:`use`.  Everything downstream asks :func:`current`:

* ``resolve_runtime(None, ...)`` takes the ambient runtime from it;
* :func:`repro.crypto.backend.active` resolves its backend from it;
* :class:`repro.parallel.ExperimentEngine` ships it inside every shard
  task, and the worker runs the task under :func:`use` of it, so a pool
  worker simulates exactly what the coordinator would — under ``fork``
  and ``spawn`` alike, and with no context left behind for the next task.

:meth:`RunContext.from_env` is the only reader of ``REPRO_RUNTIME``,
``REPRO_DELAY_MODEL``, ``REPRO_OMISSION`` and ``REPRO_CRYPTO_BACKEND``
(analyzer rule ENV001 enforces this).  Outside any :func:`use` scope the
context is the one those variables describe, read on first use; this is
how the CI runtime and backend matrices re-run the whole suite.
"""

from __future__ import annotations

import os
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .crypto import backend as _backend
from .net.runtime import RuntimeConfig, resolve_runtime

#: The environment variables :meth:`RunContext.from_env` reads.
ENV_RUNTIME = "REPRO_RUNTIME"
ENV_DELAY_MODEL = "REPRO_DELAY_MODEL"
ENV_OMISSION = "REPRO_OMISSION"
ENV_BACKEND = "REPRO_CRYPTO_BACKEND"


@dataclass(frozen=True)
class RunContext:
    """One resolved choice of network runtime and crypto backend."""

    runtime: RuntimeConfig = field(default_factory=RuntimeConfig)
    crypto_backend: str = "auto"

    def __post_init__(self) -> None:
        # Resolve "auto" to the backend it picks (and fail fast on an
        # unknown or unavailable one), so equal choices compare equal.
        name = _backend.resolve_backend(self.crypto_backend).name
        object.__setattr__(self, "crypto_backend", name)

    @classmethod
    def from_env(cls) -> "RunContext":
        """The context the ``REPRO_*`` environment variables describe.

        The delay model and omission policy are read only for the event
        runtime: the lockstep runtime's timing is fixed by the paper.
        """
        kind = os.environ.get(ENV_RUNTIME, "").strip().lower() or "lockstep"
        if kind == "event":
            runtime = resolve_runtime(
                kind, os.environ.get(ENV_DELAY_MODEL), os.environ.get(ENV_OMISSION)
            )
        else:
            runtime = resolve_runtime(kind)
        return cls(runtime=runtime, crypto_backend=os.environ.get(ENV_BACKEND, "auto"))


#: The context made current by the innermost :func:`use` scope, if any.
_CURRENT: Optional[RunContext] = None
#: The environment's context, read on the first :func:`current` outside a scope.
_DEFAULT: Optional[RunContext] = None


def current() -> RunContext:
    """The context protocol executions in this process run under."""
    global _DEFAULT
    if _CURRENT is not None:
        return _CURRENT
    if _DEFAULT is None:
        _DEFAULT = RunContext.from_env()
    return _DEFAULT


@contextmanager
def use(context: RunContext) -> Iterator[RunContext]:
    """Scope with ``context`` current, its crypto backend active."""
    global _CURRENT
    previous = _CURRENT
    with ExitStack() as scope:
        if context.crypto_backend != _backend.active().name:
            scope.enter_context(_backend.using(context.crypto_backend))
        _CURRENT = context
        try:
            yield context
        finally:
            _CURRENT = previous
