"""repro.fastpath — bit-identical performance kernels for the hot paths.

The crypto layer (:mod:`repro.crypto.group`, ``commitment``, ``vss``,
``polynomial``) routes its inner loops through this package when the
fastpath is enabled (the default).  Every kernel computes *exactly* the
same values as the naive code it replaces — see :mod:`.kernels` for the
per-kernel equivalence argument and DESIGN.md §"fastpath" for the cache
invalidation rules — and the call sites mirror the naive paths' logical
``crypto.*`` counter increments, so experiment artifacts are identical
with the fastpath on or off (``experiments.diffjson`` gates this in CI).

Disable with ``REPRO_FASTPATH=0`` in the environment, or at runtime::

    from repro import fastpath
    with fastpath.disabled():
        ...  # naive kernels, for A/B benchmarks

Telemetry: ``fastpath.stats()`` snapshots the process-local ``fastpath.*``
counters (table hits/misses/builds, Horner vs ladder dispatch, Lagrange
memo hits).  They are process-local by design — cache warmth depends on
process topology, so these counters must stay out of the deterministic
ambient registry that experiment artifacts embed.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Any, Dict

from ..crypto import backend as _backend
from . import kernels
from .batch import (  # noqa: F401  (re-exported batch-verification API)
    COMBINER_BITS,
    combiner_coefficients,
    feldman_batch_verify,
    pedersen_batch_verify,
    pedersen_vss_batch_verify,
)
from .kernels import (  # noqa: F401  (re-exported kernel API)
    STATS,
    cache_sizes,
    cached_table_keys,
    clear_caches,
    ensure_table,
    lagrange_cache_get,
    lagrange_cache_put,
    multi_pow,
    pedersen_commit,
    pow_mod,
    vss_expected,
)

# Import-time process switch, outside the run context by design: the
# kernels are bit-identical to the naive path, so a worker resolving a
# different value cannot move any artifact (diffjson gates this in CI).
_ENABLED = os.environ.get("REPRO_FASTPATH", "1").strip().lower() not in ("0", "false", "off")  # repro: allow[ENV001]


def enabled() -> bool:
    """Whether the fastpath kernels are active in this process."""
    return _ENABLED


def configure(enable: bool) -> None:
    """Switch the fastpath on or off process-wide."""
    global _ENABLED
    _ENABLED = bool(enable)


@contextmanager
def disabled():
    """Scope with the fastpath off (the naive reference path)."""
    previous = _ENABLED
    configure(False)
    try:
        yield
    finally:
        configure(previous)


def stats() -> Dict[str, Any]:
    """A snapshot of the process-local ``fastpath.*`` telemetry counters."""
    snapshot = STATS.snapshot()
    snapshot["caches"] = cache_sizes()
    snapshot["enabled"] = _ENABLED
    snapshot["backend"] = _backend.active().name
    return snapshot


def reset_stats() -> Dict[str, Any]:
    """Snapshot-and-clear the ``fastpath.*`` telemetry registry.

    Returns the snapshot taken *before* clearing, so a caller measuring
    one workload in a long-lived process (a warm pool worker serving many
    runs) can bracket it: ``reset_stats()`` → run → ``stats()``.  Only
    the counters are cleared — the kernel caches themselves (and their
    warmth) are untouched; use :func:`clear_caches` for those.
    """
    snapshot = stats()
    STATS.reset()
    return snapshot
