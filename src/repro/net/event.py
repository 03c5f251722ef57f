"""The ``runtime="event"`` label.

There is one scheduling loop, :class:`repro.net.scheduler.Scheduler`,
and it always runs on the discrete-event clock.  ``runtime="lockstep"``
fixes its timing to the paper's model (``RushDelay(ConstantDelay(1))``,
no omission); ``runtime="event"`` lets the caller choose the delay
model, omission policy and delivery budget.  At the default timing both
labels compute the same execution.  This subclass exists only so that
:attr:`repro.net.transcript.Execution.runtime` reports which label was
asked for.
"""

from __future__ import annotations

from .scheduler import Scheduler


class EventScheduler(Scheduler):
    """The one loop under the ``"event"`` label."""

    runtime_name = "event"
