"""HSA signals: completion objects for kernels and async copies.

ROCr exposes signals as the synchronization primitive for everything the
paper traces: kernel completion (``signal_wait_scacquire``) and async
memory copies (waited on or completed through ``signal_async_handler``).
A signal here wraps one :class:`~repro.sim.Completion` event plus
bookkeeping for the trace layer.
"""

from __future__ import annotations

from typing import Any, Optional

from ..sim import Completion, Environment, Event

__all__ = ["Signal"]


class Signal:
    """A one-shot completion signal."""

    __slots__ = ("env", "event", "completed_at", "tag")

    def __init__(self, env: Environment, tag: str = ""):
        self.env = env
        self.event: Event = Completion(env)
        self.completed_at: Optional[float] = None
        self.tag = tag

    @property
    def done(self) -> bool:
        return self.event.triggered

    @property
    def value(self) -> Any:
        return self.event.value

    def complete(self, value: Any = None) -> None:
        self.completed_at = self.env.now
        self.event.succeed(value)

    def __repr__(self) -> str:  # pragma: no cover
        return f"<Signal {self.tag!r} done={self.done}>"
