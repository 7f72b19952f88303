"""Layer spans recorded from outside the program.

The traced run wraps public functions and methods of each layer with
:class:`Tracer` wrappers.  A span has a name, a start, an end and the span
that caused it (its parent on the call stack); all spans of one operation
share the operation's id.  A layer's self time is its span durations
minus the part covered by child spans.

``MemorySubsystem.tick`` runs once per simulated cycle that is not
fast-forwarded, so its spans are aggregated (count and time) instead of
kept one by one; every other span is kept in memory and written out when
the operation ends.

The wrappers cost time of their own.  :meth:`Tracer.overhead_s` works it
out as each span's call count times the measured cost of one wrapped
call, so the traced run needs no second, untraced run to estimate it.
"""

from __future__ import annotations

import functools
import statistics
import time
from typing import Any, Callable, Dict, List, Optional

_now = time.perf_counter


class Tracer:
    """Span recorder plus the layer counters the wrappers collect."""

    def __init__(self, op_id: str) -> None:
        self.op_id = op_id
        self.spans: List[Dict[str, Any]] = []
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.counts: Dict[str, float] = {}
        # Call stack of open spans: [name, start, child_time, index].
        self._stack: List[List[Any]] = []
        self._undo: List[Callable[[], None]] = []
        self._aggregated: set = set()

    # -- spans ------------------------------------------------------------

    def enter(self, name: str, *, keep: bool = True) -> None:
        index = -1
        if keep:
            index = len(self.spans)
            parent = self._stack[-1][3] if self._stack else None
            self.spans.append(
                {"op": self.op_id, "name": name, "parent": parent}
            )
        self._stack.append([name, _now(), 0.0, index])

    def exit(self) -> float:
        """Close the innermost span; returns its self time."""
        end = _now()
        name, start, child, index = self._stack.pop()
        duration = end - start
        own = duration - child
        if self._stack:
            self._stack[-1][2] += duration
        self.self_s[name] = self.self_s.get(name, 0.0) + own
        self.calls[name] = self.calls.get(name, 0) + 1
        if index >= 0:
            self.spans[index].update(start=start, end=end, self_s=own)
        return own

    def depth_of(self, name: str) -> int:
        return sum(1 for frame in self._stack if frame[0] == name)

    def add(self, counter: str, value: float) -> None:
        self.counts[counter] = self.counts.get(counter, 0) + value

    # -- wrapping ---------------------------------------------------------

    def wrap(
        self,
        owner: Any,
        attr: str,
        span: str,
        *,
        keep: bool = True,
        before: Optional[Callable[..., Any]] = None,
        after: Optional[Callable[..., None]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a wrapper recording *span*.

        ``before(*args)`` runs just inside the span and its return value
        is passed to ``after(state, result, self_s, *args)``, which runs
        once the span has closed.
        """
        original = getattr(owner, attr)
        tracer = self
        if not keep:
            self._aggregated.add(span)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            state = before(*args) if before is not None else None
            tracer.enter(span, keep=keep)
            try:
                result = original(*args, **kwargs)
            finally:
                own = tracer.exit()
            if after is not None:
                after(state, result, own, *args)
            return result

        setattr(owner, attr, wrapper)
        self._undo.append(lambda: setattr(owner, attr, original))

    def unwrap(self) -> None:
        while self._undo:
            self._undo.pop()()

    def overhead_s(self) -> float:
        """Seconds the wrappers added to the calls recorded so far: each
        span's calls times the cost of one kept or aggregated wrapper.
        The ``before``/``after`` hooks are not counted; they run on rare
        calls only.  Call after :meth:`unwrap`."""
        cost = {keep: wrapper_cost(keep) for keep in (True, False)}
        return sum(calls * cost[name not in self._aggregated]
                   for name, calls in self.calls.items())


def wrapper_cost(keep: bool, calls: int = 10_000, repeats: int = 5) -> float:
    """Seconds one :class:`Tracer` wrapper adds to a call: the median time
    of *calls* wrapped calls of a no-op method, less that of bare calls,
    per call."""

    class Probe:
        def call(self) -> None:
            return None

    probe = Probe()

    def timed() -> float:
        call = probe.call
        start = _now()
        for _ in range(calls):
            call()
        return _now() - start

    bare = statistics.median(timed() for _ in range(repeats))
    tracer = Tracer("calibration")
    tracer.enter("root")
    tracer.wrap(Probe, "call", "probe", keep=keep)
    wrapped = statistics.median(timed() for _ in range(repeats))
    tracer.unwrap()
    return max(wrapped - bare, 0.0) / calls
