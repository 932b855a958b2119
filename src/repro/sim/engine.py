"""Discrete-event simulation kernel: a deterministic calendar queue.

The whole hierarchy simulator runs on one :class:`Engine`.  Events are
``(fn, args)`` pairs kept in a **calendar**: a ``time -> [event, ...]``
bucket dict plus a min-heap over the *distinct* times only.  A run pops
one timestamp, then drains that cycle's whole bucket with a single walk;
events scheduled *into the live cycle while it drains* are appended and
picked up by the same walk.  Most events cluster on a handful of
distinct cycles (every cache level echoes an access exactly ``latency``
cycles later), so one heap operation serves several events.

Dispatch order is "by time, then by scheduling order" — the order of a
heap of ``(time, seq)`` tuples with a global monotonic sequence number.
Buckets hold their events in scheduling order, drain front to back, and
distinct times pop in heap order; a callback that schedules into the
current cycle appends behind every event already queued for it, which
is exactly where a larger ``seq`` would place it.  That total order is
what keeps runs bit-reproducible for a given seed.

Times are integer cycles throughout the simulator.  Components that need
sub-cycle pacing (the core front end) keep their own fractional
accumulators and only ever schedule on whole cycles.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Dict, List, Optional, Tuple


class EngineError(RuntimeError):
    """Raised on scheduling misuse (e.g. scheduling into the past)."""


class Engine:
    """Deterministic calendar-queue engine with integer-cycle time."""

    __slots__ = ("now", "_buckets", "_times", "_stopped", "events_processed",
                 "watcher", "watch_interval", "_watchers",
                 "_live_bucket", "_live_idx")

    def __init__(self) -> None:
        self.now: int = 0
        #: calendar: absolute cycle -> events of that cycle, in scheduling
        #: order.  A bucket stays here while it drains, so same-cycle
        #: schedules land behind the events still to run.
        self._buckets: Dict[int, List[Tuple[Callable[..., None], Tuple[Any, ...]]]] = {}
        #: min-heap over the *distinct* times present in ``_buckets``
        self._times: List[int] = []
        self._stopped: bool = False
        self.events_processed: int = 0
        #: Observation hook: when set, :meth:`run` calls ``watcher()``
        #: every ``watch_interval`` processed events.  A watcher must only
        #: *read* simulator state (never schedule or mutate), so watched
        #: runs stay byte-identical.  ``None`` (the default) keeps the
        #: zero-overhead fast loop.  Prefer :meth:`add_watcher` /
        #: :meth:`remove_watcher`, which multiplex several observers
        #: (sanitizer + metrics sampler) onto this one slot.
        self.watcher: Optional[Callable[[], None]] = None
        self.watch_interval: int = 4096
        #: registered observers: ``[fn, interval, countdown]`` per entry
        self._watchers: List[List[Any]] = []
        # Live-bucket cursor, set only while a watcher runs mid-drain so
        # ``pending``/``next_event_time`` stay exact for observers.
        self._live_bucket: Optional[List] = None
        self._live_idx: int = 0

    # ------------------------------------------------------------------
    # Observer registration
    # ------------------------------------------------------------------
    @property
    def watchers(self) -> Tuple[Callable[[], None], ...]:
        """The registered observer callables (read-only view)."""
        if self._watchers:
            return tuple(entry[0] for entry in self._watchers)
        return (self.watcher,) if self.watcher is not None else ()

    def add_watcher(self, fn: Callable[[], None], interval: int) -> None:
        """Register ``fn`` to be called every ``interval`` processed events.

        Multiple watchers share the single ``watcher`` slot through a
        trampoline ticking at the smallest registered interval; with one
        watcher the slot is wired directly, so the single-observer case
        (the sanitizer alone, or the sampler alone) pays no extra call.
        """
        if interval < 1:
            raise EngineError(f"watch interval must be >= 1, got {interval}")
        if self.watcher is not None and not self._watchers:
            raise EngineError(
                "engine.watcher was assigned directly; use add_watcher for "
                "composable observers")
        # ``==`` not ``is``: bound methods are recreated per attribute
        # access but compare equal for the same instance + function.
        if any(entry[0] == fn for entry in self._watchers):
            raise EngineError("watcher already registered")
        self._watchers.append([fn, interval, interval])
        self._rewire_watchers()

    def remove_watcher(self, fn: Callable[[], None]) -> None:
        """Unregister ``fn`` (no-op if it is not registered)."""
        kept = [entry for entry in self._watchers if entry[0] != fn]
        if len(kept) == len(self._watchers):
            return
        self._watchers = kept
        self._rewire_watchers()

    def _rewire_watchers(self) -> None:
        entries = self._watchers
        if not entries:
            self.watcher = None
        elif len(entries) == 1:
            self.watcher = entries[0][0]
            self.watch_interval = entries[0][1]
        else:
            base = min(entry[1] for entry in entries)
            for entry in entries:
                entry[2] = entry[1]
            self.watcher = self._fire_watchers
            self.watch_interval = base

    def _fire_watchers(self) -> None:
        """Trampoline for multiple observers: each keeps its own cadence."""
        base = self.watch_interval
        for entry in self._watchers:
            entry[2] -= base
            if entry[2] <= 0:
                entry[2] = entry[1]
                entry[0]()

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def at(self, time: int, fn: Callable[..., None], *args: Any) -> None:
        """Schedule ``fn(*args)`` at absolute cycle ``time``."""
        time = int(time)
        if time < self.now:
            raise EngineError(
                f"cannot schedule event at {time} (now={self.now})"
            )
        self.post(time, fn, *args)

    def after(self, delay: int, fn: Callable[..., None], *args: Any) -> None:
        """Schedule ``fn(*args)`` ``delay`` cycles from now (``delay >= 0``)."""
        if delay < 0:
            raise EngineError(f"negative delay {delay}")
        self.at(self.now + int(delay), fn, *args)

    def post(self, time: int, fn: Callable[..., None], *args: Any) -> None:
        """Hot-path variant of :meth:`at` for internal components.

        Skips the ``int()`` coercion and the past-check: the caller
        guarantees ``time`` is an integer cycle ``>= now`` (all simulator
        latencies are non-negative integers).  Event ordering is identical
        to :meth:`at`.
        """
        bucket = self._buckets.get(time)
        if bucket is None:
            self._buckets[time] = [(fn, args)]
            heapq.heappush(self._times, time)
        else:
            bucket.append((fn, args))

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stopped = True

    def release(self) -> None:
        """Drop the events still queued at the end of a completed run.

        They hold bound methods and requests of every component, which
        would keep the finished machine in reference cycles.  ``now``
        and ``events_processed`` stay readable.
        """
        self._buckets.clear()
        self._times.clear()

    @property
    def pending(self) -> int:
        """Number of events still queued.

        Computed from the calendar so scheduling stays counter-free; the
        live-bucket cursor corrects for the partially drained cycle when
        an observer reads this mid-run.
        """
        n = sum(map(len, self._buckets.values()))
        if self._live_bucket is not None:
            n -= self._live_idx
        return n

    def next_event_time(self) -> Optional[int]:
        """Timestamp of the earliest queued event (``None`` when empty).

        Observers such as the sanitizer use this instead of reaching
        into the calendar.
        """
        live = self._live_bucket
        if live is not None and self._live_idx < len(live):
            return self.now          # current bucket not fully drained
        return self._times[0] if self._times else None

    def step(self) -> bool:
        """Process one event.  Returns ``False`` when the queue is empty."""
        times = self._times
        if not times:
            return False
        t = times[0]
        bucket = self._buckets[t]
        fn, args = bucket.pop(0)
        if not bucket:
            del self._buckets[t]
            heapq.heappop(times)
        self.now = t
        self.events_processed += 1
        fn(*args)
        return True

    def run(self, until: Optional[int] = None,
            max_events: Optional[int] = None) -> int:
        """Run until the queue drains, ``stop()`` is called, ``until``
        cycles pass, or ``max_events`` events fire.  Returns events
        processed.
        """
        self._stopped = False
        if until is None and max_events is None:
            if self.watcher is None:
                return self._run_fast()
            return self._run_watched()
        return self._run_general(until, max_events)

    def _run_fast(self) -> int:
        """Full-run fast path: bulk bucket drains, no observers.

        ``events_processed`` is settled in bulk after the loop.
        """
        times = self._times
        buckets = self._buckets
        pop = heapq.heappop
        push = heapq.heappush
        processed = 0
        while times and not self._stopped:
            t = pop(times)
            bucket = buckets[t]
            self.now = t
            i = 0
            # A plain for-loop re-checks the list length on every step, so
            # events appended into the live cycle are drained by the same
            # walk.
            for fn, args in bucket:
                i += 1
                fn(*args)
                if self._stopped:
                    break
            processed += i
            if i < len(bucket):
                # stopped mid-bucket: requeue the unprocessed tail
                buckets[t] = bucket[i:]
                push(times, t)
            else:
                del buckets[t]
        self.events_processed += processed
        return processed

    def _run_watched(self) -> int:
        """Full run with the watcher fired every ``watch_interval`` events.

        ``events_processed`` is settled and the live-bucket cursor
        exposed before each watcher call, so observers (sanitizer,
        metrics sampler) see exact state between events.
        """
        times = self._times
        buckets = self._buckets
        pop = heapq.heappop
        push = heapq.heappush
        base = self.events_processed
        processed = 0
        interval = self.watch_interval
        countdown = interval
        while times and not self._stopped:
            t = pop(times)
            bucket = buckets[t]
            self.now = t
            i = 0
            while i < len(bucket):
                fn, args = bucket[i]
                i += 1
                fn(*args)
                processed += 1
                countdown -= 1
                if countdown <= 0:
                    countdown = interval
                    self.events_processed = base + processed
                    watcher = self.watcher
                    if watcher is not None:
                        self._live_bucket = bucket
                        self._live_idx = i
                        watcher()
                        self._live_bucket = None
                if self._stopped:
                    break
            if i < len(bucket):
                buckets[t] = bucket[i:]
                push(times, t)
            else:
                del buckets[t]
        self.events_processed = base + processed
        return processed

    def _run_general(self, until: Optional[int],
                     max_events: Optional[int]) -> int:
        """Bounded run (``until``/``max_events``), watcher-aware.

        The time bound is checked before the event budget, so a run that
        exhausts both still advances ``now`` to ``until``.
        """
        times = self._times
        buckets = self._buckets
        processed = 0
        watcher = self.watcher
        countdown = self.watch_interval
        while times and not self._stopped:
            t = times[0]
            if until is not None and t > until:
                self.now = until
                break
            if max_events is not None and processed >= max_events:
                break
            heapq.heappop(times)
            bucket = buckets[t]
            self.now = t
            i = 0
            while i < len(bucket):
                fn, args = bucket[i]
                i += 1
                self.events_processed += 1
                fn(*args)
                processed += 1
                if watcher is not None:
                    countdown -= 1
                    if countdown <= 0:
                        countdown = self.watch_interval
                        self._live_bucket = bucket
                        self._live_idx = i
                        watcher()
                        self._live_bucket = None
                if self._stopped:
                    break
                if max_events is not None and processed >= max_events:
                    break
            if i < len(bucket):
                buckets[t] = bucket[i:]
                heapq.heappush(times, t)
            else:
                del buckets[t]
        return processed
