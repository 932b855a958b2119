"""Event engine: ordering, scheduling rules, stop/run semantics.

The calendar-queue :class:`Engine` is checked against :class:`HeapModel`,
the plain ``(time, seq)`` heap it must be indistinguishable from.
"""

import heapq
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import Engine, EngineError


class HeapModel:
    """Reference engine: one heap of ``(time, seq)``-ordered events."""

    def __init__(self):
        self.now = self.events_processed = self._seq = 0
        self._heap, self._watchers, self._stopped = [], [], False

    def post(self, time, fn, *args):
        heapq.heappush(self._heap, (time, self._seq, fn, args))
        self._seq += 1

    at = post

    def after(self, delay, fn, *args):
        self.post(self.now + delay, fn, *args)

    def add_watcher(self, fn, interval):
        self._watchers.append((fn, interval))

    def stop(self):
        self._stopped = True

    @property
    def pending(self):
        return len(self._heap)

    def next_event_time(self):
        return self._heap[0][0] if self._heap else None

    def step(self):
        if not self._heap:
            return False
        self.now, _seq, fn, args = heapq.heappop(self._heap)
        self.events_processed += 1
        fn(*args)
        return True

    def run(self, until=None, max_events=None):
        self._stopped, processed = False, 0
        countdown = [interval for _fn, interval in self._watchers]
        while self._heap and not self._stopped:
            if until is not None and self._heap[0][0] > until:
                self.now = until
                break
            if max_events is not None and processed >= max_events:
                break
            self.step()
            processed += 1
            for k, (fn, interval) in enumerate(self._watchers):
                countdown[k] -= 1
                if countdown[k] == 0:
                    countdown[k] = interval
                    fn()
        return processed


def test_events_fire_in_time_order():
    eng = Engine()
    order = []
    eng.at(5, order.append, "b")
    eng.at(1, order.append, "a")
    eng.at(9, order.append, "c")
    eng.run()
    assert order == ["a", "b", "c"]
    assert eng.now == 9


def test_same_cycle_events_fire_in_schedule_order():
    eng = Engine()
    order = []
    for tag in "abcde":
        eng.at(3, order.append, tag)
    eng.run()
    assert order == list("abcde")


def test_after_is_relative_to_now():
    eng = Engine()
    seen = []

    def chain():
        seen.append(eng.now)
        if len(seen) < 3:
            eng.after(10, chain)

    eng.after(0, chain)
    eng.run()
    assert seen == [0, 10, 20]


def test_scheduling_into_the_past_raises():
    eng = Engine()
    eng.at(5, lambda: None)
    eng.run()
    with pytest.raises(EngineError):
        eng.at(3, lambda: None)


def test_negative_delay_raises():
    eng = Engine()
    with pytest.raises(EngineError):
        eng.after(-1, lambda: None)


def test_stop_halts_processing():
    eng = Engine()
    seen = []
    eng.at(1, seen.append, 1)
    eng.at(2, eng.stop)
    eng.at(3, seen.append, 3)
    eng.run()
    assert seen == [1]
    assert eng.pending == 1


def test_run_until_leaves_future_events_queued():
    eng = Engine()
    seen = []
    eng.at(1, seen.append, 1)
    eng.at(100, seen.append, 100)
    eng.run(until=50)
    assert seen == [1]
    assert eng.now == 50
    eng.run()
    assert seen == [1, 100]


def test_max_events_bounds_processing():
    eng = Engine()
    for i in range(10):
        eng.at(i, lambda: None)
    processed = eng.run(max_events=4)
    assert processed == 4
    assert eng.pending == 6


def test_events_scheduled_during_execution_run():
    eng = Engine()
    seen = []
    eng.at(1, lambda: eng.at(1, seen.append, "nested"))
    eng.run()
    assert seen == ["nested"]


def test_step_on_empty_heap_returns_false():
    assert Engine().step() is False


def test_events_processed_counter():
    eng = Engine()
    for i in range(7):
        eng.at(i, lambda: None)
    eng.run()
    assert eng.events_processed == 7


# ----------------------------------------------------------------------
# Property: the calendar queue is indistinguishable from the heap model
# ----------------------------------------------------------------------
#: per-tag behaviour: child delays (0 = same cycle) and whether to stop
actions_st = st.lists(
    st.tuples(st.lists(st.integers(0, 3), max_size=3), st.booleans()),
    min_size=1, max_size=12)

#: run calls between inspections; ``None`` fields mean "unbounded"
run_plan_st = st.lists(
    st.one_of(st.just(("step",)),
              st.tuples(st.just("run"), st.none() | st.integers(0, 40),
                        st.none() | st.integers(0, 30))),
    max_size=8)


def _drive(engine, initial, actions, plan, watch_interval):
    """Run one scripted program on ``engine``; return everything a
    caller or observer can see, in order."""
    seen = []

    def fire(tag, depth):
        seen.append(("fire", engine.now, tag))
        delays, stop = actions[tag % len(actions)]
        if stop:
            engine.stop()
        if depth < 3:
            for i, delay in enumerate(delays):
                child = tag * 4 + i + 1
                how = child % 3
                if how == 0:
                    engine.post(engine.now + delay, fire, child, depth + 1)
                elif how == 1:
                    engine.at(engine.now + delay, fire, child, depth + 1)
                else:
                    engine.after(delay, fire, child, depth + 1)

    def watch():
        seen.append(("watch", engine.now, engine.events_processed,
                     engine.pending, engine.next_event_time()))

    def observe(result):
        seen.append(("ret", result, engine.now, engine.events_processed,
                     engine.pending, engine.next_event_time()))

    for tag, (time, use_post) in enumerate(initial):
        (engine.post if use_post else engine.at)(time, fire, tag, 0)
    if watch_interval:
        engine.add_watcher(watch, watch_interval)
    observe(None)
    for call in plan:
        if call[0] == "step":
            observe(engine.step())
        else:
            observe(engine.run(until=call[1], max_events=call[2]))
    while engine.pending:           # resume after every stop() to the end
        observe(engine.run())
    return seen


@settings(max_examples=150, deadline=None)
@given(initial=st.lists(st.tuples(st.integers(0, 30), st.booleans()),
                        max_size=25),
       actions=actions_st, plan=run_plan_st,
       watch_interval=st.sampled_from([0, 1, 3, 7]))
def test_engine_matches_heap_model(initial, actions, plan, watch_interval):
    expected = _drive(HeapModel(), initial, actions, plan, watch_interval)
    assert _drive(Engine(), initial, actions, plan,
                  watch_interval) == expected


# ----------------------------------------------------------------------
# Engine: drain order is the classic (time, seq) heap order
# ----------------------------------------------------------------------
def _random_schedule(engine, log, seed, n=200, self_schedule=True):
    """Schedule n tagged events at random times, some re-scheduling."""
    r = random.Random(seed)

    def ev(tag):
        log.append((engine.now, tag))
        if self_schedule and tag % 7 == 0:
            # same-cycle re-entry plus a future echo
            engine.post(engine.now, ev, tag + 10_000)
            engine.post(engine.now + r.randrange(1, 5), ev, tag + 20_000)

    for tag in range(n):
        engine.at(r.randrange(0, 50), ev, tag)
    return log


@pytest.mark.parametrize("self_schedule", [False, True])
def test_drain_order_matches_classic_engine(self_schedule):
    model, calendar = HeapModel(), Engine()
    log_c = _random_schedule(model, [], seed=7, self_schedule=self_schedule)
    log_b = _random_schedule(calendar, [], seed=7, self_schedule=self_schedule)
    n_c = model.run()
    n_b = calendar.run()
    assert log_b == log_c
    assert n_b == n_c
    assert calendar.events_processed == model.events_processed
    assert calendar.now == model.now
    assert calendar.pending == 0


def test_same_cycle_appends_drain_in_the_same_walk():
    engine = Engine()
    log = []

    def second():
        log.append(("second", engine.now))

    def first():
        log.append(("first", engine.now))
        engine.post(engine.now, second)   # lands behind, same cycle

    engine.at(3, first)
    engine.at(5, lambda: log.append(("later", engine.now)))
    engine.run()
    assert log == [("first", 3), ("second", 3), ("later", 5)]


def test_stop_mid_bucket_preserves_tail_and_resumes():
    engine = Engine()
    log = []
    for tag in range(6):
        engine.at(4, log.append, tag)
    engine.at(4, engine.stop)
    # interleave the stop among the bucket's events
    bucket = engine._buckets[4]
    bucket.insert(3, bucket.pop())
    n1 = engine.run()
    assert log == [0, 1, 2]
    assert n1 == 4                       # 3 appends + the stop event
    assert engine.pending == 3
    assert engine.next_event_time() == 4
    n2 = engine.run()
    assert log == [0, 1, 2, 3, 4, 5]
    assert n2 == 3
    assert engine.events_processed == 7
    assert engine.pending == 0


@pytest.mark.parametrize("kwargs", [
    {"until": 20}, {"max_events": 37}, {"until": 20, "max_events": 37},
])
def test_bounded_runs_match_classic_engine(kwargs):
    model, calendar = HeapModel(), Engine()
    log_c = _random_schedule(model, [], seed=11)
    log_b = _random_schedule(calendar, [], seed=11)
    n_c = model.run(**kwargs)
    n_b = calendar.run(**kwargs)
    assert log_b == log_c
    assert n_b == n_c
    assert calendar.now == model.now
    assert calendar.events_processed == model.events_processed
    # and the leftovers drain identically
    assert calendar.run() == model.run()
    assert log_b == log_c


def test_step_and_pending_match_classic_engine():
    model, calendar = HeapModel(), Engine()
    _random_schedule(model, [], seed=3, n=40, self_schedule=False)
    _random_schedule(calendar, [], seed=3, n=40, self_schedule=False)
    while True:
        assert calendar.pending == model.pending
        assert calendar.next_event_time() == model.next_event_time()
        stepped_c, stepped_b = model.step(), calendar.step()
        assert stepped_b == stepped_c
        if not stepped_c:
            break
        assert calendar.now == model.now


def test_scheduling_guards():
    engine = Engine()
    engine.at(5, lambda: None)
    engine.run()
    with pytest.raises(EngineError):
        engine.at(engine.now - 1, lambda: None)
    with pytest.raises(EngineError):
        engine.after(-1, lambda: None)


def test_watcher_multiplexing_parity():
    model, calendar = HeapModel(), Engine()
    counts = {"c1": 0, "c2": 0, "b1": 0, "b2": 0}
    for eng, keys in ((model, ("c1", "c2")), (calendar, ("b1", "b2"))):
        _random_schedule(eng, [], seed=5, self_schedule=False)
        fns = []
        for key in keys:
            fns.append(lambda k=key: counts.__setitem__(k, counts[k] + 1))
        eng.add_watcher(fns[0], 16)
        eng.add_watcher(fns[1], 64)
        eng.run()
    calendar.remove_watcher(fns[0])
    calendar.remove_watcher(fns[1])
    assert calendar.watcher is None
    assert counts["b1"] == counts["c1"] > 0
    assert counts["b2"] == counts["c2"]


def test_direct_watcher_assignment_conflicts_with_add_watcher():
    engine = Engine()
    engine.watcher = lambda: None
    with pytest.raises(EngineError):
        engine.add_watcher(lambda: None, 8)
