"""Runtime sanitizer: every invariant proven by fault injection.

Each test runs a tiny system partway, corrupts one internal structure the
way a real bug would (a stale tag-index entry, a leaked MSHR entry, a
dropped waiter, skewed PMC accounting, an event scheduled in the past, an
inclusion hole), then runs a full sanitizer sweep and asserts the *right*
invariant trips — ``SanitizerError.rule`` carries the ID.  A healthy
mid-flight system must sweep clean, and a sanitized end-to-end run must
produce a byte-identical result to an unsanitized one (the sanitizer
observes, never perturbs).
"""

from dataclasses import replace
from heapq import heappush

import pytest

from repro.checks.sanitize import (ALL_INVARIANTS, SAN_INCL, SAN_MSHR,
                                   SAN_PMC, SAN_TAG, SAN_TIME, SAN_WAITER,
                                   Sanitizer, SanitizerError,
                                   DEFAULT_INTERVAL, attach_sanitizer)
from repro.sim import System, SystemConfig
from repro.sim.mshr import MSHREntry
from repro.sim.request import AccessType, MemRequest


@pytest.fixture(params=["fresh"])
def machine(request):
    """The machine each scenario runs on: one built in the test.  The
    parameter keeps the scenario ids in their ``[fresh]`` form."""
    return request.param


def partial_system(small_trace, inclusive=False, max_events=4000):
    """A system stopped mid-flight with real traffic in every structure."""
    cfg = SystemConfig.tiny(1)
    if inclusive:
        cfg = replace(cfg, llc_inclusive=True)
    system = System(cfg, [small_trace.records], llc_policy="lru",
                    warmup_records=0)
    for core in system.cores:
        core.start()
    system.engine.run(max_events=max_events)
    assert system.engine.events_processed == max_events
    return system


def expect_trip(system, rule):
    san = Sanitizer(system)
    with pytest.raises(SanitizerError) as exc_info:
        san.check()
    assert exc_info.value.rule == rule, str(exc_info.value)


# ----------------------------------------------------------------------
# Baseline: a healthy mid-flight system sweeps clean
# ----------------------------------------------------------------------
def test_healthy_system_passes_all_invariants(small_trace, machine):
    system = partial_system(small_trace)
    san = Sanitizer(system)
    san.check()
    assert san.checks_run == 1
    assert len(ALL_INVARIANTS) >= 4


# ----------------------------------------------------------------------
# SAN-TIME — event-time monotonicity
# ----------------------------------------------------------------------
def _schedule_in_the_past(engine):
    """Inject an event before ``now`` straight into the calendar."""
    t = engine.now - 1
    engine._buckets.setdefault(t, []).append((lambda: None, ()))
    heappush(engine._times, t)


def test_event_scheduled_in_the_past_trips_san_time(small_trace, machine):
    system = partial_system(small_trace)
    engine = system.engine
    assert engine.now > 1
    _schedule_in_the_past(engine)
    expect_trip(system, SAN_TIME)


def test_backwards_engine_time_trips_san_time(small_trace, machine):
    system = partial_system(small_trace)
    san = Sanitizer(system)
    san.check()                      # records _last_now
    system.engine.now -= 2           # a bug rewinds the clock
    with pytest.raises(SanitizerError) as exc_info:
        san.check()
    assert exc_info.value.rule == SAN_TIME


# ----------------------------------------------------------------------
# SAN-TAG — tag-index / linear-scan agreement
# ----------------------------------------------------------------------
def _populated_set(cache):
    for set_idx, count in enumerate(cache._valid_count):
        if count:
            return set_idx
    pytest.fail(f"{cache.name} has no valid blocks after the partial run")


def test_corrupt_tag_index_mapping_trips_san_tag(small_trace, machine):
    system = partial_system(small_trace)
    llc = system.llc
    set_idx = _populated_set(llc)
    tag, way = next(iter(llc._tag2way[set_idx].items()))
    llc._tag2way[set_idx][tag] = (way + 1) % llc._ways   # stale way pointer
    expect_trip(system, SAN_TAG)


def test_corrupt_valid_count_trips_san_tag(small_trace, machine):
    system = partial_system(small_trace)
    llc = system.llc
    set_idx = _populated_set(llc)
    llc._valid_count[set_idx] += 1
    expect_trip(system, SAN_TAG)


# ----------------------------------------------------------------------
# SAN-MSHR — leak detection
# ----------------------------------------------------------------------
def _fake_entry(system, issue_time, block=0x7FFF00):
    req = MemRequest(addr=block << 6, pc=0x4, core=0,
                     rtype=AccessType.LOAD, created=issue_time)
    return MSHREntry(block, req, issue_time, core=0)


def test_leaked_mshr_entry_trips_san_mshr(small_trace, machine):
    system = partial_system(small_trace)
    now = system.engine.now
    san = Sanitizer(system)
    stale = _fake_entry(system, issue_time=now - san.mshr_age_limit - 1)
    system.llc.mshr._entries[stale.block] = stale
    with pytest.raises(SanitizerError) as exc_info:
        san.check()
    assert exc_info.value.rule == SAN_MSHR
    assert "leak" in str(exc_info.value)


def test_misfiled_mshr_entry_trips_san_mshr(small_trace, machine):
    system = partial_system(small_trace)
    entry = _fake_entry(system, issue_time=system.engine.now)
    system.llc.mshr._entries[entry.block + 1] = entry   # wrong key
    expect_trip(system, SAN_MSHR)


# ----------------------------------------------------------------------
# SAN-WAITER — lost / foreign / double-responded waiters
# ----------------------------------------------------------------------
def test_lost_waiters_trip_san_waiter(small_trace, machine):
    system = partial_system(small_trace)
    entry = _fake_entry(system, issue_time=system.engine.now)
    system.llc.mshr._entries[entry.block] = entry
    entry.waiters.clear()            # fill path dropped everyone
    expect_trip(system, SAN_WAITER)


def test_double_responded_waiter_trips_san_waiter(small_trace, machine):
    system = partial_system(small_trace)
    entry = _fake_entry(system, issue_time=system.engine.now)
    system.llc.mshr._entries[entry.block] = entry
    entry.waiters[0].completed = system.engine.now - 1   # already answered
    expect_trip(system, SAN_WAITER)


# ----------------------------------------------------------------------
# SAN-PMC — per-core cycle conservation
# ----------------------------------------------------------------------
def test_overaccounted_pure_miss_cycles_trip_san_pmc(small_trace, machine):
    system = partial_system(small_trace)
    mon = system.monitor._cores[0]
    mon.stats.pure_miss_cycles = float(system.engine.now + 10_000)
    expect_trip(system, SAN_PMC)


def test_histogram_mass_mismatch_trips_san_pmc(small_trace, machine):
    system = partial_system(small_trace)
    mon = system.monitor._cores[0]
    assert mon.stats.misses > 0
    mon.stats.misses += 3            # misses counted but never binned
    expect_trip(system, SAN_PMC)


# ----------------------------------------------------------------------
# SAN-INCL — inclusion holes
# ----------------------------------------------------------------------
def _raw_install(cache, set_idx, tag):
    """Hand-install ``(set_idx, tag)`` with the tag index and valid count
    kept consistent."""
    way = next(w for w, blk in enumerate(cache._sets[set_idx])
               if not blk.valid or blk.tag != tag)
    blk = cache._sets[set_idx][way]
    if blk.valid:
        del cache._tag2way[set_idx][blk.tag]
    else:
        cache._valid_count[set_idx] += 1
    blk.valid, blk.tag = True, tag
    cache._tag2way[set_idx][tag] = way


def test_inclusion_hole_trips_san_incl(small_trace, machine):
    system = partial_system(small_trace, inclusive=True)
    l1 = system.l1s[0]
    # Hand-install a block in L1 that the LLC has never seen, updating the
    # tag index and valid count consistently so only inclusion is violated.
    set_idx, tag = 0, 0x7FFFFFF
    _raw_install(l1, set_idx, tag)
    assert not system.llc.probe(l1.block_addr(set_idx, tag))
    expect_trip(system, SAN_INCL)


# ----------------------------------------------------------------------
# Watcher integration — corruption detected mid-run, not only at the end
# ----------------------------------------------------------------------
def test_installed_watcher_detects_mid_run_corruption(small_trace, machine):
    cfg = SystemConfig.tiny(1)
    system = System(cfg, [small_trace.records], llc_policy="lru",
                    warmup_records=0)
    system.sanitizer = attach_sanitizer(system, interval=256)
    for core in system.cores:
        core.start()
    san = system.sanitizer
    engine = system.engine

    def corrupt():
        # Off-by-one valid count: detectable even on a still-cold set.
        system.llc._valid_count[0] += 1

    engine.at(engine.now + 50, corrupt)
    with pytest.raises(SanitizerError) as exc_info:
        engine.run()
    assert exc_info.value.rule == SAN_TAG
    assert san.checks_run >= 0
    san.uninstall()
    assert engine.watcher is None


def test_double_install_refused(small_trace):
    system = partial_system(small_trace)
    first = Sanitizer(system).install()
    with pytest.raises(RuntimeError):
        Sanitizer(system).install()
    first.uninstall()


# ----------------------------------------------------------------------
# Observer purity — sanitized and plain runs are byte-identical
# ----------------------------------------------------------------------
def test_sanitized_run_is_byte_identical(small_trace, machine):
    cfg = SystemConfig.tiny(1)
    plain = System(cfg, [small_trace.records], llc_policy="lru",
                   warmup_records=0, sanitize=False).run()
    sanitized_system = System(cfg, [small_trace.records], llc_policy="lru",
                              warmup_records=0, sanitize=True)
    sanitized = sanitized_system.run()
    san = sanitized_system.sanitizer
    assert san is not None
    # one sweep per elapsed interval plus the final one
    assert san.checks_run == sanitized.events // san.interval + 1
    assert sanitized.to_json() == plain.to_json()
    # run() uninstalls on the way out, enabled or not
    assert sanitized_system.engine.watcher is None


def test_env_switches(monkeypatch, small_trace):
    """The environment no longer switches the sanitizer: ``System`` is
    unsanitized unless ``sanitize=True`` is passed, which sweeps every
    4096 events whatever ``REPRO_SANITIZE_INTERVAL`` says."""
    monkeypatch.setenv("REPRO_SANITIZE", "1")
    monkeypatch.setenv("REPRO_SANITIZE_INTERVAL", "128")
    cfg = SystemConfig.tiny(1)
    plain = System(cfg, [small_trace.records], llc_policy="lru")
    plain.run()
    assert plain.sanitizer is None
    sanitized = System(cfg, [small_trace.records], llc_policy="lru",
                       sanitize=True)
    sanitized.run()
    assert sanitized.sanitizer.interval == DEFAULT_INTERVAL == 4096
