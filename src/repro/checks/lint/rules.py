"""Rule registry for the SimSan lint engine.

Every rule has a stable ID (``SS1xx`` determinism, ``SS2xx`` hot-path
discipline, ``SS3xx`` API hygiene), a one-line summary shown with each
finding, and a fix hint shown under ``--fix-hints``.  A rule's *scope*
limits which modules it applies to:

``deterministic``
    ``repro.sim`` and ``repro.core`` — the packages whose behaviour the
    golden-equivalence fixtures pin bit-for-bit.
``sim``
    ``repro.sim`` only.
``hot``
    Only inside functions on the simulator's hot path: tagged with a
    ``# hot:`` comment on (or directly above) their ``def`` line, or
    listed in :data:`HOT_PATH_MANIFEST`.
``harness``
    ``repro.harness`` — sweep-execution code, where throughput
    discipline (``SS4xx``) applies.
``all``
    Every linted module.

Suppress a finding by appending ``# simsan: skip=<ID>`` (comma-separate
several IDs) to the offending line, or exempt a whole file with
``# simsan: skip-file``.  Suppressions should say *why* in the
surrounding comment — they are reviewed like code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet


@dataclass(frozen=True)
class Rule:
    """One lint rule: stable ID, human summary, and a concrete fix hint."""

    id: str
    name: str
    summary: str
    hint: str
    scope: str  # "deterministic" | "sim" | "hot" | "harness" | "all"


_RULES = [
    # ------------------------------------------------------------------
    # SS1xx — determinism.  The simulator must be a pure function of its
    # seed: equal specs produce byte-identical SimResult JSON anywhere.
    # ------------------------------------------------------------------
    Rule(
        id="SS101",
        name="unseeded-random",
        summary="use of the process-global random module (unseeded RNG)",
        hint="construct a seeded generator: rng = random.Random(seed) and "
             "call methods on it; never random.random()/randint()/choice() "
             "or random.Random() without a seed",
        scope="deterministic",
    ),
    Rule(
        id="SS102",
        name="wall-clock-read",
        summary="wall-clock or timer read inside the simulator",
        hint="simulated time is engine.now; wall-clock reads "
             "(time.time/perf_counter/datetime.now) make runs "
             "irreproducible — measure outside repro.sim/repro.core",
        scope="deterministic",
    ),
    Rule(
        id="SS103",
        name="unordered-set-iteration",
        summary="iteration over an unordered set",
        hint="set iteration order depends on hashes (identity hashes vary "
             "per process); iterate sorted(s) or use a dict/list; if the "
             "loop body is genuinely order-independent, suppress with a "
             "comment saying why",
        scope="deterministic",
    ),
    Rule(
        id="SS104",
        name="import-time-env-read",
        summary="os.environ read at import time",
        hint="read the environment lazily inside a function (see "
             "harness.config.read_env, the one reader); import-time reads "
             "freeze config before callers can set it, in every pool "
             "worker forked from the process",
        scope="all",
    ),
    # ------------------------------------------------------------------
    # SS2xx — hot-path discipline (the PR 2 optimization invariants).
    # ------------------------------------------------------------------
    Rule(
        id="SS201",
        name="missing-slots",
        summary="class in repro.sim without __slots__",
        hint="add __slots__ = (...) — per-instance dicts cost allocation "
             "and cache misses on the simulator's per-event objects "
             "(dataclasses, enums and exceptions are exempt)",
        scope="sim",
    ),
    Rule(
        id="SS202",
        name="hot-closure",
        summary="lambda or nested function allocated in a hot-path function",
        hint="allocate one bound method in __init__ and carry per-call "
             "context on the request (see Cache._fill_cb / "
             "MemRequest.mshr_entry) instead of a closure per call",
        scope="hot",
    ),
    Rule(
        id="SS203",
        name="hot-fstring-log",
        summary="eagerly formatted logging/print in a hot-path function",
        hint="f-strings format even when the log level is off; use lazy "
             "%-style logging args, or move the log out of the hot path",
        scope="hot",
    ),
    Rule(
        id="SS204",
        name="raw-event-scheduling",
        summary="event scheduled around the Engine (direct heap push)",
        hint="schedule only via Engine.post/at/after so sequence numbers "
             "and event ordering stay engine-owned; approved inlined "
             "sites must carry a suppression explaining the measurement",
        scope="deterministic",
    ),
    Rule(
        id="SS205",
        name="hot-enum-member",
        summary="enum member read through its class in a hot-path function",
        hint="an enum class-attribute read (AccessType.RFO) goes through "
             "the enum metaclass and costs about ten module-global reads; "
             "bind the member once at module level (_RFO = AccessType.RFO) "
             "and read the constant",
        scope="hot",
    ),
    # ------------------------------------------------------------------
    # SS3xx — API hygiene.
    # ------------------------------------------------------------------
    Rule(
        id="SS301",
        name="mutable-default-arg",
        summary="mutable default argument",
        hint="default to None and create the list/dict/set inside the "
             "function body",
        scope="all",
    ),
    Rule(
        id="SS302",
        name="bare-except",
        summary="bare except clause",
        hint="catch a specific exception type; bare except swallows "
             "KeyboardInterrupt/SystemExit and hides simulator bugs",
        scope="all",
    ),
    Rule(
        id="SS303",
        name="unused-suppression",
        summary="suppression comment no longer suppresses any finding",
        hint="remove the '# simsan: skip=<ID>' comment (or fix a "
             "misspelled rule ID); stale suppressions hide future "
             "regressions at that line",
        scope="all",
    ),
    # ------------------------------------------------------------------
    # SS4xx — sweep-throughput discipline (the PR 7 amortization
    # invariants): harness code must not regenerate what the
    # content-addressed caches already fingerprint.
    # ------------------------------------------------------------------
    Rule(
        id="SS401",
        name="uncached-trace-generation",
        summary="direct trace generation in harness code bypasses the "
                "TraceCache",
        hint="reach traces through ExperimentSpec.build_traces or "
             "workloads.cached_trace so every sweep point sharing a "
             "(kind, name, records, seed, scale) tuple generates once; "
             "a reviewed direct-generation site belongs in "
             "TRACE_CACHE_EXEMPT_MODULES",
        scope="harness",
    ),
]

RULES: Dict[str, Rule] = {r.id: r for r in _RULES}

ALL_RULE_IDS: FrozenSet[str] = frozenset(RULES)


def lookup_rule(rule_id: str) -> Rule:
    """Resolve a rule ID across the lint and flow catalogues."""
    rule = RULES.get(rule_id)
    if rule is not None:
        return rule
    from ..flow.rules import FLOW_RULES   # lazy: flow imports this module
    return FLOW_RULES[rule_id]

#: Functions on the simulator's hot path (one entry per event or per
#: request), addressed by dotted qualname.  ``# hot:`` comments on a
#: ``def`` line are the in-file equivalent.  Since PR 8 this manifest
#: is *derived*: ``repro check --flow`` recomputes event-loop
#: reachability from the call graph and fails on drift in either
#: direction (SS502 stale entry / SS503 missing entry), so the set
#: below is exactly the reachable, non-dunder hot closure.
HOT_PATH_MANIFEST: FrozenSet[str] = frozenset({
    "repro.sim.engine.Engine.post",
    "repro.sim.engine.Engine.run",
    "repro.sim.engine.Engine.step",
    "repro.sim.engine.Engine._run_fast",
    "repro.sim.engine.Engine._run_watched",
    "repro.sim.engine.Engine._run_general",
    "repro.sim.engine.Engine._fire_watchers",
    "repro.sim.cache.Cache.access",
    "repro.sim.cache.Cache._lookup",
    "repro.sim.cache.Cache._start_miss",
    "repro.sim.cache.Cache._fill_from_child",
    "repro.sim.cache.Cache._install",
    "repro.sim.cache.Cache._writeback",
    "repro.sim.cache.Cache._retry_pending",
    "repro.sim.cache.Cache._issue_prefetch",
    "repro.sim.cache.Cache._drop_mapping",
    "repro.sim.cache.Cache.invalidate",
    "repro.sim.cache.Cache.block_addr",
    "repro.sim.cpu.Core._dispatch",
    "repro.sim.cpu.Core._complete_cb",
    "repro.sim.cpu.Core._retire",
    "repro.sim.dram.DRAM.access",
    "repro.sim.dram.DRAM._route",
    "repro.sim.memctrl.FRFCFSController.access",
    "repro.sim.memctrl.FRFCFSController._issue",
    "repro.sim.memctrl.FRFCFSController._route",
    "repro.sim.memctrl.FRFCFSController._select",
    "repro.sim.memctrl.FRFCFSController._update_drain_state",
    "repro.sim.memctrl.FRFCFSController._start",
    "repro.sim.memctrl.FRFCFSController._complete",
    "repro.sim.mshr.MSHREntry.merge",
    "repro.sim.mshr.MSHR.merge",
    "repro.sim.request.MemRequest.respond",
    "repro.core.care.CAREPolicy.find_victim",
    "repro.core.care.CAREPolicy.on_hit",
    "repro.core.care.CAREPolicy._train_hit",
    "repro.core.care.CAREPolicy.on_evict",
    "repro.core.care.CAREPolicy.on_fill",
    "repro.core.care.CAREPolicy.cost_signal",
    "repro.core.mcare.MCAREPolicy.cost_signal",
    "repro.core.dtrm.DTRM.observe",
    "repro.core.dtrm.DTRM.quantize",
    "repro.core.dtrm.DTRM._end_period",
    "repro.core.pmc.pmc_bin",
    "repro.core.pmc._CoreMonitor.accrue",
    "repro.core.pmc._CoreMonitor.finish_miss",
    "repro.core.pmc.ConcurrencyMonitor.on_access",
    "repro.core.pmc.ConcurrencyMonitor.on_hit_observed",
    "repro.core.pmc.ConcurrencyMonitor._base_end",
    "repro.core.pmc.ConcurrencyMonitor.on_miss_start",
    "repro.core.pmc.ConcurrencyMonitor.on_miss_end",
    "repro.core.signatures.hash_pc",
    "repro.core.signatures.pc_signature",
    "repro.core.sht.SignatureHistoryTable._index",
    "repro.core.sht.SignatureHistoryTable.rc",
    "repro.core.sht.SignatureHistoryTable.rc_increment",
    "repro.core.sht.SignatureHistoryTable.reuse_class",
    "repro.core.sht.SignatureHistoryTable.rc_decrement",
    "repro.core.sht.SignatureHistoryTable.pd_increment",
    "repro.core.sht.SignatureHistoryTable.pd_decrement",
    "repro.core.sht.SignatureHistoryTable.pd",
    "repro.core.sht.SignatureHistoryTable.cost_class",
})

#: Modules allowed to touch the raw event queue (SS204): the engine owns
#: its calendar; everything else must schedule through the engine's
#: public post/at/after API.
ENGINE_MODULES: FrozenSet[str] = frozenset({
    "repro.sim.engine",
    # save-state codec: snapshot/restore round-trips the engine's queue
    # state (via its __getstate__/__setstate__), so it is engine-module
    # code even though it lives outside the engine
    "repro.sim.savestate",
})

#: Enum classes whose members SS205 keeps out of hot-path functions.
HOT_ENUM_CLASSES: FrozenSet[str] = frozenset({"AccessType"})

#: Raw trace-generator calls SS401 flags inside ``repro.harness``:
#: cache-bypassing generation belongs in ``repro.workloads`` (behind
#: ``cached_trace``), never in sweep-execution code.
TRACE_GENERATOR_NAMES: FrozenSet[str] = frozenset({
    "make_trace",
    "spec_trace",
    "gap_trace",
})

#: Harness modules with a reviewed need to generate traces directly
#: (exemption manifest, like :data:`ENGINE_MODULES` for SS204).  Empty
#: today: harness code reaches traces through
#: ``ExperimentSpec.build_traces``, whose ``repro.workloads.mixes``
#: helpers route through the TraceCache.
TRACE_CACHE_EXEMPT_MODULES: FrozenSet[str] = frozenset()
