"""Rule catalogue and analysis manifests for SimSan-Flow.

The per-file linter (:mod:`repro.checks.lint`) sees one module at a
time; the flow analyzer sees the whole tree at once, so its rules are
about *relationships*: which functions the engine's event loop can
actually reach (``SS5xx``), and which code a sweep worker process can
execute (``SS6xx``).

``SS5xx`` — hot-path reachability & manifest integrity
    The hot-path set is *derived* from the call graph instead of
    hand-maintained: ``SS501`` keeps every manifest entry pointing at a
    real definition, ``SS502`` flags hot tags the event loop can no
    longer reach, and ``SS503`` flags event-loop-reachable functions
    nobody tagged.  ``SS510`` is the interprocedural companion to the
    per-file determinism rules: nondeterminism that flows *through* a
    helper into simulator state.

``SS6xx`` — worker/fork safety (the PR 7 persistent-pool contract)
    Warm workers outlive env changes and share import-time module
    state across tasks, so worker-reachable code must not mutate
    module-level state (``SS601``), must read the environment only
    through the reviewed lazy accessors that the per-task env snapshot
    re-resolves (``SS602``), and modules must not capture derived
    env/clock state at import time (``SS603``).

Suppressions use the same ``# simsan: skip=<ID>`` comment syntax as the
per-file linter, applied at the finding's line.
"""

from __future__ import annotations

from typing import Dict, FrozenSet

from ..lint.rules import Rule

_FLOW_RULES = [
    # ------------------------------------------------------------------
    # SS5xx — call-graph facts about the simulator's hot path.
    # ------------------------------------------------------------------
    Rule(
        id="SS501",
        name="stale-manifest-entry",
        summary="manifest entry names a qualname/module that no longer "
                "exists in the tree",
        hint="HOT_PATH_MANIFEST / ENGINE_MODULES / "
             "TRACE_CACHE_EXEMPT_MODULES must track the real tree; "
             "remove or respell the entry "
             "(src/repro/checks/lint/rules.py)",
        scope="all",
    ),
    Rule(
        id="SS502",
        name="stale-hot-tag",
        summary="function is tagged hot but the event loop cannot reach it",
        hint="the call graph shows no path from the engine entry points "
             "to this function; drop it from HOT_PATH_MANIFEST (or the "
             "'# hot:' tag), or fix the call-graph seam that should "
             "reach it",
        scope="all",
    ),
    Rule(
        id="SS503",
        name="untagged-hot-function",
        summary="function is reachable from the engine event loop but "
                "carries no hot tag",
        hint="add the qualname to HOT_PATH_MANIFEST (or a '# hot:' "
             "comment on the def line) so the hot-path discipline rules "
             "(SS2xx) apply to it; dunder methods are exempt",
        scope="all",
    ),
    Rule(
        id="SS510",
        name="tainted-sim-flow",
        summary="nondeterminism flows into simulator state through a "
                "helper call",
        hint="the callee (transitively) reads a wall clock, the "
             "process-global RNG, os.urandom, id(), the environment, or "
             "iterates an unordered set; thread a seeded rng / snapshot "
             "through instead, or add the reviewed accessor to "
             "TAINT_SANITIZERS with a comment saying why it cannot "
             "change results",
        scope="all",
    ),
    # ------------------------------------------------------------------
    # SS6xx — worker/fork safety for the persistent warm pool.
    # ------------------------------------------------------------------
    Rule(
        id="SS601",
        name="worker-shared-global",
        summary="worker-reachable code writes module-level mutable state",
        hint="warm workers reuse the interpreter across tasks, so "
             "module globals written during one task leak into the "
             "next; carry the state on an object the task owns, or "
             "suppress with a comment proving the write is idempotent "
             "and content-addressed (registries, memo caches)",
        scope="all",
    ),
    Rule(
        id="SS602",
        name="worker-raw-env-read",
        summary="worker-reachable code reads os.environ outside the "
                "reviewed env-snapshot accessors",
        hint="persistent workers only see the parent's environment "
             "through the per-task REPRO_* snapshot "
             "(repro.harness.turbo); read env via a WORKER_ENV_API "
             "accessor that re-resolves per task, or add this function "
             "to WORKER_ENV_API after review",
        scope="all",
    ),
    Rule(
        id="SS603",
        name="import-time-state-capture",
        summary="module-level call captures env/clock-derived state at "
                "import time",
        hint="the called helper (transitively) reads the environment or "
             "a clock, so its result is frozen when a persistent worker "
             "forks and ignores the per-task REPRO_* snapshot; call it "
             "lazily inside a function instead",
        scope="all",
    ),
]

FLOW_RULES: Dict[str, Rule] = {r.id: r for r in _FLOW_RULES}

FLOW_RULE_IDS: FrozenSet[str] = frozenset(FLOW_RULES)

# ----------------------------------------------------------------------
# Analysis manifests (reviewed, like ENGINE_MODULES for SS204)
# ----------------------------------------------------------------------

#: Event-loop entry points: hot-path reachability starts here plus at
#: every callback scheduled onto an engine (``*.post/at/after`` args).
HOT_ROOTS: FrozenSet[str] = frozenset({
    "repro.sim.engine.Engine.run",
    "repro.sim.engine.Engine.step",
})

#: Packages whose functions participate in hot-path reachability — the
#: same deterministic domain the per-file SS1xx/SS2xx rules police.
HOT_DOMAIN = ("repro.sim", "repro.core")

#: Packages whose functions are determinism-taint *sinks*: anything
#: here (transitively) mutates simulator state, so reaching a
#: nondeterminism source from here breaks the bit-identity contract.
TAINT_SINK_DOMAIN = ("repro.sim", "repro.core")

#: Reviewed functions taint does not flow through.  Each entry is a
#: sanctioned boundary: either the seeded-rng / env-snapshot plumbing
#: itself, or an accessor whose result provably cannot change a
#: SimResult (the trace cache is content-addressed; observers and
#: save-states are golden-enforced byte-identical).
TAINT_SANITIZERS: FrozenSet[str] = frozenset({
    # the PR 7 env-snapshot API is the sanctioned env boundary
    "repro.harness.turbo.worker_env_snapshot",
    "repro.harness.turbo._apply_env",
    # opt-in observers: attach-time config, observer contract keeps
    # observed runs byte-identical (golden suite re-checked observed)
    "repro.checks.sanitize.sanitizer.sanitize_enabled",
    "repro.checks.sanitize.sanitizer.sanitize_interval",
    "repro.obs.schema.obs_from_env",
    # deterministic chaos injection (seeded, test-only)
    "repro.checks.chaos.chaos_from_env",
    # content-addressed trace cache: served bytes equal generated bytes
    "repro.workloads.tracecache.default_trace_cache",
    # checkpoint/preempt plumbing: restore-then-run is byte-identical to
    # an uninterrupted run (golden-enforced), so where a save-state lands
    # or whether one exists cannot change a SimResult
    "repro.harness.preempt.checkpoint_from_env",
    "repro.harness.preempt.guards_from_env",
    "repro.harness.preempt.preempt_grace",
})

#: Worker entry points: everything these reach runs inside a pool
#: worker process (SS601/SS602/SS603 apply to that closure).
WORKER_ROOTS: FrozenSet[str] = frozenset({
    "repro.harness.turbo._persistent_worker",
    "repro.harness.turbo._execute_task",
})

#: Reviewed lazy env accessors that worker-reachable code may call:
#: each one re-reads ``os.environ`` at call time, *after* the per-task
#: snapshot (:func:`repro.harness.turbo._apply_env`) has been applied,
#: so persistent-pool workers track the parent's environment exactly.
WORKER_ENV_API: FrozenSet[str] = frozenset({
    "repro.harness.turbo.worker_env_snapshot",
    "repro.harness.turbo._apply_env",
    "repro.harness.supervise.RetryPolicy.from_env",
    "repro.harness.supervise.compute_timeout",
    "repro.checks.chaos.chaos_from_env",
    "repro.checks.sanitize.sanitizer.sanitize_enabled",
    "repro.checks.sanitize.sanitizer.sanitize_interval",
    "repro.obs.schema.obs_from_env",
    "repro.workloads.tracecache.default_trace_cache",
    "repro.harness.store.default_store",
    # checkpoint/preempt config re-resolves per task from the shipped
    # REPRO_CKPT_* / guard vars (repro.harness.preempt)
    "repro.harness.preempt.checkpoint_from_env",
    "repro.harness.preempt.guards_from_env",
    "repro.harness.preempt.preempt_grace",
})

#: Decorator-registry indirection: resolver function -> the decorator
#: whose decorated classes/functions it can instantiate by name.
#: (String-table registries — dict literals of ``"module:Class"``
#: values — are discovered structurally and need no manifest.)
REGISTRY_RESOLVERS: Dict[str, str] = {
    "repro.policies.registry.make_policy": "repro.policies.registry.register",
}

#: Methods that schedule a callback onto an engine: a function
#: reference passed to one of these becomes an event-loop entry.
SCHEDULER_METHODS: FrozenSet[str] = frozenset({"post", "at", "after"})
