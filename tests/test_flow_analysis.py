"""SimSan-Flow: call-graph resolution + every SS5xx/SS6xx rule proven.

Structure mirrors ``test_lint_rules.py``: the fixture package under
``tests/flow_fixtures`` pins call-graph *resolution* (registry
indirection, stored bound methods, scheduled callbacks); the
fault-injection tests below seed one bad edit per rule against a
minimal fixture config and assert the rule fires — plus the mirror
clean form.  The acceptance test at the end runs the real analysis
over ``src`` so "``repro check --flow`` exits 0" is enforced by the
tier-1 suite itself.
"""

import textwrap
from pathlib import Path

from repro.checks.flow import (FLOW_RULE_IDS, FLOW_RULES, FlowConfig,
                               analyze_modules, build_graph, extract_module,
                               extract_source, run_flow)
from repro.checks.lint import audit_suppressions, lint_source_detailed
from repro.checks.lint.rules import RULES

REPO_SRC = Path(__file__).resolve().parent.parent / "src"
FIXTURES = Path(__file__).resolve().parent / "flow_fixtures"


def ids(findings):
    return [f.rule_id for f in findings]


def one(findings, rule_id):
    matching = [f for f in findings if f.rule_id == rule_id]
    assert len(matching) == 1, (
        f"expected exactly one {rule_id}, got {ids(findings)}")
    return matching[0]


def none(findings, rule_id):
    assert not [f for f in findings if f.rule_id == rule_id], (
        f"expected no {rule_id}, got {ids(findings)}")


def flow(sources, **over):
    """Analyze in-memory modules under a minimal fixture config."""
    mods = [extract_source(textwrap.dedent(src), module=mod,
                           path=f"{mod.replace('.', '/')}.py")
            for mod, src in sources.items()]
    config = FlowConfig(
        hot_roots=frozenset(over.pop("hot_roots", ())),
        hot_domain=over.pop("hot_domain", ("repro.sim",)),
        taint_sink_domain=over.pop("sink_domain", ("repro.sim",)),
        taint_sanitizers=frozenset(over.pop("sanitizers", ())),
        worker_roots=frozenset(over.pop("worker_roots", ())),
        worker_env_api=frozenset(over.pop("env_api", ())),
        registry_resolvers=over.pop("registries", {}),
        hot_manifest=frozenset(over.pop("manifest", ())),
        engine_modules=frozenset(over.pop("engine_modules", ())),
        trace_exempt_modules=frozenset(over.pop("trace_exempt", ())),
        manifest_module=over.pop("manifest_module", "repro.sim.rules"),
    )
    assert not over, f"unknown overrides: {sorted(over)}"
    return analyze_modules(mods, config=config)


# ----------------------------------------------------------------------
# Rule catalogue sanity
# ----------------------------------------------------------------------
def test_flow_catalogue():
    assert set(FLOW_RULE_IDS) == set(FLOW_RULES)
    assert {"SS501", "SS502", "SS503", "SS510",
            "SS601", "SS602", "SS603"} <= set(FLOW_RULE_IDS)
    assert not (set(FLOW_RULE_IDS) & set(RULES)), \
        "flow and lint rule IDs must not collide"
    for rule in FLOW_RULES.values():
        assert rule.id and rule.summary and rule.hint
        assert rule.scope == "all"


# ----------------------------------------------------------------------
# Call-graph resolution over the on-disk fixture package
# ----------------------------------------------------------------------
def fixture_graph():
    files = sorted((FIXTURES / "registry").rglob("*.py"))
    mods = [extract_module(p) for p in files]
    return build_graph(mods, registry_resolvers={
        "repro.flowreg.registry.make_policy":
            "repro.flowreg.registry.register"})


def test_fixture_module_names_anchor_at_repro():
    graph, index = fixture_graph()
    assert "repro.flowreg.engine" in index.modules
    assert "repro.flowreg.registry" in index.modules


def test_string_table_registry_links_loader_to_backends():
    graph, index = fixture_graph()
    edges = graph.successors("repro.flowreg.registry.load")
    registry = {e.dst for e in edges if e.kind == "registry"}
    assert "repro.flowreg.impl.ImplA.__init__" in registry
    assert "repro.flowreg.impl.ImplB.__init__" in registry


def test_decorator_registry_links_resolver_to_registered_policy():
    graph, index = fixture_graph()
    edges = graph.successors("repro.flowreg.registry.make_policy")
    registry = {e.dst for e in edges if e.kind == "registry"}
    assert "repro.flowreg.impl.CarePolicy.__init__" in registry


def test_stored_bound_method_resolves():
    graph, index = fixture_graph()
    dsts = {e.dst for e in graph.successors("repro.flowreg.engine.Engine.run")}
    assert "repro.flowreg.engine.Engine._tick" in dsts


def test_scheduled_callback_becomes_a_root():
    graph, index = fixture_graph()
    assert "repro.flowreg.engine.on_event" in graph.sched_targets


def test_fixture_hot_closure():
    graph, index = fixture_graph()
    roots = {"repro.flowreg.engine.Engine.run"} | graph.sched_targets
    hot = graph.reachable(roots, domain=("repro.flowreg",))
    assert "repro.flowreg.engine.Engine._tick" in hot
    assert "repro.flowreg.engine.helper" in hot
    assert "repro.flowreg.engine.on_event" in hot
    assert "repro.flowreg.engine.setup" not in hot


def test_call_graph_exports():
    graph, index = fixture_graph()
    payload = graph.to_json()
    assert payload["schema"] == "repro.flow.call-graph/v1"
    names = {n["qualname"] for n in payload["nodes"]}
    assert "repro.flowreg.engine.Engine.run" in names
    dot = graph.to_dot()
    assert dot.startswith("digraph") and "Engine.run" in dot


# ----------------------------------------------------------------------
# Fault injection: one seeded bad edit per rule
# ----------------------------------------------------------------------
ENGINE = """
    class Engine:
        def run(self):  # hot: fixture root
            self.step()

        def step(self):  # hot: per event
            return 0
    """


def test_ss501_stale_manifest_entry_trips():
    rep = flow({"repro.sim.eng": ENGINE},
               hot_roots={"repro.sim.eng.Engine.run"},
               manifest={"repro.sim.eng.Engine.run",
                         "repro.sim.eng.Engine.step",
                         "repro.sim.eng.Engine.gone"})
    f = one(rep.findings, "SS501")
    assert "Engine.gone" in f.message


def test_ss501_stale_module_manifest_trips():
    rep = flow({"repro.sim.eng": ENGINE},
               hot_roots={"repro.sim.eng.Engine.run"},
               manifest={"repro.sim.eng.Engine.run",
                         "repro.sim.eng.Engine.step"},
               engine_modules={"repro.sim.vanished"})
    f = one(rep.findings, "SS501")
    assert "repro.sim.vanished" in f.message


def test_ss501_clean_manifest_passes():
    rep = flow({"repro.sim.eng": ENGINE},
               hot_roots={"repro.sim.eng.Engine.run"},
               manifest={"repro.sim.eng.Engine.run",
                         "repro.sim.eng.Engine.step"},
               engine_modules={"repro.sim.eng"})
    assert rep.findings == []


def test_ss502_unreachable_manifest_entry_trips():
    src = ENGINE + """
    class Dead:
        def walk(self):
            return 1
    """
    rep = flow({"repro.sim.eng": src},
               hot_roots={"repro.sim.eng.Engine.run"},
               manifest={"repro.sim.eng.Engine.run",
                         "repro.sim.eng.Engine.step",
                         "repro.sim.eng.Dead.walk"})
    f = one(rep.findings, "SS502")
    assert "Dead.walk" in f.message


def test_ss502_stale_hot_tag_trips():
    src = ENGINE + """
    def orphan():  # hot: nothing reaches this
        return 2
    """
    rep = flow({"repro.sim.eng": src},
               hot_roots={"repro.sim.eng.Engine.run"},
               manifest={"repro.sim.eng.Engine.run",
                         "repro.sim.eng.Engine.step"})
    f = one(rep.findings, "SS502")
    assert "orphan" in f.message


def test_ss503_reachable_untagged_trips_and_tag_clears_it():
    dirty = """
    class Engine:
        def run(self):  # hot: fixture root
            self.step()

        def step(self):
            return 0
    """
    rep = flow({"repro.sim.eng": dirty},
               hot_roots={"repro.sim.eng.Engine.run"},
               manifest={"repro.sim.eng.Engine.run"})
    f = one(rep.findings, "SS503")
    assert "Engine.step" in f.message
    rep = flow({"repro.sim.eng": ENGINE},
               hot_roots={"repro.sim.eng.Engine.run"},
               manifest={"repro.sim.eng.Engine.run",
                         "repro.sim.eng.Engine.step"})
    none(rep.findings, "SS503")


def test_ss510_tainted_helper_call_trips():
    helper = """
    import time

    def stamp():
        return time.time()
    """
    sim = """
    from repro.util.clockish import stamp

    class Cache:
        def access(self, addr):
            return stamp()
    """
    rep = flow({"repro.util.clockish": helper, "repro.sim.cache": sim})
    f = one(rep.findings, "SS510")
    assert "stamp" in f.message and "clock" in f.message
    assert f.path.endswith("repro/sim/cache.py")


def test_ss510_sanitizer_cuts_taint():
    helper = """
    import os

    def from_env():
        return os.environ.get("REPRO_X", "")
    """
    sim = """
    from repro.util.envish import from_env

    class Cache:
        def access(self, addr):
            return from_env()
    """
    rep = flow({"repro.util.envish": helper, "repro.sim.cache": sim},
               sanitizers={"repro.util.envish.from_env"})
    none(rep.findings, "SS510")


def test_ss510_direct_env_read_in_sim_trips():
    sim = """
    import os

    class Cache:
        def access(self, addr):
            return os.environ.get("REPRO_X")
    """
    rep = flow({"repro.sim.cache": sim})
    f = one(rep.findings, "SS510")
    assert "nondeterminism source" in f.message


def test_ss601_worker_global_write_trips_and_suppression_clears():
    dirty = """
    _CACHE = None

    def worker_main(task):
        global _CACHE
        _CACHE = task
        return _CACHE
    """
    rep = flow({"repro.harness.pool": dirty},
               worker_roots={"repro.harness.pool.worker_main"})
    f = one(rep.findings, "SS601")
    assert "_CACHE" in f.message
    clean = """
    _CACHE = None

    def worker_main(task):
        global _CACHE
        _CACHE = task  # simsan: skip=SS601
        return _CACHE
    """
    rep = flow({"repro.harness.pool": clean},
               worker_roots={"repro.harness.pool.worker_main"})
    none(rep.findings, "SS601")
    assert ("repro/harness/pool.py", 6, "SS601") in rep.used_suppressions


def test_ss601_mutating_call_on_module_global_trips():
    dirty = """
    _SEEN = []

    def worker_main(task):
        _SEEN.append(task)
        return len(_SEEN)
    """
    rep = flow({"repro.harness.pool": dirty},
               worker_roots={"repro.harness.pool.worker_main"})
    f = one(rep.findings, "SS601")
    assert "_SEEN" in f.message


def test_ss602_raw_env_read_trips_and_env_api_exempts():
    dirty = """
    import os

    def worker_main(task):
        return os.environ.get("REPRO_SCALE")
    """
    rep = flow({"repro.harness.pool": dirty},
               worker_roots={"repro.harness.pool.worker_main"})
    f = one(rep.findings, "SS602")
    assert "environ" in f.message
    rep = flow({"repro.harness.pool": dirty},
               worker_roots={"repro.harness.pool.worker_main"},
               env_api={"repro.harness.pool.worker_main"})
    none(rep.findings, "SS602")


def test_ss603_import_time_env_capture_trips():
    dirty = """
    import os

    def load_conf():
        return os.environ.get("REPRO_MODE", "fast")

    MODE = load_conf()
    """
    rep = flow({"repro.harness.conf": dirty})
    f = one(rep.findings, "SS603")
    assert "load_conf" in f.message and "env" in f.message


def test_ss603_main_guard_and_closure_factory_pass():
    clean = """
    import os

    def load_conf():
        return os.environ.get("REPRO_MODE", "fast")

    def make_reader():
        def read():
            return load_conf()
        return read

    READER = make_reader()

    if __name__ == "__main__":
        print(load_conf())
    """
    rep = flow({"repro.harness.conf": clean})
    none(rep.findings, "SS603")


# ----------------------------------------------------------------------
# SS303 unused-suppression audit (lint side, flow-aware)
# ----------------------------------------------------------------------
def test_ss303_unused_suppression_flagged():
    res = lint_source_detailed(textwrap.dedent("""
        def add(a, b):
            return a + b   # simsan: skip=SS301
        """), module="repro.sim.fake")
    f = one(audit_suppressions([res]), "SS303")
    assert "SS301" in f.message and "suppresses nothing" in f.message


def test_ss303_used_suppression_not_flagged():
    res = lint_source_detailed(textwrap.dedent("""
        def merge(dst, extras=[]):   # simsan: skip=SS301
            dst.extend(extras)
        """), module="repro.sim.fake")
    assert res.findings == []
    assert audit_suppressions([res]) == []


def test_ss303_unknown_rule_id_always_flagged():
    res = lint_source_detailed(textwrap.dedent("""
        def add(a, b):
            return a + b   # simsan: skip=SS999
        """), module="repro.sim.fake")
    f = one(audit_suppressions([res]), "SS303")
    assert "unknown rule ID" in f.message


def test_ss303_flow_ids_exempt_unless_flow_ran():
    res = lint_source_detailed(textwrap.dedent("""
        def add(a, b):
            return a + b   # simsan: skip=SS601
        """), module="repro.sim.fake")
    assert audit_suppressions([res], flow_ran=False) == []
    one(audit_suppressions([res], flow_ran=True), "SS303")


def test_ss303_flow_used_suppressions_credited():
    res = lint_source_detailed(textwrap.dedent("""
        def add(a, b):
            return a + b   # simsan: skip=SS601
        """), module="repro.sim.fake", path="repro/sim/fake.py")
    used = {("repro/sim/fake.py", 3, "SS601")}
    assert audit_suppressions([res], flow_used=used, flow_ran=True) == []


def test_ss303_skip_file_exempt():
    res = lint_source_detailed(textwrap.dedent("""
        # simsan: skip-file
        def add(a, b):
            return a + b   # simsan: skip=SS301
        """), module="repro.sim.fake")
    assert audit_suppressions([res]) == []


# ----------------------------------------------------------------------
# Acceptance: the real tree is clean and the manifest is exact
# ----------------------------------------------------------------------
def test_repo_tree_is_flow_clean():
    rep = run_flow([REPO_SRC])
    assert rep.findings == [], [str(f) for f in rep.findings]


def test_repo_hot_manifest_matches_derived_closure():
    from repro.checks.lint.rules import HOT_PATH_MANIFEST
    rep = run_flow([REPO_SRC])
    dunderless = {q for q in rep.hot_derived
                  if not rep.index.functions[q].is_dunder}
    tagged_only = {q for q in dunderless
                   if q not in HOT_PATH_MANIFEST
                   and rep.index.functions[q].hot_tagged}
    # every derived-hot function is either tagged in-file or listed
    assert dunderless <= (set(HOT_PATH_MANIFEST) | tagged_only)
    # and every listed function is still reached (no stale entries)
    assert set(HOT_PATH_MANIFEST) <= rep.hot_derived


def test_repo_suppressions_all_used():
    rep = run_flow([REPO_SRC])
    from repro.checks.lint import run_lint_detailed
    results = run_lint_detailed([REPO_SRC])
    assert audit_suppressions(results, flow_used=rep.used_suppressions,
                              flow_ran=True) == []
