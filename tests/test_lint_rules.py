"""SimSan static lint: every rule proven on a seeded violation.

Each test lints a minimal snippet *as if* it lived in a module where the
rule applies (``lint_source(..., module=...)``) and asserts the right
rule ID fires at the right line — plus the mirror case showing the
idiomatic form passes clean.  The last test runs the real linter over
``src`` so the acceptance criterion ("``python -m repro check src``
exits 0") is enforced by the tier-1 suite itself.
"""

import textwrap
from pathlib import Path

import pytest

from repro.checks.lint import (ALL_RULE_IDS, HOT_PATH_MANIFEST, RULES,
                               format_finding, lint_source, module_name_for,
                               run_lint)

REPO_SRC = Path(__file__).resolve().parent.parent / "src"

SIM = "repro.sim.fake"      # deterministic + sim scopes apply
CORE = "repro.core.fake"    # deterministic scope applies, sim does not
OTHER = "repro.analysis.fake"   # only "all"-scope rules apply


def ids(findings):
    return [f.rule_id for f in findings]


def one(findings, rule_id):
    """Assert exactly one finding with ``rule_id`` and return it."""
    matching = [f for f in findings if f.rule_id == rule_id]
    assert len(matching) == 1, (
        f"expected exactly one {rule_id}, got {ids(findings)}")
    return matching[0]


def lint(snippet, module=SIM):
    return lint_source(textwrap.dedent(snippet), module=module)


# ----------------------------------------------------------------------
# Rule catalogue sanity
# ----------------------------------------------------------------------
def test_catalogue_has_at_least_eight_rules():
    assert len(RULES) >= 8
    assert set(ALL_RULE_IDS) == set(RULES)
    for rule in RULES.values():
        assert rule.id and rule.summary and rule.hint
        assert rule.scope in ("deterministic", "sim", "hot", "harness",
                              "all")


def test_hot_path_manifest_names_resolve():
    """Manifest entries must track the real tree (no stale qualnames)."""
    import importlib
    for qualname in HOT_PATH_MANIFEST:
        parts = qualname.split(".")
        # Longest importable prefix, then attribute-walk the rest.
        for split in range(len(parts) - 1, 0, -1):
            try:
                obj = importlib.import_module(".".join(parts[:split]))
            except ImportError:
                continue
            for attr in parts[split:]:
                obj = getattr(obj, attr)
            break
        else:
            pytest.fail(f"unimportable manifest entry {qualname}")


# ----------------------------------------------------------------------
# SS1xx determinism
# ----------------------------------------------------------------------
def test_ss101_unseeded_random_fires():
    f = one(lint("""
        import random
        def pick(ways):
            return random.randrange(ways)
        """), "SS101")
    assert f.line == 4


def test_ss101_seeded_generator_is_clean():
    assert lint("""
        import random
        def make_rng(seed):
            return random.Random(seed)
        """) == []


def test_ss101_out_of_scope_module_is_clean():
    snippet = """
        import random
        def pick(ways):
            return random.randrange(ways)
        """
    assert lint(snippet, module=OTHER) == []


def test_ss102_wall_clock_fires():
    findings = lint("""
        import time
        def stamp():
            return time.time()
        """)
    one(findings, "SS102")


def test_ss102_datetime_now_fires():
    findings = lint("""
        from datetime import datetime
        def stamp():
            return datetime.now()
        """)
    one(findings, "SS102")


def test_ss103_set_iteration_fires():
    findings = lint("""
        def drain(self):
            pending = set()
            for req in pending:
                req.fire()
        """)
    one(findings, "SS103")


def test_ss103_sorted_set_is_clean():
    assert lint("""
        def drain(self):
            pending = set()
            for req in sorted(pending):
                req.fire()
        """) == []


def test_ss104_import_time_env_read_fires():
    findings = lint("""
        import os
        DEBUG = os.environ.get("REPRO_DEBUG")
        """, module=OTHER)
    one(findings, "SS104")


def test_ss104_env_read_inside_function_is_clean():
    assert lint("""
        import os
        def debug_enabled():
            return os.environ.get("REPRO_DEBUG") == "1"
        """, module=OTHER) == []


# ----------------------------------------------------------------------
# SS2xx hot-path discipline
# ----------------------------------------------------------------------
def test_ss201_missing_slots_fires():
    f = one(lint("""
        class Widget:
            def __init__(self):
                self.x = 1
        """), "SS201")
    assert f.line == 2


def test_ss201_slots_class_is_clean():
    assert lint("""
        class Widget:
            __slots__ = ("x",)
            def __init__(self):
                self.x = 1
        """) == []


def test_ss201_dataclass_and_exception_exempt():
    assert lint("""
        from dataclasses import dataclass

        @dataclass
        class Stats:
            hits: int = 0

        class SimError(Exception):
            pass
        """) == []


def test_ss201_core_module_out_of_scope():
    snippet = """
        class Widget:
            def __init__(self):
                self.x = 1
        """
    assert lint(snippet, module=CORE) == []


def test_ss202_closure_in_hot_function_fires():
    findings = lint("""
        class Cache:
            __slots__ = ()
            def access(self, engine, req):  # hot: per-request entry point
                engine.post(5, lambda: req.fire())
        """)
    one(findings, "SS202")


def test_ss202_untagged_function_is_clean():
    assert lint("""
        class Cache:
            __slots__ = ()
            def report(self, engine, req):
                engine.post(5, lambda: req.fire())
        """) == []


def test_ss203_fstring_log_in_hot_function_fires():
    findings = lint("""
        import logging
        log = logging.getLogger(__name__)
        def step(now):  # hot: inner loop
            log.debug(f"tick {now}")
        """)
    one(findings, "SS203")


def test_ss203_lazy_formatting_is_clean():
    assert lint("""
        import logging
        log = logging.getLogger(__name__)
        def step(now):  # hot: inner loop
            log.debug("tick %d", now)
        """) == []


def test_ss204_raw_heap_scheduling_fires():
    findings = lint("""
        import heapq
        def sneak(engine, fn):
            heapq.heappush(engine._heap, (0, 0, fn, ()))
        """)
    one(findings, "SS204")


def test_ss205_enum_member_in_hot_function_fires():
    findings = lint("""
        from repro.sim.request import AccessType
        def lookup(req):  # hot: per-access tag check
            return req.rtype == AccessType.RFO
        """)
    assert "AccessType.RFO" in one(findings, "SS205").message


def test_ss205_module_constant_and_cold_use_are_clean():
    assert lint("""
        from repro.sim.request import AccessType
        _RFO = AccessType.RFO
        def lookup(req):  # hot: per-access tag check
            return req.rtype == _RFO
        def summary(stats):
            return stats[AccessType.LOAD] + stats[AccessType.RFO]
        """) == []


# ----------------------------------------------------------------------
# SS3xx API hygiene
# ----------------------------------------------------------------------
def test_ss301_mutable_default_fires():
    findings = lint("""
        def merge(dst, extras=[]):
            dst.extend(extras)
        """, module=OTHER)
    one(findings, "SS301")


def test_ss301_none_default_is_clean():
    assert lint("""
        def merge(dst, extras=None):
            dst.extend(extras or [])
        """, module=OTHER) == []


def test_ss302_bare_except_fires():
    findings = lint("""
        def load(path):
            try:
                return open(path).read()
            except:
                return ""
        """, module=OTHER)
    one(findings, "SS302")


def test_ss302_typed_except_is_clean():
    assert lint("""
        def load(path):
            try:
                return open(path).read()
            except OSError:
                return ""
        """, module=OTHER) == []


# ----------------------------------------------------------------------
# SS4xx sweep-throughput discipline
# ----------------------------------------------------------------------
HARNESS = "repro.harness.fake"


def test_ss401_direct_trace_generation_fires_in_harness():
    f = one(lint("""
        from repro.workloads import spec_trace
        def build(name, n):
            return spec_trace(name, n_records=n, seed=3)
        """, module=HARNESS), "SS401")
    assert "spec_trace" in f.message


def test_ss401_covers_every_generator_name():
    for fn in ("make_trace", "spec_trace", "gap_trace"):
        one(lint(f"""
            from repro import workloads
            def build(name):
                return workloads.{fn}(name)
            """, module=HARNESS), "SS401")


def test_ss401_cached_trace_is_clean():
    assert lint("""
        from repro.workloads import cached_trace
        def build(name, n):
            return cached_trace("spec", name, n, 3, 1)
        """, module=HARNESS) == []


def test_ss401_does_not_apply_to_workloads_package():
    assert lint("""
        def helper(name, n):
            return spec_trace(name, n_records=n, seed=0)
        """, module="repro.workloads.mixes") == []


# ----------------------------------------------------------------------
# Suppressions and formatting
# ----------------------------------------------------------------------
def test_line_suppression_silences_only_that_rule():
    findings = lint("""
        import random
        def pick(ways):
            return random.randrange(ways)  # simsan: skip=SS101
        """)
    assert findings == []


def test_line_suppression_is_rule_specific():
    findings = lint("""
        import random
        def pick(ways):
            return random.randrange(ways)  # simsan: skip=SS102
        """)
    one(findings, "SS101")


def test_skip_file_silences_everything():
    findings = lint("""
        # simsan: skip-file
        import random
        def pick(ways):
            return random.randrange(ways)
        """)
    assert findings == []


def test_format_finding_mentions_rule_and_hint():
    f = one(lint("""
        def merge(dst, extras=[]):
            dst.extend(extras)
        """, module=OTHER), "SS301")
    plain = format_finding(f)
    assert "SS301" in plain and f.path in plain
    with_hint = format_finding(f, fix_hints=True)
    assert len(with_hint) > len(plain)


def test_module_name_for_anchors_at_repro():
    assert module_name_for(
        REPO_SRC / "repro" / "sim" / "cache.py") == "repro.sim.cache"


# ----------------------------------------------------------------------
# Acceptance: the real tree is clean
# ----------------------------------------------------------------------
def test_repository_source_is_lint_clean():
    findings = run_lint([REPO_SRC])
    assert findings == [], "\n".join(format_finding(f) for f in findings)
