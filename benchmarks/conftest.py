"""Make the shared helpers importable, report the result store in use,
and summarize sweep-engine cache behaviour at the end of the session."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

from repro.harness.runner import session_stats  # noqa: E402
from repro.harness.store import default_store  # noqa: E402


def pytest_report_header(config):
    store = default_store()
    where = str(store.namespace) if store is not None else "disabled"
    return f"repro result store: {where} (REPRO_RESULT_STORE)"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Cache-hit accounting: how much of this run was re-simulation."""
    stats = session_stats
    if stats.points == 0:
        return
    terminalreporter.write_sep("-", "repro runner")
    terminalreporter.write_line(stats.summary())
    store = default_store()
    if store is not None:
        s = store.stats()
        terminalreporter.write_line(
            f"result store: {s['hits']} hits, {s['misses']} misses, "
            f"{s['writes']} writes ({store.namespace})")
