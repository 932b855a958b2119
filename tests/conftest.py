"""Shared fixtures for the test suite."""

import random

import pytest

from repro.sim import SystemConfig
from repro.workloads import TraceRecord, make_trace


@pytest.fixture(scope="session", autouse=True)
def isolated_caches(tmp_path_factory):
    """Point the result store and the trace cache at a per-session tmp
    dir, so no test (nor a subprocess it starts, which inherits the
    environment) writes into the user's ``~/.cache/repro-care``."""
    from repro.harness.store import reset_default_store
    from repro.workloads.tracecache import reset_default_trace_cache
    root = tmp_path_factory.mktemp("repro-cache")
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_RESULT_STORE", str(root / "results"))
        patch.setenv("REPRO_TRACE_CACHE", str(root / "traces"))
        reset_default_store()
        reset_default_trace_cache()
        yield root
    reset_default_store()
    reset_default_trace_cache()


@pytest.fixture
def rng():
    return random.Random(0xBEEF)


@pytest.fixture
def tiny_cfg():
    return SystemConfig.tiny(1)


@pytest.fixture
def tiny_cfg4():
    return SystemConfig.tiny(4)


def build_trace(n=1500, seed=0, hot_blocks=32, region_blocks=4096,
                hot_frac=0.6, write_frac=0.1, mean_gap=3, name="t"):
    """Small mixed-locality trace: hot set + random sweep."""
    r = random.Random(seed)
    records = []
    for i in range(n):
        if r.random() < hot_frac:
            block = r.randrange(hot_blocks)
            pc = 0x100 + (block % 4) * 4
        else:
            block = hot_blocks + r.randrange(region_blocks)
            pc = 0x200
        records.append(TraceRecord(
            pc=pc, addr=block * 64, is_write=r.random() < write_frac,
            gap=r.randrange(0, 2 * mean_gap + 1)))
    return make_trace(name, records, seed=seed)


@pytest.fixture
def small_trace():
    return build_trace()


@pytest.fixture
def small_traces4():
    return [build_trace(seed=s, name=f"t{s}") for s in range(4)]
