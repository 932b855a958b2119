"""Metrics-sampler tests: row cadence, column alignment, byte-identity.

The sampler promises a columnar time-series whose columns all have the
same length, one row roughly per ``interval`` cycles plus a final row at
the last simulated cycle, DTRM threshold columns only for policies that
carry a DTRM, and — like every observer — zero effect on results.
"""

import json

import pytest

from tests.conftest import build_trace
from repro.obs import MetricsTable, ObsConfig
from repro.obs.sampler import MetricsSampler
from repro.sim import SystemConfig
from repro.sim.system import System


def _run_sampled(policy="care", interval=2_000, n=1200, n_cores=1,
                 sanitize=False):
    cfg = SystemConfig.tiny(n_cores)
    traces = [build_trace(n=n, seed=s, name=f"t{s}").records
              for s in range(n_cores)]
    system = System(cfg, traces, llc_policy=policy, seed=3,
                    measure_records=n // 2, warmup_records=n // 2,
                    sanitize=sanitize,
                    obs=ObsConfig(metrics_interval=interval))
    result = system.run()
    return system, result


def test_row_cadence_and_column_alignment():
    interval = 2_000
    system, result = _run_sampled(interval=interval)
    table = system.sampler.table
    lengths = {name: len(values) for name, values in table.columns.items()}
    assert len(set(lengths.values())) == 1, f"ragged columns: {lengths}"
    rows = table.n_rows
    # One row per crossed boundary (polling may skip a boundary, never
    # duplicate one) plus the finalize() row at the last cycle.
    assert 2 <= rows <= result.sim_cycles // interval + 1
    cycles = table.column("cycle")
    assert cycles == sorted(cycles)
    assert len(set(cycles)) == len(cycles)
    assert cycles[-1] == result.sim_cycles
    events = table.column("events")
    assert events == sorted(events)
    for name, values in table.columns.items():
        if name.startswith("dtrm_"):
            continue
        assert all(v is not None for v in values), f"None in {name}"
    for occ in table.column("LLC_occ"):
        assert 0.0 <= occ <= 1.0


def test_dtrm_columns_follow_the_policy():
    care_sys, _ = _run_sampled(policy="care")
    care_table = care_sys.sampler.table
    assert care_table.meta["has_dtrm"] is True
    assert all(v is not None for v in care_table.column("dtrm_low"))
    assert all(v is not None for v in care_table.column("dtrm_high"))

    lru_sys, _ = _run_sampled(policy="lru")
    lru_table = lru_sys.sampler.table
    assert lru_table.meta["has_dtrm"] is False
    assert all(v is None for v in lru_table.column("dtrm_low"))
    assert all(v is None for v in lru_table.column("dtrm_costly_share"))


def test_sampling_never_perturbs_results():
    n = 1000
    cfg = SystemConfig.tiny(2)
    traces = [build_trace(n=n, seed=s, name=f"t{s}").records
              for s in range(2)]

    def run(obs):
        return System(cfg, traces, llc_policy="care", seed=3,
                      measure_records=n // 2, warmup_records=n // 2,
                      obs=obs).run()

    plain = run(None)
    sampled = run(ObsConfig(metrics_interval=500))
    assert (json.dumps(plain.to_dict(), sort_keys=True)
            == json.dumps(sampled.to_dict(), sort_keys=True))


def test_sampler_composes_with_sanitizer():
    system, result = _run_sampled(sanitize=True)
    plain_sys, plain = _run_sampled()
    assert (json.dumps(result.to_dict(), sort_keys=True)
            == json.dumps(plain.to_dict(), sort_keys=True))
    # Both observers detached cleanly after the run.
    assert system.engine.watcher is None
    assert system.engine.watchers == ()
    assert system.sampler.table.n_rows >= 2


def test_metrics_table_json_round_trip():
    system, _ = _run_sampled()
    table = system.sampler.table
    clone = MetricsTable.from_json(table.to_json())
    assert clone.interval == table.interval
    assert clone.meta == table.meta
    assert clone.columns == table.columns
    assert clone.to_json() == table.to_json()


def test_sampler_rejects_bad_interval():
    cfg = SystemConfig.tiny(1)
    traces = [build_trace(n=200).records]
    system = System(cfg, traces, llc_policy="lru", seed=3,
                    measure_records=100, warmup_records=100)
    with pytest.raises(ValueError):
        MetricsSampler(system, 0)
