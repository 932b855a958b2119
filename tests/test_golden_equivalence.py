"""Golden-equivalence suite: the simulator's results are pinned bit-exact.

Each fixture in ``tests/golden/`` holds an ExperimentSpec and the
``SimResult.to_dict()`` it produced before the hot-path optimization work
(tag->way index, ``__slots__`` request/MSHR objects, engine fast path,
PMC interval fast path).  Re-running the spec must reproduce the stored
result *byte for byte* after canonical JSON serialization — any drift in
event ordering, float accumulation, or policy decisions fails here.

Regenerate (only after an intentional model change) with::

    PYTHONPATH=src python tests/golden/regenerate.py
"""

import difflib
import json
from pathlib import Path

import pytest

from repro.harness.spec import ExperimentSpec

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
FIXTURES = sorted(GOLDEN_DIR.glob("*.json"))

#: Leading hex digits of each fixture spec's key.  Stored results, sweep
#: manifests and campaign ledgers are addressed by spec keys, so no change
#: to ``ExperimentSpec`` may move them.
SPEC_KEY_PREFIXES = {
    "default_1c_mcare_spec_deltas": "56f2aaaac0aa74fa",
    "default_2c_mcare_serve_usvc": "fb61a2695fedaaac",
    "default_4c_care_mix_nopf": "7e18940915ba06d5",
    "default_4c_care_spec_pf": "6c77fe7df16e3da3",
    "tiny_1c_care_serve_stream": "e44d3a861f4508a0",
    "tiny_1c_lru_spec_nopf": "63ff033dc797f1fa",
    "tiny_2c_care_spec_pf": "dcb5e36b3f3125f9",
    "tiny_2c_lru_serve_kv": "7de8bec0cc388d00",
    "tiny_4c_shippp_gap_pf": "bc02c69564e5a20c",
}


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("path", FIXTURES, ids=[p.stem for p in FIXTURES])
def test_result_is_bit_identical_to_golden_fixture(path):
    raw = path.read_text()
    stored = json.loads(raw)
    spec = ExperimentSpec.from_dict(stored["spec"])
    result = spec.execute()
    got = _canonical({"name": stored["name"], "spec": spec.to_dict(),
                      "result": result.to_dict()})
    if got != raw:
        diff = "\n".join(difflib.unified_diff(
            _canonical(stored).splitlines(),
            got.splitlines(),
            fromfile=f"golden/{path.name}", tofile="current",
            lineterm=""))
        pytest.fail(
            f"simulation result drifted from golden fixture {path.name};\n"
            f"if the behaviour change is intentional, regenerate with "
            f"'PYTHONPATH=src python tests/golden/regenerate.py'\n{diff}")


@pytest.mark.parametrize("path", FIXTURES, ids=[p.stem for p in FIXTURES])
def test_result_is_bit_identical_with_observers_attached(path):
    """Tracing + metrics sampling must never perturb simulation results.

    Every golden fixture re-runs with the event tracer and the interval
    metrics sampler both enabled; the result must stay byte-identical to
    the fixture produced without observers.
    """
    from repro.harness.config import RunConfig
    from repro.obs import ObsConfig

    stored = json.loads(path.read_text())
    spec = ExperimentSpec.from_dict(stored["spec"])
    obs = ObsConfig(metrics_interval=2_000, trace=True, trace_sample=1)
    result = spec.execute(RunConfig(obs=obs))
    assert _canonical(result.to_dict()) == _canonical(stored["result"]), (
        f"observers perturbed the simulation for {path.name}")


@pytest.mark.parametrize("path", FIXTURES, ids=[p.stem for p in FIXTURES])
def test_result_is_bit_identical_after_checkpoint_restore(path, tmp_path):
    """A forced mid-run checkpoint + restore must be invisible: the
    resumed second half produces the exact fixture bytes on every
    fixture (the save-state contract)."""
    from repro.harness import preempt

    stored = json.loads(path.read_text())
    spec = ExperimentSpec.from_dict(stored["spec"])
    config = checkpointing(tmp_path, 2000)
    preempt.clear_preempt()
    preempt.request_preempt()
    try:
        with pytest.raises(preempt.PreemptedError):
            spec.execute(config)
        notes = {}
        result = spec.execute(config, notes=notes)
    finally:
        preempt.clear_preempt()
    assert notes.get("resumed", 0) > 0, "restore did not happen"
    assert _canonical(result.to_dict()) == _canonical(stored["result"]), (
        f"checkpoint/restore perturbed the simulation for {path.name}")


def checkpointing(tmp_path, every):
    """A run configuration saving state into ``tmp_path`` every
    ``every`` events."""
    from repro.harness.config import RunConfig
    from repro.harness.preempt import CheckpointConfig
    return RunConfig(checkpoint=CheckpointConfig(dir=str(tmp_path),
                                                 every_events=every))


def _preempted(spec, config):
    """Execute ``spec`` with a preempt request pending and return the
    :class:`~repro.harness.preempt.PreemptedError` (its save-state path
    and event count)."""
    from repro.harness import preempt

    preempt.request_preempt()
    with pytest.raises(preempt.PreemptedError) as excinfo:
        spec.execute(config)
    return excinfo.value


@pytest.mark.parametrize("path", FIXTURES, ids=[p.stem for p in FIXTURES])
def test_result_is_bit_identical_after_restore_in_measured_region(
        path, tmp_path):
    """A cut after every core left warmup must be invisible too: the
    save-state then carries the post-warmup statistics objects, each
    core's measured-region start and partly filled PMC intervals."""
    from repro.harness import preempt
    from repro.harness.store import code_fingerprint
    from repro.sim.savestate import decode_savestate

    stored = json.loads(path.read_text())
    spec = ExperimentSpec.from_dict(stored["spec"])
    config = checkpointing(tmp_path, stored["result"]["events"] * 3 // 4)
    preempt.clear_preempt()
    try:
        cut = _preempted(spec, config)
        saved = decode_savestate(Path(cut.path).read_bytes(),
                                 spec_key=spec.key(),
                                 fingerprint=code_fingerprint())
        assert all(core.warm for core in saved.cores)
        assert not all(core.finished for core in saved.cores)
        notes = {}
        result = spec.execute(config, notes=notes)
    finally:
        preempt.clear_preempt()
    assert notes.get("resumed") == cut.events
    assert _canonical(result.to_dict()) == _canonical(stored["result"]), (
        f"a measured-region restore perturbed the simulation for {path.name}")


@pytest.mark.parametrize("path", FIXTURES, ids=[p.stem for p in FIXTURES])
def test_result_is_bit_identical_after_two_checkpoint_restores(
        path, tmp_path):
    """A resumed point can be preempted again: the restored checkpoint
    policy keeps its countdown, the state it writes restores in turn,
    and the twice-resumed run still produces the fixture bytes."""
    from repro.harness import preempt

    stored = json.loads(path.read_text())
    spec = ExperimentSpec.from_dict(stored["spec"])
    every = stored["result"]["events"] // 3
    config = checkpointing(tmp_path, every)
    preempt.clear_preempt()
    try:
        first = _preempted(spec, config)
        second = _preempted(spec, config)   # resumes ``first``, then is cut
        notes = {}
        result = spec.execute(config, notes=notes)
    finally:
        preempt.clear_preempt()
    assert (first.events, second.events) == (every, 2 * every)
    assert notes.get("resumed") == second.events
    assert _canonical(result.to_dict()) == _canonical(stored["result"]), (
        f"a second checkpoint/restore perturbed the simulation for "
        f"{path.name}")


@pytest.mark.parametrize("path", FIXTURES, ids=[p.stem for p in FIXTURES])
def test_fixture_spec_key_is_pinned(path):
    stored = json.loads(path.read_text())
    key = ExperimentSpec.from_dict(stored["spec"]).key()
    assert key.startswith(SPEC_KEY_PREFIXES[path.stem])


@pytest.mark.parametrize("path", FIXTURES, ids=[p.stem for p in FIXTURES])
def test_legacy_batched_result_is_served_but_not_simulated(path, tmp_path):
    """Every stored shape of a result from the removed batched backend
    stays servable: the legacy spec keeps a key of its own, its stored
    result comes back byte for byte, and only re-simulating it raises."""
    from repro.harness.runner import clear_memo, run
    from repro.harness.store import ResultStore
    from repro.sim.stats import SimResult

    stored = json.loads(path.read_text())
    legacy = ExperimentSpec.from_dict(dict(stored["spec"], engine="batched"))
    assert legacy.key() != ExperimentSpec.from_dict(stored["spec"]).key()
    with pytest.raises(ValueError, match="removed"):
        legacy.execute()
    store = ResultStore(tmp_path)
    store.put(legacy, SimResult.from_dict(stored["result"]))
    clear_memo()
    served = run(legacy, store=store)
    assert _canonical(served.to_dict()) == _canonical(stored["result"])


def test_fixture_coverage():
    """The suite must keep covering the key configuration axes."""
    assert len(FIXTURES) >= 6
    specs = [json.loads(p.read_text())["spec"] for p in FIXTURES]
    assert {s["preset"] for s in specs} >= {"tiny", "default"}
    assert {s["n_cores"] for s in specs} >= {1, 2, 4}
    assert {s["policy"] for s in specs} >= {"lru", "care", "mcare", "shippp"}
    assert {s["prefetch"] for s in specs} == {True, False}
    assert any(s["collect_deltas"] for s in specs)
    # Every production-traffic family stays golden-pinned.
    serve = {s["workload"] for s in specs if s["suite"] == "serve"}
    assert {w.split("-")[0] for w in serve} >= {"kv", "stream", "usvc"}
