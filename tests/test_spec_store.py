"""ExperimentSpec identity and the persistent result store."""

import json

import pytest

from repro.harness.spec import ExperimentSpec
from repro.harness.store import (
    ResultStore,
    code_fingerprint,
    default_store,
    reset_default_store,
    set_default_store,
)


@pytest.fixture
def spec():
    return ExperimentSpec.single("462.libquantum", "lru", n_records=400)


@pytest.fixture
def result(spec):
    return spec.execute()


# ----------------------------------------------------------------------
# ExperimentSpec
# ----------------------------------------------------------------------
def test_spec_roundtrip(spec):
    assert ExperimentSpec.from_dict(spec.to_dict()) == spec


def test_spec_from_dict_rejects_unknown_fields(spec):
    data = spec.to_dict()
    data["bogus"] = 1
    with pytest.raises(ValueError, match="bogus"):
        ExperimentSpec.from_dict(data)


def test_spec_key_is_stable_and_discriminating(spec):
    assert spec.key() == spec.key()
    assert spec.key() == ExperimentSpec.from_dict(spec.to_dict()).key()
    other = ExperimentSpec.single("462.libquantum", "lru", n_records=401)
    assert other.key() != spec.key()
    assert len(spec.key()) == 64
    # canonical JSON is sorted/compact, so formatting can't change the key
    payload = json.loads(spec.canonical_json())
    assert payload["workload"] == "462.libquantum"


def test_legacy_batched_spec_is_served_but_not_simulated(tmp_path, spec,
                                                         result):
    """A spec stored by the removed batched backend keeps its own key: a
    stored result is still served, and re-simulating it is refused."""
    from repro.harness.runner import run
    legacy = ExperimentSpec.from_dict(dict(spec.to_dict(), engine="batched"))
    assert legacy.engine == "batched"
    assert legacy.key() != spec.key()
    with pytest.raises(ValueError, match="removed"):
        legacy.execute()
    store = ResultStore(tmp_path)
    store.put(legacy, result)
    assert run(legacy, store=store).to_json() == result.to_json()


def test_spec_validation():
    with pytest.raises(ValueError, match="workload"):
        ExperimentSpec(workload="", policy="lru")
    with pytest.raises(ValueError, match="mix_id"):
        ExperimentSpec(workload="", policy="lru", suite="mix")
    with pytest.raises(ValueError, match="suite"):
        ExperimentSpec(workload="x", policy="lru", suite="nope")
    with pytest.raises(ValueError, match="preset"):
        ExperimentSpec(workload="x", policy="lru", preset="huge")
    with pytest.raises(ValueError, match="mix_id"):
        ExperimentSpec(workload="x", policy="lru", mix_id=3)


def test_mix_spec_label_and_key():
    a = ExperimentSpec.mix(7, "care", n_records=500)
    b = ExperimentSpec.mix(8, "care", n_records=500)
    assert a.mix_id == 7 and a.suite == "mix"
    assert "mix7" in a.label()
    assert a.key() != b.key()


def test_spec_is_hashable_and_picklable(spec):
    import pickle
    assert pickle.loads(pickle.dumps(spec)) == spec
    assert {spec: 1}[spec] == 1


# ----------------------------------------------------------------------
# ResultStore
# ----------------------------------------------------------------------
def test_store_put_get_roundtrip(tmp_path, spec, result):
    store = ResultStore(tmp_path)
    assert spec not in store
    assert store.get(spec) is None
    path = store.put(spec, result)
    assert path.is_file()
    assert spec in store
    loaded = store.get(spec)
    assert loaded == result
    assert loaded.to_json() == result.to_json()
    assert store.stats() == {"hits": 1, "misses": 1, "writes": 1, "quarantined": 0}
    assert len(store) == 1


def test_store_corrupt_entry_is_a_miss(tmp_path, spec, result):
    store = ResultStore(tmp_path)
    path = store.put(spec, result)
    path.write_text("{not json")
    assert store.get(spec) is None


def test_store_namespaced_by_code_fingerprint(tmp_path, spec, result):
    current = ResultStore(tmp_path)
    current.put(spec, result)
    other = ResultStore(tmp_path, fingerprint="f" * 64)
    assert spec not in other          # different code version, no reuse
    assert current.namespace != other.namespace
    removed = other.prune_stale()     # drops the "old" namespace
    assert removed == 1
    assert spec not in current


def test_code_fingerprint_is_cached_and_hexish():
    fp = code_fingerprint()
    assert fp == code_fingerprint()
    assert len(fp) == 64
    int(fp, 16)


def test_default_store_disabled_by_env(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_RESULT_STORE", "off")
    reset_default_store()
    try:
        assert default_store() is None
        monkeypatch.setenv("REPRO_RESULT_STORE", str(tmp_path / "s"))
        reset_default_store()
        store = default_store()
        assert store is not None
        assert store.root == tmp_path / "s"
    finally:
        reset_default_store()


def test_set_default_store(tmp_path):
    store = ResultStore(tmp_path)
    set_default_store(store)
    try:
        assert default_store() is store
    finally:
        reset_default_store()
