"""Store hardening: corrupt-entry quarantine, fsck, and the chaos
corruption hook."""

import json
import shutil

import pytest

from repro.harness import ExperimentSpec, ResultStore
from repro.harness.runner import clear_memo
from repro.harness.store import reset_default_store


@pytest.fixture(autouse=True)
def isolated():
    clear_memo()
    yield
    clear_memo()
    reset_default_store()


@pytest.fixture
def spec():
    return ExperimentSpec.single("462.libquantum", "lru", n_records=300)


@pytest.fixture
def store(tmp_path, spec):
    store = ResultStore(tmp_path / "store")
    store.put(spec, spec.execute())
    return store


def entry_path(store, spec):
    [path] = [p for p in store.entries() if p.stem == spec.key()]
    return path


def test_fsck_clean_store(store):
    report = store.fsck()
    assert report.scanned == report.ok == 1
    assert not report.quarantined and not report.errors
    assert "1 ok" in report.summary()


def test_fsck_quarantines_truncated_entry(store, spec):
    path = entry_path(store, spec)
    data = path.read_text()
    path.write_text(data[:len(data) // 2])
    report = store.fsck()
    assert report.scanned == 1 and report.ok == 0
    assert len(report.quarantined) == 1
    assert not path.exists()
    assert (store.quarantine_dir / path.name).is_file()
    # the namespace is clean again
    after = store.fsck()
    assert after.scanned == 0 and not after.quarantined


def test_fsck_quarantines_key_mismatch(store, spec):
    path = entry_path(store, spec)
    misfiled = path.with_name("0" * 64 + ".json")
    shutil.copy(path, misfiled)
    report = store.fsck()
    assert report.ok == 1                       # the original survives
    assert len(report.quarantined) == 1
    assert any("key mismatch" in line for line in report.errors)
    assert not misfiled.exists()


def test_fsck_quarantines_missing_fields(store, spec):
    path = entry_path(store, spec)
    path.write_text(json.dumps({"spec": spec.to_dict()}))  # no result
    report = store.fsck()
    assert len(report.quarantined) == 1
    # well-formed JSON of the wrong shape is just as unreadable
    for shape in ({"spec": spec.to_dict(), "result": []}, [], "entry"):
        path.write_text(json.dumps(shape))
        report = store.fsck()
        assert report.scanned == 1 and len(report.quarantined) == 1
        assert not path.exists()


def test_get_quarantines_corrupt_entry_as_miss(store, spec):
    path = entry_path(store, spec)
    path.write_text("{definitely not json")
    assert store.get(spec) is None              # miss, not an exception
    assert not path.exists()                    # moved aside...
    assert (store.quarantine_dir / path.name).is_file()
    assert store.stats()["quarantined"] == 1
    assert spec not in store
    # a result of the wrong shape is a miss too, for get and the report
    wrong_shape = json.dumps({"spec": spec.to_dict(), "result": []})
    path.write_text(wrong_shape)
    assert store.get(spec) is None
    path.write_text(wrong_shape)
    assert list(store.load_entries()) == []
    assert not path.exists()
    assert len(list(store.quarantine_dir.iterdir())) == 3


def test_quarantine_collisions_get_suffixes(store, spec):
    for _ in range(2):
        path = entry_path(store, spec)
        path.write_text("{broken")
        assert store.get(spec) is None
        store.put(spec, spec.execute())
        clear_memo()
    names = sorted(p.name for p in store.quarantine_dir.iterdir())
    assert len(names) == 2                      # second move got a suffix
    assert names[0] == spec.key() + ".json"


def test_prune_stale_keeps_quarantine(tmp_path, spec):
    current = ResultStore(tmp_path / "store")
    current.put(spec, spec.execute())
    path = entry_path(current, spec)
    path.write_text("{broken")
    assert current.get(spec) is None            # populate quarantine/
    other = ResultStore(tmp_path / "store", fingerprint="f" * 64)
    removed = other.prune_stale()
    assert removed == 1                         # the stale namespace only
    assert other.quarantine_dir.parent.is_dir() # quarantine/ survives


# ----------------------------------------------------------------------
# Manifest fsck: the sweep/campaign ledgers corrupt the same way
# ----------------------------------------------------------------------
def make_manifest(path, spec):
    from repro.harness.supervise import SweepManifest
    manifest = SweepManifest(path)
    manifest.register(spec)
    manifest.save()
    return path


def test_fsck_manifests_passes_healthy_ledgers(tmp_path, spec):
    from repro.harness.supervise import fsck_manifests
    good = make_manifest(tmp_path / "good.manifest.json", spec)
    report = fsck_manifests([good, tmp_path / "missing.manifest.json"])
    assert report.scanned == 1 and report.ok == 1     # missing = skipped
    assert not report.quarantined and not report.errors


def test_fsck_manifests_quarantines_truncated_json(tmp_path, spec):
    from repro.harness.supervise import fsck_manifests
    bad = make_manifest(tmp_path / "bad.manifest.json", spec)
    text = bad.read_text()
    bad.write_text(text[:len(text) // 2])
    report = fsck_manifests([bad])
    assert report.scanned == 1 and report.ok == 0
    assert len(report.quarantined) == 1 and report.errors
    assert not bad.exists()
    assert (tmp_path / "quarantine" / bad.name).is_file()
    # idempotent: the namespace is clean on the second pass
    assert fsck_manifests([bad]).scanned == 0


def test_fsck_manifests_quarantines_semantic_damage(tmp_path, spec):
    from repro.harness.supervise import fsck_manifests
    future = tmp_path / "future.manifest.json"
    future.write_text(json.dumps({"version": 99, "points": {}}))
    mismatch = make_manifest(tmp_path / "mismatch.manifest.json", spec)
    data = json.loads(mismatch.read_text())
    data["points"] = {"0" * 64: data["points"][spec.key()]}
    mismatch.write_text(json.dumps(data))
    status = make_manifest(tmp_path / "status.manifest.json", spec)
    data = json.loads(status.read_text())
    data["points"][spec.key()]["status"] = "exploded"
    status.write_text(json.dumps(data))
    shape = tmp_path / "shape.manifest.json"
    shape.write_text("[]")
    report = fsck_manifests([future, mismatch, status, shape])
    assert report.scanned == 4 and report.ok == 0
    assert len(report.quarantined) == 4
    assert any("version" in e for e in report.errors)
    assert any("does not match" in e for e in report.errors)
    assert any("unknown status" in e for e in report.errors)
    # collisions in quarantine/ get numbered suffixes
    again = make_manifest(tmp_path / "future.manifest.json", spec)
    again.write_text("{torn")
    fsck_manifests([again])
    qnames = sorted(p.name for p in (tmp_path / "quarantine").iterdir())
    assert "future.manifest.json" in qnames
    assert "future.manifest.json.1" in qnames


def test_chaos_corrupt_hook_on_put(tmp_path, spec):
    from repro.checks.chaos import parse_chaos
    from repro.harness import run
    from repro.harness.config import RunConfig
    store = ResultStore(tmp_path / "store")
    run(spec, store=store,
        config=RunConfig(chaos=parse_chaos("corrupt:1:1/1")))
    path = entry_path(store, spec)
    with pytest.raises(ValueError):
        json.loads(path.read_text())            # write was truncated
    assert store.get(spec) is None              # hardened get quarantines
    assert store.fsck().scanned == 0
