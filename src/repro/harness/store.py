"""Persistent, content-addressed store of simulation results.

Each :class:`~repro.harness.spec.ExperimentSpec` is addressed by
``sha256(spec canonical JSON)`` *within a directory named by the code
fingerprint* — a hash over every ``repro`` source file.  Any edit to the
simulator (or policies, workload generators, ...) therefore lands in a
fresh namespace and can never serve stale results; old namespaces are
just directories that ``prune_stale()`` can drop.

Layout::

    <root>/<fingerprint[:16]>/<spec-key[:2]>/<spec-key>.json

Each entry file holds ``{"spec": ..., "result": ..., "fingerprint": ...}``
as compact sorted-key JSON.  How entries reach disk and what happens to
one that cannot be read is :mod:`repro.durable`'s protocol, shared with
the trace cache, sweep manifests and save-states.

The default root is ``~/.cache/repro-care/results``; override with the
``REPRO_RESULT_STORE`` environment variable (set it to ``0``, ``off`` or
the empty string to disable persistence entirely), which
:mod:`repro.harness.config` reads.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path
from typing import Any, Dict, Iterator, Optional, Tuple, Union

from ..durable import (ContentStore, CorruptEntry, expect, load,
                       source_fingerprint)
from ..sim.stats import SimResult
from .spec import ExperimentSpec


def code_fingerprint() -> str:
    """Hash of every ``repro`` package source file (path + contents),
    computed once per process."""
    return source_fingerprint("**/*.py")


def _payload(path: Path) -> Dict[str, Any]:
    return expect(json.loads(path.read_bytes()), dict, "entry")


def _read_result(path: Path) -> SimResult:
    return SimResult.from_dict(expect(_payload(path)["result"], dict,
                                      "result"))


def _read_entry(path: Path) -> Tuple[ExperimentSpec, SimResult]:
    payload = _payload(path)
    return (ExperimentSpec.from_dict(expect(payload["spec"], dict, "spec")),
            SimResult.from_dict(expect(payload["result"], dict, "result")))


class ResultStore(ContentStore):
    """On-disk result cache shared by benchmarks, examples, and the CLI."""

    SUFFIX = ".json"

    def __init__(self, root: Union[str, Path],
                 fingerprint: Optional[str] = None) -> None:
        super().__init__(root, fingerprint or code_fingerprint())

    def path_for(self, spec: ExperimentSpec) -> Path:
        return self._path(spec.key())

    def __contains__(self, spec: ExperimentSpec) -> bool:
        return self.path_for(spec).is_file()

    def get(self, spec: ExperimentSpec) -> Optional[SimResult]:
        """The stored result for ``spec``, or ``None`` on a miss.

        An unreadable entry (torn write, bad disk, chaos, hand edit) is
        quarantined and read as a miss, so a fresh simulation rewrites
        it instead of the key missing forever.
        """
        return self._load(self.path_for(spec), _read_result)

    def put(self, spec: ExperimentSpec, result: SimResult) -> Path:
        """Persist ``result`` under ``spec``'s key (atomic rename)."""
        payload = json.dumps(
            {"fingerprint": self.fingerprint, "spec": spec.to_dict(),
             "result": result.to_dict()},
            sort_keys=True, separators=(",", ":"))
        return self._write(self.path_for(spec), payload.encode())

    def load_entries(self) -> Iterator[Tuple[ExperimentSpec, SimResult]]:
        """Yield ``(ExperimentSpec, SimResult)`` for every readable entry
        in sorted path order, quarantining unreadable ones as
        :meth:`get` does.  This is the report generator's input."""
        for path in sorted(self.entries()):
            entry, _ = load(path, _read_entry, self.quarantine_dir)
            if entry is not None:
                yield entry

    def _check(self, path: Path) -> None:
        """Healthy: ``spec`` and ``result`` round-trip through their
        classes, and the file is named by its spec's content key."""
        spec, _ = _read_entry(path)
        if spec.key() != path.stem:
            raise CorruptEntry(f"key mismatch: spec hashes to "
                               f"{spec.key()[:12]}..., filed as "
                               f"{path.stem[:12]}...")

    def prune_stale(self) -> int:
        """Drop namespaces belonging to older code fingerprints."""
        removed = 0
        if not self.root.is_dir():
            return 0
        for child in self.root.iterdir():
            if (child.is_dir() and child != self.namespace
                    and child.name != "quarantine"):
                shutil.rmtree(child, ignore_errors=True)
                removed += 1
        return removed


_default_store: Optional[ResultStore] = None
_default_resolved = False


def default_store() -> Optional[ResultStore]:
    """Process-wide store from ``REPRO_RESULT_STORE`` (``None`` if disabled
    or the directory cannot be created)."""
    global _default_store, _default_resolved
    if not _default_resolved:
        from .config import result_store_root
        _default_resolved = True
        root = result_store_root()
        if root is None:
            _default_store = None
        else:
            store = ResultStore(root)
            try:
                store.namespace.mkdir(parents=True, exist_ok=True)
                _default_store = store
            except OSError:
                _default_store = None
    return _default_store


def set_default_store(store: Optional[ResultStore]) -> None:
    """Install ``store`` process-wide (tests use this with a tmp dir)."""
    global _default_store, _default_resolved
    _default_store = store
    _default_resolved = True


def reset_default_store() -> None:
    """Forget the cached default; next use re-reads the environment."""
    global _default_store, _default_resolved
    _default_store = None
    _default_resolved = False
