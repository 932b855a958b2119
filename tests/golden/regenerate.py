"""Regenerate the golden-equivalence fixtures.

The fixtures pin the simulator's observable behaviour: each file holds an
:class:`~repro.harness.spec.ExperimentSpec` and the byte-exact
``SimResult.to_dict()`` it produced at the commit the fixture was
generated.  ``tests/test_golden_equivalence.py`` re-runs every spec and
asserts the result is unchanged, so hot-path optimizations are proven
bit-identical.

Every spec is executed with the runtime sanitizer enabled (see
:mod:`repro.checks.sanitize`): if any invariant trips, **no fixture file
is written** — a corrupted simulator must never mint new ground truth.
``--check`` verifies the existing fixtures under the sanitizer without
writing anything (the CI sanitizer job runs this, with a tighter
``--interval``).

Only regenerate after an *intentional* behaviour change (a model fix, a
new statistic), never to make a failing optimization pass — and say so in
the commit message.  Usage::

    PYTHONPATH=src python tests/golden/regenerate.py [--check] [--interval N]
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent.parent / "src"))

from repro.checks.sanitize import (DEFAULT_INTERVAL, SanitizerError,  # noqa: E402
                                   attach_sanitizer)
from repro.harness.spec import ExperimentSpec  # noqa: E402
from repro.sim import System  # noqa: E402

GOLDEN_DIR = Path(__file__).resolve().parent

#: Coverage: both presets, 1/2/4 cores, spec/gap/mix suites, prefetch
#: on/off, locality-only and concurrency-aware policies, delta collection.
GOLDEN_SPECS = {
    "tiny_1c_lru_spec_nopf": ExperimentSpec.multicopy(
        "429.mcf", "lru", n_cores=1, prefetch=False, n_records=600,
        seed=3, preset="tiny"),
    "tiny_2c_care_spec_pf": ExperimentSpec.multicopy(
        "429.mcf", "care", n_cores=2, prefetch=True, n_records=400,
        seed=3, preset="tiny"),
    "tiny_4c_shippp_gap_pf": ExperimentSpec.multicopy(
        "bfs-or", "shippp", n_cores=4, prefetch=True, n_records=300,
        seed=5, suite="gap", preset="tiny"),
    "default_4c_care_mix_nopf": ExperimentSpec.mix(
        0, "care", n_cores=4, prefetch=False, n_records=300, seed=7),
    "default_4c_care_spec_pf": ExperimentSpec.multicopy(
        "429.mcf", "care", n_cores=4, prefetch=True, n_records=500,
        seed=3),
    "default_1c_mcare_spec_deltas": ExperimentSpec.multicopy(
        "433.milc", "mcare", n_cores=1, prefetch=False, n_records=500,
        seed=11, collect_deltas=True),
    # Production-traffic ("serve") families: one fixture per family so
    # the Zipfian/stream/pointer-chase generators are golden-pinned.
    "tiny_2c_lru_serve_kv": ExperimentSpec.multicopy(
        "kv-zipf99", "lru", n_cores=2, prefetch=True, n_records=400,
        seed=3, suite="serve", preset="tiny"),
    "tiny_1c_care_serve_stream": ExperimentSpec.multicopy(
        "stream-scan", "care", n_cores=1, prefetch=False, n_records=400,
        seed=5, suite="serve", preset="tiny"),
    "default_2c_mcare_serve_usvc": ExperimentSpec.multicopy(
        "usvc-chase", "mcare", n_cores=2, prefetch=True, n_records=400,
        seed=7, suite="serve"),
}


def execute_sanitized(spec: ExperimentSpec, interval: int):
    """``spec.execute()`` with the runtime sanitizer sweeping every
    ``interval`` events."""
    traces = spec.build_traces()
    n = min(len(t) for t in traces)
    system = System(spec.build_config(), traces, llc_policy=spec.policy,
                    prefetch=spec.prefetch, seed=spec.seed,
                    measure_records=n // 2, warmup_records=n // 2,
                    collect_deltas=spec.collect_deltas)
    # run() sweeps once more at the end and uninstalls it, exactly as
    # for System(..., sanitize=True)
    system.sanitizer = attach_sanitizer(system, interval=interval)
    result = system.run()
    return result, system.sanitizer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Regenerate (or --check) the golden fixtures under "
                    "the runtime sanitizer.")
    parser.add_argument("--check", action="store_true",
                        help="verify the fixtures; write nothing")
    parser.add_argument("--interval", type=int, default=DEFAULT_INTERVAL,
                        metavar="N",
                        help="events between sanitizer sweeps "
                             f"(default {DEFAULT_INTERVAL})")
    args = parser.parse_args(argv)
    if args.interval < 1:
        parser.error("--interval must be >= 1")

    payloads = {}
    for name, spec in sorted(GOLDEN_SPECS.items()):
        try:
            result, sanitizer = execute_sanitized(spec, args.interval)
        except SanitizerError as exc:
            print(f"SANITIZER TRIP on {name}: {exc}", file=sys.stderr)
            print("no fixtures written — fix the simulator first",
                  file=sys.stderr)
            return 1
        payloads[name] = {"name": name, "spec": spec.to_dict(),
                          "result": result.to_dict()}
        print(f"ran {name}: cycles={result.sim_cycles} "
              f"events={result.events} sanitizer_sweeps="
              f"{sanitizer.checks_run} (interval {sanitizer.interval})")

    if args.check:
        stale = []
        for name, payload in payloads.items():
            path = GOLDEN_DIR / f"{name}.json"
            if not path.exists() or json.loads(path.read_text()) != payload:
                stale.append(name)
        if stale:
            print(f"fixtures differ from sanitized rerun: {stale}",
                  file=sys.stderr)
            return 1
        print(f"all {len(payloads)} fixtures verified under the sanitizer")
        return 0

    # Every spec survived the sanitizer: now (and only now) write.
    for name, payload in sorted(payloads.items()):
        path = GOLDEN_DIR / f"{name}.json"
        path.write_text(json.dumps(payload, sort_keys=True,
                                   separators=(",", ":")) + "\n")
        print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
