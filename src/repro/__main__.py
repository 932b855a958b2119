"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``policies``   list every registered replacement scheme
``workloads``  list SPEC-like and GAP workloads (with Table VIII MPKI)
``studycase``  print the Fig. 2 study case analysis (Tables I & II)
``hwcost``     print the Table V / VI hardware-cost accounting
``run``        simulate one workload under one or more LLC policies
``campaign``   the paper's figures as data: run|status|report|list
``perf``       simulation-kernel throughput microbenchmarks (BENCH_perf.json)
``report``     render a stored run/sweep as a markdown or JSON report
``store``      inspect / repair the persistent result store (``fsck``)
``check``      SimSan static lint over the tree (see repro.checks.lint)

``run`` and ``campaign run`` accept observability flags
(``--metrics-interval``, ``--trace``) that attach the ``repro.obs``
sampler/tracer to every freshly simulated point; artifacts land under
``--obs-dir``.

``run`` and ``campaign run`` resolve every point through the persistent
result store (``~/.cache/repro-care/results`` or
``$REPRO_RESULT_STORE``), so repeated invocations reuse earlier
simulations; ``--workers`` fans fresh points out over a process pool.
Their flags become one :class:`~repro.harness.config.RunConfig` per
invocation, which travels to every worker in the task messages; the
environment holds only the deployment settings that module lists.

Sweeps run *supervised* (``repro.harness.supervise``): a failing point
is retried with backoff, hung or crashed workers are killed and
re-queued, and permanent failures are collected into a failure table
while every healthy point finishes (``--fail-fast`` aborts instead).
``--manifest`` checkpoints campaign status so ``--resume`` picks up
where an interrupted or partially failed sweep left off.  A point whose
worker the watchdog or a resource guard killed restarts cold on its
retry.

Exit codes: 0 success; 2 usage error; 3 sweep finished but some points
failed permanently, or the sweep manifest could not be persisted;
130 interrupted (manifest flushed when enabled, incident log written).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from typing import List, Optional


class _DynamicStderrHandler(logging.Handler):
    """Log handler bound to the *current* ``sys.stderr`` at emit time.

    The CLI promises that ``--json`` output on stdout stays parseable,
    so every diagnostic — including ``log.warning`` lines from the
    harness (store write failures, serial fallback, ...) — must land on
    stderr.  Resolving ``sys.stderr`` per record (instead of capturing
    the stream once, as ``logging.basicConfig`` would) keeps that true
    under test harnesses and callers that swap the stream out.
    """

    def emit(self, record: logging.LogRecord) -> None:
        try:
            sys.stderr.write(self.format(record) + "\n")
        except (OSError, ValueError):   # closed/broken stderr: drop it
            pass


_LOG_HANDLER: Optional[logging.Handler] = None


def _setup_cli_logging() -> None:
    """Route ``repro.*`` warnings to stderr, never stdout (idempotent)."""
    global _LOG_HANDLER
    if _LOG_HANDLER is not None:
        return
    handler = _DynamicStderrHandler()
    handler.setFormatter(logging.Formatter("[%(name)s] %(message)s"))
    logging.getLogger("repro").addHandler(handler)
    _LOG_HANDLER = handler


def _cmd_policies(_args) -> int:
    from .policies.registry import available_policies, make_policy
    for name in available_policies():
        pol = make_policy(name, sets=64, ways=4)
        doc = (type(pol).__doc__ or "").strip().splitlines()
        print(f"{name:18s} {doc[0] if doc else ''}")
    return 0


def _cmd_workloads(_args) -> int:
    from .workloads import SERVE_WORKLOADS, SPEC_BENCHMARKS, gap_workload_names
    print("SPEC-like workloads (Table VIII):")
    for name, bench in SPEC_BENCHMARKS.items():
        print(f"  {name:18s} {bench.suite}  paper MPKI {bench.paper_mpki:6.2f}"
              f"  ({bench.pattern_class})")
    print("\nGAP workloads (Table IX graphs x 5 kernels):")
    print("  " + "  ".join(gap_workload_names()))
    print("\nProduction-traffic workloads (serving families):")
    for name, work in SERVE_WORKLOADS.items():
        print(f"  {name:18s} {work.family:6s} target MPKI "
              f"{work.target_mpki:6.2f}  ({work.pattern_class})")
    return 0


def _cmd_studycase(_args) -> int:
    from .analysis import format_table, paper_study_case
    result = paper_study_case()
    rows = [[label, str(result.pmc[label]), str(result.mlp_cost[label])]
            for label in sorted(result.mlp_cost)]
    print("Fig. 2 study case (Tables I & II):")
    print(format_table(["miss", "PMC", "MLP-based cost"], rows))
    print(f"active pure miss cycles: {result.pure_miss_cycles}")
    return 0


def _cmd_hwcost(_args) -> int:
    from .analysis import (care_concurrency_kb, care_cost, format_table,
                           framework_costs)
    report = care_cost()
    print("Table V - CARE cost breakdown (16-way 2MB LLC):")
    print(format_table(
        ["structure", "KB", "used for"],
        [[i.name, f"{i.kb:.4f}", i.used_for] for i in report.items]))
    print(f"total {report.total_kb:.2f}KB "
          f"({care_concurrency_kb(report):.2f}KB for concurrency awareness)")
    print("\nTable VI - framework comparison:")
    print(format_table(
        ["framework", "uses PC", "concurrency-aware", "KB"],
        [[r.framework, "Yes" if r.uses_pc else "No",
          "Yes" if r.concurrency_aware else "No", f"{r.total_kb:.2f}"]
         for r in framework_costs()]))
    return 0


def _run_config(args):
    """The :class:`~repro.harness.config.RunConfig` of ``run`` and
    ``campaign run``: the environment's deployment settings with the
    command's flags applied.  Raises ValueError for a bad flag value."""
    from dataclasses import replace

    from .checks.chaos import parse_chaos
    from .harness.config import RunConfig, cache_root
    from .obs import ObsConfig

    config = RunConfig.from_env()
    obs = None
    if args.metrics_interval > 0 or args.trace:
        obs = ObsConfig(metrics_interval=max(0, args.metrics_interval),
                        trace=args.trace,
                        trace_sample=max(1, args.trace_sample),
                        out_dir=args.obs_dir)
    trace_cache = config.trace_cache
    if args.trace_cache is not None:
        trace_cache = cache_root(args.trace_cache, "traces")
    return replace(config, sanitize=args.sanitize, obs=obs,
                   chaos=parse_chaos(args.chaos) if args.chaos else None,
                   trace_cache=trace_cache)


def _supervision_from_args(args, tag: str):
    """Build the ``supervised_sweep`` context from CLI flags.

    Raises ValueError for bad flag values (callers map that to the
    usage exit code 2).  Returns ``(context, incidents)``.
    """
    from .harness.supervise import (DEFAULT_MANIFEST, RetryPolicy,
                                    SweepManifest, supervised_sweep)
    from .obs.incidents import IncidentLog

    retry = RetryPolicy()
    if args.retries is not None:
        if args.retries < 1:
            raise ValueError("--retries must be >= 1")
        retry = RetryPolicy(max_attempts=args.retries)
    if args.timeout is not None and args.timeout < 0:
        raise ValueError("--timeout must be >= 0 (0 disables)")
    manifest = None
    manifest_path = getattr(args, "manifest", None)
    resume = getattr(args, "resume", False)
    if resume and manifest_path is None:
        manifest_path = DEFAULT_MANIFEST
    if manifest_path is not None:
        from pathlib import Path

        from .durable import load
        manifest, unreadable = (load(Path(manifest_path), SweepManifest.load)
                                if resume else (None, None))
        if manifest is not None:
            requeued = manifest.reset_failures()
            done = manifest.counts()["done"]
            print(f"[sweep] resuming {manifest_path}: {done} point(s) "
                  f"done, {requeued} failed point(s) re-queued",
                  file=sys.stderr)
        else:
            if resume:
                why = (f"quarantined the unreadable manifest "
                       f"{manifest_path} ({unreadable})" if unreadable
                       else f"no manifest at {manifest_path}")
                print(f"[sweep] {why}; starting fresh", file=sys.stderr)
            manifest = SweepManifest(path=manifest_path, sweep=tag)
    incidents = IncidentLog(tag=tag)
    ctx = supervised_sweep(keep_going=not args.fail_fast, retry=retry,
                           timeout=args.timeout, manifest=manifest,
                           incidents=incidents)
    return ctx, incidents


def _finish_supervised(sup, incidents, failures, obs_dir) -> int:
    """Shared epilogue: failure table, incident artifact, exit code."""
    from .harness.supervise import format_failure_table
    from .obs.incidents import maybe_write

    path = maybe_write(incidents, obs_dir)
    if path is not None:
        print(f"[sweep] {len(incidents)} incident(s) -> {path}",
              file=sys.stderr)
    if not failures:
        return 0
    print(file=sys.stderr)
    print(format_failure_table(failures), file=sys.stderr)
    if sup.manifest is not None:
        print(f"[sweep] manifest: {sup.manifest.summary()} -> "
              f"{sup.manifest.path} (re-run with --resume to retry)",
              file=sys.stderr)
    return 3


def _run_supervised(args, tag: str, execute, render,
                    observe_cached: bool = False) -> int:
    """The one supervised path of ``run`` and ``campaign run``.

    ``execute(config, force)`` makes the command's ``run_many`` calls
    under the supervisor, with the :class:`RunConfig` built from the
    flags; ``render(value, sup)`` prints what a finished sweep
    produced.  Observer artifacts only exist when the simulator actually
    runs: with ``observe_cached`` an observed sweep passes ``force=True``
    to re-simulate cached points, otherwise they are served without
    artifacts, with a warning.  Exit codes follow the module doc; an
    interrupt also writes the incident log.
    """
    from .harness.supervise import (ManifestPersistError, SweepFailedError,
                                    SweepInterrupted)
    from .obs.incidents import maybe_write

    name = args.command
    try:
        config = _run_config(args)
        force = config.obs is not None and observe_cached
        if (config.obs is not None and not force
                and not getattr(args, "no_store", False)):
            print(f"[{name}] observability on: store-cached points are "
                  "served without artifacts; use an empty store "
                  "(REPRO_RESULT_STORE) to observe every point",
                  file=sys.stderr)
        ctx, incidents = _supervision_from_args(args, tag)
        with ctx as sup:
            try:
                value = execute(config, force)
            except SweepFailedError as exc:  # --fail-fast
                return _finish_supervised(sup, incidents, exc.failures,
                                          args.obs_dir)
    except (KeyError, ValueError) as exc:   # bad flag value or name
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    except SweepInterrupted as exc:
        print(f"\n[{name}] interrupted: {exc}", file=sys.stderr)
        maybe_write(incidents, args.obs_dir)
        return 130
    except ManifestPersistError as exc:
        incidents.add("manifest-persist", path=str(exc.path),
                      strikes=exc.strikes)
        maybe_write(incidents, args.obs_dir)
        print(f"\n[{name}] aborted: {exc}", file=sys.stderr)
        return 3
    render(value, sup)
    return _finish_supervised(sup, incidents, sup.failures, args.obs_dir)


def _cmd_run(args) -> int:
    import json

    from .analysis import format_table
    from .harness.runner import USE_DEFAULT_STORE, run_many
    from .harness.spec import ExperimentSpec
    from .workloads import gap_workload_names, serve_names

    if args.workload in gap_workload_names():
        suite = "gap"
    elif args.workload in serve_names():
        suite = "serve"
    else:
        suite = "spec"
    store = None if args.no_store else USE_DEFAULT_STORE
    try:
        specs = [ExperimentSpec.multicopy(
                     args.workload, policy, n_cores=args.cores,
                     prefetch=args.prefetch, suite=suite,
                     n_records=args.records // 2, seed=args.seed)
                 for policy in args.policies]
    except ValueError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2

    def render(results, _sup) -> None:
        if args.json:
            print(json.dumps(
                [{"spec": spec.to_dict(),
                  "result": None if res is None else res.to_dict()}
                 for spec, res in zip(specs, results)],
                sort_keys=True, indent=2))
            return
        rows = []
        base = None
        for policy, res in zip(args.policies, results):
            if res is None:
                rows.append([policy] + ["-"] * 6)
                continue
            total = sum(res.ipc)
            if base is None:
                base = total
            rows.append([policy, f"{total:.3f}", f"{total / base:.3f}",
                         f"{res.mpki():.2f}", f"{res.pmr:.3f}",
                         f"{res.mean_pmc:.1f}", f"{res.aocpa:.1f}"])
        print(f"{args.workload} x {args.cores} cores, "
              f"prefetch={'on' if args.prefetch else 'off'}, "
              f"{args.records} records/core")
        print(format_table(
            ["policy", "sum IPC", "vs first", "MPKI", "pMR", "mean PMC",
             "AOCPA"], rows))

    return _run_supervised(
        args, f"run-{args.workload}",
        lambda config, force: run_many(specs, workers=args.workers,
                                       store=store, force=force,
                                       config=config),
        render, observe_cached=True)


def _resolve_campaign(args):
    """Load + optionally slice the campaign named by the CLI args."""
    from .harness.campaign import apply_slice, find_campaign, load_campaign
    campaign = load_campaign(find_campaign(args.campaign))
    if getattr(args, "slice", None):
        campaign = apply_slice(campaign, args.slice)
    return campaign


NO_STORE = ("error: no result store (set REPRO_RESULT_STORE or pass "
            "--store PATH)")


def _args_store(args):
    """The ``--store`` result store, else the process default (or None)."""
    from .harness.store import ResultStore, default_store
    if getattr(args, "store", None):
        return ResultStore(args.store)
    return default_store()


def _cmd_campaign(args) -> int:
    import json

    from .harness.campaign import (CampaignError, available_campaigns,
                                   build_campaign_report, campaign_status,
                                   format_status, load_campaign,
                                   render_campaign_markdown)

    if args.campaign_command == "list":
        paths = available_campaigns()
        if not paths:
            print("no campaigns under benchmarks/campaigns/")
            return 0
        for path in paths:
            try:
                campaign = load_campaign(path)
            except CampaignError as exc:
                print(f"{path}: INVALID ({exc})")
                continue
            slices = ", ".join(sorted(campaign.slices)) or "-"
            print(f"{campaign.name:16s} {len(campaign.specs()):6d} distinct "
                  f"point(s) in {len(campaign.grids)} grid(s)  "
                  f"slices: {slices}")
        return 0

    try:
        campaign = _resolve_campaign(args)
    except CampaignError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.campaign_command == "status":
        from pathlib import Path

        from .harness.supervise import SweepManifest
        store = _args_store(args)
        manifest_counts = None
        manifest_path = args.manifest or campaign.default_manifest()
        if Path(manifest_path).exists():
            manifest_counts = SweepManifest.load(manifest_path).counts()
        status = campaign_status(campaign, store,
                                 manifest_counts=manifest_counts)
        if args.json:
            print(json.dumps(status, sort_keys=True, indent=2))
        else:
            print(format_status(status))
        return 0

    if args.campaign_command == "report":
        from pathlib import Path
        store = _args_store(args)
        if store is None:
            print(NO_STORE, file=sys.stderr)
            return 2
        report = build_campaign_report(campaign, store,
                                       baseline=args.baseline)
        if args.format == "json":
            text = json.dumps(report, sort_keys=True, indent=2) + "\n"
        else:
            text = render_campaign_markdown(report)
        if args.out:
            out = Path(args.out)
            out.write_text(text)
            print(f"[campaign] wrote {out}", file=sys.stderr)
        else:
            print(text, end="")
        return 0

    # -- campaign run ---------------------------------------------------
    from .harness.runner import run_many, session_stats

    # The campaign is a standing resumable sweep: checkpoint to the
    # campaign's own manifest unless the caller picked another path.
    if args.manifest is None:
        args.manifest = campaign.default_manifest()
    specs = campaign.specs()
    print(f"[campaign] {campaign.name}"
          + (f" · slice {campaign.slice_name}" if campaign.slice_name else "")
          + f": {len(specs)} point(s) across {len(campaign.grids)} grid(s)",
          file=sys.stderr)

    def render(_results, sup) -> None:
        status = campaign_status(
            campaign, _args_store(args),
            manifest_counts=sup.manifest.counts() if sup.manifest else None)
        print(format_status(status))
        if session_stats.sweeps:
            print(f"[campaign] {session_stats.sweeps[-1].summary()}")

    return _run_supervised(
        args, campaign.tag(),
        lambda config, _force: run_many(specs, workers=args.workers,
                                        progress=not args.quiet,
                                        config=config),
        render)


def _cmd_perf(args) -> int:
    import json

    from .harness.perfbench import (DEFAULT_OUTPUT, diff_payloads,
                                    format_payload, run_suite, write_payload)

    if args.sweep:
        from .harness.perfbench import (SWEEP_GRID_RECORDS,
                                        SWEEP_SMOKE_RECORDS,
                                        format_sweep_payload,
                                        merge_sweep_section,
                                        run_sweep_benchmark)
        section = run_sweep_benchmark(
            repeat=max(2, args.repeat),
            records=(SWEEP_SMOKE_RECORDS if args.smoke
                     else SWEEP_GRID_RECORDS),
            progress=not args.quiet)
        out = args.out
        if out is None:
            out = "BENCH_perf.smoke.json" if args.smoke else DEFAULT_OUTPUT
        existing = None
        try:
            with open(out) as handle:
                existing = json.load(handle)
        except (OSError, json.JSONDecodeError):
            existing = None
        payload = merge_sweep_section(existing, section)
        path = write_payload(payload, out)
        if args.json:
            print(json.dumps(payload, sort_keys=True, indent=2))
        else:
            print(format_sweep_payload(section))
        if not args.quiet:
            print(f"[perf] wrote {path}", file=sys.stderr)
        return 0
    if args.gate:
        from .harness.perfbench import (DEFAULT_GATE_THRESHOLD,
                                        gate_sweep_regression)
        base_path, fresh_path = args.gate
        try:
            with open(base_path) as handle:
                base = json.load(handle)
            with open(fresh_path) as handle:
                fresh = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        threshold = args.gate_threshold
        if threshold is None:
            threshold = DEFAULT_GATE_THRESHOLD
        try:
            status, message = gate_sweep_regression(base, fresh,
                                                    threshold=threshold)
        except ValueError as exc:
            print(f"error: {exc.args[0]}", file=sys.stderr)
            return 2
        print(f"[perf] gate {status}: {message}")
        return 1 if status == "fail" else 0
    if args.diff:
        base_path, fresh_path = args.diff
        try:
            with open(base_path) as handle:
                base = json.load(handle)
            with open(fresh_path) as handle:
                fresh = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(diff_payloads(base, fresh))
        return 0
    try:
        payload = run_suite(args.cases, repeat=args.repeat, smoke=args.smoke,
                            progress=not args.quiet)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    # Smoke payloads are CI-sized and not comparable to the committed
    # baseline, so they default to a separate file instead of clobbering
    # BENCH_perf.json.
    out = args.out
    if out is None:
        out = "BENCH_perf.smoke.json" if args.smoke else DEFAULT_OUTPUT
    path = write_payload(payload, out)
    if args.json:
        print(json.dumps(payload, sort_keys=True, indent=2))
    else:
        print(format_payload(payload))
    if not args.quiet:
        print(f"[perf] wrote {path}", file=sys.stderr)
    return 0


def _cmd_report(args) -> int:
    from pathlib import Path

    from .obs.report import generate

    store = _args_store(args)
    if store is None:
        print(NO_STORE, file=sys.stderr)
        return 2
    try:
        text = generate(store, fmt=args.format, baseline=args.baseline,
                        policies=args.policies)
    except ValueError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    if args.incidents:
        from .obs.incidents import IncidentLog
        if args.format != "md":
            print("error: --incidents requires --format md",
                  file=sys.stderr)
            return 2
        try:
            log = IncidentLog.load(args.incidents)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read incidents file: {exc}",
                  file=sys.stderr)
            return 2
        text = text.rstrip("\n") + "\n\n" + log.render_markdown()
    if args.out:
        out = Path(args.out)
        out.write_text(text if text.endswith("\n") else text + "\n")
        print(f"[report] wrote {out}", file=sys.stderr)
    else:
        print(text)
    return 0


def _cmd_store(args) -> int:
    store = _args_store(args)
    if store is None:
        print(NO_STORE, file=sys.stderr)
        return 2
    if args.store_command == "fsck":
        # The trace cache and sweep/campaign manifests corrupt the same
        # way as the store (torn writes, chaos), so fsck covers all three.
        from pathlib import Path

        from .harness.supervise import fsck_manifests
        from .workloads.tracecache import default_trace_cache
        reports = [("", store.fsck(),
                    f"quarantined entries moved to {store.quarantine_dir}; "
                    "re-running the sweep re-simulates them")]
        cache = default_trace_cache()
        if cache is not None and cache.namespace.is_dir():
            reports.append(("trace cache ", cache.fsck(),
                            f"quarantined trace entries moved to "
                            f"{cache.quarantine_dir}; traces are "
                            "regenerated on next use"))
        manifests = fsck_manifests(args.manifests or sorted(
            str(p) for p in Path(".").glob("*.manifest.json")))
        if manifests.scanned:
            reports.append(("manifests ", manifests,
                            "quarantined manifests moved aside; the next "
                            "sweep starts a fresh ledger (done points "
                            "still come from the store)"))
        for label, report, note in reports:
            print(f"{label}{report.summary()}")
            for line in report.errors:
                print(f"  {line}")
            if report.quarantined:
                print(note)
        dirty = any(r.quarantined or r.errors for _, r, _ in reports)
        return 1 if dirty else 0
    print(f"store root: {store.root}")
    print(f"namespace:  {store.namespace.name}")
    print(f"entries:    {len(store)}")
    return 0


def _emit_findings(findings, fmt: str, fix_hints: bool) -> None:
    from .checks.lint import format_finding

    if fmt == "json":
        import json
        payload = {
            "version": "repro.simsan.findings/v1",
            "clean": not findings,
            "findings": [
                {"path": f.path, "line": f.line, "col": f.col,
                 "rule": f.rule_id, "name": f.rule.name,
                 "message": f.message}
                for f in findings
            ],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return
    if fmt == "github":
        for f in findings:
            # GitHub annotation grammar: property values escape % , \r \n
            msg = (f"{f.rule_id} [{f.rule.name}] {f.message}"
                   .replace("%", "%25").replace("\r", "%0D")
                   .replace("\n", "%0A"))
            print(f"::error file={f.path},line={f.line},"
                  f"col={f.col + 1},title={f.rule_id}::{msg}")
        return
    for f in findings:
        print(format_finding(f, fix_hints=fix_hints))


def _cmd_check(args) -> int:
    from .checks.lint import audit_suppressions, run_lint_detailed
    from .checks.lint.rules import RULES

    if args.list_rules:
        from .checks.flow.rules import FLOW_RULES
        for rule in list(RULES.values()) + list(FLOW_RULES.values()):
            print(f"{rule.id}  {rule.name:26s} [{rule.scope}] {rule.summary}")
        return 0
    paths = args.paths
    if not paths:
        from pathlib import Path
        default = Path("src")
        paths = [default] if default.is_dir() else [Path(__file__).parent]
    run_flow_pass = args.flow or bool(args.call_graph)
    try:
        results = run_lint_detailed(paths)
        findings = [f for r in results for f in r.findings]
        flow_report = None
        if run_flow_pass:
            from .checks.flow import run_flow
            flow_report = run_flow(paths)
            findings.extend(flow_report.findings)
    except (FileNotFoundError, SyntaxError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    findings.extend(audit_suppressions(
        results,
        flow_used=flow_report.used_suppressions if flow_report else None,
        flow_ran=flow_report is not None))
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule_id))
    if args.call_graph and flow_report is not None:
        import json
        from pathlib import Path
        out = Path(args.call_graph)
        if out.suffix in (".dot", ".gv"):
            out.write_text(
                flow_report.graph.to_dot(hot=flow_report.hot_derived),
                encoding="utf-8")
        else:
            payload = flow_report.graph.to_json(
                hot=flow_report.hot_derived,
                worker=flow_report.worker_closure)
            out.write_text(
                json.dumps(payload, indent=2, sort_keys=True) + "\n",
                encoding="utf-8")
        print(f"call graph written to {out}", file=sys.stderr)
    _emit_findings(findings, args.format, args.fix_hints)
    if findings:
        if args.format == "text":
            print(f"\n{len(findings)} finding(s). Suppress a reviewed line "
                  "with '# simsan: skip=<ID>'; see --fix-hints for remedies.")
        return 1
    if args.format == "text":
        scope = "lint+flow" if run_flow_pass else "lint"
        print(f"simsan: clean ({scope})")
    return 0


def _add_supervise_args(parser: argparse.ArgumentParser,
                        with_manifest: bool = False) -> None:
    """Fault-tolerance flags shared by ``run`` and ``campaign run``."""
    parser.add_argument("--fail-fast", action="store_true",
                        help="abort on the first permanent failure "
                             "(default: finish healthy points, report a "
                             "failure table, exit 3)")
    parser.add_argument("--retries", type=int, default=None, metavar="N",
                        help="attempts per point for transient failures "
                             "(default 3)")
    parser.add_argument("--timeout", type=float, default=None, metavar="S",
                        help="per-point watchdog timeout in seconds "
                             "(0 disables; default scaled to the point's "
                             "size)")
    parser.add_argument("--chaos", default=None,
                        metavar="PROFILE:SEED[:NUM/DEN]",
                        help="inject deterministic faults (testing): "
                             "profiles raise/flaky/hang/kill/corrupt/all, "
                             "e.g. 'all:7' or 'flaky:3:1/2'")
    if with_manifest:
        parser.add_argument("--manifest", nargs="?",
                            const="sweep.manifest.json",
                            default=None, metavar="PATH",
                            help="checkpoint campaign status to PATH "
                                 "(default sweep.manifest.json)")
        parser.add_argument("--resume", action="store_true",
                            help="resume from the manifest: done points "
                                 "come from the store, failed points are "
                                 "re-queued")


def _add_obs_args(parser: argparse.ArgumentParser) -> None:
    """Observability flags shared by ``run`` and ``campaign run``."""
    parser.add_argument("--metrics-interval", type=int, default=0,
                        metavar="CYCLES",
                        help="sample interval metrics every CYCLES cycles "
                             "(0 = off); writes <tag>.metrics.json")
    parser.add_argument("--trace", action="store_true",
                        help="emit Chrome-trace request-lifecycle spans "
                             "(<tag>.trace.json; open in ui.perfetto.dev)")
    parser.add_argument("--trace-sample", type=int, default=1, metavar="N",
                        help="trace every Nth demand request per core "
                             "(default 1 = all)")
    parser.add_argument("--obs-dir", default="obs", metavar="DIR",
                        help="directory for observability artifacts "
                             "(default ./obs)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="CARE (HPCA 2023) reproduction toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("policies", help="list replacement schemes")
    sub.add_parser("workloads", help="list workloads")
    sub.add_parser("studycase", help="Fig. 2 / Tables I & II analysis")
    sub.add_parser("hwcost", help="Tables V & VI hardware costs")

    run = sub.add_parser("run", help="simulate a workload")
    run.add_argument("workload", help="e.g. 429.mcf or bfs-or")
    run.add_argument("--policies", nargs="+",
                     default=["lru", "shippp", "care"])
    run.add_argument("--cores", type=int, default=1)
    run.add_argument("--records", type=int, default=8000)
    run.add_argument("--seed", type=int, default=3)
    run.add_argument("--prefetch", action="store_true")
    run.add_argument("--json", action="store_true",
                     help="emit specs + full SimResult dicts as JSON")
    run.add_argument("--workers", type=int, default=None,
                     help="worker processes (default 1; 0 = one per CPU)")
    run.add_argument("--no-store", action="store_true",
                     help="skip the persistent result store")
    run.add_argument("--sanitize", action="store_true",
                     help="enable the runtime invariant sanitizer "
                          "(store-cached points are not re-simulated — "
                          "add --no-store to force checking)")
    run.add_argument("--trace-cache", default=None, metavar="DIR",
                     help="content-addressed trace cache directory, or "
                          "'off' (default $REPRO_TRACE_CACHE or "
                          "~/.cache/repro-care/traces)")
    _add_supervise_args(run)
    _add_obs_args(run)

    perf = sub.add_parser(
        "perf", help="simulation-kernel throughput microbenchmarks")
    perf.add_argument("--cases", nargs="+", default=None,
                      help="case names (default: all; see "
                           "repro.harness.perfbench.PERF_CASES)")
    perf.add_argument("--repeat", type=int, default=3,
                      help="repetitions per case; best-of wall clock")
    perf.add_argument("--smoke", action="store_true",
                      help="CI-sized traces (fast, informational)")
    perf.add_argument("--json", action="store_true",
                      help="print the full payload as JSON")
    perf.add_argument("--out", default=None,
                      help="output file (default BENCH_perf.json, or "
                           "BENCH_perf.smoke.json with --smoke)")
    perf.add_argument("--quiet", action="store_true",
                      help="suppress per-case progress lines")
    perf.add_argument("--diff", nargs=2, metavar=("BASE", "FRESH"),
                      help="print a markdown trend table comparing two "
                           "payload files instead of running the suite")
    perf.add_argument("--gate", nargs=2, metavar=("BASE", "FRESH"),
                      help="fail (exit 1) when FRESH's sweep points/s "
                           "regresses more than the gate threshold vs "
                           "BASE's matching grid; skip cleanly when the "
                           "grids are not comparable")
    perf.add_argument("--gate-threshold", type=float, default=None,
                      metavar="FRAC",
                      help="tolerated fractional drop for --gate (default "
                           "0.25)")
    perf.add_argument("--sweep", action="store_true",
                      help="run the sweep-throughput macro-benchmark "
                           "(warm pool + trace cache, cold and warm "
                           "rounds) instead of the kernel "
                           "microbenchmarks; "
                           "merged into the payload's 'sweep' section")

    campaign = sub.add_parser(
        "campaign",
        help="declarative paper-scale evaluation campaigns "
             "(benchmarks/campaigns/)")
    campaign_sub = campaign.add_subparsers(dest="campaign_command",
                                           required=True)

    def _campaign_common(p, with_slice: bool = True) -> None:
        p.add_argument("campaign", nargs="?", default=None,
                       help="campaign name under benchmarks/campaigns/ or "
                            "a spec file path (default care-paper)")
        if with_slice:
            p.add_argument("--slice", default=None, metavar="NAME",
                           help="run/inspect a named slice of the campaign "
                                "(e.g. ci-smoke, nightly)")

    crun = campaign_sub.add_parser(
        "run", help="execute the campaign grid as a resumable "
                    "supervised sweep")
    _campaign_common(crun)
    crun.add_argument("--workers", type=int, default=None,
                      help="worker processes (default 1; 0 = one per CPU)")
    crun.add_argument("--quiet", action="store_true",
                      help="suppress per-point progress lines")
    crun.add_argument("--sanitize", action="store_true",
                      help="enable the runtime invariant sanitizer for "
                           "every freshly simulated point")
    crun.add_argument("--trace-cache", default=None, metavar="DIR",
                      help="content-addressed trace cache directory, or "
                           "'off' (default $REPRO_TRACE_CACHE or "
                           "~/.cache/repro-care/traces)")
    _add_supervise_args(crun, with_manifest=True)
    _add_obs_args(crun)

    cstatus = campaign_sub.add_parser(
        "status", help="coverage of the campaign vs. the result store "
                       "and manifest")
    _campaign_common(cstatus)
    cstatus.add_argument("--store", default=None, metavar="PATH",
                         help="result-store root (default: the process "
                              "default store / $REPRO_RESULT_STORE)")
    cstatus.add_argument("--manifest", default=None, metavar="PATH",
                         help="manifest path (default: the campaign's own "
                              "<tag>.manifest.json)")
    cstatus.add_argument("--json", action="store_true",
                         help="emit the status dict as JSON")

    creport = campaign_sub.add_parser(
        "report", help="render the per-figure reproduction tables from "
                       "stored results")
    _campaign_common(creport)
    creport.add_argument("--store", default=None, metavar="PATH",
                         help="result-store root (default: the process "
                              "default store / $REPRO_RESULT_STORE)")
    creport.add_argument("--baseline", default=None,
                         help="policy speedups are normalized to "
                              "(default: the campaign's baseline, lru)")
    creport.add_argument("--format", choices=["md", "json"], default="md")
    creport.add_argument("--out", default=None, metavar="PATH",
                         help="write to PATH instead of stdout")

    campaign_sub.add_parser(
        "list", help="list campaign files under benchmarks/campaigns/")

    report = sub.add_parser(
        "report", help="render a stored run/sweep as markdown or JSON")
    report.add_argument("--store", default=None, metavar="PATH",
                        help="result-store root (default: the process "
                             "default store / $REPRO_RESULT_STORE)")
    report.add_argument("--format", choices=["md", "json"], default="md")
    report.add_argument("--out", default=None, metavar="PATH",
                        help="write to PATH instead of stdout")
    report.add_argument("--baseline", default="lru",
                        help="policy speedups are normalized to "
                             "(default lru)")
    report.add_argument("--policies", nargs="+", default=None,
                        help="restrict the report to these policies")
    report.add_argument("--incidents", default=None, metavar="FILE",
                        help="append a supervision-incident section from "
                             "FILE (<obs-dir>/<tag>.incidents.json; "
                             "md format only)")

    store = sub.add_parser(
        "store", help="inspect / repair the persistent result store")
    store_sub = store.add_subparsers(dest="store_command", required=False)
    store.add_argument("--store", default=None, metavar="PATH",
                       help="result-store root (default: the process "
                            "default store / $REPRO_RESULT_STORE)")
    fsck = store_sub.add_parser(
        "fsck", help="validate every entry; quarantine corrupt ones")
    # SUPPRESS keeps a bare sub-flag default from clobbering a --store
    # given before the subcommand.
    fsck.add_argument("--store", default=argparse.SUPPRESS, metavar="PATH",
                      help="result-store root (default: the process "
                           "default store / $REPRO_RESULT_STORE)")
    fsck.add_argument("--manifests", nargs="*", default=None,
                      metavar="PATH",
                      help="sweep/campaign manifest files to validate "
                           "(default: *.manifest.json in the current "
                           "directory)")

    check = sub.add_parser(
        "check", help="SimSan static lint (determinism + hot-path rules)")
    check.add_argument("paths", nargs="*",
                       help="files or directories (default: src)")
    check.add_argument("--fix-hints", action="store_true",
                       help="print a fix hint under every finding")
    check.add_argument("--list-rules", action="store_true",
                       help="list the rule catalogue and exit")
    check.add_argument("--flow", action="store_true",
                       help="also run the whole-program flow analysis "
                            "(call graph, hot-path reachability, "
                            "determinism taint, worker/fork safety)")
    check.add_argument("--call-graph", metavar="PATH", default=None,
                       help="export the flow call graph (implies --flow; "
                            ".dot/.gv for Graphviz, anything else JSON)")
    check.add_argument("--format", choices=("text", "json", "github"),
                       default="text",
                       help="finding output format (github emits "
                            "::error workflow annotations)")
    return parser


def main(argv: List[str] = None) -> int:
    _setup_cli_logging()
    args = build_parser().parse_args(argv)
    handlers = {
        "policies": _cmd_policies,
        "workloads": _cmd_workloads,
        "studycase": _cmd_studycase,
        "hwcost": _cmd_hwcost,
        "run": _cmd_run,
        "campaign": _cmd_campaign,
        "perf": _cmd_perf,
        "report": _cmd_report,
        "store": _cmd_store,
        "check": _cmd_check,
    }
    try:
        return handlers[args.command](args)
    except KeyboardInterrupt:
        print("\ninterrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:
        # stdout fed a closed pager/head; exit quietly like other CLIs do
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":
    sys.exit(main())
