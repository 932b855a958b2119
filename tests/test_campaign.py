"""The declarative campaign layer (PR 9): spec parsing + validation,
workload selectors, slicing semantics, deterministic expansion, the
committed paper-scale campaign file, and status/report rendering
against a populated result store."""

import json

import pytest

from repro.harness.campaign import (CAMPAIGN_SCHEMA, CampaignError,
                                    apply_slice, available_campaigns,
                                    build_campaign_report,
                                    campaign_status, find_campaign,
                                    load_campaign, parse_campaign,
                                    render_campaign_markdown,
                                    resolve_workloads)
from repro.harness.spec import ExperimentSpec
from repro.harness.store import ResultStore


def minimal(**overrides):
    """A small valid campaign dict tests can bend per case."""
    data = {
        "schema": CAMPAIGN_SCHEMA,
        "name": "unit",
        "defaults": {"records": 200, "seed": 3, "preset": "tiny"},
        "grids": [
            {"id": "g1", "suite": "spec",
             "workloads": ["429.mcf", "433.milc", "450.soplex"],
             "policies": ["lru", "care"], "cores": [1, 2]},
            {"id": "g2", "suite": "mix", "mixes": 4,
             "policies": ["lru", "care"], "cores": [2]},
        ],
        "slices": {
            "smoke": {"grids": ["g1"], "max_workloads": 2,
                      "records": 100, "policies": ["care"]},
        },
    }
    data.update(overrides)
    return data


# ----------------------------------------------------------------------
# Parsing and validation
# ----------------------------------------------------------------------
def test_parse_minimal_campaign():
    campaign = parse_campaign(minimal())
    assert campaign.name == "unit"
    assert [g.id for g in campaign.grids] == ["g1", "g2"]
    assert campaign.grids[0].records == 200
    assert campaign.grids[0].preset == "tiny"
    # g1: 3 workloads x 2 policies x 2 cores; g2: 4 mixes x 2 policies
    assert campaign.points() == 12 + 8


@pytest.mark.parametrize("mutate, match", [
    ({"schema": "nope/v0"}, "schema"),
    ({"name": ""}, "name"),
    ({"grids": []}, "at least one grid"),
])
def test_parse_rejects_bad_top_level(mutate, match):
    with pytest.raises(CampaignError, match=match):
        parse_campaign(minimal(**mutate))


@pytest.mark.parametrize("grid, match", [
    ({"id": "g", "suite": "spec", "workloads": ["429.mcf"],
      "policies": ["lru"], "cores": [1], "bogus": 1}, "unknown keys"),
    ({"id": "g", "suite": "spec", "workloads": ["429.mcf"],
      "policies": ["lru"]}, "missing required key"),
    ({"id": "g", "suite": "weird", "workloads": ["429.mcf"],
      "policies": ["lru"], "cores": [1]}, "unknown suite"),
    ({"id": "g", "suite": "spec", "workloads": ["429.mcf"],
      "policies": ["lru"], "cores": [1], "preset": "huge"},
     "unknown preset"),
    ({"id": "g", "suite": "mix", "policies": ["lru"], "cores": [1]},
     "'mixes' >= 1"),
    ({"id": "g", "suite": "spec", "policies": ["lru"], "cores": [1]},
     "'workloads'"),
])
def test_parse_rejects_bad_grids(grid, match):
    with pytest.raises(CampaignError, match=match):
        parse_campaign(minimal(grids=[grid]))


def test_parse_rejects_duplicate_grid_ids():
    data = minimal()
    data["grids"][1] = dict(data["grids"][0])
    with pytest.raises(CampaignError, match="duplicate grid ids"):
        parse_campaign(data)


def test_parse_rejects_bad_slices():
    with pytest.raises(CampaignError, match="unknown keys"):
        parse_campaign(minimal(slices={"s": {"frobnicate": 1}}))
    with pytest.raises(CampaignError, match="unknown grid"):
        parse_campaign(minimal(slices={"s": {"grids": ["missing"]}}))


# ----------------------------------------------------------------------
# Workload selectors
# ----------------------------------------------------------------------
def test_selectors_expand():
    from repro.workloads import serve_names, spec_names
    assert resolve_workloads("@spec") == spec_names()
    assert resolve_workloads("@serve") == serve_names()
    assert len(resolve_workloads("@spec-fig5")) == 16
    assert resolve_workloads("@gap")
    kv = resolve_workloads("@serve-kv")
    assert kv and all(n in serve_names() for n in kv)
    assert resolve_workloads(["a", "b"]) == ["a", "b"]


@pytest.mark.parametrize("selector", ["@nope", "@serve-cron", []])
def test_selectors_reject_unknown(selector):
    with pytest.raises(CampaignError):
        resolve_workloads(selector)


# ----------------------------------------------------------------------
# Expansion
# ----------------------------------------------------------------------
def test_expansion_is_deterministic_and_typed():
    campaign = parse_campaign(minimal())
    a = campaign.specs()
    b = parse_campaign(minimal()).specs()
    assert [s.key() for s in a] == [s.key() for s in b]
    assert len(a) == campaign.points()
    assert all(isinstance(s, ExperimentSpec) for s in a)


def test_overlapping_grids_deduplicate():
    g = {"id": "g1", "suite": "spec", "workloads": ["429.mcf"],
         "policies": ["lru"], "cores": [1]}
    data = minimal(grids=[g, dict(g, id="g2")], slices={})
    campaign = parse_campaign(data)
    assert campaign.points() == 2          # raw grid points
    assert len(campaign.specs()) == 1      # deduped by spec key


# ----------------------------------------------------------------------
# Slicing
# ----------------------------------------------------------------------
def test_apply_slice_filters_and_overrides():
    campaign = parse_campaign(minimal())
    sliced = apply_slice(campaign, "smoke")
    assert sliced.slice_name == "smoke"
    assert [g.id for g in sliced.grids] == ["g1"]
    grid = sliced.grids[0]
    assert grid.records == 100
    assert grid.policies == ("care",)      # intersection with the grid
    assert len(grid.workloads) == 2        # strided sample keeps spread
    assert grid.workloads[0] == "429.mcf"
    assert sliced.tag() == "campaign-unit-smoke"
    assert sliced.default_manifest() == "campaign-unit-smoke.manifest.json"
    # the original campaign is untouched
    assert campaign.grids[0].records == 200


def test_apply_slice_axis_fallback_when_intersection_empty():
    data = minimal(slices={"alt": {"policies": ["mcare"], "cores": [8]}})
    sliced = apply_slice(parse_campaign(data), "alt")
    for grid in sliced.grids:
        assert grid.policies == ("mcare",)
        assert grid.cores == (8,)


def test_apply_slice_max_mixes_caps():
    data = minimal(slices={"m": {"grids": ["g2"], "max_mixes": 2}})
    sliced = apply_slice(parse_campaign(data), "m")
    assert sliced.grids[0].mixes == 2


def test_apply_slice_unknown_name():
    with pytest.raises(CampaignError, match="no slice"):
        apply_slice(parse_campaign(minimal()), "nope")


# ----------------------------------------------------------------------
# Loading / discovery
# ----------------------------------------------------------------------
def test_load_campaign_json(tmp_path):
    path = tmp_path / "unit.json"
    path.write_text(json.dumps(minimal()))
    campaign = load_campaign(path)
    assert campaign.name == "unit"
    assert campaign.source == str(path)


def test_load_campaign_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{nope")
    with pytest.raises(CampaignError, match="invalid JSON"):
        load_campaign(path)


def test_load_campaign_toml(tmp_path):
    tomllib = pytest.importorskip("tomllib")
    assert tomllib
    path = tmp_path / "unit.toml"
    path.write_text(
        'schema = "repro.campaign/v1"\n'
        'name = "unit-toml"\n'
        "[defaults]\nrecords = 100\npreset = \"tiny\"\n"
        "[[grids]]\n"
        'id = "g1"\nsuite = "spec"\nworkloads = ["429.mcf"]\n'
        'policies = ["lru"]\ncores = [1]\n')
    campaign = load_campaign(path)
    assert campaign.name == "unit-toml"
    assert campaign.grids[0].records == 100


def test_find_campaign_paths_and_names(tmp_path, monkeypatch):
    direct = tmp_path / "c.json"
    direct.write_text("{}")
    assert find_campaign(str(direct)) == direct
    monkeypatch.chdir(tmp_path)
    assert available_campaigns() == []
    with pytest.raises(CampaignError, match="no campaign named"):
        find_campaign("missing")


# ----------------------------------------------------------------------
# The committed paper-scale campaign
# ----------------------------------------------------------------------
def test_committed_campaign_is_valid_and_sliceable():
    campaign = load_campaign(find_campaign(None))
    assert campaign.name == "care-paper"
    assert {"ci-smoke", "nightly"} <= set(campaign.slices)
    assert campaign.points() > 1000        # the full paper grid is big
    smoke = apply_slice(campaign, "ci-smoke")
    # the CI gate budget: a handful of points, tiny record counts
    assert len(smoke.specs()) <= 32
    assert all(g.records <= 500 for g in smoke.grids)
    nightly = apply_slice(campaign, "nightly")
    assert 0 < len(nightly.specs()) < campaign.points()


# ----------------------------------------------------------------------
# Status and report against a populated store
# ----------------------------------------------------------------------
@pytest.fixture
def tiny_campaign():
    return parse_campaign({
        "schema": CAMPAIGN_SCHEMA,
        "name": "tiny",
        "defaults": {"records": 200, "preset": "tiny"},
        "grids": [
            {"id": "g1", "figure": "Fig. 7", "title": "speedup",
             "suite": "spec", "workloads": ["429.mcf"],
             "policies": ["lru", "care"], "cores": [1]},
        ],
    })


def test_status_and_report_roundtrip(tiny_campaign, tmp_path):
    store = ResultStore(tmp_path / "store")
    empty = campaign_status(tiny_campaign, store)
    assert empty["points"] == 2 and empty["done"] == 0

    for spec in tiny_campaign.specs():
        store.put(spec, spec.execute())

    status = campaign_status(tiny_campaign, store,
                             manifest_counts={"done": 2, "pending": 0})
    assert status["done"] == status["points"] == 2
    assert status["coverage"] == 1.0
    assert status["manifest"]["done"] == 2

    report = build_campaign_report(tiny_campaign, store)
    assert report["baseline"] == "lru"
    assert report["grids"][0]["done"] == 2

    text = render_campaign_markdown(report)
    assert "# Campaign report · tiny" in text
    assert "| g1 | Fig. 7 |" in text
    assert "100.0%" in text


def test_report_renders_placeholder_without_results(tiny_campaign, tmp_path):
    store = ResultStore(tmp_path / "store")
    text = render_campaign_markdown(
        build_campaign_report(tiny_campaign, store))
    assert "No stored results yet" in text


# ----------------------------------------------------------------------
# The v1 format stays backward compatible
# ----------------------------------------------------------------------
def test_simbench_campaign_expansion_is_pinned():
    """simbench's campaign-mix workload runs these 42 points in this
    order; a format change that moved any of them would silently change
    the benchmark."""
    import hashlib
    specs = load_campaign("simbench/campaign-bench.json").specs()
    keys = "\n".join(s.key() for s in specs)
    assert len(specs) == 42
    assert hashlib.sha256(keys.encode()).hexdigest() == (
        "d990f20429b151b0cbe012addc3e0dd57a1d9c7bdd71a26c99299f56affc2bf2")


# ----------------------------------------------------------------------
# Metrics, records maps, paper values and claims
# ----------------------------------------------------------------------
def grid(**overrides):
    """One small spec grid, bent per case."""
    data = {"id": "g", "suite": "spec", "workloads": ["429.mcf"],
            "policies": ["lru", "care"], "cores": [1, 2]}
    data.update(overrides)
    return data


def claim(left, op, right, **extra):
    return {"text": f"{left} {op} {right}", "left": left, "op": op,
            "right": right, **extra}


@pytest.mark.parametrize("bad, match", [
    ({"metric": "ipc"}, "unknown metric"),
    ({"metric": "weighted_ipc"}, "needs a mix grid"),
    ({"records": {"1": 100}}, "'records' covers cores"),
    ({"claims": [claim("srrip@1", ">", 1)]}, "policy 'srrip'"),
    ({"claims": [claim("care@8", ">", 1)]}, "core count"),
    ({"claims": [claim("care", ">", 1)]}, "needs a core count"),
    ({"claims": [claim("care@1", "<", 1)]}, "claim op"),
    ({"claims": [claim("best", ">", 1)]}, "'best' needs a policy"),
    ({"claims": [claim(2, ">", 1)]}, "names no policy"),
    ({"claims": [{"text": "t", "left": "care@1", "op": ">"}]},
     "missing 'right'"),
    ({"metric": "pmr", "claims": [claim("care@1", "<=", "best")]},
     "speedup or weighted_ipc grid"),
    ({"metric": "pmc_hist", "claims": [claim("care@1", ">", 0)]},
     "no scalar aggregate"),
    ({"claims": [claim("care@1", ">", 1, tol=-1)]}, "tol must be"),
    ({"claims": claim("care@1", ">", 1)}, "'claims' a list"),
    ({"records": {"one": 100, "2": 50}}, "maps core counts"),
    ({"paper": {"mcare@1": 1.1}}, "policy 'mcare'"),
    ({"paper": {"care@1": "high"}}, "maps policy operands to numbers"),
])
def test_parse_rejects_bad_metrics_records_and_claims(bad, match):
    with pytest.raises(CampaignError, match=match):
        parse_campaign(minimal(grids=[grid(**bad)], slices={}))


def test_records_map_sets_records_per_core_count():
    data = minimal(grids=[grid(records={"1": 300, "2": 150})], slices={
        "flat": {"records": 50}, "eight": {"cores": [8]}})
    campaign = parse_campaign(data)
    assert sorted((s.n_cores, s.n_records) for s in campaign.specs()) == [
        (1, 300), (1, 300), (2, 150), (2, 150)]
    flat = apply_slice(campaign, "flat")         # an integer replaces it
    assert {s.n_records for s in flat.specs()} == {50}
    with pytest.raises(CampaignError, match="integer 'records'"):
        apply_slice(campaign, "eight")


def test_weighted_ipc_grid_expands_ipc_alone_points():
    from repro.workloads.mixes import mixed_workload_names
    data = minimal(grids=[{"id": "m", "suite": "mix", "mixes": 2,
                           "metric": "weighted_ipc", "policies": ["lru"],
                           "cores": [2], "prefetch": [False]}], slices={})
    campaign = parse_campaign(data)
    names = dict.fromkeys(n for mix in range(2)
                          for n in mixed_workload_names(2, mix))
    alone = [ExperimentSpec(n, "lru", n_cores=1, prefetch=False,
                            n_records=200, seed=3, preset="tiny")
             for n in names]
    mixes = [ExperimentSpec.mix(m, "lru", n_cores=2, prefetch=False,
                                n_records=200) for m in range(2)]
    assert campaign.specs() == mixes + alone


@pytest.fixture(scope="module")
def verdict_store(tmp_path_factory):
    """Every point the verdict tests need, simulated once on the tiny
    preset: 429.mcf and 462.libquantum x lru/srrip/care x 1 and 2 cores,
    one 2-core mix and its IPC-alone points."""
    store = ResultStore(tmp_path_factory.mktemp("verdicts") / "store")
    campaign = parse_campaign(verdict_campaign())
    for spec in campaign.specs():
        store.put(spec, spec.execute())
    return store


def verdict_campaign(**slices):
    return {
        "schema": CAMPAIGN_SCHEMA, "name": "verdicts",
        "defaults": {"records": 200, "preset": "tiny"},
        "grids": [
            grid(id="speed", workloads=["429.mcf", "462.libquantum"],
                 policies=["lru", "srrip", "care"],
                 paper={"care@2": 1.1},
                 claims=[claim("lru@1", ">=", 1), claim("lru@1", ">", 1),
                         claim("lru@1", ">", 1, tol=0.01),
                         claim("care@2", ">=", "best"),
                         claim("srrip@1", "<=", 0.5)]),
            grid(id="cost", workloads=["429.mcf", "462.libquantum"],
                 policies=["lru", "care"], metric="pmr",
                 claims=[claim("care@1", "<=", "lru@1"),
                         claim("care@2", "<=", "lru@2", tol=1.0)]),
            {"id": "mix", "suite": "mix", "mixes": 1, "cores": [2],
             "metric": "weighted_ipc", "policies": ["lru", "care"],
             "claims": [claim("lru", ">=", 1)]},
        ],
        "slices": slices,
    }


def test_claim_verdicts_against_a_store(verdict_store):
    from repro.analysis.metrics import geometric_mean, normalized_ipc
    campaign = parse_campaign(verdict_campaign())
    report = build_campaign_report(campaign, verdict_store)
    speed, cost, mix = report["grids"]
    verdicts = [c["verdict"] for c in speed["claims"]]
    assert verdicts[:3] == ["holds", "fails", "holds"]   # >=, >, tol
    assert speed["claims"][0]["left_value"] == 1.0

    def gm(policy, cores):
        return geometric_mean(
            normalized_ipc(verdict_store.get(ExperimentSpec(
                w, policy, n_cores=cores, n_records=200, preset="tiny")),
                verdict_store.get(ExperimentSpec(
                    w, "lru", n_cores=cores, n_records=200,
                    preset="tiny")))
            for w in ("429.mcf", "462.libquantum"))

    best = speed["claims"][3]                 # best = the other policies
    assert best["left_value"] == gm("care", 2)
    assert best["right_value"] == max(gm("lru", 2), gm("srrip", 2))
    assert best["verdict"] == ("holds" if gm("care", 2) >= max(
        gm("lru", 2), gm("srrip", 2)) else "fails")
    assert speed["claims"][4]["left_value"] == gm("srrip", 1)
    assert speed["aggregate"][1] == {
        "cores": 2, "values": {p: gm(p, 2) for p in ("lru", "srrip", "care")}}

    pmr = {p: sum(verdict_store.get(ExperimentSpec(
        w, p, n_cores=1, n_records=200, preset="tiny")).pmr
        for w in ("429.mcf", "462.libquantum")) / 2 for p in ("lru", "care")}
    assert cost["claims"][0]["left_value"] == pmr["care"]
    assert cost["claims"][0]["right_value"] == pmr["lru"]
    assert cost["claims"][1]["verdict"] == "holds"          # pMR <= 1 + 1
    assert mix["claims"][0]["verdict"] == "holds"


def test_weighted_ipc_matches_the_metric_definition(verdict_store):
    from repro.analysis.metrics import normalized_weighted_ipc
    from repro.workloads.mixes import mixed_workload_names
    campaign = parse_campaign(verdict_campaign())
    mix = build_campaign_report(campaign, verdict_store)["grids"][2]
    lru, care = (verdict_store.get(ExperimentSpec.mix(0, p, n_cores=2,
                                                      n_records=200))
                 for p in ("lru", "care"))
    alone = [verdict_store.get(ExperimentSpec(
        n, "lru", n_cores=1, n_records=200, preset="tiny")).ipc[0]
        for n in mixed_workload_names(2, 0)]
    assert mix["rows"] == [{"workload": "mix000", "cores": 2, "values": {
        "lru": 1.0, "care": normalized_weighted_ipc(care, lru, alone)}}]


def test_claims_read_missing_without_every_point(verdict_store, tmp_path):
    partial = ResultStore(tmp_path / "partial")
    campaign = parse_campaign(verdict_campaign(
        nocare={"grids": ["speed"], "policies": ["lru", "srrip"]}))
    dropped = ExperimentSpec("462.libquantum", "care", n_cores=2,
                             n_records=200, preset="tiny")
    for spec in campaign.specs():
        if spec != dropped:
            partial.put(spec, verdict_store.get(spec))
    speed = build_campaign_report(campaign, partial)["grids"][0]
    verdicts = [c["verdict"] for c in speed["claims"]]
    assert verdicts == ["holds", "fails", "holds", "missing", "fails"]
    assert speed["aggregate"][1]["values"]["care"] is None

    # a policy the slice removed reads missing even with a full store
    sliced = apply_slice(campaign, "nocare")
    speed = build_campaign_report(sliced, verdict_store)["grids"][0]
    assert [c["verdict"] for c in speed["claims"]][3] == "missing"

    # an empty store still renders one (missing) row per claim
    empty = build_campaign_report(campaign, ResultStore(tmp_path / "empty"))
    text = render_campaign_markdown(empty)
    claims = sum(len(g["claims"]) for g in empty["grids"])
    assert text.count("**missing**") == claims == 8
    assert "No stored results yet" in text


def test_report_renders_metric_paper_and_verdict_rows(verdict_store):
    report = build_campaign_report(parse_campaign(verdict_campaign()),
                                   verdict_store)
    text = render_campaign_markdown(report)
    assert "| speed | - | speedup | 12 | 12 | 100.0% | " in text
    assert "| **geomean** | 2 |" in text and "| **mean** | 1 |" in text
    assert "| **paper** | 2 | - | - | 1.100 |" in text
    assert "| lru@1 >= 1 | lru@1 = 1.000 | >= | 1 | 0 | **holds** |" \
        in text
    assert "**fails**" in text
    assert json.loads(json.dumps(report)) == report      # JSON-clean


def test_status_counts_points_grids_share_once(tmp_path):
    campaign = parse_campaign(verdict_campaign())
    status = campaign_status(campaign, ResultStore(tmp_path / "s"))
    # "cost" reuses the lru/care points of "speed"
    assert [g["points"] for g in status["grids"]] == [12, 8, 4]
    assert status["points"] == len(campaign.specs()) == 16
    assert campaign.points() == 24


def test_committed_campaign_defines_every_figure_grid():
    campaign = load_campaign(find_campaign(None))
    assert [g.id for g in campaign.grids] == [
        "fig03", "fig05", "fig07", "fig08", "table10", "fig09", "fig10",
        "fig11", "fig12", "fig13", "fig14", "table11", "table11-gap",
        "ablation-components", "ablation-dtrm", "serve"]
    grids = {g.id: g for g in campaign.grids}
    assert grids["fig10"].metric == "weighted_ipc"
    assert grids["fig08"].metric == "pmr" and grids["fig08"].prefetch == (
        True,)
    assert grids["fig13"].cores == (4, 8, 16)
    assert "mockingjay" in grids["fig13"].policies
    # the 4-core scaling tier runs 2x records (see fig11's grid)
    assert grids["fig11"].records_at(4) == 2 * grids["fig11"].records_at(16)
    # shared points: fig08/table10/ablations reuse fig07's, table11 fig11's
    fig07 = set(grids["fig07"].expand())
    assert set(grids["fig08"].expand()) == fig07
    assert set(grids["ablation-dtrm"].expand()) & fig07
    assert set(grids["table11"].expand()) <= set(grids["fig11"].expand())
    assert set(grids["table11-gap"].expand()) <= set(grids["fig12"].expand())
    assert sum(len(g.claims) for g in campaign.grids) >= 30
    for sname in ("ci-smoke", "nightly"):
        assert apply_slice(campaign, sname).grids
