"""Experiment drivers: artifact contracts plus the analysis helpers they use."""
import hashlib
import json
import os
from types import SimpleNamespace

import pytest

from songoku.config import EXPERIMENTS, parse_config
from songoku.conflict_graph import ConflictGraph
from songoku.experiments import (
    audit_staleness,
    canonical_partition,
    count_true_edge_violations,
    partition_instability,
    run_experiment,
    window_recovery_fraction,
    window_step_ranges,
)
from songoku.records import StepRow, active_mask, parse_csv
from songoku.scheduler import SchedulerConfig, run
from songoku.sim import PlantedOracle, make_planted_suite


def cfg_with(**overrides) -> dict:
    return parse_config(overrides=overrides)


class TestDispatch:
    def test_unknown_name_lists_available(self, tmp_path):
        with pytest.raises(ValueError) as err:
            run_experiment("mystery", cfg_with(), str(tmp_path))
        for name in EXPERIMENTS:
            assert name in str(err.value)

    def test_out_dir_is_created(self, tmp_path):
        out = tmp_path / "deep" / "nested"
        run_experiment("sched_vs_agg", cfg_with(), str(out))
        assert (out / "summary.json").exists()


class TestPartitionHelpers:
    def test_canonical_partition_normalizes_order(self):
        assert canonical_partition(((4, 5), (0, 1, 2))) == "0,1,2|4,5"
        assert canonical_partition(((3, 1), (0, 2))) == "0,2|1,3"
        assert canonical_partition(((0, 1),)) == "0,1"

    def test_equivalent_partitions_share_a_key(self):
        a = canonical_partition(((2, 3), (0, 1)))
        b = canonical_partition(((1, 0), (3, 2)))
        assert a == b == "0,1|2,3"

    def test_instability_counts_consecutive_changes(self):
        w = lambda classes: SimpleNamespace(classes=classes)
        a, b = ((0, 1), (2, 3)), ((0, 2), (1, 3))
        assert partition_instability([w(a), w(a), w(b), w(a)]) == pytest.approx(2 / 3)
        assert partition_instability([w(a), w(a)]) == 0.0
        assert partition_instability([w(a)]) == 0.0
        assert partition_instability([]) == 0.0

    def test_instability_ignores_class_ordering(self):
        w1 = SimpleNamespace(classes=((0, 1), (2, 3)))
        w2 = SimpleNamespace(classes=((3, 2), (1, 0)))
        assert partition_instability([w1, w2]) == 0.0

    def test_recovery_fraction_exact_edge_match(self):
        truth = ConflictGraph.from_edges(4, edges=frozenset({(0, 1)}), tau=0.5)
        w = lambda edges: SimpleNamespace(edges=edges)
        windows = [w(((0, 1),)), w(((0, 1), (2, 3))), w(())]
        assert window_recovery_fraction(windows, truth) == pytest.approx(1 / 3)
        assert window_recovery_fraction([], truth) == 0.0


class TestEdgeViolationCounter:
    def make_record(self, masks):
        steps = [
            StepRow(t=t, tau=0.5, m=2, active_mask=m, loss=0.0, grad_norm=1.0,
                    refresh=False)
            for t, m in enumerate(masks)
        ]
        return SimpleNamespace(steps=steps)

    def test_counts_against_the_current_graph(self):
        early = ConflictGraph.from_edges(3, frozenset({(0, 1)}), tau=0.5)
        late = ConflictGraph.from_edges(3, frozenset({(1, 2)}), tau=0.5)
        graph_at = lambda t: early if t < 3 else late
        record = self.make_record(
            [
                active_mask([0, 1]),   # t=0: edge under early graph
                active_mask([0, 2]),   # t=1: never an edge
                active_mask([1, 2]),   # t=2: fine under early graph
                active_mask([0, 1]),   # t=3: fine under late graph
                active_mask([1, 2]),   # t=4: edge under late graph
            ]
        )
        assert count_true_edge_violations(record, graph_at) == 2
        assert count_true_edge_violations(record, graph_at, from_t=3) == 1
        assert count_true_edge_violations(record, graph_at, from_t=5) == 0

    def test_singleton_sets_never_violate(self):
        full = ConflictGraph.from_edges(2, frozenset({(0, 1)}), tau=0.5)
        record = self.make_record([active_mask([0]), active_mask([1])])
        assert count_true_edge_violations(record, lambda t: full) == 0


@pytest.fixture(scope="module")
def record():
    suite = make_planted_suite(
        K=6, d=16, groups=2, tau=0.5, gamma=0.3, sigma=0.5, m0=1.0, seed=3
    )
    cfg = SchedulerConfig(
        K=6, d=16, T=96, R=16, beta=0.9, tau_star=0.5, eta=0.05, seed=3
    )
    return run(cfg, PlantedOracle(suite))


class TestStalenessHelpers:

    def test_ranges_tile_the_horizon(self, record):
        ranges = window_step_ranges(record)
        assert ranges[0][1] == 0
        for (_, a0, a1), (_, b0, _) in zip(ranges, ranges[1:]):
            assert a1 == b0
        assert ranges[-1][2] == len(record.steps)

    def test_audit_bounds_hold_on_a_clean_run(self, record):
        audit = audit_staleness(record)
        assert audit["within_window_ok"] is True
        for row in audit["rows"]:
            assert row["max_gap"] <= row["bound"]
        assert audit["max_gap"] <= max(w.m - 1 for w in record.windows)
        assert audit["max_cross_window_gap"] >= audit["max_gap"]


def read_summary(out_dir):
    with open(os.path.join(out_dir, "summary.json")) as fh:
        return json.load(fh)


class TestArtifactContract:
    def test_summary_hash_covers_csv_and_config(self, tmp_path):
        cfg = cfg_with()
        summary = run_experiment("sched_vs_agg", cfg, str(tmp_path))
        on_disk = read_summary(tmp_path)
        assert on_disk["schema"] == "summary v1"
        assert on_disk["experiment"] == "sched_vs_agg"
        assert on_disk["content_hash"] == summary["content_hash"]
        with open(tmp_path / "run.csv") as fh:
            csv_text = fh.read()
        blob = csv_text + json.dumps(cfg, sort_keys=True, default=str)
        assert summary["content_hash"] == hashlib.sha256(blob.encode()).hexdigest()

    def test_staleness_audit_hash_is_sha256_of_csv_and_config(self, tmp_path):
        cfg = cfg_with(K=4, d=8, steps=64, R=16, sigma=0.5)
        summary = run_experiment("staleness_audit", cfg, str(tmp_path))
        with open(tmp_path / "run.csv") as fh:
            csv_text = fh.read()
        blob = csv_text + json.dumps(cfg, sort_keys=True, default=str)
        assert summary["content_hash"] == hashlib.sha256(blob.encode()).hexdigest()

    def test_rerun_with_same_config_is_reproducible(self, tmp_path):
        cfg = cfg_with(K=4, d=8, steps=64, R=16, sigma=0.5)
        a = run_experiment("staleness_audit", cfg, str(tmp_path / "a"))
        b = run_experiment("staleness_audit", cfg, str(tmp_path / "b"))
        assert a["content_hash"] == b["content_hash"]
        assert a["results"]["run_content_hash"] == b["results"]["run_content_hash"]


class TestRecoveryCurveDriver:
    def test_curve_structure_and_endpoint(self, tmp_path):
        cfg = cfg_with(K=4, d=8, groups=2, sigma=0.5, gamma=0.3, trials=20, seed=0)
        summary = run_experiment("recovery_curve", cfg, str(tmp_path))
        res = summary["results"]
        assert res["required_n_eff"] > 1.0
        assert len(res["curve"]) == 5
        n_effs = [pt["n_eff"] for pt in res["curve"]]
        assert n_effs == sorted(n_effs)
        for pt in res["curve"]:
            assert 0.0 <= pt["rate"] <= 1.0
            assert pt["R"] >= 8
        # generous budget (4x the calibrated requirement) recovers reliably
        assert res["curve"][-1]["rate"] >= 0.9
        assert isinstance(res["monotone_nondecreasing"], bool)
        with open(tmp_path / "run.csv") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "# recovery_curve v1"
        assert len(lines) == 2 + 5


class TestSchedVsAggDriver:
    def test_reference_instances(self, tmp_path):
        summary = run_experiment("sched_vs_agg", cfg_with(), str(tmp_path))
        neg = summary["results"]["negative_cross"]
        block = summary["results"]["block_diagonal"]
        assert neg["condition_holds"] is True
        assert neg["loss_gap"] < -1e-6
        assert abs(block["loss_gap"]) <= 1e-12
        with open(tmp_path / "run.csv") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "# sched_vs_agg v1"
        assert len(lines) == 2 + 2


class TestConvergenceDriver:
    def test_slopes_near_inverse_t(self, tmp_path):
        summary = run_experiment("convergence", cfg_with(seed=0), str(tmp_path))
        for variant in ("randomized", "cyclic"):
            slope = summary["results"][variant]["slope"]
            assert -1.3 <= slope <= -0.7
        with open(tmp_path / "run.csv") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "# convergence v1"
        assert len(lines) == 2 + 2 * 3      # two variants x three horizons


class TestAblationStaticDriver:
    def test_static_schedule_goes_stale_after_drift(self, tmp_path):
        cfg = cfg_with(K=8, d=8, steps=512, R=32, sigma=0.0, seed=0)
        summary = run_experiment("ablation_static", cfg, str(tmp_path))
        res = summary["results"]
        assert res["flip_time"] == 256
        assert res["measured_from"] == 288
        assert res["stale_violations"]["dynamic"] == 0
        assert res["stale_violations"]["static"] > 0
        assert res["static_exceeds_dynamic"] is True
        assert (tmp_path / "run.csv").exists()
        assert (tmp_path / "run_dynamic.csv").exists()

    def test_misaligned_flip_time_rejected(self, tmp_path):
        cfg = cfg_with(K=8, d=8, steps=512, R=32, flip_time=100)
        with pytest.raises(ValueError, match="refresh boundary"):
            run_experiment("ablation_static", cfg, str(tmp_path))


class TestAblationSinglestepDriver:
    def test_single_step_estimates_are_worse_on_both_axes(self, tmp_path):
        cfg = cfg_with(K=8, d=8, steps=512, R=32, sigma=0.75, seed=0)
        summary = run_experiment("ablation_singlestep", cfg, str(tmp_path))
        res = summary["results"]
        assert res["full_history"]["beta"] == 0.9
        assert res["single_step"]["beta"] == 0.0
        assert res["singlestep_less_stable"] is True
        assert res["singlestep_recovers_less"] is True
        assert res["full_history"]["recovery_fraction"] > 0.5
        assert res["single_step"]["instability"] > 0.5
        with open(tmp_path / "run.csv") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "# ablation_singlestep v1"
        assert len(lines) > 2


class TestStalenessAuditDriver:
    def test_full_pipeline_artifacts(self, tmp_path):
        cfg = cfg_with(K=6, d=16, steps=128, R=16, sigma=0.5, seed=1)
        summary = run_experiment("staleness_audit", cfg, str(tmp_path))
        res = summary["results"]
        assert res["within_window_ok"] is True
        assert res["max_gap"] >= 0
        assert res["flops"]                     # pipeline charged some work
        assert all(v >= 0 for v in res["flops"].values())
        assert len(res["run_content_hash"]) == 64
        with open(tmp_path / "run_record.csv") as fh:
            rows = parse_csv(fh.read())
        assert len(rows) == 128
        with open(tmp_path / "run.csv") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "# staleness_audit v1"
        assert lines[1] == "r,task,max_gap,bound,delta"

    def test_sketch_mode_flows_through(self, tmp_path):
        cfg = cfg_with(
            K=6, d=16, steps=64, R=16, sigma=0.5, seed=1,
            sketch_mode="incremental",
        )
        summary = run_experiment("staleness_audit", cfg, str(tmp_path))
        assert summary["results"]["flops"].get("gram_full", 0) > 0


class TestBenchDriver:
    def test_tiny_bench_artifacts(self, tmp_path):
        cfg = cfg_with(
            bench_K_values=(2, 3), bench_R_values=(2,), bench_d=8,
            bench_steps=16, repeats=1, seed=0,
        )
        summary = run_experiment("bench", cfg, str(tmp_path))
        assert summary["results"]["rows"]
        with open(tmp_path / "bench.csv") as fh:
            bench_text = fh.read()
        with open(tmp_path / "run.csv") as fh:
            assert fh.read() == bench_text
        assert bench_text.splitlines()[0] == "# bench v1"
