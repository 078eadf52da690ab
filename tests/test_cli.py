"""Command-line interface: every subcommand, every figure renderer."""

from __future__ import annotations

import json

import pytest

from repro.cli import EXIT_USAGE, main
from repro.harness.figures import FIGURES

#: A soak cell small enough for unit tests, with targets the tiny run
#: can meet (short runs spend a large fraction of their virtual time in
#: outage, so the default 99.5% availability target would always trip).
TINY_SOAK = [
    "soak",
    "--keys", "128",
    "--epoch-len", "32",
    "--epochs", "8",
    "--crashes", "1",
    "--workers", "2",
    "--snapshot-interval", "3",
    "--seed", "11",
    "--slo-availability", "0.2",
    "--slo-p99", "10",
    "--slo-p999", "60",
    "--slo-mttr", "60",
]


class TestList:
    def test_lists_everything(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("SL", "GS", "TP", "NAT", "CKPT", "WAL", "DL", "LV", "MSR"):
            assert name in out
        for figure in FIGURES:
            assert figure in out


class TestRun:
    def test_run_default_experiment(self, capsys):
        code = main(
            [
                "run",
                "--workload", "GS",
                "--scheme", "MSR",
                "--workers", "3",
                "--epoch-len", "50",
                "--snapshot-interval", "3",
                "--recover-epochs", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "runtime phase" in out
        assert "recovery phase" in out
        assert "epochs replayed" in out
        assert "state verified against serial ground truth: OK" in out

    def test_run_native_has_no_recovery(self, capsys):
        code = main(
            [
                "run",
                "--scheme", "NAT",
                "--workers", "2",
                "--epoch-len", "50",
                "--snapshot-interval", "3",
                "--recover-epochs", "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "does not support recovery" in out

    def test_zero_workers_is_a_config_error(self, capsys):
        assert main(["run", "--scheme", "CKPT", "--workers", "0"]) == 2
        out = capsys.readouterr().out
        assert "config error: num_workers must be >= 1" in out

    def test_unknown_scheme_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--scheme", "NOPE"])

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "--workload", "XX"])


class TestFigure:
    @pytest.mark.parametrize("name", sorted(FIGURES))
    def test_every_figure_renders_quick(self, name, capsys):
        assert main(["figure", name, "--quick"]) == 0
        out = capsys.readouterr().out
        assert "reproducing" in out
        assert any(
            header in out for header in ("scheme", "regime", "app", "ratio")
        )

    def test_unknown_figure_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure", "fig99"])

    @pytest.mark.parametrize("name", ["fig2", "fig12c", "fig14c"])
    def test_plot_renders_chart(self, name, capsys):
        assert main(["figure", name, "--quick", "--plot"]) == 0
        out = capsys.readouterr().out
        assert "█" in out or "+----" in out or "|" in out


class TestSoak:
    def test_tiny_soak_meets_slo_and_exits_zero(self, capsys):
        assert main(TINY_SOAK) == 0
        out = capsys.readouterr().out
        assert "SLO met" in out
        assert "verified, met their" in out

    def test_slo_breach_exits_nonzero(self, capsys):
        args = [a for a in TINY_SOAK]
        args[args.index("--slo-p99") + 1] = "0.000000001"
        assert main(args) == 1
        out = capsys.readouterr().out
        assert "SLO BREACH" in out
        assert "soak: FAILURE" in out

    def test_smoke_honours_no_verify(self, capsys):
        assert main(["soak", "--smoke", "--mode", "single", "--no-verify"]) == 0
        out = capsys.readouterr().out
        assert "verified vs ground truth      skipped (--no-verify)" in out
        assert out.splitlines()[-1] == (
            "soak: all 1 run(s) met their SLOs, verification skipped"
        )

    def test_json_export_to_stdout(self, capsys):
        assert main(TINY_SOAK + ["--json", "-"]) == 0
        out = capsys.readouterr().out
        doc, _trailing = json.JSONDecoder().raw_decode(out[out.index("{"):])
        assert doc["schema"] == "repro.soak/v1"
        assert len(doc["runs"]) == 1
        run = doc["runs"][0]
        assert run["ok"] is True
        assert run["metrics"]["rpo_events"] == 0
        assert run["verification"]["degraded_reads"] is True


class TestChaosGates:
    def test_scheme_subset_and_mttr_slo(self, capsys):
        code = main(
            ["chaos", "--smoke", "--schemes", "MSR", "--no-cluster",
             "--max-mttr", "10"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "MTTR digest" in out
        assert "within --max-mttr" in out
        assert " WAL " not in out
        # The banner counts the families off the sweep definition.
        assert (
            "chaos sweep: 4 storage-fault cells + 2 worker-failure cells + "
            "3 crash-during-recovery cells + 0 cluster-kill cells (seed 7)"
        ) in out
        assert "all 9 cells verified" in out

    def test_mttr_breach_exits_nonzero(self, capsys):
        code = main(
            ["chaos", "--smoke", "--schemes", "MSR", "--no-cluster",
             "--max-mttr", "0.000001"]
        )
        assert code == 1
        assert "MTTR SLO BREACH" in capsys.readouterr().out

    def test_unknown_scheme_subset_rejected(self, capsys):
        assert main(["chaos", "--smoke", "--schemes", "MSR,BOGUS"]) == 2
        assert "unknown scheme(s): BOGUS" in capsys.readouterr().out


class TestCheckCommand:
    def test_clean_exploration_exits_zero(self, ckpt_check):
        assert ckpt_check.code == 0, ckpt_check.out
        assert ckpt_check.out.startswith(
            "exploring 144 schedules (schemes CKPT, seed 7) ..."
        )
        assert "144 schedules run (+0 shrink runs); 4/4 registered " \
            "recovery crash points fired" in ckpt_check.out
        assert "all 144 explored schedules satisfy all 7 invariants" in (
            ckpt_check.out
        )
        assert not ckpt_check.repro_dir.exists()

    def test_json_export_is_schema_tagged(self, ckpt_check):
        doc = ckpt_check.doc
        assert doc["schema"] == "repro.check.report/v2"
        assert doc["passed"] is True
        assert doc["coverage"]
        assert len(doc["runs"]) == 144
        assert not {"budget_spent", "frontier_unexplored"} & set(doc)
        assert not {"budget", "max_depth"} & set(doc["config"])

    def test_unknown_scheme_is_usage_error(self, capsys):
        assert main(["check", "--schemes", "CKPT,BOGUS"]) == 2
        assert "unknown scheme(s): BOGUS" in capsys.readouterr().out

    def test_nat_is_refused(self, capsys):
        # NAT persists nothing, so there is no recovery to check.
        assert main(["check", "--schemes", "NAT"]) == EXIT_USAGE
        assert "not 'NAT'" in capsys.readouterr().out

    def test_unreadable_replay_file_is_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(["check", "--replay", str(missing)]) == 2
        garbled = tmp_path / "garbled.json"
        garbled.write_text("{not json")
        assert main(["check", "--replay", str(garbled)]) == 2

    def test_mutation_found_shrunk_and_replayed(
        self, ckpt_check_mutated, capsys, monkeypatch
    ):
        out = ckpt_check_mutated.out
        assert ckpt_check_mutated.code == 4, out
        assert "invariant violation(s) found" in out
        assert "Counterexamples (minimized)" in out
        assert "schedule fingerprint" in out
        assert "replay with: repro check --replay" in out
        repros = sorted(ckpt_check_mutated.repro_dir.glob("repro-*.json"))
        docs = [json.loads(path.read_text()) for path in repros]
        assert [doc["invariant"] for doc in docs] == [
            "ladder-monotonic", "no-undocumented-failure",
        ]
        for doc in docs:
            assert doc["schema"] == "repro.check/v2"
            assert "frontier_seed" not in doc
            assert len(doc["schedule"]["atoms"]) <= 2
        payload = docs[0]

        # The emitted file re-triggers the same violation...
        monkeypatch.setenv("REPRO_CHECK_MUTATION", "skip-ladder-rung")
        assert main(["check", "--replay", str(repros[0])]) == 4
        replay_out = capsys.readouterr().out
        assert payload["fingerprint"] in replay_out

        # ...and comes back clean once the seeded bug is gone.
        monkeypatch.delenv("REPRO_CHECK_MUTATION")
        assert main(["check", "--replay", str(repros[0])]) == 0
        assert "did not reproduce" in capsys.readouterr().out


class TestSoakDataLoss:
    def test_data_loss_keeps_the_runs_completed_so_far(self, tmp_path, capsys):
        out = tmp_path / "out.json"
        code = main(
            ["soak", "--mode", "both", "--replication", "0",
             "--epochs", "10", "--keys", "256", "--epoch-len", "32",
             "--crashes", "1", "--json", str(out)]
        )
        assert code == 1
        stdout = capsys.readouterr().out
        assert "DATA LOSS: shards [1] lost every replica" in stdout
        assert "soak aborted" in stdout
        doc = json.loads(out.read_text())
        assert doc["schema"] == "repro.soak/v1"
        assert [run["config"]["mode"] for run in doc["runs"]] == ["single"]


class TestChaosJson:
    def test_bare_json_prints_the_sweep_to_stdout(self, capsys):
        code = main(
            ["chaos", "--smoke", "--schemes", "CKPT", "--no-cluster", "--json"]
        )
        assert code == 0
        out = capsys.readouterr().out
        doc, _trailing = json.JSONDecoder().raw_decode(out[out.index("{"):])
        assert doc["schema"] == "repro.chaos/v1"
        assert "exported" not in out

    def test_json_path_is_announced(self, tmp_path, capsys):
        path = tmp_path / "chaos.json"
        code = main(
            ["chaos", "--smoke", "--schemes", "CKPT", "--no-cluster",
             "--json", str(path)]
        )
        assert code == 0
        cells = json.loads(path.read_text())["cells"]
        assert f"\nexported {len(cells)} cells to {path}\n" in (
            capsys.readouterr().out
        )


#: The committed ``repro cluster --json`` schema: exact key sets.
CLUSTER_DOCUMENT_KEYS = {
    "topology", "placement", "replication", "kills", "kill_after_epoch",
    "runtime", "recovery",
}
CLUSTER_RUNTIME_KEYS = {
    "events_processed", "epochs", "throughput_eps", "cross_shard_txns",
    "total_txns", "cross_shard_ratio", "replication_bytes",
}
CLUSTER_RECOVERY_KEYS = {
    "verdict", "shards_killed", "nodes_killed", "correlation_width",
    "recovery_nodes", "detection_seconds", "makespan_seconds", "rto_seconds",
    "rpo_events", "rpo_seconds", "mean_mttr_seconds", "max_mttr_seconds",
    "watermark_degradations", "per_shard", "verified_exact",
}
CLUSTER_SHARD_KEYS = {
    "shard", "node", "rack", "mttr_seconds", "epochs_replayed",
    "events_replayed", "ladder", "resumed", "checkpoint_epoch", "attempts",
}


class TestCluster:
    def test_survived_kill_exports_the_full_report(self, tmp_path, capsys):
        path = tmp_path / "cluster.json"
        assert main(["cluster", "--kill", "rack:0", "--json", str(path)]) == 0
        out = capsys.readouterr().out
        assert "Parallel shard recovery" in out
        assert "matches serial ground truth bit-for-bit: OK" in out
        doc = json.loads(path.read_text())
        assert set(doc) == CLUSTER_DOCUMENT_KEYS
        assert set(doc["topology"]) == {
            "shards", "racks", "nodes_per_rack", "nodes",
        }
        assert set(doc["runtime"]) == CLUSTER_RUNTIME_KEYS
        recovery = doc["recovery"]
        assert set(recovery) == CLUSTER_RECOVERY_KEYS
        assert recovery["verdict"] == "survived"
        assert recovery["verified_exact"] is True
        assert recovery["rpo_events"] == 0
        assert recovery["per_shard"]
        for shard in recovery["per_shard"]:
            assert set(shard) == CLUSTER_SHARD_KEYS
        assert [s["shard"] for s in recovery["per_shard"]] == (
            recovery["shards_killed"]
        )

    def test_under_replicated_kill_is_data_loss(self, tmp_path, capsys):
        path = tmp_path / "loss.json"
        code = main(
            ["cluster", "--replication", "0", "--kill", "rack:0",
             "--json", str(path)]
        )
        assert code == 1
        assert "DATA LOSS: shards [0, 1, 2, 3]" in capsys.readouterr().out
        doc = json.loads(path.read_text())
        assert set(doc) == CLUSTER_DOCUMENT_KEYS
        assert doc["recovery"] == {
            "verdict": "data-loss",
            "lost_shards": [0, 1, 2, 3],
            "rpo_events": 110,
        }

    @pytest.mark.parametrize(
        "flags", [["--epochs", "0"], ["--kill-after-epoch", "99"]]
    )
    def test_kill_that_never_fires_keeps_the_runtime_half(
        self, flags, tmp_path, capsys
    ):
        path = tmp_path / "never.json"
        assert main(["cluster", *flags, "--json", str(path)]) == 1
        assert "kill never fired" in capsys.readouterr().out
        doc = json.loads(path.read_text())
        assert set(doc) == CLUSTER_DOCUMENT_KEYS - {"recovery"}
        assert set(doc["runtime"]) == CLUSTER_RUNTIME_KEYS

    @pytest.mark.parametrize(
        "flags",
        [["--kill", "rack:9"], ["--kill", "bogus"], ["--replication", "9"]],
    )
    def test_invalid_topology_is_a_config_error(self, flags, capsys):
        assert main(["cluster", *flags]) == 2
        assert "config error:" in capsys.readouterr().out
