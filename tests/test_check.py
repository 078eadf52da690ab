"""Systematic fault-schedule explorer: vocabulary, invariants, shrinking.

The checker's own correctness story is the seeded known-bug mutation:
``REPRO_CHECK_MUTATION=skip-ladder-rung`` re-introduces a silent
checkpoint-ladder bug (the recovery report names the newest checkpoint
after falling back to an older one), and these tests assert the
explorer finds it as a ``ladder-monotonic`` violation within the
default budget, shrinks the counterexample to at most two fault atoms,
and re-triggers it deterministically from the emitted repro file —
while the unmutated tree passes the same exploration with full
crash-point coverage.
"""

from __future__ import annotations

import json
from dataclasses import asdict

import pytest

from repro.check.explorer import (
    REPRO_SCHEMA,
    build_frontier,
    explore,
    load_repro_payload,
    replay_repro,
    repro_payload,
)
from repro.check.invariants import (
    INVARIANTS,
    check_observation,
    get_invariant,
)
from repro.check.runner import (
    OUTCOME_RECOVERED,
    OUTCOME_UNEXPECTED,
    CheckConfig,
    RunObservation,
    run_schedule,
)
from repro.check.schedule import (
    CLUSTER_SCHEME,
    FaultAtom,
    Schedule,
    recovery_point_atoms,
    schedule_fingerprint,
    single_scheme_atoms,
)
from repro.check.shrink import shrink_schedule
from repro.cluster import ClusterTopology, parse_kill
from repro.crashpoints import (
    DOMAIN_RECOVERY,
    registered_points,
    validate_point,
)
from repro.errors import ConfigError, RecoveryError
from repro.ft.base import RecoveryReport
from repro.ft.checkpoint import GlobalCheckpoint
from repro.mutations import MUTATION_ENV, active_mutation
from repro.sim.executor import WorkerFault
from repro.storage.faults import FaultSpec

#: The default scenario every runner test replays under.
SCENARIO = CheckConfig().scenario


class TestCrashPointRegistry:
    def test_every_recovery_milestone_is_registered(self):
        names = {p.name for p in registered_points(domain=DOMAIN_RECOVERY)}
        assert names == {
            "recovery.checkpoint-loaded",
            "recovery.epoch-replayed",
            "recovery.watermark",
            "recovery.chain",
            "recovery.finalize",
        }

    def test_progress_file_points_live_in_their_own_domain(self):
        recovery = {p.name for p in registered_points(domain=DOMAIN_RECOVERY)}
        assert "progress.tmp-written" not in recovery
        progress_file = registered_points(domain="storage.progress-file")
        assert "progress.tmp-written" in {p.name for p in progress_file}

    def test_scheme_filter_keeps_chain_for_msr_only(self):
        msr = {p.name for p in registered_points(scheme="MSR")}
        wal = {p.name for p in registered_points(scheme="WAL")}
        assert "recovery.chain" in msr
        assert "recovery.chain" not in wal

    def test_unregistered_point_is_a_config_error(self):
        with pytest.raises(ConfigError, match="bogus"):
            validate_point("recovery.bogus")
        with pytest.raises(ConfigError):
            FaultSpec("crash_point", target="any", point="recovery.bogus")


class TestScheduleVocabulary:
    def test_atoms_are_canonically_ordered(self):
        a = FaultAtom("storage", "torn")
        b = FaultAtom("crash", "mid-commit")
        assert Schedule("CKPT", (a, b)).atoms == Schedule("CKPT", (b, a)).atoms

    def test_duplicate_atoms_rejected(self):
        atom = FaultAtom("storage", "torn")
        with pytest.raises(ConfigError, match="duplicate"):
            Schedule("CKPT", (atom, atom))

    def test_family_caps(self):
        with pytest.raises(ConfigError, match="at most 1 storage"):
            Schedule(
                "CKPT",
                (FaultAtom("storage", "torn"), FaultAtom("storage", "drop")),
            )

    def test_kill_atoms_are_cluster_only(self):
        with pytest.raises(ConfigError, match="CLUSTER"):
            Schedule("MSR", (FaultAtom("kill", "rack:0"),))
        with pytest.raises(ConfigError, match="only kill atoms"):
            Schedule(CLUSTER_SCHEME, (FaultAtom("storage", "torn"),))

    def test_rpoint_atoms_come_from_the_registry(self):
        with pytest.raises(ConfigError):
            FaultAtom("rpoint", "recovery.not-a-point")
        labels = {a.label for a in recovery_point_atoms("WAL")}
        assert "rpoint:recovery.finalize" in labels
        assert "rpoint:recovery.chain" not in labels

    def test_payload_round_trip(self):
        sched = Schedule(
            "MSR",
            (
                FaultAtom("crash", "mid-commit"),
                FaultAtom("rpoint", "recovery.epoch-replayed", 2),
            ),
        )
        assert Schedule.from_payload(sched.to_payload()) == sched

    def test_fingerprint_is_stable_and_scenario_sensitive(self):
        sched = Schedule("CKPT", (FaultAtom("storage", "torn"),))
        fp1 = schedule_fingerprint(sched, {"seed": 7})
        assert fp1 == schedule_fingerprint(sched, {"seed": 7})
        assert fp1 != schedule_fingerprint(sched, {"seed": 8})


class TestRunner:
    def test_baseline_recovers_and_fires_all_scheme_points(self):
        obs = run_schedule(Schedule("MSR", ()), SCENARIO)
        assert obs.outcome == OUTCOME_RECOVERED
        assert obs.state_exact and obs.outputs_exact
        assert not check_observation(obs)
        for point in registered_points(domain=DOMAIN_RECOVERY, scheme="MSR"):
            assert obs.points_passed.get(point.name, 0) > 0

    def test_torn_checkpoint_walks_the_ladder(self):
        obs = run_schedule(
            Schedule("CKPT", (FaultAtom("storage", "torn"),)), SCENARIO
        )
        assert obs.outcome == OUTCOME_RECOVERED
        assert obs.report.checkpoint_fallbacks == 1
        assert obs.report.checkpoint_epoch == obs.report.checkpoint_candidates[1]
        assert not check_observation(obs)

    def test_degraded_probe_matches_ground_truth(self):
        obs = run_schedule(Schedule("CKPT", ()), SCENARIO)
        # "" is the verdict of a read that was served (not refused) and
        # held the ground-truth value under the exact staleness label;
        # None would mean no probe or a loud failure.
        assert obs.degraded_probe == ""
        assert not check_observation(obs)

    def test_watermarks_recorded_and_monotonic(self):
        obs = run_schedule(
            Schedule(
                "MSR", (FaultAtom("rpoint", "recovery.epoch-replayed"),)
            ),
            SCENARIO,
        )
        assert obs.outcome == OUTCOME_RECOVERED
        assert obs.report.attempts > 1 or obs.report.resumed
        assert obs.watermarks, "progress watermarks were never persisted"
        assert not check_observation(obs)

    def test_cluster_kill_within_replication_recovers(self):
        obs = run_schedule(
            Schedule(CLUSTER_SCHEME, (FaultAtom("kill", "node:0.0"),)),
            SCENARIO,
        )
        assert obs.outcome == OUTCOME_RECOVERED
        assert obs.state_exact is True and obs.outputs_exact is True
        assert obs.correlation_width == 1
        assert not check_observation(obs)


class TestTypedOutcomes:
    """A ReproError is an observation; anything else is a bug and escapes."""

    @staticmethod
    def recover_raising(monkeypatch, exc):
        def recover(self):
            raise exc

        monkeypatch.setattr(GlobalCheckpoint, "recover", recover)

    def test_undocumented_repro_error_is_observed(self, monkeypatch):
        self.recover_raising(monkeypatch, RecoveryError("boom"))
        obs = run_schedule(Schedule("CKPT", ()), SCENARIO)
        assert obs.outcome == OUTCOME_UNEXPECTED
        assert obs.detail == "RecoveryError: boom"
        assert obs.points_passed == {}
        assert [v.invariant for v in check_observation(obs)] == [
            "no-undocumented-failure"
        ]

    def test_a_bug_escapes_naming_schedule_and_fingerprint(self, monkeypatch):
        self.recover_raising(monkeypatch, KeyError("not-an-outcome"))
        sched = Schedule("CKPT", (FaultAtom("storage", "torn"),))
        with pytest.raises(KeyError, match="not-an-outcome") as err:
            run_schedule(sched, SCENARIO)
        notes = "\n".join(err.value.__notes__)
        assert sched.label in notes
        assert schedule_fingerprint(sched, asdict(SCENARIO)) in notes

    def test_scenario_fingerprint_matches_the_recorded_repro_files(self):
        # The id `repro check` printed for CKPT[storage:torn] under the
        # default config before Scenario replaced scenario_payload().
        sched = Schedule("CKPT", (FaultAtom("storage", "torn"),))
        assert schedule_fingerprint(sched, asdict(SCENARIO)) == "32268c96cfb3"


class TestInvariantRegistry:
    def test_unknown_invariant_name_rejected(self):
        with pytest.raises(ConfigError, match="unknown invariant"):
            get_invariant("no-such-contract")

    def test_ladder_monotonic_catches_a_skipped_rung(self):
        obs = RunObservation(
            schedule=Schedule("CKPT", ()),
            outcome=OUTCOME_RECOVERED,
            state_exact=True,
            outputs_exact=True,
            report=RecoveryReport(
                "CKPT",
                checkpoint_candidates=[3, -1],
                checkpoint_epoch=3,
                checkpoint_fallbacks=1,
            ),
        )
        names = [v.invariant for v in check_observation(obs)]
        assert "ladder-monotonic" in names

    def test_watermark_regression_is_a_violation(self):
        obs = RunObservation(
            schedule=Schedule("MSR", ()),
            outcome=OUTCOME_RECOVERED,
            state_exact=True,
            outputs_exact=True,
            watermarks=[(5, 2), (5, 4), (5, 3)],
        )
        names = [v.invariant for v in check_observation(obs)]
        assert "watermark-monotonic" in names

    def test_data_loss_within_replication_budget_is_a_violation(self):
        obs = RunObservation(
            schedule=Schedule(CLUSTER_SCHEME, (FaultAtom("kill", "shard:0"),)),
            outcome="failed-loud",
            data_loss=True,
            correlation_width=0,
            replication=1,
        )
        names = [v.invariant for v in check_observation(obs)]
        assert "no-silent-data-loss" in names

    def test_data_loss_beyond_replication_is_documented(self):
        """Data loss is reported only if the kill out-ran replication, not
        whenever it did: a loud loss passes, and so does a survived kill
        of the same width, as the chaos sweep's ``rack:0`` cells (width
        2, replication 1) recover exactly under both placements."""
        lost = RunObservation(
            schedule=Schedule(
                CLUSTER_SCHEME,
                (FaultAtom("kill", "node:0.0"), FaultAtom("kill", "node:1.0")),
            ),
            outcome="failed-loud",
            data_loss=True,
            correlation_width=2,
            replication=1,
        )
        survived = RunObservation(
            schedule=Schedule(CLUSTER_SCHEME, (FaultAtom("kill", "rack:0"),)),
            outcome="recovered",
            state_exact=True,
            outputs_exact=True,
            correlation_width=2,
            replication=1,
        )
        for obs in (lost, survived):
            assert not check_observation(obs)

    def test_installed_state_after_loud_failure_is_a_violation(self):
        obs = RunObservation(
            schedule=Schedule("CKPT", ()),
            outcome="failed-loud",
            installed_after_failure=True,
        )
        names = [v.invariant for v in check_observation(obs)]
        assert "no-undocumented-failure" in names


class TestCorrelationWidth:
    TOPOLOGY = ClusterTopology(4, 2, 2)

    def width(self, *kills):
        return self.TOPOLOGY.correlation_width(parse_kill(k) for k in kills)

    def test_shard_kill_destroys_no_node(self):
        assert self.width("shard:0") == 0

    def test_node_kills_count_distinct_nodes(self):
        assert self.width("node:0.0") == 1
        assert self.width("node:0.0", "node:1.0") == 2
        assert self.width("node:0.0", "node:0.0") == 1

    def test_rack_kill_counts_its_nodes(self):
        assert self.width("rack:0") == 2


class TestWorkerFaultPayload:
    def test_round_trip(self):
        fault = WorkerFault(1, "straggle", at_seconds=0.5, slowdown=3.0)
        assert WorkerFault.from_payload(fault.to_payload()) == fault

    def test_unknown_fields_tolerated(self):
        payload = WorkerFault(0, "die").to_payload()
        payload["future_field"] = "ignored"
        assert WorkerFault.from_payload(payload) == WorkerFault(0, "die")

    def test_missing_field_rejected(self):
        with pytest.raises(ConfigError):
            WorkerFault.from_payload({"worker": 0})


class TestExplorer:
    def test_clean_exploration_passes_with_full_coverage(self):
        cfg = CheckConfig(
            schemes=("CKPT",), include_cluster=False, max_depth=1, budget=18
        )
        report = explore(cfg)
        assert report.passed
        assert not report.counterexamples
        assert report.coverage_ok
        assert report.budget_spent <= cfg.budget

    def test_frontier_is_deterministic_per_seed(self):
        cfg = CheckConfig()
        labels = [s.label for s in build_frontier(cfg)]
        assert labels == [s.label for s in build_frontier(cfg)]
        other = [s.label for s in build_frontier(CheckConfig(seed=11))]
        assert set(labels) == set(other)
        assert labels != other

    def test_budget_caps_runs(self):
        cfg = CheckConfig(
            schemes=("CKPT",), include_cluster=False, max_depth=2, budget=5
        )
        report = explore(cfg)
        assert report.budget_spent == 5
        assert report.frontier_unexplored > 0


class TestKnownBugMutation:
    """The checker validation: a seeded silent bug must be caught."""

    @pytest.fixture
    def mutated(self, monkeypatch):
        monkeypatch.setenv(MUTATION_ENV, "skip-ladder-rung")
        assert active_mutation() == "skip-ladder-rung"

    def test_unknown_mutation_name_rejected(self, monkeypatch):
        monkeypatch.setenv(MUTATION_ENV, "typo-mutation")
        with pytest.raises(ConfigError, match="typo-mutation"):
            active_mutation()

    def test_explorer_finds_and_shrinks_the_bug(self, mutated):
        report = explore(
            CheckConfig(schemes=("CKPT",), include_cluster=False, max_depth=1)
        )
        assert not report.passed
        assert report.counterexamples
        assert all(
            len(ce.minimal.atoms) <= 2 for ce in report.counterexamples
        )

    def test_the_skipped_rung_fires_the_ladder_invariant(self, mutated):
        # CI's self-test exploration: the only broken contract is the
        # ladder's — replay starts from the rung actually loaded.
        report = explore(
            CheckConfig(
                schemes=("CKPT",),
                include_cluster=False,
                max_depth=1,
                budget=24,
                require_coverage=False,
            )
        )
        found = [(ce.invariant, ce.minimal.label) for ce in report.counterexamples]
        assert found == [("ladder-monotonic", "CKPT[storage:bitflip]")]
        assert report.counterexamples[0].detail == (
            "after 1 fallback(s) over candidates [3, -1], "
            "recovery reported checkpoint 3 instead of -1"
        )

    def test_repro_file_replays_deterministically(
        self, mutated, monkeypatch
    ):
        cfg = CheckConfig(
            schemes=("CKPT",), include_cluster=False, max_depth=1, budget=12
        )
        report = explore(cfg)
        payload = repro_payload(report.counterexamples[0], cfg)
        blob = json.dumps(payload)  # survives a round trip through disk
        result = replay_repro(json.loads(blob))
        assert result["reproduced"]
        assert result["fingerprint"] == report.counterexamples[0].fingerprint
        # The same repro on the unmutated tree must come back clean.
        monkeypatch.delenv(MUTATION_ENV)
        assert not replay_repro(json.loads(blob))["reproduced"]

    def test_shrink_drops_the_irrelevant_atom(self, mutated):
        sched = Schedule(
            "CKPT",
            (FaultAtom("storage", "torn"), FaultAtom("crash", "mid-commit")),
        )
        obs = run_schedule(sched, SCENARIO)
        violated = check_observation(obs)
        assert violated
        minimal, min_obs, runs = shrink_schedule(
            sched, SCENARIO, violated[0].invariant
        )
        assert len(minimal.atoms) == 1
        assert runs >= 2


class TestReproPayload:
    def _payload(self):
        sched = Schedule("CKPT", (FaultAtom("storage", "torn"),))
        return {
            "schema": REPRO_SCHEMA,
            "invariant": "recovered-state-exact",
            "schedule": sched.to_payload(),
            "scenario": {"seed": 7},
        }

    def test_unknown_fields_tolerated(self):
        payload = self._payload()
        payload["future_field"] = {"anything": True}
        payload["scenario"]["future_knob"] = 3
        loaded = load_repro_payload(payload)
        assert loaded["invariant"] == "recovered-state-exact"

    def test_wrong_schema_rejected(self):
        payload = self._payload()
        payload["schema"] = "repro.check/v999"
        with pytest.raises(ConfigError, match="unsupported repro schema"):
            load_repro_payload(payload)

    def test_unknown_invariant_rejected(self):
        payload = self._payload()
        payload["invariant"] = "not-a-contract"
        with pytest.raises(ConfigError):
            load_repro_payload(payload)


class TestInvariantRegistryShape:
    def test_every_invariant_has_a_unique_name_and_description(self):
        names = [inv.name for inv in INVARIANTS]
        assert len(names) == len(set(names))
        assert all(inv.description for inv in INVARIANTS)
