"""The paper-figure tests by their earlier names, now read from the
claim battery.

Each test asserts the battery claims its body was folded into; the
claims themselves are written once, in :mod:`repro.harness.calibration`,
and ``tests/test_calibration.py`` runs each under its own id.
"""

from __future__ import annotations


def _holds(*ids):
    def test(self, claims):
        for claim in ids:
            assert claims[claim].holds, f"{claim}: {claims[claim].detail}"

    return test


class TestFig2Motivation:
    test_nat_has_highest_runtime_and_no_recovery = _holds(
        "fig2-nat-fastest-runtime-no-recovery"
    )
    test_msr_recovers_fastest = _holds("fig2-msr-recovers-fastest")
    test_wal_recovers_slowest = _holds("fig2-wal-recovers-slowest")
    test_dependency_trackers_slower_than_ckpt_on_sl = _holds(
        "fig2-dependency-trackers-slower-than-ckpt"
    )


class TestFig11Breakdown:
    test_msr_wins_every_application = _holds(
        "fig11-msr-fastest-recovery-SL",
        "fig11-msr-fastest-recovery-GS",
        "fig11-msr-fastest-recovery-TP",
    )
    test_wal_wait_dominates_its_breakdown = _holds("fig11-wal-wait-dominates")
    test_dl_construct_exceeds_all_other_schemes = _holds("fig11-dl-construct-dominates")
    test_msr_has_minimal_explore_time = _holds("fig11-msr-minimal-explore")
    test_abort_pushdown_shrinks_msr_abort_time_on_tp = _holds(
        "fig11-abort-pushdown-shrinks-tp-aborts"
    )


class TestFig11dFactorAnalysis:
    test_full_msr_beats_simple_everywhere = _holds("fig11d-full-msr-beats-simple")
    test_restructuring_is_largest_gain_for_sl = _holds(
        "fig11d-restructuring-largest-gain-sl"
    )
    test_task_assignment_helps_skewed_gs = _holds("fig11d-task-assignment-helps-gs")
    test_abort_pushdown_helps_tp = _holds("fig11d-abort-pushdown-helps-tp")


class TestFig12Runtime:
    test_ckpt_has_least_ft_overhead = _holds("fig12a-ckpt-least-overhead")
    test_msr_beats_log_based_schemes = _holds("fig12a-msr-beats-log-schemes")
    test_msr_within_a_fifth_of_native = _holds("fig12a-msr-within-a-fifth-of-native")


class TestFig12bSelectiveLogging:
    test_full_logging_wins_at_low_ratio = _holds("fig12b-selective-logging-trade-off")
    test_gap_narrows_as_dependencies_grow = _holds("fig12b-selective-logging-trade-off")


class TestFig12cMemory:
    test_ckpt_uses_least_memory = _holds("fig12c-ckpt-least-memory")
    test_msr_below_dl_and_lv = _holds("fig12c-msr-below-dl-and-lv")


class TestFig12dOverheadBreakdown:
    test_nat_has_no_io_or_tracking = _holds("fig12d-nat-no-io-or-tracking")
    test_lv_has_most_tracking = _holds("fig12d-lv-most-tracking")
    test_selective_logging_cuts_msr_tracking_below_dl = _holds(
        "fig12d-msr-tracking-below-dl"
    )


class TestFig13Scalability:
    test_msr_scales_on_every_app = _holds("fig13-msr-scales")
    test_wal_does_not_scale = _holds("fig13-wal-does-not-scale")
    test_wal_competitive_at_one_core = _holds("fig13-wal-beats-msr-at-one-core")
    test_ckpt_bounded_on_contended_gs = _holds("fig13-ckpt-bounded-on-contended-gs")


class TestFig14Sensitivity:
    test_msr_leads_across_multi_partition_ratios = _holds("fig14a-msr-leads-every-ratio")
    test_lv_best_at_uniform_write_only = _holds("fig14b-lv-best-at-uniform")
    test_lv_collapses_with_skew_but_msr_tolerates_it = _holds(
        "fig14b-lv-collapses-msr-tolerates-skew"
    )
    test_wal_improves_with_abort_ratio = _holds("fig14c-wal-improves-with-aborts")
    test_msr_lead_not_guaranteed_at_extreme_aborts = _holds(
        "fig14c-lv-overtakes-msr-at-extreme"
    )
