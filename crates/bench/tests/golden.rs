//! Golden-output regression tests: every pinned scenario must keep
//! reproducing its capture byte for byte.
//!
//! The files under `tests/golden/` were captured at default settings
//! (`SSYNC_TRIALS=1`): the oldest from the original (pre-`ssync_exp`)
//! figure binaries, the rest from `ssync-lab run` at the point each test's
//! doc names. Each scenario renders at one and at four worker threads —
//! the harness promises both match the serial bytes exactly. The slowest
//! render at four only; CI's release-mode `ssync-lab --check` steps
//! replay them too.

use ssync_bench::scenarios;
use ssync_exp::{golden, run_rendered, RunConfig};

fn check_at(name: &str, expected: &str, thread_counts: &[usize]) {
    let scenario = scenarios::find(name).expect("scenario registered");
    for &threads in thread_counts {
        let cfg = RunConfig {
            threads,
            ..Default::default()
        };
        golden::assert_matches(
            &format!("{name} (threads={threads})"),
            expected,
            &run_rendered(scenario, &cfg),
        );
    }
}

fn check(name: &str, expected: &str) {
    check_at(name, expected, &[1, 4]);
}

#[test]
fn fig05_phase_slope_matches_prerefactor_output() {
    check(
        "fig05_phase_slope",
        include_str!("golden/fig05_phase_slope.tsv"),
    );
}

#[test]
fn fig08_wait_lp_matches_prerefactor_output() {
    check("fig08_wait_lp", include_str!("golden/fig08_wait_lp.tsv"));
}

#[test]
fn fig14_delay_spread_matches_prerefactor_output() {
    check(
        "fig14_delay_spread",
        include_str!("golden/fig14_delay_spread.tsv"),
    );
}

#[test]
fn table_overhead_matches_prerefactor_output() {
    check("table_overhead", include_str!("golden/table_overhead.tsv"));
}

/// The two scenarios that drive the most joint transmissions, pinned when
/// the monolithic joint-transmission driver became a wrapper over the
/// staged `JointSession`. They are checked at one multi-threaded worker count
/// here (they are the suite's slowest scenarios in the debug profile;
/// thread-count determinism is covered by `determinism.rs`), and CI's
/// `ssync-lab --check` step re-verifies both in release on every push.
#[test]
fn fig12_sync_error_matches_presession_output() {
    check_at(
        "fig12_sync_error",
        include_str!("golden/fig12_sync_error.tsv"),
        &[4],
    );
}

#[test]
fn fig13_cp_sweep_matches_presession_output() {
    check_at(
        "fig13_cp_sweep",
        include_str!("golden/fig13_cp_sweep.tsv"),
        &[4],
    );
}

/// Two further joint-transmission-heavy scenarios, pinned when the modem
/// grew its zero-allocation workspaces: the workspace paths promise
/// bit-identical signal processing, and these captures (taken immediately
/// before the refactor) enforce it end to end. Checked at one
/// multi-threaded worker count for the same reason as fig12/fig13 above.
#[test]
fn fig16_subcarrier_snr_matches_preworkspace_output() {
    check_at(
        "fig16_subcarrier_snr",
        include_str!("golden/fig16_subcarrier_snr.tsv"),
        &[4],
    );
}

/// The event-driven testbed's fault-injection sweep, pinned when the
/// testbed landed: the whole protocol stack (CSMA/CA contention, ARQ,
/// ExOR batch maps, joint frames, fault seams) must keep producing these
/// exact typed outcomes. Its sibling `testbed_multihop` golden is pinned
/// in `tests/golden/` too but replayed only by CI's release-mode
/// `ssync-lab --check` step — its measured-delivery link shaping makes a
/// debug-profile render too slow for the unit suite.
#[test]
fn testbed_fault_matches_pinned_output() {
    check_at(
        "testbed_fault",
        include_str!("golden/testbed_fault.tsv"),
        &[4],
    );
}

#[test]
fn ablation_combiner_matches_preworkspace_output() {
    check_at(
        "ablation_combiner",
        include_str!("golden/ablation_combiner.tsv"),
        &[4],
    );
}

/// The six scenarios pinned last: `ssync-lab run` captures from the
/// release build at default settings, byte-identical at 1 and 2 worker
/// threads when taken.
#[test]
fn ablation_tracking_matches_pinned_output() {
    check(
        "ablation_tracking",
        include_str!("golden/ablation_tracking.tsv"),
    );
}

#[test]
fn sweep_wait_residual_matches_pinned_output() {
    check(
        "sweep_wait_residual",
        include_str!("golden/sweep_wait_residual.tsv"),
    );
}

#[test]
fn fig15_power_gains_matches_pinned_output() {
    check(
        "fig15_power_gains",
        include_str!("golden/fig15_power_gains.tsv"),
    );
}

#[test]
fn fig17_lasthop_cdf_matches_pinned_output() {
    check(
        "fig17_lasthop_cdf",
        include_str!("golden/fig17_lasthop_cdf.tsv"),
    );
}

#[test]
fn fig18_opportunistic_matches_pinned_output() {
    check(
        "fig18_opportunistic",
        include_str!("golden/fig18_opportunistic.tsv"),
    );
}

/// The staged-API scan (N co-senders x 2 receivers) is the suite's
/// slowest single-threaded render, so it is checked at one
/// multi-threaded worker count, like fig12.
#[test]
fn session_matrix_matches_pinned_output() {
    check_at(
        "session_matrix",
        include_str!("golden/session_matrix.tsv"),
        &[4],
    );
}
