//! Mission-level robustness acceptance (DESIGN.md §4h).
//!
//! A mission flown over a fault-injected transport must degrade
//! gracefully, never wedge:
//!
//! * recoverable faults (duplicates, stalls, transient disconnects) are
//!   absorbed by the sequenced retry protocol — the flight is
//!   bit-identical to a clean run;
//! * lossy faults (drops, corruption) cost the application a degraded
//!   iteration via the RX watchdog and the degradation ladder, but the
//!   mission still completes, deterministically;
//! * an exhausted recovery policy latches and winds the mission down at a
//!   sync boundary with a postmortem naming the fault; and
//! * a sustained sensor blackout walks the ladder to a deliberate clean
//!   abort.

use rose::audit::MissionDigest;
use rose::mission::{run_mission, run_mission_with_faults, Mission, MissionConfig};
use rose_bridge::faults::{FaultKind, FaultPlan};
use rose_bridge::sync::RecoveryPolicy;
use rose_sim_core::math::Vec3;
use rose_trace::json;

/// A mission short enough for CI but long enough to reach the goal
/// (50 m at 3 m/s ≈ 17.6 s simulated).
fn completing() -> MissionConfig {
    MissionConfig {
        max_sim_seconds: 25.0,
        ..MissionConfig::default()
    }
}

#[test]
fn recoverable_faults_are_absorbed_bit_identically() {
    // Only kinds the retry protocol makes transparent: duplicated data is
    // deduplicated by sequence number, stalled receives and a transient
    // mid-flight disconnect are retried/resynced.
    let plan = FaultPlan::new(0xFA17)
        .with_event(180, FaultKind::Duplicate)
        .with_event(360, FaultKind::Stall { ops: 2 })
        .with_event(450, FaultKind::Disconnect { ops: 2 });
    let clean = MissionDigest::of(&run_mission(&completing()));

    let outcome = run_mission_with_faults(&completing(), plan);
    assert_eq!(outcome.latched, None, "transient faults must not latch");
    assert!(!outcome.aborted, "no degradation armed");
    assert!(
        outcome.report.completed,
        "the mission must still reach the goal"
    );
    let stats = outcome.fault_stats;
    assert_eq!(stats.duplicated, 1);
    assert!(stats.stalled_ops >= 1);
    assert!(stats.disconnected_ops >= 1);
    // Absorbing the faults cost retries, attributed on the host side —
    // never to the simulated system.
    assert!(
        outcome.recovery.retries >= 1,
        "recovery must have retried, stats {:?}",
        outcome.recovery
    );
    assert_eq!(outcome.report.app.lost_responses, 0);

    // Identical to the fault-free run: recoverable faults are
    // unobservable to the simulated system.
    assert_eq!(
        MissionDigest::of(&outcome.report),
        clean,
        "fault absorption perturbed the simulated mission"
    );
}

#[test]
fn lossy_faults_degrade_deterministically_and_the_mission_still_completes() {
    // Every kind at once, including the lossy ones: a dropped sensor
    // response is gone (the server's dedupe floor jumps past it), so the
    // SoC's RX watchdog fires and the application flies that iteration
    // degraded instead of wedging forever.
    let plan = || {
        FaultPlan::new(0xD01)
            .with_event(120, FaultKind::Drop)
            .with_event(180, FaultKind::Duplicate)
            .with_event(240, FaultKind::Reorder)
            .with_event(300, FaultKind::Corrupt)
            .with_event(360, FaultKind::Stall { ops: 2 })
            .with_event(450, FaultKind::Disconnect { ops: 2 })
    };

    let outcome = run_mission_with_faults(&completing(), plan());
    assert_eq!(outcome.latched, None);
    assert!(
        outcome.report.completed,
        "a lost packet must degrade, not wedge"
    );
    let stats = outcome.fault_stats;
    assert_eq!(stats.dropped, 1);
    assert_eq!(stats.corrupted, 1);
    // The dropped response tripped the watchdog exactly once.
    assert_eq!(
        outcome.report.app.lost_responses, 1,
        "app metrics {:?}",
        outcome.report.app
    );

    // And the perturbed flight is repeatable run-to-run.
    let again = run_mission_with_faults(&completing(), plan());
    assert_eq!(
        MissionDigest::of(&again.report),
        MissionDigest::of(&outcome.report),
        "same plan, same seed, different flight"
    );
}

#[test]
fn exhausted_recovery_latches_and_winds_down_cleanly() {
    let config = MissionConfig {
        max_sim_seconds: 5.0,
        // A policy tight enough that a long outage exhausts it quickly.
        recovery: RecoveryPolicy {
            max_retries: 2,
            backoff_base: 1,
            backoff_cap: 2,
        },
        ..MissionConfig::default()
    };
    // An outage far longer than the policy tolerates.
    let plan = FaultPlan::new(1).with_event(60, FaultKind::Disconnect { ops: 100_000 });
    let outcome = run_mission_with_faults(&config, plan);
    assert!(
        outcome.latched.is_some(),
        "an unsurvivable outage must latch"
    );
    assert!(!outcome.report.completed, "the mission wound down early");
    // The wind-down is orderly: a transport-fault postmortem names the
    // failure instead of a panic or a hang.
    let reasons: Vec<_> = outcome
        .report
        .postmortems
        .iter()
        .map(|pm| {
            json::parse(pm)
                .expect("postmortem is valid JSON")
                .get("reason")
                .and_then(|v| v.as_str())
                .map(str::to_owned)
        })
        .collect();
    assert!(
        reasons.iter().any(|r| r.as_deref() == Some("transport-fault")),
        "postmortems: {reasons:?}"
    );
}

/// A config whose sensors degrade mid-flight: a depth blackout window and
/// an IMU bias step, with tracing on so the digest covers event ordering.
fn degraded() -> MissionConfig {
    MissionConfig {
        max_sim_seconds: 2.0,
        trace: true,
        depth_blackouts: vec![(0.5, 0.9)],
        imu_bias_steps: vec![(0.3, Vec3::new(0.02, -0.01, 0.0))],
        controller: rose::app::ControllerChoice::dynamic_default(),
        ..MissionConfig::default()
    }
}

/// [`degraded`] with a blackout that never ends and the abort rung armed:
/// the ladder aborts the mission a fraction of a second into the
/// blackout, long before its 6 s wall.
fn aborting() -> MissionConfig {
    MissionConfig {
        max_sim_seconds: 6.0,
        depth_blackouts: vec![(0.5, 100.0)],
        degraded_abort_streak: 3,
        ..degraded()
    }
}

#[test]
fn degraded_mission_survives_snapshot_and_resume_bit_identically() {
    for config in [degraded(), aborting()] {
        let report = run_mission(&config);
        let straight = MissionDigest::of(&report);
        assert_eq!(
            MissionDigest::of(&Mission::start(&config).run_to_completion()),
            straight,
            "run_mission and Mission::run_to_completion must fly the same mission"
        );
        if config.degraded_abort_streak > 0 {
            assert!(report.app.abort_requested, "the ladder must abort");
            assert!(report.sync_stats.syncs < 60, "the abort precedes sync 60");
        }
        // Boundaries before, inside, and after the blackout window — and,
        // for the aborting mission, before and after the abort (a run
        // asked to pass the abort stops at it, so the last snapshot is of
        // an aborted mission, which must not fly on when resumed).
        for boundary in [1, 40, 70] {
            let mut mission = Mission::start(&config);
            mission.run_syncs(boundary);
            let resumed = mission.snapshot().resume().expect("snapshot must resume");
            assert_eq!(
                MissionDigest::of(&resumed.run_to_completion()),
                straight,
                "divergence after snapshot at sync {boundary}"
            );
        }
    }
}

#[test]
fn sustained_blackout_walks_the_ladder_to_a_clean_abort() {
    let config = MissionConfig {
        max_sim_seconds: 20.0,
        controller: rose::app::ControllerChoice::dynamic_default(),
        // The depth sensor dies at t=1 s and never comes back...
        depth_blackouts: vec![(1.0, 1e9)],
        // ...so after 10 consecutive degraded iterations the application
        // requests a clean abort.
        degraded_abort_streak: 10,
        ..MissionConfig::default()
    };
    let report = run_mission(&config);
    assert!(report.app.abort_requested, "the ladder must reach the abort rung");
    assert!(!report.completed, "an aborted mission does not reach the goal");
    assert!(report.app.degraded_depth >= 10);
    // The abort is documented, not silent.
    let aborts = report
        .postmortems
        .iter()
        .filter(|pm| {
            json::parse(pm)
                .expect("postmortem is valid JSON")
                .get("reason")
                .and_then(|v| v.as_str())
                == Some("mission-abort")
        })
        .count();
    assert_eq!(aborts, 1, "exactly one abort postmortem");
}
