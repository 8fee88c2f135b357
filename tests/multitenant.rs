//! Integration tests for multi-tenant core sharing.

use rose::mission::{run_mission, run_mission_multitenant, MissionConfig};
use rose_socsim::multitenant::TimeSharedConfig;
use rose_trace::json;

#[test]
fn telemetry_tenant_recovers_idle_cycles() {
    let mission = MissionConfig {
        max_sim_seconds: 30.0,
        ..MissionConfig::default()
    };
    let solo = run_mission(&mission);
    let (shared, telemetry) =
        run_mission_multitenant(&mission, TimeSharedConfig::default(), 64 * 1024);

    assert!(shared.completed, "mission must still complete under sharing");
    assert!(telemetry > 1000, "telemetry blocks {telemetry}");
    let idle_solo = solo.soc_stats.idle_cycles as f64 / solo.soc_stats.cycles as f64;
    let idle_shared = shared.soc_stats.idle_cycles as f64 / shared.soc_stats.cycles as f64;
    assert!(
        idle_shared < idle_solo * 0.5,
        "sharing should absorb idle: {idle_shared} vs {idle_solo}"
    );
}

#[test]
fn heavier_background_share_inflates_control_latency() {
    let mission = MissionConfig {
        max_sim_seconds: 30.0,
        ..MissionConfig::default()
    };
    let (light, _) = run_mission_multitenant(
        &mission,
        TimeSharedConfig {
            background_ops_per_fg: 1,
            ..TimeSharedConfig::default()
        },
        64 * 1024,
    );
    let (heavy, _) = run_mission_multitenant(
        &mission,
        TimeSharedConfig {
            background_ops_per_fg: 6,
            ..TimeSharedConfig::default()
        },
        64 * 1024,
    );
    assert!(
        heavy.mean_latency_ms > light.mean_latency_ms,
        "heavy share {} ms vs light {} ms",
        heavy.mean_latency_ms,
        light.mean_latency_ms
    );
}

#[test]
fn sustained_blackout_aborts_a_multitenant_mission() {
    let mission = MissionConfig {
        max_sim_seconds: 6.0,
        controller: rose::app::ControllerChoice::dynamic_default(),
        // The depth sensor dies at t=0.5 s and never comes back, and three
        // consecutive degraded iterations request a clean abort.
        depth_blackouts: vec![(0.5, 100.0)],
        degraded_abort_streak: 3,
        ..MissionConfig::default()
    };
    let (report, _) = run_mission_multitenant(&mission, TimeSharedConfig::default(), 64 * 1024);
    assert!(report.app.abort_requested, "the ladder must reach the abort rung");
    assert!(
        report.sim_time_s < 2.0,
        "an aborted mission winds down, it does not fly to the wall: {} s",
        report.sim_time_s
    );
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
