//! The cross-run determinism contract, enforced at tier 1.
//!
//! Identical [`MissionConfig`]s must produce bit-identical missions —
//! trajectory, SoC counters, and trace ordering. Any hidden host state
//! (allocation addresses, wall-clock reads, unordered iteration) leaking
//! into the simulation shows up here as a digest mismatch. The static
//! half of the contract (no wall clocks, no unordered maps, no truncating
//! casts) is enforced by `cargo run -p rose-lint`; this file is the
//! dynamic half.

use rose::audit::{audit_determinism, MissionDigest};
use rose::mission::{run_mission, MissionConfig, SyncMode};

fn short() -> MissionConfig {
    MissionConfig {
        max_sim_seconds: 2.0,
        trace: true,
        ..MissionConfig::default()
    }
}

/// The headline acceptance check: two runs of a config naming the
/// deleted `Parallel` executor (as older snapshots do) digest
/// bit-identically on every surface.
#[test]
fn parallel_mission_is_bit_identical_across_runs() {
    let outcome = audit_determinism(&MissionConfig {
        sync_mode: SyncMode::Parallel,
        ..short()
    });
    assert!(
        outcome.identical(),
        "parallel-config mission diverged on {:?}: {:?} vs {:?}",
        outcome.diverged_surfaces(),
        outcome.first,
        outcome.second
    );
}

/// Two runs of the default mission digest bit-identically on every
/// surface.
#[test]
fn sequential_mission_is_bit_identical_across_runs() {
    let outcome = audit_determinism(&MissionConfig {
        sync_mode: SyncMode::Sequential,
        ..short()
    });
    assert!(
        outcome.identical(),
        "mission diverged on {:?}: {:?} vs {:?}",
        outcome.diverged_surfaces(),
        outcome.first,
        outcome.second
    );
}

/// `MissionConfig::sync_mode` is ignored: a config that still names the
/// deleted `Parallel` executor (as older snapshots do) flies exactly the
/// default mission.
#[test]
fn sync_modes_produce_the_same_simulation() {
    let seq = MissionDigest::of(&run_mission(&short()));
    let par = MissionDigest::of(&run_mission(&MissionConfig {
        sync_mode: SyncMode::Parallel,
        ..short()
    }));
    assert_eq!(
        seq, par,
        "SyncMode must be unobservable to the simulated system"
    );
}

/// Digests are sensitive, not vacuous: a different seed moves the
/// trajectory digest (sensor noise perturbs the flight), and a longer
/// mission moves the trace digest (more events on the timeline). The SoC
/// and trace surfaces are deliberately NOT expected to move with the
/// seed alone — the cost model is data-independent, so the same workload
/// schedule produces the same counters regardless of where the UAV flew.
#[test]
fn digests_detect_a_perturbed_mission() {
    let base = short();
    let a = MissionDigest::of(&run_mission(&base));
    let reseeded = MissionDigest::of(&run_mission(&MissionConfig {
        seed: base.seed ^ 0xdead_beef,
        ..base.clone()
    }));
    assert_ne!(a.trajectory, reseeded.trajectory);
    let longer = MissionDigest::of(&run_mission(&MissionConfig {
        max_sim_seconds: 3.0,
        ..base
    }));
    assert_ne!(a.trace, longer.trace);
    assert_ne!(a.soc, longer.soc);
}

/// Every `span_begin*` in a real traced mission has a matching
/// `span_end*` on the same track — the dynamic TRACE001 check, replayed
/// over an actual mission rather than a synthetic log.
#[test]
fn replayed_mission_has_no_unpaired_spans() {
    let report = run_mission(&short());
    let log = report.trace.as_ref().expect("trace requested");
    let defects = log.unpaired_spans();
    assert!(defects.is_empty(), "unpaired spans: {defects:?}");
    // The paired-span instrumentation is actually present (the SoC opens
    // one soc-grant span per grant), so the check above is not vacuously
    // passing over a span-free log.
    let begins = log
        .events()
        .iter()
        .filter(|e| e.name == "soc-grant" && e.kind == rose_trace::EventKind::Begin)
        .count();
    let ends = log
        .events()
        .iter()
        .filter(|e| e.name == "soc-grant" && e.kind == rose_trace::EventKind::End)
        .count();
    assert!(begins > 0, "no soc-grant spans recorded");
    assert_eq!(begins, ends);
}
