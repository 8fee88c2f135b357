//! Forced-failure postmortems (DESIGN.md §4f acceptance).
//!
//! The flight recorder must turn an injected failure into a postmortem
//! JSON that *names the cause*: a mission flown with an impossible control
//! deadline dumps a `deadline-miss` postmortem whose attribution blames
//! compute, and a mission whose remote RTL peer dies dumps a
//! `transport-fault` postmortem carrying the latched fault.

use rose::mission::{mission_parts, run_mission, Mission, MissionConfig, MissionReport};
use rose_bridge::sync::{RemoteRtl, Synchronizer};
use rose_bridge::transport::ChannelTransport;
use rose_trace::flight::POSTMORTEM_SCHEMA;
use rose_trace::json;
use rose_trace::{FlightRecorder, FlightSample};

#[test]
fn deadline_miss_postmortem_blames_compute() {
    let config = MissionConfig {
        max_sim_seconds: 2.0,
        trace: true,
        // One SoC cycle of budget: every control-loop response misses, so
        // the very first completed command trips the recorder.
        deadline_budget_s: 1e-9,
        ..MissionConfig::default()
    };
    let report = run_mission(&config);
    let misses = report.app.deadline_misses;
    assert!(misses > 0, "the 1ns budget must be unmeetable");
    assert!(
        !report.postmortems.is_empty(),
        "deadline misses must auto-dump a postmortem"
    );

    let parsed = json::parse(&report.postmortems[0]).expect("postmortem is valid JSON");
    assert_eq!(
        parsed.get("schema").and_then(|v| v.as_str()),
        Some(POSTMORTEM_SCHEMA)
    );
    assert_eq!(
        parsed.get("reason").and_then(|v| v.as_str()),
        Some("deadline-miss")
    );
    // The control loop is compute-bound (DNN kernels on the modeled SoC),
    // and the mission was traced — attribution must finger compute, not
    // the bridge or an rx stall.
    let dominant = parsed
        .get("attribution")
        .and_then(|a| a.get("dominant"))
        .and_then(|v| v.as_str());
    assert_eq!(
        dominant,
        Some("compute"),
        "postmortem: {}",
        report.postmortems[0]
    );
    // The ring carries context, not just the trigger sample.
    let ring = parsed.get("ring").and_then(|r| r.as_array()).expect("ring");
    assert!(!ring.is_empty());
}

/// The `(reason, sync)` pair of every postmortem a mission dumped.
fn triggers(report: &MissionReport) -> Vec<(String, u64)> {
    report
        .postmortems
        .iter()
        .map(|pm| {
            let parsed = json::parse(pm).expect("postmortem is valid JSON");
            let reason = parsed
                .get("reason")
                .and_then(|v| v.as_str())
                .expect("reason");
            let sync = parsed.get("sync").and_then(|v| v.as_f64()).expect("sync");
            (reason.to_owned(), sync as u64)
        })
        .collect()
}

#[test]
fn resumed_recorder_starts_from_the_restored_counters() {
    let config = MissionConfig {
        max_sim_seconds: 2.0,
        trace: true,
        deadline_budget_s: 1e-9,
        ..MissionConfig::default()
    };
    let straight = triggers(&run_mission(&config));
    let k = 60;
    assert!(
        straight.iter().any(|t| t.1 <= k) && straight.iter().any(|t| t.1 > k),
        "the boundary must split the straight run's postmortems: {straight:?}"
    );

    let mut mission = Mission::start(&config);
    mission.run_syncs(k);
    let resumed = mission.snapshot().resume().expect("snapshot must resume");
    // A recorder diffing against zero would fire on the first quantum for
    // the misses counted before the snapshot; one diffing against the
    // restored counters fires exactly where the straight run did.
    let suffix: Vec<_> = straight.into_iter().filter(|t| t.1 > k).collect();
    assert_eq!(triggers(&resumed.run_to_completion()), suffix);
}

#[test]
fn telemetry_does_not_perturb_the_digest() {
    use rose::audit::MissionDigest;

    // Full observability armed: tracing, histograms, deadline accounting,
    // flight recorder. The digest must not notice.
    let instrumented = MissionConfig {
        max_sim_seconds: 2.0,
        trace: true,
        deadline_budget_s: 0.05,
        ..MissionConfig::default()
    };
    let bare = MissionConfig {
        max_sim_seconds: 2.0,
        trace: true,
        ..MissionConfig::default()
    };
    let budgeted = MissionDigest::of(&run_mission(&instrumented));
    // The deadline budget only adds host-side accounting — the flown
    // trajectory and SoC state are untouched.
    let unbudgeted = MissionDigest::of(&run_mission(&bare));
    assert_eq!(budgeted.trajectory, unbudgeted.trajectory);
    assert_eq!(budgeted.soc, unbudgeted.soc);
}

#[test]
fn transport_fault_postmortem_names_the_latched_fault() {
    let config = MissionConfig {
        max_sim_seconds: 1.0,
        ..MissionConfig::default()
    };
    let (env, rtl, sync_config, _metrics) = mission_parts(&config);
    drop(rtl); // the SoC never comes up behind the transport...

    let (client, server) = ChannelTransport::pair();
    drop(server); // ...and the peer is gone before the first grant.
    let mut sync = Synchronizer::new(sync_config, env, RemoteRtl::new(client));
    let mut flight = FlightRecorder::default();

    sync.run_until(10, |_, _| false);
    let fault = sync
        .rtl()
        .fault()
        .expect("a dead peer must latch a transport fault")
        .to_string();

    // The mission driver folds the latch into the next flight sample,
    // exactly as a remote deployment's loop would.
    let sample = FlightSample {
        sync: sync.stats().syncs,
        fault: true,
        ..FlightSample::default()
    };
    let postmortem = flight
        .observe(sample, &[])
        .expect("fault latch must rise-edge a postmortem");

    let parsed = json::parse(&postmortem).expect("postmortem is valid JSON");
    assert_eq!(
        parsed.get("reason").and_then(|v| v.as_str()),
        Some("transport-fault")
    );
    assert!(!fault.is_empty(), "TransportError must render a message");
    // A second observation with the fault still latched is not a new
    // edge: the recorder dumps once per failure, not once per sync.
    let again = FlightSample {
        sync: sample.sync + 1,
        fault: true,
        ..FlightSample::default()
    };
    assert!(flight.observe(again, &[]).is_none());
}
