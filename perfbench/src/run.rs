//! The workload drivers. Untraced runs give the end-to-end metrics;
//! traced runs fly the same missions twice, untraced and through the
//! endpoint adapters, and give the per-layer metrics.

use crate::adapters::{RtlNames, TracedEnv, TracedRtl, TracedTransport, CLIENT_LINK, SERVER_LINK};
use crate::check::{self, Outcome, References, Tally, DEFAULT_MISSION_KEY};
use crate::layers::{EndpointMission, Layers, Pool, PoolItem};
use crate::spans::{self, Epoch, Raw};
use crate::workload::{self, plan, Planned, Soc, Workload, BOOT_SYNCS};
use rose::mission::{finish_report, mission_parts, run_mission, MissionConfig};
use rose::{Mission, MissionReport, MissionSnapshot};
use rose_bench::parallel_map;
use rose_bridge::sync::{serve_rtl, RemoteRtl, Synchronizer};
use rose_bridge::transport::TcpTransport;
use rose_socsim::SharedTimingCache;
use std::net::TcpListener;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

/// Set-ups measured per untraced run, each in a fresh process; `setup_s`
/// is their median. One more runs first and is discarded: it pays for
/// loading the executable into the page cache.
pub const SETUP_REPS: usize = 31;

/// The `setup_s` samples of an untraced run. They are taken one at a
/// time, between missions (sweep-cold: between sweeps) and evenly over
/// the measured part, so their median sees the same host conditions as
/// the other metrics rather than those of one burst.
struct Setups<'a> {
    settings: &'a Settings,
    start: Instant,
    samples: Vec<f64>,
    error: Option<String>,
}

impl<'a> Setups<'a> {
    /// Runs the discarded warm-up set-up and starts the schedule.
    fn start(settings: &'a Settings) -> Result<Self, String> {
        in_child(settings, "setup")?;
        Ok(Setups {
            settings,
            start: Instant::now(),
            samples: Vec::new(),
            error: None,
        })
    }

    fn take(&mut self) {
        let sample = in_child(self.settings, "setup").and_then(|out| {
            out.trim()
                .parse::<f64>()
                .map_err(|e| format!("setup step printed {out:?}: {e}"))
        });
        match sample {
            Ok(v) => self.samples.push(v),
            Err(e) => self.error = Some(e),
        }
    }

    /// Takes a sample if one is due.
    fn tick(&mut self) {
        let due = self.start.elapsed().as_secs_f64() / self.settings.seconds * SETUP_REPS as f64;
        if self.error.is_none() && self.samples.len() < (due as usize).min(SETUP_REPS) {
            self.take();
        }
    }

    /// Takes the samples still missing and returns the median.
    fn median(mut self) -> Result<f64, String> {
        while self.error.is_none() && self.samples.len() < SETUP_REPS {
            self.take();
        }
        match self.error {
            Some(e) => Err(e),
            None => Ok(spans::median(&mut self.samples)),
        }
    }
}

/// Sweep workers: `min(nproc, 2)`.
pub fn sweep_jobs() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get()).min(2)
}

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

/// What a run is asked to do.
#[derive(Debug, Clone)]
pub struct Settings {
    /// The workload.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// How long the measured part runs.
    pub seconds: f64,
    /// The run's own scratch directory (holds the timing-cache file).
    pub scratch: PathBuf,
}

impl Settings {
    /// The timing-cache file of this run.
    pub fn cache_file(&self) -> PathBuf {
        self.scratch.join("timing-cache.snap")
    }
}

/// A run's result.
#[derive(Debug, Default)]
pub struct RunOutput {
    /// Missions attempted and failed.
    pub tally: Tally,
    /// The reported metrics.
    pub metrics: Vec<Metric>,
    /// The traced run's accounting (empty for untraced runs).
    pub layers: Layers,
}

/// Runs `f`, timing it and turning a panic or an error into a failed
/// outcome.
fn attempt(
    f: impl FnOnce() -> Result<MissionReport, String>,
) -> (Result<MissionReport, Outcome>, Duration) {
    let t0 = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(f));
    let dt = t0.elapsed();
    let out = match out {
        Ok(Ok(report)) => Ok(report),
        Ok(Err(e)) => Err(Outcome::Error(e)),
        Err(_) => Err(Outcome::Panicked),
    };
    (out, dt)
}

/// Checks one mission against its reference.
fn tally(tally: &mut Tally, refs: &References, key: &str, result: &Result<MissionReport, Outcome>) {
    let outcome = match result {
        Ok(report) => Outcome::Digest(check::digest(report)),
        Err(o) => o.clone(),
    };
    tally.record(refs, key, &outcome);
}

/// `config` with its timing cache replaced.
fn with_cache(config: &MissionConfig, cache: &SharedTimingCache) -> MissionConfig {
    MissionConfig {
        timing_cache: Some(cache.clone()),
        ..config.clone()
    }
}

/// The mission is over when the UAV crosses the goal plane.
fn complete(env: &rose::envside::CoSimEnv) -> bool {
    env.sim().mission_complete()
}

/// A connected loopback TCP link: `(synchronizer end, server end)`.
/// Connecting before accepting means a failed connect never leaves a
/// thread blocked in `accept`.
fn tcp_link() -> Result<(TcpTransport, TcpTransport), String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let client = TcpTransport::connect(addr).map_err(|e| e.to_string())?;
    let server = TcpTransport::accept(&listener).map_err(|e| e.to_string())?;
    Ok((client, server))
}

/// Flies one mission with the SoC behind loopback TCP on a server thread
/// (the paper's deployment).
pub fn fly_tcp(config: &MissionConfig) -> Result<MissionReport, String> {
    let (env, rtl, sync_config, metrics) = mission_parts(config);
    let (client, mut server) = tcp_link()?;
    let server = thread::spawn(move || {
        let mut rtl = rtl;
        let served = serve_rtl(&mut server, &mut rtl);
        (rtl, served)
    });
    let mut sync = Synchronizer::new(sync_config, env, RemoteRtl::new(client));
    let ran = sync.try_run_until(config.max_syncs(), |env, _| complete(env));
    let (env, remote) = sync.into_parts();
    let shut = remote.shutdown();
    let (rtl, served) = server
        .join()
        .map_err(|_| "RTL server thread panicked".to_string())?;
    ran.map(drop)
        .and(shut)
        .and(served)
        .map_err(|e| e.to_string())?;
    // The report reads the trajectory from the environment and the
    // counters from the SoC the server thread handed back.
    Ok(finish_report(
        config,
        Synchronizer::new(sync_config, env, rtl),
        &metrics,
    ))
}

/// The traced counterpart of [`run_mission`]: the same endpoints, built
/// by `mission_parts` and wrapped in the adapters, driven to the end by
/// one `run_until` (without `run_mission`'s per-quantum flight recorder,
/// which does not change the simulation).
fn fly_local_traced(config: &MissionConfig, epoch: Epoch, layers: &mut Layers) -> MissionReport {
    let start = epoch.ns();
    let ((env, rtl, sync_config, metrics), build) =
        epoch.time("mission_parts", || mission_parts(config));
    let mut sync = Synchronizer::new(
        sync_config,
        TracedEnv::new(env, epoch),
        TracedRtl::new(rtl, epoch, RtlNames::IN_PROCESS),
    );
    let (_, run) = epoch.time("run_until", || {
        sync.run_until(config.max_syncs(), |env, _| complete(&env.inner))
    });
    let stats = *sync.stats();
    let (env, rtl) = sync.into_parts();
    let (env_inner, rtl_inner) = (env.inner, rtl.inner);
    let (mut report, rep) = epoch.time("finish_report", || {
        finish_report(
            config,
            Synchronizer::new(sync_config, env_inner, rtl_inner),
            &metrics,
        )
    });
    report.sync_stats = stats;
    let mission = EndpointMission {
        root: (start, epoch.ns()),
        top: vec![build, run, rep],
        env: env.spans,
        rtl: rtl.spans,
        frames: env.frames,
        payloads: rtl.payloads,
        cost_model: rtl.cost_model,
        cost_model_calls: rtl.cost_model_calls,
        sim_cycles: report.soc_stats.cycles,
        ..EndpointMission::default()
    };
    layers.add_endpoint_mission(mission);
    report
}

/// The traced twin of [`fly_tcp`]: adapters on both ends of the link.
fn fly_tcp_traced(
    config: &MissionConfig,
    epoch: Epoch,
    layers: &mut Layers,
) -> Result<MissionReport, String> {
    let start = epoch.ns();
    let ((env, rtl, sync_config, metrics), build) =
        epoch.time("mission_parts", || mission_parts(config));
    let (link, connect) = epoch.time("tcp.connect", tcp_link);
    let (client, server) = link?;
    let server = thread::spawn(move || {
        let mut link = TracedTransport::new(server, epoch, SERVER_LINK);
        let mut rtl = TracedRtl::new(rtl, epoch, RtlNames::SERVER);
        let served = serve_rtl(&mut link, &mut rtl);
        (rtl, link, served)
    });
    let remote = RemoteRtl::new(TracedTransport::new(client, epoch, CLIENT_LINK));
    let mut sync = Synchronizer::new(
        sync_config,
        TracedEnv::new(env, epoch),
        TracedRtl::new(remote, epoch, RtlNames::REMOTE),
    );
    let (ran, run) = epoch.time("run_until", || {
        sync.try_run_until(config.max_syncs(), |env, _| complete(&env.inner))
    });
    let stats = *sync.stats();
    let (env, rtl) = sync.into_parts();
    let retries = rtl.inner.recovery_stats().retries;
    let link = rtl.inner.transport();
    let (link_spans, rtts, msgs, bytes) =
        (link.spans.clone(), link.rtts.clone(), link.msgs, link.bytes);
    let remote = rtl.inner;
    let ((shut, joined), teardown) = epoch.time("tcp.shutdown", || {
        let shut = remote.shutdown();
        (shut, server.join())
    });
    let (server_rtl, server_link, served) =
        joined.map_err(|_| "RTL server thread panicked".to_string())?;
    ran.map(drop)
        .and(shut)
        .and(served)
        .map_err(|e| e.to_string())?;
    let (env_inner, soc_rtl) = (env.inner, server_rtl.inner);
    let (mut report, rep) = epoch.time("finish_report", || {
        finish_report(
            config,
            Synchronizer::new(sync_config, env_inner, soc_rtl),
            &metrics,
        )
    });
    report.sync_stats = stats;
    let mut nested = link_spans;
    nested.extend(server_link.spans);
    nested.extend(server_rtl.spans);
    let mission = EndpointMission {
        root: (start, epoch.ns()),
        top: vec![build, connect, run, teardown, rep],
        env: env.spans,
        rtl: rtl.spans,
        nested,
        frames: env.frames,
        payloads: rtl.payloads,
        cost_model: server_rtl.cost_model,
        cost_model_calls: server_rtl.cost_model_calls,
        msgs,
        bytes,
        rtts,
        retries,
        sim_cycles: report.soc_stats.cycles,
        remote: true,
    };
    layers.add_endpoint_mission(mission);
    Ok(report)
}

/// The default 2 s mission, flown as `profile_mission` flies it, checked
/// against its known digest.
fn check_default_mission(refs: &References, out: &mut Tally) {
    let config = MissionConfig {
        max_sim_seconds: 2.0,
        trace: true,
        ..MissionConfig::default()
    };
    let (result, _) = attempt(|| Ok(run_mission(&config)));
    tally(out, refs, DEFAULT_MISSION_KEY, &result);
}

/// Runs `rose-perfbench <step>` for this run's workload, seed and
/// scratch directory in a child process; returns its standard output.
pub fn in_child(s: &Settings, step: &str) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .arg(step)
        .args([
            "--workload",
            s.workload.name(),
            "--seed",
            &s.seed.to_string(),
        ])
        .arg("--scratch")
        .arg(&s.scratch)
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("starting the {step} step: {e}"))?;
    if !out.status.success() {
        return Err(format!("{step} step failed: {}", out.status));
    }
    Ok(String::from_utf8_lossy(&out.stdout).into_owned())
}

/// The `setup` step, run in a fresh process so it pays what a user's
/// first mission pays (first allocations, page faults): seconds from the
/// start of the run's work to the end of the first quantum. That covers
/// the timing-cache file load and the first mission build (sweep-cold:
/// the first boot's).
pub fn setup(s: &Settings) -> f64 {
    if s.workload == Workload::SweepCold {
        let _ = std::fs::remove_file(s.cache_file());
    }
    let first = &plan(s.workload, s.seed, None)[0];
    let t0 = Instant::now();
    let cache = SharedTimingCache::load(s.cache_file());
    let mut mission = Mission::start(&with_cache(&first.config, &cache));
    mission.run_syncs(1);
    t0.elapsed().as_secs_f64()
}

/// Runs `pass` until `seconds` have gone by, always finishing a pass so
/// every planned mission gets its share.
fn passes(seconds: f64, mut pass: impl FnMut()) {
    let start = Instant::now();
    loop {
        pass();
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
}

/// Peak resident memory of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Fills the run's timing-cache file by flying every planned mission once
/// in process (the untimed prepare step of mission-warm).
pub fn prepare(s: &Settings) -> Result<(), String> {
    let cache = SharedTimingCache::load(s.cache_file());
    // TCP legs too: in process, they fill the same entries.
    for p in plan(s.workload, s.seed, Some(cache.clone())) {
        run_mission(&p.config);
    }
    cache
        .persist()
        .map_err(|e| format!("persisting the timing cache: {e}"))
}

/// The end-to-end metrics of an untraced run.
pub fn untraced(s: &Settings, refs: &References) -> Result<RunOutput, String> {
    let mut out = RunOutput::default();
    check_default_mission(refs, &mut out.tally);
    let mut setups = Setups::start(s)?;
    let missions = plan(s.workload, s.seed, None);

    // One throughput sample per pass: Σ sim_time_s ÷ Σ host time of the
    // pass's missions (sweep-cold: of its sweeps, cache load to persist).
    let mut rates = Vec::new();
    let mut mission_ms = Vec::new();
    if s.workload == Workload::SweepCold {
        passes(s.seconds, || {
            let (mut sim_s, mut wall) = (0.0, Duration::ZERO);
            for chunk in missions.chunks(workload::SWEEP_BRANCHES) {
                setups.tick();
                let sweep = sweep(s, chunk, None);
                wall += sweep.wall;
                for (p, result, dt) in &sweep.branches {
                    tally(&mut out.tally, refs, &p.key, result);
                    sim_s += result.as_ref().map_or(0.0, |r| r.sim_time_s);
                    mission_ms.push(dt.as_secs_f64() * 1e3);
                }
            }
            rates.push(sim_s / wall.as_secs_f64());
        });
    } else {
        let cache = SharedTimingCache::load(s.cache_file());
        let missions = plan(s.workload, s.seed, Some(cache.clone()));
        passes(s.seconds, || {
            let (mut sim_s, mut wall) = (0.0, Duration::ZERO);
            for p in &missions {
                setups.tick();
                let (result, dt) = if p.remote {
                    attempt(|| fly_tcp(&p.config))
                } else {
                    attempt(|| Ok(run_mission(&p.config)))
                };
                wall += dt;
                mission_ms.push(dt.as_secs_f64() * 1e3);
                tally(&mut out.tally, refs, &p.key, &result);
                sim_s += result.as_ref().map_or(0.0, |r| r.sim_time_s);
            }
            rates.push(sim_s / wall.as_secs_f64());
        });
        cache
            .persist()
            .map_err(|e| format!("persisting the timing cache: {e}"))?;
    }
    let setup = setups.median()?;

    out.metrics = vec![
        Metric {
            name: "sim_rate",
            unit: "sim-s/s",
            value: spans::median(&mut rates),
        },
        Metric {
            name: "mission_ms_p50",
            unit: "ms",
            value: spans::median(&mut mission_ms),
        },
        Metric {
            name: "setup_s",
            unit: "s",
            value: setup,
        },
        Metric {
            name: "peak_rss_mb",
            unit: "MiB",
            value: peak_rss_mb(),
        },
    ];
    Ok(out)
}

/// One sweep's outcome.
struct Sweep<'a> {
    /// From the cache load to the persist.
    wall: Duration,
    /// Each branch, its result and its host time from resume to report.
    branches: Vec<(&'a Planned, Result<MissionReport, Outcome>, Duration)>,
}

/// fig10's structure: boot each configuration for [`BOOT_SYNCS`] syncs
/// against an empty timing-cache file and snapshot it, resume every
/// planned branch from its configuration's snapshot with the branch's yaw
/// applied, fly it to the end, and persist the cache. Traced when
/// `trace` is given.
fn sweep<'a>(
    s: &Settings,
    missions: &'a [Planned],
    trace: Option<(Epoch, &mut Layers)>,
) -> Sweep<'a> {
    let _ = std::fs::remove_file(s.cache_file());
    let jobs = sweep_jobs();
    let epoch = trace.as_ref().map_or_else(Epoch::now, |t| t.0);
    let t0 = Instant::now();
    let root_start = epoch.ns();
    let (cache, load) = epoch.time("cache.load", || SharedTimingCache::load(s.cache_file()));
    let (before, counted_before) = epoch.time("cache.counters", || cache.counters());

    let traced = trace.is_some();
    let boot = |soc: Soc| {
        let (thread, start) = (thread::current().id(), epoch.ns());
        let result = catch_unwind(AssertUnwindSafe(|| {
            let config = workload::config_of(
                Workload::SweepCold,
                &workload::Variant {
                    soc,
                    seed: 0,
                    yaw_deg: 0.0,
                },
                Some(cache.clone()),
            );
            let (mut m, a) = epoch.time("Mission::start", || Mission::start(&config));
            let (_, b) = epoch.time("Mission::run_syncs", || m.run_syncs(BOOT_SYNCS));
            let (snap, c) = epoch.time("Mission::snapshot", || m.snapshot());
            let mut calls = vec![a, b, c];
            // Traced only: the boot's own report carries its profile, and
            // the cost model of a cold cache is spent in the boots.
            let report = traced.then(|| {
                let (report, d) = epoch.time("boot.finish", || m.finish());
                calls.push(d);
                report
            });
            (snap, report, calls)
        }))
        .ok();
        (
            soc,
            result,
            PoolItem {
                thread,
                raw: Raw {
                    name: "boot",
                    start,
                    end: epoch.ns(),
                },
                calls: Vec::new(),
            },
        )
    };
    let (boots, boots_raw) = epoch.time("pool.boots", || {
        parallel_map(Soc::ALL.to_vec(), jobs, boot)
    });

    let snapshot_of = |soc: Soc| -> Option<&MissionSnapshot> {
        boots
            .iter()
            .find(|b| b.0 == soc)
            .and_then(|b| b.1.as_ref())
            .map(|b| &b.0)
    };
    let items: Vec<(&Planned, Option<&MissionSnapshot>)> =
        missions.iter().map(|p| (p, snapshot_of(p.soc))).collect();
    let branch = |(p, snap): (&'a Planned, Option<&MissionSnapshot>)| {
        let (thread, start) = (thread::current().id(), epoch.ns());
        let mut calls = Vec::new();
        let (result, dt) = attempt(|| {
            let snap = snap.ok_or("the boot of this configuration failed")?;
            let (resumed, a) = epoch.time("MissionSnapshot::resume", || snap.resume());
            calls.push(a);
            let mut m = resumed.map_err(|e| e.to_string())?;
            m.perturb_yaw(p.branch_yaw_deg.unwrap_or(0.0).to_radians());
            // `run_to_completion`, split so the report's cost shows.
            let remaining = m.config().max_syncs().saturating_sub(m.syncs_executed());
            let (_, b) = epoch.time("Mission::run_syncs", || m.run_syncs(remaining));
            let (report, c) = epoch.time("Mission::finish", || m.finish());
            calls.extend([b, c]);
            Ok(report)
        });
        (
            p,
            result,
            dt,
            PoolItem {
                thread,
                raw: Raw {
                    name: "branch",
                    start,
                    end: epoch.ns(),
                },
                calls,
            },
        )
    };
    let (branches, branches_raw) =
        epoch.time("pool.branches", || parallel_map(items, jobs, branch));
    let (persisted, persist) = epoch.time("cache.persist", || cache.persist());
    let ((hits, misses), counted_after) = epoch.time("cache.counters", || cache.counters());
    let (wall, root) = (t0.elapsed(), (root_start, epoch.ns()));
    if let Err(e) = persisted {
        eprintln!("warning: persisting the sweep's timing cache: {e}");
    }

    if let Some((_, layers)) = trace {
        layers.cache_hits += hits - before.0;
        layers.cache_misses += misses - before.1;
        layers.cache_entries = cache.len() as u64;
        layers.cache_file_bytes = std::fs::metadata(s.cache_file()).map_or(0, |m| m.len());
        layers.cache_load(load);
        layers.cache_persist(persist);
        let mut boot_items = Vec::new();
        for (_, result, mut item) in boots {
            if let Some((snap, report, calls)) = result {
                layers.snapshot(snap.bytes().len());
                if let Some(report) = report {
                    layers.add_report(&report, false);
                }
                item.calls = calls;
            }
            boot_items.push(item);
        }
        let mut branch_items = Vec::new();
        for (_, result, _, item) in &branches {
            if let Ok(report) = result {
                layers.add_report(report, true);
            }
            branch_items.push(item.clone());
        }
        let pools = [
            Pool {
                raw: boots_raw,
                jobs,
                items: boot_items,
            },
            Pool {
                raw: branches_raw,
                jobs,
                items: branch_items,
            },
        ];
        layers.add_sweep(
            root,
            &[load, counted_before, persist, counted_after],
            &pools,
            missions.len() as u64,
        );
    }
    Sweep {
        wall,
        branches: branches
            .into_iter()
            .map(|(p, r, dt, _)| (p, r, dt))
            .collect(),
    }
}

/// The per-layer metrics of a traced run. Every traced flight (or sweep)
/// is paired with the same flight untraced; both are checked against the
/// reference, so the traced run's simulated counters equal the untraced
/// run's.
pub fn traced(s: &Settings, refs: &References) -> Result<RunOutput, String> {
    let mut out = RunOutput::default();
    check_default_mission(refs, &mut out.tally);
    let epoch = Epoch::now();
    let layers = &mut out.layers;
    let counts = &mut out.tally;

    if s.workload == Workload::SweepCold {
        let missions = plan(s.workload, s.seed, None);
        passes(s.seconds, || {
            for chunk in missions.chunks(workload::SWEEP_BRANCHES) {
                let plain = sweep(s, chunk, None);
                let traced = sweep(s, chunk, Some((epoch, &mut *layers)));
                layers.untraced += plain.wall;
                layers.traced += traced.wall;
                for (a, b) in plain.branches.iter().zip(&traced.branches) {
                    tally(counts, refs, &a.0.key, &a.1);
                    tally(counts, refs, &b.0.key, &b.1);
                }
            }
        });
    } else {
        let (cache, load) = epoch.time("cache.load", || SharedTimingCache::load(s.cache_file()));
        layers.cache_load(load);
        let missions = plan(s.workload, s.seed, Some(cache.clone()));
        let mut traced_hits = (0, 0);
        passes(s.seconds, || {
            for p in &missions {
                let (plain, dt_plain) = if p.remote {
                    attempt(|| fly_tcp(&p.config))
                } else {
                    attempt(|| Ok(run_mission(&p.config)))
                };
                let before = cache.counters();
                let (traced, dt_traced) = if p.remote {
                    attempt(|| fly_tcp_traced(&p.config, epoch, layers))
                } else {
                    attempt(|| Ok(fly_local_traced(&p.config, epoch, layers)))
                };
                let after = cache.counters();
                traced_hits.0 += after.0 - before.0;
                traced_hits.1 += after.1 - before.1;
                layers.untraced += dt_plain;
                layers.traced += dt_traced;
                tally(counts, refs, &p.key, &plain);
                tally(counts, refs, &p.key, &traced);
            }
        });
        let (persisted, persist) = epoch.time("cache.persist", || cache.persist());
        persisted.map_err(|e| format!("persisting the timing cache: {e}"))?;
        layers.cache_persist(persist);
        layers.cache_hits = traced_hits.0;
        layers.cache_misses = traced_hits.1;
        layers.cache_entries = cache.len() as u64;
        layers.cache_file_bytes = std::fs::metadata(s.cache_file()).map_or(0, |m| m.len());
    }
    out.metrics = out.layers.metrics(out.tally.failed_frac());
    Ok(out)
}

/// Reference digests of sweep branches, flown as fig10 flies them: boot,
/// snapshot, resume, `perturb_yaw`, `run_to_completion`, one at a time
/// and without a timing cache.
pub fn sweep_reference(missions: &[Planned]) -> Result<Vec<u64>, String> {
    let mut boots: Vec<(Soc, MissionSnapshot)> = Vec::new();
    let mut digests = Vec::new();
    for p in missions {
        if !boots.iter().any(|b| b.0 == p.soc) {
            let mut boot = Mission::start(&p.config);
            boot.run_syncs(BOOT_SYNCS);
            boots.push((p.soc, boot.snapshot()));
        }
        let snap = &boots.iter().find(|b| b.0 == p.soc).expect("booted above").1;
        let mut branch = snap.resume().map_err(|e| e.to_string())?;
        branch.perturb_yaw(p.branch_yaw_deg.unwrap_or(0.0).to_radians());
        digests.push(check::digest(&branch.run_to_completion()));
    }
    Ok(digests)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_default_mission_has_its_digest_and_a_wrong_reference_fails_it() {
        let mut right = Tally::default();
        check_default_mission(&References::embedded(), &mut right);
        assert_eq!((right.attempted, right.failed), (1, 0), "{:?}", right.notes);
        let wrong =
            References::parse(&format!("{DEFAULT_MISSION_KEY} 0x7b5534557bc6159c")).unwrap();
        let mut failed = Tally::default();
        check_default_mission(&wrong, &mut failed);
        assert_eq!((failed.attempted, failed.failed), (1, 1));
        assert_eq!(failed.failed_frac(), 1.0);
    }

    #[test]
    fn traced_flights_match_untraced_flights_and_the_reference() {
        let refs = References::embedded();
        let cache = SharedTimingCache::in_memory();
        let epoch = Epoch::now();
        let mut layers = Layers::default();
        let missions = plan(Workload::MissionWarm, 5, Some(cache));
        let local = &missions[0];
        let want = refs.get(&local.key).unwrap();
        assert_eq!(check::digest(&run_mission(&local.config)), want);
        assert_eq!(
            check::digest(&fly_local_traced(&local.config, epoch, &mut layers)),
            want
        );
        let leg = missions.last().unwrap();
        assert!(leg.remote);
        let want = refs.get(&leg.key).unwrap();
        assert_eq!(check::digest(&fly_tcp(&leg.config).unwrap()), want);
        assert_eq!(
            check::digest(&fly_tcp_traced(&leg.config, epoch, &mut layers).unwrap()),
            want
        );
        let m = layers.metrics(0.0);
        let get = |name: &str| m.iter().find(|x| x.name == name).unwrap().value;
        assert!(get("transport.msgs") > 0.0 && get("transport.rtt_samples") > 0.0);
        assert!(get("sync.overhead_us") > 0.0 && get("envsim.step_us") > 0.0);
    }
}
