//! Per-layer accounting for the traced run: links the recorded intervals
//! into one span tree per mission (or sweep) and reduces the tree plus
//! the counters the program reports to the per-layer metrics.

use crate::run::Metric;
use crate::spans::{self, Raw, Span};
use rose::MissionReport;
use rose_trace::{LogHistogram, Phase};
use std::collections::BTreeMap;
use std::thread::ThreadId;
use std::time::Duration;

/// Spans of the exchange phase: the synchronizer drains the SoC's queue,
/// hands each payload to the environment and pushes the responses back.
const EXCHANGE_OPS: [&str; 4] = [
    "rtl.drain_tx",
    "rtl.push_data",
    "env.handle_data",
    "env.poll_data",
];

/// The intervals and counters of one endpoint-driven mission.
#[derive(Debug, Default)]
pub struct EndpointMission {
    /// The whole mission, from `MissionConfig` to report.
    pub root: (u64, u64),
    /// The timed program calls directly under the root; one of them is
    /// the `run_until` span the quanta tile.
    pub top: Vec<Raw>,
    /// Environment adapter spans.
    pub env: Vec<Raw>,
    /// Synchronizer-side RTL adapter spans.
    pub rtl: Vec<Raw>,
    /// Spans that happen inside the synchronizer-side grant: the client
    /// transport and, over TCP, everything on the server thread.
    pub nested: Vec<Raw>,
    /// Frames the environment stepped.
    pub frames: u64,
    /// Payloads the synchronizer moved across the bridge.
    pub payloads: u64,
    /// Cost-model wall time of the SoC.
    pub cost_model: Duration,
    /// Grants in which the cost model ran.
    pub cost_model_calls: u64,
    /// Transport messages and bytes on the synchronizer's end.
    pub msgs: u64,
    /// Encoded transport bytes on the synchronizer's end.
    pub bytes: u64,
    /// Grant round trips, ns.
    pub rtts: Vec<u64>,
    /// Transport retries absorbed by the recovery policy.
    pub retries: u64,
    /// Simulated SoC cycles of the mission.
    pub sim_cycles: u64,
    /// Whether the SoC sat behind the TCP link.
    pub remote: bool,
}

/// One work item of a `parallel_map` call.
#[derive(Debug, Clone)]
pub struct PoolItem {
    /// The worker that ran it.
    pub thread: ThreadId,
    /// The item's interval.
    pub raw: Raw,
    /// The program calls made inside it.
    pub calls: Vec<Raw>,
}

/// One `parallel_map` call of a sweep.
#[derive(Debug, Clone)]
pub struct Pool {
    /// The call's interval.
    pub raw: Raw,
    /// Worker threads it was given.
    pub jobs: usize,
    /// Its items.
    pub items: Vec<PoolItem>,
}

/// Busy time and tail of one pool call: `(Σ item time, jobs × wall,
/// wall after the first worker ran out of items)`, in ns.
pub fn pool_stats(pool: &Pool) -> (u64, u64, u64) {
    let busy = pool.items.iter().map(|i| i.raw.end - i.raw.start).sum();
    // When each worker ran out of items.
    let mut last_end: Vec<(ThreadId, u64)> = Vec::new();
    for item in &pool.items {
        match last_end.iter_mut().find(|(t, _)| *t == item.thread) {
            Some((_, end)) => *end = (*end).max(item.raw.end),
            None => last_end.push((item.thread, item.raw.end)),
        }
    }
    // A worker that never got an item was idle from the start.
    let first_idle = if last_end.len() < pool.jobs {
        pool.raw.start
    } else {
        last_end
            .iter()
            .map(|&(_, end)| end)
            .min()
            .unwrap_or(pool.raw.start)
    };
    (
        busy,
        pool.jobs as u64 * (pool.raw.end - pool.raw.start),
        pool.raw.end.saturating_sub(first_idle),
    )
}

/// Index of the interval in `starts` (sorted) that `t` falls in.
fn slot(starts: &[u64], t: u64) -> Option<usize> {
    starts.partition_point(|&s| s <= t).checked_sub(1)
}

/// Everything the traced run accumulates.
#[derive(Debug, Default)]
pub struct Layers {
    /// The span tree of every traced mission and sweep.
    pub spans: Vec<Span>,
    /// Traced missions (sweep-cold: branches).
    pub missions: u64,
    next_id: u32,
    quantum_us: Vec<f64>,
    quanta: u64,
    frames: u64,
    payloads: u64,
    sim_cycles: u64,
    /// Cost-model time the endpoint adapters drained.
    cost_model_ns: u64,
    cost_model_calls: u64,
    /// From the reports of missions without endpoints (sweep-cold).
    report_quantum_hist: LogHistogram,
    report_exchange_ns: u64,
    report_env_ns: u64,
    report_grant_ns: u64,
    report_cost_model_ns: u64,
    report_overhead_ns: i128,
    /// Timing cache.
    pub cache_hits: u64,
    /// Timing-cache misses.
    pub cache_misses: u64,
    /// Entries at the end of the run.
    pub cache_entries: u64,
    /// Size of the cache file at the end of the run.
    pub cache_file_bytes: u64,
    cache_load_ns: Vec<u64>,
    cache_persist_ns: Vec<u64>,
    snapshot_bytes: Vec<u64>,
    /// Missions flown over TCP; the transport metrics are per such mission.
    remote_missions: u64,
    msgs: u64,
    bytes: u64,
    rtt_us: Vec<f64>,
    retries: u64,
    pool_busy_ns: u64,
    pool_capacity_ns: u64,
    pool_tail_ns: u64,
    sweeps: u64,
    /// Host time of the traced flights.
    pub traced: Duration,
    /// Host time of the same flights untraced.
    pub untraced: Duration,
}

impl Layers {
    fn push(&mut self, raw: Raw, parent: Option<usize>, mission: u32) -> usize {
        self.spans.push(Span {
            name: raw.name,
            start: raw.start,
            end: raw.end,
            parent,
            mission,
        });
        self.spans.len() - 1
    }

    /// Records a timing-cache load outside any mission.
    pub fn cache_load(&mut self, raw: Raw) {
        self.cache_load_ns.push(raw.end - raw.start);
    }

    /// Records a timing-cache persist outside any mission.
    pub fn cache_persist(&mut self, raw: Raw) {
        self.cache_persist_ns.push(raw.end - raw.start);
    }

    /// Links one endpoint-driven mission into the tree.
    ///
    /// A quantum is synthesized from the synchronizer's side: quantum `k`
    /// runs from the `k`-th `rtl.drain_tx` (the first call of every
    /// `step_sync`) to the next one, the last to the end of `run_until`.
    /// Its exchange child runs from that drain to the end of the last
    /// exchange call in the quantum. The quantum's self time — what no
    /// exchange, environment step or grant covers — is the
    /// synchronizer's own overhead (thread spawn and join, bookkeeping).
    pub fn add_endpoint_mission(&mut self, m: EndpointMission) {
        let id = self.next_id;
        self.next_id += 1;
        self.missions += 1;
        let root = self.push(
            Raw {
                name: "mission",
                start: m.root.0,
                end: m.root.1,
            },
            None,
            id,
        );
        let mut run = None;
        for raw in &m.top {
            let idx = self.push(*raw, Some(root), id);
            if raw.name == "run_until" {
                run = Some((idx, raw.end));
            }
        }
        let (run_idx, run_end) = run.expect("every mission times its run_until call");

        let starts: Vec<u64> = m
            .rtl
            .iter()
            .filter(|r| r.name == "rtl.drain_tx")
            .map(|r| r.start)
            .collect();
        let mut exchange_end = starts.clone();
        let all = m.env.iter().chain(&m.rtl);
        for raw in all.clone().filter(|r| EXCHANGE_OPS.contains(&r.name)) {
            if let Some(k) = slot(&starts, raw.start) {
                exchange_end[k] = exchange_end[k].max(raw.end);
            }
        }
        let first_quantum = self.spans.len();
        for (k, &start) in starts.iter().enumerate() {
            let end = starts.get(k + 1).copied().unwrap_or(run_end).max(start);
            self.push(
                Raw {
                    name: "quantum",
                    start,
                    end,
                },
                Some(run_idx),
                id,
            );
            self.quantum_us.push((end - start) as f64 / 1e3);
        }
        let first_exchange = self.spans.len();
        for (k, &start) in starts.iter().enumerate() {
            self.push(
                Raw {
                    name: "exchange",
                    start,
                    end: exchange_end[k],
                },
                Some(first_quantum + k),
                id,
            );
        }
        let mut grants: Vec<(u64, u64, usize)> = Vec::new();
        for raw in all {
            let Some(k) = slot(&starts, raw.start) else {
                self.push(*raw, Some(run_idx), id);
                continue;
            };
            let parent = if EXCHANGE_OPS.contains(&raw.name) {
                first_exchange + k
            } else {
                first_quantum + k
            };
            let idx = self.push(*raw, Some(parent), id);
            if raw.name.ends_with("grant_and_run") {
                grants.push((raw.start, raw.end, idx));
            }
        }
        grants.sort_unstable();
        let grant_starts: Vec<u64> = grants.iter().map(|g| g.0).collect();
        for raw in &m.nested {
            let parent = match slot(&grant_starts, raw.start) {
                Some(g) if raw.start < grants[g].1 => grants[g].2,
                _ => root,
            };
            self.push(*raw, Some(parent), id);
        }

        self.quanta += starts.len() as u64;
        self.frames += m.frames;
        self.payloads += m.payloads;
        self.cost_model_ns += m.cost_model.as_nanos() as u64;
        self.cost_model_calls += m.cost_model_calls;
        self.msgs += m.msgs;
        self.bytes += m.bytes;
        self.rtt_us.extend(m.rtts.iter().map(|&ns| ns as f64 / 1e3));
        self.retries += m.retries;
        self.sim_cycles += m.sim_cycles;
        self.remote_missions += u64::from(m.remote);
    }

    /// Adds the split a mission without endpoints reports about itself
    /// (sweep-cold boots and branches): the synchronizer's profiler
    /// phases, its quantum histogram and its counters. Counts cover the
    /// whole simulated mission, the boot prefix included; host times
    /// cover only the work done since the mission was built or resumed.
    pub fn add_report(&mut self, report: &MissionReport, branch: bool) {
        let p = &report.profile;
        let ns = |phase| p.total(phase).as_nanos() as u64;
        self.report_exchange_ns += ns(Phase::Transport);
        self.report_env_ns += ns(Phase::EnvStep);
        self.report_grant_ns += ns(Phase::RtlGrant);
        self.report_cost_model_ns += ns(Phase::CostModel);
        self.cost_model_calls += p.count(Phase::CostModel);
        self.report_overhead_ns +=
            report.sync_stats.wall.as_nanos() as i128 - p.total_wall().as_nanos() as i128;
        self.report_quantum_hist
            .merge(&report.sync_telemetry.quantum_wall_us);
        self.quanta += p.count(Phase::EnvStep);
        if branch {
            let s = &report.sync_stats;
            self.frames += s.sim_frames;
            self.payloads += s.data_to_env + s.data_to_rtl;
            self.sim_cycles += report.soc_stats.cycles;
        }
    }

    /// Links one sweep into the tree: the sweep root, its cache load and
    /// persist, its two pool calls, their items and the program calls in
    /// each item.
    pub fn add_sweep(&mut self, root: (u64, u64), top: &[Raw], pools: &[Pool], branches: u64) {
        let id = self.next_id;
        self.next_id += 1;
        self.sweeps += 1;
        self.missions += branches;
        let root = self.push(
            Raw {
                name: "sweep",
                start: root.0,
                end: root.1,
            },
            None,
            id,
        );
        for raw in top {
            self.push(*raw, Some(root), id);
        }
        for pool in pools {
            let p = self.push(pool.raw, Some(root), id);
            for item in &pool.items {
                let i = self.push(item.raw, Some(p), id);
                for call in &item.calls {
                    self.push(*call, Some(i), id);
                }
            }
            let (busy, capacity, tail) = pool_stats(pool);
            self.pool_busy_ns += busy;
            self.pool_capacity_ns += capacity;
            self.pool_tail_ns += tail;
        }
    }

    /// Records the size of one snapshot.
    pub fn snapshot(&mut self, bytes: usize) {
        self.snapshot_bytes.push(bytes as u64);
    }

    /// Reduces everything to the per-layer metrics.
    pub fn metrics(&self, failed_frac: f64) -> Vec<Metric> {
        let selfs = spans::self_times(&self.spans);
        let mut dur: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        let mut own: BTreeMap<&str, u64> = BTreeMap::new();
        for (s, &o) in self.spans.iter().zip(&selfs) {
            let e = dur.entry(s.name).or_insert((0, 0));
            e.0 += s.dur();
            e.1 += 1;
            *own.entry(s.name).or_insert(0) += o;
        }
        let total = |name: &str| dur.get(name).map_or(0, |d| d.0) as f64;
        let calls = |name: &str| dur.get(name).map_or(0, |d| d.1);
        let per_call = |names: &[&str]| {
            let n: u64 = names.iter().map(|n| calls(n)).sum();
            let t: f64 = names.iter().map(|n| total(n)).sum();
            if n == 0 {
                0.0
            } else {
                t / n as f64
            }
        };
        let missions = self.missions.max(1) as f64;
        let tcp_missions = self.remote_missions.max(1) as f64;
        let per_mission_us = |ns: f64| ns / 1e3 / missions;
        let mean_ns = |v: &[u64]| {
            if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<u64>() as f64 / v.len() as f64
            }
        };

        let (q50, q99, qn) = if self.quantum_us.is_empty() {
            let h = &self.report_quantum_hist;
            (
                h.p50().unwrap_or(0.0),
                h.p99().unwrap_or(0.0),
                h.count() as f64,
            )
        } else {
            let p = spans::percentiles(&mut self.quantum_us.clone());
            (p.p50, p.p99, p.samples as f64)
        };
        let rtt = spans::percentiles(&mut self.rtt_us.clone());
        let lookups = self.cache_hits + self.cache_misses;
        let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };

        let m = |name, unit, value: f64| Metric { name, unit, value };
        vec![
            m(
                "sync.quanta",
                "count/mission",
                self.quanta as f64 / missions,
            ),
            m("sync.quantum_us_p50", "us", q50),
            m("sync.quantum_us_p99", "us", q99),
            m("sync.quantum_samples", "count", qn),
            m(
                "sync.overhead_us",
                "us/mission",
                per_mission_us(
                    own.get("quantum").copied().unwrap_or(0) as f64
                        + self.report_overhead_ns as f64,
                ),
            ),
            m(
                "sync.exchange_us",
                "us/mission",
                per_mission_us(total("exchange") + self.report_exchange_ns as f64),
            ),
            m(
                "bridge.payloads",
                "count/mission",
                self.payloads as f64 / missions,
            ),
            m(
                "envsim.step_us",
                "us/mission",
                per_mission_us(total("env.step_frames") + self.report_env_ns as f64),
            ),
            m(
                "envsim.frames",
                "count/mission",
                self.frames as f64 / missions,
            ),
            m(
                "envsim.handle_data_us",
                "us/mission",
                per_mission_us(total("env.handle_data")),
            ),
            m(
                "socsim.grant_us",
                "us/mission",
                // The endpoint grant spans contain the cost model; the
                // profiler's grant phase already excludes it.
                per_mission_us(
                    total("soc.grant_and_run") - self.cost_model_ns as f64
                        + self.report_grant_ns as f64,
                ),
            ),
            m(
                "socsim.cost_model_us",
                "us/mission",
                per_mission_us((self.cost_model_ns + self.report_cost_model_ns) as f64),
            ),
            m(
                "socsim.cost_model_calls",
                "count/mission",
                self.cost_model_calls as f64 / missions,
            ),
            m(
                "socsim.sim_cycles",
                "count/mission",
                self.sim_cycles as f64 / missions,
            ),
            m(
                "cache.hits",
                "count/mission",
                self.cache_hits as f64 / missions,
            ),
            m(
                "cache.misses",
                "count/mission",
                self.cache_misses as f64 / missions,
            ),
            m(
                "cache.hit_ratio",
                "ratio",
                ratio(self.cache_hits as f64, lookups as f64),
            ),
            m("cache.entries", "count", self.cache_entries as f64),
            m(
                "cache.load_ms",
                "ms/call",
                mean_ns(&self.cache_load_ns) / 1e6,
            ),
            m(
                "cache.persist_ms",
                "ms/call",
                mean_ns(&self.cache_persist_ns) / 1e6,
            ),
            m(
                "cache.file_mb",
                "MiB",
                self.cache_file_bytes as f64 / (1 << 20) as f64,
            ),
            m(
                "rose.build_ms",
                "ms/mission",
                (total("mission_parts") + total("Mission::start")) / 1e6 / missions,
            ),
            m(
                "rose.report_ms",
                "ms/mission",
                (total("finish_report") + total("Mission::finish")) / 1e6 / missions,
            ),
            m(
                "snapshot.encode_us",
                "us/call",
                per_call(&["Mission::snapshot"]) / 1e3,
            ),
            m(
                "snapshot.resume_us",
                "us/call",
                per_call(&["MissionSnapshot::resume"]) / 1e3,
            ),
            m(
                "snapshot.bytes",
                "bytes/call",
                mean_ns(&self.snapshot_bytes),
            ),
            m(
                "transport.send_us",
                "us/tcpmission",
                total("transport.send") / 1e3 / tcp_missions,
            ),
            m(
                "transport.recv_wait_us",
                "us/tcpmission",
                total("transport.recv") / 1e3 / tcp_missions,
            ),
            m(
                "transport.msgs",
                "count/tcpmission",
                self.msgs as f64 / tcp_missions,
            ),
            m(
                "transport.bytes",
                "bytes/tcpmission",
                self.bytes as f64 / tcp_missions,
            ),
            m("transport.rtt_us_p50", "us", rtt.p50),
            m("transport.rtt_us_p99", "us", rtt.p99),
            m("transport.rtt_samples", "count", rtt.samples as f64),
            m(
                "transport.retries",
                "count/tcpmission",
                self.retries as f64 / tcp_missions,
            ),
            m(
                "pool.busy_share",
                "ratio",
                ratio(self.pool_busy_ns as f64, self.pool_capacity_ns as f64),
            ),
            m(
                "pool.tail_ms",
                "ms/sweep",
                ratio(self.pool_tail_ns as f64 / 1e6, self.sweeps as f64),
            ),
            m(
                "trace.overhead_share",
                "ratio",
                ratio(
                    self.traced.as_secs_f64() - self.untraced.as_secs_f64(),
                    self.untraced.as_secs_f64(),
                ),
            ),
            m(
                "unattributed_share",
                "ratio",
                spans::unattributed_share(&self.spans),
            ),
            m("failed_frac", "ratio", failed_frac),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(name: &'static str, start: u64, end: u64) -> Raw {
        Raw { name, start, end }
    }

    #[test]
    fn quanta_tile_the_run_and_their_self_time_is_the_overhead() {
        let mut layers = Layers::default();
        layers.add_endpoint_mission(EndpointMission {
            root: (0, 100),
            top: vec![
                raw("mission_parts", 0, 8),
                raw("run_until", 10, 90),
                raw("finish_report", 92, 99),
            ],
            env: vec![
                raw("env.handle_data", 11, 13),
                raw("env.step_frames", 15, 45),
                raw("env.step_frames", 55, 70),
            ],
            rtl: vec![
                raw("rtl.drain_tx", 10, 11),
                raw("soc.grant_and_run", 20, 50),
                raw("rtl.drain_tx", 50, 51),
                raw("soc.grant_and_run", 60, 80),
            ],
            ..EndpointMission::default()
        });
        let quanta: Vec<(u64, u64)> = layers
            .spans
            .iter()
            .filter(|s| s.name == "quantum")
            .map(|s| (s.start, s.end))
            .collect();
        assert_eq!(quanta, vec![(10, 50), (50, 90)]);
        let exchanges: Vec<(u64, u64)> = layers
            .spans
            .iter()
            .filter(|s| s.name == "exchange")
            .map(|s| (s.start, s.end))
            .collect();
        assert_eq!(exchanges, vec![(10, 13), (50, 51)]);
        let selfs = spans::self_times(&layers.spans);
        let overhead: u64 = layers
            .spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.name == "quantum")
            .map(|(_, o)| o)
            .sum();
        // (40 − |[10,13] ∪ [15,45] ∪ [20,50]|) + (40 − |[50,51] ∪ [55,70] ∪ [60,80]|)
        assert_eq!(overhead, (40 - 38) + (40 - 26));
        let m = layers.metrics(0.0);
        let get = |name: &str| m.iter().find(|x| x.name == name).unwrap().value;
        assert_eq!(get("sync.quanta"), 2.0);
        assert!((get("sync.overhead_us") - 16e-3).abs() < 1e-12);
        // Root 100 ns; children cover 8 + 80 + 7.
        assert!((get("unattributed_share") - 0.05).abs() < 1e-12);
    }

    #[test]
    fn pool_tail_starts_when_the_first_worker_runs_dry() {
        let (a, b) = (
            std::thread::current().id(),
            std::thread::spawn(|| std::thread::current().id())
                .join()
                .unwrap(),
        );
        let item = |thread, start, end| PoolItem {
            thread,
            raw: raw("branch", start, end),
            calls: Vec::new(),
        };
        let pool = Pool {
            raw: raw("pool.branches", 0, 100),
            jobs: 2,
            items: vec![item(a, 0, 60), item(b, 0, 30), item(b, 30, 100)],
        };
        assert_eq!(pool_stats(&pool), (160, 200, 40));
        // One item on two workers: the second worker idles from the start.
        let lone = Pool {
            raw: raw("pool.boots", 0, 50),
            jobs: 2,
            items: vec![item(a, 0, 50)],
        };
        assert_eq!(pool_stats(&lone), (50, 100, 50));
    }
}
