//! Seeded workload generation.
//!
//! The workload seed only *selects* missions: every mission a run can fly
//! is drawn from a fixed pool per SoC configuration, and the pools'
//! reference digests were recorded once (`perfbench/reference.txt`), so
//! any seed's missions can be checked against a recorded reference. The
//! held-out seed draws from pools of its own, disjoint from the pools
//! every other seed draws from, so a gain confirmed on it is confirmed on
//! missions no tuning run flew.

use rose::mission::MissionConfig;
use rose_socsim::{SharedTimingCache, SocConfig};

/// The seed runs use when none is given.
pub const DEFAULT_SEED: u64 = 1;
/// A seed kept out of tuning, for confirming a claimed gain.
pub const HELD_OUT_SEED: u64 = 7919;

/// Seed of the mission pools of every seed but [`HELD_OUT_SEED`].
const POOL_SEED: u64 = 0x524f_5345_b0e1;
/// Pool variants per SoC configuration and workload.
pub const POOL_SIZE: usize = 15;

/// Simulated-time budget of a full tunnel mission.
pub const MISSION_BUDGET_S: f64 = 45.0;
/// Simulated seconds of mission-warm's TCP leg: the length of the
/// repository's TCP-deployment equivalence test.
pub const TCP_LEG_S: f64 = 4.0;

/// Branches one sweep forks: three per configuration, as in fig10.
pub const SWEEP_BRANCHES: usize = 9;

/// Synchronizations each sweep-cold boot runs before it is snapshotted
/// (fig10's warm-start prefix).
pub const BOOT_SYNCS: u64 = 15;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Sequential full tunnel missions against a warm timing cache.
    MissionWarm,
    /// fig10's boot-snapshot-fork sweep from an empty timing cache.
    SweepCold,
}

/// Pool tag of mission-warm's TCP legs (after the workloads' own tags).
const TCP_LEG_TAG: u64 = 2;

impl Workload {
    /// Every workload, in reporting order.
    pub const ALL: [Workload; 2] = [Workload::MissionWarm, Workload::SweepCold];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::MissionWarm => "mission-warm",
            Workload::SweepCold => "sweep-cold",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The three SoC configurations of the paper's Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Soc {
    /// BOOM + Gemmini.
    A,
    /// Rocket + Gemmini.
    B,
    /// Rocket, no accelerator.
    C,
}

impl Soc {
    /// Every configuration.
    pub const ALL: [Soc; 3] = [Soc::A, Soc::B, Soc::C];

    /// The configuration's letter.
    pub fn letter(self) -> char {
        match self {
            Soc::A => 'A',
            Soc::B => 'B',
            Soc::C => 'C',
        }
    }

    /// The simulated SoC.
    pub fn config(self) -> SocConfig {
        match self {
            Soc::A => SocConfig::config_a(),
            Soc::B => SocConfig::config_b(),
            Soc::C => SocConfig::config_c(),
        }
    }
}

/// SplitMix64: a small, fixed generator, so the plans depend on nothing
/// outside this file.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator seeded with `seed`.
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `k` distinct values of `0..n`, in draw order (partial Fisher–Yates).
    pub fn choose(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut all: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = i + self.below(n - i);
            all.swap(i, j);
        }
        all.truncate(k);
        all
    }
}

/// One pool entry: a mission seed and an angle, both drawn from the pool
/// seed. For sweep-cold the angle is the branch's yaw perturbation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Variant {
    /// The SoC configuration.
    pub soc: Soc,
    /// The mission's seed.
    pub seed: u64,
    /// Degrees, within ±20° in steps of 0.01°.
    pub yaw_deg: f64,
}

/// The seed of the pools a run with workload seed `seed` draws from.
fn pool_seed(seed: u64) -> u64 {
    if seed == HELD_OUT_SEED {
        HELD_OUT_SEED
    } else {
        POOL_SEED
    }
}

/// The pool of `soc` under `tag` (a workload, or [`TCP_LEG_TAG`]) for
/// runs with workload seed `seed`.
fn pool(tag: u64, soc: Soc, seed: u64) -> Vec<Variant> {
    let tag = tag << 8 | soc as u64;
    let mut rng = Rng::new(pool_seed(seed) ^ tag.wrapping_mul(0x0100_0000_01b3));
    (0..POOL_SIZE)
        .map(|_| Variant {
            soc,
            seed: rng.next_u64(),
            yaw_deg: (rng.below(4001) as f64 - 2000.0) / 100.0,
        })
        .collect()
}

/// How many pool entries a run draws per configuration, and which
/// configurations the workload flies. A run draws most of each pool, so
/// runs with different seeds fly similar mixes: the configuration-C
/// missions, whose crashes make their length vary from 12 to 45 sim-s,
/// would otherwise move the figures with the seed.
fn shape(workload: Workload) -> (&'static [Soc], usize) {
    match workload {
        Workload::MissionWarm => (&Soc::ALL, 12),
        // The whole pool in five sweeps of three branches per
        // configuration: the seed decides which branches share a sweep
        // and their order. The config-C branches set each sweep's length
        // as stragglers, so a partial draw moved the figures by ~10%.
        Workload::SweepCold => (&Soc::ALL, POOL_SIZE),
    }
}

/// One planned mission. For sweep-cold, `config` is the boot's
/// configuration and `branch_yaw_deg` the yaw applied to the branch
/// resumed from the boot's snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct Planned {
    /// Reference key (see [`reference_key`]).
    pub key: String,
    /// The SoC configuration.
    pub soc: Soc,
    /// The configuration handed to the program.
    pub config: MissionConfig,
    /// Sweep-cold only: the branch's yaw perturbation in degrees.
    pub branch_yaw_deg: Option<f64>,
    /// Flown with the SoC behind loopback TCP on a server thread.
    pub remote: bool,
}

/// The reference key of a pool entry.
fn reference_key(workload: Workload, v: &Variant) -> String {
    match workload {
        Workload::SweepCold => format!(
            "{} {} yaw={:+.2}",
            workload.name(),
            v.soc.letter(),
            v.yaw_deg
        ),
        Workload::MissionWarm => format!(
            "{} {} seed={:016x} yaw={:+.2}",
            workload.name(),
            v.soc.letter(),
            v.seed,
            v.yaw_deg
        ),
    }
}

/// The mission configuration of a pool entry. Every setting not named
/// here keeps the program's default, `sync_mode` included.
pub fn config_of(
    workload: Workload,
    v: &Variant,
    cache: Option<SharedTimingCache>,
) -> MissionConfig {
    let base = MissionConfig {
        soc: v.soc.config(),
        max_sim_seconds: MISSION_BUDGET_S,
        timing_cache: cache,
        ..MissionConfig::default()
    };
    match workload {
        // fig10's boot: the default seed and heading; branches diverge
        // through `Mission::perturb_yaw`.
        Workload::SweepCold => base,
        Workload::MissionWarm => MissionConfig {
            seed: v.seed,
            initial_yaw_deg: v.yaw_deg,
            ..base
        },
    }
}

/// A planned mission for a pool entry.
pub fn planned(workload: Workload, v: &Variant, cache: Option<SharedTimingCache>) -> Planned {
    Planned {
        key: reference_key(workload, v),
        soc: v.soc,
        config: config_of(workload, v, cache),
        branch_yaw_deg: (workload == Workload::SweepCold).then_some(v.yaw_deg),
        remote: false,
    }
}

/// Mission-warm's TCP leg for a pool entry: a tunnel mission on config A
/// at 100 fps and 1 frame/sync (the fine end of Fig. 15), with the SoC
/// behind loopback TCP, cut to [`TCP_LEG_S`] so the transport layer is
/// measured on a workload whose figures it barely moves.
fn tcp_leg(v: &Variant, cache: Option<SharedTimingCache>) -> Planned {
    let local = planned(Workload::MissionWarm, v, cache);
    Planned {
        key: local.key.replacen("mission-warm", "mission-warm-tcp", 1),
        config: MissionConfig {
            frame_hz: 100,
            frames_per_sync: 1,
            max_sim_seconds: TCP_LEG_S,
            ..local.config
        },
        remote: true,
        ..local
    }
}

/// The missions a run of `workload` flies for `seed`, in flight order:
/// configurations interleave (A, B, C, A, ...), each drawing distinct
/// pool entries; mission-warm ends with one TCP leg. Missions carry
/// `cache` as their timing cache.
pub fn plan(workload: Workload, seed: u64, cache: Option<SharedTimingCache>) -> Vec<Planned> {
    let (socs, per_soc) = shape(workload);
    let mut rng = Rng::new(seed ^ (workload as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let picks: Vec<Vec<Variant>> = socs
        .iter()
        .map(|&soc| {
            let pool = pool(workload as u64, soc, seed);
            rng.choose(pool.len(), per_soc)
                .into_iter()
                .map(|i| pool[i])
                .collect()
        })
        .collect();
    let mut missions: Vec<Planned> = (0..per_soc)
        .flat_map(|i| picks.iter().map(move |p| p[i]))
        .map(|v| planned(workload, &v, cache.clone()))
        .collect();
    if workload == Workload::MissionWarm {
        let legs = pool(TCP_LEG_TAG, Soc::A, seed);
        missions.push(tcp_leg(&legs[rng.below(legs.len())], cache));
    }
    missions
}

/// Every pool entry a run of `workload` with workload seed `seed` can
/// draw, for recording references.
pub fn full_pool(workload: Workload, seed: u64) -> Vec<Planned> {
    let (socs, _) = shape(workload);
    let mut missions: Vec<Planned> = socs
        .iter()
        .flat_map(|&soc| pool(workload as u64, soc, seed))
        .map(|v| planned(workload, &v, None))
        .collect();
    if workload == Workload::MissionWarm {
        missions.extend(
            pool(TCP_LEG_TAG, Soc::A, seed)
                .iter()
                .map(|v| tcp_leg(v, None)),
        );
    }
    missions
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_same_missions() {
        for w in Workload::ALL {
            assert_eq!(plan(w, DEFAULT_SEED, None), plan(w, DEFAULT_SEED, None));
            assert_eq!(plan(w, HELD_OUT_SEED, None), plan(w, HELD_OUT_SEED, None));
        }
    }

    #[test]
    fn different_seeds_give_different_missions() {
        for w in Workload::ALL {
            assert_ne!(
                plan(w, DEFAULT_SEED, None),
                plan(w, HELD_OUT_SEED, None),
                "{}",
                w.name()
            );
            assert_ne!(plan(w, 2, None), plan(w, 3, None), "{}", w.name());
        }
    }

    #[test]
    fn plans_draw_distinct_pool_entries_within_bounds() {
        for w in Workload::ALL {
            let (socs, per_soc) = shape(w);
            let missions = plan(w, 42, None);
            let legs = usize::from(w == Workload::MissionWarm);
            assert_eq!(missions.len(), socs.len() * per_soc + legs);
            assert_eq!(missions.iter().filter(|m| m.remote).count(), legs);
            let mut keys: Vec<&str> = missions.iter().map(|m| m.key.as_str()).collect();
            keys.sort_unstable();
            keys.dedup();
            assert_eq!(
                keys.len(),
                missions.len(),
                "{}: repeated pool entry",
                w.name()
            );
            let pool_keys: Vec<String> = full_pool(w, 42).into_iter().map(|p| p.key).collect();
            for m in &missions {
                assert!(pool_keys.contains(&m.key));
                let yaw = m.branch_yaw_deg.unwrap_or(m.config.initial_yaw_deg);
                assert!((-20.0..=20.0).contains(&yaw));
            }
        }
    }

    #[test]
    fn the_held_out_seed_flies_missions_no_other_seed_flies() {
        for w in Workload::ALL {
            let keys = |seed| -> Vec<String> {
                full_pool(w, seed).into_iter().map(|p| p.key).collect()
            };
            let (tuning, held_out) = (keys(DEFAULT_SEED), keys(HELD_OUT_SEED));
            assert_eq!(tuning, keys(2), "{}: seeds share one pool", w.name());
            for key in &held_out {
                assert!(!tuning.contains(key), "{}: {key} in both pools", w.name());
            }
        }
    }

    #[test]
    fn settings_the_benchmark_does_not_name_keep_program_defaults() {
        let m = &plan(Workload::MissionWarm, DEFAULT_SEED, None)[0].config;
        let d = MissionConfig::default();
        assert_eq!(m.sync_mode, d.sync_mode);
        assert_eq!(m.frame_hz, d.frame_hz);
        assert_eq!(m.controller, d.controller);
        assert_eq!(m.velocity, d.velocity);
    }
}
