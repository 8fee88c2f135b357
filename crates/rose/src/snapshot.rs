//! Mission snapshot, fork, and resume (DESIGN.md §4e).
//!
//! A [`MissionSnapshot`] is a compact, versioned, dependency-free
//! serialization of the **entire** co-simulation state at a quantum
//! boundary: the environment (UAV pose, dynamics integrator, sensor RNG
//! streams), the SoC (CPU/cache/accelerator counters, cost caches, the
//! in-flight program position), the bridge queues, the synchronizer
//! position, and every component's trace prefix. Resuming a snapshot and
//! running to completion produces a [`crate::audit::MissionDigest`]
//! **bit-identical** to the straight run, which is the correctness gate
//! the determinism auditor enforces.
//!
//! # Format
//!
//! ```text
//! section "ROSE" | u16 version | MissionConfig | CoSimEnv | SocRtl | Synchronizer
//! ```
//!
//! The snapshot embeds its [`MissionConfig`], so it is self-contained:
//! resume rebuilds the mission *structure* (boxed programs, worlds,
//! autopilots, interned labels) from the config exactly as
//! [`build_mission`] does, then overlays the dynamic state field by
//! field. Structural state never travels in the byte stream — only
//! state that changes as the mission runs.
//!
//! # Warm-starting sweeps
//!
//! The expensive prefix of every mission is identical within one SoC
//! configuration: boot, first frames, cache and cost-model warm-up. A
//! sweep (e.g. the Figure 10 trajectory study) can run that prefix
//! *once*, [`Mission::snapshot`] it, and [`Mission::fork`] one branch
//! per sweep point, perturbing each branch (initial yaw, gains) before
//! running it to completion.

use crate::mission::{build_mission, Mission, MissionConfig};
use rose_sim_core::snap::{SnapError, SnapReader, SnapWriter};

impl Mission {
    /// Serializes the complete co-simulation state. Valid at any quantum
    /// boundary (between [`run_syncs`](Mission::run_syncs) calls).
    pub fn snapshot(&self) -> MissionSnapshot {
        let mut w = SnapWriter::new();
        w.section(MissionSnapshot::MAGIC);
        w.u16(MissionSnapshot::VERSION);
        self.config().save_state(&mut w);
        self.sync.env().save_state(&mut w);
        self.sync.rtl().save_state(&mut w);
        self.sync.save_state(&mut w);
        MissionSnapshot {
            bytes: w.into_bytes(),
        }
    }

    /// Clones the running mission into `n` independent branches, each
    /// resumed from the same snapshot of `self`. The branches share no
    /// state; diverge them with [`perturb_yaw`](Mission::perturb_yaw) or
    /// by reconfiguring before running.
    ///
    /// # Errors
    ///
    /// Propagates [`SnapError`] if the snapshot fails to round-trip —
    /// which would indicate a save/restore asymmetry bug.
    pub fn fork(&self, n: usize) -> Result<Vec<Mission>, SnapError> {
        let snap = self.snapshot();
        (0..n).map(|_| snap.resume()).collect()
    }
}

/// A serialized mission: the byte-level snapshot format. See the module
/// docs for the layout.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MissionSnapshot {
    bytes: Vec<u8>,
}

impl MissionSnapshot {
    /// Leading section magic: `"ROSE"` in big-endian byte order.
    pub const MAGIC: u32 = 0x524f_5345;
    /// Newest format version this build reads and writes. Version 2 added
    /// [`MissionConfig::deadline_budget_s`] and the app's cumulative
    /// deadline-miss counter to the embedded config/metrics codecs.
    /// Version 3 added the robustness state: sensor-degradation schedules
    /// and the recovery policy in the config codec, the environment's
    /// bias-step cursor, and the app's degradation-ladder state.
    pub const VERSION: u16 = 3;

    /// The raw snapshot bytes (e.g. for writing to a checkpoint file).
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Takes ownership of the raw bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Wraps bytes read back from a checkpoint file. Validation is
    /// deferred to [`resume`](MissionSnapshot::resume) /
    /// [`config`](MissionSnapshot::config), which fail with a
    /// [`SnapError`] on a corrupt or foreign buffer.
    pub fn from_bytes(bytes: Vec<u8>) -> MissionSnapshot {
        MissionSnapshot { bytes }
    }

    /// Decodes just the embedded [`MissionConfig`] (header + config
    /// prefix), without rebuilding the mission.
    ///
    /// # Errors
    ///
    /// [`SnapError`] on a corrupt header or config.
    pub fn config(&self) -> Result<MissionConfig, SnapError> {
        let mut r = SnapReader::new(&self.bytes);
        Self::read_header(&mut r)?;
        MissionConfig::restore_state(&mut r)
    }

    /// Rebuilds the mission: constructs the structure from the embedded
    /// config, then overlays every component's dynamic state. The
    /// returned [`Mission`] continues bit-identically to the mission the
    /// snapshot was taken from.
    ///
    /// # Errors
    ///
    /// [`SnapError`] on a corrupt, truncated, version-mismatched, or
    /// trailing-byte-carrying buffer.
    pub fn resume(&self) -> Result<Mission, SnapError> {
        let mut r = SnapReader::new(&self.bytes);
        Self::read_header(&mut r)?;
        let config = MissionConfig::restore_state(&mut r)?;
        let (mut sync, metrics) = build_mission(&config);
        sync.env_mut().restore_state(&mut r)?;
        sync.rtl_mut().restore_state(&mut r)?;
        sync.restore_state(&mut r)?;
        r.finish()?;
        Ok(Mission::new(config, sync, metrics))
    }

    fn read_header(r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        r.section(Self::MAGIC)?;
        let version = r.u16()?;
        if version != Self::VERSION {
            return Err(SnapError::BadVersion {
                supported: Self::VERSION as u32,
                found: version as u32,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::MissionDigest;
    use crate::mission::run_mission;
    use crate::mission::SyncMode;

    fn short() -> MissionConfig {
        MissionConfig {
            max_sim_seconds: 2.0,
            trace: true,
            ..MissionConfig::default()
        }
    }

    fn digest_of_resumed(config: &MissionConfig, snapshot_at_syncs: u64) -> MissionDigest {
        let mut mission = Mission::start(config);
        mission.run_syncs(snapshot_at_syncs);
        let snap = mission.snapshot();
        let resumed = snap.resume().expect("snapshot must resume");
        MissionDigest::of(&resumed.run_to_completion())
    }

    #[test]
    fn resume_is_bit_identical() {
        let config = short();
        let straight = MissionDigest::of(&run_mission(&config));
        for boundary in [0, 1, 17, 60] {
            assert_eq!(
                digest_of_resumed(&config, boundary),
                straight,
                "divergence after snapshot at sync {boundary}"
            );
        }
    }

    /// Snapshots from before the executors were merged carry a
    /// `sync_mode` byte of `Parallel`, their default. They still decode,
    /// and resume to the straight run's digest: the mode is ignored.
    #[test]
    fn parallel_mode_snapshot_resumes_to_the_straight_digest() {
        let legacy = MissionConfig {
            sync_mode: SyncMode::Parallel,
            ..short()
        };
        let mut mission = Mission::start(&legacy);
        mission.run_syncs(17);
        let snap = mission.snapshot();
        let decoded = snap.config().expect("config decodes");
        assert_eq!(decoded.sync_mode, SyncMode::Parallel);
        let resumed = snap.resume().expect("snapshot must resume");
        assert_eq!(
            MissionDigest::of(&resumed.run_to_completion()),
            MissionDigest::of(&run_mission(&short()))
        );
    }

    #[test]
    fn snapshot_roundtrips_byte_identically() {
        let config = short();
        let mut mission = Mission::start(&config);
        mission.run_syncs(25);
        let first = mission.snapshot();
        let resumed = first.resume().expect("resume");
        let second = resumed.snapshot();
        assert_eq!(
            first.bytes(),
            second.bytes(),
            "serialize → deserialize → serialize must be byte-identical"
        );
    }

    #[test]
    fn snapshot_config_decodes_without_resume() {
        let config = short();
        let mission = Mission::start(&config);
        let snap = mission.snapshot();
        assert_eq!(snap.config().expect("config decodes"), config);
    }

    #[test]
    fn forked_branches_run_independently() {
        let config = short();
        let mut mission = Mission::start(&config);
        mission.run_syncs(20);
        let branches = mission.fork(2).expect("fork");
        let mut digests = Vec::new();
        let mut diverged = Vec::new();
        for (i, mut branch) in branches.into_iter().enumerate() {
            if i == 1 {
                branch.perturb_yaw(0.3);
                diverged.push(true);
            } else {
                diverged.push(false);
            }
            digests.push(MissionDigest::of(&branch.run_to_completion()));
        }
        // The unperturbed branch reproduces the straight run...
        assert_eq!(digests[0], MissionDigest::of(&run_mission(&config)));
        // ...and the perturbed branch flies a different trajectory.
        assert_ne!(digests[0].trajectory, digests[1].trajectory);
    }

    #[test]
    fn forked_branch_registries_combine_without_double_counting() {
        let config = short();
        let straight = run_mission(&config).metric_registry();

        let mut mission = Mission::start(&config);
        mission.run_syncs(20);
        let branches = mission.fork(2).expect("fork");
        let prefix = mission.finish().metric_registry();
        let prefix_syncs = prefix.counter_value("sync.syncs").expect("sync.syncs");
        assert_eq!(prefix_syncs, 20);
        let prefix_cycles = prefix.counter_value("soc.cycles").expect("soc.cycles");

        let mut regs = Vec::new();
        for (i, mut branch) in branches.into_iter().enumerate() {
            if i == 1 {
                branch.perturb_yaw(0.2);
            }
            regs.push(branch.run_to_completion().metric_registry());
        }
        let suffix_syncs: u64 = regs
            .iter()
            .map(|r| r.counter_value("sync.syncs").unwrap() - prefix_syncs)
            .sum();
        let suffix_cycles: u64 = regs
            .iter()
            .map(|r| r.counter_value("soc.cycles").unwrap() - prefix_cycles)
            .sum();

        // Persisted counters resume from the prefix totals, so merging the
        // branch registries naively counts the shared warm-start prefix
        // once per branch...
        let mut naive = prefix.clone();
        for reg in &regs {
            naive.merge(reg);
        }
        assert_eq!(
            naive.counter_value("sync.syncs"),
            Some(3 * prefix_syncs + suffix_syncs)
        );

        // ...while prefix + Σ delta_since(prefix) counts it exactly once.
        let mut merged = prefix.clone();
        for reg in &regs {
            merged.merge(&reg.delta_since(&prefix));
        }
        assert_eq!(
            merged.counter_value("sync.syncs"),
            Some(prefix_syncs + suffix_syncs)
        );
        assert_eq!(
            merged.counter_value("soc.cycles"),
            Some(prefix_cycles + suffix_cycles)
        );

        // Host telemetry (DESIGN.md §4f) is never persisted: a resumed
        // branch re-observes only its own suffix, so it never needed the
        // delta in the first place — the unperturbed branch's kernel-cycle
        // histogram plus the prefix's reassembles the straight run's.
        let count = |reg: &rose_trace::MetricRegistry| {
            reg.histogram("soc.kernel_cycles").expect("kernel hist").count()
        };
        assert_eq!(count(&prefix) + count(&regs[0]), count(&straight));
    }

    #[test]
    fn corrupt_snapshots_are_rejected() {
        let config = short();
        let mission = Mission::start(&config);
        let snap = mission.snapshot();

        // Wrong magic.
        let mut bad = snap.bytes().to_vec();
        bad[0] ^= 0xFF;
        assert!(MissionSnapshot::from_bytes(bad).resume().is_err());

        // Unsupported version.
        let mut bad = snap.bytes().to_vec();
        bad[4] = 0xFF;
        assert!(matches!(
            MissionSnapshot::from_bytes(bad).resume(),
            Err(SnapError::BadVersion { .. })
        ));

        // Truncation anywhere in the stream.
        let mut bad = snap.bytes().to_vec();
        bad.truncate(bad.len() / 2);
        assert!(MissionSnapshot::from_bytes(bad).resume().is_err());

        // Trailing garbage.
        let mut bad = snap.bytes().to_vec();
        bad.push(0);
        assert!(matches!(
            MissionSnapshot::from_bytes(bad).resume(),
            Err(SnapError::TrailingBytes { .. })
        ));
    }
}
