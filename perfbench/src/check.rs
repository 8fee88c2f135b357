//! Reference digests and the failure tally.
//!
//! `perfbench/reference.txt` holds one line per pool mission,
//! `<reference key> <digest>`, where the digest is
//! [`MissionDigest::combined`] of the untraced mission (trajectory and
//! SoC counters). The file was written by `perfbench record` at the
//! commit that introduced the benchmark; missions that run over TCP were
//! checked against the same mission flown in process before being written.

use rose::audit::MissionDigest;
use rose::MissionReport;
use std::collections::BTreeMap;

/// The recorded reference file, embedded so a run needs no path to it.
pub const REFERENCE_TXT: &str = include_str!("../reference.txt");

/// The key of the default 2 s `profile_mission` mission.
pub const DEFAULT_MISSION_KEY: &str = "default-2s";
/// Its digest (traced, as `profile_mission` flies it).
pub const DEFAULT_MISSION_DIGEST: u64 = 0x7b55_3455_7bc6_159d;

/// Reference digests by key.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct References(BTreeMap<String, u64>);

impl References {
    /// Parses `<key> <0xdigest>` lines; `#` starts a comment line.
    ///
    /// # Errors
    ///
    /// A description of the first malformed line.
    pub fn parse(text: &str) -> Result<References, String> {
        let mut map = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (key, digest) = line
                .rsplit_once(' ')
                .ok_or_else(|| format!("reference line {}: no digest", n + 1))?;
            let digest = u64::from_str_radix(digest.trim_start_matches("0x"), 16)
                .map_err(|e| format!("reference line {}: {e}", n + 1))?;
            map.insert(key.trim().to_string(), digest);
        }
        map.entry(DEFAULT_MISSION_KEY.to_string())
            .or_insert(DEFAULT_MISSION_DIGEST);
        Ok(References(map))
    }

    /// The embedded references.
    pub fn embedded() -> References {
        References::parse(REFERENCE_TXT).expect("embedded reference.txt parses")
    }

    /// The reference digest of `key`.
    pub fn get(&self, key: &str) -> Option<u64> {
        self.0.get(key).copied()
    }

    /// Renders references in the file format.
    pub fn render(entries: &[(String, u64)]) -> String {
        let mut out = String::from(
            "# Reference digests: <workload> <soc> [seed] yaw  MissionDigest::combined\n",
        );
        for (key, digest) in entries {
            out.push_str(&format!("{key} {digest:#018x}\n"));
        }
        out
    }
}

/// The digest a mission is checked by.
pub fn digest(report: &MissionReport) -> u64 {
    MissionDigest::of(report).combined()
}

/// How one mission ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    /// The mission returned a report with this digest.
    Digest(u64),
    /// The mission panicked.
    Panicked,
    /// The transport (or a snapshot resume) reported an error.
    Error(String),
}

/// Attempted and failed missions of a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Tally {
    /// Missions attempted.
    pub attempted: u64,
    /// Missions that panicked, hit a transport error, or produced a
    /// digest other than the reference.
    pub failed: u64,
    /// The first few failures, for the error stream.
    pub notes: Vec<String>,
}

impl Tally {
    /// Counts one mission; returns whether it passed.
    pub fn record(&mut self, refs: &References, key: &str, outcome: &Outcome) -> bool {
        self.attempted += 1;
        let note = match (outcome, refs.get(key)) {
            (Outcome::Digest(got), Some(want)) if *got == want => return true,
            (Outcome::Digest(got), Some(want)) => {
                format!("{key}: digest {got:#018x}, reference {want:#018x}")
            }
            (Outcome::Digest(_), None) => format!("{key}: no reference digest"),
            (Outcome::Panicked, _) => format!("{key}: panicked"),
            (Outcome::Error(e), _) => format!("{key}: error: {e}"),
        };
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
        false
    }

    /// Failed ÷ attempted; 0 when nothing was attempted.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{DEFAULT_SEED, HELD_OUT_SEED};

    #[test]
    fn parses_and_renders_round_trip() {
        let entries = vec![
            ("mission-warm A seed=01 yaw=+1.00".to_string(), 0xabc),
            ("b".to_string(), 7),
        ];
        let refs = References::parse(&References::render(&entries)).unwrap();
        assert_eq!(refs.get("mission-warm A seed=01 yaw=+1.00"), Some(0xabc));
        assert_eq!(refs.get("b"), Some(7));
        assert_eq!(refs.get(DEFAULT_MISSION_KEY), Some(DEFAULT_MISSION_DIGEST));
        assert!(References::parse("key-without-digest").is_err());
        assert!(References::parse("k 0xnothex").is_err());
    }

    #[test]
    fn embedded_references_cover_every_pool_mission() {
        let refs = References::embedded();
        for w in crate::workload::Workload::ALL {
            for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
                for p in crate::workload::full_pool(w, seed) {
                    assert!(refs.get(&p.key).is_some(), "no reference for {}", p.key);
                }
            }
        }
    }

    #[test]
    fn failed_frac_counts_mismatches_panics_and_transport_errors() {
        let refs = References::parse("a 0x1\nb 0x2\nc 0x3").unwrap();
        let mut t = Tally::default();
        assert!(t.record(&refs, "a", &Outcome::Digest(1)));
        assert!(!t.record(&refs, "b", &Outcome::Digest(9)));
        assert!(!t.record(&refs, "c", &Outcome::Panicked));
        assert!(!t.record(&refs, "a", &Outcome::Error("transport: peer gone".into())));
        assert!(!t.record(&refs, "unknown", &Outcome::Digest(1)));
        assert_eq!((t.attempted, t.failed), (5, 4));
        assert!((t.failed_frac() - 0.8).abs() < 1e-12);
        assert_eq!(Tally::default().failed_frac(), 0.0);
    }

    #[test]
    fn a_wrong_reference_fails_every_mission() {
        // The right digests checked against a deliberately wrong reference.
        let right = References::parse("a 0x10\nb 0x20\nc 0x30").unwrap();
        let wrong = References::parse("a 0x11\nb 0x21\nc 0x31").unwrap();
        let (mut ok, mut bad) = (Tally::default(), Tally::default());
        for key in ["a", "b", "c", "a", "b"] {
            let got = Outcome::Digest(right.get(key).unwrap());
            ok.record(&right, key, &got);
            bad.record(&wrong, key, &got);
        }
        assert_eq!(ok.failed_frac(), 0.0);
        assert_eq!((bad.attempted, bad.failed), (5, 5));
        assert_eq!(bad.failed_frac(), 1.0);
    }
}
