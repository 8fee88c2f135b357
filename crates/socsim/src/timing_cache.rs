//! The persisted cross-run timing cache (DESIGN.md §4i).
//!
//! The in-memory cost caches in [`crate::soc::Soc`] already guarantee that
//! each distinct kernel shape is expanded at most once *per mission*. A
//! sweep (fig10–16, `dse_accel`, `freq_sweep`) still re-expands every
//! kernel once per mission, and expansion dominates the `rtl-grant` phase
//! on short missions. This module widens those caches across *processes*:
//! a versioned on-disk table, keyed by a [`SocConfig`] fingerprint plus
//! the kernel descriptor, loaded at mission start and shared by every
//! mission of a sweep — so a swept configuration expands each kernel
//! exactly once per machine, not once per mission.
//!
//! # The digest-invisibility contract
//!
//! Replaying an entry must be **bit-identical** to the cold expansion it
//! stands in for: the same counter deltas, the same memory-hierarchy
//! state, the same branch-RNG position, the same bus traffic. The cache
//! key makes that sound:
//!
//! * CPU-kernel expansion is a pure function of (kernel, memory state,
//!   branch RNG, core kind, memory geometry). The key therefore covers
//!   the kernel descriptor, the configuration fingerprint, and a 128-bit
//!   *context hash* ([`crate::mem::MemSystem::context_hash`]) over the
//!   memory hierarchy's flat state words and the RNG; the entry stores
//!   the full post-expansion [`crate::mem::MemSystem::image`], so a
//!   replay is a hash, a lookup, and a copy back into place that leaves
//!   exactly the state a cold run would have left. An image of the wrong
//!   length for the replaying geometry is refused before any state is
//!   touched, and the kernel expands cold instead.
//! * Accelerator timing ([`crate::gemmini`]) is a pure function of the
//!   shape and the configuration alone (`dma_latency` reads no mutable
//!   state), so conv/matmul entries are context-free.
//!
//! The fingerprint deliberately **excludes** [`SocConfig::name`] (a
//! label) and the clock (cycle-domain expansion never sees wall time), so
//! a frequency sweep shares every entry across its points. It **includes**
//! [`MODEL_VERSION`]: bump that constant whenever any timing-model change
//! lands, and every stale entry self-invalidates.
//!
//! A missing, truncated, corrupt, or version-mismatched cache file loads
//! as an empty cache — the cache can only ever accelerate a run, never
//! change or fail it. A loaded file is read once into one shared buffer;
//! its kernel entries are byte ranges of that buffer, not copies.

use crate::config::SocConfig;
use crate::gemmini::{AccelRun, ConvShape};
use crate::kernel::Kernel;
use rose_sim_core::fnv::Fnv64;
use rose_sim_core::snap::{SnapError, SnapReader, SnapWriter};
use std::collections::BTreeMap;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};

/// Timing-model generation. Any change to kernel expansion, the CPU or
/// accelerator timing models, or the memory hierarchy that can move a
/// single cycle MUST bump this: the fingerprint folds it in, so every
/// entry recorded by an older model self-invalidates.
pub const MODEL_VERSION: u32 = 2;

/// Section magic guarding the cache file ("RTMC").
const SNAP_SECTION: u32 = 0x5254_4d43;

/// Default on-disk location, relative to the working directory (kept out
/// of version control; see `.gitignore`).
pub const DEFAULT_PATH: &str = ".rose-timing-cache.snap";

/// Environment variable controlling bench-driver cache usage: unset uses
/// [`DEFAULT_PATH`], a path overrides it, and `0` / `off` disables the
/// cache entirely.
pub const ENV_VAR: &str = "ROSE_TIMING_CACHE";

/// A recorded memory image: a byte range of a shared buffer. Entries
/// loaded from disk all point into the one buffer the file was read into;
/// an entry recorded in-process owns its buffer. Cloning shares the bytes.
#[derive(Clone)]
pub struct MemImage {
    buf: Arc<Vec<u8>>,
    range: Range<usize>,
}

impl MemImage {
    /// The image bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf[self.range.clone()]
    }
}

impl From<Vec<u8>> for MemImage {
    fn from(bytes: Vec<u8>) -> MemImage {
        MemImage {
            range: 0..bytes.len(),
            buf: Arc::new(bytes),
        }
    }
}

/// Equal bytes, wherever they are stored.
impl PartialEq for MemImage {
    fn eq(&self, other: &MemImage) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for MemImage {}

/// The length only: a loaded image's buffer is the whole cache file.
impl std::fmt::Debug for MemImage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "MemImage({} bytes)", self.range.len())
    }
}

/// A recorded CPU-kernel expansion: the counter deltas and final state of
/// one cold [`crate::cpu::CpuModel::run_kernel`] call. Cheap to clone: the
/// memory image is shared, not copied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelEntry {
    /// Cycles the expansion added to [`crate::cpu::CpuStats::cycles`]
    /// (the raw scaled cost; the SoC clamps its *returned* cost to ≥ 1
    /// separately, exactly as on the cold path).
    pub cycles: u64,
    /// Instructions the expansion added.
    pub instrs: u64,
    /// Branch mispredictions the expansion observed.
    pub mispredicts: u64,
    /// The branch RNG state after the expansion.
    pub post_rng: u64,
    /// The [`crate::mem::MemSystem::image`] after the expansion (caches,
    /// bus counters, prefetcher).
    pub post_mem: MemImage,
}

/// A recorded accelerator run: everything a cold `conv`/`matmul` call
/// changes outside its return value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccelEntry {
    /// The run record the cold call returned (for convolutions, after the
    /// im2col-reuse DMA adjustment).
    pub run: AccelRun,
    /// Bytes the cold run recorded on the shared bus. For convolutions
    /// this is the *pre-adjustment* DMA total (the bus sees the traffic
    /// before the reuse credit), so it can exceed `run.dma_bytes`.
    pub bus_bytes: u64,
    /// Cycles the cold run added to the accelerator's lifetime activity
    /// counter. For convolutions this can differ from `run.cycles`
    /// because the compute-floor clamp applies only to the run record.
    pub cycles_delta: u64,
}

impl AccelEntry {
    fn save_state(&self, w: &mut SnapWriter) {
        let AccelEntry {
            run,
            bus_bytes,
            cycles_delta,
        } = self;
        run.save_state(w);
        w.u64(*bus_bytes);
        w.u64(*cycles_delta);
    }

    fn restore_state(r: &mut SnapReader<'_>) -> Result<AccelEntry, SnapError> {
        Ok(AccelEntry {
            run: AccelRun::restore_state(r)?,
            bus_bytes: r.u64()?,
            cycles_delta: r.u64()?,
        })
    }
}

#[derive(Debug, Default)]
struct Inner {
    /// (config fingerprint, kernel, expansion-context hash) → expansion.
    kernels: BTreeMap<(u64, Kernel, u128), KernelEntry>,
    /// (config fingerprint, conv shape) → run.
    convs: BTreeMap<(u64, ConvShape), AccelEntry>,
    /// (config fingerprint, (m, k, n)) → run.
    matmuls: BTreeMap<(u64, (usize, usize, usize)), AccelEntry>,
    /// Entries added since load (persist is a no-op while clean).
    // rose-lint: allow(SNAP002, host-side cache bookkeeping, deliberately outside mission snapshots; the timing cache is structural, never simulated state (DESIGN.md 4i))
    dirty: bool,
    /// Host telemetry: disk-cache hits / misses this process.
    // rose-lint: allow(SNAP002, host-side cache bookkeeping, deliberately outside mission snapshots; the timing cache is structural, never simulated state (DESIGN.md 4i))
    hits: u64,
    // rose-lint: allow(SNAP002, host-side cache bookkeeping, deliberately outside mission snapshots; the timing cache is structural, never simulated state (DESIGN.md 4i))
    misses: u64,
}

impl Inner {
    fn save_state(&self, w: &mut SnapWriter) {
        w.section(SNAP_SECTION);
        w.u32(MODEL_VERSION);
        w.usize(self.kernels.len());
        for ((fp, kernel, ctx), entry) in &self.kernels {
            w.u64(*fp);
            kernel.save_state(w);
            w.u128(*ctx);
            w.u64(entry.cycles);
            w.u64(entry.instrs);
            w.u64(entry.mispredicts);
            w.u64(entry.post_rng);
            w.bytes(entry.post_mem.as_bytes());
        }
        w.usize(self.convs.len());
        for ((fp, shape), entry) in &self.convs {
            w.u64(*fp);
            shape.save_state(w);
            entry.save_state(w);
        }
        w.usize(self.matmuls.len());
        for ((fp, (m, k, n)), entry) in &self.matmuls {
            w.u64(*fp);
            w.usize(*m);
            w.usize(*k);
            w.usize(*n);
            entry.save_state(w);
        }
    }

    /// Decodes a cache file. Kernel images stay in `file`: each entry
    /// holds its byte range.
    fn restore_state(file: &Arc<Vec<u8>>) -> Result<Inner, SnapError> {
        let mut r = SnapReader::new(file);
        r.section(SNAP_SECTION)?;
        let version = r.u32()?;
        if version != MODEL_VERSION {
            // A stale generation is not an error, just an empty cache.
            return Ok(Inner::default());
        }
        let mut inner = Inner::default();
        let n_kernels = r.usize()?;
        for _ in 0..n_kernels {
            let fp = r.u64()?;
            let kernel = Kernel::restore_state(&mut r)?;
            let ctx = r.u128()?;
            let entry = KernelEntry {
                cycles: r.u64()?,
                instrs: r.u64()?,
                mispredicts: r.u64()?,
                post_rng: r.u64()?,
                post_mem: MemImage {
                    range: r.byte_range()?,
                    buf: Arc::clone(file),
                },
            };
            inner.kernels.insert((fp, kernel, ctx), entry);
        }
        let n_convs = r.usize()?;
        for _ in 0..n_convs {
            let fp = r.u64()?;
            let shape = ConvShape::restore_state(&mut r)?;
            inner.convs.insert((fp, shape), AccelEntry::restore_state(&mut r)?);
        }
        let n_matmuls = r.usize()?;
        for _ in 0..n_matmuls {
            let fp = r.u64()?;
            let m = r.usize()?;
            let k = r.usize()?;
            let n = r.usize()?;
            inner
                .matmuls
                .insert((fp, (m, k, n)), AccelEntry::restore_state(&mut r)?);
        }
        r.finish()?;
        Ok(inner)
    }
}

/// A cloneable, thread-safe handle to one timing cache, shared by every
/// mission of a sweep (clones share storage). Multi-threaded sweeps and
/// transport-served SoCs hit it from several threads, hence the mutex;
/// the lock is only taken on *in-memory-cache misses*, which happen a
/// handful of times per mission.
#[derive(Debug, Clone)]
pub struct SharedTimingCache {
    path: Option<PathBuf>,
    inner: Arc<Mutex<Inner>>,
}

/// Handle identity (shared storage), not content equality — this is what
/// "the same cache" means for a [`MissionConfig`]-carried handle.
impl PartialEq for SharedTimingCache {
    fn eq(&self, other: &SharedTimingCache) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

impl SharedTimingCache {
    /// An empty cache with no backing file ([`persist`](Self::persist) is
    /// a no-op). Entries still accumulate and are shared across clones —
    /// the in-process sweep configuration, and what the cold-vs-warm
    /// equivalence tests use.
    pub fn in_memory() -> SharedTimingCache {
        SharedTimingCache {
            path: None,
            inner: Arc::new(Mutex::new(Inner::default())),
        }
    }

    /// Loads the cache at `path` with a single read: kernel entries keep
    /// their memory images in the one buffer the file was read into. A
    /// missing, truncated, corrupt, or version-mismatched file yields an
    /// empty cache bound to the same path — the cache never fails a run.
    pub fn load(path: impl Into<PathBuf>) -> SharedTimingCache {
        let path = path.into();
        let inner = std::fs::read(&path)
            .ok()
            .and_then(|bytes| Inner::restore_state(&Arc::new(bytes)).ok())
            .unwrap_or_default();
        SharedTimingCache {
            path: Some(path),
            inner: Arc::new(Mutex::new(inner)),
        }
    }

    /// The bench drivers' policy knob: `ROSE_TIMING_CACHE` unset loads
    /// [`DEFAULT_PATH`]; set to a path, loads that path; set to `0` or
    /// `off`, returns `None` (cache disabled). The digest contract makes
    /// the choice observable only in wall time.
    pub fn from_env() -> Option<SharedTimingCache> {
        match std::env::var(ENV_VAR) {
            Err(_) => Some(SharedTimingCache::load(DEFAULT_PATH)),
            Ok(v) if v == "0" || v.eq_ignore_ascii_case("off") => None,
            Ok(v) if v.is_empty() => Some(SharedTimingCache::load(DEFAULT_PATH)),
            Ok(path) => Some(SharedTimingCache::load(path)),
        }
    }

    /// The backing file, if any.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        // A panic while holding the lock cannot leave the plain-data maps
        // in a torn state; recover the contents rather than poisoning
        // every subsequent mission.
        self.inner.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Writes the cache back to its backing file (atomic via a sibling
    /// temp file + rename). No-op for in-memory caches or when nothing
    /// was added since load.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from writing or renaming the temp file.
    pub fn persist(&self) -> std::io::Result<()> {
        let Some(path) = &self.path else {
            return Ok(());
        };
        let bytes = {
            let inner = self.lock();
            if !inner.dirty && path.exists() {
                return Ok(());
            }
            let mut w = SnapWriter::new();
            inner.save_state(&mut w);
            w.into_bytes()
        };
        let mut tmp = path.clone().into_os_string();
        tmp.push(".tmp");
        let tmp = PathBuf::from(tmp);
        std::fs::write(&tmp, &bytes)?;
        std::fs::rename(&tmp, path)?;
        self.lock().dirty = false;
        Ok(())
    }

    /// The configuration fingerprint every key is scoped under: FNV-1a
    /// over [`MODEL_VERSION`], the core kind, the accelerator generator
    /// parameters, and the memory geometry/latencies. The config *name*
    /// and the *clock* are deliberately excluded — neither enters
    /// cycle-domain expansion, so renamed configs and frequency-sweep
    /// points share entries.
    pub fn fingerprint(config: &SocConfig) -> u64 {
        let mut w = SnapWriter::new();
        w.u32(MODEL_VERSION);
        config.core.save_state(&mut w);
        match &config.gemmini {
            None => w.u8(0),
            Some(g) => {
                w.u8(1);
                g.save_state(&mut w);
            }
        }
        config.mem.save_state(&mut w);
        let mut h = Fnv64::new();
        h.write(&w.into_bytes());
        h.finish()
    }

    /// Looks up a recorded CPU-kernel expansion under its
    /// [`crate::mem::MemSystem::context_hash`]. The returned entry shares
    /// its memory image with the cache.
    pub fn lookup_kernel(&self, fp: u64, kernel: &Kernel, ctx: u128) -> Option<KernelEntry> {
        let mut inner = self.lock();
        let hit = inner.kernels.get(&(fp, *kernel, ctx)).cloned();
        match hit {
            Some(_) => inner.hits += 1,
            None => inner.misses += 1,
        }
        hit
    }

    /// Records a cold CPU-kernel expansion.
    pub fn insert_kernel(&self, fp: u64, kernel: Kernel, ctx: u128, entry: KernelEntry) {
        let mut inner = self.lock();
        inner.kernels.insert((fp, kernel, ctx), entry);
        inner.dirty = true;
    }

    /// Looks up a recorded convolution run.
    pub fn lookup_conv(&self, fp: u64, shape: ConvShape) -> Option<AccelEntry> {
        let mut inner = self.lock();
        let hit = inner.convs.get(&(fp, shape)).copied();
        match hit {
            Some(_) => inner.hits += 1,
            None => inner.misses += 1,
        }
        hit
    }

    /// Records a cold convolution run.
    pub fn insert_conv(&self, fp: u64, shape: ConvShape, entry: AccelEntry) {
        let mut inner = self.lock();
        inner.convs.insert((fp, shape), entry);
        inner.dirty = true;
    }

    /// Looks up a recorded matmul run.
    pub fn lookup_matmul(&self, fp: u64, m: usize, k: usize, n: usize) -> Option<AccelEntry> {
        let mut inner = self.lock();
        let hit = inner.matmuls.get(&(fp, (m, k, n))).copied();
        match hit {
            Some(_) => inner.hits += 1,
            None => inner.misses += 1,
        }
        hit
    }

    /// Records a cold matmul run.
    pub fn insert_matmul(&self, fp: u64, m: usize, k: usize, n: usize, entry: AccelEntry) {
        let mut inner = self.lock();
        inner.matmuls.insert((fp, (m, k, n)), entry);
        inner.dirty = true;
    }

    /// Total entries across the three tables.
    pub fn len(&self) -> usize {
        let inner = self.lock();
        inner.kernels.len() + inner.convs.len() + inner.matmuls.len()
    }

    /// True when no entries are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Host telemetry: (disk hits, disk misses) observed this process.
    pub fn counters(&self) -> (u64, u64) {
        let inner = self.lock();
        (inner.hits, inner.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SocConfig;
    use crate::gemmini::GemminiConfig;
    use crate::mem::{MemConfig, MemSystem};
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "rose-timing-cache-{tag}-{}-{n}.snap",
            std::process::id()
        ))
    }

    fn sample_entries(cache: &SharedTimingCache, fp: u64) {
        cache.insert_kernel(
            fp,
            Kernel::Memcpy { bytes: 4096 },
            0xfeed,
            KernelEntry {
                cycles: 123,
                instrs: 456,
                mispredicts: 7,
                post_rng: 0xabcd,
                post_mem: vec![1, 2, 3, 4].into(),
            },
        );
        cache.insert_conv(
            fp,
            ConvShape {
                in_c: 3,
                out_c: 8,
                out_h: 16,
                out_w: 16,
                ksize: 3,
            },
            AccelEntry {
                run: AccelRun {
                    cycles: 1000,
                    compute_cycles: 800,
                    dma_bytes: 4096,
                    macs: 99,
                    tiles: 4,
                },
                bus_bytes: 12288,
                cycles_delta: 950,
            },
        );
        cache.insert_matmul(
            fp,
            8,
            16,
            32,
            AccelEntry {
                run: AccelRun::default(),
                bus_bytes: 64,
                cycles_delta: 1,
            },
        );
    }

    #[test]
    fn round_trips_through_disk() {
        let path = temp_path("roundtrip");
        let cache = SharedTimingCache::load(&path);
        assert!(cache.is_empty());
        let fp = SharedTimingCache::fingerprint(&SocConfig::config_a());
        sample_entries(&cache, fp);
        cache.persist().unwrap();

        let reloaded = SharedTimingCache::load(&path);
        assert_eq!(reloaded.len(), 3);
        let k = reloaded
            .lookup_kernel(fp, &Kernel::Memcpy { bytes: 4096 }, 0xfeed)
            .unwrap();
        assert_eq!(k.cycles, 123);
        assert_eq!(k.post_mem.as_bytes(), [1, 2, 3, 4]);
        let c = reloaded
            .lookup_conv(
                fp,
                ConvShape {
                    in_c: 3,
                    out_c: 8,
                    out_h: 16,
                    out_w: 16,
                    ksize: 3,
                },
            )
            .unwrap();
        assert_eq!(c.bus_bytes, 12288);
        assert_eq!(c.cycles_delta, 950);
        assert!(reloaded.lookup_matmul(fp, 8, 16, 32).is_some());
        // Wrong fingerprint: every table misses.
        assert!(reloaded.lookup_matmul(fp ^ 1, 8, 16, 32).is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn corrupt_or_missing_file_loads_empty() {
        let path = temp_path("corrupt");
        assert!(SharedTimingCache::load(&path).is_empty());
        std::fs::write(&path, b"not a cache file").unwrap();
        assert!(SharedTimingCache::load(&path).is_empty());
        // Truncated valid prefix.
        let good = SharedTimingCache::load(temp_path("tr"));
        sample_entries(&good, 1);
        let mut w = SnapWriter::new();
        good.lock().save_state(&mut w);
        let bytes = w.into_bytes();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(SharedTimingCache::load(&path).is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn persist_load_persist_is_byte_identical() {
        let path = temp_path("idempotent");
        let cache = SharedTimingCache::load(&path);
        sample_entries(&cache, 5);
        cache.insert_kernel(5, Kernel::Memcpy { bytes: 64 }, u128::MAX, replay_entry(9));
        cache.persist().unwrap();
        let first = std::fs::read(&path).unwrap();

        // Re-inserting an identical accelerator entry dirties the reloaded
        // cache, so the second persist really rewrites the file from the
        // loaded (range-backed) kernel entries.
        let reloaded = SharedTimingCache::load(&path);
        reloaded.insert_matmul(
            5,
            8,
            16,
            32,
            AccelEntry {
                run: AccelRun::default(),
                bus_bytes: 64,
                cycles_delta: 1,
            },
        );
        reloaded.persist().unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), first);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn kernel_image_past_end_of_file_loads_empty() {
        let mut w = SnapWriter::new();
        w.section(SNAP_SECTION);
        w.u32(MODEL_VERSION);
        w.usize(1);
        w.u64(1);
        Kernel::Memcpy { bytes: 64 }.save_state(&mut w);
        w.u128(2);
        for field in [3, 4, 5, 6] {
            w.u64(field);
        }
        // The image's length prefix claims more bytes than follow it.
        w.u64(1 << 20);
        w.u64(0);
        w.usize(0);
        w.usize(0);
        let path = temp_path("overrun");
        std::fs::write(&path, w.into_bytes()).unwrap();
        assert!(SharedTimingCache::load(&path).is_empty());
        std::fs::remove_file(&path).ok();
    }

    /// A kernel entry whose image is a warmed default-geometry hierarchy.
    fn replay_entry(seed: u64) -> KernelEntry {
        let mut mem = MemSystem::new(MemConfig::default());
        for i in 0..2048u64 {
            let addr = (i ^ seed).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 40;
            mem.access(addr, i % 3 == 0);
        }
        KernelEntry {
            cycles: seed,
            instrs: 2 * seed,
            mispredicts: 1,
            post_rng: seed ^ 0xff,
            post_mem: mem.image().into(),
        }
    }

    #[test]
    fn recorded_and_reloaded_entries_replay_the_same_image() {
        let path = temp_path("replay");
        let kernel = Kernel::Memcpy { bytes: 1024 };
        let recorded = replay_entry(77);
        let cache = SharedTimingCache::load(&path);
        cache.insert_kernel(3, kernel, 0xc0ffee, recorded.clone());
        cache.persist().unwrap();
        let reloaded = SharedTimingCache::load(&path)
            .lookup_kernel(3, &kernel, 0xc0ffee)
            .unwrap();
        let in_process = cache.lookup_kernel(3, &kernel, 0xc0ffee).unwrap();
        assert_eq!(reloaded, recorded);

        let replay = |entry: &KernelEntry| {
            let mut mem = MemSystem::new(MemConfig::default());
            mem.restore_image(entry.post_mem.as_bytes()).unwrap();
            mem.image()
        };
        assert_eq!(replay(&in_process), replay(&reloaded));
        assert_eq!(replay(&reloaded), recorded.post_mem.as_bytes());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn version_mismatch_loads_empty() {
        let path = temp_path("version");
        let cache = SharedTimingCache::load(&path);
        sample_entries(&cache, 42);
        // Re-encode with a bumped version tag.
        let mut w = SnapWriter::new();
        w.section(SNAP_SECTION);
        w.u32(MODEL_VERSION + 1);
        w.usize(0);
        w.usize(0);
        w.usize(0);
        std::fs::write(&path, w.into_bytes()).unwrap();
        assert!(SharedTimingCache::load(&path).is_empty());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn fingerprint_ignores_name_and_clock_only() {
        let base = SocConfig::config_a();
        let fp = SharedTimingCache::fingerprint(&base);

        let mut renamed = base.clone();
        renamed.name = "renamed".to_string();
        assert_eq!(fp, SharedTimingCache::fingerprint(&renamed));

        // Frequency-sweep points share all entries (expansion is entirely
        // cycle-domain).
        let mut clocked = base.clone();
        clocked.clock = rose_sim_core::cycles::ClockSpec::from_mhz(123);
        assert_eq!(fp, SharedTimingCache::fingerprint(&clocked));

        let mut other_mesh = base.clone();
        other_mesh.gemmini = Some(GemminiConfig {
            mesh_rows: 8,
            mesh_cols: 8,
            ..GemminiConfig::default()
        });
        assert_ne!(fp, SharedTimingCache::fingerprint(&other_mesh));

        let mut other_mem = base.clone();
        other_mem.mem.l1_latency += 1;
        assert_ne!(fp, SharedTimingCache::fingerprint(&other_mem));

        let mut no_accel = base.clone();
        no_accel.gemmini = None;
        assert_ne!(fp, SharedTimingCache::fingerprint(&no_accel));
    }

    #[test]
    fn clones_share_storage() {
        let a = SharedTimingCache::in_memory();
        let b = a.clone();
        sample_entries(&a, 7);
        assert_eq!(b.len(), 3);
        assert_eq!(a, b);
        assert_ne!(a, SharedTimingCache::in_memory());
        // In-memory caches persist as a no-op.
        a.persist().unwrap();
    }
}
