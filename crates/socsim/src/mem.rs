//! The memory system: set-associative caches, DRAM, and the shared bus.
//!
//! The hierarchy is the usual Chipyard/Rocket-chip shape: private L1 data
//! cache, shared L2, DRAM behind a 128-bit system bus. The accelerator's
//! DMA engine and the CPU's cache refills share the bus, so sustained DMA
//! traffic inflates CPU miss latency and vice versa — the system-level
//! resource contention the paper argues isolated accelerator benchmarks
//! miss (Section 1).

use rose_sim_core::snap::{SnapError, SnapReader, SnapWriter};
use serde::{Deserialize, Serialize};

/// Geometry of one cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: usize,
    /// Associativity.
    pub ways: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero or non-dividing sizes).
    pub fn sets(&self) -> usize {
        assert!(
            self.ways > 0 && self.line_bytes > 0,
            "degenerate cache geometry"
        );
        let sets = self.size_bytes / (self.ways * self.line_bytes);
        assert!(sets > 0, "cache smaller than one set");
        sets
    }

    /// Serializes the geometry.
    pub fn save_state(&self, w: &mut SnapWriter) {
        let CacheConfig {
            size_bytes,
            ways,
            line_bytes,
        } = self;
        w.usize(*size_bytes);
        w.usize(*ways);
        w.usize(*line_bytes);
    }

    /// Restores a geometry.
    ///
    /// # Errors
    ///
    /// Propagates [`SnapError`] on a malformed snapshot.
    pub fn restore_state(r: &mut SnapReader<'_>) -> Result<CacheConfig, SnapError> {
        Ok(CacheConfig {
            size_bytes: r.usize()?,
            ways: r.usize()?,
            line_bytes: r.usize()?,
        })
    }
}

/// Hit/miss counters for one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CacheStats {
    /// Number of accesses that hit.
    pub hits: u64,
    /// Number of accesses that missed.
    pub misses: u64,
    /// Dirty lines written back.
    pub writebacks: u64,
}

impl CacheStats {
    /// Miss ratio in `[0, 1]` (0 if no accesses).
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// Dirty flag of a resident line word; the low 63 bits hold the tag.
const DIRTY: u64 = 1 << 63;

/// A set-associative, write-back, write-allocate cache with LRU replacement.
///
/// The contents live in two flat arrays so the memory-hierarchy state can
/// be hashed and imaged in place ([`MemSystem::context_hash`],
/// [`MemSystem::image`]). Slots past a set's resident count are kept zero,
/// which makes both arrays a canonical function of the logical state.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    /// `sets × ways` line words, each set ordered most- to least-recently
    /// used: the tag, with [`DIRTY`] set for a dirty line. Left empty (and
    /// read as all zeros) until the first line is installed or restored, so
    /// building an SoC touches none of its tens of KiB: in a fresh process
    /// each touched page is a fault, paid before the first quantum.
    lines: Vec<u64>,
    /// Resident lines per set.
    counts: Vec<u8>,
    stats: CacheStats,
    set_mask: u64,
    line_shift: u32,
}

impl Cache {
    /// Creates an empty cache.
    pub fn new(config: CacheConfig) -> Cache {
        let sets = config.sets();
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        assert!(
            config.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(
            config.ways <= usize::from(u8::MAX),
            "associativity must fit a u8 resident count"
        );
        let line_shift = config.line_bytes.trailing_zeros();
        // The tag keeps at most 64 - line_shift - set bits, so bit 63 is
        // free for the dirty flag unless a set-less cache has 1-byte lines.
        assert!(
            line_shift + sets.trailing_zeros() >= 1,
            "tags must leave bit 63 free for the dirty flag"
        );
        Cache {
            config,
            lines: Vec::new(),
            counts: vec![0; sets],
            stats: CacheStats::default(),
            set_mask: (sets - 1) as u64,
            line_shift,
        }
    }

    /// Cache geometry.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Access counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Resets counters (not contents).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Line slots across all sets.
    fn n_lines(&self) -> usize {
        self.counts.len() * self.config.ways
    }

    /// Allocates the (zeroed) line array if nothing was installed yet.
    fn ensure_lines(&mut self) {
        if self.lines.is_empty() {
            self.lines = vec![0; self.n_lines()];
        }
    }

    /// The set index and tag of the line holding `addr`.
    fn locate(&self, addr: u64) -> (usize, u64) {
        let line = addr >> self.line_shift;
        (
            (line & self.set_mask) as usize,
            line >> self.set_mask.count_ones(),
        )
    }

    /// Performs one access; returns `true` on a hit. On a miss the line is
    /// installed, possibly writing back a dirty victim.
    pub fn access(&mut self, addr: u64, write: bool) -> bool {
        let (set_idx, tag) = self.locate(addr);
        let ways = self.config.ways;
        let n = usize::from(self.counts[set_idx]);
        self.ensure_lines();
        let set = &mut self.lines[set_idx * ways..(set_idx + 1) * ways];
        let dirty = if write { DIRTY } else { 0 };

        if let Some(pos) = set[..n].iter().position(|&l| l & !DIRTY == tag) {
            let hit = set[pos] | dirty;
            set.copy_within(..pos, 1);
            set[0] = hit;
            self.stats.hits += 1;
            return true;
        }
        self.stats.misses += 1;
        if n == ways {
            if set[ways - 1] & DIRTY != 0 {
                self.stats.writebacks += 1;
            }
        } else {
            self.counts[set_idx] += 1;
        }
        // Shift the residents down one slot (dropping the LRU victim of a
        // full set) and install the new line as MRU.
        set.copy_within(..n.min(ways - 1), 1);
        set[0] = tag | dirty;
        false
    }

    /// Invalidates all contents (e.g. after DMA writes to memory).
    pub fn flush(&mut self) {
        self.lines.fill(0);
        self.counts.fill(0);
    }

    /// Accounts `count` repeat hits on the line holding `addr`, which must
    /// currently be the MRU entry of its set (i.e. the line was just
    /// accessed). A repeat hit's only observable effects are the hit
    /// counter and the MRU dirty bit: the LRU move is a no-op on an
    /// already-MRU line, so this is bit-identical to `count` calls of
    /// [`Cache::access`] with no interleaved traffic.
    pub(crate) fn repeat_mru_hits(&mut self, addr: u64, count: u64, write: bool) {
        let (set_idx, tag) = self.locate(addr);
        let mru = &mut self.lines[set_idx * self.config.ways];
        debug_assert!(
            self.counts[set_idx] > 0 && *mru & !DIRTY == tag,
            "line not MRU"
        );
        if write {
            *mru |= DIRTY;
        }
        self.stats.hits += count;
    }

    /// Accounts `count` hits whose LRU movement and dirty-bit updates are
    /// known to be no-ops (the stream coster's fixed-point batches: the
    /// touched lines are already arranged in the order the batch would
    /// leave them, and their dirty bits already reflect the batch's write
    /// pattern). Only the hit counter is observable.
    pub(crate) fn add_stream_hits(&mut self, count: u64) {
        self.stats.hits += count;
    }

    /// The resident lines of each set, MRU first.
    fn sets(&self) -> impl Iterator<Item = &[u64]> {
        let ways = self.config.ways;
        self.counts.iter().enumerate().map(move |(i, &n)| {
            // Every count is zero while `lines` is unallocated.
            let start = i * ways;
            self.lines.get(start..start + usize::from(n)).unwrap_or(&[])
        })
    }

    /// Serializes contents (tags in LRU order, dirty bits) and counters.
    /// Geometry (`set_mask`, `line_shift`) is structural.
    pub fn save_state(&self, w: &mut SnapWriter) {
        let Cache {
            config: _,
            lines: _,
            counts,
            stats,
            set_mask: _,
            line_shift: _,
        } = self;
        w.usize(counts.len());
        for set in self.sets() {
            w.usize(set.len());
            for &line in set {
                w.u64(line & !DIRTY);
                w.bool(line & DIRTY != 0);
            }
        }
        w.u64(stats.hits);
        w.u64(stats.misses);
        w.u64(stats.writebacks);
    }

    /// Restores contents and counters into a cache of identical geometry.
    ///
    /// # Errors
    ///
    /// Propagates [`SnapError`] on a malformed snapshot, including a set
    /// count or associativity that does not match this cache's geometry,
    /// or a tag that overlaps the dirty flag.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        let ways = self.config.ways;
        let n_sets = r.usize()?;
        if n_sets != self.counts.len() {
            return Err(SnapError::BadLength {
                len: n_sets as u64,
                available: self.counts.len(),
            });
        }
        self.ensure_lines();
        for (set, count) in self.lines.chunks_exact_mut(ways).zip(&mut self.counts) {
            let n = r.usize()?;
            if n > ways {
                return Err(SnapError::BadLength {
                    len: n as u64,
                    available: ways,
                });
            }
            for slot in &mut set[..n] {
                let tag = r.u64()?;
                if tag & DIRTY != 0 {
                    return Err(SnapError::BadTag {
                        context: "Cache tag overlaps the dirty flag",
                        tag: 1,
                    });
                }
                *slot = if r.bool()? { tag | DIRTY } else { tag };
            }
            set[n..].fill(0);
            // Cannot truncate: `ways` fits a u8 (checked in `Cache::new`).
            *count = n as u8;
        }
        self.stats.hits = r.u64()?;
        self.stats.misses = r.u64()?;
        self.stats.writebacks = r.u64()?;
        Ok(())
    }

    /// Folds the contents and counters into `h`, reading the arrays where
    /// they sit.
    fn hash_into(&self, h: &mut ContextHasher) {
        if self.lines.is_empty() {
            h.zeros(self.n_lines());
        } else {
            h.words(&self.lines);
        }
        h.bytes(&self.counts);
        h.words(&[self.stats.hits, self.stats.misses, self.stats.writebacks]);
    }

    /// Bytes [`Cache::write_image`] emits for this geometry.
    fn image_len(&self) -> usize {
        8 * (self.n_lines() + 3) + self.counts.len()
    }

    /// Appends the contents and counters as little-endian words, then the
    /// resident counts as bytes.
    fn write_image(&self, out: &mut Vec<u8>) {
        if self.lines.is_empty() {
            out.resize(out.len() + 8 * self.n_lines(), 0);
        }
        for &word in &self.lines {
            out.extend_from_slice(&word.to_le_bytes());
        }
        for word in [self.stats.hits, self.stats.misses, self.stats.writebacks] {
            out.extend_from_slice(&word.to_le_bytes());
        }
        out.extend_from_slice(&self.counts);
    }

    /// Copies in an image of exactly [`Cache::image_len`] bytes whose
    /// resident counts have already been checked against `ways`.
    fn read_image(&mut self, image: &[u8]) {
        self.ensure_lines();
        let (lines, rest) = image.split_at(8 * self.n_lines());
        let (stats, counts) = rest.split_at(8 * 3);
        for (slot, chunk) in self.lines.iter_mut().zip(lines.chunks_exact(8)) {
            *slot = le_word(chunk);
        }
        self.stats = CacheStats {
            hits: le_word(&stats[..8]),
            misses: le_word(&stats[8..16]),
            writebacks: le_word(&stats[16..]),
        };
        self.counts.copy_from_slice(counts);
    }

    /// True when every resident count in `image`'s count tail fits this
    /// cache's associativity (so an image can never index past a set).
    fn image_counts_fit(&self, image: &[u8]) -> bool {
        let counts = &image[8 * (self.n_lines() + 3)..];
        counts.iter().all(|&n| usize::from(n) <= self.config.ways)
    }
}

/// Decodes one little-endian word from an 8-byte chunk.
fn le_word(chunk: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    word.copy_from_slice(chunk);
    u64::from_le_bytes(word)
}

/// The 128-bit expansion-context hash: two independent
/// rotate-xor-multiply lanes advanced in one pass over the state's words.
///
/// One multiply per word per lane keeps hashing the ~70 KB hierarchy a
/// few times cheaper than serializing it; the rotation feeds
/// each word's high bits (the dirty flags live in bit 63) back into the
/// low bits before the next multiply, which a plain multiply never does.
/// A silent wrong replay needs both lanes to collide at once. The lane
/// layout is a key format private to the timing cache file, guarded by
/// [`crate::timing_cache::MODEL_VERSION`].
struct ContextHasher {
    a: u64,
    b: u64,
}

impl ContextHasher {
    const MUL_A: u64 = 0x9e37_79b9_7f4a_7c15;
    const MUL_B: u64 = 0xc2b2_ae3d_27d4_eb4f;

    fn new() -> ContextHasher {
        ContextHasher {
            a: 0xcbf2_9ce4_8422_2325,
            b: 0x8422_2325_cbf2_9ce4,
        }
    }

    fn words(&mut self, words: &[u64]) {
        let (mut a, mut b) = (self.a, self.b);
        for &w in words {
            a = (a.rotate_left(23) ^ w).wrapping_mul(ContextHasher::MUL_A);
            b = (b.rotate_left(41) ^ w).wrapping_mul(ContextHasher::MUL_B);
        }
        (self.a, self.b) = (a, b);
    }

    /// Folds `n` zero words: the words of a line array not yet allocated.
    fn zeros(&mut self, n: usize) {
        for _ in 0..n {
            self.words(&[0]);
        }
    }

    /// Folds bytes eight at a time, zero-padding the tail, then the length
    /// (so a zero tail differs from a shorter array).
    fn bytes(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.words(&[le_word(chunk)]);
        }
        let mut tail = [0u8; 8];
        tail[..chunks.remainder().len()].copy_from_slice(chunks.remainder());
        self.words(&[u64::from_le_bytes(tail), bytes.len() as u64]);
    }

    fn finish(&self) -> u128 {
        (u128::from(self.a) << 64) | u128::from(self.b)
    }
}

/// Memory system timing and geometry parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemConfig {
    /// L1 data cache geometry.
    pub l1d: CacheConfig,
    /// Shared L2 geometry.
    pub l2: CacheConfig,
    /// L1 hit latency in cycles (load-to-use).
    pub l1_latency: u64,
    /// L2 hit latency in cycles.
    pub l2_latency: u64,
    /// DRAM access latency in cycles (row activation + CAS).
    pub dram_latency: u64,
    /// System bus width in bytes per cycle (128-bit = 16 B).
    pub bus_bytes_per_cycle: f64,
    /// DRAM sustained bandwidth in bytes per cycle.
    pub dram_bytes_per_cycle: f64,
    /// Latency of one uncached MMIO word access in cycles.
    pub mmio_latency: u64,
    /// Enables the L2 stream prefetcher (ablation knob).
    pub prefetch: bool,
}

impl MemConfig {
    /// Serializes the parameters.
    pub fn save_state(&self, w: &mut SnapWriter) {
        let MemConfig {
            l1d,
            l2,
            l1_latency,
            l2_latency,
            dram_latency,
            bus_bytes_per_cycle,
            dram_bytes_per_cycle,
            mmio_latency,
            prefetch,
        } = self;
        l1d.save_state(w);
        l2.save_state(w);
        w.u64(*l1_latency);
        w.u64(*l2_latency);
        w.u64(*dram_latency);
        w.f64(*bus_bytes_per_cycle);
        w.f64(*dram_bytes_per_cycle);
        w.u64(*mmio_latency);
        w.bool(*prefetch);
    }

    /// Restores parameters.
    ///
    /// # Errors
    ///
    /// Propagates [`SnapError`] on a malformed snapshot.
    pub fn restore_state(r: &mut SnapReader<'_>) -> Result<MemConfig, SnapError> {
        Ok(MemConfig {
            l1d: CacheConfig::restore_state(r)?,
            l2: CacheConfig::restore_state(r)?,
            l1_latency: r.u64()?,
            l2_latency: r.u64()?,
            dram_latency: r.u64()?,
            bus_bytes_per_cycle: r.f64()?,
            dram_bytes_per_cycle: r.f64()?,
            mmio_latency: r.u64()?,
            prefetch: r.bool()?,
        })
    }
}

impl Default for MemConfig {
    /// Parameters representative of a 1 GHz embedded SoC with LPDDR4.
    fn default() -> MemConfig {
        MemConfig {
            l1d: CacheConfig {
                size_bytes: 16 * 1024,
                ways: 4,
                line_bytes: 64,
            },
            l2: CacheConfig {
                size_bytes: 512 * 1024,
                ways: 8,
                line_bytes: 64,
            },
            l1_latency: 2,
            l2_latency: 14,
            dram_latency: 90,
            bus_bytes_per_cycle: 16.0,
            dram_bytes_per_cycle: 12.8,
            mmio_latency: 40,
            prefetch: true,
        }
    }
}

/// The shared system bus: tracks the fraction of bandwidth reserved by the
/// accelerator's DMA engine so concurrent CPU misses see queueing delay.
#[derive(Debug, Clone, Default)]
pub struct Bus {
    /// Fraction of bus bandwidth currently consumed by DMA, in `[0, 1)`.
    dma_utilization: f64,
    /// Total bytes moved over the bus (for bandwidth accounting).
    total_bytes: u64,
}

impl Bus {
    /// Creates an idle bus.
    pub fn new() -> Bus {
        Bus::default()
    }

    /// Sets the DMA background utilization (clamped below 0.95 so CPU
    /// traffic always makes progress).
    pub fn set_dma_utilization(&mut self, util: f64) {
        self.dma_utilization = util.clamp(0.0, 0.95);
    }

    /// Current DMA background utilization.
    pub fn dma_utilization(&self) -> f64 {
        self.dma_utilization
    }

    /// Records bytes moved across the bus.
    pub fn record_bytes(&mut self, bytes: u64) {
        self.total_bytes += bytes;
    }

    /// Total traffic so far.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes
    }

    /// Queueing-inflated latency for a CPU transaction of `base` cycles
    /// (M/M/1-style 1/(1-rho) inflation of the transfer portion).
    pub fn contended(&self, base: u64) -> u64 {
        (base as f64 / (1.0 - self.dma_utilization)).round() as u64
    }

    /// Serializes the bus state.
    pub fn save_state(&self, w: &mut SnapWriter) {
        let Bus {
            dma_utilization,
            total_bytes,
        } = self;
        w.f64(*dma_utilization);
        w.u64(*total_bytes);
    }

    /// Restores the bus state.
    ///
    /// # Errors
    ///
    /// Propagates [`SnapError`] on a malformed snapshot.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.dma_utilization = r.f64()?;
        self.total_bytes = r.u64()?;
        Ok(())
    }
}

/// The full CPU-side memory hierarchy with timing.
#[derive(Debug, Clone)]
pub struct MemSystem {
    config: MemConfig,
    l1d: Cache,
    l2: Cache,
    bus: Bus,
    /// L2 stream prefetcher: last line seen per tracked stream.
    prefetch_streams: [u64; 4],
    prefetch_hits: u64,
}

impl MemSystem {
    /// Creates an empty (cold) hierarchy.
    pub fn new(config: MemConfig) -> MemSystem {
        MemSystem {
            l1d: Cache::new(config.l1d),
            l2: Cache::new(config.l2),
            bus: Bus::new(),
            config,
            prefetch_streams: [u64::MAX; 4],
            prefetch_hits: 0,
        }
    }

    /// Misses absorbed by the L2 stream prefetcher so far.
    pub fn prefetch_hits(&self) -> u64 {
        self.prefetch_hits
    }

    /// Serializes the hierarchy: both cache contents, bus state, and the
    /// prefetcher's stream trackers.
    pub fn save_state(&self, w: &mut SnapWriter) {
        let MemSystem {
            config: _,
            l1d,
            l2,
            bus,
            prefetch_streams,
            prefetch_hits,
        } = self;
        l1d.save_state(w);
        l2.save_state(w);
        bus.save_state(w);
        for stream in prefetch_streams {
            w.u64(*stream);
        }
        w.u64(*prefetch_hits);
    }

    /// Restores the hierarchy state.
    ///
    /// # Errors
    ///
    /// Propagates [`SnapError`] on a malformed snapshot.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.l1d.restore_state(r)?;
        self.l2.restore_state(r)?;
        self.bus.restore_state(r)?;
        for stream in &mut self.prefetch_streams {
            *stream = r.u64()?;
        }
        self.prefetch_hits = r.u64()?;
        Ok(())
    }

    /// The expansion context a CPU kernel runs in: a 128-bit hash of the
    /// whole hierarchy state (both caches' line and count arrays and
    /// counters, the bus, the prefetcher) and the branch-RNG position,
    /// read where the arrays sit. Two expansions of one kernel under one
    /// configuration with equal contexts are bit-identical.
    pub fn context_hash(&self, branch_rng: u64) -> u128 {
        let mut h = ContextHasher::new();
        self.l1d.hash_into(&mut h);
        self.l2.hash_into(&mut h);
        h.words(&[
            self.bus.dma_utilization.to_bits(),
            self.bus.total_bytes,
            self.prefetch_hits,
            branch_rng,
        ]);
        h.words(&self.prefetch_streams);
        h.finish()
    }

    /// Bytes [`MemSystem::image`] emits for this geometry.
    fn image_len(&self) -> usize {
        self.l1d.image_len() + self.l2.image_len() + 8 * 7
    }

    /// The complete hierarchy state as a flat image: each cache's line
    /// words, counters and resident counts, then the bus, the prefetcher's
    /// stream trackers and its hit counter, all little-endian. A fixed
    /// length per geometry; the timing cache records it after a cold
    /// kernel expansion.
    pub fn image(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.image_len());
        self.l1d.write_image(&mut out);
        self.l2.write_image(&mut out);
        let tail = [
            self.bus.dma_utilization.to_bits(),
            self.bus.total_bytes,
            self.prefetch_hits,
        ];
        for word in tail.iter().chain(&self.prefetch_streams) {
            out.extend_from_slice(&word.to_le_bytes());
        }
        out
    }

    /// Replaces the hierarchy state with an [`MemSystem::image`].
    ///
    /// # Errors
    ///
    /// [`SnapError::BadLength`] when the image does not have this
    /// geometry's length, or a resident count exceeds the associativity.
    /// The image is checked before any state is touched, so a refused
    /// image leaves the hierarchy exactly as it was.
    pub fn restore_image(&mut self, image: &[u8]) -> Result<(), SnapError> {
        let expected = self.image_len();
        if image.len() != expected {
            return Err(SnapError::BadLength {
                len: image.len() as u64,
                available: expected,
            });
        }
        let (l1, rest) = image.split_at(self.l1d.image_len());
        let (l2, tail) = rest.split_at(self.l2.image_len());
        if !self.l1d.image_counts_fit(l1) || !self.l2.image_counts_fit(l2) {
            return Err(SnapError::BadLength {
                len: image.len() as u64,
                available: expected,
            });
        }
        self.l1d.read_image(l1);
        self.l2.read_image(l2);
        let word = |i: usize| le_word(&tail[8 * i..8 * (i + 1)]);
        self.bus.dma_utilization = f64::from_bits(word(0));
        self.bus.total_bytes = word(1);
        self.prefetch_hits = word(2);
        for (i, stream) in self.prefetch_streams.iter_mut().enumerate() {
            *stream = word(3 + i);
        }
        Ok(())
    }

    /// Memory parameters.
    pub fn config(&self) -> &MemConfig {
        &self.config
    }

    /// The shared bus (accelerator DMA coordinates through this).
    pub fn bus(&self) -> &Bus {
        &self.bus
    }

    /// Mutable bus access.
    pub fn bus_mut(&mut self) -> &mut Bus {
        &mut self.bus
    }

    /// L1 data cache statistics.
    pub fn l1_stats(&self) -> CacheStats {
        self.l1d.stats()
    }

    /// L2 statistics.
    pub fn l2_stats(&self) -> CacheStats {
        self.l2.stats()
    }

    /// Resets cache statistics.
    pub fn reset_stats(&mut self) {
        self.l1d.reset_stats();
        self.l2.reset_stats();
    }

    /// Performs a load or store at `addr`, returning its latency in cycles.
    ///
    /// L1 hit → `l1_latency`; L1 miss, L2 hit → `l2_latency`; L2 miss →
    /// DRAM latency plus the line transfer, inflated by bus contention.
    pub fn access(&mut self, addr: u64, write: bool) -> u64 {
        self.access_tracked(addr, write).0
    }

    /// [`MemSystem::access`] that also reports whether the access hit in
    /// the L1 (the condition the stride-run fast paths key on — latency
    /// values alone can collide across levels under exotic configs).
    fn access_tracked(&mut self, addr: u64, write: bool) -> (u64, bool) {
        if self.l1d.access(addr, write) {
            return (self.config.l1_latency, true);
        }
        if self.l2.access(addr, write) {
            return (self.bus.contended(self.config.l2_latency), false);
        }
        let transfer =
            (self.config.l1d.line_bytes as f64 / self.config.bus_bytes_per_cycle).ceil() as u64;
        self.bus.record_bytes(self.config.l1d.line_bytes as u64);
        // L2 stream prefetcher: a miss one line beyond a tracked stream was
        // fetched ahead of time and costs only the L2 hit latency.
        let line = addr / self.config.l1d.line_bytes as u64;
        let mut prefetched = false;
        if self.config.prefetch {
            for stream in &mut self.prefetch_streams {
                if line == stream.wrapping_add(1) {
                    *stream = line;
                    prefetched = true;
                    break;
                }
            }
        }
        if prefetched {
            self.prefetch_hits += 1;
            return (self.bus.contended(self.config.l2_latency + transfer), false);
        }
        // Allocate the stream table entry (round-robin by line hash).
        self.prefetch_streams[(line % 4) as usize] = line;
        (
            self.config.dram_latency + self.bus.contended(self.config.l2_latency + transfer),
            false,
        )
    }

    /// Costs `count` accesses at `base`, `base + stride`, `base + 2·stride`
    /// ... in closed form per touched cache line, returning the total
    /// latency. Bit-identical to calling [`MemSystem::access`] per element.
    ///
    /// A non-negative stride walks lines monotonically, so a line is never
    /// revisited once left: the first access to each line runs through the
    /// full hierarchy (L1/L2 install, prefetcher training, bus traffic) and
    /// the remaining accesses to that line are provably MRU L1 hits whose
    /// count follows from the stride, line size, and alignment — those are
    /// accounted in bulk without touching the LRU state. Negative strides
    /// (aliasing runs are impossible here, but descending runs are rare and
    /// not worth a mirrored fast path) fall back to per-access simulation.
    pub fn access_run(&mut self, base: u64, stride: i64, count: u64, write: bool) -> u64 {
        if count == 0 {
            return 0;
        }
        if stride < 0 {
            let mut total = 0;
            for i in 0..count {
                total += self.access(base.wrapping_add_signed(stride * i as i64), write);
            }
            return total;
        }
        let stride = stride as u64;
        if stride == 0 {
            // One concrete access installs (or touches) the line; the rest
            // are repeat hits on the now-MRU line.
            let first = self.access(base, write);
            self.l1d.repeat_mru_hits(base, count - 1, write);
            return first + (count - 1) * self.config.l1_latency;
        }
        let line_bytes = self.config.l1d.line_bytes as u64;
        let mut total = 0;
        let mut i = 0u64;
        while i < count {
            let addr = base + i * stride;
            total += self.access(addr, write);
            // Index of the first access past this line's end: every access
            // in between is a repeat hit on the just-installed line.
            let line_end = (addr / line_bytes + 1) * line_bytes;
            let next = ((line_end - base).div_ceil(stride)).min(count);
            let repeats = next - i - 1;
            if repeats > 0 {
                self.l1d.repeat_mru_hits(addr, repeats, write);
                total += repeats * self.config.l1_latency;
            }
            i = next;
        }
        total
    }

    /// Costs an ordered access stream `(addr, write)` and appends one
    /// latency per access to `lats`. Bit-identical to calling
    /// [`MemSystem::access`] once per element, in order.
    ///
    /// The fast path exploits the loop structure of kernel traces: most
    /// emit a short body whose accesses repeat with a fixed period `p`
    /// (streaming loads/stores walking a line plus a scratch slot). If the
    /// previous `p` accesses all hit in the L1 and the next `p` accesses
    /// touch the same (line, write) sequence, the next group is provably
    /// all L1 hits *and* leaves the cache state bit-identical: hits evict
    /// nothing, re-touching the same lines in the same order reproduces the
    /// same per-set recency arrangement, and the dirty bits are already
    /// set by the verified group. Matching groups are therefore accounted
    /// in bulk (hit counter only) at `l1_latency` each; state is only
    /// advanced at group boundaries, so a partial-group mismatch resumes
    /// concrete simulation from an exact state. Irregular streams (pointer
    /// chasing) defeat the matcher, so repeated failures back off to plain
    /// per-access simulation for a window to bound the matching overhead.
    pub fn cost_stream(&mut self, refs: &[(u64, bool)], lats: &mut Vec<u64>) {
        /// Longest loop-body period recognized (covers every emitted
        /// kernel body; elementwise-Add is the widest at 12 refs/iter).
        const MAX_PERIOD: usize = 12;
        /// Consecutive match failures tolerated before backing off.
        const MAX_FAILS: u32 = 4;
        /// Accesses simulated concretely per backoff window.
        const BACKOFF: usize = 256;

        lats.reserve(refs.len());
        let line_shift = self.l1d.line_shift;
        let same_line = |a: (u64, bool), b: (u64, bool)| -> bool {
            a.0 >> line_shift == b.0 >> line_shift && a.1 == b.1
        };
        let mut i = 0usize;
        // Consecutive L1 hits immediately before `i` (capped: only the last
        // MAX_PERIOD matter as a verified base group).
        let mut streak = 0usize;
        let mut fails = 0u32;
        let mut skip_until = 0usize;
        while i < refs.len() {
            if streak > 0 && i >= skip_until {
                let pmax = streak.min(MAX_PERIOD).min(refs.len() - i);
                let period = (1..=pmax)
                    .find(|&p| (0..p).all(|j| same_line(refs[i + j], refs[i + j - p])));
                if let Some(p) = period {
                    // Extend group-by-group while the periodic pattern
                    // holds; each whole matched group is a state fixed
                    // point, so only counters move.
                    let mut batched = p;
                    while i + batched + p <= refs.len()
                        && (0..p).all(|j| {
                            same_line(refs[i + batched + j], refs[i + batched + j - p])
                        })
                    {
                        batched += p;
                    }
                    self.l1d.add_stream_hits(batched as u64);
                    lats.extend(std::iter::repeat_n(self.config.l1_latency, batched));
                    i += batched;
                    streak = MAX_PERIOD.min(streak + batched);
                    fails = 0;
                    continue;
                }
                fails += 1;
                if fails >= MAX_FAILS {
                    skip_until = i + BACKOFF;
                    fails = 0;
                }
            }
            let (addr, write) = refs[i];
            let (lat, l1_hit) = self.access_tracked(addr, write);
            lats.push(lat);
            streak = if l1_hit {
                MAX_PERIOD.min(streak + 1)
            } else {
                0
            };
            i += 1;
        }
    }

    /// Latency of one uncached MMIO word access.
    pub fn mmio_access(&self) -> u64 {
        self.config.mmio_latency
    }

    /// Cycles for the accelerator's DMA engine to move `bytes` between
    /// scratchpad and DRAM: one DRAM latency plus the bandwidth-limited
    /// transfer over the narrower of bus and DRAM.
    pub fn dma_cycles(&mut self, bytes: u64) -> u64 {
        self.bus.record_bytes(bytes);
        self.dma_latency(bytes)
    }

    /// The latency portion of [`MemSystem::dma_cycles`] without recording
    /// bus traffic: a pure function of the transfer size, used by the
    /// closed-form accelerator cost model to price a tile class once and
    /// multiply by its occurrence count.
    pub fn dma_latency(&self, bytes: u64) -> u64 {
        let bw = self
            .config
            .bus_bytes_per_cycle
            .min(self.config.dram_bytes_per_cycle);
        self.config.dram_latency + (bytes as f64 / bw).ceil() as u64
    }

    /// Invalidates CPU caches (used when DMA writes shared buffers).
    pub fn invalidate(&mut self) {
        self.l1d.flush();
        self.l2.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cache() -> Cache {
        // 2 sets, 2 ways, 64 B lines = 256 B.
        Cache::new(CacheConfig {
            size_bytes: 256,
            ways: 2,
            line_bytes: 64,
        })
    }

    #[test]
    fn cache_hit_after_fill() {
        let mut c = tiny_cache();
        assert!(!c.access(0x1000, false)); // cold miss
        assert!(c.access(0x1000, false)); // hit
        assert!(c.access(0x1030, false)); // same line
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny_cache();
        // Three lines mapping to set 0 (set stride = 2 lines = 128 B).
        let a = 0x0000;
        let b = 0x0100;
        let d = 0x0200;
        c.access(a, false);
        c.access(b, false);
        c.access(a, false); // a is now MRU
        c.access(d, false); // evicts b
        assert!(c.access(a, false), "a should survive");
        assert!(!c.access(b, false), "b was evicted");
    }

    #[test]
    fn writeback_counted_for_dirty_victims() {
        let mut c = tiny_cache();
        c.access(0x0000, true); // dirty
        c.access(0x0100, false);
        c.access(0x0200, false); // evicts dirty 0x0000
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn hierarchy_latencies_are_ordered() {
        let mut m = MemSystem::new(MemConfig::default());
        let cold = m.access(0x4000, false);
        let l1_hit = m.access(0x4000, false);
        // Evict from L1 (16 KiB / 4-way: set stride 4 KiB, 4 ways) but stay
        // in L2 by touching 4 conflicting lines.
        for i in 1..=4 {
            m.access(0x4000 + i * 4096, false);
        }
        let l2_hit = m.access(0x4000, false);
        assert!(l1_hit < l2_hit, "{l1_hit} < {l2_hit}");
        assert!(l2_hit < cold, "{l2_hit} < {cold}");
        assert_eq!(l1_hit, MemConfig::default().l1_latency);
    }

    #[test]
    fn contention_inflates_misses() {
        let mut m = MemSystem::new(MemConfig::default());
        let quiet = m.access(0x8000, false); // cold miss, idle bus
        m.invalidate();
        m.bus_mut().set_dma_utilization(0.8);
        let busy = m.access(0x8000, false); // cold miss under DMA load
        assert!(
            busy > quiet + 10,
            "contended miss {busy} should exceed quiet miss {quiet}"
        );
    }

    #[test]
    fn dma_is_bandwidth_limited() {
        let mut m = MemSystem::new(MemConfig::default());
        let small = m.dma_cycles(64);
        let large = m.dma_cycles(64 * 1024);
        // 64 KiB at 12.8 B/cyc ≈ 5120 cycles of transfer.
        assert!(large > small + 4000, "large {large} small {small}");
        assert!(m.bus().total_bytes() >= 64 + 64 * 1024);
    }

    #[test]
    fn mmio_latency_fixed() {
        let m = MemSystem::new(MemConfig::default());
        assert_eq!(m.mmio_access(), 40);
    }

    #[test]
    fn flush_forces_refill() {
        let mut m = MemSystem::new(MemConfig::default());
        m.access(0x100, false);
        assert_eq!(m.access(0x100, false), MemConfig::default().l1_latency);
        m.invalidate();
        assert!(m.access(0x100, false) > MemConfig::default().l2_latency);
    }
}

#[cfg(test)]
mod analytic_tests {
    use super::*;
    use proptest::prelude::*;

    /// Full dynamic state plus prefetch-hit counter, for bit-exact
    /// before/after comparison of the analytic fast paths.
    fn state_bytes(m: &MemSystem) -> Vec<u8> {
        let mut w = SnapWriter::new();
        m.save_state(&mut w);
        w.into_bytes()
    }

    fn config_from(sel: usize) -> MemConfig {
        match sel {
            0 => MemConfig::default(),
            1 => MemConfig {
                // Tiny L1 so short runs already evict and conflict.
                l1d: CacheConfig {
                    size_bytes: 512,
                    ways: 2,
                    line_bytes: 32,
                },
                l2: CacheConfig {
                    size_bytes: 4096,
                    ways: 4,
                    line_bytes: 32,
                },
                ..MemConfig::default()
            },
            2 => MemConfig {
                prefetch: false,
                ..MemConfig::default()
            },
            _ => MemConfig {
                l1d: CacheConfig {
                    size_bytes: 1024,
                    ways: 1,
                    line_bytes: 128,
                },
                ..MemConfig::default()
            },
        }
    }

    fn warmed(sel: usize, warm_seed: u64, util_pct: u64) -> MemSystem {
        let mut m = MemSystem::new(config_from(sel));
        // Pre-touch a pseudo-random working set so runs start from a
        // nontrivial cache arrangement, then add DMA contention.
        let mut addr = warm_seed | 1;
        for i in 0..96u64 {
            addr = addr.wrapping_mul(6364136223846793005).wrapping_add(1);
            m.access(addr % (1 << 18), i % 3 == 0);
        }
        m.bus_mut().set_dma_utilization(util_pct as f64 / 100.0);
        m
    }

    proptest! {
        #[test]
        fn access_run_matches_per_access(
            sel in 0usize..4,
            warm_seed in 0u64..u64::MAX,
            util_pct in 0u64..90,
            base in 0u64..(1 << 20),
            stride in -300i64..900,
            count in 0u64..600,
            write in proptest::any::<bool>(),
        ) {
            let mut fast = warmed(sel, warm_seed, util_pct);
            let mut slow = fast.clone();
            let total_fast = fast.access_run(base, stride, count, write);
            let mut total_slow = 0u64;
            for i in 0..count {
                total_slow += slow.access(base.wrapping_add_signed(stride * i as i64), write);
            }
            prop_assert_eq!(total_fast, total_slow);
            prop_assert_eq!(state_bytes(&fast), state_bytes(&slow));
        }
    }

    proptest! {
        #[test]
        fn cost_stream_matches_per_access(
            sel in 0usize..4,
            warm_seed in 0u64..u64::MAX,
            util_pct in 0u64..90,
            shape in (1u64..2048, 0usize..13, 1usize..40, 0u64..(1 << 16)),
        ) {
            // Build a stream with a periodic loop body (the shape kernel
            // traces emit) punctuated by an aperiodic scatter segment, so
            // both the batch path and its mismatch/backoff exits run.
            let (stream_stride, period, iters, base) = shape;
            let mut refs: Vec<(u64, bool)> = Vec::new();
            for it in 0..iters as u64 {
                for j in 0..period as u64 {
                    let addr = base + it * stream_stride + j * 8;
                    refs.push((addr, j % 4 == 3));
                }
                // A scratch slot revisited every iteration (periodic hit).
                refs.push((0x4000_0000 + (j_scatter(it) % 64), false));
            }
            // Aperiodic tail: pointer-chase style scatter.
            for it in 0..64u64 {
                refs.push((j_scatter(it.wrapping_mul(7919)) % (1 << 20), it % 5 == 0));
            }
            let mut fast = warmed(sel, warm_seed, util_pct);
            let mut slow = fast.clone();
            let mut lats_fast = Vec::new();
            fast.cost_stream(&refs, &mut lats_fast);
            let lats_slow: Vec<u64> =
                refs.iter().map(|&(a, w)| slow.access(a, w)).collect();
            prop_assert_eq!(lats_fast, lats_slow);
            prop_assert_eq!(state_bytes(&fast), state_bytes(&slow));
        }
    }

    proptest! {
        #[test]
        fn context_and_image_survive_snapshot_round_trips(
            sel in 0usize..4,
            warm_seed in 0u64..u64::MAX,
            util_pct in 0u64..90,
            rng in 0u64..u64::MAX,
        ) {
            let m = warmed(sel, warm_seed, util_pct);
            let saved = state_bytes(&m);
            // A fresh hierarchy, and one whose sets hold more lines than
            // the snapshot: restoring must leave no stale slot behind.
            let mut fuller = MemSystem::new(config_from(sel));
            for i in 0..4096u64 {
                fuller.access(j_scatter(i ^ warm_seed) % (1 << 22), i % 2 == 0);
            }
            for mut target in [MemSystem::new(config_from(sel)), fuller] {
                target.restore_state(&mut SnapReader::new(&saved)).unwrap();
                prop_assert_eq!(target.context_hash(rng), m.context_hash(rng));
                prop_assert_eq!(target.image(), m.image());
            }
            // The image restores the same logical state.
            let mut replayed = MemSystem::new(config_from(sel));
            replayed.restore_image(&m.image()).unwrap();
            prop_assert_eq!(state_bytes(&replayed), saved);
        }
    }

    #[test]
    fn unallocated_lines_hash_and_image_as_zeros() {
        // A fresh hierarchy allocates no line array; restoring its own
        // (empty) snapshot allocates a zeroed one. Same logical state, so
        // the same context and image.
        let fresh = MemSystem::new(MemConfig::default());
        let mut restored = MemSystem::new(MemConfig::default());
        restored
            .restore_state(&mut SnapReader::new(&state_bytes(&fresh)))
            .unwrap();
        assert!(fresh.l2.lines.is_empty() && !restored.l2.lines.is_empty());
        assert_eq!(fresh.context_hash(9), restored.context_hash(9));
        assert_eq!(fresh.image(), restored.image());
    }

    #[test]
    fn context_hash_sees_swapped_dirty_bits_and_rng() {
        // Two resident lines in different sets; the variants differ only
        // in which of them is dirty (bit 63 of two line words), which a
        // multiply-only lane hash cannot tell apart.
        let (x, y) = (0x4000_0000, 0x4000_0040);
        let mut base = warmed(0, 7, 0);
        base.access(x, false);
        base.access(y, false);
        let mut x_dirty = base.clone();
        x_dirty.access(x, true);
        x_dirty.access(y, false);
        let mut y_dirty = base.clone();
        y_dirty.access(x, false);
        y_dirty.access(y, true);
        assert_ne!(state_bytes(&x_dirty), state_bytes(&y_dirty));
        assert_ne!(x_dirty.context_hash(1), y_dirty.context_hash(1));
        assert_ne!(base.context_hash(1), base.context_hash(2));
    }

    #[test]
    fn wrong_length_image_is_refused_untouched() {
        let donor = warmed(0, 3, 20);
        let mut m = warmed(0, 11, 40);
        let before = (m.image(), state_bytes(&m));
        let image = donor.image();
        for bad in [&image[..image.len() - 1], &[][..], &[0u8; 64][..]] {
            assert!(m.restore_image(bad).is_err());
            assert_eq!((m.image(), state_bytes(&m)), before);
        }
        // An image of another geometry is refused the same way.
        assert!(m.restore_image(&warmed(1, 3, 20).image()).is_err());
        assert_eq!((m.image(), state_bytes(&m)), before);
        // A resident count beyond the associativity is refused too.
        let mut overfull = image.clone();
        let l1_counts = 8 * (256 + 3);
        overfull[l1_counts] = 5;
        assert!(m.restore_image(&overfull).is_err());
        assert_eq!((m.image(), state_bytes(&m)), before);
        m.restore_image(&image).unwrap();
        assert_eq!(state_bytes(&m), state_bytes(&donor));
    }

    fn j_scatter(x: u64) -> u64 {
        x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(31)
    }

    #[test]
    fn stride_zero_run_is_batched_hits() {
        let mut m = MemSystem::new(MemConfig::default());
        let total = m.access_run(0x1000, 0, 100, false);
        // One cold miss plus 99 L1 hits.
        assert_eq!(m.l1_stats().hits, 99);
        assert_eq!(m.l1_stats().misses, 1);
        assert!(total > 99 * MemConfig::default().l1_latency);
    }

    #[test]
    fn periodic_stream_batches_after_warmup() {
        let mut m = MemSystem::new(MemConfig::default());
        // A loop body touching the same two lines 1000 times: after the
        // concrete warmup the batcher should account nearly all hits in
        // bulk, and the latencies must still be per-access exact.
        let refs: Vec<(u64, bool)> = (0..1000)
            .flat_map(|_| [(0x8000u64, false), (0x9000u64, true)])
            .collect();
        let mut lats = Vec::new();
        m.cost_stream(&refs, &mut lats);
        assert_eq!(lats.len(), refs.len());
        assert_eq!(m.l1_stats().misses, 2);
        assert_eq!(m.l1_stats().hits, 1998);
    }
}

#[cfg(test)]
mod prefetch_tests {
    use super::*;

    #[test]
    fn streaming_misses_are_absorbed_by_the_prefetcher() {
        let mut m = MemSystem::new(MemConfig::default());
        for i in 0..1024u64 {
            m.access(0x10_0000 + i * 64, false); // one access per line
        }
        // All but the stream-training misses hit the prefetcher.
        assert!(
            m.prefetch_hits() > 1000,
            "prefetch hits {}",
            m.prefetch_hits()
        );
    }

    #[test]
    fn random_misses_are_not_prefetched() {
        let mut m = MemSystem::new(MemConfig::default());
        let mut addr = 1u64;
        for _ in 0..512 {
            addr = addr.wrapping_mul(6364136223846793005).wrapping_add(1);
            m.access(addr % (1 << 30), false);
        }
        assert!(
            m.prefetch_hits() < 20,
            "random pattern prefetched {} times",
            m.prefetch_hits()
        );
    }

    #[test]
    fn prefetcher_can_be_disabled() {
        let mut m = MemSystem::new(MemConfig {
            prefetch: false,
            ..MemConfig::default()
        });
        for i in 0..256u64 {
            m.access(i * 64, false);
        }
        assert_eq!(m.prefetch_hits(), 0);
    }
}
