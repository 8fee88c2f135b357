//! CPU core timing models.
//!
//! Two core classes are modeled after the paper's Table 2 (Section 4.2.1):
//!
//! * **Rocket-class** ([`CpuConfig::rocket`]): a 5-stage in-order scalar
//!   core. Issue is strictly in order at one instruction per cycle;
//!   dependent instructions stall until their producer completes.
//! * **BOOM-class** ([`CpuConfig::boom`]): a 3-wide superscalar
//!   out-of-order core with a reorder-buffer-bounded window; independent
//!   instructions (including cache misses) overlap.
//!
//! Both execute [`KernelTrace`]s against the shared [`MemSystem`], so cache
//! behavior and bus contention feed directly into timing. Branch outcomes
//! are drawn from a deterministic per-run LCG, with distinct accuracies for
//! loop back-edges and data-dependent branches.

use crate::kernel::{InstrClass, Kernel, KernelTrace};
use crate::mem::MemSystem;
use rose_sim_core::snap::{SnapError, SnapReader, SnapWriter};
use std::collections::VecDeque;

/// Microarchitectural parameters of a core timing model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CpuConfig {
    /// Dispatch width (instructions per cycle).
    pub width: usize,
    /// Reorder-buffer size (in-flight instruction window). `1` for a
    /// strictly in-order core.
    pub window: usize,
    /// True for in-order issue (dependent stall blocks younger instrs).
    pub in_order: bool,
    /// Integer ALU latency.
    pub int_latency: u64,
    /// FP add latency.
    pub fp_add_latency: u64,
    /// FP multiply / FMA latency.
    pub fp_mul_latency: u64,
    /// FP divide (and transcendental approximation) latency.
    pub fp_div_latency: u64,
    /// Pipeline refill penalty on a branch mispredict.
    pub mispredict_penalty: u64,
    /// Mispredict probability for well-structured (loop) branches.
    pub easy_branch_miss: f64,
    /// Mispredict probability for data-dependent branches.
    pub hard_branch_miss: f64,
    /// Load/store issue ports.
    pub mem_ports: usize,
    /// Floating-point issue ports.
    pub fp_ports: usize,
}

impl CpuConfig {
    /// The in-order Rocket-class configuration.
    pub fn rocket() -> CpuConfig {
        CpuConfig {
            width: 1,
            window: 1,
            in_order: true,
            int_latency: 1,
            fp_add_latency: 4,
            fp_mul_latency: 4,
            fp_div_latency: 22,
            mispredict_penalty: 3,
            easy_branch_miss: 0.01,
            hard_branch_miss: 0.12,
            mem_ports: 1,
            fp_ports: 1,
        }
    }

    /// The 3-wide out-of-order BOOM-class configuration.
    pub fn boom() -> CpuConfig {
        CpuConfig {
            width: 3,
            window: 96,
            in_order: false,
            int_latency: 1,
            fp_add_latency: 4,
            fp_mul_latency: 4,
            fp_div_latency: 22,
            mispredict_penalty: 12,
            easy_branch_miss: 0.004,
            hard_branch_miss: 0.07,
            mem_ports: 2,
            fp_ports: 2,
        }
    }

    fn latency_of(&self, class: InstrClass) -> u64 {
        match class {
            InstrClass::IntAlu | InstrClass::Branch => self.int_latency,
            InstrClass::FpAdd => self.fp_add_latency,
            InstrClass::FpMul => self.fp_mul_latency,
            InstrClass::FpDiv => self.fp_div_latency,
            // Memory latencies come from the memory system.
            InstrClass::Load | InstrClass::Store => 0,
        }
    }
}

/// Aggregate execution counters for one core.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CpuStats {
    /// Dynamic instructions executed (scaled for sampled kernels).
    pub instrs: u64,
    /// Cycles consumed (scaled).
    pub cycles: u64,
    /// Branch mispredictions observed in simulated (unscaled) portions.
    pub mispredicts: u64,
}

impl CpuStats {
    /// Achieved instructions per cycle.
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instrs as f64 / self.cycles as f64
        }
    }
}

/// A CPU core timing model instance.
#[derive(Debug, Clone)]
pub struct CpuModel {
    config: CpuConfig,
    stats: CpuStats,
    branch_rng: u64,
}

impl CpuModel {
    /// Creates a core with the given configuration.
    pub fn new(config: CpuConfig) -> CpuModel {
        CpuModel {
            config,
            stats: CpuStats::default(),
            branch_rng: 0x1234_5678_9abc_def0,
        }
    }

    /// The core configuration.
    pub fn config(&self) -> &CpuConfig {
        &self.config
    }

    /// Accumulated execution counters.
    pub fn stats(&self) -> CpuStats {
        self.stats
    }

    /// Re-accounts a cached kernel execution (same shape replayed from the
    /// SoC's cost cache) so instruction/cycle counters stay faithful.
    pub fn add_cached(&mut self, cycles: u64, instrs: u64) {
        self.stats.cycles += cycles;
        self.stats.instrs += instrs;
    }

    /// The branch-predictor RNG position (part of the persisted timing
    /// cache's expansion-context key).
    pub fn branch_rng(&self) -> u64 {
        self.branch_rng
    }

    /// Replays a kernel expansion recorded in the persisted timing cache:
    /// re-applies the cold run's counter deltas and fast-forwards the
    /// branch RNG to where that run left it. Expansion is a pure function
    /// of (kernel, memory state, RNG position, core config) — all covered
    /// by the cache key — so this is bit-identical to re-running it.
    pub fn replay_expansion(&mut self, cycles: u64, instrs: u64, mispredicts: u64, post_rng: u64) {
        self.stats.cycles += cycles;
        self.stats.instrs += instrs;
        self.stats.mispredicts += mispredicts;
        self.branch_rng = post_rng;
    }

    /// Serializes the core's dynamic state: execution counters and the
    /// branch-predictor noise stream. The configuration is structural.
    pub fn save_state(&self, w: &mut SnapWriter) {
        let CpuModel {
            config: _,
            stats,
            branch_rng,
        } = self;
        w.u64(stats.instrs);
        w.u64(stats.cycles);
        w.u64(stats.mispredicts);
        w.u64(*branch_rng);
    }

    /// Restores the core's dynamic state.
    ///
    /// # Errors
    ///
    /// Propagates [`SnapError`] on a malformed snapshot.
    pub fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.stats.instrs = r.u64()?;
        self.stats.cycles = r.u64()?;
        self.stats.mispredicts = r.u64()?;
        self.branch_rng = r.u64()?;
        Ok(())
    }

    fn next_rand(&mut self) -> f64 {
        // xorshift64*
        let mut x = self.branch_rng;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.branch_rng = x;
        (x.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Executes a trace against `mem`, returning the (scaled) cycle cost.
    ///
    /// Memory accesses depend only on each instruction's `(addr, write)`
    /// pair — never on pipeline state — and occur in program order, so they
    /// are pre-costed as one stream through [`MemSystem::cost_stream`]
    /// (which batches periodic loop bodies in closed form) and the pipeline
    /// pass below consumes the resulting latencies. Bit-identical to
    /// interleaving the accesses with the pipeline walk.
    pub fn run_trace(&mut self, trace: &KernelTrace, mem: &mut MemSystem) -> u64 {
        if trace.instrs.is_empty() {
            return 0;
        }
        let refs: Vec<(u64, bool)> = trace
            .instrs
            .iter()
            .filter_map(|instr| match instr.class {
                // rose-lint: allow(PANIC002, the trace generator sets addr on every Load/Store)
                InstrClass::Load => Some((instr.addr.expect("load without address"), false)),
                // rose-lint: allow(PANIC002, the trace generator sets addr on every Load/Store)
                InstrClass::Store => Some((instr.addr.expect("store without address"), true)),
                _ => None,
            })
            .collect();
        let mut mem_lats = Vec::new();
        mem.cost_stream(&refs, &mut mem_lats);
        let mut mem_lats = mem_lats.into_iter();
        let cfg = self.config;
        let window = cfg.window.clamp(1, 512);
        // Completion times of the most recent `window` instructions.
        let mut completed: VecDeque<u64> = VecDeque::with_capacity(window + 1);
        let mut dispatch_cycle: u64 = 0;
        let mut slots_used: usize = 0;
        let mut last_issue: u64 = 0;
        let mut max_completion: u64 = 0;
        // Structural hazards: next-free cycle per issue port.
        let mut mem_port_free = vec![0u64; cfg.mem_ports.max(1)];
        let mut fp_port_free = vec![0u64; cfg.fp_ports.max(1)];

        for instr in &trace.instrs {
            // Dispatch slot accounting.
            if slots_used >= cfg.width {
                dispatch_cycle += 1;
                slots_used = 0;
            }
            // ROB full: stall dispatch until the oldest in-flight retires.
            if completed.len() >= window {
                // rose-lint: allow(PANIC002, guarded by completed.len() >= window with window >= 1)
                let oldest = *completed.front().expect("nonempty window");
                if oldest > dispatch_cycle {
                    dispatch_cycle = oldest;
                    slots_used = 0;
                }
            }

            // Operand readiness from dependency distances.
            let mut ready = dispatch_cycle;
            for dep in [instr.dep1, instr.dep2] {
                let dep = dep as usize;
                if dep > 0 && dep <= completed.len() {
                    ready = ready.max(completed[completed.len() - dep]);
                }
            }

            // Issue.
            let mut start = if cfg.in_order {
                let s = ready.max(last_issue).max(dispatch_cycle);
                last_issue = s;
                // In-order issue consumes the pipeline slot at `s`.
                dispatch_cycle = s;
                s
            } else {
                ready.max(dispatch_cycle)
            };

            // Structural hazard: claim the earliest-free issue port.
            let port_pool = match instr.class {
                InstrClass::Load | InstrClass::Store => Some(&mut mem_port_free),
                InstrClass::FpAdd | InstrClass::FpMul | InstrClass::FpDiv => {
                    Some(&mut fp_port_free)
                }
                _ => None,
            };
            if let Some(ports) = port_pool {
                let (idx, &free_at) = ports
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, &t)| t)
                    // rose-lint: allow(PANIC002, port pools are config-sized with at least one port)
                    .expect("nonempty port pool");
                start = start.max(free_at);
                ports[idx] = start + 1;
            }

            // Execution latency (memory latencies were pre-costed above).
            let latency = match instr.class {
                InstrClass::Load => {
                    // rose-lint: allow(PANIC002, one pre-costed latency exists per Load/Store)
                    mem_lats.next().expect("pre-costed load latency")
                }
                InstrClass::Store => {
                    // Stores retire through a store buffer: the cache state
                    // change is accounted but does not stall the pipeline.
                    // rose-lint: allow(PANIC002, one pre-costed latency exists per Load/Store)
                    mem_lats.next().expect("pre-costed store latency");
                    1
                }
                c => cfg.latency_of(c),
            };
            let completion = start + latency.max(1);

            // Branch resolution.
            if instr.class == InstrClass::Branch {
                let miss_p = if instr.hard_to_predict {
                    cfg.hard_branch_miss
                } else {
                    cfg.easy_branch_miss
                };
                if self.next_rand() < miss_p {
                    self.stats.mispredicts += 1;
                    let redirect = completion + cfg.mispredict_penalty;
                    if redirect > dispatch_cycle {
                        dispatch_cycle = redirect;
                        slots_used = 0;
                    }
                }
            }

            slots_used += 1;
            completed.push_back(completion);
            if completed.len() > window {
                completed.pop_front();
            }
            max_completion = max_completion.max(completion);
        }

        let raw_cycles = max_completion.max(1);
        let scaled = (raw_cycles as f64 * trace.scale).round() as u64;
        self.stats.cycles += scaled;
        self.stats.instrs += trace.total_instrs();
        scaled
    }

    /// Convenience: expand and run a kernel.
    pub fn run_kernel(&mut self, kernel: &Kernel, mem: &mut MemSystem) -> u64 {
        self.run_trace(&kernel.trace(), mem)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{ElemKind, Kernel};
    use crate::mem::MemConfig;

    fn mem() -> MemSystem {
        MemSystem::new(MemConfig::default())
    }

    #[test]
    fn boom_beats_rocket_on_matmul() {
        let k = Kernel::MatMul {
            m: 32,
            k: 32,
            n: 32,
        };
        let mut mem_r = mem();
        let mut mem_b = mem();
        let rocket = CpuModel::new(CpuConfig::rocket()).run_kernel(&k, &mut mem_r);
        let boom = CpuModel::new(CpuConfig::boom()).run_kernel(&k, &mut mem_b);
        assert!(
            boom * 3 < rocket * 2,
            "BOOM ({boom}) should be >1.5x faster than Rocket ({rocket})"
        );
    }

    #[test]
    fn ipc_in_plausible_ranges() {
        let k = Kernel::Elementwise {
            n: 20_000,
            kind: ElemKind::BatchNorm,
        };
        let mut m1 = mem();
        let mut rocket = CpuModel::new(CpuConfig::rocket());
        rocket.run_kernel(&k, &mut m1);
        let ipc_r = rocket.stats().ipc();
        assert!(
            (0.2..=1.0).contains(&ipc_r),
            "Rocket IPC {ipc_r} out of range"
        );

        let mut m2 = mem();
        let mut boom = CpuModel::new(CpuConfig::boom());
        boom.run_kernel(&k, &mut m2);
        let ipc_b = boom.stats().ipc();
        assert!((0.8..=3.0).contains(&ipc_b), "BOOM IPC {ipc_b} out of range");
        assert!(ipc_b > ipc_r);
    }

    #[test]
    fn cost_scales_with_kernel_size() {
        let mut m = mem();
        let mut cpu = CpuModel::new(CpuConfig::boom());
        let small = cpu.run_kernel(&Kernel::Memcpy { bytes: 4 << 10 }, &mut m);
        let large = cpu.run_kernel(&Kernel::Memcpy { bytes: 4 << 20 }, &mut m);
        let ratio = large as f64 / small as f64;
        assert!(
            (500.0..2100.0).contains(&ratio),
            "1024x data should be ~1024x cycles, got {ratio}"
        );
    }

    #[test]
    fn pointer_chasing_is_slower_than_streaming() {
        // Same instruction count, different locality.
        let mut m1 = mem();
        let mut m2 = mem();
        let mut cpu1 = CpuModel::new(CpuConfig::rocket());
        let mut cpu2 = CpuModel::new(CpuConfig::rocket());
        let stream = cpu1.run_kernel(&Kernel::Memcpy { bytes: 80_000 }, &mut m1);
        let chase = cpu2.run_kernel(&Kernel::FrameworkNode { tensors: 22 }, &mut m2);
        // ~10k iterations each (4 vs 8 instrs/iter); normalize per instr.
        let per_instr_stream = stream as f64 / cpu1.stats().instrs as f64;
        let per_instr_chase = chase as f64 / cpu2.stats().instrs as f64;
        assert!(
            per_instr_chase > 1.5 * per_instr_stream,
            "chase CPI {per_instr_chase} vs stream CPI {per_instr_stream}"
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let k = Kernel::FrameworkNode { tensors: 3 };
        let run = || {
            let mut m = mem();
            CpuModel::new(CpuConfig::boom()).run_kernel(&k, &mut m)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn empty_trace_is_free() {
        let t = KernelTrace {
            instrs: vec![],
            scale: 1.0,
        };
        let mut m = mem();
        assert_eq!(CpuModel::new(CpuConfig::boom()).run_trace(&t, &mut m), 0);
    }

    #[test]
    fn contention_slows_cpu_kernels() {
        let k = Kernel::Memcpy { bytes: 1 << 20 };
        let mut quiet_mem = mem();
        let quiet = CpuModel::new(CpuConfig::boom()).run_kernel(&k, &mut quiet_mem);
        let mut busy_mem = mem();
        busy_mem.bus_mut().set_dma_utilization(0.85);
        let busy = CpuModel::new(CpuConfig::boom()).run_kernel(&k, &mut busy_mem);
        assert!(busy > quiet, "busy {busy} vs quiet {quiet}");
    }
}
