//! Regenerates Figure 15: co-simulation throughput vs sync granularity.
use rose_bench::{write_csv, TextTable};
use rose_sim_core::csv::CsvLog;

fn main() {
    let points = rose_bench::fig15(4.0);
    let mut t = TextTable::new(&[
        "frames/sync",
        "cycles/sync",
        "throughput (sim MHz)",
        "env wall (s)",
        "rtl wall (s)",
    ]);
    let mut csv = CsvLog::new(&[
        "frames_per_sync",
        "cycles_per_sync",
        "sim_mhz",
        "env_wall_s",
        "rtl_wall_s",
    ]);
    for p in &points {
        t.row(vec![
            p.frames_per_sync.to_string(),
            format!("{}M", p.cycles_per_sync / 1_000_000),
            format!("{:.1}", p.sim_mhz),
            format!("{:.3}", p.env_wall_s),
            format!("{:.3}", p.rtl_wall_s),
        ]);
        csv.row(&[
            p.frames_per_sync as f64,
            p.cycles_per_sync as f64,
            p.sim_mhz,
            p.env_wall_s,
            p.rtl_wall_s,
        ]);
    }
    t.print("Figure 15: simulation throughput vs synchronization granularity (TCP deployment)");
    println!("paper: throughput grows with granularity, bottlenecked at fine granularity by per-sync polling and at coarse granularity by the RTL simulator's native speed");
    if let Some(p) = write_csv("fig15.csv", &csv) {
        println!("wrote {}", p.display());
    }
    rose_bench::persist_timing_cache();
}
