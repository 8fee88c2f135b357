//! End-to-end co-simulation benchmarks: the cost of a synchronization
//! step across granularities (the simulator-performance side of Figure
//! 15) and of whole short missions.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rose::mission::{build_mission, run_mission, MissionConfig};

fn bench_sync_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("sync_step");
    group.sample_size(10);
    for frames_per_sync in [1u64, 10, 40] {
        group.bench_with_input(
            BenchmarkId::from_parameter(frames_per_sync),
            &frames_per_sync,
            |b, &fps| {
                let config = MissionConfig {
                    frame_hz: 100,
                    frames_per_sync: fps,
                    max_sim_seconds: 1e9,
                    ..MissionConfig::default()
                };
                let (mut sync, _metrics) = build_mission(&config);
                // Warm the kernel-cost caches out of the timing loop.
                sync.run_syncs(4);
                b.iter(|| {
                    sync.step_sync();
                    black_box(sync.time())
                });
            },
        );
    }
    group.finish();
}

fn bench_short_mission(c: &mut Criterion) {
    let mut group = c.benchmark_group("mission");
    group.sample_size(10);
    group.bench_function("two_sim_seconds", |b| {
        b.iter(|| {
            let report = run_mission(&MissionConfig {
                max_sim_seconds: 2.0,
                ..MissionConfig::default()
            });
            black_box(report.sync_stats.sim_cycles)
        })
    });
    group.finish();
}

/// Overhead guard for the tracing layer: the same mission untraced vs
/// traced. Disabled tracing must cost only a branch per would-be event,
/// so "off" here should match the plain mission benchmarks.
fn bench_trace_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace_overhead");
    group.sample_size(10);
    for (name, trace) in [("off", false), ("on", true)] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let report = run_mission(&MissionConfig {
                    max_sim_seconds: 1.0,
                    trace,
                    ..MissionConfig::default()
                });
                black_box(report.sync_stats.sim_cycles)
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_sync_step,
    bench_short_mission,
    bench_trace_overhead
);
criterion_main!(benches);
