//! Engine micro-benchmark: `Engine::step()` on the canonical topologies
//! (clique / random-geometric / sparse-with-chords) with each reach kernel
//! pinned at spawn — the CSR scatter (`scratch`) and the bitmask rows
//! (`bitset`; dense rows are where it shines, the sparse workloads
//! document its break-even) — plus the seed implementation
//! (`step_legacy`) for a same-binary baseline. The machine-readable
//! counterpart is the `bench_engine` binary, which writes
//! `BENCH_engine.json`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use radio_bench::enginebench::{workload_engine_mode, WORKLOADS};
use radio_sim::StepMode;
use std::time::Duration;

fn bench_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("engine_step");
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_secs(1));
    group.sample_size(20);
    for name in WORKLOADS {
        let mut engine = workload_engine_mode(name, StepMode::Scalar);
        engine.run_rounds(64); // amortize scratch capacity growth
        group.bench_with_input(BenchmarkId::new("scratch", name), &name, |b, _| {
            b.iter(|| {
                engine.step();
                engine.round()
            });
        });
        let mut engine = workload_engine_mode(name, StepMode::Scalar);
        engine.run_rounds(64);
        group.bench_with_input(BenchmarkId::new("legacy", name), &name, |b, _| {
            b.iter(|| {
                engine.step_legacy();
                engine.round()
            });
        });
        // Bitset mode builds the bitmask rows at spawn, so the measured
        // loop sees only the steady-state word-wise delivery.
        let mut engine = workload_engine_mode(name, StepMode::Bitset);
        engine.run_rounds(64);
        group.bench_with_input(BenchmarkId::new("bitset", name), &name, |b, _| {
            b.iter(|| {
                engine.step();
                engine.round()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_step);
criterion_main!(benches);
