#![allow(missing_docs)] // criterion_group! generates undocumented glue

//! Criterion bench for the bottleneck profiler itself: blocked-time blame
//! and wait-for-graph critical-path extraction over the synthetic
//! `Handoff::BENCH` trace (a signal chain threaded through 24 threads with
//! periodic GPU submissions — every event family the profiler walks). The trace is
//! built once outside the timing loop, so the figures isolate the two
//! analyses from trace construction.

use criterion::{criterion_group, criterion_main, Criterion};
use etwtrace::{blame, critical, PidSet};
use repro_bench::Handoff;

fn bench_profiler(c: &mut Criterion) {
    let trace = Handoff::BENCH.trace();
    let filter: PidSet = [1u64].into_iter().collect();
    c.bench_function("profiler_blame_250k_events", |b| {
        b.iter(|| blame::blame(&trace, &filter))
    });
    c.bench_function("profiler_critical_path_250k_events", |b| {
        b.iter(|| critical::critical_path(&trace, &filter))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_profiler
}
criterion_main!(benches);
