#![allow(missing_docs)] // criterion_group! generates undocumented glue

//! Timeline fold throughput over the ~250k-event synthetic
//! `Handoff::BENCH` trace (the profiler and self-trace benches' signal
//! chain): once over the in-memory event log (`fold_trace`) and once
//! through the streaming SETL v3 decoder (`read_timeline`), which adds
//! varint decode + checksum verification on top of the fold. Encoding happens outside the timing
//! loop. `xtask bench-gate` pins both figures.

use criterion::{criterion_group, criterion_main, Criterion};
use etwtrace::{setl3, timeline};
use repro_bench::Handoff;

const BUCKETS: usize = 64;

fn bench_timeline(c: &mut Criterion) {
    let trace = Handoff::BENCH.trace();
    let encoded = setl3::encode(&trace);
    c.bench_function("timeline/fold_250k_events", |b| {
        b.iter(|| timeline::fold_trace(&trace, BUCKETS).totals.busy_cpu_ns)
    });
    c.bench_function("timeline/stream_v3_250k_events", |b| {
        b.iter(|| {
            timeline::read_timeline(&encoded[..], BUCKETS)
                .expect("stream")
                .totals
                .busy_cpu_ns
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_timeline
}
criterion_main!(benches);
