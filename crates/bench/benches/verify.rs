#![allow(missing_docs)] // criterion_group! generates undocumented glue

//! Criterion bench for the trace verifier and the happens-before analyzer:
//! events/second over the synthetic `Handoff::BENCH` trace (the profiler
//! bench's signal chain — context switches, event waits with wakers, GPU submissions).
//! The trace is built once outside the timing loop, so the figures isolate
//! the two passes from trace construction.

use criterion::{criterion_group, criterion_main, Criterion};
use etwtrace::{hb, verify};
use repro_bench::Handoff;

fn bench_verify(c: &mut Criterion) {
    let trace = Handoff::BENCH.trace();
    let n = trace.events().len();
    eprintln!("# synthetic trace: {n} events");
    c.bench_function("verify_invariants_250k_events", |b| {
        b.iter(|| verify::verify_trace(&trace))
    });
    c.bench_function("verify_happens_before_250k_events", |b| {
        b.iter(|| hb::analyze(&trace, &hb::HbOptions::default()))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_verify
}
criterion_main!(benches);
