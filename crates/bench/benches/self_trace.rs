#![allow(missing_docs)] // criterion_group! generates undocumented glue

//! Self-trace overhead bench: the full analyzer battery (blame, critical
//! path, invariant verifier, happens-before, TLP) over the ~250k-event
//! synthetic `Handoff::BENCH` trace, measured twice in the same process — once with the
//! span tracer disabled, once enabled. The two figures are emitted as a
//! `self_trace/off/…` + `self_trace/on/…` pair so `xtask bench-gate` can
//! pin the enabled-tracer overhead (< 5%) from one invocation, immune to
//! cross-machine noise. The trace is built outside the timing loop.

use criterion::{criterion_group, criterion_main, Criterion};
use etwtrace::{analysis, blame, critical, hb, verify, EtlTrace, PidSet};
use repro_bench::Handoff;

/// Every span-instrumented analyzer pass, back to back. Returns a value
/// derived from each result so none of the passes can be optimized away.
fn analyzer_battery(trace: &EtlTrace, filter: &PidSet) -> usize {
    let blamed = blame::blame(trace, filter);
    let cp = critical::critical_path(trace, filter);
    let verified = verify::verify_trace(trace);
    let causal = hb::analyze(trace, &hb::HbOptions::default());
    let profile = analysis::concurrency(trace, filter);
    blamed.ranking.len()
        + cp.critical_fraction().is_some() as usize
        + verified.diagnostics.len()
        + causal.findings.len()
        + profile.fractions().len()
}

fn bench_self_trace(c: &mut Criterion) {
    let trace = Handoff::BENCH.trace();
    let filter: PidSet = [1u64].into_iter().collect();
    simobs::span::set_enabled(false);
    c.bench_function("self_trace/off/analyzers_250k_events", |b| {
        b.iter(|| analyzer_battery(&trace, &filter))
    });
    simobs::span::set_enabled(true);
    c.bench_function("self_trace/on/analyzers_250k_events", |b| {
        b.iter(|| analyzer_battery(&trace, &filter))
    });
    simobs::span::set_enabled(false);
    simobs::span::reset();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_self_trace
}
criterion_main!(benches);
