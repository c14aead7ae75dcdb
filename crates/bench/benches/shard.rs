#![allow(missing_docs)] // criterion_group! generates undocumented glue

//! Sharded streaming analyzers against the materialize-then-fold pipeline,
//! over the ~250k-event synthetic `Handoff::BENCH` trace. Three
//! comparisons, two of them pinned by `xtask bench-gate` as same-run
//! pairs (immune to baseline drift across machines):
//!
//! * `shard/materialized/tlp_250k_events` — the pre-shard pipeline:
//!   `setl3::read_setl3` materializes every event into a `Vec`, then
//!   `analysis::concurrency` folds it.
//! * `shard/streaming{1,4}/tlp_250k_events` — `ShardedTrace::from_bytes`
//!   parses only the block index, then `concurrency_sharded` folds the
//!   events in order through `fold_events` while blocks decode on a 1- or
//!   4-worker pool. Only the fold window's blocks are ever alive, never a
//!   `Vec` of the whole trace.
//! * `shard/fold{1,2}/verify_hb_250k_events` — `verify_sharded` plus
//!   `hb::analyze_sharded`, two ordered `fold_events` passes, on a 1- and
//!   a 2-worker pool. At width 2 one worker folds while the other decodes
//!   ahead, so the pair pins the fold pipeline's parallel gain.
//!
//! Every timed region covers the full pipeline from encoded bytes to the
//! report figure — index parse and buffer hand-off included.

use criterion::{criterion_group, criterion_main, Criterion};
use etwtrace::{analysis, hb, setl3, verify, HbOptions, ShardedTrace};
use parastat::ThreadPoolRunner;
use repro_bench::Handoff;

fn bench_shard(c: &mut Criterion) {
    let trace = Handoff::BENCH.trace();
    let encoded = setl3::encode(&trace);
    let filter = trace.pids_by_name("app");
    let pool1 = ThreadPoolRunner::new(1);
    let pool2 = ThreadPoolRunner::new(2);
    let pool4 = ThreadPoolRunner::new(4);

    c.bench_function("shard/materialized/tlp_250k_events", |b| {
        b.iter(|| {
            let t = setl3::read_setl3(&encoded[..]).expect("decode");
            analysis::concurrency(&t, &filter).tlp()
        })
    });
    c.bench_function("shard/streaming1/tlp_250k_events", |b| {
        b.iter(|| {
            let s = ShardedTrace::from_bytes(encoded.clone()).expect("index");
            analysis::concurrency_sharded(&s, &filter, &pool1, 1)
                .expect("in-memory shards cannot fail I/O")
                .tlp()
        })
    });
    c.bench_function("shard/streaming4/tlp_250k_events", |b| {
        b.iter(|| {
            let s = ShardedTrace::from_bytes(encoded.clone()).expect("index");
            analysis::concurrency_sharded(&s, &filter, &pool4, 4)
                .expect("in-memory shards cannot fail I/O")
                .tlp()
        })
    });

    for (name, pool, shards) in [
        ("shard/fold1/verify_hb_250k_events", &pool1, 1),
        ("shard/fold2/verify_hb_250k_events", &pool2, 2),
    ] {
        c.bench_function(name, |b| {
            b.iter(|| {
                let s = ShardedTrace::from_bytes(encoded.clone()).expect("index");
                let report = verify::verify_sharded(&s, pool, shards)
                    .expect("in-memory shards cannot fail I/O");
                let causal = hb::analyze_sharded(&s, &HbOptions::default(), pool, shards)
                    .expect("in-memory shards cannot fail I/O");
                (report.is_clean(), causal.is_clean())
            })
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_shard
}
criterion_main!(benches);
