#![allow(missing_docs)] // criterion_group! generates undocumented glue

//! Sharded streaming analyzers against the materialize-then-fold pipeline,
//! over the ~250k-event synthetic `Handoff::BENCH` trace. Four
//! comparisons, three of them pinned by `xtask bench-gate` as same-run
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
//! * `shard/{materialized,seek}/window_tail_250k_events` — an analyzer over
//!   the trace's last 2%: the materializing reader must decode all 250k
//!   events to reach the tail, the seek path binary-searches the block
//!   index (`blocks_in_window`) and decodes only the overlapping blocks.
//!   This is the pair the gate holds to a ≥5× speedup.
//! * `shard/fold{1,2}/verify_hb_250k_events` — `verify_sharded` plus
//!   `hb::analyze_sharded`, two ordered `fold_events` passes, on a 1- and
//!   a 2-worker pool. At width 2 one worker folds while the other decodes
//!   ahead, so the pair pins the fold pipeline's parallel gain.
//!
//! Every timed region covers the full pipeline from encoded bytes to the
//! report figure — index parse and buffer hand-off included.

use criterion::{criterion_group, criterion_main, Criterion};
use etwtrace::{analysis, hb, setl3, verify, HbOptions, ShardedTrace, TraceEvent};
use parastat::ThreadPoolRunner;
use repro_bench::Handoff;
use simcore::SimTime;

/// Total ready-to-running latency of dispatches at or after `lo` — the
/// "tail scheduling latency" figure both window benches must agree on.
fn tail_latency_fold(at: SimTime, ready_since: Option<SimTime>, lo: SimTime, total: &mut u64) {
    if at >= lo {
        if let Some(ready) = ready_since {
            *total += at.as_nanos() - ready.as_nanos();
        }
    }
}

fn bench_shard(c: &mut Criterion) {
    let trace = Handoff::BENCH.trace();
    let encoded = setl3::encode(&trace);
    let filter = trace.pids_by_name("app");
    let pool1 = ThreadPoolRunner::new(1);
    let pool2 = ThreadPoolRunner::new(2);
    let pool4 = ThreadPoolRunner::new(4);
    let rounds = Handoff::BENCH.rounds;
    let tail_lo = Handoff::round_start(rounds - rounds / 50);

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

    c.bench_function("shard/materialized/window_tail_250k_events", |b| {
        b.iter(|| {
            let t = setl3::read_setl3(&encoded[..]).expect("decode");
            let mut total = 0u64;
            for ev in t.events() {
                if let TraceEvent::CSwitch {
                    at,
                    ready_since,
                    new: Some(_),
                    ..
                } = ev
                {
                    tail_latency_fold(*at, *ready_since, tail_lo, &mut total);
                }
            }
            total
        })
    });
    c.bench_function("shard/seek/window_tail_250k_events", |b| {
        b.iter(|| {
            let s = ShardedTrace::from_bytes(encoded.clone()).expect("index");
            let mut total = 0u64;
            for block in s.blocks_in_window(tail_lo, s.end()) {
                let mut cursor = s.cursor(block).expect("hash-valid block");
                while let Some(ev) = cursor.next_event().expect("well-formed block") {
                    if let TraceEvent::CSwitch {
                        at,
                        ready_since,
                        new: Some(_),
                        ..
                    } = ev
                    {
                        tail_latency_fold(at, ready_since, tail_lo, &mut total);
                    }
                }
            }
            total
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_shard
}
criterion_main!(benches);
