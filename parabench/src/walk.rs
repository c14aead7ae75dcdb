//! The traced run's layer walk: every request of a workload's input set
//! taken through every layer on the calling thread, one public call per
//! span, so each layer reports a number on every workload.
//!
//! Per request: `Experiment::run_once`'s public calls made one by one
//! (`workloads::build`, `Machine::run_for`, `RunMetrics::collect`,
//! `Machine::into_trace`, then the critical-path, blame, verify and
//! happens-before passes), `setl3::encode`, `SimStore::save` and
//! `SimStore::load`. `load` has no public sub-calls, so its steps run again
//! as probes on the same inputs: `fs::read` of the entry, `read_setl3`,
//! and the verify + happens-before re-run. Then each analyser on the
//! decoded trace, and the same analysers at `--analyzer-shards 2` after
//! `ShardedTrace::from_bytes` and a bare walk over every block cursor.
//! After the last request: `Measurement::aggregate` and the Table II
//! report and CSV.

use crate::recorder::{Recorder, Totals};
use crate::tools::{SHARDS, TIMELINE_BUCKETS};
use crate::workload::{digest, requests, Prepared, Tally};
use etwtrace::{
    analysis, blame, critical, hb, setl3, verify, ConcurrencyProfile, CriticalPath, GpuUtil,
    LatencyStats, PidSet, ScheduleStats, ShardedTrace, Timeline,
};
use parastat::{
    paper, suite, LoadOutcome, Measurement, RunMetrics, RunRequest, SimStore, SingleRun,
    ThreadPoolRunner,
};
use std::path::Path;
use std::sync::Arc;

/// Walks every request of `p` through every layer, recording into `rec`
/// (an off recorder gives the untraced reference), with the store at
/// `store`. Returns the walk's wall time in seconds; one operation is
/// counted per request, failed if any of its checks fails.
pub fn walk(rec: &mut Recorder, p: &Prepared, store: &Path, tally: &mut Tally) -> f64 {
    let t = crate::stats::now();
    let root = rec.begin("walk", None);
    let store = SimStore::open(store);
    let reqs = requests(&p.exps);
    let mut runs = Vec::with_capacity(reqs.len());
    for (i, req) in reqs.iter().enumerate() {
        let span = rec.begin("request", Some(i));
        let run = run_once(rec, i, req);
        let checked = examine(rec, i, req, &run, &store, p.run_digests.get(i).copied());
        rec.end(span);
        tally.record(
            checked.map_err(|e| format!("walk request {i} ({:?}): {e}", req.experiment.app)),
        );
        runs.push(Arc::new(run));
    }
    let span = rec.begin("suite.aggregate", None);
    let mut rows = Vec::with_capacity(p.exps.len());
    let mut offset = 0;
    for exp in &p.exps {
        let n = exp.budget.iterations as usize;
        let measured = Measurement::aggregate(exp, &runs[offset..offset + n]);
        offset += n;
        rows.push(suite::AppMeasurement {
            reference: paper::table2_row(measured.app),
            measured,
        });
    }
    rec.end(span);
    let csv = rec.time("suite.render", None, || {
        std::hint::black_box(suite::render_table2(&rows));
        suite::table2_csv(&rows)
    });
    rec.end(root);
    let wall = crate::stats::secs_since(t);
    if let Some(reference) = p.reference_csv() {
        let ok = csv == reference;
        tally.record(
            ok.then_some(())
                .ok_or_else(|| "walk Table II CSV differs".to_string()),
        );
    }
    wall
}

/// `Experiment::run_once`, one public call per span.
fn run_once(rec: &mut Recorder, i: usize, req: &RunRequest) -> SingleRun {
    let r = Some(i);
    let exp = &req.experiment;
    let span = rec.begin("run_once", r);
    let (mut m, opts) = exp.build_machine(req.seed);
    let pid = rec.time("workloads.build", r, || {
        workloads::build(exp.app, &mut m, &opts)
    });
    rec.time("machine.run", r, || m.run_for(exp.budget.duration));
    let mut metrics = rec.time("machine.collect_metrics", r, || RunMetrics::collect(&m));
    let counter = |name| metrics.counter(name).unwrap_or(0);
    rec.count_last(
        "machine.run",
        "calendar_events",
        counter("sim_calendar_events_scheduled_total"),
    );
    rec.count_last(
        "machine.collect_metrics",
        "context_switches",
        counter("sim_sched_context_switches_total"),
    );
    let trace = rec.time("machine.into_trace", r, || m.into_trace());
    rec.count_last("machine.into_trace", "events", trace.events().len() as u64);
    let mut filter = trace.pids_by_name(exp.app.process_name());
    if filter.is_empty() {
        filter = pid.into();
    }
    let ppm = |f: Option<f64>| (f.unwrap_or(0.0) * 1e6).round() as i64;
    let cp = rec.time("run_once.critical", r, || {
        critical::critical_path(&trace, &filter)
    });
    let reg = &mut metrics.registry;
    reg.gauge(
        "parastat_critical_path_fraction_ppm",
        &[],
        ppm(cp.critical_fraction()),
    );
    let blamed = rec.time("run_once.blame", r, || blame::blame(&trace, &filter));
    reg.gauge(
        "parastat_top_blocker_share_ppm",
        &[],
        ppm(blamed.top_blocker_share()),
    );
    let verified = rec.time("run_once.verify", r, || verify::verify_trace(&trace));
    let causal = rec.time("run_once.hb", r, || {
        hb::analyze(&trace, &hb::HbOptions::default())
    });
    let findings = (verified.diagnostics.len() + causal.findings.len()) as u64;
    reg.counter("parastat_verify_findings_total", &[], findings);
    reg.counter("parastat_store_disk_hits_total", &[], 0);
    reg.counter("parastat_store_disk_misses_total", &[], 1);
    reg.counter("parastat_store_quarantined_total", &[], 0);
    rec.end(span);
    SingleRun {
        trace,
        filter,
        metrics,
    }
}

/// Every analyser's result over one trace, for the serial/sharded check.
#[derive(PartialEq)]
struct Reports {
    filter: PidSet,
    tlp: ConcurrencyProfile,
    gpu_util: GpuUtil,
    latency: LatencyStats,
    sched_stats: ScheduleStats,
    engines: Vec<(u32, f64)>,
    blame: blame::BlameReport,
    critical: CriticalPath,
    verify: verify::VerifyReport,
    hb: hb::HbReport,
    timeline: Timeline,
}

fn ensure(ok: bool, why: &str) -> Result<(), String> {
    ok.then_some(()).ok_or_else(|| why.to_string())
}

/// Everything after the simulation, for one request.
fn examine(
    rec: &mut Recorder,
    i: usize,
    req: &RunRequest,
    run: &SingleRun,
    store: &SimStore,
    real: Option<u64>,
) -> Result<(), String> {
    let r = Some(i);
    let io = |e: std::io::Error| e.to_string();
    let prefix = req.experiment.app.process_name();
    let findings = run.metrics.counter("parastat_verify_findings_total");
    ensure(findings == Some(0), "run_once verification findings")?;

    let bytes = rec.time("setl3.encode", r, || setl3::encode(&run.trace));
    rec.count_last("setl3.encode", "bytes", bytes.len() as u64);
    ensure(
        real == Some(digest(&bytes)),
        "setl3::encode digest differs from the real run_once trace",
    )?;
    let key = req.cache_key();
    rec.time("store.save", r, || store.save(&key, run))
        .map_err(|e| format!("store save: {e}"))?;
    let loaded = rec.time("store.load", r, || store.load(&key));
    ensure(
        matches!(&loaded, LoadOutcome::Hit(back) if back.trace == run.trace),
        "store load did not return the saved run",
    )?;
    drop(loaded);
    let entry = rec
        .time("store.load_read", r, || {
            std::fs::read(store.entry_path(&key))
        })
        .map_err(io)?;
    rec.count_last("store.load_read", "bytes", entry.len() as u64);
    let trace = rec
        .time("setl3.decode", r, || setl3::read_setl3(&bytes[..]))
        .map_err(io)?;
    let (v, h) = rec.time("store.load_reverify", r, || {
        (
            verify::verify_trace(&trace),
            hb::analyze(&trace, &hb::HbOptions::default()),
        )
    });
    ensure(
        v.is_clean() && h.is_clean(),
        "decoded trace fails verification",
    )?;

    let filter = rec.time("analyzer.filter.serial", r, || trace.pids_by_name(prefix));
    ensure(!filter.is_empty(), "process filter matches nothing")?;
    let serial = Reports {
        tlp: rec.time("analyzer.tlp.serial", r, || {
            analysis::concurrency(&trace, &filter)
        }),
        gpu_util: rec.time("analyzer.gpu_util.serial", r, || {
            analysis::gpu_utilization(&trace, &filter, None)
        }),
        latency: rec.time("analyzer.latency.serial", r, || {
            analysis::scheduling_latency(&trace, &filter)
        }),
        sched_stats: rec.time("analyzer.sched_stats.serial", r, || {
            analysis::schedule_stats(&trace, &filter)
        }),
        engines: rec.time("analyzer.engines.serial", r, || {
            analysis::gpu_engine_breakdown(&trace, &filter, 0)
        }),
        blame: rec.time("analyzer.blame.serial", r, || blame::blame(&trace, &filter)),
        critical: rec.time("analyzer.critical.serial", r, || {
            critical::critical_path(&trace, &filter)
        }),
        verify: rec.time("analyzer.verify.serial", r, || verify::verify_trace(&trace)),
        hb: rec.time("analyzer.hb.serial", r, || {
            hb::analyze(&trace, &hb::HbOptions::default())
        }),
        timeline: rec.time("analyzer.timeline.serial", r, || {
            etwtrace::fold_trace(&trace, TIMELINE_BUCKETS)
        }),
        filter,
    };
    drop(trace);

    let runner = ThreadPoolRunner::new(SHARDS);
    let st = rec
        .time("shard.index", r, || ShardedTrace::from_bytes(bytes))
        .map_err(io)?;
    rec.count_last("shard.index", "blocks", st.n_blocks() as u64);
    rec.time("shard.block_decode", r, || walk_blocks(&st))
        .map_err(io)?;
    let filter = rec
        .time("analyzer.filter.sharded", r, || {
            st.pids_by_name(&runner, SHARDS, prefix)
        })
        .map_err(io)?;
    let sharded = Reports {
        tlp: rec
            .time("analyzer.tlp.sharded", r, || {
                analysis::concurrency_sharded(&st, &filter, &runner, SHARDS)
            })
            .map_err(io)?,
        gpu_util: rec
            .time("analyzer.gpu_util.sharded", r, || {
                analysis::gpu_utilization_sharded(&st, &filter, None, &runner, SHARDS)
            })
            .map_err(io)?,
        latency: rec
            .time("analyzer.latency.sharded", r, || {
                analysis::scheduling_latency_sharded(&st, &filter, &runner, SHARDS)
            })
            .map_err(io)?,
        sched_stats: rec
            .time("analyzer.sched_stats.sharded", r, || {
                analysis::schedule_stats_sharded(&st, &filter, &runner, SHARDS)
            })
            .map_err(io)?,
        engines: rec
            .time("analyzer.engines.sharded", r, || {
                analysis::gpu_engine_breakdown_sharded(&st, &filter, 0, &runner, SHARDS)
            })
            .map_err(io)?,
        blame: rec
            .time("analyzer.blame.sharded", r, || {
                blame::blame_sharded(&st, &filter, &runner, SHARDS)
            })
            .map_err(io)?,
        critical: rec
            .time("analyzer.critical.sharded", r, || {
                critical::critical_path_sharded(&st, &filter, &runner, SHARDS)
            })
            .map_err(io)?,
        verify: rec
            .time("analyzer.verify.sharded", r, || {
                verify::verify_sharded(&st, &runner, SHARDS)
            })
            .map_err(io)?,
        hb: rec
            .time("analyzer.hb.sharded", r, || {
                hb::analyze_sharded(&st, &hb::HbOptions::default(), &runner, SHARDS)
            })
            .map_err(io)?,
        timeline: rec
            .time("analyzer.timeline.sharded", r, || {
                etwtrace::timeline::timeline_sharded(&st, TIMELINE_BUCKETS, &runner, SHARDS)
            })
            .map_err(io)?,
        filter,
    };
    ensure(
        serial == sharded,
        "sharded analysers disagree with the serial ones",
    )
}

/// Decodes every block through its cursor without folding anything.
fn walk_blocks(st: &ShardedTrace) -> std::io::Result<()> {
    for b in 0..st.n_blocks() {
        let mut cursor = st.cursor(b)?;
        while let Some(ev) = cursor.next_event()? {
            std::hint::black_box(ev);
        }
    }
    Ok(())
}

/// The analyser passes reported per path, by span name.
const ANALYSERS: [&str; 11] = [
    "verify",
    "hb",
    "tlp",
    "gpu_util",
    "latency",
    "sched_stats",
    "engines",
    "blame",
    "critical",
    "timeline",
    "filter",
];

/// The per-layer metrics one traced walk yields (everything but the
/// `runner.*` counters and `trace.overhead_pct`, which need untraced
/// passes). Times are totals over the walk; `*_per_event` metrics divide by
/// the trace events the walk simulated.
pub fn layer_metrics(rec: &Recorder) -> Vec<(String, f64)> {
    let t: Totals = rec.totals();
    let events = t.count("machine.into_trace", "events");
    let ms = |name: &str| t.self_ns(name) / 1e6;
    let per_event = |name: &str| t.self_ns(name) / events;
    let load_steps = ["store.load_read", "setl3.decode", "store.load_reverify"];
    let mut out: Vec<(String, f64)> = [
        ("workloads.build_ms", ms("workloads.build")),
        ("machine.run_ms", ms("machine.run")),
        (
            "machine.ns_per_calendar_event",
            t.self_ns("machine.run") / t.count("machine.run", "calendar_events"),
        ),
        ("machine.into_trace_ms", ms("machine.into_trace")),
        ("machine.collect_metrics_ms", ms("machine.collect_metrics")),
        (
            "machine.calendar_events",
            t.count("machine.run", "calendar_events"),
        ),
        (
            "machine.context_switches",
            t.count("machine.collect_metrics", "context_switches"),
        ),
        ("machine.trace_events", events),
        ("run_once.critical_ms", ms("run_once.critical")),
        ("run_once.blame_ms", ms("run_once.blame")),
        ("run_once.verify_ms", ms("run_once.verify")),
        ("run_once.hb_ms", ms("run_once.hb")),
        ("run_once.other_ms", ms("run_once")),
        ("runner.longest_request_share", longest_share(rec)),
        ("store.save_ms", ms("store.save")),
        ("store.load_ms", ms("store.load")),
        ("store.load_read_ms", ms("store.load_read")),
        ("store.load_decode_ms", ms("setl3.decode")),
        ("store.load_reverify_ms", ms("store.load_reverify")),
        (
            "store.load_other_ms",
            ms("store.load") - load_steps.iter().map(|s| ms(s)).sum::<f64>(),
        ),
        (
            "store.bytes_per_event",
            t.count("store.load_read", "bytes") / events,
        ),
        ("setl3.encode_ns_per_event", per_event("setl3.encode")),
        ("setl3.decode_ns_per_event", per_event("setl3.decode")),
        (
            "setl3.bytes_per_event",
            t.count("setl3.encode", "bytes") / events,
        ),
        (
            "shard.index_us",
            t.self_ns("shard.index") / 1e3 / t.calls("shard.index"),
        ),
        (
            "shard.block_decode_ns_per_event",
            per_event("shard.block_decode"),
        ),
        ("shard.blocks", t.count("shard.index", "blocks")),
        ("suite.aggregate_ms", ms("suite.aggregate")),
        ("suite.render_ms", ms("suite.render")),
        (
            "trace.coverage",
            t.self_ns_except(&["walk", "request"]) / t.total_ns("walk"),
        ),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_string(), v))
    .collect();
    for pass in ANALYSERS {
        for path in ["serial", "sharded"] {
            out.push((
                format!("analyzer.{pass}.{path}_ns_per_event"),
                per_event(&format!("analyzer.{pass}.{path}")),
            ));
        }
    }
    out
}

/// The slowest request's simulation as a share of all simulation time in
/// the walk. Above 1/2 that one request, not the pool width, bounds a
/// 2-worker sweep.
fn longest_share(rec: &Recorder) -> f64 {
    let sims: Vec<f64> = rec
        .spans()
        .iter()
        .filter(|s| s.name == "run_once")
        .map(|s| (s.end - s.start) as f64)
        .collect();
    sims.iter().copied().fold(0.0, f64::max) / sims.iter().sum::<f64>()
}
