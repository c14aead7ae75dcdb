//! The six `tracetool` analysis calls, each starting from a trace's bytes
//! exactly as `crates/bench/src/bin/tracetool.rs` does: the default path
//! decodes with `etl::read_etl` and folds in memory, the
//! `--analyzer-shards N` path indexes a `ShardedTrace` and folds its blocks
//! on a `ThreadPoolRunner`. Each call returns the text the tool prints.

use etwtrace::{analysis, blame, critical, etl, hb, verify, PidSet, ShardedTrace};
use parastat::ThreadPoolRunner;

/// Worker and shard count of the sharded path (`--analyzer-shards 2`). A
/// constant, sized for a 2-core host, so both commits of a comparison run
/// the same configuration whatever machine they run on.
pub const SHARDS: usize = 2;

/// The calls of one analyse pass, in order.
pub const CALLS: [&str; 6] = [
    "verify",
    "tlp",
    "latency",
    "bottlenecks",
    "critical-path",
    "timeline",
];

/// Buckets `tracetool timeline` folds into by default.
pub const TIMELINE_BUCKETS: usize = 24;

/// What one call printed, plus the TLP and GPU % the `tlp` call measured.
pub struct Output {
    pub text: String,
    pub tlp_gpu: Option<(f64, f64)>,
}

impl From<String> for Output {
    fn from(text: String) -> Output {
        Output {
            text,
            tlp_gpu: None,
        }
    }
}

/// Runs `call` over `bytes` on the default path or the sharded one.
///
/// # Errors
/// A decode error, a filter that matches no process, or verification
/// findings — each of which makes `tracetool` exit non-zero.
pub fn run(call: &str, bytes: &[u8], prefix: &str, sharded: bool) -> Result<Output, String> {
    if sharded {
        sharded_call(call, bytes, prefix)
    } else {
        serial_call(call, bytes, prefix)
    }
}

fn serial_call(call: &str, bytes: &[u8], prefix: &str) -> Result<Output, String> {
    if call == "timeline" {
        let tl = etwtrace::read_timeline(bytes, TIMELINE_BUCKETS).map_err(|e| e.to_string())?;
        return Ok(tl.render().into());
    }
    let trace = etl::read_etl(bytes).map_err(|e| e.to_string())?;
    if call == "verify" {
        let report = verify::verify_trace(&trace);
        let causal = hb::analyze(&trace, &hb::HbOptions::default());
        return verified(&report, &causal);
    }
    let filter = nonempty(trace.pids_by_name(prefix), prefix)?;
    Ok(match call {
        "tlp" => render_tlp(
            &filter,
            &analysis::concurrency(&trace, &filter),
            &analysis::gpu_utilization(&trace, &filter, None),
            &analysis::scheduling_latency(&trace, &filter),
            &analysis::schedule_stats(&trace, &filter),
            &analysis::gpu_engine_breakdown(&trace, &filter, 0),
        ),
        "latency" => render_latency(&analysis::scheduling_latency(&trace, &filter)).into(),
        "bottlenecks" => blame::blame(&trace, &filter).render().into(),
        "critical-path" => critical::critical_path(&trace, &filter).render().into(),
        other => return Err(format!("unknown call `{other}`")),
    })
}

fn sharded_call(call: &str, bytes: &[u8], prefix: &str) -> Result<Output, String> {
    let io = |e: std::io::Error| e.to_string();
    let runner = ThreadPoolRunner::new(SHARDS);
    // `tracetool` reads the file into a fresh buffer for every call.
    let trace = ShardedTrace::from_bytes(bytes.to_vec()).map_err(io)?;
    match call {
        "timeline" => {
            let tl =
                etwtrace::timeline::timeline_sharded(&trace, TIMELINE_BUCKETS, &runner, SHARDS)
                    .map_err(io)?;
            return Ok(tl.render().into());
        }
        "verify" => {
            let report = verify::verify_sharded(&trace, &runner, SHARDS).map_err(io)?;
            let causal = hb::analyze_sharded(&trace, &hb::HbOptions::default(), &runner, SHARDS)
                .map_err(io)?;
            return verified(&report, &causal);
        }
        _ => {}
    }
    let filter = trace.pids_by_name(&runner, SHARDS, prefix).map_err(io)?;
    let filter = nonempty(filter, prefix)?;
    Ok(match call {
        "tlp" => render_tlp(
            &filter,
            &analysis::concurrency_sharded(&trace, &filter, &runner, SHARDS).map_err(io)?,
            &analysis::gpu_utilization_sharded(&trace, &filter, None, &runner, SHARDS)
                .map_err(io)?,
            &analysis::scheduling_latency_sharded(&trace, &filter, &runner, SHARDS).map_err(io)?,
            &analysis::schedule_stats_sharded(&trace, &filter, &runner, SHARDS).map_err(io)?,
            &analysis::gpu_engine_breakdown_sharded(&trace, &filter, 0, &runner, SHARDS)
                .map_err(io)?,
        ),
        "latency" => render_latency(
            &analysis::scheduling_latency_sharded(&trace, &filter, &runner, SHARDS).map_err(io)?,
        )
        .into(),
        "bottlenecks" => blame::blame_sharded(&trace, &filter, &runner, SHARDS)
            .map_err(io)?
            .render()
            .into(),
        "critical-path" => critical::critical_path_sharded(&trace, &filter, &runner, SHARDS)
            .map_err(io)?
            .render()
            .into(),
        other => return Err(format!("unknown call `{other}`")),
    })
}

fn nonempty(filter: PidSet, prefix: &str) -> Result<PidSet, String> {
    if filter.is_empty() {
        Err(format!("no process matches `{prefix}`"))
    } else {
        Ok(filter)
    }
}

fn verified(report: &verify::VerifyReport, causal: &hb::HbReport) -> Result<Output, String> {
    let text = format!("{}{}", report.render(), causal.render());
    if report.is_clean() && causal.is_clean() {
        Ok(text.into())
    } else {
        Err(format!("verification findings:\n{text}"))
    }
}

/// `tracetool tlp`'s report, line for line.
fn render_tlp(
    filter: &PidSet,
    profile: &etwtrace::ConcurrencyProfile,
    util: &etwtrace::GpuUtil,
    lat: &etwtrace::LatencyStats,
    sched: &etwtrace::ScheduleStats,
    engines: &[(u32, f64)],
) -> Output {
    let mut text = format!(
        "processes        : {}\nTLP              : {:.3}\nmax concurrency  : {}\n\
         GPU utilization  : {:.2} %\nsched latency    : mean {:.0} µs, p95 {:.0} µs\n\
         run episodes     : {} (mean {:.2} ms, max {:.1} ms), {} migrations\n",
        filter.len(),
        profile.tlp(),
        profile.max_concurrency(),
        util.percent(),
        lat.mean_us,
        lat.p95_us,
        sched.episodes,
        sched.mean_slice_ms,
        sched.max_slice_ms,
        sched.migrations
    );
    if !engines.is_empty() {
        let parts: Vec<String> = engines
            .iter()
            .map(|(e, f)| {
                let name = if *e == u32::MAX {
                    "nvenc".to_string()
                } else {
                    format!("queue{e}")
                };
                format!("{name} {:.1}%", f * 100.0)
            })
            .collect();
        text.push_str(&format!("GPU engines      : {}\n", parts.join(", ")));
    }
    let c: Vec<String> = profile
        .fractions()
        .iter()
        .map(|f| format!("{:.1}", f * 100.0))
        .collect();
    text.push_str(&format!("c0..cN (%)       : {}\n", c.join(" ")));
    Output {
        text,
        tlp_gpu: Some((profile.tlp(), util.percent())),
    }
}

/// `tracetool latency`'s report, line for line.
fn render_latency(lat: &etwtrace::LatencyStats) -> String {
    format!(
        "sched events     : {}\nmean latency     : {:.1} µs\np50 latency      : {:.1} µs\n\
         p95 latency      : {:.1} µs\np99 latency      : {:.1} µs\nmax latency      : {:.1} µs\n",
        lat.count, lat.mean_us, lat.p50_us, lat.p95_us, lat.p99_us, lat.max_us
    )
}
