//! Time-resolved workload observability: one streaming pass folds a trace
//! into N fixed-width interval buckets, each carrying the running-thread
//! count (instantaneous TLP min/mean/max), per-wait-reason blocked time,
//! per-CPU busy time, GPU engine busy time and the ready-queue depth.
//!
//! The paper's headline numbers (Table II TLP, wait breakdowns) are
//! whole-run aggregates; this module restores the time axis, so launch
//! bursts, frame loops and background-sync lulls become visible without
//! loading a trace into Perfetto.
//!
//! Two properties are load-bearing:
//!
//! * **Streaming.** [`read_timeline`] folds a SETL v3 file's blocks in
//!   order through the one checksum-enforcing block walk and never
//!   materializes a `Vec<TraceEvent>`. Fold state is O(threads + CPUs +
//!   engines), independent of trace length.
//! * **Exact conservation.** All accounting is integer nanoseconds. Bucket
//!   widths are `duration / n` with the remainder spread over the first
//!   `duration % n` buckets, so widths sum exactly to the window, and every
//!   time segment lands in exactly one bucket. The independently
//!   accumulated whole-trace [`Timeline::totals`] therefore equal the sum
//!   over buckets *exactly* — [`Timeline::check_conservation`] verifies it,
//!   and a proptest pins it over random workload mixes.
//!
//! The running, ready and wait counters and the CPU occupancy come from
//! the crate's one scheduling replay (`replay.rs`), so ready time counts a
//! started thread until it first runs or waits. The timeline is
//! whole-system (no [`crate::PidSet`] filter): a triage view like
//! `tracetool info`, not an Equation-1 measurement.

use crate::event::{EtlTrace, TraceEvent};
use crate::replay::{Replay, Sink};
use crate::shard::{SerialShards, ShardRunner, ShardedTrace};
use simcore::SimTime;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;

/// Wait-reason labels in [`crate::WaitReason`] tag order; the `wait_ns`
/// arrays in [`Accum`] are indexed by this table.
pub const WAIT_LABELS: [&str; 5] = ["preempted", "yield", "sleep", "event", "gpu"];

/// Display name of a GPU engine id (`u32::MAX` is the video encoder).
pub fn engine_name(engine: u32) -> String {
    if engine == u32::MAX {
        "nvenc".to_string()
    } else {
        format!("queue{engine}")
    }
}

/// Integer-nanosecond accumulators shared by every bucket and by the
/// whole-trace totals. All fields are additive: summing the buckets'
/// `Accum`s field-by-field must reproduce [`Timeline::totals`] exactly.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Accum {
    /// Σ running-thread-count · dt — total core-nanoseconds of execution.
    pub busy_cpu_ns: u64,
    /// Time with at least one thread running (the TLP denominator).
    pub nonidle_ns: u64,
    /// Busy time per logical CPU index.
    pub per_cpu_busy_ns: Vec<u64>,
    /// Σ waiting-thread-count · dt per wait reason ([`WAIT_LABELS`] order).
    pub wait_ns: [u64; 5],
    /// Σ ready-queue-depth · dt: threads runnable but not on a CPU
    /// (woken-but-unscheduled, preempted, yielded).
    pub ready_ns: u64,
    /// Union busy time per (gpu, engine): time with ≥1 packet in flight.
    pub gpu_busy_ns: BTreeMap<(u32, u32), u64>,
    /// Frames presented inside this interval.
    pub frames: u64,
}

impl Accum {
    fn add(&mut self, dt: u64, replay: &Replay<'_>, gpu_outstanding: &BTreeMap<(u32, u32), u32>) {
        let [running, ready, waits @ ..] = *replay.levels();
        self.busy_cpu_ns += u64::from(running) * dt;
        if running > 0 {
            self.nonidle_ns += dt;
        }
        for (busy, occ) in self.per_cpu_busy_ns.iter_mut().zip(replay.cpus()) {
            if occ.is_some() {
                *busy += dt;
            }
        }
        for (slot, &n) in self.wait_ns.iter_mut().zip(&waits) {
            *slot += u64::from(n) * dt;
        }
        // Runnable but not running: ready, preempted or yielded.
        let [preempted, yielded, ..] = waits;
        self.ready_ns += u64::from(ready + preempted + yielded) * dt;
        for (&k, &n) in gpu_outstanding {
            if n > 0 {
                *self.gpu_busy_ns.entry(k).or_insert(0) += dt;
            }
        }
    }

    fn merge(&mut self, other: &Accum) {
        self.busy_cpu_ns += other.busy_cpu_ns;
        self.nonidle_ns += other.nonidle_ns;
        if self.per_cpu_busy_ns.len() < other.per_cpu_busy_ns.len() {
            self.per_cpu_busy_ns.resize(other.per_cpu_busy_ns.len(), 0);
        }
        for (slot, v) in self.per_cpu_busy_ns.iter_mut().zip(&other.per_cpu_busy_ns) {
            *slot += v;
        }
        for (slot, v) in self.wait_ns.iter_mut().zip(&other.wait_ns) {
            *slot += v;
        }
        self.ready_ns += other.ready_ns;
        for (&k, &v) in &other.gpu_busy_ns {
            *self.gpu_busy_ns.entry(k).or_insert(0) += v;
        }
        self.frames += other.frames;
    }

    /// Total GPU union-busy time summed over engines.
    pub fn gpu_busy_total_ns(&self) -> u64 {
        self.gpu_busy_ns.values().sum()
    }

    /// Total blocked time summed over wait reasons.
    pub fn wait_total_ns(&self) -> u64 {
        self.wait_ns.iter().sum()
    }
}

/// One fixed-width interval of the trace window.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Bucket {
    /// Interval start (inclusive), nanoseconds of virtual time.
    pub start_ns: u64,
    /// Interval end (exclusive; the last bucket ends at the window end).
    pub end_ns: u64,
    /// The integer-nanosecond accumulators for this interval.
    pub acc: Accum,
    /// Minimum instantaneous running-thread count held for nonzero time.
    pub running_min: u32,
    /// Maximum instantaneous running-thread count held for nonzero time.
    pub running_max: u32,
}

impl Bucket {
    /// Interval width in nanoseconds.
    pub fn width_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Mean TLP per the paper's Equation 1 scoped to this interval: busy
    /// core-time over non-idle time (idle excluded). 0 if fully idle.
    pub fn tlp_mean(&self) -> f64 {
        if self.acc.nonidle_ns == 0 {
            0.0
        } else {
            self.acc.busy_cpu_ns as f64 / self.acc.nonidle_ns as f64
        }
    }

    /// Machine utilization: busy core-time over `width · n_logical`.
    pub fn busy_percent(&self, n_logical: usize) -> f64 {
        let denom = self.width_ns() as u128 * n_logical.max(1) as u128;
        if denom == 0 {
            0.0
        } else {
            100.0 * self.acc.busy_cpu_ns as f64 / denom as f64
        }
    }

    /// Mean ready-queue depth over the interval.
    pub fn ready_mean(&self) -> f64 {
        if self.width_ns() == 0 {
            0.0
        } else {
            self.acc.ready_ns as f64 / self.width_ns() as f64
        }
    }

    /// GPU busy percentage (union over packets, summed over engines).
    pub fn gpu_percent(&self) -> f64 {
        if self.width_ns() == 0 {
            0.0
        } else {
            100.0 * self.acc.gpu_busy_total_ns() as f64 / self.width_ns() as f64
        }
    }

    /// The wait reason holding the most blocked time, if any wait time was
    /// recorded. Ties break toward the first label in [`WAIT_LABELS`].
    pub fn dominant_wait(&self) -> Option<(&'static str, u64)> {
        // `max_by_key` keeps the last maximum, so scan the labels backwards.
        let (&label, &ns) = WAIT_LABELS
            .iter()
            .zip(&self.acc.wait_ns)
            .rev()
            .max_by_key(|(_, &ns)| ns)?;
        (ns > 0).then_some((label, ns))
    }
}

/// The folded timeline: N buckets plus independently accumulated
/// whole-trace totals.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Timeline {
    /// Logical CPU count from the trace header.
    pub n_logical: usize,
    /// Window start, nanoseconds of virtual time.
    pub start_ns: u64,
    /// Window end.
    pub end_ns: u64,
    /// Records folded.
    pub events: u64,
    /// The interval buckets, in time order.
    pub buckets: Vec<Bucket>,
    /// Whole-trace totals accumulated in the same pass but *outside* the
    /// bucket-splitting arithmetic — the conservation reference.
    pub totals: Accum,
}

/// The fold: the scheduling replay, and the timeline it charges.
struct Folder {
    replay: Replay<'static>,
    charge: Charge,
}

/// The timeline in progress, its bucket cursor and GPU packets in flight.
struct Charge {
    tl: Timeline,
    cursor: u64,
    idx: usize,
    gpu_outstanding: BTreeMap<(u32, u32), u32>,
}

impl Sink for Charge {
    /// Charges the replay's levels over `[from, to)` to the whole-trace
    /// totals once and to each crossed bucket segment exactly once. Pure
    /// integer arithmetic — nothing is rounded or lost.
    fn elapse(&mut self, replay: &Replay<'_>, from: u64, to: u64) {
        self.tl.totals.add(to - from, replay, &self.gpu_outstanding);
        let [running, ..] = *replay.levels();
        while self.cursor < to {
            while matches!(self.tl.buckets.get(self.idx), Some(b) if b.end_ns <= self.cursor) {
                self.idx += 1;
            }
            let Some(b) = self.tl.buckets.get_mut(self.idx) else {
                break;
            };
            let seg_end = to.min(b.end_ns);
            let dt = seg_end - self.cursor;
            if dt > 0 {
                b.acc.add(dt, replay, &self.gpu_outstanding);
                b.running_min = b.running_min.min(running);
                b.running_max = b.running_max.max(running);
            }
            self.cursor = seg_end;
        }
        self.cursor = to;
    }
}

impl Charge {
    /// The bucket a point event at the cursor belongs to (half-open
    /// intervals; the window end belongs to the last bucket).
    fn point_bucket(&mut self) -> Option<&mut Bucket> {
        let buckets = &mut self.tl.buckets;
        while matches!(buckets.get(self.idx), Some(b) if b.end_ns <= self.cursor) {
            self.idx += 1;
        }
        let i = self.idx.min(buckets.len().checked_sub(1)?);
        buckets.get_mut(i)
    }
}

impl Folder {
    fn new(n_logical: usize, start: SimTime, end: SimTime, n_buckets: usize) -> Folder {
        let (start_ns, end_ns) = (start.as_nanos(), end.as_nanos().max(start.as_nanos()));
        let n = n_buckets.max(1);
        let dur = end_ns - start_ns;
        let width = dur / n as u64;
        let rem = dur % n as u64;
        let zero = Accum {
            per_cpu_busy_ns: vec![0; n_logical],
            ..Accum::default()
        };
        let mut buckets = Vec::with_capacity(n);
        let mut at = start_ns;
        for i in 0..n as u64 {
            let w = width + u64::from(i < rem);
            buckets.push(Bucket {
                start_ns: at,
                end_ns: at + w,
                acc: zero.clone(),
                running_min: u32::MAX,
                running_max: 0,
            });
            at += w;
        }
        let tl = Timeline {
            n_logical,
            start_ns,
            end_ns,
            events: 0,
            buckets,
            totals: zero,
        };
        Folder {
            replay: Replay::new(None, n_logical, start_ns, end_ns),
            charge: Charge {
                tl,
                cursor: start_ns,
                idx: 0,
                gpu_outstanding: BTreeMap::new(),
            },
        }
    }

    fn fold(&mut self, ev: &TraceEvent) {
        let c = &mut self.charge;
        c.tl.events += 1;
        self.replay.push(ev, c);
        match ev {
            TraceEvent::GpuStart { gpu, engine, .. } => {
                *c.gpu_outstanding.entry((*gpu as u32, *engine)).or_insert(0) += 1;
            }
            TraceEvent::GpuEnd { gpu, engine, .. } => {
                if let Some(n) = c.gpu_outstanding.get_mut(&(*gpu as u32, *engine)) {
                    *n = n.saturating_sub(1);
                }
            }
            TraceEvent::Frame { .. } => {
                c.tl.totals.frames += 1;
                if let Some(b) = c.point_bucket() {
                    b.acc.frames += 1;
                }
            }
            _ => {}
        }
    }

    fn finish(mut self) -> Timeline {
        self.replay.advance(self.charge.tl.end_ns, &mut self.charge);
        let mut tl = self.charge.tl;
        for b in &mut tl.buckets {
            if b.running_min == u32::MAX {
                b.running_min = 0;
            }
        }
        tl
    }
}

/// Folds an in-memory trace. Same engine as [`read_timeline`]; use this
/// when the trace is already materialized (experiment runs, chrome export).
pub fn fold_trace(trace: &EtlTrace, n_buckets: usize) -> Timeline {
    let mut sp = simobs::span::span("analyzer", "timeline");
    sp.add_events(trace.events().len() as u64);
    let mut f = Folder::new(
        trace.n_logical_cpus(),
        trace.start(),
        trace.end(),
        n_buckets,
    );
    for ev in trace.events() {
        f.fold(ev);
    }
    f.finish()
}

/// Sharded twin of [`fold_trace`]: blocks decode in parallel on `runner`,
/// the [`Folder`] consumes them in trace order — bit-identical timeline at
/// any shard count (see DESIGN.md §14).
///
/// # Errors
/// Any block decode or checksum error.
pub fn timeline_sharded(
    trace: &ShardedTrace,
    n_buckets: usize,
    runner: &dyn ShardRunner,
    shards: usize,
) -> io::Result<Timeline> {
    let mut sp = simobs::span::span("analyzer", "timeline");
    sp.add_events(trace.count());
    sp.add_bytes(trace.len_bytes() as u64);
    let mut f = Folder::new(
        trace.n_logical_cpus(),
        trace.start(),
        trace.end(),
        n_buckets,
    );
    trace.fold_events(runner, shards, |ev| f.fold(&ev))?;
    Ok(f.finish())
}

/// Folds a trace file: [`timeline_sharded`] at width 1 over `bytes` in
/// place, with full checksum verification and no `Vec<TraceEvent>`.
///
/// # Errors
/// Same conditions as [`crate::etl::read_etl`]: bad magic/revision, a
/// stream cut short, malformed records, checksum mismatches.
pub fn read_timeline(bytes: &[u8], n_buckets: usize) -> io::Result<Timeline> {
    timeline_sharded(
        &ShardedTrace::from_slice(bytes)?,
        n_buckets,
        &SerialShards,
        1,
    )
}

fn fmt_val(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v:.6}")
    }
}

impl Timeline {
    /// Window length in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Whole-trace mean TLP (Equation 1: idle excluded).
    pub fn tlp_mean(&self) -> f64 {
        if self.totals.nonidle_ns == 0 {
            0.0
        } else {
            self.totals.busy_cpu_ns as f64 / self.totals.nonidle_ns as f64
        }
    }

    /// Verifies the conservation invariant: the field-by-field sum of the
    /// bucket accumulators must equal [`Timeline::totals`] exactly, and
    /// bucket boundaries must tile the window without gaps.
    ///
    /// # Errors
    /// Returns a description of the first violated field.
    pub fn check_conservation(&self) -> Result<(), String> {
        let mut sum = Accum::default();
        let mut at = self.start_ns;
        for (i, b) in self.buckets.iter().enumerate() {
            if b.start_ns != at {
                return Err(format!("bucket {i} starts at {} not {at}", b.start_ns));
            }
            at = b.end_ns;
            sum.merge(&b.acc);
        }
        if at != self.end_ns {
            return Err(format!(
                "buckets end at {at}, window ends at {}",
                self.end_ns
            ));
        }
        sum.per_cpu_busy_ns
            .resize(self.totals.per_cpu_busy_ns.len(), 0);
        if sum != self.totals {
            return Err(format!(
                "bucket sums diverge from whole-trace totals:\n  sum    {sum:?}\n  totals {:?}",
                self.totals
            ));
        }
        Ok(())
    }

    /// Renders the timeline as an aligned text table with a totals footer.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "timeline      : {} buckets over {} ns .. {} ns ({:.3} s)",
            self.buckets.len(),
            self.start_ns,
            self.end_ns,
            self.duration_ns() as f64 / 1e9
        );
        let _ = writeln!(out, "logical CPUs  : {}", self.n_logical);
        let _ = writeln!(out, "events        : {}", self.events);
        let _ = writeln!(
            out,
            "{:>4} {:>10} {:>9} {:>7} {:>6} {:>6} {:>6} {:>6} {:>6}  top wait",
            "#", "start_ms", "width_ms", "run", "tlp", "busy%", "ready", "gpu%", "frames",
        );
        for (i, b) in self.buckets.iter().enumerate() {
            let top = match b.dominant_wait() {
                Some((label, ns)) => format!("{label} {:.3} ms", ns as f64 / 1e6),
                None => "-".to_string(),
            };
            let _ = writeln!(
                out,
                "{i:>4} {:>10.3} {:>9.3} {:>7} {:>6.2} {:>6.1} {:>6.2} {:>6.1} {:>6}  {top}",
                (b.start_ns - self.start_ns) as f64 / 1e6,
                b.width_ns() as f64 / 1e6,
                format!("{}..{}", b.running_min, b.running_max),
                b.tlp_mean(),
                b.busy_percent(self.n_logical),
                b.ready_mean(),
                b.gpu_percent(),
                b.acc.frames,
            );
        }
        let waits: Vec<String> = WAIT_LABELS
            .iter()
            .zip(&self.totals.wait_ns)
            .filter(|(_, &ns)| ns > 0)
            .map(|(label, &ns)| format!("{label} {:.3} ms", ns as f64 / 1e6))
            .collect();
        let _ = writeln!(
            out,
            "totals        : busy {:.3} ms, nonidle {:.3} ms (TLP {:.2}), ready {:.3} ms, gpu {:.3} ms, {} frames",
            self.totals.busy_cpu_ns as f64 / 1e6,
            self.totals.nonidle_ns as f64 / 1e6,
            self.tlp_mean(),
            self.totals.ready_ns as f64 / 1e6,
            self.totals.gpu_busy_total_ns() as f64 / 1e6,
            self.totals.frames,
        );
        let _ = writeln!(
            out,
            "waits         : {}",
            if waits.is_empty() {
                "none".to_string()
            } else {
                waits.join(", ")
            }
        );
        let _ = writeln!(
            out,
            "conservation  : {}",
            match self.check_conservation() {
                Ok(()) => "exact (bucket sums equal whole-trace totals)".to_string(),
                Err(e) => format!("VIOLATED: {e}"),
            }
        );
        out
    }

    /// Renders the per-bucket series as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "bucket,start_ns,end_ns,running_min,running_max,tlp_mean,busy_cpu_ns,nonidle_ns,\
             ready_ns,gpu_busy_ns,frames,wait_preempted_ns,wait_yield_ns,wait_sleep_ns,\
             wait_event_ns,wait_gpu_ns\n",
        );
        for (i, b) in self.buckets.iter().enumerate() {
            let [preempted, yielded, sleep, event, gpu] = b.acc.wait_ns;
            let _ = writeln!(
                out,
                "{i},{},{},{},{},{:.4},{},{},{},{},{},{preempted},{yielded},{sleep},{event},{gpu}",
                b.start_ns,
                b.end_ns,
                b.running_min,
                b.running_max,
                b.tlp_mean(),
                b.acc.busy_cpu_ns,
                b.acc.nonidle_ns,
                b.acc.ready_ns,
                b.acc.gpu_busy_total_ns(),
                b.acc.frames,
            );
        }
        out
    }

    /// Renders the whole timeline as a self-contained JSON object.
    pub fn to_json(&self) -> String {
        fn acc_json(acc: &Accum) -> String {
            let waits: Vec<String> = WAIT_LABELS
                .iter()
                .zip(&acc.wait_ns)
                .map(|(label, ns)| format!("\"{label}\":{ns}"))
                .collect();
            let gpus: Vec<String> = acc
                .gpu_busy_ns
                .iter()
                .map(|(&(gpu, engine), ns)| {
                    format!(
                        "{{\"gpu\":{gpu},\"engine\":\"{}\",\"ns\":{ns}}}",
                        engine_name(engine)
                    )
                })
                .collect();
            let cpus: Vec<String> = acc.per_cpu_busy_ns.iter().map(u64::to_string).collect();
            format!(
                "{{\"busy_cpu_ns\":{},\"nonidle_ns\":{},\"ready_ns\":{},\"frames\":{},\
                 \"wait_ns\":{{{}}},\"gpu_busy_ns\":[{}],\"per_cpu_busy_ns\":[{}]}}",
                acc.busy_cpu_ns,
                acc.nonidle_ns,
                acc.ready_ns,
                acc.frames,
                waits.join(","),
                gpus.join(","),
                cpus.join(",")
            )
        }
        let buckets: Vec<String> = self
            .buckets
            .iter()
            .map(|b| {
                format!(
                    "{{\"start_ns\":{},\"end_ns\":{},\"running_min\":{},\"running_max\":{},\
                     \"tlp_mean\":{},\"acc\":{}}}",
                    b.start_ns,
                    b.end_ns,
                    b.running_min,
                    b.running_max,
                    fmt_val(b.tlp_mean()),
                    acc_json(&b.acc)
                )
            })
            .collect();
        format!(
            "{{\"n_logical\":{},\"start_ns\":{},\"end_ns\":{},\"events\":{},\
             \"buckets\":[\n{}\n],\"totals\":{}}}\n",
            self.n_logical,
            self.start_ns,
            self.end_ns,
            self.events,
            buckets.join(",\n"),
            acc_json(&self.totals)
        )
    }

    /// Flattens the timeline into Prometheus-style named scalars for
    /// [`crate::diff`]: whole-trace totals plus cross-bucket extremes. Keys
    /// use exposition-format label syntax so a metrics map parsed from a
    /// registry file and one derived from a trace diff uniformly.
    pub fn metrics(&self) -> BTreeMap<String, f64> {
        let mut out = BTreeMap::new();
        out.insert("timeline_window_ns".into(), self.duration_ns() as f64);
        out.insert("timeline_events_total".into(), self.events as f64);
        out.insert(
            "timeline_busy_cpu_ns".into(),
            self.totals.busy_cpu_ns as f64,
        );
        out.insert("timeline_nonidle_ns".into(), self.totals.nonidle_ns as f64);
        out.insert("timeline_ready_ns".into(), self.totals.ready_ns as f64);
        out.insert("timeline_frames_total".into(), self.totals.frames as f64);
        out.insert("timeline_tlp_mean".into(), self.tlp_mean());
        out.insert(
            "timeline_running_max".into(),
            f64::from(
                self.buckets
                    .iter()
                    .map(|b| b.running_max)
                    .max()
                    .unwrap_or(0),
            ),
        );
        for (label, &ns) in WAIT_LABELS.iter().zip(&self.totals.wait_ns) {
            out.insert(format!("timeline_wait_ns{{reason=\"{label}\"}}"), ns as f64);
        }
        for (&(gpu, engine), &ns) in &self.totals.gpu_busy_ns {
            out.insert(
                format!(
                    "timeline_gpu_busy_ns{{gpu=\"{gpu}\",engine=\"{}\"}}",
                    engine_name(engine)
                ),
                ns as f64,
            );
        }
        for (cpu, &ns) in self.totals.per_cpu_busy_ns.iter().enumerate() {
            out.insert(format!("timeline_cpu_busy_ns{{cpu=\"{cpu}\"}}"), ns as f64);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ThreadKey, TraceBuilder, WaitReason};
    use crate::setl3;
    use simcore::{SimDuration, SimTime};

    fn at(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn key(tid: u64) -> ThreadKey {
        ThreadKey { pid: 1, tid }
    }

    /// 10 ms window on 2 CPUs: t10 runs 1–5 ms on cpu0, t11 runs 2–8 ms on
    /// cpu1; t10 blocks on an event 5–7 ms then is ready 7–9 ms; one GPU
    /// packet in flight 2–6 ms; a frame at 4 ms.
    fn demo() -> EtlTrace {
        let mut b = TraceBuilder::new(2);
        b.push(TraceEvent::ProcessStart {
            at: SimTime::ZERO,
            pid: 1,
            name: "app.exe".into(),
        });
        b.push(TraceEvent::CSwitch {
            at: at(1),
            cpu: 0,
            old: None,
            new: Some(key(10)),
            ready_since: Some(SimTime::ZERO),
        });
        b.push(TraceEvent::CSwitch {
            at: at(2),
            cpu: 1,
            old: None,
            new: Some(key(11)),
            ready_since: None,
        });
        b.push(TraceEvent::GpuStart {
            at: at(2),
            gpu: 0,
            engine: 0,
            packet: 1,
            pid: 1,
        });
        b.push(TraceEvent::Frame { at: at(4), pid: 1 });
        b.push(TraceEvent::CSwitch {
            at: at(5),
            cpu: 0,
            old: Some(key(10)),
            new: None,
            ready_since: None,
        });
        b.push(TraceEvent::WaitBegin {
            at: at(5),
            key: key(10),
            reason: WaitReason::Event { id: 9 },
        });
        b.push(TraceEvent::GpuEnd {
            at: at(6),
            gpu: 0,
            engine: 0,
            packet: 1,
            pid: 1,
        });
        b.push(TraceEvent::WaitEnd {
            at: at(7),
            key: key(10),
            reason: WaitReason::Event { id: 9 },
            waker: Some(key(11)),
        });
        b.push(TraceEvent::CSwitch {
            at: at(8),
            cpu: 1,
            old: Some(key(11)),
            new: None,
            ready_since: None,
        });
        b.push(TraceEvent::WaitBegin {
            at: at(8),
            key: key(11),
            reason: WaitReason::Sleep,
        });
        b.push(TraceEvent::CSwitch {
            at: at(9),
            cpu: 0,
            old: None,
            new: Some(key(10)),
            ready_since: Some(at(7)),
        });
        b.finish(SimTime::ZERO, at(10))
    }

    #[test]
    fn totals_match_hand_computed_values() {
        let tl = fold_trace(&demo(), 5);
        // t10: 1–5 and 9–10 (5 ms); t11: 2–8 (6 ms) → 11 ms of core time.
        assert_eq!(tl.totals.busy_cpu_ns, 11_000_000);
        // Someone is running 1–8 and 9–10 ms; 0–1 and 8–9 are idle.
        assert_eq!(tl.totals.nonidle_ns, 8_000_000);
        assert_eq!(tl.totals.per_cpu_busy_ns, vec![5_000_000, 6_000_000]);
        // Event wait 5–7 ms; sleep 8–10 ms.
        assert_eq!(tl.totals.wait_ns, [0, 0, 2_000_000, 2_000_000, 0]);
        // t10 ready 7–9 ms (woken, waiting for a CPU).
        assert_eq!(tl.totals.ready_ns, 2_000_000);
        assert_eq!(tl.totals.gpu_busy_ns[&(0, 0)], 4_000_000);
        assert_eq!(tl.totals.frames, 1);
        assert_eq!(tl.events, demo().events().len() as u64);
        tl.check_conservation().unwrap();
    }

    #[test]
    fn conservation_holds_at_many_bucket_counts() {
        let trace = demo();
        let reference = fold_trace(&trace, 1);
        for n in [1, 2, 3, 5, 7, 16, 64, 1000] {
            let tl = fold_trace(&trace, n);
            tl.check_conservation()
                .unwrap_or_else(|e| panic!("n={n}: {e}"));
            assert_eq!(tl.totals, reference.totals, "totals drifted at n={n}");
        }
    }

    #[test]
    fn bucket_widths_tile_the_window_exactly() {
        // 10 ms does not divide by 7: remainder spreads over early buckets.
        let tl = fold_trace(&demo(), 7);
        let widths: Vec<u64> = tl.buckets.iter().map(Bucket::width_ns).collect();
        assert_eq!(widths.iter().sum::<u64>(), tl.duration_ns());
        assert_eq!(
            widths.iter().max().unwrap() - widths.iter().min().unwrap(),
            1
        );
    }

    #[test]
    fn streaming_equals_the_in_memory_fold() {
        let trace = demo();
        let folded = fold_trace(&trace, 8);
        let v3 = setl3::encode(&trace);
        assert_eq!(read_timeline(v3.as_slice(), 8).unwrap(), folded);
    }

    #[test]
    fn streaming_rejects_corrupt_and_garbage_input() {
        assert!(read_timeline(&b"NOPE"[..], 4).is_err());
        let mut v3 = setl3::encode(&demo());
        let mid = v3.len() / 2;
        v3[mid] ^= 0x40;
        assert!(read_timeline(v3.as_slice(), 4).is_err());
    }

    #[test]
    fn running_extremes_and_dominant_wait_are_reported() {
        let tl = fold_trace(&demo(), 1);
        let b = &tl.buckets[0];
        assert_eq!(b.running_min, 0);
        assert_eq!(b.running_max, 2);
        // Event and sleep tie at 2 ms each; the first label order wins.
        assert_eq!(b.dominant_wait(), Some(("sleep", 2_000_000)));
        assert!((b.tlp_mean() - 11.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn renderers_are_consistent_and_self_describing() {
        let tl = fold_trace(&demo(), 4);
        let text = tl.render();
        assert!(text.contains("4 buckets"), "{text}");
        assert!(text.contains("conservation  : exact"), "{text}");
        let csv = tl.to_csv();
        assert_eq!(csv.lines().count(), 5, "{csv}");
        assert!(csv.starts_with("bucket,start_ns"), "{csv}");
        let json = tl.to_json();
        assert!(json.contains("\"buckets\":["), "{json}");
        assert!(json.contains("\"wait_ns\":{\"preempted\":"), "{json}");
        let metrics = tl.metrics();
        assert_eq!(metrics["timeline_busy_cpu_ns"], 11_000_000.0);
        assert_eq!(metrics["timeline_wait_ns{reason=\"event\"}"], 2_000_000.0);
        assert_eq!(
            metrics["timeline_gpu_busy_ns{gpu=\"0\",engine=\"queue0\"}"],
            4_000_000.0
        );
    }

    #[test]
    fn empty_and_degenerate_windows_are_safe() {
        let b = TraceBuilder::new(1);
        let tl = fold_trace(&b.finish(SimTime::ZERO, SimTime::ZERO), 4);
        assert_eq!(tl.duration_ns(), 0);
        tl.check_conservation().unwrap();
        // More buckets than nanoseconds: trailing buckets are zero-width.
        let b2 = TraceBuilder::new(1);
        let tl2 = fold_trace(&b2.finish(SimTime::ZERO, SimTime::from_nanos(3)), 8);
        tl2.check_conservation().unwrap();
        assert_eq!(tl2.buckets.len(), 8);
    }
}
