//! Replay analyzers: TLP (Equation 1), concurrency heat-map rows,
//! instantaneous timelines, GPU utilization and FPS.

use crate::event::{EtlTrace, PidSet, TraceEvent};
use simcore::{Histogram, Series, SimDuration, SimTime};

/// The `c_0..c_n` execution-time distribution for one application — one row
/// of the paper's Table II heat-map.
#[derive(Clone, Debug, PartialEq)]
pub struct ConcurrencyProfile {
    histogram: Histogram,
    n_logical: usize,
}

impl ConcurrencyProfile {
    /// Number of logical CPUs (`n` in Equation 1).
    pub fn n_logical(&self) -> usize {
        self.n_logical
    }

    /// The underlying time-weighted histogram.
    pub fn histogram(&self) -> &Histogram {
        &self.histogram
    }

    /// Fractions `c_0..c_n` of the observation window.
    pub fn fractions(&self) -> Vec<f64> {
        self.histogram.fractions()
    }

    /// Thread-level parallelism per the paper's Equation 1.
    pub fn tlp(&self) -> f64 {
        self.histogram.tlp()
    }

    /// Highest concurrency level with non-zero time ("instantaneous TLP
    /// reaches the maximum of 12" style statements).
    pub fn max_concurrency(&self) -> usize {
        (0..=self.n_logical)
            .rev()
            .find(|&i| !self.histogram.bin(i).is_zero())
            .unwrap_or(0)
    }

    /// Fraction of *busy* time spent at exactly `i` concurrent threads
    /// (the paper: "Excel spent 3.7 % of time using the maximum number of
    /// available logical cores").
    pub fn busy_fraction_at(&self, i: usize) -> f64 {
        let total = self.histogram.total() - self.histogram.bin(0);
        if total.is_zero() || i == 0 {
            return 0.0;
        }
        self.histogram.bin(i) / total
    }
}

/// Replays context switches and returns the concurrency profile for the
/// processes in `filter`.
///
/// The replay maintains the running thread on each logical CPU; between
/// consecutive events the number of CPUs running filtered threads is
/// constant and its duration accumulates in that bin.
pub fn concurrency(trace: &EtlTrace, filter: &PidSet) -> ConcurrencyProfile {
    let mut sp = simobs::span::span("analyzer", "tlp");
    sp.add_events(trace.events().len() as u64);
    let mut fold = ConcurrencyFold::new(filter, trace.n_logical_cpus(), trace.start(), trace.end());
    for ev in trace.events() {
        fold.push(ev);
    }
    fold.finish()
}

/// The Eq. 1 replay behind [`concurrency`], shared by [`concurrency_sharded`]
/// and by the critical-path fold, which reads its measured TLP from it (see
/// [`GpuUtilFold`] for the determinism argument).
pub(crate) struct ConcurrencyFold<'a> {
    filter: &'a PidSet,
    start: SimTime,
    end: SimTime,
    hist: Histogram,
    /// Pid running on each logical CPU.
    per_cpu: Vec<Option<u64>>,
    /// CPUs running a filtered pid.
    running: usize,
    cursor: SimTime,
}

impl<'a> ConcurrencyFold<'a> {
    pub(crate) fn new(filter: &'a PidSet, n_logical: usize, start: SimTime, end: SimTime) -> Self {
        ConcurrencyFold {
            filter,
            start,
            end,
            hist: Histogram::new(n_logical),
            per_cpu: vec![None; n_logical],
            running: 0,
            cursor: start,
        }
    }

    pub(crate) fn push(&mut self, ev: &TraceEvent) {
        let TraceEvent::CSwitch {
            at, cpu, old, new, ..
        } = ev
        else {
            return;
        };
        let at = (*at).max(self.start).min(self.end);
        self.hist
            .add(self.running, at.saturating_since(self.cursor));
        self.cursor = at;
        debug_assert!(*cpu < self.per_cpu.len(), "CSwitch on disabled cpu {cpu}");
        if let Some(prev) = self.per_cpu[*cpu] {
            debug_assert_eq!(Some(prev), old.map(|k| k.pid), "cswitch old mismatch");
            if self.filter.contains(prev) {
                self.running -= 1;
            }
        }
        self.per_cpu[*cpu] = new.map(|k| k.pid);
        if let Some(next) = self.per_cpu[*cpu] {
            if self.filter.contains(next) {
                self.running += 1;
            }
        }
    }

    pub(crate) fn finish(mut self) -> ConcurrencyProfile {
        self.hist
            .add(self.running, self.end.saturating_since(self.cursor));
        ConcurrencyProfile {
            histogram: self.hist,
            n_logical: self.per_cpu.len(),
        }
    }
}

/// Instantaneous TLP over time: for each `bin`, the busy-time-weighted mean
/// concurrency (idle time excluded, like Equation 1 restricted to the bin);
/// bins with no busy time report 0. This is the signal plotted in the
/// paper's Figures 5–7.
pub fn instantaneous_tlp(trace: &EtlTrace, filter: &PidSet, bin: SimDuration) -> Series {
    assert!(!bin.is_zero(), "bin width must be positive");
    let n = trace.n_logical_cpus();
    let mut per_cpu: Vec<Option<u64>> = vec![None; n];
    let mut running = 0usize;
    let mut cursor = trace.start();
    let mut bin_start = trace.start();
    let mut busy = SimDuration::ZERO;
    let mut weighted = 0.0f64;
    let mut out = Series::new();

    let flush_bins_until = |t: SimTime,
                            running: usize,
                            cursor: &mut SimTime,
                            bin_start: &mut SimTime,
                            busy: &mut SimDuration,
                            weighted: &mut f64,
                            out: &mut Series| {
        while *cursor < t {
            let bin_end = *bin_start + bin;
            let seg_end = t.min(bin_end);
            let dt = seg_end.saturating_since(*cursor);
            if running > 0 {
                *busy += dt;
                *weighted += running as f64 * dt.as_secs_f64();
            }
            *cursor = seg_end;
            if *cursor >= bin_end {
                let v = if busy.is_zero() {
                    0.0
                } else {
                    *weighted / busy.as_secs_f64()
                };
                out.push(*bin_start, v);
                *bin_start = bin_end;
                *busy = SimDuration::ZERO;
                *weighted = 0.0;
            }
        }
    };

    for ev in trace.events() {
        if let TraceEvent::CSwitch {
            at,
            cpu,
            old: _,
            new,
            ..
        } = ev
        {
            let at = (*at).max(trace.start()).min(trace.end());
            flush_bins_until(
                at,
                running,
                &mut cursor,
                &mut bin_start,
                &mut busy,
                &mut weighted,
                &mut out,
            );
            if let Some(prev) = per_cpu[*cpu] {
                if filter.contains(prev) {
                    running -= 1;
                }
            }
            per_cpu[*cpu] = new.map(|k| k.pid);
            if let Some(next) = per_cpu[*cpu] {
                if filter.contains(next) {
                    running += 1;
                }
            }
        }
    }
    flush_bins_until(
        trace.end(),
        running,
        &mut cursor,
        &mut bin_start,
        &mut busy,
        &mut weighted,
        &mut out,
    );
    // Emit the final partial bin if it saw anything.
    if bin_start < trace.end() {
        let v = if busy.is_zero() {
            0.0
        } else {
            weighted / busy.as_secs_f64()
        };
        out.push(bin_start, v);
    }
    out
}

/// GPU utilization summary for one observation window.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GpuUtil {
    /// Fraction of the window during which ≥1 packet was executing
    /// (union across engines) — the headline "GPU utilization %".
    pub busy_frac: f64,
    /// Sum of packet execution times over the window; exceeds `busy_frac`
    /// when engines overlap (PhoenixMiner's two concurrent packets).
    pub sum_frac: f64,
    /// Mean number of packets in flight while the GPU was busy.
    pub mean_outstanding: f64,
}

impl GpuUtil {
    /// Utilization as a percentage in `[0, 100]`.
    pub fn percent(&self) -> f64 {
        self.busy_frac * 100.0
    }
}

/// Computes GPU utilization from packet start/finish records.
///
/// `filter` restricts to packets submitted by those processes (pass the
/// application's [`PidSet`]); `gpu` restricts to one device (`None` = all).
pub fn gpu_utilization(trace: &EtlTrace, filter: &PidSet, gpu: Option<usize>) -> GpuUtil {
    let mut fold = GpuUtilFold::new(filter, gpu, trace.start(), trace.end());
    for ev in trace.events() {
        fold.push(ev);
    }
    fold.finish()
}

/// The event-at-a-time fold behind [`gpu_utilization`], shared verbatim by
/// the materialized and sharded paths so both produce bit-identical floats
/// (same accumulation order over the same event sequence).
struct GpuUtilFold<'a> {
    filter: &'a PidSet,
    gpu: Option<usize>,
    start: SimTime,
    end: SimTime,
    outstanding: i64,
    cursor: SimTime,
    busy: f64,
    sum: f64,
}

impl<'a> GpuUtilFold<'a> {
    fn new(filter: &'a PidSet, gpu: Option<usize>, start: SimTime, end: SimTime) -> Self {
        GpuUtilFold {
            filter,
            gpu,
            start,
            end,
            outstanding: 0,
            cursor: start,
            busy: 0.0,
            sum: 0.0,
        }
    }

    fn push(&mut self, ev: &TraceEvent) {
        let (at, delta) = match ev {
            TraceEvent::GpuStart {
                at, gpu: g, pid, ..
            } if self.filter.contains(*pid) && self.gpu.map_or(true, |want| want == *g) => (*at, 1),
            TraceEvent::GpuEnd {
                at, gpu: g, pid, ..
            } if self.filter.contains(*pid) && self.gpu.map_or(true, |want| want == *g) => {
                (*at, -1)
            }
            _ => return,
        };
        let at = at.max(self.start).min(self.end);
        let dt = at.saturating_since(self.cursor).as_secs_f64();
        if self.outstanding > 0 {
            self.busy += dt;
            self.sum += self.outstanding as f64 * dt;
        }
        self.cursor = at;
        self.outstanding += delta;
        debug_assert!(self.outstanding >= 0, "GpuEnd without matching GpuStart");
    }

    fn finish(mut self) -> GpuUtil {
        let window = (self.end - self.start).as_secs_f64();
        if window <= 0.0 {
            return GpuUtil {
                busy_frac: 0.0,
                sum_frac: 0.0,
                mean_outstanding: 0.0,
            };
        }
        let dt = self.end.saturating_since(self.cursor).as_secs_f64();
        if self.outstanding > 0 {
            self.busy += dt;
            self.sum += self.outstanding as f64 * dt;
        }
        GpuUtil {
            busy_frac: self.busy / window,
            sum_frac: self.sum / window,
            mean_outstanding: if self.busy > 0.0 {
                self.sum / self.busy
            } else {
                0.0
            },
        }
    }
}

/// GPU busy percentage per time bin (the GPU curves of Figures 5–7 and 9).
pub fn gpu_util_series(
    trace: &EtlTrace,
    filter: &PidSet,
    gpu: Option<usize>,
    bin: SimDuration,
) -> Series {
    assert!(!bin.is_zero(), "bin width must be positive");
    let mut outstanding = 0i64;
    let mut cursor = trace.start();
    let mut bin_start = trace.start();
    let mut busy = SimDuration::ZERO;
    let mut out = Series::new();

    let advance = |t: SimTime,
                   outstanding: i64,
                   cursor: &mut SimTime,
                   bin_start: &mut SimTime,
                   busy: &mut SimDuration,
                   out: &mut Series| {
        while *cursor < t {
            let bin_end = *bin_start + bin;
            let seg_end = t.min(bin_end);
            if outstanding > 0 {
                *busy += seg_end.saturating_since(*cursor);
            }
            *cursor = seg_end;
            if *cursor >= bin_end {
                out.push(*bin_start, 100.0 * (*busy / bin));
                *bin_start = bin_end;
                *busy = SimDuration::ZERO;
            }
        }
    };

    for ev in trace.events() {
        let (at, delta) = match ev {
            TraceEvent::GpuStart {
                at, gpu: g, pid, ..
            } if filter.contains(*pid) && gpu.map_or(true, |want| want == *g) => (*at, 1),
            TraceEvent::GpuEnd {
                at, gpu: g, pid, ..
            } if filter.contains(*pid) && gpu.map_or(true, |want| want == *g) => (*at, -1),
            _ => continue,
        };
        let at = at.max(trace.start()).min(trace.end());
        advance(
            at,
            outstanding,
            &mut cursor,
            &mut bin_start,
            &mut busy,
            &mut out,
        );
        outstanding += delta;
    }
    advance(
        trace.end(),
        outstanding,
        &mut cursor,
        &mut bin_start,
        &mut busy,
        &mut out,
    );
    if bin_start < trace.end() {
        out.push(bin_start, 100.0 * (busy / bin));
    }
    out
}

/// Scheduler-behaviour statistics for one application: how long threads run
/// between switches and how often they migrate across CPUs. (WPA exposes
/// both from the same CSwitch table.)
#[derive(Clone, Debug, PartialEq)]
pub struct ScheduleStats {
    /// Completed on-CPU episodes observed.
    pub episodes: u64,
    /// Mean continuous on-CPU time per episode (ms).
    pub mean_slice_ms: f64,
    /// Longest continuous on-CPU episode (ms).
    pub max_slice_ms: f64,
    /// Times a thread resumed on a different CPU than it last ran on.
    pub migrations: u64,
}

/// Computes run-episode lengths and cross-CPU migrations for `filter`.
pub fn schedule_stats(trace: &EtlTrace, filter: &PidSet) -> ScheduleStats {
    let mut fold = ScheduleStatsFold::new(filter);
    for ev in trace.events() {
        fold.push(ev);
    }
    fold.finish()
}

/// The fold behind [`schedule_stats`] — shared by the materialized and
/// sharded paths (see [`GpuUtilFold`] for the determinism argument).
struct ScheduleStatsFold<'a> {
    filter: &'a PidSet,
    on_cpu: std::collections::HashMap<(u64, u64), (usize, SimTime)>,
    last_cpu: std::collections::HashMap<(u64, u64), usize>,
    episodes: u64,
    total: f64,
    max: f64,
    migrations: u64,
}

impl<'a> ScheduleStatsFold<'a> {
    fn new(filter: &'a PidSet) -> Self {
        ScheduleStatsFold {
            filter,
            on_cpu: std::collections::HashMap::new(),
            last_cpu: std::collections::HashMap::new(),
            episodes: 0,
            total: 0.0,
            max: 0.0,
            migrations: 0,
        }
    }

    fn push(&mut self, ev: &TraceEvent) {
        if let TraceEvent::CSwitch {
            at, cpu, old, new, ..
        } = ev
        {
            if let Some(k) = old {
                if self.filter.contains(k.pid) {
                    if let Some((start_cpu, since)) = self.on_cpu.remove(&(k.pid, k.tid)) {
                        debug_assert_eq!(start_cpu, *cpu);
                        let ms = at.saturating_since(since).as_secs_f64() * 1e3;
                        self.episodes += 1;
                        self.total += ms;
                        self.max = self.max.max(ms);
                    }
                }
            }
            if let Some(k) = new {
                if self.filter.contains(k.pid) {
                    if let Some(&prev) = self.last_cpu.get(&(k.pid, k.tid)) {
                        if prev != *cpu {
                            self.migrations += 1;
                        }
                    }
                    self.last_cpu.insert((k.pid, k.tid), *cpu);
                    self.on_cpu.insert((k.pid, k.tid), (*cpu, *at));
                }
            }
        }
    }

    fn finish(self) -> ScheduleStats {
        ScheduleStats {
            episodes: self.episodes,
            mean_slice_ms: if self.episodes > 0 {
                self.total / self.episodes as f64
            } else {
                0.0
            },
            max_slice_ms: self.max,
            migrations: self.migrations,
        }
    }
}

/// Per-engine GPU busy fractions for `filter` on device `gpu` — splits
/// utilization into 3D/compute queues vs the fixed-function encoder
/// (`u32::MAX` engine id), the way WPA's GPU view groups by node.
pub fn gpu_engine_breakdown(trace: &EtlTrace, filter: &PidSet, gpu: usize) -> Vec<(u32, f64)> {
    let mut fold = EngineFold::new(filter, gpu, trace.start(), trace.end());
    for ev in trace.events() {
        fold.push(ev);
    }
    fold.finish()
}

/// The fold behind [`gpu_engine_breakdown`] — shared by the materialized
/// and sharded paths (see [`GpuUtilFold`] for the determinism argument).
struct EngineFold<'a> {
    filter: &'a PidSet,
    gpu: usize,
    start: SimTime,
    end: SimTime,
    outstanding: std::collections::BTreeMap<u32, i64>,
    busy: std::collections::BTreeMap<u32, f64>,
    cursor: SimTime,
}

impl<'a> EngineFold<'a> {
    fn new(filter: &'a PidSet, gpu: usize, start: SimTime, end: SimTime) -> Self {
        EngineFold {
            filter,
            gpu,
            start,
            end,
            outstanding: std::collections::BTreeMap::new(),
            busy: std::collections::BTreeMap::new(),
            cursor: start,
        }
    }

    fn push(&mut self, ev: &TraceEvent) {
        let (at, engine, delta) = match ev {
            TraceEvent::GpuStart {
                at,
                gpu: g,
                engine,
                pid,
                ..
            } if *g == self.gpu && self.filter.contains(*pid) => (*at, *engine, 1),
            TraceEvent::GpuEnd {
                at,
                gpu: g,
                engine,
                pid,
                ..
            } if *g == self.gpu && self.filter.contains(*pid) => (*at, *engine, -1),
            _ => return,
        };
        let dt = at.saturating_since(self.cursor).as_secs_f64();
        for (&e, &n) in &self.outstanding {
            if n > 0 {
                *self.busy.entry(e).or_default() += dt;
            }
        }
        self.cursor = at;
        *self.outstanding.entry(engine).or_default() += delta;
    }

    fn finish(mut self) -> Vec<(u32, f64)> {
        let window = (self.end - self.start).as_secs_f64();
        let dt = self.end.saturating_since(self.cursor).as_secs_f64();
        for (&e, &n) in &self.outstanding {
            if n > 0 {
                *self.busy.entry(e).or_default() += dt;
            }
        }
        self.busy
            .into_iter()
            .map(|(e, b)| (e, if window > 0.0 { b / window } else { 0.0 }))
            .collect()
    }
}

/// Per-process resource summary — a Task-Manager-style view of one trace.
#[derive(Clone, Debug, PartialEq)]
pub struct ProcessSummary {
    /// Process id.
    pub pid: u64,
    /// Image name.
    pub name: String,
    /// Threads the process created during the window.
    pub threads: u64,
    /// CPU busy time across all logical CPUs, in seconds.
    pub cpu_seconds: f64,
    /// Share of total machine CPU capacity, in percent.
    pub cpu_percent: f64,
    /// GPU busy fraction attributable to the process, in percent (union of
    /// its packets' intervals).
    pub gpu_percent: f64,
}

/// Summarizes every process in the trace, sorted by CPU seconds descending.
pub fn per_process_summary(trace: &EtlTrace) -> Vec<ProcessSummary> {
    // BTreeMaps: `names` is iterated into the (sorted) output rows, and the
    // workspace determinism lint rejects ordered output derived from
    // HashMap iteration.
    use std::collections::BTreeMap;
    let window = trace.window().as_secs_f64();
    let mut names: BTreeMap<u64, String> = BTreeMap::new();
    let mut threads: BTreeMap<u64, u64> = BTreeMap::new();
    let mut cpu_seconds: BTreeMap<u64, f64> = BTreeMap::new();
    // Replay context switches, attributing busy time per pid.
    let n = trace.n_logical_cpus();
    let mut per_cpu: Vec<Option<(u64, SimTime)>> = vec![None; n];
    for ev in trace.events() {
        match ev {
            TraceEvent::ProcessStart { pid, name, .. } => {
                names.insert(*pid, name.clone());
            }
            TraceEvent::ThreadStart { key, .. } => {
                *threads.entry(key.pid).or_default() += 1;
            }
            TraceEvent::CSwitch { at, cpu, new, .. } => {
                if let Some((pid, since)) = per_cpu[*cpu].take() {
                    *cpu_seconds.entry(pid).or_default() +=
                        at.saturating_since(since).as_secs_f64();
                }
                per_cpu[*cpu] = new.map(|k| (k.pid, *at));
            }
            _ => {}
        }
    }
    for slot in per_cpu.into_iter().flatten() {
        let (pid, since) = slot;
        *cpu_seconds.entry(pid).or_default() += trace.end().saturating_since(since).as_secs_f64();
    }
    let mut out: Vec<ProcessSummary> = names
        .into_iter()
        .map(|(pid, name)| {
            let cpu = cpu_seconds.get(&pid).copied().unwrap_or(0.0);
            let filter: PidSet = [pid].into_iter().collect();
            let gpu = gpu_utilization(trace, &filter, None).percent();
            ProcessSummary {
                pid,
                name,
                threads: threads.get(&pid).copied().unwrap_or(0),
                cpu_seconds: cpu,
                cpu_percent: if window > 0.0 {
                    100.0 * cpu / (window * n as f64)
                } else {
                    0.0
                },
                gpu_percent: gpu,
            }
        })
        .collect();
    out.sort_by(|a, b| {
        b.cpu_seconds
            .total_cmp(&a.cpu_seconds)
            .then(a.pid.cmp(&b.pid))
    });
    out
}

/// Scheduling-latency (responsiveness) summary: ready-time → switch-in
/// delays of an application's threads.
///
/// Flautner et al.'s original motivation for a second processor was that it
/// "improved the responsiveness of interactive applications" (§II): with
/// more logical CPUs, a woken thread waits less before running. This
/// analyzer quantifies that from the CSwitch `ready_since` column.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencyStats {
    /// Number of scheduling events observed.
    pub count: u64,
    /// Mean ready→run delay in microseconds.
    pub mean_us: f64,
    /// Median delay in microseconds.
    pub p50_us: f64,
    /// 95th-percentile delay in microseconds.
    pub p95_us: f64,
    /// 99th-percentile delay in microseconds (tail responsiveness).
    pub p99_us: f64,
    /// Worst delay in microseconds.
    pub max_us: f64,
}

/// Quantile `q` of an ascending-sorted sample by linear interpolation at
/// rank `(n - 1) * q` — the "inclusive" / NumPy-default method. Rounding to
/// the nearest rank instead would report p100 as p95 for n ≤ 10.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let rank = (sorted.len() - 1) as f64 * q;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// Computes ready→switch-in latency over the filtered processes.
pub fn scheduling_latency(trace: &EtlTrace, filter: &PidSet) -> LatencyStats {
    let mut fold = LatencyFold::new(filter);
    for ev in trace.events() {
        fold.push(ev);
    }
    fold.finish()
}

/// The fold behind [`scheduling_latency`] — shared by the materialized and
/// sharded paths (see [`GpuUtilFold`] for the determinism argument).
struct LatencyFold<'a> {
    filter: &'a PidSet,
    delays: Vec<f64>,
}

impl<'a> LatencyFold<'a> {
    fn new(filter: &'a PidSet) -> Self {
        LatencyFold {
            filter,
            delays: Vec::new(),
        }
    }

    fn push(&mut self, ev: &TraceEvent) {
        if let TraceEvent::CSwitch {
            at,
            new: Some(key),
            ready_since: Some(ready),
            ..
        } = ev
        {
            if self.filter.contains(key.pid) {
                self.delays
                    .push(at.saturating_since(*ready).as_nanos() as f64 / 1e3);
            }
        }
    }

    fn finish(mut self) -> LatencyStats {
        if self.delays.is_empty() {
            return LatencyStats {
                count: 0,
                mean_us: 0.0,
                p50_us: 0.0,
                p95_us: 0.0,
                p99_us: 0.0,
                max_us: 0.0,
            };
        }
        self.delays.sort_by(|a, b| a.total_cmp(b));
        let count = self.delays.len() as u64;
        let mean_us = self.delays.iter().sum::<f64>() / self.delays.len() as f64;
        let p50_us = quantile(&self.delays, 0.50);
        let p95_us = quantile(&self.delays, 0.95);
        let p99_us = quantile(&self.delays, 0.99);
        // lint:allow(analyzer-panic): the empty case returned above
        let max_us = *self.delays.last().expect("non-empty");
        LatencyStats {
            count,
            mean_us,
            p50_us,
            p95_us,
            p99_us,
            max_us,
        }
    }
}

/// Frames per second over time from [`TraceEvent::Frame`] records
/// (the paper's Figure 13). `pid` of `None` counts all processes.
pub fn fps_series(trace: &EtlTrace, pid: Option<u64>, bin: SimDuration) -> Series {
    assert!(!bin.is_zero(), "bin width must be positive");
    let mut out = Series::new();
    let mut bin_start = trace.start();
    let mut count = 0u64;
    for ev in trace.events() {
        if let TraceEvent::Frame { at, pid: p } = ev {
            if pid.is_some_and(|want| want != *p) {
                continue;
            }
            while *at >= bin_start + bin {
                out.push(bin_start, count as f64 / bin.as_secs_f64());
                bin_start += bin;
                count = 0;
            }
            count += 1;
        }
    }
    while bin_start + bin <= trace.end() {
        out.push(bin_start, count as f64 / bin.as_secs_f64());
        bin_start += bin;
        count = 0;
    }
    out
}

// ---------------------------------------------------------------------------
// Sharded streaming variants (zero-copy, DESIGN.md §14)
// ---------------------------------------------------------------------------

use crate::shard::{ShardRunner, ShardedTrace};
use std::io;

/// Sharded twin of [`concurrency`]: blocks decode in parallel, the fold
/// runs in trace order — bit-identical output.
///
/// # Errors
/// Any block decode or checksum error.
pub fn concurrency_sharded(
    trace: &ShardedTrace,
    filter: &PidSet,
    runner: &dyn ShardRunner,
    shards: usize,
) -> io::Result<ConcurrencyProfile> {
    let mut sp = simobs::span::span("analyzer", "tlp");
    sp.add_events(trace.count());
    let mut fold = ConcurrencyFold::new(filter, trace.n_logical_cpus(), trace.start(), trace.end());
    trace.fold_events(runner, shards, |ev| fold.push(&ev))?;
    Ok(fold.finish())
}

/// Sharded twin of [`gpu_utilization`]: blocks decode in parallel, the fold
/// runs in trace order — bit-identical output.
///
/// # Errors
/// Any block decode or checksum error.
pub fn gpu_utilization_sharded(
    trace: &ShardedTrace,
    filter: &PidSet,
    gpu: Option<usize>,
    runner: &dyn ShardRunner,
    shards: usize,
) -> io::Result<GpuUtil> {
    let mut fold = GpuUtilFold::new(filter, gpu, trace.start(), trace.end());
    trace.fold_events(runner, shards, |ev| fold.push(&ev))?;
    Ok(fold.finish())
}

/// Sharded twin of [`schedule_stats`] (see [`gpu_utilization_sharded`]).
///
/// # Errors
/// Any block decode or checksum error.
pub fn schedule_stats_sharded(
    trace: &ShardedTrace,
    filter: &PidSet,
    runner: &dyn ShardRunner,
    shards: usize,
) -> io::Result<ScheduleStats> {
    let mut fold = ScheduleStatsFold::new(filter);
    trace.fold_events(runner, shards, |ev| fold.push(&ev))?;
    Ok(fold.finish())
}

/// Sharded twin of [`gpu_engine_breakdown`] (see [`gpu_utilization_sharded`]).
///
/// # Errors
/// Any block decode or checksum error.
pub fn gpu_engine_breakdown_sharded(
    trace: &ShardedTrace,
    filter: &PidSet,
    gpu: usize,
    runner: &dyn ShardRunner,
    shards: usize,
) -> io::Result<Vec<(u32, f64)>> {
    let mut fold = EngineFold::new(filter, gpu, trace.start(), trace.end());
    trace.fold_events(runner, shards, |ev| fold.push(&ev))?;
    Ok(fold.finish())
}

/// Sharded twin of [`scheduling_latency`] (see [`gpu_utilization_sharded`]).
///
/// # Errors
/// Any block decode or checksum error.
pub fn scheduling_latency_sharded(
    trace: &ShardedTrace,
    filter: &PidSet,
    runner: &dyn ShardRunner,
    shards: usize,
) -> io::Result<LatencyStats> {
    let mut fold = LatencyFold::new(filter);
    trace.fold_events(runner, shards, |ev| fold.push(&ev))?;
    Ok(fold.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ThreadKey, TraceBuilder};
    use crate::shard::SerialShards;

    fn key(pid: u64, tid: u64) -> ThreadKey {
        ThreadKey { pid, tid }
    }

    /// A multi-block trace with CPU occupancy carried across blocks: threads
    /// of two processes trade `n_cpus` CPUs, with long stretches where some
    /// CPUs see no switch at all.
    fn busy_trace(n_cpus: usize) -> EtlTrace {
        let n_events = (crate::setl3::BLOCK_RECORDS * 3 + 500) as usize;
        let mut b = TraceBuilder::new(n_cpus);
        b.push(TraceEvent::ProcessStart {
            at: SimTime::ZERO,
            pid: 1,
            name: "app.exe".into(),
        });
        b.push(TraceEvent::ProcessStart {
            at: SimTime::ZERO,
            pid: 2,
            name: "other.exe".into(),
        });
        let mut occupant: Vec<Option<ThreadKey>> = vec![None; n_cpus];
        for i in 0..n_events {
            let at = SimTime::from_nanos(i as u64 * 700 + 1);
            // Skew toward CPUs 0/1 so the rest stay untouched across whole
            // blocks; alternate pids so the filter matters.
            let cpu = match i % 11 {
                0..=4 => 0,
                5..=8 => 1,
                9 => 2,
                _ => 3 + (i / 11) % (n_cpus - 3),
            };
            let next = match i % 3 {
                0 => Some(key(1, 10 + (i % 5) as u64)),
                1 => Some(key(2, 20)),
                _ => None,
            };
            b.push(TraceEvent::CSwitch {
                at,
                cpu,
                old: occupant[cpu],
                new: next,
                ready_since: if i % 4 == 0 { Some(at) } else { None },
            });
            occupant[cpu] = next;
        }
        b.finish(
            SimTime::ZERO,
            SimTime::from_nanos(n_events as u64 * 700 + 5000),
        )
    }

    #[test]
    fn sharded_concurrency_is_bit_identical_to_serial() {
        for n_cpus in [4, 200] {
            let trace = busy_trace(n_cpus);
            let sharded = ShardedTrace::from_bytes(crate::setl3::encode(&trace)).unwrap();
            assert!(sharded.n_blocks() >= 3);
            for filter in [
                trace.pids_by_name("app"),
                trace.pids_by_name("other"),
                trace.all_pids(),
                PidSet::new(),
            ] {
                let serial = concurrency(&trace, &filter);
                for shards in [1usize, 2, 3, 4, 7] {
                    let got =
                        concurrency_sharded(&sharded, &filter, &SerialShards, shards).unwrap();
                    assert_eq!(serial, got, "cpus={n_cpus} shards={shards}");
                }
            }
        }
    }

    #[test]
    fn sharded_stat_folds_are_bit_identical_to_serial() {
        let trace = busy_trace(4);
        let sharded = ShardedTrace::from_bytes(crate::setl3::encode(&trace)).unwrap();
        let filter = trace.pids_by_name("app");
        for shards in [1usize, 4] {
            assert_eq!(
                gpu_utilization(&trace, &filter, None),
                gpu_utilization_sharded(&sharded, &filter, None, &SerialShards, shards).unwrap()
            );
            assert_eq!(
                schedule_stats(&trace, &filter),
                schedule_stats_sharded(&sharded, &filter, &SerialShards, shards).unwrap()
            );
            assert_eq!(
                gpu_engine_breakdown(&trace, &filter, 0),
                gpu_engine_breakdown_sharded(&sharded, &filter, 0, &SerialShards, shards).unwrap()
            );
            assert_eq!(
                scheduling_latency(&trace, &filter),
                scheduling_latency_sharded(&sharded, &filter, &SerialShards, shards).unwrap()
            );
        }
    }

    fn sw(at_ms: u64, cpu: usize, old: Option<ThreadKey>, new: Option<ThreadKey>) -> TraceEvent {
        TraceEvent::CSwitch {
            at: SimTime::ZERO + SimDuration::from_millis(at_ms),
            cpu,
            old,
            new,
            ready_since: None,
        }
    }

    /// 2 CPUs, 10 ms window. App pid=1 runs: cpu0 [0,10), cpu1 [2,6).
    /// c2 = 4ms, c1 = 6ms, c0 = 0 → TLP = (0.6*1 + 0.4*2)/1.0 = 1.4.
    #[test]
    fn tlp_equation_one_on_synthetic_trace() {
        let mut b = TraceBuilder::new(2);
        b.push(sw(0, 0, None, Some(key(1, 100))));
        b.push(sw(2, 1, None, Some(key(1, 101))));
        b.push(sw(6, 1, Some(key(1, 101)), None));
        let t = b.finish(SimTime::ZERO, SimTime::ZERO + SimDuration::from_millis(10));
        let filter: PidSet = [1u64].into_iter().collect();
        let prof = concurrency(&t, &filter);
        assert!((prof.tlp() - 1.4).abs() < 1e-9, "tlp {}", prof.tlp());
        assert_eq!(prof.max_concurrency(), 2);
        let c = prof.fractions();
        assert!((c[0] - 0.0).abs() < 1e-9);
        assert!((c[1] - 0.6).abs() < 1e-9);
        assert!((c[2] - 0.4).abs() < 1e-9);
    }

    #[test]
    fn filter_excludes_other_processes() {
        let mut b = TraceBuilder::new(2);
        b.push(sw(0, 0, None, Some(key(1, 100))));
        b.push(sw(0, 1, None, Some(key(2, 200)))); // other app
        b.push(sw(5, 0, Some(key(1, 100)), None));
        let t = b.finish(SimTime::ZERO, SimTime::ZERO + SimDuration::from_millis(10));
        let filter: PidSet = [1u64].into_iter().collect();
        let prof = concurrency(&t, &filter);
        // pid 1 runs alone 5 of 10 ms → c0=0.5, c1=0.5 → TLP = 1.
        assert!((prof.tlp() - 1.0).abs() < 1e-9);
        let c = prof.fractions();
        assert!((c[0] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn busy_fraction_at_max() {
        let mut b = TraceBuilder::new(2);
        b.push(sw(0, 0, None, Some(key(1, 100))));
        b.push(sw(8, 1, None, Some(key(1, 101))));
        let t = b.finish(SimTime::ZERO, SimTime::ZERO + SimDuration::from_millis(10));
        let filter: PidSet = [1u64].into_iter().collect();
        let prof = concurrency(&t, &filter);
        // busy 10ms, 2 of them at concurrency 2 → 20% of busy time at max.
        assert!((prof.busy_fraction_at(2) - 0.2).abs() < 1e-9);
        assert_eq!(prof.busy_fraction_at(0), 0.0);
    }

    #[test]
    fn instantaneous_tlp_bins() {
        let mut b = TraceBuilder::new(2);
        // Bin 1 (0-10ms): one thread. Bin 2 (10-20ms): two threads.
        b.push(sw(0, 0, None, Some(key(1, 100))));
        b.push(sw(10, 1, None, Some(key(1, 101))));
        let t = b.finish(SimTime::ZERO, SimTime::ZERO + SimDuration::from_millis(20));
        let filter: PidSet = [1u64].into_iter().collect();
        let s = instantaneous_tlp(&t, &filter, SimDuration::from_millis(10));
        assert_eq!(s.len(), 2);
        assert!((s.points()[0].1 - 1.0).abs() < 1e-9);
        assert!((s.points()[1].1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn idle_bins_report_zero() {
        let mut b = TraceBuilder::new(1);
        b.push(sw(15, 0, None, Some(key(1, 100))));
        b.push(sw(20, 0, Some(key(1, 100)), None));
        let t = b.finish(SimTime::ZERO, SimTime::ZERO + SimDuration::from_millis(30));
        let filter: PidSet = [1u64].into_iter().collect();
        let s = instantaneous_tlp(&t, &filter, SimDuration::from_millis(10));
        assert_eq!(s.len(), 3);
        assert_eq!(s.points()[0].1, 0.0); // 0-10: idle
        assert!((s.points()[1].1 - 1.0).abs() < 1e-9); // 10-20: busy half, conc 1
        assert_eq!(s.points()[2].1, 0.0); // 20-30: idle
    }

    fn gpu_ev(at_ms: u64, start: bool, engine: u32, packet: u64, pid: u64) -> TraceEvent {
        let at = SimTime::ZERO + SimDuration::from_millis(at_ms);
        if start {
            TraceEvent::GpuStart {
                at,
                gpu: 0,
                engine,
                packet,
                pid,
            }
        } else {
            TraceEvent::GpuEnd {
                at,
                gpu: 0,
                engine,
                packet,
                pid,
            }
        }
    }

    #[test]
    fn gpu_util_union_and_sum() {
        let mut b = TraceBuilder::new(1);
        // Engine 0 busy [0,6); engine 1 busy [4,8) → union 8ms of 10ms.
        b.push(gpu_ev(0, true, 0, 1, 1));
        b.push(gpu_ev(4, true, 1, 2, 1));
        b.push(gpu_ev(6, false, 0, 1, 1));
        b.push(gpu_ev(8, false, 1, 2, 1));
        let t = b.finish(SimTime::ZERO, SimTime::ZERO + SimDuration::from_millis(10));
        let filter: PidSet = [1u64].into_iter().collect();
        let u = gpu_utilization(&t, &filter, None);
        assert!((u.busy_frac - 0.8).abs() < 1e-9, "{u:?}");
        assert!((u.sum_frac - 1.0).abs() < 1e-9, "{u:?}");
        assert!((u.mean_outstanding - 1.25).abs() < 1e-9, "{u:?}");
        assert!((u.percent() - 80.0).abs() < 1e-6);
    }

    #[test]
    fn gpu_util_filters_by_pid() {
        let mut b = TraceBuilder::new(1);
        b.push(gpu_ev(0, true, 0, 1, 42));
        b.push(gpu_ev(10, false, 0, 1, 42));
        let t = b.finish(SimTime::ZERO, SimTime::ZERO + SimDuration::from_millis(10));
        let other: PidSet = [7u64].into_iter().collect();
        assert_eq!(gpu_utilization(&t, &other, None).busy_frac, 0.0);
        let mine: PidSet = [42u64].into_iter().collect();
        assert!((gpu_utilization(&t, &mine, None).busy_frac - 1.0).abs() < 1e-9);
    }

    #[test]
    fn gpu_series_bins() {
        let mut b = TraceBuilder::new(1);
        b.push(gpu_ev(0, true, 0, 1, 1));
        b.push(gpu_ev(5, false, 0, 1, 1));
        let t = b.finish(SimTime::ZERO, SimTime::ZERO + SimDuration::from_millis(20));
        let filter: PidSet = [1u64].into_iter().collect();
        let s = gpu_util_series(&t, &filter, None, SimDuration::from_millis(10));
        assert_eq!(s.len(), 2);
        assert!((s.points()[0].1 - 50.0).abs() < 1e-9);
        assert!((s.points()[1].1 - 0.0).abs() < 1e-9);
    }

    #[test]
    fn fps_counts_frames_per_bin() {
        let mut b = TraceBuilder::new(1);
        for i in 0..90 {
            b.push(TraceEvent::Frame {
                at: SimTime::ZERO + SimDuration::from_millis(i * 11),
                pid: 5,
            });
        }
        let t = b.finish(SimTime::ZERO, SimTime::ZERO + SimDuration::from_secs(1));
        let s = fps_series(&t, Some(5), SimDuration::from_millis(500));
        assert_eq!(s.len(), 2);
        // ~91 fps cadence → ≈45 frames per 500 ms bin → ≈90 fps.
        for (_, v) in s.iter() {
            assert!((v - 90.0).abs() < 4.0, "fps {v}");
        }
        // Filtering by a different pid yields zeros.
        let s0 = fps_series(&t, Some(9), SimDuration::from_millis(500));
        assert!(s0.iter().all(|(_, v)| v == 0.0));
    }

    #[test]
    fn schedule_stats_measure_slices_and_migrations() {
        let mut b = TraceBuilder::new(2);
        // Episode 1: tid 10 on cpu 0 for 4 ms; episode 2: same thread
        // resumes on cpu 1 (a migration) for 2 ms.
        b.push(sw(0, 0, None, Some(key(1, 10))));
        b.push(sw(4, 0, Some(key(1, 10)), None));
        b.push(sw(6, 1, None, Some(key(1, 10))));
        b.push(sw(8, 1, Some(key(1, 10)), None));
        let t = b.finish(SimTime::ZERO, SimTime::ZERO + SimDuration::from_millis(10));
        let filter: PidSet = [1u64].into_iter().collect();
        let s = schedule_stats(&t, &filter);
        assert_eq!(s.episodes, 2);
        assert!((s.mean_slice_ms - 3.0).abs() < 1e-9);
        assert!((s.max_slice_ms - 4.0).abs() < 1e-9);
        assert_eq!(s.migrations, 1);
    }

    #[test]
    fn engine_breakdown_splits_queues() {
        let mut b = TraceBuilder::new(1);
        // Engine 0 busy [0,6); NVENC (u32::MAX) busy [2,4).
        b.push(gpu_ev(0, true, 0, 1, 1));
        b.push(gpu_ev(2, true, u32::MAX, 2, 1));
        b.push(gpu_ev(4, false, u32::MAX, 2, 1));
        b.push(gpu_ev(6, false, 0, 1, 1));
        let t = b.finish(SimTime::ZERO, SimTime::ZERO + SimDuration::from_millis(10));
        let filter: PidSet = [1u64].into_iter().collect();
        let breakdown = gpu_engine_breakdown(&t, &filter, 0);
        assert_eq!(breakdown.len(), 2);
        assert_eq!(breakdown[0].0, 0);
        assert!((breakdown[0].1 - 0.6).abs() < 1e-9);
        assert_eq!(breakdown[1].0, u32::MAX);
        assert!((breakdown[1].1 - 0.2).abs() < 1e-9);
    }

    #[test]
    fn per_process_summary_attributes_cpu_and_gpu() {
        let mut b = TraceBuilder::new(2);
        b.push(TraceEvent::ProcessStart {
            at: SimTime::ZERO,
            pid: 1,
            name: "busy.exe".into(),
        });
        b.push(TraceEvent::ProcessStart {
            at: SimTime::ZERO,
            pid: 2,
            name: "idle.exe".into(),
        });
        b.push(TraceEvent::ThreadStart {
            at: SimTime::ZERO,
            key: key(1, 10),
            name: "t".into(),
        });
        // pid 1 runs on cpu 0 for 8 of 10 ms; pid 2 never runs.
        b.push(sw(0, 0, None, Some(key(1, 10))));
        b.push(gpu_ev(2, true, 0, 1, 1));
        b.push(gpu_ev(7, false, 0, 1, 1));
        b.push(sw(8, 0, Some(key(1, 10)), None));
        let t = b.finish(SimTime::ZERO, SimTime::ZERO + SimDuration::from_millis(10));
        let summary = per_process_summary(&t);
        assert_eq!(summary.len(), 2);
        assert_eq!(summary[0].name, "busy.exe");
        assert_eq!(summary[0].threads, 1);
        assert!((summary[0].cpu_seconds - 0.008).abs() < 1e-9);
        // 8 ms of one CPU over a 2-CPU 10 ms window = 40 %.
        assert!((summary[0].cpu_percent - 40.0).abs() < 1e-9);
        assert!((summary[0].gpu_percent - 50.0).abs() < 1e-9);
        assert_eq!(summary[1].name, "idle.exe");
        assert_eq!(summary[1].cpu_seconds, 0.0);
    }

    #[test]
    fn scheduling_latency_percentiles() {
        let mut b = TraceBuilder::new(2);
        // Three wakeups with 1, 2 and 10 ms ready→run delays.
        for (i, (ready_ms, run_ms)) in [(0u64, 1u64), (5, 7), (20, 30)].iter().enumerate() {
            b.push(TraceEvent::CSwitch {
                at: SimTime::ZERO + SimDuration::from_millis(*run_ms),
                cpu: 0,
                old: Some(key(1, i as u64)),
                new: Some(key(1, i as u64 + 10)),
                ready_since: Some(SimTime::ZERO + SimDuration::from_millis(*ready_ms)),
            });
        }
        let t = b.finish(SimTime::ZERO, SimTime::ZERO + SimDuration::from_millis(40));
        let filter: PidSet = [1u64].into_iter().collect();
        let lat = scheduling_latency(&t, &filter);
        assert_eq!(lat.count, 3);
        assert!((lat.mean_us - (1000.0 + 2000.0 + 10_000.0) / 3.0).abs() < 1e-6);
        assert_eq!(lat.max_us, 10_000.0);
        // Interpolated quantiles: p50 at rank 1.0, p95 at rank 1.9
        // (2000 + 0.9 * 8000), p99 at rank 1.98 (2000 + 0.98 * 8000).
        // Nearest-rank would wrongly report p100 for both tails.
        assert_eq!(lat.p50_us, 2000.0);
        assert!((lat.p95_us - 9200.0).abs() < 1e-9, "p95 {}", lat.p95_us);
        assert!((lat.p99_us - 9840.0).abs() < 1e-9, "p99 {}", lat.p99_us);
        assert!(lat.p95_us < lat.p99_us && lat.p99_us < lat.max_us);
        // Other pids are excluded.
        let other: PidSet = [9u64].into_iter().collect();
        assert_eq!(scheduling_latency(&t, &other).count, 0);
    }

    #[test]
    fn empty_trace_yields_zeroes() {
        let b = TraceBuilder::new(4);
        let t = b.finish(SimTime::ZERO, SimTime::ZERO + SimDuration::from_millis(10));
        let filter: PidSet = [1u64].into_iter().collect();
        assert_eq!(concurrency(&t, &filter).tlp(), 0.0);
        assert_eq!(gpu_utilization(&t, &filter, None).busy_frac, 0.0);
        let lat = scheduling_latency(&t, &filter);
        assert_eq!(lat.count, 0);
        assert_eq!(lat.p50_us, 0.0);
        assert_eq!(lat.p95_us, 0.0);
        assert_eq!(lat.p99_us, 0.0);
    }

    #[test]
    fn schedule_stats_on_empty_and_single_event_traces() {
        let filter: PidSet = [1u64].into_iter().collect();
        // Empty trace: no episodes, mean well-defined at zero.
        let empty = TraceBuilder::new(2).finish(SimTime::ZERO, SimTime::ZERO);
        let s = schedule_stats(&empty, &filter);
        assert_eq!(s.episodes, 0);
        assert_eq!(s.mean_slice_ms, 0.0);
        assert_eq!(s.max_slice_ms, 0.0);
        assert_eq!(s.migrations, 0);
        // A lone switch-in never completes an episode (no switch-out).
        let mut b = TraceBuilder::new(2);
        b.push(sw(0, 0, None, Some(key(1, 10))));
        let t = b.finish(SimTime::ZERO, SimTime::ZERO + SimDuration::from_millis(5));
        let s = schedule_stats(&t, &filter);
        assert_eq!(s.episodes, 0);
        assert_eq!(s.mean_slice_ms, 0.0);
        assert_eq!(s.migrations, 0);
    }

    #[test]
    fn per_process_summary_on_empty_and_single_event_traces() {
        // Empty trace: no processes at all.
        let empty = TraceBuilder::new(2).finish(SimTime::ZERO, SimTime::ZERO);
        assert!(per_process_summary(&empty).is_empty());
        // Single ProcessStart: one row, all resource columns zero.
        let mut b = TraceBuilder::new(2);
        b.push(TraceEvent::ProcessStart {
            at: SimTime::ZERO,
            pid: 3,
            name: "lonely.exe".into(),
        });
        let t = b.finish(SimTime::ZERO, SimTime::ZERO + SimDuration::from_millis(5));
        let summary = per_process_summary(&t);
        assert_eq!(summary.len(), 1);
        assert_eq!(summary[0].pid, 3);
        assert_eq!(summary[0].name, "lonely.exe");
        assert_eq!(summary[0].threads, 0);
        assert_eq!(summary[0].cpu_seconds, 0.0);
        assert_eq!(summary[0].cpu_percent, 0.0);
        assert_eq!(summary[0].gpu_percent, 0.0);
        // A thread still on-CPU at the window end is charged to the end.
        let mut b = TraceBuilder::new(2);
        b.push(TraceEvent::ProcessStart {
            at: SimTime::ZERO,
            pid: 3,
            name: "runner.exe".into(),
        });
        b.push(sw(1, 0, None, Some(key(3, 30))));
        let t = b.finish(SimTime::ZERO, SimTime::ZERO + SimDuration::from_millis(5));
        let summary = per_process_summary(&t);
        assert!((summary[0].cpu_seconds - 0.004).abs() < 1e-9);
    }

    #[test]
    fn zero_length_window_takes_gpu_early_return() {
        let mut b = TraceBuilder::new(1);
        b.push(gpu_ev(0, true, 0, 1, 1));
        b.push(gpu_ev(0, false, 0, 1, 1));
        let t = b.finish(SimTime::ZERO, SimTime::ZERO);
        let filter: PidSet = [1u64].into_iter().collect();
        let u = gpu_utilization(&t, &filter, None);
        assert_eq!(u.busy_frac, 0.0);
        assert_eq!(u.sum_frac, 0.0);
        assert_eq!(u.mean_outstanding, 0.0);
    }

    #[test]
    fn overlapping_engines_push_sum_above_busy() {
        let mut b = TraceBuilder::new(1);
        // Engines 0 and 1 both busy [2,8): the union is 6 ms but the
        // engine-seconds total is 12 ms, so sum_frac must exceed busy_frac.
        b.push(gpu_ev(2, true, 0, 1, 1));
        b.push(gpu_ev(2, true, 1, 2, 1));
        b.push(gpu_ev(8, false, 0, 1, 1));
        b.push(gpu_ev(8, false, 1, 2, 1));
        let t = b.finish(SimTime::ZERO, SimTime::ZERO + SimDuration::from_millis(10));
        let filter: PidSet = [1u64].into_iter().collect();
        let u = gpu_utilization(&t, &filter, None);
        assert!((u.busy_frac - 0.6).abs() < 1e-9, "{u:?}");
        assert!((u.sum_frac - 1.2).abs() < 1e-9, "{u:?}");
        assert!(u.sum_frac > u.busy_frac);
        assert!((u.mean_outstanding - 2.0).abs() < 1e-9, "{u:?}");
    }

    #[test]
    fn busy_fraction_at_zero_is_always_zero() {
        // Idle profile: total busy time is zero → no division by zero.
        let b = TraceBuilder::new(2);
        let t = b.finish(SimTime::ZERO, SimTime::ZERO + SimDuration::from_millis(10));
        let filter: PidSet = [1u64].into_iter().collect();
        let idle = concurrency(&t, &filter);
        assert_eq!(idle.busy_fraction_at(0), 0.0);
        assert_eq!(idle.busy_fraction_at(1), 0.0);
        // Busy profile: the i == 0 guard still reports zero.
        let mut b = TraceBuilder::new(2);
        b.push(sw(0, 0, None, Some(key(1, 100))));
        let t = b.finish(SimTime::ZERO, SimTime::ZERO + SimDuration::from_millis(10));
        let busy = concurrency(&t, &filter);
        assert_eq!(busy.busy_fraction_at(0), 0.0);
        assert!((busy.busy_fraction_at(1) - 1.0).abs() < 1e-9);
    }
}
