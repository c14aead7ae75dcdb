//! Blocked-time blame: which serialization source costs the most concurrency.
//!
//! The paper explains low TLP by reading the wait-state channel of its ETW
//! traces by hand ("the render thread waits on the compositor", "the app
//! blocks on the GPU"). This module automates that reading in the style of
//! GAPP (Nair & Field): replay the wait-state records, and whenever fewer
//! threads run than logical CPUs allow, charge the lost core-time to the
//! objects the blocked threads were waiting on. The result is a ranking —
//! *this* event / GPU engine / timer accounts for the most serialization.
//!
//! All accounting is integer nanoseconds over [`BTreeMap`]s, so a given
//! trace produces byte-identical reports on every platform and at any
//! worker-pool size.

use crate::event::{EtlTrace, PidSet, ThreadKey, TraceEvent, WaitReason};
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

/// What a blocked thread was waiting on, as a rankable attribution target.
///
/// GPU waits are keyed by *engine* (not packet) so the thousands of packets
/// of a render loop aggregate into one line; event waits are keyed by the
/// kernel event id; sleeps pool into one bucket (timer waits have no object).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Blocker {
    /// A kernel event (counting semaphore).
    Event {
        /// The event's id.
        id: u64,
    },
    /// A GPU engine (queue index; `u32::MAX` = video encoder,
    /// `u32::MAX - 1` = packet never seen executing in the window).
    Gpu {
        /// Engine code as recorded in [`TraceEvent::GpuStart`].
        engine: u32,
    },
    /// Timer sleep.
    Sleep,
}

/// Engine code for GPU waits whose packet never started in the window.
const ENGINE_UNKNOWN: u32 = u32::MAX - 1;

impl fmt::Display for Blocker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Blocker::Event { id } => write!(f, "event {id}"),
            Blocker::Gpu { engine } if engine == u32::MAX => write!(f, "gpu encoder"),
            Blocker::Gpu { engine } if engine == ENGINE_UNKNOWN => write!(f, "gpu (unknown)"),
            Blocker::Gpu { engine } => write!(f, "gpu engine {engine}"),
            Blocker::Sleep => write!(f, "sleep"),
        }
    }
}

/// Where one thread's time went inside the observation window.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ThreadTimeBreakdown {
    /// On a logical CPU.
    pub running_ns: u64,
    /// Runnable but not dispatched (queueing / preempted).
    pub ready_ns: u64,
    /// In a timer sleep.
    pub sleeping_ns: u64,
    /// Blocked on a kernel event.
    pub blocked_event_ns: u64,
    /// Blocked on a GPU packet.
    pub blocked_gpu_ns: u64,
}

impl ThreadTimeBreakdown {
    /// Total accounted time.
    pub fn total_ns(&self) -> u64 {
        self.running_ns
            + self.ready_ns
            + self.sleeping_ns
            + self.blocked_event_ns
            + self.blocked_gpu_ns
    }
}

/// One line of the serialization ranking.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockerStat {
    /// The attribution target.
    pub blocker: Blocker,
    /// Core-time lost to this blocker: for every interval where the app ran
    /// below the machine's width, each thread blocked on this target is
    /// charged up to the unused-CPU headroom.
    pub lost_core_ns: u64,
    /// Number of waits that began on this target in the window.
    pub wait_count: u64,
    /// The thread that most often ended waits on this target (event
    /// signals record their signaller; timer and GPU wakes do not).
    pub top_waker: Option<ThreadKey>,
}

/// The full attribution: per-thread time states plus the blocker ranking.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BlameReport {
    /// Per-thread breakdown, ascending by `(pid, tid)`.
    pub per_thread: Vec<(ThreadKey, ThreadTimeBreakdown)>,
    /// Blockers by lost core-time, descending.
    pub ranking: Vec<BlockerStat>,
    /// Machine width the headroom was computed against.
    pub n_logical: usize,
    /// Observation window length.
    pub window_ns: u64,
    /// Total app CPU time (Σ running).
    pub cpu_busy_ns: u64,
}

impl BlameReport {
    /// The share of all lost core-time held by the top-ranked blocker, in
    /// `[0, 1]`; `None` when nothing was lost.
    pub fn top_blocker_share(&self) -> Option<f64> {
        let total: u64 = self.ranking.iter().map(|s| s.lost_core_ns).sum();
        if total == 0 {
            return None;
        }
        Some(self.ranking[0].lost_core_ns as f64 / total as f64)
    }

    /// Renders the fixed-width text report (`tracetool bottlenecks` prints
    /// this verbatim; CI diffs it against a golden file).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "Bottleneck attribution (blocked-time blame)");
        let _ = writeln!(
            out,
            "window {} ms, {} logical CPUs, app cpu busy {} ms",
            fmt_ms(self.window_ns),
            self.n_logical,
            fmt_ms(self.cpu_busy_ns),
        );
        let _ = writeln!(out);
        let _ = writeln!(out, "per-thread time (ms):");
        let _ = writeln!(
            out,
            "  {:<14} {:>10} {:>10} {:>10} {:>10} {:>10}",
            "thread", "run", "ready", "sleep", "event", "gpu"
        );
        for (key, b) in &self.per_thread {
            let _ = writeln!(
                out,
                "  {:<14} {:>10} {:>10} {:>10} {:>10} {:>10}",
                key_str(*key),
                fmt_ms(b.running_ns),
                fmt_ms(b.ready_ns),
                fmt_ms(b.sleeping_ns),
                fmt_ms(b.blocked_event_ns),
                fmt_ms(b.blocked_gpu_ns),
            );
        }
        let _ = writeln!(out);
        let _ = writeln!(out, "serialization ranking (lost core-ms):");
        if self.ranking.is_empty() {
            let _ = writeln!(out, "  (no lost concurrency attributed)");
        }
        for (i, s) in self.ranking.iter().enumerate() {
            let waker = match s.top_waker {
                Some(w) => format!("  top waker {}", key_str(w)),
                None => String::new(),
            };
            let _ = writeln!(
                out,
                "  {:>2}. {:<16} lost {:>10}  waits {:>6}{}",
                i + 1,
                s.blocker.to_string(),
                fmt_ms(s.lost_core_ns),
                s.wait_count,
                waker,
            );
        }
        out
    }
}

fn key_str(key: ThreadKey) -> String {
    format!("pid{}/tid{}", key.pid, key.tid)
}

fn fmt_ms(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e6)
}

/// Replay state of one thread.
#[derive(Clone, Copy, PartialEq, Eq)]
enum St {
    Ready,
    Running,
    Blocked(Blocker),
}

/// Computes the blocked-time blame for the `filter` application.
///
/// Intervals where the app runs below the machine width charge each blocked
/// thread's blocker up to the headroom (`n_logical − n_running`); blockers
/// are charged independently, so overlapping waits can be double-counted —
/// the ranking answers "what would fixing *this* buy", per GAPP.
/// Fully idle intervals (no app thread running) are not charged, mirroring
/// the non-idle normalization of the paper's TLP (Equation 1).
pub fn blame(trace: &EtlTrace, filter: &PidSet) -> BlameReport {
    let mut sp = simobs::span::span("analyzer", "blame");
    sp.add_events(trace.events().len() as u64);
    let mut fold = BlameFold::new(trace.n_logical_cpus(), trace.start().as_nanos(), filter);
    for ev in trace.events() {
        fold.prepass(ev);
    }
    for ev in trace.events() {
        fold.replay(ev);
    }
    fold.finish(trace.end().as_nanos(), trace.window().as_nanos())
}

/// Same attribution, streamed twice over a blocked v3 trace without
/// materializing the event vector.
///
/// Blame needs two passes over the events (the engine/waker pre-pass must
/// complete before the replay can attribute GPU waits), so this decodes the
/// blocks in parallel on `runner` twice and folds each pass in block order —
/// the fold code is shared with [`blame`], so the report is byte-identical.
pub fn blame_sharded(
    trace: &crate::shard::ShardedTrace,
    filter: &PidSet,
    runner: &dyn crate::shard::ShardRunner,
    shards: usize,
) -> std::io::Result<BlameReport> {
    let mut sp = simobs::span::span("analyzer", "blame");
    sp.add_events(trace.count() * 2);
    let mut fold = BlameFold::new(trace.n_logical_cpus(), trace.start().as_nanos(), filter);
    trace.fold_events(runner, shards, |ev| fold.prepass(&ev))?;
    trace.fold_events(runner, shards, |ev| fold.replay(&ev))?;
    Ok(fold.finish(trace.end().as_nanos(), trace.window().as_nanos()))
}

/// The two blame passes as incremental folds, shared verbatim by the
/// materialized and sharded entry points.
struct BlameFold<'a> {
    filter: &'a PidSet,
    n_logical: usize,
    /// Pre-pass 1: packet → engine, from the device's execution records.
    engines: BTreeMap<(u32, u64), u32>,
    /// Pre-pass 2: how often each thread ended a wait on each blocker.
    wakers: BTreeMap<Blocker, BTreeMap<ThreadKey, u64>>,
    rp: Replay,
}

impl<'a> BlameFold<'a> {
    fn new(n_logical: usize, start_ns: u64, filter: &'a PidSet) -> Self {
        BlameFold {
            filter,
            n_logical,
            engines: BTreeMap::new(),
            wakers: BTreeMap::new(),
            rp: Replay {
                n_logical: n_logical as u64,
                threads: BTreeMap::new(),
                breakdown: BTreeMap::new(),
                blocked: BTreeMap::new(),
                lost: BTreeMap::new(),
                waits: BTreeMap::new(),
                n_running: 0,
                cpu_busy: 0,
                cur: start_ns,
            },
        }
    }

    /// First pass: collect packet engines and wait wakers.
    fn prepass(&mut self, ev: &TraceEvent) {
        match *ev {
            TraceEvent::GpuStart {
                gpu,
                engine,
                packet,
                ..
            } => {
                self.engines.insert((gpu as u32, packet), engine);
            }
            TraceEvent::WaitEnd {
                key,
                reason,
                waker: Some(w),
                ..
            } if self.filter.contains(key.pid) => {
                *self
                    .wakers
                    .entry(blocker_of(reason, &self.engines))
                    .or_default()
                    .entry(w)
                    .or_insert(0) += 1;
            }
            _ => {}
        }
    }

    /// Second pass: replay the wait-state machine and charge intervals.
    fn replay(&mut self, ev: &TraceEvent) {
        let rp = &mut self.rp;
        let filter = self.filter;
        let t = ev.at().as_nanos();
        match *ev {
            TraceEvent::ThreadStart { key, .. } if filter.contains(key.pid) => {
                rp.advance(t);
                rp.threads.insert(key, (St::Ready, t));
                rp.breakdown.entry(key).or_default();
            }
            TraceEvent::ThreadEnd { key, .. } if filter.contains(key.pid) => {
                rp.advance(t);
                rp.transition(key, None, t);
            }
            TraceEvent::CSwitch { old, new, .. } => {
                let old = old.filter(|k| filter.contains(k.pid));
                let new = new.filter(|k| filter.contains(k.pid));
                if old.is_none() && new.is_none() {
                    return;
                }
                rp.advance(t);
                if let Some(key) = old {
                    // Provisionally Ready; a same-instant WaitBegin refines
                    // this with zero elapsed time, so nothing is mischarged.
                    rp.transition(key, Some(St::Ready), t);
                }
                if let Some(key) = new {
                    rp.transition(key, Some(St::Running), t);
                }
            }
            TraceEvent::WaitBegin { key, reason, .. } if filter.contains(key.pid) => {
                rp.advance(t);
                let st = if reason.is_runnable() {
                    St::Ready
                } else {
                    let b = blocker_of(reason, &self.engines);
                    *rp.waits.entry(b).or_insert(0) += 1;
                    St::Blocked(b)
                };
                rp.transition(key, Some(st), t);
            }
            TraceEvent::WaitEnd { key, .. } if filter.contains(key.pid) => {
                rp.advance(t);
                rp.transition(key, Some(St::Ready), t);
            }
            _ => {}
        }
    }

    fn finish(mut self, end_ns: u64, window_ns: u64) -> BlameReport {
        self.rp.advance(end_ns);
        let keys: Vec<ThreadKey> = self.rp.threads.keys().copied().collect();
        for key in keys {
            self.rp.transition(key, None, end_ns);
        }

        let mut ranking: Vec<BlockerStat> = self
            .rp
            .lost
            .keys()
            .chain(self.rp.waits.keys())
            .copied()
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .map(|b| BlockerStat {
                blocker: b,
                lost_core_ns: self.rp.lost.get(&b).copied().unwrap_or(0),
                wait_count: self.rp.waits.get(&b).copied().unwrap_or(0),
                top_waker: top_waker(self.wakers.get(&b)),
            })
            .collect();
        ranking.sort_by(|a, c| {
            c.lost_core_ns
                .cmp(&a.lost_core_ns)
                .then(a.blocker.cmp(&c.blocker))
        });

        BlameReport {
            per_thread: self.rp.breakdown.into_iter().collect(),
            ranking,
            n_logical: self.n_logical,
            window_ns,
            cpu_busy_ns: self.rp.cpu_busy,
        }
    }
}

/// Mutable replay state shared by the interval charger and the per-thread
/// state machine.
struct Replay {
    n_logical: u64,
    /// Current state and its start time, per live thread.
    threads: BTreeMap<ThreadKey, (St, u64)>,
    breakdown: BTreeMap<ThreadKey, ThreadTimeBreakdown>,
    /// How many threads currently wait on each blocker.
    blocked: BTreeMap<Blocker, u64>,
    lost: BTreeMap<Blocker, u64>,
    waits: BTreeMap<Blocker, u64>,
    n_running: u64,
    cpu_busy: u64,
    cur: u64,
}

impl Replay {
    /// Charges the interval `[cur, t)` against the current aggregate state.
    fn advance(&mut self, t: u64) {
        let dt = t.saturating_sub(self.cur);
        if dt == 0 {
            return;
        }
        self.cur = t;
        self.cpu_busy += dt * self.n_running;
        if self.n_running >= 1 && self.n_running < self.n_logical {
            let headroom = self.n_logical - self.n_running;
            for (&b, &count) in &self.blocked {
                if count > 0 {
                    *self.lost.entry(b).or_insert(0) += dt * count.min(headroom);
                }
            }
        }
    }

    /// Moves `key` to `new_st` (`None` = thread gone), crediting the time
    /// spent in its previous state.
    fn transition(&mut self, key: ThreadKey, new_st: Option<St>, t: u64) {
        let Some(&(old_st, since)) = self.threads.get(&key) else {
            // Thread never announced (trace fragment): adopt it now.
            if let Some(st) = new_st {
                self.apply_count(st, 1);
                self.threads.insert(key, (st, t));
            }
            return;
        };
        let b = self.breakdown.entry(key).or_default();
        let dt = t.saturating_sub(since);
        match old_st {
            St::Running => b.running_ns += dt,
            St::Ready => b.ready_ns += dt,
            St::Blocked(Blocker::Sleep) => b.sleeping_ns += dt,
            St::Blocked(Blocker::Event { .. }) => b.blocked_event_ns += dt,
            St::Blocked(Blocker::Gpu { .. }) => b.blocked_gpu_ns += dt,
        }
        self.apply_count(old_st, -1);
        match new_st {
            Some(st) => {
                self.apply_count(st, 1);
                self.threads.insert(key, (st, t));
            }
            None => {
                self.threads.remove(&key);
            }
        }
    }

    fn apply_count(&mut self, st: St, delta: i64) {
        match st {
            St::Running => {
                self.n_running = self
                    .n_running
                    .checked_add_signed(delta)
                    .expect("running count")
            }
            St::Blocked(b) => {
                let c = self.blocked.entry(b).or_insert(0);
                *c = c.checked_add_signed(delta).expect("blocked count");
            }
            St::Ready => {}
        }
    }
}

/// Maps a blocking wait reason to its attribution target, via the shared
/// object accessors on [`WaitReason`].
fn blocker_of(reason: WaitReason, engines: &BTreeMap<(u32, u64), u32>) -> Blocker {
    if let Some((gpu, packet)) = reason.gpu_packet() {
        Blocker::Gpu {
            engine: engines
                .get(&(gpu, packet))
                .copied()
                .unwrap_or(ENGINE_UNKNOWN),
        }
    } else if let Some(id) = reason.event_id() {
        Blocker::Event { id }
    } else {
        assert!(
            !reason.is_runnable(),
            "runnable reasons are not blockers: {}",
            reason.label()
        );
        Blocker::Sleep
    }
}

/// Most frequent waker; ties break toward the smallest thread key.
fn top_waker(counts: Option<&BTreeMap<ThreadKey, u64>>) -> Option<ThreadKey> {
    let counts = counts?;
    counts
        .iter()
        .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(a.0)))
        .map(|(&k, _)| k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceBuilder;
    use simcore::SimTime;

    fn key(tid: u64) -> ThreadKey {
        ThreadKey { pid: 1, tid }
    }

    fn ms(t: u64) -> SimTime {
        SimTime::from_nanos(t * 1_000_000)
    }

    /// Two threads on a 4-wide machine: t0 runs [0,10) then both run
    /// [10,20); t1 is blocked on event 7 for [0,10). The headroom while t0
    /// ran alone is 3, but only one thread waited, so event 7 is charged
    /// exactly 10 ms of lost core-time.
    fn serial_then_parallel() -> EtlTrace {
        let mut b = TraceBuilder::new(4);
        b.push(TraceEvent::ProcessStart {
            at: ms(0),
            pid: 1,
            name: "app.exe".into(),
        });
        for tid in [0, 1] {
            b.push(TraceEvent::ThreadStart {
                at: ms(0),
                key: key(tid),
                name: format!("t{tid}"),
            });
        }
        b.push(TraceEvent::CSwitch {
            at: ms(0),
            cpu: 0,
            old: None,
            new: Some(key(0)),
            ready_since: Some(ms(0)),
        });
        b.push(TraceEvent::WaitBegin {
            at: ms(0),
            key: key(1),
            reason: WaitReason::Event { id: 7 },
        });
        b.push(TraceEvent::WaitEnd {
            at: ms(10),
            key: key(1),
            reason: WaitReason::Event { id: 7 },
            waker: Some(key(0)),
        });
        b.push(TraceEvent::CSwitch {
            at: ms(10),
            cpu: 1,
            old: None,
            new: Some(key(1)),
            ready_since: Some(ms(10)),
        });
        for tid in [0, 1] {
            b.push(TraceEvent::CSwitch {
                at: ms(20),
                cpu: tid as usize,
                old: Some(key(tid)),
                new: None,
                ready_since: None,
            });
            b.push(TraceEvent::ThreadEnd {
                at: ms(20),
                key: key(tid),
            });
        }
        b.finish(ms(0), ms(20))
    }

    #[test]
    fn charges_event_wait_against_headroom() {
        let trace = serial_then_parallel();
        let filter: PidSet = [1u64].into_iter().collect();
        let report = blame(&trace, &filter);
        assert_eq!(report.cpu_busy_ns, 30_000_000); // 10 + 2×10 ms
        assert_eq!(report.ranking.len(), 1);
        let top = &report.ranking[0];
        assert_eq!(top.blocker, Blocker::Event { id: 7 });
        assert_eq!(top.lost_core_ns, 10_000_000);
        assert_eq!(top.wait_count, 1);
        assert_eq!(top.top_waker, Some(key(0)));
        assert_eq!(report.top_blocker_share(), Some(1.0));
    }

    #[test]
    fn per_thread_breakdown_adds_up() {
        let trace = serial_then_parallel();
        let filter: PidSet = [1u64].into_iter().collect();
        let report = blame(&trace, &filter);
        assert_eq!(report.per_thread.len(), 2);
        let (k0, b0) = report.per_thread[0];
        assert_eq!(k0, key(0));
        assert_eq!(b0.running_ns, 20_000_000);
        let (k1, b1) = report.per_thread[1];
        assert_eq!(k1, key(1));
        assert_eq!(b1.running_ns, 10_000_000);
        assert_eq!(b1.blocked_event_ns, 10_000_000);
        // Every thread's states tile the 20 ms window.
        assert_eq!(b0.total_ns(), 20_000_000);
        assert_eq!(b1.total_ns(), 20_000_000);
    }

    #[test]
    fn gpu_waits_aggregate_by_engine() {
        let mut b = TraceBuilder::new(2);
        b.push(TraceEvent::ProcessStart {
            at: ms(0),
            pid: 1,
            name: "app.exe".into(),
        });
        for tid in [0, 1] {
            b.push(TraceEvent::ThreadStart {
                at: ms(0),
                key: key(tid),
                name: format!("t{tid}"),
            });
        }
        b.push(TraceEvent::CSwitch {
            at: ms(0),
            cpu: 0,
            old: None,
            new: Some(key(0)),
            ready_since: Some(ms(0)),
        });
        b.push(TraceEvent::GpuSubmit {
            at: ms(0),
            key: key(1),
            gpu: 0,
            packet: 3,
        });
        b.push(TraceEvent::GpuStart {
            at: ms(0),
            gpu: 0,
            engine: 0,
            packet: 3,
            pid: 1,
        });
        b.push(TraceEvent::WaitBegin {
            at: ms(0),
            key: key(1),
            reason: WaitReason::Gpu { gpu: 0, packet: 3 },
        });
        b.push(TraceEvent::GpuEnd {
            at: ms(5),
            gpu: 0,
            engine: 0,
            packet: 3,
            pid: 1,
        });
        b.push(TraceEvent::WaitEnd {
            at: ms(5),
            key: key(1),
            reason: WaitReason::Gpu { gpu: 0, packet: 3 },
            waker: None,
        });
        b.push(TraceEvent::CSwitch {
            at: ms(10),
            cpu: 0,
            old: Some(key(0)),
            new: None,
            ready_since: None,
        });
        let trace = b.finish(ms(0), ms(10));
        let filter: PidSet = [1u64].into_iter().collect();
        let report = blame(&trace, &filter);
        let top = &report.ranking[0];
        assert_eq!(top.blocker, Blocker::Gpu { engine: 0 });
        assert_eq!(top.lost_core_ns, 5_000_000);
        // t1 then sits Ready [5,10): queueing, not blocking — uncharged.
        let (_, b1) = report.per_thread[1];
        assert_eq!(b1.ready_ns, 5_000_000);
    }

    #[test]
    fn render_is_stable() {
        let trace = serial_then_parallel();
        let filter: PidSet = [1u64].into_iter().collect();
        let a = blame(&trace, &filter).render();
        let b = blame(&trace, &filter).render();
        assert_eq!(a, b);
        assert!(a.contains("event 7"), "{a}");
        assert!(a.contains("lost     10.000"), "{a}");
    }

    #[test]
    fn empty_trace_yields_empty_report() {
        let b = TraceBuilder::new(4);
        let trace = b.finish(ms(0), ms(0));
        let report = blame(&trace, &PidSet::new());
        assert!(report.per_thread.is_empty());
        assert!(report.ranking.is_empty());
        assert_eq!(report.top_blocker_share(), None);
    }
}
