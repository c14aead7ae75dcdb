//! Happens-before analysis over the trace's wake and GPU-submission edges.
//!
//! Where [`crate::verify`] checks structural invariants the scheduler must
//! uphold, this pass asks the TASKPROF-style question: does the *causal*
//! structure of the trace make sense? It builds per-thread vector clocks —
//! each thread ticks its own component on every event it appears in; an
//! event-signal wake joins the waker's clock into the waiter's; a GPU
//! submission snapshots the submitter's clock into the packet and the
//! completion wake joins it into the waiter — and uses them, together with
//! the verifier's replay state, to flag three concurrency smells:
//!
//! * **Deadlock at end of trace** (`H001`): threads still blocked on a
//!   kernel event when no live thread can possibly signal it — every other
//!   thread has exited or is itself stuck. Runnable threads (preempted or
//!   yielding), sleepers (a timer will fire) and threads blocked on pending
//!   GPU packets (the device will complete them) count as able to make
//!   progress, so the finding is conservative.
//! * **Lost wakeup** (`H002`): a signal wakes a thread while another
//!   thread had been parked on the *same* event strictly longer — the
//!   machine's semaphores wake FIFO, so an overtake can only appear in a
//!   forged or corrupted stream. The vector clocks grade the finding:
//!   if the overtaken waiter's park happens-before the signaller's
//!   signal, the signaller provably raced past a visible waiter (error);
//!   otherwise the two are concurrent (warning).
//! * **Yield storm** (`H003`, warning): long runs of closely spaced
//!   voluntary yields — a busy-wait spinning through the scheduler, which
//!   inflates TLP with runnable-but-idle threads exactly as the paper
//!   cautions when reading thread counts off a trace.
//!
//! The pass is a consumer of [`crate::verify::check`]'s one walk: the
//! [`Verifier`] owns the thread table, each thread's wait and exit and
//! each packet's lifecycle, and this pass keeps only its own state (the
//! clocks, parks per event, yield runs, each packet's submitter clock),
//! indexed by the verifier's thread slots; the slot is the thread's clock
//! component. A wake borrows the waker's clock in place, and a park reads
//! the parker's live clock unless that clock moves before the wake, so a
//! well-formed stream copies a clock only at a GPU submission. The H001
//! sweep reads the verifier's final state, and it and the overtake check
//! walk threads in key order, never in slot order.

use crate::event::{EtlTrace, ThreadKey, TraceEvent, WaitReason};
use crate::verify::{DiagCode, Diagnostic, Life, Severity, Verifier};
use simcore::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Tunables for the heuristic findings.
#[derive(Clone, Copy, Debug)]
pub struct HbOptions {
    /// Consecutive closely spaced yields before a storm is reported.
    pub yield_storm_min: usize,
    /// Maximum gap between two yields for the run to continue.
    pub yield_storm_gap: SimDuration,
}

impl Default for HbOptions {
    fn default() -> Self {
        HbOptions {
            yield_storm_min: 64,
            yield_storm_gap: SimDuration::from_millis(1),
        }
    }
}

/// The happens-before pass's result for one trace.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HbReport {
    /// Findings in stream order (end-of-trace deadlocks last, by thread).
    pub findings: Vec<Diagnostic>,
    /// Threads that appeared in the trace.
    pub n_threads: usize,
    /// Event-signal wake edges joined into the clocks.
    pub n_wake_edges: usize,
    /// GPU submit → completion edges joined into the clocks.
    pub n_gpu_edges: usize,
}

impl HbReport {
    /// True when nothing fired.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Renders the deterministic text report.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "happens-before: {} threads, {} wake edges, {} gpu edges, {} findings",
            self.n_threads,
            self.n_wake_edges,
            self.n_gpu_edges,
            self.findings.len()
        );
        for d in &self.findings {
            let _ = writeln!(out, "  {}", d.render());
        }
        out
    }
}

/// A vector clock, indexed by thread slot.
type Clock = Vec<u64>;

/// `a ≤ b` componentwise (missing components are zero).
fn clock_le(a: &[u64], b: &[u64]) -> bool {
    a.iter()
        .enumerate()
        .all(|(i, &v)| v <= b.get(i).copied().unwrap_or(0))
}

fn clock_join(into: &mut Clock, other: &[u64]) {
    if into.len() < other.len() {
        into.resize(other.len(), 0);
    }
    for (mine, &v) in into.iter_mut().zip(other) {
        *mine = (*mine).max(v);
    }
}

/// Per-thread analysis state, indexed by the thread's slot in the
/// verifier's table. The slot is also the thread's component in every
/// vector clock.
#[derive(Debug, Default)]
struct Th {
    clock: Clock,
    /// Yield-storm run state: (run length, time of the last yield).
    yields: usize,
    last_yield: Option<SimTime>,
    storm_reported: bool,
    /// The event whose [`Park`] of this thread still reads its live clock.
    live_park: Option<u64>,
}

/// One thread parked on a kernel event.
#[derive(Debug)]
struct Park {
    key: ThreadKey,
    slot: usize,
    at: SimTime,
    /// The parker's clock at the park. It is copied only when the parker's
    /// live clock moves on before its wake, which a well-formed stream
    /// never does; until then it is `None` and the live clock stands in.
    clock: Option<Clock>,
}

/// The happens-before consumer of the one checker pass: feed it each event
/// after the [`Verifier`] has taken it, then seal it before the verifier.
#[derive(Default)]
pub(crate) struct Analyzer {
    opts: HbOptions,
    threads: Vec<Th>,
    /// Each GPU packet's submitter clock at its submission.
    submitted: BTreeMap<(u64, u64), Clock>,
    /// Parked waiters per kernel event.
    parked: BTreeMap<u64, Vec<Park>>,
    findings: Vec<Diagnostic>,
    n_wake_edges: usize,
    n_gpu_edges: usize,
}

impl Analyzer {
    pub(crate) fn new(opts: &HbOptions) -> Analyzer {
        Analyzer {
            opts: *opts,
            ..Analyzer::default()
        }
    }

    /// Copies `slot`'s clock into the park that still reads it, before
    /// the clock moves on.
    fn settle(&mut self, slot: usize) {
        let Some(th) = self.threads.get_mut(slot) else {
            return;
        };
        let Some(id) = th.live_park.take() else {
            return;
        };
        let park = self
            .parked
            .get_mut(&id)
            .and_then(|parks| parks.iter_mut().find(|p| p.slot == slot));
        if let Some(park) = park {
            park.clock = Some(th.clock.clone());
        }
    }

    /// Ticks `key`'s own clock component (it performed an observable step)
    /// and returns its slot in `state`'s table, which has mentioned every
    /// thread this pass ticks; this pass's state grows to cover the slot.
    fn tick(&mut self, state: &Verifier, key: ThreadKey) -> Option<usize> {
        let slot = state.table().get(key)?;
        if self.threads.len() <= slot {
            self.threads.resize_with(slot + 1, Th::default);
        }
        self.settle(slot);
        let th = self.threads.get_mut(slot)?;
        if th.clock.len() <= slot {
            th.clock.resize(slot + 1, 0);
        }
        if let Some(own) = th.clock.get_mut(slot) {
            *own += 1;
        }
        Some(slot)
    }

    /// Joins `from`'s clock into `into`'s, both in place.
    fn join(&mut self, into: usize, from: usize) {
        if into == from {
            return;
        }
        self.settle(into);
        let Some(th) = self.threads.get_mut(into) else {
            return;
        };
        let mut clock = std::mem::take(&mut th.clock);
        if let Some(other) = self.threads.get(from) {
            clock_join(&mut clock, &other.clock);
        }
        if let Some(th) = self.threads.get_mut(into) {
            th.clock = clock;
        }
    }

    /// Parks `key` on event `id` at `at`, replacing an earlier park of it
    /// there. The park reads the thread's live clock until it moves on.
    fn park(&mut self, id: u64, key: ThreadKey, slot: usize, at: SimTime) {
        let parks = self.parked.entry(id).or_default();
        if let Some(i) = parks.iter().position(|p| p.slot == slot) {
            parks.swap_remove(i);
        }
        parks.push(Park {
            key,
            slot,
            at,
            clock: None,
        });
        if let Some(th) = self.threads.get_mut(slot) {
            th.live_park = Some(id);
        }
    }

    /// Consumes one event in stream order, after `state` has.
    pub(crate) fn push(&mut self, ev: &TraceEvent, state: &Verifier) {
        match ev {
            TraceEvent::ThreadStart { key, .. }
            | TraceEvent::ThreadEnd { key, .. }
            | TraceEvent::CSwitch { new: Some(key), .. } => {
                self.tick(state, *key);
            }
            TraceEvent::WaitBegin { at, key, reason } => {
                let Some(slot) = self.tick(state, *key) else {
                    return;
                };
                if let Some(id) = reason.event_id() {
                    self.park(id, *key, slot, *at);
                }
                let opts = self.opts;
                let Some(th) = self.threads.get_mut(slot) else {
                    return;
                };
                match *reason {
                    WaitReason::Yield => {
                        let gap_ok = th
                            .last_yield
                            .is_some_and(|t| *at - t <= opts.yield_storm_gap);
                        th.yields = if gap_ok { th.yields + 1 } else { 1 };
                        th.last_yield = Some(*at);
                        let storm = th.yields >= opts.yield_storm_min && !th.storm_reported;
                        if storm {
                            th.storm_reported = true;
                            let n = th.yields;
                            self.findings.push(Diagnostic {
                                code: DiagCode::YieldStorm,
                                severity: Severity::Warning,
                                at: *at,
                                thread: Some(*key),
                                message: format!(
                                    "{n} voluntary yields in a row at sub-{}ns spacing: \
                                     busy-wait storm (runnable but doing no work)",
                                    opts.yield_storm_gap.as_nanos()
                                ),
                            });
                        }
                    }
                    WaitReason::Sleep | WaitReason::Event { .. } | WaitReason::Gpu { .. } => {
                        // A genuine block ends the spin run.
                        th.yields = 0;
                        th.last_yield = None;
                        th.storm_reported = false;
                    }
                    WaitReason::Preempted => {}
                }
            }
            TraceEvent::WaitEnd { .. } => self.wake(ev, state),
            TraceEvent::GpuSubmit {
                key, gpu, packet, ..
            } => {
                if let Some(th) = self.tick(state, *key).and_then(|s| self.threads.get(s)) {
                    self.submitted
                        .insert((*gpu as u64, *packet), th.clock.clone());
                }
            }
            _ => {}
        }
    }

    /// A `WaitEnd`: joins the packet's or the waker's clock into the
    /// waiter's, and checks the event's other parked waiters for an
    /// overtake.
    fn wake(&mut self, ev: &TraceEvent, state: &Verifier) {
        let &TraceEvent::WaitEnd {
            at,
            key,
            reason,
            waker,
        } = ev
        else {
            return;
        };
        let event = reason.event_id();
        let Some(slot) = state.table().get(key) else {
            return;
        };
        if let Some(th) = self.threads.get_mut(slot) {
            // The park on this event ends here, so the tick below need not
            // copy the clock it reads.
            if event.is_some() && th.live_park == event {
                th.live_park = None;
            }
        }
        self.tick(state, key);
        if let Some((gpu, packet)) = reason.gpu_packet() {
            let submitted = self.submitted.get(&(gpu as u64, packet));
            if let (Some(th), Some(pc)) = (self.threads.get_mut(slot), submitted) {
                clock_join(&mut th.clock, pc);
                self.n_gpu_edges += 1;
            }
        }
        let Some(id) = event else {
            return;
        };
        let waker = waker.and_then(|w| state.table().get(w));
        // FIFO overtake check: of the waiters parked strictly earlier on
        // the same event and still parked as this one wakes, the first in
        // key order is named.
        let mut overtake = None;
        if let Some(parks) = self.parked.get_mut(&id) {
            if let Some(i) = parks.iter().position(|p| p.slot == slot) {
                let mine = parks.swap_remove(i);
                let first = parks
                    .iter()
                    .filter(|p| p.at < mine.at)
                    .min_by_key(|p| p.key);
                if let Some(p) = first {
                    let live = |s: usize| {
                        self.threads
                            .get(s)
                            .map_or(&[] as &[u64], |t| t.clock.as_slice())
                    };
                    let park_clock = p.clock.as_deref().unwrap_or_else(|| live(p.slot));
                    let ordered = waker.map(|w| clock_le(park_clock, live(w)));
                    overtake = Some((p.key, p.at, ordered));
                }
            }
        }
        if let Some((other, since, ordered)) = overtake {
            let (severity, grade) = match ordered {
                Some(true) => (
                    Severity::Error,
                    "the park happens-before the signal (lost wakeup)",
                ),
                Some(false) => (Severity::Warning, "park and signal are concurrent"),
                None => (Severity::Warning, "signal came from outside the trace"),
            };
            self.findings.push(Diagnostic {
                code: DiagCode::LostWakeup,
                severity,
                at,
                thread: Some(other),
                message: format!(
                    "signal on event {id} woke pid{}/tid{} past pid{}/tid{} \
                     parked since {}ns; {grade}",
                    key.pid,
                    key.tid,
                    other.pid,
                    other.tid,
                    since.as_nanos()
                ),
            });
        }
        if let Some(w) = waker {
            self.join(slot, w);
            self.n_wake_edges += 1;
        }
    }

    /// Runs the end-of-trace deadlock sweep over `state`, the verifier's
    /// final replay state, and seals the report.
    pub(crate) fn finish(mut self, state: &Verifier, end: SimTime) -> HbReport {
        // Can anyone still make progress? A live thread can unless it is
        // blocked on a kernel event or on a GPU packet the device does not
        // owe (an ended or unknown packet: a defect verify reports as
        // V021/V022).
        let mut capable = 0usize;
        let mut stuck: Vec<(ThreadKey, u64, SimTime)> = Vec::new();
        let (threads, packets) = state.replay();
        for (key, slot) in state.table().in_key_order() {
            let Some(th) = threads.get(slot) else {
                continue;
            };
            match (th.life, th.wait) {
                (Life::Exited(_), _) => {}
                (_, Some((WaitReason::Event { id }, since))) => stuck.push((key, id, since)),
                (_, Some((WaitReason::Gpu { gpu, packet }, _))) => {
                    let pkt = packets.get(&(gpu as u64, packet));
                    let owed = pkt.is_some_and(|p| (p.submitted || p.started) && !p.ended);
                    capable += usize::from(owed);
                }
                // No wait, a runnable one, or a sleep (its timer fires).
                _ => capable += 1,
            }
        }
        if capable == 0 {
            for (key, id, since) in stuck {
                self.findings.push(Diagnostic {
                    code: DiagCode::Deadlock,
                    severity: Severity::Error,
                    at: end,
                    thread: Some(key),
                    message: format!(
                        "blocked on event {id} since {}ns at end of trace and no live \
                         thread can signal it",
                        since.as_nanos()
                    ),
                });
            }
        }

        HbReport {
            findings: self.findings,
            n_threads: state.table().len(),
            n_wake_edges: self.n_wake_edges,
            n_gpu_edges: self.n_gpu_edges,
        }
    }
}

/// Runs the happens-before pass over a sealed trace: the hb half of
/// [`crate::verify::check`]'s one walk, with `opts`.
pub fn analyze(trace: &EtlTrace, opts: &HbOptions) -> HbReport {
    crate::verify::check_with(trace, opts).1
}

/// Sharded twin of [`analyze`], bit-identical at any shard count (see
/// DESIGN.md §14).
///
/// # Errors
/// Any block decode or checksum error.
pub fn analyze_sharded(
    trace: &crate::shard::ShardedTrace,
    opts: &HbOptions,
    runner: &dyn crate::shard::ShardRunner,
    shards: usize,
) -> std::io::Result<HbReport> {
    Ok(crate::verify::check_sharded_with(trace, opts, runner, shards)?.1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceBuilder;

    fn key(tid: u64) -> ThreadKey {
        ThreadKey { pid: 1, tid }
    }

    fn ms(t: u64) -> SimTime {
        SimTime::from_nanos(t * 1_000_000)
    }

    const EVENT3: WaitReason = WaitReason::Event { id: 3 };

    /// A builder holding one process with threads `tids`, all started at 0.
    fn threads(tids: &[u64]) -> TraceBuilder {
        let mut b = TraceBuilder::new(2);
        b.push(TraceEvent::ProcessStart {
            at: ms(0),
            pid: 1,
            name: "app.exe".into(),
        });
        for &tid in tids {
            b.push(TraceEvent::ThreadStart {
                at: ms(0),
                key: key(tid),
                name: format!("t{tid}"),
            });
        }
        b
    }

    fn park(b: &mut TraceBuilder, at: SimTime, tid: u64, reason: WaitReason) {
        b.push(TraceEvent::WaitBegin {
            at,
            key: key(tid),
            reason,
        });
    }

    fn wake(b: &mut TraceBuilder, at: SimTime, tid: u64, reason: WaitReason, waker: Option<u64>) {
        b.push(TraceEvent::WaitEnd {
            at,
            key: key(tid),
            reason,
            waker: waker.map(key),
        });
    }

    /// Analyzes `b` over a 0–10 ms window.
    fn run(b: TraceBuilder) -> HbReport {
        analyze(&b.finish(ms(0), ms(10)), &HbOptions::default())
    }

    /// The report's one finding with `code`.
    fn only(r: &HbReport, code: DiagCode) -> &Diagnostic {
        let hits: Vec<_> = r.findings.iter().filter(|d| d.code == code).collect();
        assert_eq!(hits.len(), 1, "{}", r.render());
        hits[0]
    }

    #[test]
    fn signal_chain_is_clean() {
        let mut b = threads(&[0, 1]);
        park(&mut b, ms(0), 1, EVENT3);
        wake(&mut b, ms(5), 1, EVENT3, Some(0));
        for tid in [0, 1] {
            b.push(TraceEvent::ThreadEnd {
                at: ms(9),
                key: key(tid),
            });
        }
        let r = run(b);
        assert!(r.is_clean(), "{}", r.render());
        assert_eq!(r.n_wake_edges, 1);
    }

    #[test]
    fn all_blocked_on_unsignalled_event_is_deadlock() {
        let mut b = threads(&[0, 1]);
        park(&mut b, ms(1), 0, EVENT3);
        park(&mut b, ms(2), 1, WaitReason::Event { id: 4 });
        let r = run(b);
        let deadlocks = r.findings.iter().filter(|d| d.code == DiagCode::Deadlock);
        assert_eq!(deadlocks.count(), 2, "{}", r.render());
    }

    #[test]
    fn sleeper_suppresses_deadlock() {
        // One thread asleep: its timer will fire, so the event waiter might
        // still be signalled — no finding.
        let mut b = threads(&[0, 1]);
        park(&mut b, ms(1), 0, EVENT3);
        park(&mut b, ms(2), 1, WaitReason::Sleep);
        let r = run(b);
        assert!(r.is_clean(), "{}", r.render());
    }

    #[test]
    fn a_runnable_thread_suppresses_deadlock() {
        // One thread left preempted or yielding at the end of the trace:
        // the verifier keeps its runnable wait open, yet it can still run
        // and signal the event waiter — no finding.
        for reason in [WaitReason::Preempted, WaitReason::Yield] {
            let mut b = threads(&[0, 1]);
            park(&mut b, ms(1), 0, EVENT3);
            park(&mut b, ms(2), 1, reason);
            let trace = b.finish(ms(0), ms(10));
            let (verified, causal) = crate::verify::check(&trace);
            assert!(verified.is_clean(), "{}", verified.render());
            assert!(causal.is_clean(), "{reason:?}: {}", causal.render());
        }
    }

    /// t1 parks on event 3 at 1 ms, t2 parks at 2 ms; the signal from
    /// `waker` wakes t2 while t1 is still parked — an overtake the
    /// machine's FIFO semaphores can never produce.
    fn overtake(waker: Option<u64>) -> HbReport {
        let mut b = threads(&[0, 1, 2]);
        park(&mut b, ms(1), 1, EVENT3);
        park(&mut b, ms(2), 2, EVENT3);
        wake(&mut b, ms(5), 2, EVENT3, waker);
        run(b)
    }

    #[test]
    fn fifo_overtake_is_lost_wakeup() {
        let r = overtake(Some(0));
        let lost = only(&r, DiagCode::LostWakeup);
        assert_eq!(lost.thread, Some(key(1)));
        // t0 never observed t1's park: the park and the signal are
        // concurrent.
        assert_eq!(lost.severity, Severity::Warning, "{}", r.render());
        assert!(lost.message.contains("concurrent"), "{}", r.render());
    }

    #[test]
    fn an_overtake_signalled_from_outside_the_trace_is_a_warning() {
        let r = overtake(None);
        let lost = only(&r, DiagCode::LostWakeup);
        assert_eq!(lost.thread, Some(key(1)));
        assert_eq!(lost.severity, Severity::Warning, "{}", r.render());
        assert!(lost.message.contains("outside the trace"), "{}", r.render());
    }

    #[test]
    fn ordered_overtake_grades_as_error() {
        // The waker observes t1's park through a wake edge before
        // signalling past it: the park happens-before the signal.
        let mut b = threads(&[0, 1, 2]);
        park(&mut b, ms(1), 1, EVENT3);
        // t1's (post-park) clock flows to t0 via an unrelated event wake.
        park(&mut b, ms(2), 0, WaitReason::Event { id: 9 });
        wake(&mut b, ms(3), 0, WaitReason::Event { id: 9 }, Some(1));
        park(&mut b, ms(4), 2, EVENT3);
        wake(&mut b, ms(5), 2, EVENT3, Some(0));
        let r = run(b);
        assert_eq!(only(&r, DiagCode::LostWakeup).severity, Severity::Error);
    }

    #[test]
    fn a_parked_thread_whose_clock_moves_keeps_its_park_clock() {
        // As in the ordered overtake, but t1 is dispatched while still
        // parked (a defect verify reports). Its clock moves past what t0
        // saw; the overtake is still graded by the clock t1 parked with.
        let mut b = threads(&[0, 1, 2]);
        park(&mut b, ms(1), 1, EVENT3);
        park(&mut b, ms(2), 0, WaitReason::Event { id: 9 });
        wake(&mut b, ms(3), 0, WaitReason::Event { id: 9 }, Some(1));
        b.push(TraceEvent::CSwitch {
            at: ms(3),
            cpu: 0,
            old: None,
            new: Some(key(1)),
            ready_since: None,
        });
        park(&mut b, ms(4), 2, EVENT3);
        wake(&mut b, ms(5), 2, EVENT3, Some(0));
        let r = run(b);
        assert_eq!(only(&r, DiagCode::LostWakeup).severity, Severity::Error);
    }

    #[test]
    fn a_gpu_completion_carries_the_submitters_clock() {
        // t1 parks on event 3, then submits packet 7. t0 learns of t1's
        // park only through that packet's completion wake, so its later
        // signal past t1 is ordered after the park.
        let packet7 = WaitReason::Gpu { gpu: 0, packet: 7 };
        let mut b = threads(&[0, 1, 2]);
        park(&mut b, ms(1), 1, EVENT3);
        b.push(TraceEvent::GpuSubmit {
            at: ms(2),
            key: key(1),
            gpu: 0,
            packet: 7,
        });
        park(&mut b, ms(2), 0, packet7);
        wake(&mut b, ms(3), 0, packet7, None);
        park(&mut b, ms(4), 2, EVENT3);
        wake(&mut b, ms(5), 2, EVENT3, Some(0));
        let r = run(b);
        assert_eq!(r.n_gpu_edges, 1, "{}", r.render());
        assert_eq!(only(&r, DiagCode::LostWakeup).severity, Severity::Error);
    }

    /// Threads of two processes share tid 0, so only the first seen takes
    /// the thread table's direct entry for it and the other falls back to
    /// its ordered map. Each keeps its own state in both passes, and the
    /// overtaken waiter named is the one parked first, not the first seen.
    #[test]
    fn threads_of_two_processes_on_one_tid_keep_apart() {
        let k = |pid, tid| ThreadKey { pid, tid };
        let mut b = TraceBuilder::new(2);
        for pid in [1, 2] {
            b.push(TraceEvent::ProcessStart {
                at: ms(0),
                pid,
                name: format!("p{pid}.exe"),
            });
        }
        for key in [k(1, 0), k(2, 0), k(2, 1)] {
            b.push(TraceEvent::ThreadStart {
                at: ms(0),
                key,
                name: "t".into(),
            });
        }
        let switch = |b: &mut TraceBuilder, at, cpu, old, new| {
            b.push(TraceEvent::CSwitch {
                at: ms(at),
                cpu,
                old,
                new,
                ready_since: new.map(|_| ms(at)),
            });
        };
        switch(&mut b, 0, 0, None, Some(k(1, 0)));
        switch(&mut b, 0, 1, None, Some(k(2, 0)));
        // pid 2's tid 0 parks first, then pid 1's, on the same event.
        switch(&mut b, 1, 1, Some(k(2, 0)), None);
        b.push(TraceEvent::WaitBegin {
            at: ms(1),
            key: k(2, 0),
            reason: EVENT3,
        });
        switch(&mut b, 2, 0, Some(k(1, 0)), None);
        b.push(TraceEvent::WaitBegin {
            at: ms(2),
            key: k(1, 0),
            reason: EVENT3,
        });
        // A signal from pid 2's tid 1 wakes pid 1's thread past it.
        b.push(TraceEvent::WaitEnd {
            at: ms(5),
            key: k(1, 0),
            reason: EVENT3,
            waker: Some(k(2, 1)),
        });
        switch(&mut b, 5, 1, None, Some(k(1, 0)));
        // pid 2's tid 1 lands on the CPU pid 1's tid 0 holds.
        switch(&mut b, 6, 1, None, Some(k(2, 1)));
        let trace = b.finish(ms(0), ms(10));
        assert_eq!(
            crate::verify::verify_trace(&trace).render(),
            "trace verification: 14 events checked, 1 errors, 0 warnings\n  \
             V003 error   t=6000000ns pid2/tid1: switch-in onto cpu 1 still occupied by \
             pid1/tid0\n"
        );
        assert_eq!(
            analyze(&trace, &HbOptions::default()).render(),
            "happens-before: 3 threads, 1 wake edges, 0 gpu edges, 1 findings\n  \
             H002 warning t=5000000ns pid2/tid0: signal on event 3 woke pid1/tid0 past \
             pid2/tid0 parked since 1000000ns; park and signal are concurrent\n"
        );
    }

    #[test]
    fn yield_storm_fires_once_per_run() {
        let opts = HbOptions {
            yield_storm_min: 4,
            yield_storm_gap: SimDuration::from_millis(1),
        };
        let mut b = threads(&[0]);
        for i in 0..8u64 {
            park(
                &mut b,
                SimTime::from_nanos(i * 100_000),
                0,
                WaitReason::Yield,
            );
            for (dt, old, new) in [(1, None, Some(key(0))), (2, Some(key(0)), None)] {
                b.push(TraceEvent::CSwitch {
                    at: SimTime::from_nanos(i * 100_000 + dt),
                    cpu: 0,
                    old,
                    new,
                    ready_since: None,
                });
            }
        }
        let r = analyze(&b.finish(ms(0), ms(10)), &opts);
        assert_eq!(only(&r, DiagCode::YieldStorm).severity, Severity::Warning);
    }

    #[test]
    fn spaced_yields_are_not_a_storm() {
        let opts = HbOptions {
            yield_storm_min: 4,
            yield_storm_gap: SimDuration::from_millis(1),
        };
        let mut b = threads(&[0]);
        for i in 0..16u64 {
            park(&mut b, ms(i * 5), 0, WaitReason::Yield);
        }
        let r = analyze(&b.finish(ms(0), ms(100)), &opts);
        assert!(r.is_clean(), "{}", r.render());
    }
}
