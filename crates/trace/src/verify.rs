//! Streaming SETL trace invariant checker, and the one checker pass.
//!
//! Every analysis in this crate — Eq. 1 TLP, GPU utilization, blame, the
//! critical path — trusts the event stream the machine emits. This module
//! makes that trust checkable: a single forward pass over the events
//! validates the structural invariants the scheduler is supposed to
//! guarantee and reports violations as machine-readable [`Diagnostic`]s
//! with stable codes, so corrupted traces (truncated files, buggy
//! emitters, forged streams) fail loudly instead of skewing metrics.
//!
//! The invariant catalogue (see DESIGN.md §9 for prose):
//!
//! * timestamps are non-decreasing and inside the observation window;
//! * each logical CPU runs at most one thread, each thread occupies at
//!   most one CPU, and context switches agree with the occupancy;
//! * `WaitBegin`/`WaitEnd` pairs balance with matching [`WaitReason`]s —
//!   runnable waits (preemption, yield) are closed implicitly by the
//!   thread's next switch-in, blocking waits need an explicit `WaitEnd`,
//!   and a blocked thread is never dispatched;
//! * wakers named by `WaitEnd` are live threads of the same trace (a
//!   waker may exit at the same instant as the wake it caused — the
//!   machine processes deferred signals after the signaller's exit —
//!   but never before it);
//! * GPU packets follow the submit → start → end → wake lifecycle. The
//!   scheduler pushes device events before the `GpuSubmit` record at the
//!   same instant (see `Machine::trace_gpu_submit`), so a packet's
//!   `GpuStart` may precede its `GpuSubmit` in the stream; the
//!   submission must still exist by the end of the trace. Completion
//!   wakes are atomic with the `GpuEnd` record, so a wait that is still
//!   open at end-of-trace on a completed packet is a missed wake;
//! * processes and threads start before they are referenced and are
//!   never referenced after their end record.
//!
//! The checker is deterministic: diagnostics appear in stream order, so a
//! given trace renders byte-identically on every platform and at any
//! worker-pool size. The [`Verifier`] owns the replay state: CPU
//! occupancy, each thread's lifecycle, CPU and open wait, and each
//! packet's submit, start and end. Per-thread state lives in a `Vec`
//! indexed by the thread's slot in the crate's `ThreadTable` (`event.rs`);
//! the end-of-trace checks walk threads in key order, never in slot order.
//! [`check`] is the one checker pass: [`crate::hb`] reads that state after
//! each event and at the end, so one walk yields both reports.

use crate::event::{EtlTrace, ThreadKey, ThreadTable, TraceEvent, WaitReason};
use crate::hb::{Analyzer, HbOptions, HbReport};
use simcore::SimTime;
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;

/// Stable identifier of one invariant (or happens-before finding) class.
///
/// `V…` codes come from the streaming checker in this module; `H…` codes
/// from the happens-before pass in [`crate::hb`]. Codes are part of the
/// tool's output contract — tests and CI match on them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
#[allow(missing_docs)] // the variant names restate `as_str` + the catalogue above
pub enum DiagCode {
    TimeOrder,
    CpuIndex,
    CpuConflict,
    ThreadOnTwoCpus,
    DuplicateProcess,
    UnknownProcess,
    DuplicateThread,
    UnknownThread,
    AfterExit,
    RunWhileBlocked,
    WaitNotOpen,
    WaitReasonMismatch,
    NestedWait,
    WaitOnCpu,
    WakerNotLive,
    GpuDoubleSubmit,
    GpuDoubleStart,
    GpuEndWithoutStart,
    GpuOrphanStart,
    GpuWakeBeforeEnd,
    GpuWaitAfterEnd,
    GpuMissedWake,
    ReadyFromFuture,
    ExitWhileWaiting,
    ExitOnCpu,
    EventPastEnd,
    Deadlock,
    LostWakeup,
    YieldStorm,
}

impl DiagCode {
    /// The short stable code (`"V013"`, `"H001"`, …).
    pub fn as_str(&self) -> &'static str {
        match self {
            DiagCode::TimeOrder => "V001",
            DiagCode::CpuIndex => "V002",
            DiagCode::CpuConflict => "V003",
            DiagCode::ThreadOnTwoCpus => "V004",
            DiagCode::DuplicateProcess => "V005",
            DiagCode::UnknownProcess => "V006",
            DiagCode::DuplicateThread => "V007",
            DiagCode::UnknownThread => "V008",
            DiagCode::AfterExit => "V009",
            DiagCode::RunWhileBlocked => "V010",
            DiagCode::WaitNotOpen => "V011",
            DiagCode::WaitReasonMismatch => "V012",
            DiagCode::NestedWait => "V013",
            DiagCode::WaitOnCpu => "V014",
            DiagCode::WakerNotLive => "V015",
            DiagCode::GpuDoubleSubmit => "V016",
            DiagCode::GpuDoubleStart => "V017",
            DiagCode::GpuEndWithoutStart => "V018",
            DiagCode::GpuOrphanStart => "V019",
            DiagCode::GpuWakeBeforeEnd => "V020",
            DiagCode::GpuWaitAfterEnd => "V021",
            DiagCode::GpuMissedWake => "V022",
            DiagCode::ReadyFromFuture => "V023",
            DiagCode::ExitWhileWaiting => "V024",
            DiagCode::ExitOnCpu => "V025",
            DiagCode::EventPastEnd => "V026",
            DiagCode::Deadlock => "H001",
            DiagCode::LostWakeup => "H002",
            DiagCode::YieldStorm => "H003",
        }
    }
}

impl fmt::Display for DiagCode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// How bad a finding is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suspicious but possibly benign (heuristic findings).
    Warning,
    /// A structural invariant is broken; downstream analyses are unsound.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// One machine-readable finding.
#[derive(Clone, Debug, PartialEq)]
pub struct Diagnostic {
    /// Which invariant class fired.
    pub code: DiagCode,
    /// Error or warning.
    pub severity: Severity,
    /// Virtual time of the offending event (or trace end for end-of-trace
    /// checks).
    pub at: SimTime,
    /// The thread the finding is about, when one is identifiable.
    pub thread: Option<ThreadKey>,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// Renders the one-line fixed format every consumer prints.
    pub fn render(&self) -> String {
        let who = match self.thread {
            Some(k) => format!("pid{}/tid{}", k.pid, k.tid),
            None => "-".to_string(),
        };
        format!(
            "{} {:<7} t={}ns {}: {}",
            self.code,
            self.severity.to_string(),
            self.at.as_nanos(),
            who,
            self.message
        )
    }
}

/// The checker's result for one trace.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct VerifyReport {
    /// Findings in stream order (end-of-trace checks last).
    pub diagnostics: Vec<Diagnostic>,
    /// How many events the checker consumed.
    pub events_checked: usize,
}

impl VerifyReport {
    /// Number of error-severity findings.
    pub fn errors(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.diagnostics.len() - self.errors()
    }

    /// True when nothing fired.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// True if a finding with `code` is present.
    pub fn has(&self, code: DiagCode) -> bool {
        self.diagnostics.iter().any(|d| d.code == code)
    }

    /// Renders the deterministic text report (`tracetool verify` prints
    /// this verbatim).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trace verification: {} events checked, {} errors, {} warnings",
            self.events_checked,
            self.errors(),
            self.warnings()
        );
        for d in &self.diagnostics {
            let _ = writeln!(out, "  {}", d.render());
        }
        out
    }
}

/// Where a thread is in its lifecycle (it takes its slot at first mention).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub(crate) enum Life {
    #[default]
    Unstarted,
    Live,
    Exited(SimTime),
}

/// Per-thread replay state, indexed by the thread's slot.
#[derive(Debug, Default)]
pub(crate) struct Th {
    pub(crate) life: Life,
    cpu: Option<usize>,
    pub(crate) wait: Option<(WaitReason, SimTime)>,
}

/// Per-packet lifecycle state, keyed by `(gpu, packet)`.
#[derive(Debug, Default)]
pub(crate) struct Pkt {
    pub(crate) submitted: bool,
    pub(crate) started: bool,
    pub(crate) ended: bool,
}

/// Streaming invariant checker: feed events in stream order with
/// [`Verifier::push`], then seal with [`Verifier::finish`].
///
/// The checker recovers after each finding (adopting the stream's claim
/// as the new truth), so one corruption does not cascade into a flood of
/// secondary diagnostics.
#[derive(Debug)]
pub struct Verifier {
    cpus: Vec<Option<ThreadKey>>,
    processes: BTreeMap<u64, SimTime>,
    /// Slots of the mentioned threads (see [`Verifier::mention`]).
    table: ThreadTable,
    threads: Vec<Th>,
    packets: BTreeMap<(u64, u64), Pkt>,
    last_at: SimTime,
    any_event: bool,
    max_at: SimTime,
    events_checked: usize,
    diags: Vec<Diagnostic>,
}

impl Verifier {
    /// A checker for a machine with `n_logical_cpus`.
    pub fn new(n_logical_cpus: usize) -> Self {
        Verifier {
            cpus: vec![None; n_logical_cpus],
            processes: BTreeMap::new(),
            table: ThreadTable::default(),
            threads: Vec::new(),
            packets: BTreeMap::new(),
            last_at: SimTime::ZERO,
            any_event: false,
            max_at: SimTime::ZERO,
            events_checked: 0,
            diags: Vec::new(),
        }
    }

    fn diag(&mut self, code: DiagCode, at: SimTime, thread: Option<ThreadKey>, message: String) {
        self.diags.push(Diagnostic {
            code,
            severity: Severity::Error,
            at,
            thread,
            message,
        });
    }

    /// `key`'s slot, taking the next one, unstarted, on first mention. A
    /// thread is mentioned where it acts (starts, ends, is dispatched,
    /// waits, is woken, submits) and where it signals an event waiter: the
    /// points at which the happens-before pass ticks or joins its clock.
    fn mention(&mut self, key: ThreadKey) -> usize {
        if let Some(slot) = self.table.get(key) {
            return slot;
        }
        self.threads.push(Th::default());
        self.table.slot(key)
    }

    /// The state in `slot` (`None`: never mentioned) of a thread `key` that
    /// can legally act. Reports `UnknownThread` / `AfterExit` and returns
    /// `None` otherwise (the event's further checks are skipped).
    fn live(&mut self, slot: Option<usize>, key: ThreadKey, at: SimTime) -> Option<&mut Th> {
        let th = slot.and_then(|s| self.threads.get(s));
        let (code, message) = match th.map_or(Life::Unstarted, |th| th.life) {
            Life::Unstarted => (DiagCode::UnknownThread, "with no ThreadStart".to_string()),
            Life::Exited(when) => (
                DiagCode::AfterExit,
                format!("that exited at {}ns", when.as_nanos()),
            ),
            Life::Live => return slot.and_then(|s| self.threads.get_mut(s)),
        };
        let message = format!("event references a thread {message}");
        self.diag(code, at, Some(key), message);
        None
    }

    /// [`Verifier::live`] for a mention of `key`.
    fn live_thread(&mut self, key: ThreadKey, at: SimTime) -> Option<&mut Th> {
        let slot = self.mention(key);
        self.live(Some(slot), key, at)
    }

    /// Consumes one event, appending any findings it triggers.
    pub fn push(&mut self, ev: &TraceEvent) {
        self.events_checked += 1;
        let at = ev.at();
        if self.any_event && at < self.last_at {
            self.diag(
                DiagCode::TimeOrder,
                at,
                None,
                format!(
                    "timestamp moves backwards: {}ns after {}ns",
                    at.as_nanos(),
                    self.last_at.as_nanos()
                ),
            );
        }
        self.any_event = true;
        self.last_at = self.last_at.max(at);
        self.max_at = self.max_at.max(at);

        match ev {
            TraceEvent::ProcessStart { at, pid, .. } => {
                if self.processes.insert(*pid, *at).is_some() {
                    self.diag(
                        DiagCode::DuplicateProcess,
                        *at,
                        None,
                        format!("process {pid} started twice"),
                    );
                }
            }
            TraceEvent::ThreadStart { at, key, .. } => {
                if !self.processes.contains_key(&key.pid) {
                    self.diag(
                        DiagCode::UnknownProcess,
                        *at,
                        Some(*key),
                        format!("thread starts in unknown process {}", key.pid),
                    );
                }
                let slot = self.mention(*key);
                let life = self.threads.get_mut(slot).map(|th| &mut th.life);
                if let Some(life @ &mut Life::Unstarted) = life {
                    *life = Life::Live;
                } else {
                    self.diag(
                        DiagCode::DuplicateThread,
                        *at,
                        Some(*key),
                        "thread started twice".to_string(),
                    );
                }
            }
            TraceEvent::ThreadEnd { at, key } => {
                let (on_cpu, open) = {
                    let Some(th) = self.live_thread(*key, *at) else {
                        return;
                    };
                    th.life = Life::Exited(*at);
                    (th.cpu.take(), th.wait.take())
                };
                if let Some(cpu) = on_cpu {
                    if let Some(slot) = self.cpus.get_mut(cpu) {
                        *slot = None;
                    }
                    self.diag(
                        DiagCode::ExitOnCpu,
                        *at,
                        Some(*key),
                        format!("thread exits while still on cpu {cpu}"),
                    );
                }
                if let Some((reason, since)) = open {
                    self.diag(
                        DiagCode::ExitWhileWaiting,
                        *at,
                        Some(*key),
                        format!(
                            "thread exits with an open {} wait begun at {}ns",
                            reason.describe(),
                            since.as_nanos()
                        ),
                    );
                }
            }
            TraceEvent::CSwitch {
                at,
                cpu,
                old,
                new,
                ready_since,
            } => {
                let new_slot = new.map(|key| self.mention(key));
                if let Some(rs) = ready_since {
                    if *rs > *at {
                        self.diag(
                            DiagCode::ReadyFromFuture,
                            *at,
                            *new,
                            format!(
                                "ready_since {}ns is after the switch at {}ns",
                                rs.as_nanos(),
                                at.as_nanos()
                            ),
                        );
                    }
                }
                // The CPU's occupant as the switch proceeds; written back
                // to `self.cpus` once the switch is done.
                let Some(&(mut occupant)) = self.cpus.get(*cpu) else {
                    self.diag(
                        DiagCode::CpuIndex,
                        *at,
                        *new,
                        format!(
                            "switch on cpu {cpu} but the trace has {} logical cpus",
                            self.cpus.len()
                        ),
                    );
                    return;
                };
                if let Some(key) = old {
                    if occupant != Some(*key) {
                        let occ = match occupant {
                            Some(o) => format!("pid{}/tid{}", o.pid, o.tid),
                            None => "idle".to_string(),
                        };
                        self.diag(
                            DiagCode::CpuConflict,
                            *at,
                            Some(*key),
                            format!("switch-out from cpu {cpu} which was {occ}"),
                        );
                    }
                    occupant = None;
                    // A switch-out is not the thread's own step: no mention.
                    let slot = self.table.get(*key);
                    if let Some(th) = self.live(slot, *key, *at) {
                        th.cpu = None;
                    }
                }
                if let Some(key) = new {
                    if let Some(occ) = occupant {
                        self.diag(
                            DiagCode::CpuConflict,
                            *at,
                            Some(*key),
                            format!(
                                "switch-in onto cpu {cpu} still occupied by pid{}/tid{}",
                                occ.pid, occ.tid
                            ),
                        );
                    }
                    let (mut on_other, mut blocked) = (None, None);
                    if let Some(th) = self.live(new_slot, *key, *at) {
                        on_other = th.cpu.replace(*cpu);
                        // The dispatch closes the thread's wait: implicitly
                        // a runnable one (preempted / yield), a blocking one
                        // with a finding.
                        blocked = th.wait.take().filter(|(reason, _)| !reason.is_runnable());
                    }
                    if let Some(prev) = on_other {
                        self.diag(
                            DiagCode::ThreadOnTwoCpus,
                            *at,
                            Some(*key),
                            format!("switched in on cpu {cpu} while still on cpu {prev}"),
                        );
                        if let Some(slot) = self.cpus.get_mut(prev) {
                            if *slot == Some(*key) {
                                *slot = None;
                            }
                        }
                    }
                    if let Some((reason, since)) = blocked {
                        self.diag(
                            DiagCode::RunWhileBlocked,
                            *at,
                            Some(*key),
                            format!(
                                "dispatched while blocked on {} since {}ns",
                                reason.describe(),
                                since.as_nanos()
                            ),
                        );
                    }
                    occupant = Some(*key);
                }
                if let Some(slot) = self.cpus.get_mut(*cpu) {
                    *slot = occupant;
                }
            }
            TraceEvent::WaitBegin { at, key, reason } => {
                let Some(th) = self.live_thread(*key, *at) else {
                    return;
                };
                let on_cpu = th.cpu;
                let prev = th.wait.replace((*reason, *at));
                if let Some(cpu) = on_cpu {
                    self.diag(
                        DiagCode::WaitOnCpu,
                        *at,
                        Some(*key),
                        format!("wait ({}) begins while on cpu {cpu}", reason.describe()),
                    );
                }
                if let Some((open, since)) = prev {
                    self.diag(
                        DiagCode::NestedWait,
                        *at,
                        Some(*key),
                        format!(
                            "wait ({}) begins inside an open {} wait from {}ns",
                            reason.describe(),
                            open.describe(),
                            since.as_nanos()
                        ),
                    );
                }
                if let Some((gpu, packet)) = reason.gpu_packet() {
                    let pkt = self.packets.entry((gpu as u64, packet)).or_default();
                    let ended = pkt.ended;
                    let known = pkt.submitted || pkt.started;
                    if ended {
                        self.diag(
                            DiagCode::GpuWaitAfterEnd,
                            *at,
                            Some(*key),
                            format!("wait on gpu {gpu} packet {packet} which already completed"),
                        );
                    } else if !known {
                        self.diag(
                            DiagCode::GpuWaitAfterEnd,
                            *at,
                            Some(*key),
                            format!("wait on gpu {gpu} packet {packet} never submitted"),
                        );
                    }
                }
            }
            TraceEvent::WaitEnd {
                at,
                key,
                reason,
                waker,
            } => {
                let slot = self.mention(*key);
                let waker_slot = match (waker, reason.event_id()) {
                    (Some(w), Some(_)) => Some(self.mention(*w)),
                    (w, _) => w.and_then(|w| self.table.get(w)),
                };
                let Some(th) = self.live(Some(slot), *key, *at) else {
                    return;
                };
                let on_cpu = th.cpu;
                let open = th.wait.take();
                if let Some(cpu) = on_cpu {
                    self.diag(
                        DiagCode::WaitOnCpu,
                        *at,
                        Some(*key),
                        format!("wait ({}) ends while on cpu {cpu}", reason.describe()),
                    );
                }
                match open {
                    None => {
                        self.diag(
                            DiagCode::WaitNotOpen,
                            *at,
                            Some(*key),
                            format!("WaitEnd ({}) without an open wait", reason.describe()),
                        );
                    }
                    Some((open, _)) if open != *reason => {
                        self.diag(
                            DiagCode::WaitReasonMismatch,
                            *at,
                            Some(*key),
                            format!(
                                "WaitEnd reason {} does not match the open {} wait",
                                reason.describe(),
                                open.describe()
                            ),
                        );
                    }
                    Some(_) => {}
                }
                if let Some(w) = waker {
                    // A signaller may exit at the same instant as the wake
                    // it queued, never strictly before it.
                    let waker = waker_slot.and_then(|s| self.threads.get(s));
                    let who = || format!("waker pid{}/tid{}", w.pid, w.tid);
                    let problem = match waker.map_or(Life::Unstarted, |wth| wth.life) {
                        Life::Unstarted => Some(format!("{} never started", who())),
                        Life::Exited(t) if t < *at => Some(format!(
                            "{} exited at {}ns, before the wake",
                            who(),
                            t.as_nanos()
                        )),
                        _ => None,
                    };
                    if let Some(msg) = problem {
                        self.diag(DiagCode::WakerNotLive, *at, Some(*key), msg);
                    }
                }
                if let Some((gpu, packet)) = reason.gpu_packet() {
                    let ended = self
                        .packets
                        .get(&(gpu as u64, packet))
                        .is_some_and(|p| p.ended);
                    if !ended {
                        self.diag(
                            DiagCode::GpuWakeBeforeEnd,
                            *at,
                            Some(*key),
                            format!("woken from gpu {gpu} packet {packet} before its GpuEnd"),
                        );
                    }
                }
            }
            TraceEvent::GpuSubmit {
                at,
                key,
                gpu,
                packet,
            } => {
                self.live_thread(*key, *at);
                let pkt = self.packets.entry((*gpu as u64, *packet)).or_default();
                if std::mem::replace(&mut pkt.submitted, true) {
                    self.diag(
                        DiagCode::GpuDoubleSubmit,
                        *at,
                        Some(*key),
                        format!("gpu {gpu} packet {packet} submitted twice"),
                    );
                }
            }
            TraceEvent::GpuStart {
                at, gpu, packet, ..
            } => {
                let pkt = self.packets.entry((*gpu as u64, *packet)).or_default();
                if std::mem::replace(&mut pkt.started, true) {
                    self.diag(
                        DiagCode::GpuDoubleStart,
                        *at,
                        None,
                        format!("gpu {gpu} packet {packet} started twice"),
                    );
                }
            }
            TraceEvent::GpuEnd {
                at, gpu, packet, ..
            } => {
                let pkt = self.packets.entry((*gpu as u64, *packet)).or_default();
                let (started, dup) = (pkt.started, std::mem::replace(&mut pkt.ended, true));
                if !started || dup {
                    let what = if dup {
                        "ended twice"
                    } else {
                        "ends without a GpuStart"
                    };
                    self.diag(
                        DiagCode::GpuEndWithoutStart,
                        *at,
                        None,
                        format!("gpu {gpu} packet {packet} {what}"),
                    );
                }
            }
            TraceEvent::Frame { .. } | TraceEvent::Marker { .. } => {}
        }
    }

    /// Seals the stream at the window end and runs the end-of-trace checks.
    pub fn finish(mut self, end: SimTime) -> VerifyReport {
        if self.max_at > end {
            let max = self.max_at;
            self.diag(
                DiagCode::EventPastEnd,
                max,
                None,
                format!(
                    "event at {}ns lies after the trace end {}ns",
                    max.as_nanos(),
                    end.as_nanos()
                ),
            );
        }
        // Completion wakes are atomic with the GpuEnd record, so any wait
        // still open on an ended packet means a wake never reached its
        // waiter.
        for (key, slot) in self.table.in_key_order() {
            let wait = self.threads.get(slot).and_then(|th| th.wait);
            let Some((Some((gpu, packet)), since)) = wait.map(|(r, t)| (r.gpu_packet(), t)) else {
                continue;
            };
            if self
                .packets
                .get(&(gpu as u64, packet))
                .is_some_and(|p| p.ended)
            {
                self.diag(
                    DiagCode::GpuMissedWake,
                    end,
                    Some(key),
                    format!(
                        "still blocked on gpu {gpu} packet {packet} (waiting since {}ns) \
                         although it completed",
                        since.as_nanos()
                    ),
                );
            }
        }
        let orphans: Vec<(u64, u64)> = self
            .packets
            .iter()
            .filter(|(_, p)| p.started && !p.submitted)
            .map(|(&k, _)| k)
            .collect();
        for (gpu, packet) in orphans {
            self.diag(
                DiagCode::GpuOrphanStart,
                end,
                None,
                format!("gpu {gpu} packet {packet} executed but was never submitted"),
            );
        }
        VerifyReport {
            diagnostics: self.diags,
            events_checked: self.events_checked,
        }
    }

    /// The slots of the threads the stream has mentioned.
    pub(crate) fn table(&self) -> &ThreadTable {
        &self.table
    }

    /// Each mentioned thread's state by slot, and each packet's lifecycle.
    pub(crate) fn replay(&self) -> (&[Th], &BTreeMap<(u64, u64), Pkt>) {
        (&self.threads, &self.packets)
    }
}

/// Verifies a sealed trace: every event in stream order, then the
/// end-of-trace checks against the observation window.
pub fn verify_trace(trace: &EtlTrace) -> VerifyReport {
    let mut sp = simobs::span::span("analyzer", "verify");
    sp.add_events(trace.events().len() as u64);
    let mut v = Verifier::new(trace.n_logical_cpus());
    for ev in trace.events() {
        v.push(ev);
    }
    v.finish(trace.end())
}

/// Sharded twin of [`verify_trace`]: blocks decode in parallel on `runner`,
/// the [`Verifier`] folds them in trace order — bit-identical report at any
/// shard count (see DESIGN.md §14).
///
/// # Errors
/// Any block decode or checksum error.
pub fn verify_sharded(
    trace: &crate::shard::ShardedTrace,
    runner: &dyn crate::shard::ShardRunner,
    shards: usize,
) -> std::io::Result<VerifyReport> {
    let mut sp = simobs::span::span("analyzer", "verify");
    sp.add_events(trace.count());
    let mut v = Verifier::new(trace.n_logical_cpus());
    trace.fold_events(runner, shards, |ev| v.push(&ev))?;
    Ok(v.finish(trace.end()))
}

/// The one checker pass over a sealed trace: what [`verify_trace`] and
/// [`crate::hb::analyze`] (default options) return, from one walk.
pub fn check(trace: &EtlTrace) -> (VerifyReport, HbReport) {
    check_with(trace, &HbOptions::default())
}

/// Sharded twin of [`check`], bit-identical at any shard count.
///
/// # Errors
/// Any block decode or checksum error.
pub fn check_sharded(
    trace: &crate::shard::ShardedTrace,
    runner: &dyn crate::shard::ShardRunner,
    shards: usize,
) -> std::io::Result<(VerifyReport, HbReport)> {
    check_sharded_with(trace, &HbOptions::default(), runner, shards)
}

/// [`check`] with the happens-before pass's tunables.
pub(crate) fn check_with(trace: &EtlTrace, opts: &HbOptions) -> (VerifyReport, HbReport) {
    let mut sp = simobs::span::span("analyzer", "check");
    sp.add_events(trace.events().len() as u64);
    let (mut v, mut hb) = (Verifier::new(trace.n_logical_cpus()), Analyzer::new(opts));
    for ev in trace.events() {
        v.push(ev);
        hb.push(ev, &v);
    }
    let causal = hb.finish(&v, trace.end());
    (v.finish(trace.end()), causal)
}

/// [`check_sharded`] with the happens-before pass's tunables.
pub(crate) fn check_sharded_with(
    trace: &crate::shard::ShardedTrace,
    opts: &HbOptions,
    runner: &dyn crate::shard::ShardRunner,
    shards: usize,
) -> std::io::Result<(VerifyReport, HbReport)> {
    let mut sp = simobs::span::span("analyzer", "check");
    sp.add_events(trace.count());
    let (mut v, mut hb) = (Verifier::new(trace.n_logical_cpus()), Analyzer::new(opts));
    trace.fold_events(runner, shards, |ev| {
        v.push(&ev);
        hb.push(&ev, &v);
    })?;
    let causal = hb.finish(&v, trace.end());
    Ok((v.finish(trace.end()), causal))
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

    /// A minimal well-formed trace: one thread runs 10 ms and exits.
    fn clean_trace() -> EtlTrace {
        let mut b = TraceBuilder::new(2);
        b.push(TraceEvent::ProcessStart {
            at: ms(0),
            pid: 1,
            name: "app.exe".into(),
        });
        b.push(TraceEvent::ThreadStart {
            at: ms(0),
            key: key(0),
            name: "t0".into(),
        });
        b.push(TraceEvent::CSwitch {
            at: ms(0),
            cpu: 0,
            old: None,
            new: Some(key(0)),
            ready_since: Some(ms(0)),
        });
        b.push(TraceEvent::CSwitch {
            at: ms(10),
            cpu: 0,
            old: Some(key(0)),
            new: None,
            ready_since: None,
        });
        b.push(TraceEvent::ThreadEnd {
            at: ms(10),
            key: key(0),
        });
        b.finish(ms(0), ms(10))
    }

    #[test]
    fn clean_trace_passes() {
        let report = verify_trace(&clean_trace());
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.events_checked, 5);
        assert!(report.render().contains("0 errors"));
    }

    #[test]
    fn preempted_wait_closed_by_next_dispatch() {
        // WaitBegin(Preempted) has no explicit WaitEnd: the next switch-in
        // closes it, exactly as the scheduler behaves.
        let mut b = TraceBuilder::new(1);
        b.push(TraceEvent::ProcessStart {
            at: ms(0),
            pid: 1,
            name: "app.exe".into(),
        });
        b.push(TraceEvent::ThreadStart {
            at: ms(0),
            key: key(0),
            name: "t0".into(),
        });
        b.push(TraceEvent::CSwitch {
            at: ms(0),
            cpu: 0,
            old: None,
            new: Some(key(0)),
            ready_since: Some(ms(0)),
        });
        b.push(TraceEvent::CSwitch {
            at: ms(5),
            cpu: 0,
            old: Some(key(0)),
            new: None,
            ready_since: None,
        });
        b.push(TraceEvent::WaitBegin {
            at: ms(5),
            key: key(0),
            reason: WaitReason::Preempted,
        });
        b.push(TraceEvent::CSwitch {
            at: ms(6),
            cpu: 0,
            old: None,
            new: Some(key(0)),
            ready_since: Some(ms(5)),
        });
        b.push(TraceEvent::CSwitch {
            at: ms(10),
            cpu: 0,
            old: Some(key(0)),
            new: None,
            ready_since: None,
        });
        b.push(TraceEvent::ThreadEnd {
            at: ms(10),
            key: key(0),
        });
        let report = verify_trace(&b.finish(ms(0), ms(10)));
        assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn gpu_start_before_submit_at_same_instant_is_legal() {
        // The scheduler pushes device events before the GpuSubmit record at
        // the same instant; the packet lifecycle must tolerate it.
        let mut b = TraceBuilder::new(1);
        b.push(TraceEvent::ProcessStart {
            at: ms(0),
            pid: 1,
            name: "app.exe".into(),
        });
        b.push(TraceEvent::ThreadStart {
            at: ms(0),
            key: key(0),
            name: "t0".into(),
        });
        b.push(TraceEvent::GpuStart {
            at: ms(0),
            gpu: 0,
            engine: 0,
            packet: 1,
            pid: 1,
        });
        b.push(TraceEvent::GpuSubmit {
            at: ms(0),
            key: key(0),
            gpu: 0,
            packet: 1,
        });
        b.push(TraceEvent::WaitBegin {
            at: ms(0),
            key: key(0),
            reason: WaitReason::Gpu { gpu: 0, packet: 1 },
        });
        b.push(TraceEvent::GpuEnd {
            at: ms(3),
            gpu: 0,
            engine: 0,
            packet: 1,
            pid: 1,
        });
        b.push(TraceEvent::WaitEnd {
            at: ms(3),
            key: key(0),
            reason: WaitReason::Gpu { gpu: 0, packet: 1 },
            waker: None,
        });
        let report = verify_trace(&b.finish(ms(0), ms(10)));
        assert!(report.is_clean(), "{}", report.render());
    }

    #[test]
    fn out_of_order_stream_fires_time_order() {
        // Bypasses the builder (which would panic) by driving the streaming
        // API directly, as a corrupted file reader would.
        let mut v = Verifier::new(1);
        v.push(&TraceEvent::Marker {
            at: ms(5),
            label: "a".into(),
        });
        v.push(&TraceEvent::Marker {
            at: ms(4),
            label: "b".into(),
        });
        let report = v.finish(ms(10));
        assert!(report.has(DiagCode::TimeOrder), "{}", report.render());
        assert_eq!(report.errors(), 1);
    }

    #[test]
    fn double_occupancy_fires_cpu_conflict() {
        let mut v = Verifier::new(1);
        v.push(&TraceEvent::ProcessStart {
            at: ms(0),
            pid: 1,
            name: "a".into(),
        });
        for tid in [0, 1] {
            v.push(&TraceEvent::ThreadStart {
                at: ms(0),
                key: key(tid),
                name: "t".into(),
            });
        }
        v.push(&TraceEvent::CSwitch {
            at: ms(0),
            cpu: 0,
            old: None,
            new: Some(key(0)),
            ready_since: Some(ms(0)),
        });
        v.push(&TraceEvent::CSwitch {
            at: ms(1),
            cpu: 0,
            old: None,
            new: Some(key(1)),
            ready_since: Some(ms(0)),
        });
        let report = v.finish(ms(10));
        assert!(report.has(DiagCode::CpuConflict), "{}", report.render());
    }

    #[test]
    fn wait_reason_mismatch_and_unbalanced_waits_fire() {
        let mut v = Verifier::new(1);
        v.push(&TraceEvent::ProcessStart {
            at: ms(0),
            pid: 1,
            name: "a".into(),
        });
        v.push(&TraceEvent::ThreadStart {
            at: ms(0),
            key: key(0),
            name: "t".into(),
        });
        v.push(&TraceEvent::WaitBegin {
            at: ms(1),
            key: key(0),
            reason: WaitReason::Event { id: 3 },
        });
        v.push(&TraceEvent::WaitEnd {
            at: ms(2),
            key: key(0),
            reason: WaitReason::Event { id: 4 },
            waker: None,
        });
        v.push(&TraceEvent::WaitEnd {
            at: ms(3),
            key: key(0),
            reason: WaitReason::Sleep,
            waker: None,
        });
        let report = v.finish(ms(10));
        assert!(
            report.has(DiagCode::WaitReasonMismatch),
            "{}",
            report.render()
        );
        assert!(report.has(DiagCode::WaitNotOpen), "{}", report.render());
    }

    #[test]
    fn render_is_deterministic() {
        let mut v = Verifier::new(1);
        v.push(&TraceEvent::Marker {
            at: ms(5),
            label: "a".into(),
        });
        v.push(&TraceEvent::Marker {
            at: ms(4),
            label: "b".into(),
        });
        let a = v.finish(ms(10)).render();
        let mut v = Verifier::new(1);
        v.push(&TraceEvent::Marker {
            at: ms(5),
            label: "a".into(),
        });
        v.push(&TraceEvent::Marker {
            at: ms(4),
            label: "b".into(),
        });
        let b = v.finish(ms(10)).render();
        assert_eq!(a, b);
        assert!(a.contains("V001"), "{a}");
    }
}
