//! The machine: event loop, preemptive SMT-aware scheduler, GPU driver and
//! trace emission.

use crate::config::MachineConfig;
use crate::ids::{EventId, Pid, SubmissionId, Tid};
use crate::metrics::SchedMetrics;
use crate::program::{Action, ThreadCtx, ThreadProgram};
use crate::work::Work;
use etwtrace::event::WaitReason;
use etwtrace::{EtlTrace, ThreadKey, TraceBuilder, TraceEvent};
use simcore::{EventCalendar, Rng, SimDuration, SimTime};
use simcpu::ComputeKind;
use simgpu::{Completion, EngineKind, GpuDevice, Packet};
use simobs::{span, Registry};
use std::collections::{HashMap, HashSet, VecDeque};

/// Internal calendar events.
#[derive(Debug)]
enum Ev {
    /// A newly spawned thread begins execution.
    StartThread(Tid),
    /// A sleeping thread's timer fired (guarded by the thread generation).
    Timer(Tid, u64),
    /// The projected end of a thread's compute segment.
    CompleteCompute(Tid, u64),
    /// A CPU's time slice expired (guarded by the CPU generation).
    Quantum(usize, u64),
    /// The GPU device reaches a packet boundary.
    GpuTick(usize, u64),
    /// A deferred semaphore signal; the optional [`Tid`] is the signalling
    /// thread, recorded in wake events for wait attribution.
    Signal(EventId, u64, Option<Tid>),
}

#[derive(Debug)]
#[allow(dead_code)] // variant payloads are read via Debug / debug_assert
enum TState {
    New,
    Ready { since: SimTime },
    Running { cpu: usize },
    Sleeping,
    WaitingEvent(EventId),
    WaitingGpu(SubmissionId),
    Exited,
}

struct ThreadEntry {
    pid: Pid,
    state: TState,
    /// Remaining compute of the current segment (while Ready/Running).
    pending: Option<Work>,
    program: Option<Box<dyn ThreadProgram>>,
    rng: Option<Rng>,
    /// Bumped to invalidate in-flight Timer / CompleteCompute events.
    gen: u64,
    /// Bit `i` set = may run on logical CPU `i`.
    affinity: u64,
    /// Scheduling class (index into the ready queues; 0 is highest).
    priority: Priority,
    /// Logical CPU of the previous dispatch (for migration accounting).
    last_cpu: Option<usize>,
}

/// Scheduling class of a thread. The scheduler always dispatches the
/// highest class with a runnable thread, and a quantum expiry only preempts
/// in favour of an equal-or-higher class.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum Priority {
    /// Boosted interactive work (foreground UI threads).
    High = 0,
    /// The default class.
    #[default]
    Normal = 1,
    /// Background/batch work (e.g. a transcode behind an interactive app).
    Background = 2,
}

impl Priority {
    /// All classes, highest first.
    pub const ALL: [Priority; 3] = [Priority::High, Priority::Normal, Priority::Background];
}

#[derive(Debug, Default)]
struct Sem {
    count: u64,
    waiters: VecDeque<Tid>,
}

#[derive(Debug)]
struct CpuSlot {
    current: Option<Tid>,
    /// Bumped to invalidate in-flight Quantum events.
    gen: u64,
    /// Ops/sec of `current`, set by the last re-pricing (see
    /// [`Machine::reprice_if_dirty`]); meaningless while idle.
    speed: f64,
}

/// The simulated desktop machine. See the crate docs for the programming
/// model and an end-to-end example.
pub struct Machine {
    cfg: MachineConfig,
    now: SimTime,
    last_sync: SimTime,
    calendar: EventCalendar<Ev>,
    threads: Vec<ThreadEntry>,
    process_names: Vec<String>,
    ready: [VecDeque<Tid>; 3],
    cpus: Vec<CpuSlot>,
    sems: Vec<Sem>,
    gpus: Vec<GpuDevice>,
    gpu_gens: Vec<u64>,
    gpu_done: HashSet<SubmissionId>,
    gpu_waiters: HashMap<SubmissionId, Vec<Tid>>,
    trace: TraceBuilder,
    rng: Rng,
    /// Set when occupancy or a running thread's work kind changed: cached
    /// speeds and compute completions need re-pricing.
    dirty: bool,
    /// Occupied CPUs (dispatch has nothing to do when all are).
    busy_cpus: usize,
    /// SMT sibling pairs with both CPUs occupied, as of the last re-pricing.
    corun_pairs: u64,
    metrics: SchedMetrics,
    /// The exact occupancy totals `into_trace` checks the trace against.
    #[cfg(debug_assertions)]
    truth: CpuTruth,
}

/// Exact integer-nanosecond CPU occupancy totals that `Machine::sync`
/// keeps in debug builds, from the scheduler's own state rather than the
/// trace: the ground truth for Equation 1 and every busy-time figure an
/// analyser reads off the trace.
#[cfg(debug_assertions)]
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CpuTruth {
    /// `busy_ns[k]`: time with exactly `k` logical CPUs busy.
    pub busy_ns: Vec<u64>,
    /// `pid_busy_ns[pid][k]`: time with exactly `k` of the process's threads
    /// running, from the process's creation on.
    pub pid_busy_ns: Vec<Vec<u64>>,
    /// Busy time of each logical CPU.
    pub cpu_busy_ns: Vec<u64>,
    /// Running threads per pid in the interval being added, reused.
    running: Vec<usize>,
}

#[cfg(debug_assertions)]
impl CpuTruth {
    /// Core-nanoseconds of execution: `Σ k · busy_ns[k]`.
    pub fn core_ns(&self) -> u64 {
        (0..).zip(&self.busy_ns).map(|(k, ns)| k * ns).sum()
    }

    /// Time with at least one CPU busy.
    pub fn nonidle_ns(&self) -> u64 {
        self.busy_ns.iter().skip(1).sum()
    }

    /// Charges `dt` nanoseconds of the occupancy in `cpus`.
    fn add(&mut self, cpus: &[CpuSlot], threads: &[ThreadEntry], dt: u64) {
        self.running.iter_mut().for_each(|n| *n = 0);
        let mut busy = 0;
        for (slot, ns) in cpus.iter().zip(&mut self.cpu_busy_ns) {
            if let Some(tid) = slot.current {
                busy += 1;
                *ns += dt;
                self.running[threads[tid.0 as usize].pid.0 as usize] += 1;
            }
        }
        self.busy_ns[busy] += dt;
        for (bins, &n) in self.pid_busy_ns.iter_mut().zip(&self.running) {
            bins[n] += dt;
        }
    }

    /// Asserts that the Equation 1 fold over `trace` reproduces these
    /// totals: over all pids bin for bin, and over each pid in bins `1..`
    /// (bin 0 also counts the time before the process existed).
    fn check(&self, trace: &EtlTrace) {
        let bins = |filter: &etwtrace::PidSet| -> Vec<u64> {
            let profile = etwtrace::analysis::concurrency(trace, filter);
            let hist = profile.histogram();
            (0..hist.len()).map(|k| hist.bin(k).as_nanos()).collect()
        };
        assert_eq!(
            bins(&trace.all_pids()),
            self.busy_ns,
            "Eq. 1 over all pids disagrees with the scheduler's occupancy"
        );
        for (pid, truth) in (0..).zip(&self.pid_busy_ns) {
            let traced = bins(&[pid].into_iter().collect());
            assert_eq!(
                traced.get(1..),
                truth.get(1..),
                "Eq. 1 over pid {pid} disagrees with the scheduler's occupancy"
            );
        }
    }
}

/// Tolerance on remaining ops when deciding a compute segment is finished
/// (the +1 ns wake-up bias guarantees we land at or past the true end).
const OPS_EPS: f64 = 1e-2;

impl Machine {
    /// Builds an idle machine from a configuration.
    ///
    /// # Panics
    /// Panics if the topology enables more than 64 logical CPUs: a thread's
    /// affinity mask is a `u64` with one bit per logical CPU.
    pub fn new(cfg: MachineConfig) -> Machine {
        let n = cfg.topology.logical_count();
        assert!(
            n <= 64,
            "{n} logical CPUs enabled, but the u64 affinity mask covers at most 64"
        );
        let gpus: Vec<GpuDevice> = cfg.gpus.iter().cloned().map(GpuDevice::new).collect();
        let gpu_gens = vec![0; gpus.len()];
        let rng = Rng::seed_from(cfg.seed);
        Machine {
            trace: TraceBuilder::new(n),
            cpus: (0..n)
                .map(|_| CpuSlot {
                    current: None,
                    gen: 0,
                    speed: 0.0,
                })
                .collect(),
            cfg,
            now: SimTime::ZERO,
            last_sync: SimTime::ZERO,
            calendar: EventCalendar::new(),
            threads: Vec::new(),
            process_names: Vec::new(),
            ready: Default::default(),
            sems: Vec::new(),
            gpus,
            gpu_gens,
            gpu_done: HashSet::new(),
            gpu_waiters: HashMap::new(),
            rng,
            dirty: false,
            busy_cpus: 0,
            corun_pairs: 0,
            metrics: SchedMetrics::default(),
            #[cfg(debug_assertions)]
            truth: CpuTruth {
                busy_ns: vec![0; n + 1],
                cpu_busy_ns: vec![0; n],
                ..CpuTruth::default()
            },
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The machine's configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// The machine-level RNG (fork it for external drivers).
    pub fn rng(&mut self) -> &mut Rng {
        &mut self.rng
    }

    /// Number of installed GPUs.
    pub fn gpu_count(&self) -> usize {
        self.gpus.len()
    }

    /// Spec of GPU `gpu`.
    ///
    /// # Panics
    /// Panics if out of range.
    pub fn gpu_spec(&self, gpu: usize) -> &simgpu::GpuSpec {
        self.gpus[gpu].spec()
    }

    /// Registers a process and records its start in the trace.
    pub fn add_process(&mut self, name: &str) -> Pid {
        let pid = Pid(self.process_names.len() as u64);
        self.process_names.push(name.to_string());
        #[cfg(debug_assertions)]
        {
            self.truth.pid_busy_ns.push(vec![0; self.cpus.len() + 1]);
            self.truth.running.push(0);
        }
        self.trace.push(TraceEvent::ProcessStart {
            at: self.now,
            pid: pid.0,
            name: name.to_string(),
        });
        pid
    }

    /// Spawns a thread; it starts running at the current instant.
    ///
    /// # Panics
    /// Panics if `pid` was not created by [`Machine::add_process`].
    pub fn spawn(&mut self, pid: Pid, name: &str, program: Box<dyn ThreadProgram>) -> Tid {
        assert!(
            (pid.0 as usize) < self.process_names.len(),
            "unknown process {pid}"
        );
        let tid = Tid(self.threads.len() as u64);
        let rng = self.rng.fork(tid.0 ^ 0xA11CE);
        self.threads.push(ThreadEntry {
            pid,
            state: TState::New,
            pending: None,
            program: Some(program),
            rng: Some(rng),
            gen: 0,
            affinity: u64::MAX,
            priority: Priority::Normal,
            last_cpu: None,
        });
        self.metrics.threads_spawned.inc();
        self.trace.push(TraceEvent::ThreadStart {
            at: self.now,
            key: ThreadKey {
                pid: pid.0,
                tid: tid.0,
            },
            name: name.to_string(),
        });
        self.calendar.schedule(self.now, Ev::StartThread(tid));
        tid
    }

    /// Creates a kernel event (counting semaphore, count 0).
    pub fn create_event(&mut self) -> EventId {
        let id = EventId(self.sems.len() as u64);
        self.sems.push(Sem::default());
        id
    }

    /// Signals an event from outside the simulation (defers to the event
    /// loop at the current instant).
    pub fn queue_signal(&mut self, event: EventId, n: u64) {
        assert!((event.0 as usize) < self.sems.len(), "unknown event");
        self.calendar.schedule(self.now, Ev::Signal(event, n, None));
    }

    /// Signals an event on behalf of thread `from`, so woken waiters can
    /// name their waker (used by [`ThreadCtx::signal`]).
    pub(crate) fn queue_signal_from(&mut self, event: EventId, n: u64, from: Tid) {
        assert!((event.0 as usize) < self.sems.len(), "unknown event");
        self.calendar
            .schedule(self.now, Ev::Signal(event, n, Some(from)));
    }

    pub(crate) fn try_consume(&mut self, event: EventId) -> bool {
        let sem = &mut self.sems[event.0 as usize];
        if sem.count > 0 {
            sem.count -= 1;
            true
        } else {
            false
        }
    }

    /// Submits a GPU packet (used by [`ThreadCtx::submit_gpu`]).
    pub(crate) fn submit_gpu(
        &mut self,
        tid: Tid,
        gpu: usize,
        queue: usize,
        packet: Packet,
    ) -> SubmissionId {
        assert!(gpu < self.gpus.len(), "gpu {gpu} out of range");
        let mut events = Vec::new();
        let id = self.gpus[gpu].submit(self.now, queue, packet, &mut events);
        self.emit_gpu_events(gpu, &events);
        self.reschedule_gpu(gpu);
        self.trace_gpu_submit(tid, gpu, id.0);
        SubmissionId { gpu, packet: id.0 }
    }

    /// Submits a fixed-function encode job (used by [`ThreadCtx::submit_encode`]).
    pub(crate) fn submit_encode(
        &mut self,
        tid: Tid,
        gpu: usize,
        frames: f64,
        pid: Pid,
    ) -> SubmissionId {
        assert!(gpu < self.gpus.len(), "gpu {gpu} out of range");
        let mut events = Vec::new();
        let id = self.gpus[gpu].submit_encode(self.now, frames, pid.0, &mut events);
        self.emit_gpu_events(gpu, &events);
        self.reschedule_gpu(gpu);
        self.trace_gpu_submit(tid, gpu, id.0);
        SubmissionId { gpu, packet: id.0 }
    }

    /// Records a packet submission. Pushed *after* the device's own events —
    /// catching up the device can emit completions timestamped before `now`,
    /// and the trace builder requires non-decreasing order. Consumers must
    /// therefore tolerate a packet's `GpuStart` preceding its `GpuSubmit`
    /// at the same instant.
    fn trace_gpu_submit(&mut self, tid: Tid, gpu: usize, packet: u64) {
        let key = self.key_of(tid);
        self.trace.push(TraceEvent::GpuSubmit {
            at: self.now,
            key,
            gpu,
            packet,
        });
    }

    fn key_of(&self, tid: Tid) -> ThreadKey {
        ThreadKey {
            pid: self.threads[tid.0 as usize].pid.0,
            tid: tid.0,
        }
    }

    /// Records that `tid` stopped making progress for `reason`.
    fn trace_wait_begin(&mut self, tid: Tid, reason: WaitReason) {
        let key = self.key_of(tid);
        self.trace.push(TraceEvent::WaitBegin {
            at: self.now,
            key,
            reason,
        });
    }

    /// Records that `tid`'s wait for `reason` ended, optionally naming the
    /// thread whose signal released it.
    fn trace_wait_end(&mut self, tid: Tid, reason: WaitReason, waker: Option<Tid>) {
        let key = self.key_of(tid);
        let waker = waker.map(|w| self.key_of(w));
        self.trace.push(TraceEvent::WaitEnd {
            at: self.now,
            key,
            reason,
            waker,
        });
    }

    pub(crate) fn trace_frame(&mut self, pid: Pid) {
        self.trace.push(TraceEvent::Frame {
            at: self.now,
            pid: pid.0,
        });
    }

    pub(crate) fn trace_marker(&mut self, label: &str) {
        self.trace.push(TraceEvent::Marker {
            at: self.now,
            label: label.to_string(),
        });
    }

    /// Runs the event loop until virtual time `t` (inclusive of events at
    /// `t`). Time always advances to exactly `t`.
    ///
    /// # Panics
    /// Panics if `t` is in the past.
    pub fn run_until(&mut self, t: SimTime) {
        assert!(t >= self.now, "run_until into the past");
        while let Some(et) = self.calendar.peek_time() {
            if et > t {
                break;
            }
            let (et, ev) = self.calendar.pop().expect("peeked");
            debug_assert!(et >= self.now);
            self.now = et;
            // Aggregate-only phase timers: when the self-tracer is enabled
            // these fold into per-phase stats without ring slots (this loop
            // runs per event — full spans here would flood the recorder);
            // when disabled each is one branch.
            let t = span::phase_start();
            self.sync();
            span::phase_record("machine", "sync", t);
            let t = span::phase_start();
            self.handle(ev);
            span::phase_record("machine", "handle", t);
            let t = span::phase_start();
            self.dispatch();
            span::phase_record("machine", "dispatch", t);
            let t = span::phase_start();
            self.reprice_if_dirty();
            span::phase_record("machine", "reprice", t);
        }
        self.now = t;
        self.sync();
    }

    /// Runs for a duration from the current time.
    pub fn run_for(&mut self, d: SimDuration) {
        let t = self.now.saturating_add(d);
        self.run_until(t);
    }

    /// Seals and returns the trace, consuming the machine.
    ///
    /// Debug builds run the [`etwtrace::verify`] invariant checker over the
    /// sealed stream: a scheduler bug that corrupts the emission contract
    /// (unbalanced waits, double CPU occupancy, broken GPU lifecycles)
    /// fails fast here instead of skewing downstream TLP/blame analysis.
    /// They also check the Equation 1 fold against `CpuTruth`, the
    /// occupancy `sync` integrated, so a trace that verifies but misstates
    /// who ran when fails here too.
    pub fn into_trace(self) -> EtlTrace {
        let trace = self.trace.finish(SimTime::ZERO, self.now);
        #[cfg(debug_assertions)]
        {
            let report = etwtrace::verify::verify_trace(&trace);
            debug_assert_eq!(
                report.errors(),
                0,
                "machine emitted an invalid trace:\n{}",
                report.render()
            );
            self.truth.check(&trace);
        }
        trace
    }

    /// The exact CPU occupancy totals so far (debug builds only).
    #[cfg(debug_assertions)]
    pub fn cpu_truth(&self) -> &CpuTruth {
        &self.truth
    }

    /// The scheduler's embedded metrics (live view).
    pub fn sched_metrics(&self) -> &SchedMetrics {
        &self.metrics
    }

    /// Snapshots every metric family — scheduler, calendar, and each GPU —
    /// into `reg`. Purely virtual-time derived, hence deterministic.
    pub fn collect_metrics(&self, reg: &mut Registry) {
        self.metrics.collect(reg);
        let cal = self.calendar.stats();
        reg.counter("sim_calendar_events_scheduled_total", &[], cal.scheduled);
        reg.gauge("sim_calendar_heap_peak", &[], cal.peak_len as i64);
        reg.gauge("sim_calendar_heap_pending", &[], cal.pending as i64);
        for (i, gpu) in self.gpus.iter().enumerate() {
            gpu.collect_metrics(i, reg);
        }
    }

    // ---- event handling ------------------------------------------------

    fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::StartThread(tid) => self.advance_thread(tid),
            Ev::Timer(tid, gen) => {
                let th = &self.threads[tid.0 as usize];
                if th.gen == gen && matches!(th.state, TState::Sleeping) {
                    self.trace_wait_end(tid, WaitReason::Sleep, None);
                    self.advance_thread(tid);
                }
            }
            Ev::CompleteCompute(tid, gen) => {
                let th = &self.threads[tid.0 as usize];
                if th.gen != gen {
                    return;
                }
                if let TState::Running { .. } = th.state {
                    let done = th.pending.as_ref().map_or(true, |w| w.ops <= OPS_EPS);
                    if done {
                        self.segment_finished(tid);
                    } else {
                        // Numerical slack: re-price and try again.
                        self.dirty = true;
                    }
                }
            }
            Ev::Quantum(cpu, gen) => self.quantum_expired(cpu, gen),
            Ev::GpuTick(gpu, gen) => {
                if self.gpu_gens[gpu] != gen {
                    return;
                }
                let mut events = Vec::new();
                self.gpus[gpu].advance_to(self.now, &mut events);
                self.emit_gpu_events(gpu, &events);
                self.reschedule_gpu(gpu);
            }
            Ev::Signal(event, n, from) => {
                self.sems[event.0 as usize].count += n;
                while self.sems[event.0 as usize].count > 0 {
                    let Some(tid) = self.sems[event.0 as usize].waiters.pop_front() else {
                        break;
                    };
                    self.sems[event.0 as usize].count -= 1;
                    debug_assert!(matches!(
                        self.threads[tid.0 as usize].state,
                        TState::WaitingEvent(_)
                    ));
                    self.trace_wait_end(tid, WaitReason::Event { id: event.0 }, from);
                    self.advance_thread(tid);
                }
            }
        }
    }

    /// Integrates compute progress of all running threads from `last_sync`
    /// to `now` under the scheduling configuration that held in between,
    /// whose speeds and co-running pairs the last re-pricing cached.
    fn sync(&mut self) {
        if self.now <= self.last_sync {
            return;
        }
        debug_assert_eq!(self.stale_speed(), None, "cached CPU speed is stale");
        #[cfg(debug_assertions)]
        self.truth.add(
            &self.cpus,
            &self.threads,
            (self.now - self.last_sync).as_nanos(),
        );
        let elapsed = (self.now - self.last_sync).as_secs_f64();
        // SMT co-residency: attribute the elapsed interval once per sibling
        // pair that had both logical CPUs occupied.
        if self.corun_pairs > 0 {
            let elapsed_ns = (self.now - self.last_sync).as_nanos();
            self.metrics.smt_corun_ns.add(self.corun_pairs * elapsed_ns);
        }
        for slot in &self.cpus {
            let Some(tid) = slot.current else {
                continue;
            };
            if let Some(work) = self.threads[tid.0 as usize].pending.as_mut() {
                work.ops = (work.ops - elapsed * slot.speed).max(-1.0);
            }
        }
        self.last_sync = self.now;
    }

    /// The first busy CPU whose cached speed differs, bit for bit, from a
    /// fresh [`Machine::thread_speed`] (debug builds check this every sync).
    fn stale_speed(&self) -> Option<usize> {
        let active_physical = self.active_physical();
        (0..self.cpus.len()).find(|&cpu| {
            self.cpus[cpu].current.is_some()
                && self.cpus[cpu].speed.to_bits()
                    != self.thread_speed(cpu, active_physical).to_bits()
        })
    }

    /// Physical cores with at least one occupied logical CPU. Siblings are
    /// numbered adjacently, so a core is counted at its first busy thread.
    fn active_physical(&self) -> usize {
        let mut count = 0;
        let mut last = None;
        for (slot, lc) in self.cpus.iter().zip(self.cfg.topology.cpus()) {
            if slot.current.is_some() && last != Some(lc.physical) {
                last = Some(lc.physical);
                count += 1;
            }
        }
        count
    }

    /// Ops/sec for the thread currently on `cpu`.
    fn thread_speed(&self, cpu: usize, active_physical: usize) -> f64 {
        let tid = self.cpus[cpu].current.expect("speed of idle cpu");
        let kind = self.threads[tid.0 as usize]
            .pending
            .as_ref()
            .map_or(ComputeKind::Scalar, |w| w.kind);
        let sibling_kind = self
            .cfg
            .topology
            .sibling_of(cpu)
            .and_then(|sib| self.cpus[sib].current)
            .and_then(|stid| self.threads[stid.0 as usize].pending.as_ref())
            .map(|w| w.kind);
        self.cfg.freq.thread_ops_per_sec(
            &self.cfg.cpu,
            &self.cfg.smt,
            kind,
            active_physical,
            sibling_kind,
        )
    }

    /// Pulls the next actions from a thread that is *not* on a CPU.
    fn advance_thread(&mut self, tid: Tid) {
        loop {
            let action = self.poll_program(tid);
            match action {
                Action::Compute(work) => {
                    self.threads[tid.0 as usize].pending = Some(work);
                    self.make_ready(tid);
                    return;
                }
                Action::Yield => {
                    self.threads[tid.0 as usize].pending = Some(Work::NONE);
                    self.make_ready(tid);
                    return;
                }
                Action::Sleep(d) => {
                    let th = &mut self.threads[tid.0 as usize];
                    th.state = TState::Sleeping;
                    th.gen += 1;
                    let gen = th.gen;
                    self.calendar
                        .schedule(self.now.saturating_add(d), Ev::Timer(tid, gen));
                    self.trace_wait_begin(tid, WaitReason::Sleep);
                    return;
                }
                Action::WaitEvent(ev) => {
                    if self.try_consume(ev) {
                        continue;
                    }
                    self.threads[tid.0 as usize].state = TState::WaitingEvent(ev);
                    self.sems[ev.0 as usize].waiters.push_back(tid);
                    self.trace_wait_begin(tid, WaitReason::Event { id: ev.0 });
                    return;
                }
                Action::WaitGpu(sub) => {
                    if self.gpu_done.remove(&sub) {
                        continue;
                    }
                    self.threads[tid.0 as usize].state = TState::WaitingGpu(sub);
                    self.gpu_waiters.entry(sub).or_default().push(tid);
                    self.trace_wait_begin(tid, gpu_wait_reason(sub));
                    return;
                }
                Action::Exit => {
                    self.exit_thread(tid);
                    return;
                }
            }
        }
    }

    /// A running thread finished its compute segment: ask for the next
    /// action. Staying on the CPU for another compute segment emits no trace
    /// events (the thread never stopped running).
    fn segment_finished(&mut self, tid: Tid) {
        let TState::Running { cpu } = self.threads[tid.0 as usize].state else {
            unreachable!("segment_finished on non-running thread");
        };
        loop {
            let action = self.poll_program(tid);
            match action {
                Action::Compute(work) => {
                    self.threads[tid.0 as usize].pending = Some(work);
                    self.dirty = true;
                    return;
                }
                Action::Yield => {
                    self.release_cpu(tid, cpu);
                    self.trace_wait_begin(tid, WaitReason::Yield);
                    self.threads[tid.0 as usize].pending = Some(Work::NONE);
                    self.make_ready(tid);
                    return;
                }
                Action::Sleep(d) => {
                    self.release_cpu(tid, cpu);
                    let th = &mut self.threads[tid.0 as usize];
                    th.state = TState::Sleeping;
                    th.gen += 1;
                    let gen = th.gen;
                    self.calendar
                        .schedule(self.now.saturating_add(d), Ev::Timer(tid, gen));
                    self.trace_wait_begin(tid, WaitReason::Sleep);
                    return;
                }
                Action::WaitEvent(ev) => {
                    if self.try_consume(ev) {
                        continue;
                    }
                    self.release_cpu(tid, cpu);
                    self.threads[tid.0 as usize].state = TState::WaitingEvent(ev);
                    self.sems[ev.0 as usize].waiters.push_back(tid);
                    self.trace_wait_begin(tid, WaitReason::Event { id: ev.0 });
                    return;
                }
                Action::WaitGpu(sub) => {
                    if self.gpu_done.remove(&sub) {
                        continue;
                    }
                    self.release_cpu(tid, cpu);
                    self.threads[tid.0 as usize].state = TState::WaitingGpu(sub);
                    self.gpu_waiters.entry(sub).or_default().push(tid);
                    self.trace_wait_begin(tid, gpu_wait_reason(sub));
                    return;
                }
                Action::Exit => {
                    self.release_cpu(tid, cpu);
                    self.exit_thread(tid);
                    return;
                }
            }
        }
    }

    fn poll_program(&mut self, tid: Tid) -> Action {
        let idx = tid.0 as usize;
        let mut program = self.threads[idx].program.take().expect("program in use");
        let mut rng = self.threads[idx].rng.take().expect("rng in use");
        let pid = self.threads[idx].pid;
        let action = {
            let mut ctx = ThreadCtx {
                machine: self,
                pid,
                tid,
                rng: &mut rng,
            };
            program.next(&mut ctx)
        };
        let th = &mut self.threads[idx];
        th.program = Some(program);
        th.rng = Some(rng);
        action
    }

    fn exit_thread(&mut self, tid: Tid) {
        let th = &mut self.threads[tid.0 as usize];
        th.state = TState::Exited;
        th.gen += 1;
        th.pending = None;
        th.program = None;
        let key = ThreadKey {
            pid: th.pid.0,
            tid: tid.0,
        };
        self.metrics.threads_exited.inc();
        self.trace.push(TraceEvent::ThreadEnd { at: self.now, key });
    }

    fn make_ready(&mut self, tid: Tid) {
        let th = &mut self.threads[tid.0 as usize];
        th.state = TState::Ready { since: self.now };
        th.gen += 1;
        self.ready[th.priority as usize].push_back(tid);
    }

    /// Sets the calling thread's CPU-affinity mask (bit `i` = logical CPU
    /// `i`). Takes effect at the next scheduling decision.
    pub(crate) fn set_affinity(&mut self, tid: Tid, mask: u64) {
        assert!(mask != 0, "affinity mask must allow at least one CPU");
        self.threads[tid.0 as usize].affinity = mask;
    }

    /// Sets the calling thread's scheduling class.
    pub(crate) fn set_priority(&mut self, tid: Tid, priority: Priority) {
        self.threads[tid.0 as usize].priority = priority;
    }

    fn any_ready(&self) -> bool {
        self.ready.iter().any(|q| !q.is_empty())
    }

    /// Highest class with a thread that may run on `cpu`; `None` if no
    /// ready thread is allowed there.
    fn best_ready_class_for(&self, cpu: usize) -> Option<Priority> {
        Priority::ALL.into_iter().find(|&class| {
            self.ready[class as usize]
                .iter()
                .any(|t| self.threads[t.0 as usize].affinity & (1 << cpu) != 0)
        })
    }

    /// Releases `cpu` from `tid`, emitting the switch-out record.
    fn release_cpu(&mut self, tid: Tid, cpu: usize) {
        debug_assert_eq!(self.cpus[cpu].current, Some(tid));
        self.cpus[cpu].current = None;
        self.cpus[cpu].gen += 1; // cancel the quantum
        self.busy_cpus -= 1;
        let pid = self.threads[tid.0 as usize].pid;
        self.trace.push(TraceEvent::CSwitch {
            at: self.now,
            cpu,
            old: Some(ThreadKey {
                pid: pid.0,
                tid: tid.0,
            }),
            new: None,
            ready_since: None,
        });
        self.dirty = true;
    }

    /// Places ready threads onto free logical CPUs, preferring CPUs whose
    /// SMT sibling is idle (Windows-style placement), honouring priority
    /// classes and affinity masks.
    fn dispatch(&mut self) {
        'outer: while self.busy_cpus < self.cpus.len() && self.any_ready() {
            // Highest class first; within a class, FIFO over threads that
            // still have an allowed free CPU.
            let mut picked: Option<(usize, Tid)> = None;
            for class in Priority::ALL {
                for (qi, &tid) in self.ready[class as usize].iter().enumerate() {
                    let mask = self.threads[tid.0 as usize].affinity;
                    if let Some(cpu) = self.pick_cpu(mask) {
                        self.ready[class as usize].remove(qi);
                        picked = Some((cpu, tid));
                        break;
                    }
                }
                if picked.is_some() {
                    break;
                }
            }
            let Some((cpu, tid)) = picked else {
                break 'outer;
            };
            let ready_depth = 1 + self.ready.iter().map(VecDeque::len).sum::<usize>();
            let th = &mut self.threads[tid.0 as usize];
            let since = match th.state {
                TState::Ready { since } => since,
                ref s => unreachable!("dispatching non-ready thread: {s:?}"),
            };
            th.state = TState::Running { cpu };
            let pid = th.pid;
            self.metrics.context_switches.inc();
            self.metrics.dispatches_per_class[th.priority as usize].inc();
            self.metrics.ready_depth.observe(ready_depth as u64);
            self.metrics
                .sched_latency_ns
                .observe((self.now - since).as_nanos());
            if th.last_cpu.is_some_and(|prev| prev != cpu) {
                self.metrics.migrations.inc();
            }
            th.last_cpu = Some(cpu);
            self.cpus[cpu].current = Some(tid);
            self.cpus[cpu].gen += 1;
            self.busy_cpus += 1;
            let gen = self.cpus[cpu].gen;
            self.calendar.schedule(
                self.now.saturating_add(self.cfg.quantum),
                Ev::Quantum(cpu, gen),
            );
            self.trace.push(TraceEvent::CSwitch {
                at: self.now,
                cpu,
                old: None,
                new: Some(ThreadKey {
                    pid: pid.0,
                    tid: tid.0,
                }),
                ready_since: Some(since),
            });
            self.dirty = true;
        }
    }

    fn pick_cpu(&self, affinity: u64) -> Option<usize> {
        let topo = &self.cfg.topology;
        let mut fallback = None;
        for cpu in 0..self.cpus.len() {
            if self.cpus[cpu].current.is_some() || affinity & (1 << cpu) == 0 {
                continue;
            }
            let sibling_busy = topo
                .sibling_of(cpu)
                .is_some_and(|sib| self.cpus[sib].current.is_some());
            if !sibling_busy {
                return Some(cpu);
            }
            fallback.get_or_insert(cpu);
        }
        fallback
    }

    fn quantum_expired(&mut self, cpu: usize, gen: u64) {
        if self.cpus[cpu].gen != gen {
            return;
        }
        let Some(tid) = self.cpus[cpu].current else {
            return;
        };
        let running_class = self.threads[tid.0 as usize].priority;
        let contender = self.best_ready_class_for(cpu);
        if contender.map_or(true, |c| c > running_class) {
            // No equal-or-higher-class thread wants this CPU: renew.
            self.cpus[cpu].gen += 1;
            let gen = self.cpus[cpu].gen;
            self.calendar.schedule(
                self.now.saturating_add(self.cfg.quantum),
                Ev::Quantum(cpu, gen),
            );
            return;
        }
        // Preempt: back of the queue, keep remaining work.
        self.metrics.preemptions.inc();
        self.release_cpu(tid, cpu);
        self.trace_wait_begin(tid, WaitReason::Preempted);
        self.make_ready(tid);
    }

    /// Re-prices after occupancy or a running thread's work kind changed:
    /// caches each busy CPU's speed and the co-running SMT pairs for
    /// [`Machine::sync`], and re-projects compute-completion times.
    ///
    /// Both caches are functions of occupancy and the running work kinds
    /// only. Every step that changes either sets `dirty`, and this runs at
    /// the end of that same calendar step, before the next `sync`.
    fn reprice_if_dirty(&mut self) {
        if !self.dirty {
            return;
        }
        self.dirty = false;
        let active_physical = self.active_physical();
        self.corun_pairs = 0;
        for cpu in 0..self.cpus.len() {
            let Some(tid) = self.cpus[cpu].current else {
                continue;
            };
            let speed = self.thread_speed(cpu, active_physical);
            self.cpus[cpu].speed = speed;
            if let Some(sib) = self.cfg.topology.sibling_of(cpu) {
                if sib > cpu && self.cpus[sib].current.is_some() {
                    self.corun_pairs += 1;
                }
            }
            let Some(work) = self.threads[tid.0 as usize].pending else {
                continue;
            };
            let th = &mut self.threads[tid.0 as usize];
            th.gen += 1;
            let gen = th.gen;
            if work.ops <= OPS_EPS {
                self.calendar
                    .schedule(self.now, Ev::CompleteCompute(tid, gen));
                continue;
            }
            let secs = work.ops / speed;
            let t = self
                .now
                .saturating_add(SimDuration::from_secs_f64(secs))
                .saturating_add(SimDuration::from_nanos(1));
            self.calendar.schedule(t, Ev::CompleteCompute(tid, gen));
        }
    }

    fn emit_gpu_events(&mut self, gpu: usize, events: &[Completion]) {
        for ev in events {
            match *ev {
                Completion::Started {
                    at,
                    id,
                    packet,
                    engine,
                } => {
                    self.trace.push(TraceEvent::GpuStart {
                        at,
                        gpu,
                        engine: engine_code(engine),
                        packet: id.0,
                        pid: packet.owner_pid,
                    });
                }
                Completion::Finished {
                    at,
                    id,
                    packet,
                    engine,
                } => {
                    self.trace.push(TraceEvent::GpuEnd {
                        at,
                        gpu,
                        engine: engine_code(engine),
                        packet: id.0,
                        pid: packet.owner_pid,
                    });
                    let sub = SubmissionId { gpu, packet: id.0 };
                    if let Some(waiters) = self.gpu_waiters.remove(&sub) {
                        for tid in waiters {
                            debug_assert!(matches!(
                                self.threads[tid.0 as usize].state,
                                TState::WaitingGpu(_)
                            ));
                            self.trace_wait_end(tid, gpu_wait_reason(sub), None);
                            self.advance_thread(tid);
                        }
                    } else {
                        self.gpu_done.insert(sub);
                    }
                }
            }
        }
    }

    fn reschedule_gpu(&mut self, gpu: usize) {
        self.gpu_gens[gpu] += 1;
        if let Some(t) = self.gpus[gpu].next_event_time() {
            let gen = self.gpu_gens[gpu];
            self.calendar
                .schedule(t.max(self.now), Ev::GpuTick(gpu, gen));
        }
    }
}

/// The [`WaitReason`] naming a pending GPU submission.
fn gpu_wait_reason(sub: SubmissionId) -> WaitReason {
    WaitReason::Gpu {
        gpu: sub.gpu as u32,
        packet: sub.packet,
    }
}

fn engine_code(engine: EngineKind) -> u32 {
    match engine {
        EngineKind::Queue(q) => q as u32,
        EngineKind::Nvenc => u32::MAX,
    }
}

impl std::fmt::Debug for Machine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Machine")
            .field("now", &self.now)
            .field("threads", &self.threads.len())
            .field("ready", &self.ready.len())
            .field("pending_events", &self.calendar.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etwtrace::{analysis, PidSet};
    use simgpu::PacketKind;

    fn study_machine(logical: usize) -> Machine {
        Machine::new(MachineConfig::study_rig(logical, true))
    }

    /// A program that computes `n` segments of `ms` each, then exits.
    struct Burn {
        segments: u32,
        ms: f64,
        kind: ComputeKind,
    }

    impl ThreadProgram for Burn {
        fn next(&mut self, _ctx: &mut ThreadCtx<'_>) -> Action {
            if self.segments == 0 {
                return Action::Exit;
            }
            self.segments -= 1;
            Action::Compute(Work::busy_ms(self.ms).with_kind(self.kind))
        }
    }

    fn tlp_of(trace: &EtlTrace, pid: Pid) -> f64 {
        let filter: PidSet = pid.into();
        analysis::concurrency(trace, &filter).tlp()
    }

    #[test]
    fn single_thread_tlp_is_one() {
        let mut m = study_machine(12);
        let pid = m.add_process("single.exe");
        m.spawn(
            pid,
            "t",
            Box::new(Burn {
                segments: 10,
                ms: 5.0,
                kind: ComputeKind::Scalar,
            }),
        );
        m.run_for(SimDuration::from_millis(200));
        let trace = m.into_trace();
        let tlp = tlp_of(&trace, pid);
        assert!((tlp - 1.0).abs() < 0.01, "tlp {tlp}");
    }

    #[test]
    fn four_threads_tlp_is_four() {
        let mut m = study_machine(12);
        let pid = m.add_process("quad.exe");
        for i in 0..4 {
            m.spawn(
                pid,
                &format!("w{i}"),
                Box::new(Burn {
                    segments: 20,
                    ms: 5.0,
                    kind: ComputeKind::Scalar,
                }),
            );
        }
        m.run_for(SimDuration::from_millis(500));
        let trace = m.into_trace();
        let tlp = tlp_of(&trace, pid);
        assert!((tlp - 4.0).abs() < 0.05, "tlp {tlp}");
    }

    #[test]
    fn oversubscription_clamps_to_logical_cpus() {
        // 8 always-ready threads on 4 logical CPUs → concurrency pinned at 4.
        let mut m = study_machine(4);
        let pid = m.add_process("over.exe");
        for i in 0..8 {
            m.spawn(
                pid,
                &format!("w{i}"),
                Box::new(Burn {
                    segments: 50,
                    ms: 2.0,
                    kind: ComputeKind::Scalar,
                }),
            );
        }
        m.run_for(SimDuration::from_millis(100));
        let trace = m.into_trace();
        let filter: PidSet = pid.into();
        let prof = analysis::concurrency(&trace, &filter);
        assert_eq!(prof.max_concurrency(), 4);
        let tlp = prof.tlp();
        assert!(tlp > 3.9, "tlp {tlp}");
    }

    #[test]
    fn quantum_preemption_shares_a_core() {
        // 2 infinite-ish threads on 1 logical CPU: both must make progress.
        let cpu = simcpu::presets::i7_8700k();
        let topo = simcpu::Topology::with_logical_cpus(&cpu, 1, false);
        let cfg = MachineConfig {
            topology: topo,
            ..MachineConfig::new(cpu)
        };
        let mut m = Machine::new(cfg);
        let pid = m.add_process("pair.exe");
        let t0 = m.spawn(
            pid,
            "a",
            Box::new(Burn {
                segments: 1,
                ms: 100.0,
                kind: ComputeKind::Scalar,
            }),
        );
        let t1 = m.spawn(
            pid,
            "b",
            Box::new(Burn {
                segments: 1,
                ms: 100.0,
                kind: ComputeKind::Scalar,
            }),
        );
        m.run_for(SimDuration::from_millis(50));
        // Neither thread can have finished (each needs ~79ms at turbo), and
        // both have run: check via the trace that both tids appear on cpu 0.
        let trace = m.into_trace();
        let mut seen = HashSet::new();
        for ev in trace.events() {
            if let TraceEvent::CSwitch { new: Some(k), .. } = ev {
                seen.insert(k.tid);
            }
        }
        assert!(seen.contains(&t0.0) && seen.contains(&t1.0), "{seen:?}");
    }

    #[test]
    fn metrics_count_switches_preemptions_and_corun() {
        // 2 long threads on 1 CPU → context switches and preemptions.
        let cpu = simcpu::presets::i7_8700k();
        let topo = simcpu::Topology::with_logical_cpus(&cpu, 1, false);
        let cfg = MachineConfig {
            topology: topo,
            ..MachineConfig::new(cpu)
        };
        let mut m = Machine::new(cfg);
        let pid = m.add_process("pair.exe");
        for name in ["a", "b"] {
            m.spawn(
                pid,
                name,
                Box::new(Burn {
                    segments: 1,
                    ms: 100.0,
                    kind: ComputeKind::Scalar,
                }),
            );
        }
        m.run_for(SimDuration::from_millis(50));
        let mm = m.sched_metrics();
        assert_eq!(mm.threads_spawned.get(), 2);
        assert!(
            mm.preemptions.get() >= 4,
            "preemptions {}",
            mm.preemptions.get()
        );
        assert!(mm.context_switches.get() > mm.preemptions.get());
        assert_eq!(mm.dispatches_per_class[Priority::High as usize].get(), 0);
        assert!(mm.dispatches_per_class[Priority::Normal as usize].get() >= 2);
        assert!(mm.sched_latency_ns.count() >= 2);
        assert!(mm.ready_depth.count() >= 2);
        // Single logical CPU → no SMT pair can co-run.
        assert_eq!(mm.smt_corun_ns.get(), 0);

        let mut reg = simobs::Registry::new();
        m.collect_metrics(&mut reg);
        assert!(reg.counter_value("sim_calendar_events_scheduled_total", &[]) > Some(0));
        assert!(reg.gauge_value("sim_calendar_heap_peak", &[]) > Some(0));
        assert!(reg.to_prometheus().contains("sim_sched_latency_ns_bucket"));
    }

    #[test]
    fn smt_corun_time_accrues_on_shared_cores() {
        // 12 logical / 6 physical with 12 busy threads → siblings co-run.
        let mut m = study_machine(12);
        let pid = m.add_process("smt.exe");
        for i in 0..12 {
            m.spawn(
                pid,
                &format!("w{i}"),
                Box::new(Burn {
                    segments: 10,
                    ms: 10.0,
                    kind: ComputeKind::Scalar,
                }),
            );
        }
        m.run_for(SimDuration::from_millis(50));
        let ns = m.sched_metrics().smt_corun_ns.get();
        // 6 pairs × ~50 ms each ≈ 300 ms of pair-time.
        assert!(ns > 250_000_000, "smt corun only {ns} ns");
    }

    #[test]
    fn self_profile_disabled_by_default_and_opt_in() {
        // DES phase timing goes to the process-wide self-tracer
        // (`simobs::span`), recorded only while its global gate is on.
        let mut m = study_machine(4);
        let pid = m.add_process("prof.exe");
        m.spawn(
            pid,
            "t",
            Box::new(Burn {
                segments: 3,
                ms: 1.0,
                kind: ComputeKind::Scalar,
            }),
        );
        m.run_for(SimDuration::from_millis(10));
        assert!(
            span::snapshot().stats_for("machine").is_empty(),
            "phase stats recorded while the tracer was disabled"
        );
        span::set_enabled(true);
        let mut m = study_machine(4);
        let pid2 = m.add_process("prof2.exe");
        m.spawn(
            pid2,
            "t2",
            Box::new(Burn {
                segments: 3,
                ms: 1.0,
                kind: ComputeKind::Scalar,
            }),
        );
        m.run_for(SimDuration::from_millis(10));
        span::set_enabled(false);
        let stats = span::snapshot();
        for phase in ["sync", "handle", "dispatch", "reprice"] {
            let stat = stats.stats.get(&("machine", phase));
            assert!(
                stat.is_some_and(|s| s.count > 0),
                "missing machine/{phase} phase stat"
            );
        }
    }

    #[test]
    fn migrations_require_a_cpu_change() {
        let mut m = study_machine(4);
        let pid = m.add_process("migrate.exe");
        // More runnable threads than CPUs, with sleeps to force re-placement.
        for i in 0..6 {
            let mut phase = 0u32;
            m.spawn(
                pid,
                &format!("w{i}"),
                Box::new(move |_ctx: &mut ThreadCtx<'_>| {
                    phase += 1;
                    match phase {
                        1..=8 => {
                            if phase % 2 == 0 {
                                Action::Sleep(SimDuration::from_micros(300))
                            } else {
                                Action::Compute(Work::busy_ms(1.0))
                            }
                        }
                        _ => Action::Exit,
                    }
                }),
            );
        }
        m.run_for(SimDuration::from_millis(40));
        let mm = m.sched_metrics();
        assert!(
            mm.migrations.get() <= mm.context_switches.get(),
            "migrations cannot exceed switch-ins"
        );
        assert_eq!(mm.threads_exited.get(), 6);
    }

    #[test]
    fn sleep_wakes_on_time() {
        let mut m = study_machine(12);
        let pid = m.add_process("sleepy.exe");
        let mut phase = 0;
        m.spawn(
            pid,
            "t",
            Box::new(move |ctx: &mut ThreadCtx<'_>| {
                phase += 1;
                match phase {
                    1 => Action::Sleep(SimDuration::from_millis(30)),
                    2 => {
                        ctx.marker("woke");
                        Action::Exit
                    }
                    _ => unreachable!(),
                }
            }),
        );
        m.run_for(SimDuration::from_millis(100));
        let trace = m.into_trace();
        let woke = trace.events().iter().find_map(|e| match e {
            TraceEvent::Marker { at, label } if label == "woke" => Some(*at),
            _ => None,
        });
        assert_eq!(woke, Some(SimTime::ZERO + SimDuration::from_millis(30)));
    }

    #[test]
    fn events_wake_waiters_in_fifo_order() {
        let mut m = study_machine(12);
        let pid = m.add_process("evt.exe");
        let ev = m.create_event();
        let log: std::rc::Rc<std::cell::RefCell<Vec<u32>>> = Default::default();
        for i in 0..3u32 {
            let log = log.clone();
            let mut phase = 0;
            m.spawn(
                pid,
                &format!("w{i}"),
                Box::new(move |_ctx: &mut ThreadCtx<'_>| {
                    phase += 1;
                    match phase {
                        1 => Action::WaitEvent(ev),
                        2 => {
                            log.borrow_mut().push(i);
                            Action::Exit
                        }
                        _ => unreachable!(),
                    }
                }),
            );
        }
        m.run_for(SimDuration::from_millis(1));
        assert!(log.borrow().is_empty());
        m.queue_signal(ev, 2);
        m.run_for(SimDuration::from_millis(1));
        assert_eq!(*log.borrow(), vec![0, 1]);
        m.queue_signal(ev, 1);
        m.run_for(SimDuration::from_millis(1));
        assert_eq!(*log.borrow(), vec![0, 1, 2]);
    }

    #[test]
    fn signal_before_wait_is_banked() {
        let mut m = study_machine(12);
        let pid = m.add_process("bank.exe");
        let ev = m.create_event();
        m.queue_signal(ev, 1);
        m.run_for(SimDuration::from_millis(1));
        let mut phase = 0;
        let done: std::rc::Rc<std::cell::Cell<bool>> = Default::default();
        let done2 = done.clone();
        m.spawn(
            pid,
            "t",
            Box::new(move |_ctx: &mut ThreadCtx<'_>| {
                phase += 1;
                match phase {
                    1 => Action::WaitEvent(ev),
                    _ => {
                        done2.set(true);
                        Action::Exit
                    }
                }
            }),
        );
        m.run_for(SimDuration::from_millis(1));
        assert!(done.get());
    }

    #[test]
    fn gpu_submission_and_wait() {
        let mut m = study_machine(12);
        let pid = m.add_process("gpu.exe");
        let mut phase = 0;
        m.spawn(
            pid,
            "t",
            Box::new(move |ctx: &mut ThreadCtx<'_>| {
                phase += 1;
                match phase {
                    1 => {
                        // ~10 ms of GPU work on the 1080 Ti.
                        let gf = ctx.gpu_spec(0).peak_gflops() * 0.010;
                        let sub = ctx.submit_gpu(0, 0, PacketKind::Compute, gf);
                        Action::WaitGpu(sub)
                    }
                    2 => {
                        ctx.marker("gpu-done");
                        Action::Exit
                    }
                    _ => unreachable!(),
                }
            }),
        );
        m.run_for(SimDuration::from_millis(100));
        let trace = m.into_trace();
        let done_at = trace.events().iter().find_map(|e| match e {
            TraceEvent::Marker { at, label } if label == "gpu-done" => Some(*at),
            _ => None,
        });
        let done_at = done_at.expect("gpu wait never completed");
        let ms = done_at.as_secs_f64() * 1e3;
        assert!((ms - 10.0).abs() < 0.5, "woke at {ms} ms");
        // And the trace carries the packet interval for utilization.
        let filter: PidSet = pid.into();
        let util = analysis::gpu_utilization(&trace, &filter, Some(0));
        assert!((util.busy_frac - 0.1).abs() < 0.02, "{util:?}");
    }

    #[test]
    fn turbo_makes_lone_thread_faster() {
        // One segment of 100 reference-ms at 4.7 GHz turbo finishes in
        // 100 * 3.7/4.7 ≈ 78.7 ms.
        let mut m = study_machine(12);
        let pid = m.add_process("turbo.exe");
        m.spawn(
            pid,
            "t",
            Box::new(Burn {
                segments: 1,
                ms: 100.0,
                kind: ComputeKind::Scalar,
            }),
        );
        m.run_for(SimDuration::from_millis(200));
        let trace = m.into_trace();
        let end = trace.events().iter().rev().find_map(|e| match e {
            TraceEvent::ThreadEnd { at, .. } => Some(*at),
            _ => None,
        });
        let ms = end.expect("thread never exited").as_secs_f64() * 1e3;
        assert!((ms - 78.7).abs() < 1.0, "finished at {ms} ms");
    }

    #[test]
    fn smt_placement_prefers_idle_physical_cores() {
        // With 12 logical CPUs and 6 compute threads, each should land on a
        // distinct physical core (no SMT sharing), so vector work runs at
        // full speed: 6 segments of 43 ms finish together at ~43/2.1*3.7/4.3.
        let mut m = study_machine(12);
        let pid = m.add_process("placer.exe");
        for i in 0..6 {
            m.spawn(
                pid,
                &format!("w{i}"),
                Box::new(Burn {
                    segments: 1,
                    ms: 43.0,
                    kind: ComputeKind::Vector,
                }),
            );
        }
        m.run_for(SimDuration::from_millis(100));
        let trace = m.into_trace();
        // Collect the set of CPUs used; they must span 6 distinct physicals.
        let topo = simcpu::presets::i7_8700k().full_topology();
        let mut physicals = HashSet::new();
        for ev in trace.events() {
            if let TraceEvent::CSwitch {
                cpu, new: Some(_), ..
            } = ev
            {
                physicals.insert(topo.cpus()[*cpu].physical);
            }
        }
        assert_eq!(physicals.len(), 6, "{physicals:?}");
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = || {
            let mut m = study_machine(12);
            let pid = m.add_process("det.exe");
            for i in 0..5 {
                m.spawn(
                    pid,
                    &format!("w{i}"),
                    Box::new(move |ctx: &mut ThreadCtx<'_>| {
                        let ms = ctx.rng().uniform(0.5, 2.0);
                        if ctx.now().as_millis() > 50 {
                            Action::Exit
                        } else {
                            Action::Compute(Work::busy_ms(ms))
                        }
                    }),
                );
            }
            m.run_for(SimDuration::from_millis(80));
            m.into_trace()
        };
        let a = run();
        let b = run();
        assert_eq!(a.events().len(), b.events().len());
        assert_eq!(a, b);
    }

    #[test]
    fn spawned_children_run() {
        let mut m = study_machine(12);
        let pid = m.add_process("parent.exe");
        let mut phase = 0;
        m.spawn(
            pid,
            "parent",
            Box::new(move |ctx: &mut ThreadCtx<'_>| {
                phase += 1;
                match phase {
                    1 => {
                        for i in 0..3 {
                            ctx.spawn_sibling(
                                &format!("child{i}"),
                                Box::new(Burn {
                                    segments: 2,
                                    ms: 1.0,
                                    kind: ComputeKind::Scalar,
                                }),
                            );
                        }
                        Action::Sleep(SimDuration::from_millis(20))
                    }
                    _ => Action::Exit,
                }
            }),
        );
        m.run_for(SimDuration::from_millis(50));
        let trace = m.into_trace();
        let ends = trace
            .events()
            .iter()
            .filter(|e| matches!(e, TraceEvent::ThreadEnd { .. }))
            .count();
        assert_eq!(ends, 4); // 3 children + parent
    }

    #[test]
    fn affinity_pins_a_thread_to_one_cpu() {
        let mut m = study_machine(12);
        let pid = m.add_process("pinned.exe");
        let mut first = true;
        let tid = m.spawn(
            pid,
            "t",
            Box::new(move |ctx: &mut ThreadCtx<'_>| {
                if first {
                    first = false;
                    ctx.set_affinity(1 << 7);
                }
                if ctx.now().as_millis() > 40 {
                    Action::Exit
                } else {
                    Action::Compute(Work::busy_ms(2.0))
                }
            }),
        );
        m.run_for(SimDuration::from_millis(60));
        let trace = m.into_trace();
        let mut cpus = HashSet::new();
        for ev in trace.events() {
            if let TraceEvent::CSwitch {
                cpu, new: Some(k), ..
            } = ev
            {
                if k.tid == tid.0 {
                    cpus.insert(*cpu);
                }
            }
        }
        // The affinity call lands before the first dispatch, so the thread
        // only ever runs on CPU 7.
        assert_eq!(cpus, HashSet::from([7]));
    }

    #[test]
    fn background_class_yields_to_normal() {
        // One logical CPU, one Background hog and one Normal hog: the
        // Normal thread must get the overwhelming share.
        let cpu = simcpu::presets::i7_8700k();
        let topo = simcpu::Topology::with_logical_cpus(&cpu, 1, false);
        let cfg = MachineConfig {
            topology: topo,
            ..MachineConfig::new(cpu)
        };
        let mut m = Machine::new(cfg);
        let pid_bg = m.add_process("background.exe");
        let pid_fg = m.add_process("foreground.exe");
        let mut first = true;
        m.spawn(
            pid_bg,
            "bg",
            Box::new(move |ctx: &mut ThreadCtx<'_>| {
                if first {
                    first = false;
                    ctx.set_priority(Priority::Background);
                }
                Action::Compute(Work::busy_ms(2.0))
            }),
        );
        m.spawn(
            pid_fg,
            "fg",
            Box::new(|_: &mut ThreadCtx<'_>| Action::Compute(Work::busy_ms(2.0))),
        );
        m.run_for(SimDuration::from_millis(200));
        let trace = m.into_trace();
        let fg: etwtrace::PidSet = pid_fg.into();
        let bg: etwtrace::PidSet = pid_bg.into();
        let fg_busy = 1.0 - analysis::concurrency(&trace, &fg).fractions()[0];
        let bg_busy = 1.0 - analysis::concurrency(&trace, &bg).fractions()[0];
        assert!(
            fg_busy > 5.0 * bg_busy,
            "foreground {fg_busy} vs background {bg_busy}"
        );
    }

    /// A machine over `physical × ways` logical CPUs, all enabled.
    fn wide_machine(physical_cores: usize, smt_ways: usize) -> Machine {
        let cpu = simcpu::CpuSpec {
            physical_cores,
            smt_ways,
            ..simcpu::presets::i7_8700k()
        };
        Machine::new(MachineConfig::new(cpu))
    }

    #[test]
    fn sixty_four_logical_cpus_fit_the_affinity_mask() {
        let mut m = wide_machine(32, 2);
        let pid = m.add_process("wide.exe");
        for i in 0..70 {
            m.spawn(
                pid,
                &format!("w{i}"),
                Box::new(Burn {
                    segments: 2,
                    ms: 1.0,
                    kind: ComputeKind::Vector,
                }),
            );
        }
        m.run_for(SimDuration::from_millis(20));
        assert_eq!(m.sched_metrics().threads_exited.get(), 70);
    }

    #[test]
    #[should_panic(expected = "u64 affinity mask covers at most 64")]
    fn more_than_sixty_four_smt_cpus_panic() {
        wide_machine(33, 2);
    }

    #[test]
    #[should_panic(expected = "u64 affinity mask covers at most 64")]
    fn more_than_sixty_four_physical_cores_panic() {
        wide_machine(66, 1);
    }

    #[test]
    #[should_panic(expected = "unknown process")]
    fn spawn_in_unknown_process_panics() {
        let mut m = study_machine(12);
        m.spawn(
            Pid(42),
            "t",
            Box::new(Burn {
                segments: 1,
                ms: 1.0,
                kind: ComputeKind::Scalar,
            }),
        );
    }
}
