//! Reusable thread-program building blocks the application models are
//! assembled from: background services, fork-join bursts, pipeline stages,
//! tickers, GPU pump loops and scripted UI threads.

use autoinput::{InputAction, InputChannel};
use machine::{Action, EventId, ThreadCtx, ThreadProgram, Work};
use simcore::SimDuration;
use simcpu::ComputeKind;
use simgpu::PacketKind;
use std::cell::Cell;
use std::collections::VecDeque;
use std::rc::Rc;

/// A background service thread: sleep `period_ms` (jittered), compute
/// `tick_ms`, forever. Models autosave, telemetry, spell-check, indexers.
#[derive(Clone, Debug)]
pub struct Service {
    /// Nominal sleep between ticks.
    pub period_ms: f64,
    /// Relative jitter on the period.
    pub jitter: f64,
    /// CPU work per tick (reference ms).
    pub tick_ms: f64,
    /// Work flavour.
    pub kind: ComputeKind,
    computing: bool,
}

impl Service {
    /// Creates a service with 10 % period jitter.
    pub fn new(period_ms: f64, tick_ms: f64, kind: ComputeKind) -> Self {
        Service {
            period_ms,
            jitter: 0.1,
            tick_ms,
            kind,
            computing: false,
        }
    }
}

impl ThreadProgram for Service {
    fn next(&mut self, ctx: &mut ThreadCtx<'_>) -> Action {
        if self.computing {
            self.computing = false;
            Action::Compute(Work::busy_ms(self.tick_ms).with_kind(self.kind))
        } else {
            self.computing = true;
            let d = ctx
                .rng()
                .jitter(SimDuration::from_millis_f64(self.period_ms), self.jitter);
            Action::Sleep(d)
        }
    }
}

/// A finite worker: computes `total_ms` in `seg_ms` chunks, signals `done`
/// once, then exits. The chunking gives the scheduler preemption points.
#[derive(Clone, Debug)]
pub struct FiniteWorker {
    remaining_ms: f64,
    seg_ms: f64,
    kind: ComputeKind,
    done: Option<EventId>,
    signalled: bool,
}

impl FiniteWorker {
    /// Creates a worker that signals `done` when its budget is exhausted.
    ///
    /// # Panics
    /// Panics if `seg_ms` is not positive.
    pub fn new(total_ms: f64, seg_ms: f64, kind: ComputeKind, done: Option<EventId>) -> Self {
        assert!(seg_ms > 0.0, "segment must be positive");
        FiniteWorker {
            remaining_ms: total_ms.max(0.0),
            seg_ms,
            kind,
            done,
            signalled: false,
        }
    }
}

impl ThreadProgram for FiniteWorker {
    fn next(&mut self, ctx: &mut ThreadCtx<'_>) -> Action {
        if self.remaining_ms <= 0.0 {
            if !self.signalled {
                self.signalled = true;
                if let Some(done) = self.done {
                    ctx.signal(done);
                }
            }
            return Action::Exit;
        }
        let chunk = self.remaining_ms.min(self.seg_ms);
        self.remaining_ms -= chunk;
        Action::Compute(Work::busy_ms(chunk).with_kind(self.kind))
    }
}

/// Join handle for a fork-join burst: the orchestrator issues one
/// [`Action::WaitEvent`] per worker.
#[derive(Clone, Copy, Debug)]
pub struct Join {
    /// Event each worker signals once.
    pub event: EventId,
    /// Workers not yet joined.
    pub remaining: u32,
}

impl Join {
    /// The next wait action, or `None` once all workers are joined.
    pub fn next_wait(&mut self) -> Option<Action> {
        if self.remaining == 0 {
            None
        } else {
            self.remaining -= 1;
            Some(Action::WaitEvent(self.event))
        }
    }
}

/// Spawns `n` sibling workers of `per_thread_ms` each and returns the join
/// handle — the "filter render" / "software render" fork-join pattern.
pub fn spawn_burst(
    ctx: &mut ThreadCtx<'_>,
    n: u32,
    per_thread_ms: f64,
    seg_ms: f64,
    kind: ComputeKind,
    label: &str,
) -> Join {
    let event = ctx.create_event();
    for i in 0..n {
        ctx.spawn_sibling(
            &format!("{label}-{i}"),
            Box::new(FiniteWorker::new(per_thread_ms, seg_ms, kind, Some(event))),
        );
    }
    Join {
        event,
        remaining: n,
    }
}

/// Optional GPU side-effect a [`Stage`] performs per item.
#[derive(Clone, Copy, Debug)]
pub struct StageGpu {
    /// Hardware queue index on GPU 0.
    pub queue: usize,
    /// Packet kind.
    pub kind: PacketKind,
    /// Packet cost.
    pub gflop: f64,
    /// Whether to block until the packet completes.
    pub wait: bool,
}

/// A pipeline stage: wait for an item on `input`, compute `work_ms`, perform
/// the optional GPU side-effect, optionally present a frame, signal
/// `output`. Media players and transcoders chain these.
pub struct Stage {
    input: EventId,
    output: Option<EventId>,
    /// CPU work per item (reference ms).
    pub work_ms: f64,
    /// Relative jitter on the work.
    pub jitter: f64,
    /// Work flavour.
    pub kind: ComputeKind,
    /// GPU side-effect per item.
    pub gpu: Option<StageGpu>,
    /// Present a frame per item (drives FPS/transcode-rate accounting).
    pub present: bool,
    /// Units signalled on `output` per item (fan-out to several consumers,
    /// e.g. VLC's slice-parallel decoders).
    pub output_signals: u64,
    /// Scheduling class applied when the stage first runs.
    pub priority: Option<machine::Priority>,
    /// Set by the producer when no more items will come: the stage's next
    /// wake exits the thread instead of taking an item.
    stop: Option<Rc<Cell<bool>>>,
    phase: StagePhase,
}

enum StagePhase {
    Waiting,
    Arrived,
    Computed,
    GpuWait,
}

impl Stage {
    /// Creates a stage between two events (`output` of `None` = sink).
    pub fn new(input: EventId, output: Option<EventId>, work_ms: f64, kind: ComputeKind) -> Self {
        Stage {
            input,
            output,
            work_ms,
            jitter: 0.08,
            kind,
            gpu: None,
            present: false,
            output_signals: 1,
            priority: None,
            stop: None,
            phase: StagePhase::Waiting,
        }
    }

    /// Runs the stage in a scheduling class (builder style) — e.g.
    /// background encoders behind an interactive app (§VII).
    pub fn with_priority(mut self, priority: machine::Priority) -> Self {
        self.priority = Some(priority);
        self
    }

    /// Adds a GPU side-effect per item (builder style).
    pub fn with_gpu(mut self, gpu: StageGpu) -> Self {
        self.gpu = Some(gpu);
        self
    }

    /// Presents a frame per item (builder style).
    pub fn with_present(mut self) -> Self {
        self.present = true;
        self
    }

    /// Exits on the first wake after `stop` is set (builder style).
    pub fn with_stop(mut self, stop: Rc<Cell<bool>>) -> Self {
        self.stop = Some(stop);
        self
    }

    fn finish_item(&mut self, ctx: &mut ThreadCtx<'_>) {
        if self.present {
            ctx.present_frame();
        }
        if let Some(out) = self.output {
            ctx.signal_n(out, self.output_signals);
        }
    }
}

impl ThreadProgram for Stage {
    fn next(&mut self, ctx: &mut ThreadCtx<'_>) -> Action {
        if let Some(priority) = self.priority.take() {
            ctx.set_priority(priority);
        }
        loop {
            match self.phase {
                StagePhase::Waiting => {
                    self.phase = StagePhase::Arrived;
                    return Action::WaitEvent(self.input);
                }
                StagePhase::Arrived => {
                    if self.stop.as_ref().is_some_and(|stop| stop.get()) {
                        return Action::Exit;
                    }
                    // Item received: compute first; effects follow.
                    let ms = ctx.rng().normal(self.work_ms, self.work_ms * self.jitter);
                    let work = Work::busy_ms(ms.max(0.01)).with_kind(self.kind);
                    self.phase = StagePhase::Computed;
                    return Action::Compute(work);
                }
                StagePhase::Computed => match self.gpu {
                    Some(g) if g.wait => {
                        let sub = ctx.submit_gpu(0, g.queue, g.kind, g.gflop);
                        self.phase = StagePhase::GpuWait;
                        return Action::WaitGpu(sub);
                    }
                    Some(g) => {
                        ctx.submit_gpu(0, g.queue, g.kind, g.gflop);
                        self.finish_item(ctx);
                        self.phase = StagePhase::Waiting;
                    }
                    None => {
                        self.finish_item(ctx);
                        self.phase = StagePhase::Waiting;
                    }
                },
                StagePhase::GpuWait => {
                    self.finish_item(ctx);
                    self.phase = StagePhase::Waiting;
                }
            }
        }
    }
}

/// Signals `out` every `period` — a vsync/decode clock. Stops after `count`
/// ticks if given, else runs forever.
#[derive(Clone, Debug)]
pub struct Ticker {
    /// Tick period.
    pub period: SimDuration,
    /// Event signalled per tick.
    pub out: EventId,
    /// Remaining ticks (`None` = unbounded).
    pub count: Option<u64>,
    fired: bool,
}

impl Ticker {
    /// An unbounded ticker.
    pub fn new(period: SimDuration, out: EventId) -> Self {
        Ticker {
            period,
            out,
            count: None,
            fired: false,
        }
    }
}

impl ThreadProgram for Ticker {
    fn next(&mut self, ctx: &mut ThreadCtx<'_>) -> Action {
        if self.fired {
            ctx.signal(self.out);
        }
        if let Some(c) = &mut self.count {
            if *c == 0 {
                return Action::Exit;
            }
            *c -= 1;
        }
        self.fired = true;
        Action::Sleep(self.period)
    }
}

/// A GPU pump: keeps a hardware queue fed with packets — the miner inner
/// loop. `depth` > 1 double-buffers so the queue never drains.
pub struct GpuPump {
    /// Hardware queue on GPU 0.
    pub queue: usize,
    /// Packet kind.
    pub kind: PacketKind,
    /// Packet cost.
    pub packet_gflop: f64,
    /// CPU work between completions (share validation, job fetch).
    pub cpu_ms: f64,
    /// CPU work flavour.
    pub cpu_kind: ComputeKind,
    /// Number of packets kept in flight.
    pub depth: usize,
    inflight: VecDeque<machine::SubmissionId>,
    primed: bool,
    cpu_pending: bool,
}

impl GpuPump {
    /// Creates a pump keeping `depth` packets in flight.
    ///
    /// # Panics
    /// Panics if `depth` is zero.
    pub fn new(queue: usize, kind: PacketKind, packet_gflop: f64, depth: usize) -> Self {
        assert!(depth >= 1, "pump depth must be at least 1");
        GpuPump {
            queue,
            kind,
            packet_gflop,
            cpu_ms: 0.0,
            cpu_kind: ComputeKind::Scalar,
            depth,
            inflight: VecDeque::new(),
            primed: false,
            cpu_pending: false,
        }
    }

    /// Adds CPU work between packet completions (builder style).
    pub fn with_cpu(mut self, cpu_ms: f64, kind: ComputeKind) -> Self {
        self.cpu_ms = cpu_ms;
        self.cpu_kind = kind;
        self
    }
}

impl ThreadProgram for GpuPump {
    fn next(&mut self, ctx: &mut ThreadCtx<'_>) -> Action {
        if !self.primed {
            self.primed = true;
            for _ in 0..self.depth {
                let sub = ctx.submit_gpu(0, self.queue, self.kind, self.packet_gflop);
                self.inflight.push_back(sub);
            }
        } else if self.cpu_pending {
            // CPU work done; refill the queue.
            self.cpu_pending = false;
            let sub = ctx.submit_gpu(0, self.queue, self.kind, self.packet_gflop);
            self.inflight.push_back(sub);
        } else {
            // A packet completed.
            if self.cpu_ms > 0.0 {
                self.cpu_pending = true;
                let ms = ctx.rng().normal(self.cpu_ms, self.cpu_ms * 0.1).max(0.01);
                return Action::Compute(Work::busy_ms(ms).with_kind(self.cpu_kind));
            }
            let sub = ctx.submit_gpu(0, self.queue, self.kind, self.packet_gflop);
            self.inflight.push_back(sub);
        }
        let oldest = self.inflight.pop_front().expect("pump always has inflight");
        Action::WaitGpu(oldest)
    }
}

/// Per-input callback of a [`UiThread`]: returns extra actions to perform
/// after the base handling cost.
pub type InputHandler = Box<dyn FnMut(&InputAction, &mut ThreadCtx<'_>) -> Vec<Action>>;

/// A scripted UI thread: waits on an [`InputChannel`], charges the action's
/// base handling cost, then performs whatever extra actions the handler
/// queues (fork-join renders, GPU submits, follow-up computes).
pub struct UiThread {
    channel: InputChannel,
    /// Handler invoked per input action; returns extra actions to perform
    /// after the base cost. It may also use the ctx directly (spawn, GPU).
    pub handler: InputHandler,
    pending: VecDeque<Action>,
    waiting: bool,
    /// Set when no more input will come: a wake that finds the channel
    /// empty exits the thread instead of waiting again.
    stop: Option<Rc<Cell<bool>>>,
}

impl UiThread {
    /// Creates a UI thread with a no-op handler.
    pub fn new(channel: InputChannel) -> Self {
        UiThread {
            channel,
            handler: Box::new(|_, _| Vec::new()),
            pending: VecDeque::new(),
            waiting: false,
            stop: None,
        }
    }

    /// Exits on the first wake after `stop` is set that finds no input
    /// left (builder style). Whoever sets `stop` signals the channel's
    /// event once, so a parked thread sees it.
    pub fn with_stop(mut self, stop: Rc<Cell<bool>>) -> Self {
        self.stop = Some(stop);
        self
    }

    /// Sets the handler (builder style).
    pub fn with_handler(
        mut self,
        handler: impl FnMut(&InputAction, &mut ThreadCtx<'_>) -> Vec<Action> + 'static,
    ) -> Self {
        self.handler = Box::new(handler);
        self
    }
}

impl ThreadProgram for UiThread {
    fn next(&mut self, ctx: &mut ThreadCtx<'_>) -> Action {
        if let Some(a) = self.pending.pop_front() {
            return a;
        }
        if self.waiting {
            self.waiting = false;
            // Woken by the dispatcher: drain one action.
            if let Some(action) = self.channel.pop() {
                let base = Work::busy_ms(action.ui_cost_ms());
                let extras = (self.handler)(&action, ctx);
                self.pending.extend(extras);
                return Action::Compute(base);
            }
            if self.stop.as_ref().is_some_and(|stop| stop.get()) {
                return Action::Exit;
            }
        }
        self.waiting = true;
        Action::WaitEvent(self.channel.event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use etwtrace::analysis;
    use machine::{Machine, MachineConfig};

    fn rig() -> Machine {
        Machine::new(MachineConfig::study_rig(12, true))
    }

    #[test]
    fn finite_worker_signals_once() {
        let mut m = rig();
        let pid = m.add_process("w.exe");
        let done = m.create_event();
        m.spawn(
            pid,
            "w",
            Box::new(FiniteWorker::new(
                10.0,
                2.0,
                ComputeKind::Scalar,
                Some(done),
            )),
        );
        let counter: std::rc::Rc<std::cell::Cell<u32>> = Default::default();
        let c2 = counter.clone();
        let mut waits = 0;
        m.spawn(
            pid,
            "j",
            Box::new(move |_: &mut ThreadCtx<'_>| {
                waits += 1;
                if waits == 1 {
                    Action::WaitEvent(done)
                } else {
                    c2.set(c2.get() + 1);
                    Action::Exit
                }
            }),
        );
        m.run_for(SimDuration::from_millis(100));
        assert_eq!(counter.get(), 1);
    }

    #[test]
    fn burst_reaches_requested_concurrency() {
        let mut m = rig();
        let pid = m.add_process("burst.exe");
        let mut phase = 0;
        let mut join: Option<Join> = None;
        m.spawn(
            pid,
            "orchestrator",
            Box::new(move |ctx: &mut ThreadCtx<'_>| {
                phase += 1;
                if phase == 1 {
                    join = Some(spawn_burst(ctx, 12, 20.0, 5.0, ComputeKind::Scalar, "w"));
                }
                match join.as_mut().and_then(|j| j.next_wait()) {
                    Some(a) => a,
                    None => Action::Exit,
                }
            }),
        );
        m.run_for(SimDuration::from_millis(100));
        let trace = m.into_trace();
        let filter = trace.pids_by_name("burst");
        let prof = analysis::concurrency(&trace, &filter);
        assert_eq!(prof.max_concurrency(), 12);
    }

    #[test]
    fn a_counted_ticker_fires_exactly_count_ticks() {
        let mut m = rig();
        let pid = m.add_process("tick.exe");
        let tick = m.create_event();
        let mut ticker = Ticker::new(SimDuration::from_millis(10), tick);
        ticker.count = Some(3);
        m.spawn(pid, "clock", Box::new(ticker));
        let ticks: std::rc::Rc<std::cell::Cell<u32>> = Default::default();
        let seen = ticks.clone();
        let mut waited = false;
        m.spawn(
            pid,
            "count",
            Box::new(move |_: &mut ThreadCtx<'_>| {
                if std::mem::replace(&mut waited, true) {
                    seen.set(seen.get() + 1);
                }
                Action::WaitEvent(tick)
            }),
        );
        m.run_for(SimDuration::from_millis(100));
        assert_eq!(ticks.get(), 3);
    }

    #[test]
    fn ticker_drives_stage_pipeline() {
        let mut m = rig();
        let pid = m.add_process("pipe.exe");
        let tick = m.create_event();
        let mid = m.create_event();
        m.spawn(
            pid,
            "ticker",
            Box::new(Ticker::new(SimDuration::from_millis(10), tick)),
        );
        m.spawn(
            pid,
            "decode",
            Box::new(Stage::new(tick, Some(mid), 2.0, ComputeKind::Vector)),
        );
        m.spawn(
            pid,
            "render",
            Box::new(Stage::new(mid, None, 1.0, ComputeKind::Mixed).with_present()),
        );
        m.run_for(SimDuration::from_secs(1));
        let trace = m.into_trace();
        let frames = analysis::fps_series(&trace, Some(pid.0), SimDuration::from_millis(500));
        // ~100 items/s through both stages.
        for (_, v) in frames.iter() {
            assert!((v - 100.0).abs() < 10.0, "fps {v}");
        }
    }

    #[test]
    fn gpu_pump_keeps_device_busy() {
        let mut m = rig();
        let pid = m.add_process("pump.exe");
        let gf = m.gpu_spec(0).peak_gflops() * 0.02; // 20 ms packets
        m.spawn(
            pid,
            "pump",
            Box::new(GpuPump::new(0, PacketKind::Sha256, gf, 2)),
        );
        m.run_for(SimDuration::from_secs(2));
        let trace = m.into_trace();
        let filter = trace.pids_by_name("pump");
        let util = analysis::gpu_utilization(&trace, &filter, Some(0));
        assert!(util.busy_frac > 0.98, "{util:?}");
    }

    #[test]
    fn single_buffer_pump_with_cpu_gap_leaves_bubbles() {
        let mut m = rig();
        let pid = m.add_process("gappy.exe");
        let gf = m.gpu_spec(0).peak_gflops() * 0.02;
        m.spawn(
            pid,
            "pump",
            Box::new(GpuPump::new(0, PacketKind::Sha256, gf, 1).with_cpu(1.0, ComputeKind::Scalar)),
        );
        m.run_for(SimDuration::from_secs(2));
        let trace = m.into_trace();
        let filter = trace.pids_by_name("gappy");
        let util = analysis::gpu_utilization(&trace, &filter, Some(0));
        assert!(util.busy_frac < 0.99, "{util:?}");
        assert!(util.busy_frac > 0.90, "{util:?}");
    }

    #[test]
    fn service_ticks_periodically() {
        let mut m = rig();
        let pid = m.add_process("svc.exe");
        m.spawn(
            pid,
            "svc",
            Box::new(Service::new(50.0, 1.0, ComputeKind::Scalar)),
        );
        m.run_for(SimDuration::from_secs(1));
        let trace = m.into_trace();
        let filter = trace.pids_by_name("svc");
        let prof = analysis::concurrency(&trace, &filter);
        // ~20 ticks of ~0.8ms (turbo) in 1s → c1 ≈ 1.6%.
        let c1 = prof.fractions()[1];
        assert!((0.005..0.05).contains(&c1), "c1 {c1}");
    }
}
