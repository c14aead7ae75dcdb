//! The GPU execution engine: command queues sharing the SM pool, plus a
//! fixed-function video encoder.
//!
//! The device is advanced cooperatively by the machine's event loop:
//! `advance_to(t)` must be called with `t <= next_event_time()`, which makes
//! every packet start/finish land exactly on an event-loop wakeup and keeps
//! the simulation deterministic.

use crate::packet::{Packet, PacketKind};
use crate::spec::GpuSpec;
use simcore::{SimDuration, SimTime};
use simobs::{Counter, LogHistogram, Registry};
use std::collections::VecDeque;

/// Identifier of a submitted packet, unique per device.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PacketId(pub u64);

/// Which engine of the device executed a packet.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum EngineKind {
    /// One of the SM-pool command queues.
    Queue(usize),
    /// The fixed-function video encoder (NVENC-style).
    Nvenc,
}

/// A packet lifecycle notification produced by [`GpuDevice::advance_to`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Completion {
    /// The packet reached the head of its queue and began executing.
    Started {
        /// When execution began.
        at: SimTime,
        /// The packet's id.
        id: PacketId,
        /// The packet itself.
        packet: Packet,
        /// The engine executing it.
        engine: EngineKind,
    },
    /// The packet finished executing.
    Finished {
        /// When execution finished.
        at: SimTime,
        /// The packet's id.
        id: PacketId,
        /// The packet itself.
        packet: Packet,
        /// The engine that executed it.
        engine: EngineKind,
    },
}

#[derive(Clone, Debug)]
struct Running {
    id: PacketId,
    packet: Packet,
    /// Remaining cost: GFLOP for SM queues, 1080p-frame-equivalents for NVENC.
    remaining: f64,
    /// When the packet started executing (for execute-time metrics).
    started_at: SimTime,
}

#[derive(Clone, Debug, Default)]
struct QueueState {
    running: Option<Running>,
    /// Post-packet driver stall: the queue may not start new work until then.
    gap_until: Option<SimTime>,
    /// `(id, packet, submitted_at)` — the timestamp feeds wait-time metrics.
    pending: VecDeque<(PacketId, Packet, SimTime)>,
    metrics: EngineMetrics,
}

/// Per-engine observability state: counts plus log₂-bucketed latency
/// histograms over virtual nanoseconds, so snapshots stay deterministic.
#[derive(Clone, Debug, Default)]
struct EngineMetrics {
    /// Packets ever submitted to this engine.
    submitted: Counter,
    /// Queue occupancy (pending + running) sampled at each submission.
    queue_depth: LogHistogram,
    /// Submission → execution-start wait per packet.
    wait_ns: LogHistogram,
    /// Execution-start → finish time per packet.
    exec_ns: LogHistogram,
    /// Total virtual time the engine spent executing (drives occupancy).
    busy_ns: Counter,
}

impl EngineMetrics {
    fn on_submit(&mut self, occupancy: u64) {
        self.submitted.inc();
        self.queue_depth.observe(occupancy);
    }

    fn on_start(&mut self, waited: SimDuration) {
        self.wait_ns.observe(waited.as_nanos());
    }

    fn on_finish(&mut self, ran: SimDuration) {
        self.exec_ns.observe(ran.as_nanos());
        self.busy_ns.add(ran.as_nanos());
    }

    fn collect(&self, reg: &mut Registry, labels: &[(&str, &str)]) {
        reg.counter("sim_gpu_packets_total", labels, self.submitted.get());
        reg.histogram("sim_gpu_queue_depth", labels, &self.queue_depth);
        reg.histogram("sim_gpu_packet_wait_ns", labels, &self.wait_ns);
        reg.histogram("sim_gpu_packet_exec_ns", labels, &self.exec_ns);
        reg.counter("sim_gpu_busy_ns_total", labels, self.busy_ns.get());
    }
}

/// A discrete GPU executing [`Packet`]s from hardware queues.
///
/// SM queues share the device throughput equally (processor sharing): with
/// `k` busy queues each runs at `peak/k`, scaled by the per-kind architecture
/// efficiency. The NVENC engine runs independently at a fixed frame rate.
///
/// ```
/// use simcore::SimTime;
/// use simgpu::{GpuDevice, Packet, PacketKind, presets};
///
/// let mut gpu = GpuDevice::new(presets::gtx_1080_ti());
/// let mut events = Vec::new();
/// gpu.submit(SimTime::ZERO, 0, Packet::new(PacketKind::Compute, 100.0, 1), &mut events);
/// let done = gpu.next_event_time().unwrap();
/// gpu.advance_to(done, &mut events);
/// assert!(gpu.is_idle());
/// ```
#[derive(Clone, Debug)]
pub struct GpuDevice {
    spec: GpuSpec,
    queues: Vec<QueueState>,
    nvenc: Option<QueueState>,
    now: SimTime,
    next_id: u64,
}

const EPS: f64 = 1e-9;

impl GpuDevice {
    /// Creates an idle device.
    pub fn new(spec: GpuSpec) -> Self {
        let queues = vec![QueueState::default(); spec.hw_queues.max(1)];
        let nvenc = spec.has_nvenc.then(QueueState::default);
        GpuDevice {
            spec,
            queues,
            nvenc,
            now: SimTime::ZERO,
            next_id: 0,
        }
    }

    /// The device's static description.
    pub fn spec(&self) -> &GpuSpec {
        &self.spec
    }

    /// Submits a packet to queue `queue` at time `now`.
    ///
    /// Call [`GpuDevice::advance_to`]`(now, …)` first if time has passed since
    /// the last interaction. Start events (if the queue is empty) are pushed
    /// to `events`.
    ///
    /// # Panics
    /// Panics if `queue` is out of range or `now` precedes device time.
    pub fn submit(
        &mut self,
        now: SimTime,
        queue: usize,
        packet: Packet,
        events: &mut Vec<Completion>,
    ) -> PacketId {
        assert!(queue < self.queues.len(), "queue {queue} out of range");
        assert!(now >= self.now, "submit in the past");
        self.advance_to(now, events);
        let id = self.alloc_id();
        let q = &mut self.queues[queue];
        q.pending.push_back((id, packet, now));
        let occupancy = q.pending.len() as u64 + q.running.is_some() as u64;
        q.metrics.on_submit(occupancy);
        self.try_start(queue, false, events);
        id
    }

    /// Submits a video-encode job of `frames_1080p` frame-equivalents to the
    /// fixed-function encoder.
    ///
    /// # Panics
    /// Panics if the device has no encoder (check [`GpuSpec::has_nvenc`]).
    pub fn submit_encode(
        &mut self,
        now: SimTime,
        frames_1080p: f64,
        owner_pid: u64,
        events: &mut Vec<Completion>,
    ) -> PacketId {
        assert!(
            self.nvenc.is_some(),
            "{} has no fixed-function encoder",
            self.spec.name
        );
        assert!(frames_1080p > 0.0, "encode job must be positive");
        self.advance_to(now, events);
        let id = self.alloc_id();
        let packet = Packet::new(PacketKind::VideoDecode, frames_1080p, owner_pid);
        let n = self.nvenc.as_mut().expect("checked above");
        n.pending.push_back((id, packet, now));
        let occupancy = n.pending.len() as u64 + n.running.is_some() as u64;
        n.metrics.on_submit(occupancy);
        self.try_start(usize::MAX, true, events);
        id
    }

    fn alloc_id(&mut self) -> PacketId {
        let id = PacketId(self.next_id);
        self.next_id += 1;
        id
    }

    /// Number of SM queues currently executing a packet.
    pub fn busy_queues(&self) -> usize {
        self.queues.iter().filter(|q| q.running.is_some()).count()
    }

    /// True if nothing is running or pending anywhere on the device.
    pub fn is_idle(&self) -> bool {
        let q_idle = self
            .queues
            .iter()
            .all(|q| q.running.is_none() && q.pending.is_empty());
        let n_idle = self
            .nvenc
            .as_ref()
            .map_or(true, |q| q.running.is_none() && q.pending.is_empty());
        q_idle && n_idle
    }

    /// GFLOP/s delivered to one busy queue given `busy` busy queues total.
    fn queue_rate(&self, kind: PacketKind, busy: usize) -> f64 {
        self.spec.effective_gflops(kind) / busy.max(1) as f64
    }

    /// NVENC frame-equivalents per second.
    fn nvenc_rate(&self) -> f64 {
        self.spec.nvenc_fps_1080p
    }

    /// The earliest future time at which device state changes on its own
    /// (packet finishes or a post-packet gap expires), or `None` if idle.
    pub fn next_event_time(&self) -> Option<SimTime> {
        let busy = self.busy_queues();
        let mut next: Option<SimTime> = None;
        let mut consider = |t: SimTime| {
            next = Some(next.map_or(t, |n: SimTime| n.min(t)));
        };
        for q in &self.queues {
            if let Some(r) = &q.running {
                let rate = self.queue_rate(r.packet.kind, busy);
                let secs = (r.remaining / rate).max(0.0);
                // +1 ns biases the wakeup past the true finish instant so
                // nanosecond rounding can never leave a sliver of work.
                consider(
                    self.now
                        .saturating_add(SimDuration::from_secs_f64(secs))
                        .saturating_add(SimDuration::from_nanos(1)),
                );
            } else if let (Some(gap), false) = (q.gap_until, q.pending.is_empty()) {
                if gap > self.now {
                    consider(gap);
                }
            }
        }
        if let Some(n) = &self.nvenc {
            if let Some(r) = &n.running {
                let secs = (r.remaining / self.nvenc_rate()).max(0.0);
                consider(
                    self.now
                        .saturating_add(SimDuration::from_secs_f64(secs))
                        .saturating_add(SimDuration::from_nanos(1)),
                );
            }
        }
        next
    }

    /// Advances device time to `t`, pushing start/finish notifications.
    ///
    /// # Panics
    /// Panics in debug builds if `t` overshoots a pending completion (the
    /// event loop must wake at [`GpuDevice::next_event_time`]).
    pub fn advance_to(&mut self, t: SimTime, events: &mut Vec<Completion>) {
        if t <= self.now {
            return;
        }
        let elapsed = (t - self.now).as_secs_f64();
        let busy = self.busy_queues();
        // Progress SM queues.
        for qi in 0..self.queues.len() {
            if let Some(r) = &mut self.queues[qi].running {
                let rate = self.spec.effective_gflops(r.packet.kind) / busy.max(1) as f64;
                r.remaining -= elapsed * rate;
                debug_assert!(
                    r.remaining > -1.0,
                    "overshot completion on queue {qi}: {}",
                    r.remaining
                );
                if r.remaining <= EPS {
                    let done = self.queues[qi].running.take().expect("checked");
                    self.queues[qi].metrics.on_finish(t - done.started_at);
                    let gap_frac = self.spec.dispatch_gap_frac(done.packet.kind);
                    if gap_frac > 0.0 {
                        let solo_secs =
                            done.packet.gflop / self.spec.effective_gflops(done.packet.kind);
                        self.queues[qi].gap_until = Some(
                            t.saturating_add(SimDuration::from_secs_f64(solo_secs * gap_frac)),
                        );
                    } else {
                        self.queues[qi].gap_until = None;
                    }
                    events.push(Completion::Finished {
                        at: t,
                        id: done.id,
                        packet: done.packet,
                        engine: EngineKind::Queue(qi),
                    });
                }
            }
        }
        // Progress NVENC.
        if let Some(n) = &mut self.nvenc {
            if let Some(r) = &mut n.running {
                r.remaining -= elapsed * self.spec.nvenc_fps_1080p;
                if r.remaining <= EPS {
                    let done = n.running.take().expect("checked");
                    n.metrics.on_finish(t - done.started_at);
                    events.push(Completion::Finished {
                        at: t,
                        id: done.id,
                        packet: done.packet,
                        engine: EngineKind::Nvenc,
                    });
                }
            }
        }
        self.now = t;
        // Start pending work (gaps permitting).
        for qi in 0..self.queues.len() {
            self.try_start(qi, false, events);
        }
        self.try_start(usize::MAX, true, events);
    }

    fn try_start(&mut self, queue: usize, nvenc: bool, events: &mut Vec<Completion>) {
        let now = self.now;
        let (state, engine) = if nvenc {
            match self.nvenc.as_mut() {
                Some(s) => (s, EngineKind::Nvenc),
                None => return,
            }
        } else {
            (&mut self.queues[queue], EngineKind::Queue(queue))
        };
        if state.running.is_some() {
            return;
        }
        if let Some(gap) = state.gap_until {
            if gap > now {
                return;
            }
            state.gap_until = None;
        }
        if let Some((id, packet, submitted_at)) = state.pending.pop_front() {
            state.metrics.on_start(now - submitted_at);
            state.running = Some(Running {
                id,
                packet,
                remaining: packet.gflop,
                started_at: now,
            });
            events.push(Completion::Started {
                at: now,
                id,
                packet,
                engine,
            });
        }
    }

    /// Runs the device until idle, returning all notifications. Convenience
    /// for tests and standalone use (the machine drives it incrementally).
    pub fn drain(&mut self) -> Vec<Completion> {
        let mut events = Vec::new();
        while let Some(t) = self.next_event_time() {
            self.advance_to(t, &mut events);
        }
        events
    }

    /// Current device time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Records this device's per-engine metrics into `reg`.
    ///
    /// Series are labelled `gpu="<index>"` (caller-assigned device index)
    /// and `engine="queue<q>"` / `engine="nvenc"`. NVENC occupancy over a
    /// window is `sim_gpu_busy_ns_total{engine="nvenc"}` divided by the
    /// window length.
    pub fn collect_metrics(&self, gpu: usize, reg: &mut Registry) {
        let gpu_label = gpu.to_string();
        for (qi, q) in self.queues.iter().enumerate() {
            let engine = format!("queue{qi}");
            q.metrics
                .collect(reg, &[("engine", &engine), ("gpu", &gpu_label)]);
        }
        if let Some(n) = &self.nvenc {
            n.metrics
                .collect(reg, &[("engine", "nvenc"), ("gpu", &gpu_label)]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::presets;

    fn finishes(events: &[Completion]) -> Vec<(SimTime, PacketId)> {
        events
            .iter()
            .filter_map(|e| match e {
                Completion::Finished { at, id, .. } => Some((*at, *id)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn single_packet_runtime_matches_throughput() {
        let mut gpu = GpuDevice::new(presets::gtx_1080_ti());
        let mut ev = Vec::new();
        // 1080 Ti peak ≈ 10615.8 GFLOP/s; 10615.8 GFLOP ≈ 1 s.
        let gf = gpu.spec().peak_gflops();
        gpu.submit(
            SimTime::ZERO,
            0,
            Packet::new(PacketKind::Compute, gf, 1),
            &mut ev,
        );
        let t = gpu.next_event_time().unwrap();
        assert!((t.as_secs_f64() - 1.0).abs() < 1e-6, "{t}");
        gpu.advance_to(t, &mut ev);
        assert_eq!(finishes(&ev).len(), 1);
        assert!(gpu.is_idle());
    }

    #[test]
    fn two_queues_share_throughput() {
        let mut gpu = GpuDevice::new(presets::gtx_1080_ti());
        let mut ev = Vec::new();
        let gf = gpu.spec().peak_gflops();
        gpu.submit(
            SimTime::ZERO,
            0,
            Packet::new(PacketKind::Compute, gf, 1),
            &mut ev,
        );
        gpu.submit(
            SimTime::ZERO,
            1,
            Packet::new(PacketKind::Compute, gf, 1),
            &mut ev,
        );
        // Each gets half throughput → both finish at 2 s.
        let t = gpu.next_event_time().unwrap();
        assert!((t.as_secs_f64() - 2.0).abs() < 1e-6, "{t}");
        gpu.advance_to(t, &mut ev);
        assert_eq!(finishes(&ev).len(), 2);
    }

    #[test]
    fn serial_queue_is_fifo() {
        let mut gpu = GpuDevice::new(presets::gtx_1080_ti());
        let mut ev = Vec::new();
        let gf = gpu.spec().peak_gflops();
        let a = gpu.submit(
            SimTime::ZERO,
            0,
            Packet::new(PacketKind::Compute, gf, 1),
            &mut ev,
        );
        let b = gpu.submit(
            SimTime::ZERO,
            0,
            Packet::new(PacketKind::Compute, gf, 1),
            &mut ev,
        );
        let done = gpu.drain();
        let f = finishes(&done);
        assert_eq!(f.len(), 2);
        assert_eq!(f[0].1, a);
        assert_eq!(f[1].1, b);
        assert!((f[1].0.as_secs_f64() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn share_change_mid_flight_is_accounted() {
        let mut gpu = GpuDevice::new(presets::gtx_1080_ti());
        let mut ev = Vec::new();
        let gf = gpu.spec().peak_gflops();
        // One 2-unit packet alone for 1 s, then a second queue joins.
        gpu.submit(
            SimTime::ZERO,
            0,
            Packet::new(PacketKind::Compute, 2.0 * gf, 1),
            &mut ev,
        );
        gpu.advance_to(SimTime::from_nanos(1_000_000_000), &mut ev);
        gpu.submit(
            SimTime::from_nanos(1_000_000_000),
            1,
            Packet::new(PacketKind::Compute, gf, 1),
            &mut ev,
        );
        // Remaining 1 unit at half rate → 2 more seconds.
        let t = gpu.next_event_time().unwrap();
        assert!((t.as_secs_f64() - 3.0).abs() < 1e-6, "{t}");
    }

    #[test]
    fn kepler_ethash_has_dispatch_gaps() {
        let mut gpu = GpuDevice::new(presets::gtx_680());
        let mut ev = Vec::new();
        let rate = gpu.spec().effective_gflops(PacketKind::Ethash);
        // Two packets of 1 s each; the second must start after an 18% gap.
        gpu.submit(
            SimTime::ZERO,
            0,
            Packet::new(PacketKind::Ethash, rate, 1),
            &mut ev,
        );
        gpu.submit(
            SimTime::ZERO,
            0,
            Packet::new(PacketKind::Ethash, rate, 1),
            &mut ev,
        );
        ev.extend(gpu.drain());
        let started: Vec<SimTime> = ev
            .iter()
            .filter_map(|e| match e {
                Completion::Started { at, .. } => Some(*at),
                _ => None,
            })
            .collect();
        assert_eq!(started.len(), 2);
        assert!(
            (started[1].as_secs_f64() - 1.18).abs() < 1e-6,
            "{:?}",
            started
        );
    }

    #[test]
    fn nvenc_runs_independently_of_sm_queues() {
        let mut gpu = GpuDevice::new(presets::gtx_1080_ti());
        let mut ev = Vec::new();
        let gf = gpu.spec().peak_gflops();
        gpu.submit(
            SimTime::ZERO,
            0,
            Packet::new(PacketKind::Compute, gf, 1),
            &mut ev,
        );
        // 600 frames at 600 fps = 1 s, concurrent with the SM packet.
        gpu.submit_encode(SimTime::ZERO, 600.0, 1, &mut ev);
        let done = gpu.drain();
        let f = finishes(&done);
        assert_eq!(f.len(), 2);
        for (at, _) in f {
            assert!((at.as_secs_f64() - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "no fixed-function encoder")]
    fn encode_on_gtx285_panics() {
        let mut gpu = GpuDevice::new(presets::gtx_285());
        let mut ev = Vec::new();
        gpu.submit_encode(SimTime::ZERO, 1.0, 1, &mut ev);
    }

    #[test]
    fn started_precedes_finished_per_packet() {
        let mut gpu = GpuDevice::new(presets::gtx_680());
        let mut ev = Vec::new();
        for i in 0..5 {
            gpu.submit(
                SimTime::ZERO,
                i % 2,
                Packet::new(PacketKind::Graphics3d, 50.0, 1),
                &mut ev,
            );
        }
        ev.extend(gpu.drain());
        use std::collections::HashMap;
        let mut started: HashMap<PacketId, SimTime> = HashMap::new();
        for e in &ev {
            match e {
                Completion::Started { at, id, .. } => {
                    assert!(started.insert(*id, *at).is_none());
                }
                Completion::Finished { at, id, .. } => {
                    let s = started.get(id).expect("finish before start");
                    assert!(at >= s);
                }
            }
        }
    }

    #[test]
    fn metrics_capture_waits_and_busy_time() {
        let mut gpu = GpuDevice::new(presets::gtx_1080_ti());
        let mut ev = Vec::new();
        let gf = gpu.spec().peak_gflops();
        // Two 1-second packets back to back on queue 0: the second waits ~1 s.
        gpu.submit(
            SimTime::ZERO,
            0,
            Packet::new(PacketKind::Compute, gf, 1),
            &mut ev,
        );
        gpu.submit(
            SimTime::ZERO,
            0,
            Packet::new(PacketKind::Compute, gf, 1),
            &mut ev,
        );
        // 600 frames at 600 fps → NVENC busy for ~1 s.
        gpu.submit_encode(SimTime::ZERO, 600.0, 1, &mut ev);
        gpu.drain();

        let mut reg = Registry::new();
        gpu.collect_metrics(3, &mut reg);
        let q0 = [("engine", "queue0"), ("gpu", "3")];
        assert_eq!(reg.counter_value("sim_gpu_packets_total", &q0), Some(2));
        let wait = reg.histogram_value("sim_gpu_packet_wait_ns", &q0).unwrap();
        assert_eq!(wait.count(), 2);
        assert_eq!(wait.min(), 0);
        assert!(wait.max() >= 1_000_000_000, "wait {}", wait.max());
        let exec = reg.histogram_value("sim_gpu_packet_exec_ns", &q0).unwrap();
        assert_eq!(exec.count(), 2);
        let nv = [("engine", "nvenc"), ("gpu", "3")];
        let busy = reg.counter_value("sim_gpu_busy_ns_total", &nv).unwrap();
        assert!(
            (busy as f64 - 1e9).abs() < 1e7,
            "nvenc busy {busy} ns, expected ≈1 s"
        );
        // Queue 1 exists but saw no packets.
        let q1 = [("engine", "queue1"), ("gpu", "3")];
        assert_eq!(reg.counter_value("sim_gpu_packets_total", &q1), Some(0));
    }

    #[test]
    fn mid_card_is_slower_so_busier() {
        // The Fig. 9/10 mechanism: same work takes longer on the 680.
        let work = 1000.0;
        let hi = presets::gtx_1080_ti().effective_gflops(PacketKind::Compute);
        let mid = presets::gtx_680().effective_gflops(PacketKind::Compute);
        assert!(work / mid > 3.0 * (work / hi));
    }
}
