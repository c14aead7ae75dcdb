//! Trace event model and the trace log container.

use simcore::SimTime;
use std::collections::{BTreeMap, BTreeSet};

/// Identifies a thread within the trace: `(process id, thread id)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ThreadKey {
    /// Owning process.
    pub pid: u64,
    /// Thread within the process.
    pub tid: u64,
}

/// Tids below this bound find their slot in [`ThreadTable`]'s flat array.
const DIRECT_TIDS: usize = 1 << 16;

/// Dense slots for the threads of one trace, numbered `0, 1, …` in
/// first-sight order, so an analyser keeps its per-thread state in `Vec`s
/// indexed by slot and looks each key mention up once.
///
/// A key finds its slot in O(1) through an array indexed by tid and checked
/// against the pid: simulator and `synth` tids are small and dense, and the
/// array grows only to the largest tid seen. A tid at or past
/// [`DIRECT_TIDS`], or a second pid on a tid whose entry is already taken,
/// falls back to an ordered map. Slot order is first-sight order, so every
/// report an analyser builds at finish time walks
/// [`ThreadTable::in_key_order`] instead.
#[derive(Debug, Default)]
pub(crate) struct ThreadTable {
    /// `direct[tid]`: the pid that took the tid's entry, and its slot.
    direct: Vec<Option<(u64, usize)>>,
    /// Threads that could not take a direct entry.
    spill: BTreeMap<ThreadKey, usize>,
    /// Each slot's key.
    keys: Vec<ThreadKey>,
}

impl ThreadTable {
    /// `key`'s slot, if the table has seen it.
    pub(crate) fn get(&self, key: ThreadKey) -> Option<usize> {
        let direct = usize::try_from(key.tid)
            .ok()
            .and_then(|tid| self.direct.get(tid));
        match direct {
            Some(&Some((pid, slot))) if pid == key.pid => Some(slot),
            _ => self.spill.get(&key).copied(),
        }
    }

    /// `key`'s slot, taking the next one on first sight.
    pub(crate) fn slot(&mut self, key: ThreadKey) -> usize {
        if let Some(slot) = self.get(key) {
            return slot;
        }
        let slot = self.keys.len();
        self.keys.push(key);
        let tid = usize::try_from(key.tid)
            .ok()
            .filter(|&tid| tid < DIRECT_TIDS);
        if let Some(tid) = tid {
            if self.direct.len() <= tid {
                self.direct.resize(tid + 1, None);
            }
            if let Some(entry @ None) = self.direct.get_mut(tid) {
                *entry = Some((key.pid, slot));
                return slot;
            }
        }
        self.spill.insert(key, slot);
        slot
    }

    /// Number of threads seen.
    pub(crate) fn len(&self) -> usize {
        self.keys.len()
    }

    /// Every `(key, slot)` in ascending key order.
    pub(crate) fn in_key_order(&self) -> Vec<(ThreadKey, usize)> {
        let mut order: Vec<(ThreadKey, usize)> = self.keys.iter().copied().zip(0..).collect();
        order.sort_unstable();
        order
    }
}

/// One record in the event trace log.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// A process came into existence (carries its image name).
    ProcessStart {
        /// Event timestamp.
        at: SimTime,
        /// New process id.
        pid: u64,
        /// Image name, e.g. `"photoshop.exe"`.
        name: String,
    },
    /// A thread was created.
    ThreadStart {
        /// Event timestamp.
        at: SimTime,
        /// The new thread.
        key: ThreadKey,
        /// Thread name for debugging.
        name: String,
    },
    /// A thread exited.
    ThreadEnd {
        /// Event timestamp.
        at: SimTime,
        /// The exiting thread.
        key: ThreadKey,
    },
    /// A context switch on one logical CPU (the `CPU Usage (Precise)` row).
    CSwitch {
        /// Switch-in time.
        at: SimTime,
        /// Logical CPU index.
        cpu: usize,
        /// Thread switched out (`None` = CPU was idle).
        old: Option<ThreadKey>,
        /// Thread switched in (`None` = CPU goes idle).
        new: Option<ThreadKey>,
        /// When the incoming thread became ready (the "Ready Time" column).
        ready_since: Option<SimTime>,
    },
    /// A GPU work packet began executing (the `GPU Utilization (FM)` row).
    GpuStart {
        /// Start-of-execution time.
        at: SimTime,
        /// GPU device index.
        gpu: usize,
        /// Engine within the device (queue index; `u32::MAX` = video encoder).
        engine: u32,
        /// Packet id.
        packet: u64,
        /// Submitting process.
        pid: u64,
    },
    /// A GPU work packet finished executing.
    GpuEnd {
        /// Finish time.
        at: SimTime,
        /// GPU device index.
        gpu: usize,
        /// Engine within the device.
        engine: u32,
        /// Packet id.
        packet: u64,
        /// Submitting process.
        pid: u64,
    },
    /// A frame was presented to the display / headset (drives FPS analysis).
    Frame {
        /// Present time.
        at: SimTime,
        /// Presenting process.
        pid: u64,
    },
    /// Free-form annotation (phase boundaries, script steps).
    Marker {
        /// Event timestamp.
        at: SimTime,
        /// Label text.
        label: String,
    },
    /// A thread stopped making progress, with the reason — the wait-state
    /// channel of the paper's ETW traces that manual inspection reads to
    /// explain a low TLP. Emitted when the thread leaves the CPU for a
    /// blocking reason, or when the scheduler preempts it.
    WaitBegin {
        /// Event timestamp.
        at: SimTime,
        /// The waiting thread.
        key: ThreadKey,
        /// Why the thread is not running.
        reason: WaitReason,
    },
    /// A blocking wait ended: the thread is runnable again. `waker` names
    /// the thread whose signal released it, when one is known (event
    /// signals); timer and GPU wakes carry `None`.
    WaitEnd {
        /// Event timestamp.
        at: SimTime,
        /// The formerly waiting thread.
        key: ThreadKey,
        /// The reason the wait began.
        reason: WaitReason,
        /// The signalling thread, if the wake was another thread's doing.
        waker: Option<ThreadKey>,
    },
    /// A thread queued a GPU work packet — the edge that ties CPU timeline
    /// to GPU timeline in the wait-for graph.
    GpuSubmit {
        /// Submission time.
        at: SimTime,
        /// Submitting thread.
        key: ThreadKey,
        /// GPU device index.
        gpu: usize,
        /// Packet id.
        packet: u64,
    },
}

/// Why a thread is off the CPU (or runnable but not running), carried by
/// [`TraceEvent::WaitBegin`] / [`TraceEvent::WaitEnd`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum WaitReason {
    /// Ready to run but preempted at a quantum expiry.
    Preempted,
    /// Voluntarily yielded the CPU (still runnable).
    Yield,
    /// Sleeping on a timer.
    Sleep,
    /// Blocked on a kernel event (counting semaphore).
    Event {
        /// The event's id.
        id: u64,
    },
    /// Blocked on a previously submitted GPU packet.
    Gpu {
        /// GPU device index.
        gpu: u32,
        /// Packet id.
        packet: u64,
    },
}

impl WaitReason {
    /// True for reasons where the thread is runnable the whole time
    /// (preemption, yield) rather than blocked.
    pub fn is_runnable(&self) -> bool {
        matches!(self, WaitReason::Preempted | WaitReason::Yield)
    }

    /// Short category label — the shared vocabulary of every analysis that
    /// buckets waits (blame, critical path, verifier diagnostics).
    pub fn label(&self) -> &'static str {
        match self {
            WaitReason::Preempted => "preempted",
            WaitReason::Yield => "yield",
            WaitReason::Sleep => "sleep",
            WaitReason::Event { .. } => "event",
            WaitReason::Gpu { .. } => "gpu",
        }
    }

    /// Human-readable description including the waited-on object's identity
    /// (`"event 7"`, `"gpu 0 packet 5"`), used verbatim in diagnostics.
    pub fn describe(&self) -> String {
        match *self {
            WaitReason::Event { id } => format!("event {id}"),
            WaitReason::Gpu { gpu, packet } => format!("gpu {gpu} packet {packet}"),
            _ => self.label().to_string(),
        }
    }

    /// The kernel event id, for event waits.
    pub fn event_id(&self) -> Option<u64> {
        match *self {
            WaitReason::Event { id } => Some(id),
            _ => None,
        }
    }

    /// The `(gpu, packet)` pair, for GPU waits.
    pub fn gpu_packet(&self) -> Option<(u32, u64)> {
        match *self {
            WaitReason::Gpu { gpu, packet } => Some((gpu, packet)),
            _ => None,
        }
    }
}

impl TraceEvent {
    /// The event's timestamp.
    pub fn at(&self) -> SimTime {
        match self {
            TraceEvent::ProcessStart { at, .. }
            | TraceEvent::ThreadStart { at, .. }
            | TraceEvent::ThreadEnd { at, .. }
            | TraceEvent::CSwitch { at, .. }
            | TraceEvent::GpuStart { at, .. }
            | TraceEvent::GpuEnd { at, .. }
            | TraceEvent::Frame { at, .. }
            | TraceEvent::Marker { at, .. }
            | TraceEvent::WaitBegin { at, .. }
            | TraceEvent::WaitEnd { at, .. }
            | TraceEvent::GpuSubmit { at, .. } => *at,
        }
    }

    /// The record-type name, as printed by `tracetool info`.
    pub fn kind_name(&self) -> &'static str {
        match self {
            TraceEvent::ProcessStart { .. } => "ProcessStart",
            TraceEvent::ThreadStart { .. } => "ThreadStart",
            TraceEvent::ThreadEnd { .. } => "ThreadEnd",
            TraceEvent::CSwitch { .. } => "CSwitch",
            TraceEvent::GpuStart { .. } => "GpuStart",
            TraceEvent::GpuEnd { .. } => "GpuEnd",
            TraceEvent::Frame { .. } => "Frame",
            TraceEvent::Marker { .. } => "Marker",
            TraceEvent::WaitBegin { .. } => "WaitBegin",
            TraceEvent::WaitEnd { .. } => "WaitEnd",
            TraceEvent::GpuSubmit { .. } => "GpuSubmit",
        }
    }
}

/// A set of process ids used to filter analyses to one application.
///
/// ```
/// use etwtrace::PidSet;
/// let set: PidSet = [3u64, 5].into_iter().collect();
/// assert!(set.contains(3));
/// assert!(!set.contains(4));
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PidSet(BTreeSet<u64>);

impl PidSet {
    /// Empty set (matches nothing).
    pub fn new() -> Self {
        PidSet(BTreeSet::new())
    }

    /// Adds a process id.
    pub fn insert(&mut self, pid: u64) {
        self.0.insert(pid);
    }

    /// Membership test.
    pub fn contains(&self, pid: u64) -> bool {
        self.0.contains(&pid)
    }

    /// Number of processes in the set.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if the set matches nothing.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Iterates the pids in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.0.iter().copied()
    }
}

impl FromIterator<u64> for PidSet {
    fn from_iter<T: IntoIterator<Item = u64>>(iter: T) -> Self {
        PidSet(iter.into_iter().collect())
    }
}

/// Incremental trace writer used by the machine's event loop.
///
/// Events must be appended in non-decreasing time order (the single-threaded
/// event loop guarantees this); [`TraceBuilder::finish`] seals the log.
#[derive(Debug, Default)]
pub struct TraceBuilder {
    events: Vec<TraceEvent>,
    n_logical_cpus: usize,
    last_at: SimTime,
}

impl TraceBuilder {
    /// Creates a builder for a machine with `n_logical_cpus`.
    pub fn new(n_logical_cpus: usize) -> Self {
        Self::with_capacity(n_logical_cpus, 0)
    }

    /// Creates a builder with room for `events` events, for a decoder that
    /// knows the count up front.
    pub(crate) fn with_capacity(n_logical_cpus: usize, events: usize) -> Self {
        TraceBuilder {
            events: Vec::with_capacity(events),
            n_logical_cpus,
            last_at: SimTime::ZERO,
        }
    }

    /// Appends an event.
    ///
    /// # Panics
    /// Panics if the event's timestamp precedes the previous event's.
    pub fn push(&mut self, event: TraceEvent) {
        let at = event.at();
        assert!(
            at >= self.last_at,
            "trace event out of order: {at} < {}",
            self.last_at
        );
        self.last_at = at;
        self.events.push(event);
    }

    /// Appends an event read from a trace file. The record decoder has
    /// already refused a record that precedes the one before it, and a
    /// context switch on a CPU at or past the header's count, the count
    /// this builder was made with.
    pub(crate) fn push_decoded(&mut self, event: TraceEvent) {
        self.events.push(event);
    }

    /// Number of events so far.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True if no events have been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Seals the log, recording the observation window `[start, end]`.
    ///
    /// A sealed trace holds exactly its events: the growth slack of the
    /// pushes is trimmed here. Over the standard Table II sweep that is
    /// 176.6 MiB for 2,314,249 events, where the untrimmed vectors held
    /// 3,744,768 slots (285.7 MiB).
    pub fn finish(mut self, start: SimTime, end: SimTime) -> EtlTrace {
        assert!(end >= start, "trace window inverted");
        self.events.shrink_to_fit();
        EtlTrace {
            events: self.events,
            n_logical_cpus: self.n_logical_cpus,
            start,
            end,
        }
    }
}

/// A sealed event trace log (the `.etl` file of the paper's Fig. 1).
#[derive(Clone, Debug, PartialEq)]
pub struct EtlTrace {
    events: Vec<TraceEvent>,
    n_logical_cpus: usize,
    start: SimTime,
    end: SimTime,
}

impl EtlTrace {
    /// The recorded events in time order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Number of logical CPUs the trace was recorded on.
    pub fn n_logical_cpus(&self) -> usize {
        self.n_logical_cpus
    }

    /// Start of the observation window.
    pub fn start(&self) -> SimTime {
        self.start
    }

    /// End of the observation window.
    pub fn end(&self) -> SimTime {
        self.end
    }

    /// Wall-clock length of the observation window.
    pub fn window(&self) -> simcore::SimDuration {
        self.end - self.start
    }

    /// Event slots the trace's vector holds, filled or not.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.events.capacity()
    }

    /// The pids whose image name starts with `prefix` (case-insensitive) —
    /// how experiments map "the application" to its process set.
    pub fn pids_by_name(&self, prefix: &str) -> PidSet {
        let prefix = prefix.to_ascii_lowercase();
        self.events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::ProcessStart { pid, name, .. }
                    if name.to_ascii_lowercase().starts_with(&prefix) =>
                {
                    Some(*pid)
                }
                _ => None,
            })
            .collect()
    }

    /// Every pid that ever started a process in the trace.
    pub fn all_pids(&self) -> PidSet {
        self.events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::ProcessStart { pid, .. } => Some(*pid),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_accepts_ordered_events() {
        let mut b = TraceBuilder::new(4);
        b.push(TraceEvent::Marker {
            at: SimTime::from_nanos(1),
            label: "a".into(),
        });
        b.push(TraceEvent::Marker {
            at: SimTime::from_nanos(1),
            label: "b".into(),
        });
        b.push(TraceEvent::Marker {
            at: SimTime::from_nanos(2),
            label: "c".into(),
        });
        let t = b.finish(SimTime::ZERO, SimTime::from_nanos(10));
        assert_eq!(t.events().len(), 3);
        assert_eq!(t.n_logical_cpus(), 4);
        assert_eq!(t.window().as_nanos(), 10);
    }

    #[test]
    fn a_sealed_trace_holds_exactly_its_events() {
        // One push past a power of two leaves the doubled vector nearly
        // half empty until `finish` trims it.
        let mut b = TraceBuilder::new(1);
        for i in 0..=64 {
            b.push(TraceEvent::Frame {
                at: SimTime::from_nanos(i),
                pid: 1,
            });
        }
        let t = b.finish(SimTime::ZERO, SimTime::from_nanos(64));
        assert_eq!(t.events().len(), 65);
        assert_eq!(t.capacity(), 65);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn builder_rejects_time_travel() {
        let mut b = TraceBuilder::new(1);
        b.push(TraceEvent::Marker {
            at: SimTime::from_nanos(5),
            label: "a".into(),
        });
        b.push(TraceEvent::Marker {
            at: SimTime::from_nanos(4),
            label: "b".into(),
        });
    }

    #[test]
    fn wait_reason_helpers_agree() {
        let e = WaitReason::Event { id: 7 };
        let g = WaitReason::Gpu { gpu: 1, packet: 42 };
        assert_eq!(e.label(), "event");
        assert_eq!(e.describe(), "event 7");
        assert_eq!(e.event_id(), Some(7));
        assert_eq!(e.gpu_packet(), None);
        assert_eq!(g.describe(), "gpu 1 packet 42");
        assert_eq!(g.gpu_packet(), Some((1, 42)));
        assert_eq!(g.event_id(), None);
        assert_eq!(WaitReason::Sleep.describe(), "sleep");
        assert_eq!(WaitReason::Preempted.label(), "preempted");
        assert!(WaitReason::Yield.is_runnable());
    }

    #[test]
    fn thread_slots_follow_first_sight_and_reports_follow_key_order() {
        let key = |pid, tid| ThreadKey { pid, tid };
        let mut t = ThreadTable::default();
        // Direct entries, a tid past the array's bound, and a second pid
        // on a tid that is already taken.
        let seen = [key(2, 5), key(1, 7), key(3, 1 << 40), key(1, 5), key(0, 0)];
        for (slot, k) in seen.into_iter().enumerate() {
            assert_eq!(t.get(k), None);
            assert_eq!(t.slot(k), slot);
        }
        for (slot, k) in seen.into_iter().enumerate() {
            assert_eq!(t.get(k), Some(slot));
            assert_eq!(t.slot(k), slot, "a key keeps its slot");
        }
        assert_eq!(t.len(), 5);
        assert_eq!(t.get(key(9, 5)), None, "the pid is checked");
        assert_eq!(t.get(key(3, 7)), None);
        assert_eq!(t.direct.len(), 8, "the array grows to the largest tid");
        assert_eq!(t.spill.len(), 2);
        let order: Vec<(ThreadKey, usize)> = t.in_key_order();
        assert_eq!(
            order,
            [
                (key(0, 0), 4),
                (key(1, 5), 3),
                (key(1, 7), 1),
                (key(2, 5), 0),
                (key(3, 1 << 40), 2)
            ]
        );
    }

    #[test]
    fn pid_lookup_by_name_prefix() {
        let mut b = TraceBuilder::new(1);
        b.push(TraceEvent::ProcessStart {
            at: SimTime::ZERO,
            pid: 10,
            name: "chrome.exe".into(),
        });
        b.push(TraceEvent::ProcessStart {
            at: SimTime::ZERO,
            pid: 11,
            name: "chrome-renderer.exe".into(),
        });
        b.push(TraceEvent::ProcessStart {
            at: SimTime::ZERO,
            pid: 12,
            name: "explorer.exe".into(),
        });
        let t = b.finish(SimTime::ZERO, SimTime::from_nanos(1));
        let set = t.pids_by_name("Chrome");
        assert_eq!(set.len(), 2);
        assert!(set.contains(10) && set.contains(11));
        assert!(!set.contains(12));
        assert_eq!(t.all_pids().len(), 3);
    }
}
