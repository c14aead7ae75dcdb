//! # Hierarchical span tracer and flight recorder for the pipeline itself
//!
//! The reproduction traces *simulated* applications in detail; this module
//! turns the same lens on the toolchain: the thread-pool runner, the
//! memo/store cache tiers, the SETL codecs and every analyzer pass. It is the
//! paper's own lesson applied to our pipeline — a profiler must be
//! demonstrably cheaper than what it profiles (GAPP), and its output should
//! be explorable next to the traces it explains (Traveler/Perfetto).
//!
//! ## Model
//!
//! * A **span** is one timed region with a static `(category, name)` pair,
//!   optional byte/event payload counts, a nesting depth and the recording
//!   thread. Spans are created with [`span`] and closed on drop (RAII).
//! * Each thread owns a fixed-capacity **ring buffer** of the last N spans
//!   it recorded, plus per-`(cat, name)` aggregate [`SpanStat`]s. The ring
//!   is registered globally so a [`snapshot`] (or a crash dump) can collect
//!   every thread's recent history — the **flight recorder**.
//! * A lighter **phase timer** ([`phase_start`]/[`phase_record`]) updates
//!   only the aggregates, skipping the ring slot. The discrete-event loop
//!   uses it for its per-step phases, where a full ring entry per step
//!   would both cost too much and flood the flight recorder. This replaces
//!   the PR-1 `WallProfile` struct — one tracer, two granularities.
//! * Global diagnostic **counters** ([`counter_add`]) tally store/memo/pool
//!   events so they are reachable at panic time without walking the owning
//!   structs.
//!
//! ## Cost and gating
//!
//! Tracing is compiled in but runtime-gated by one [`AtomicBool`]: the
//! disabled path of [`span`] is a relaxed load and a branch — no clock read,
//! no allocation, no lock. The enabled hot path is two monotonic clock reads
//! and one push into the thread's own ring under an uncontended per-thread
//! mutex; ring slots are preallocated at thread registration, so steady-state
//! recording never allocates. The `self_trace` bench and the
//! `xtask bench-gate` pin the enabled overhead on the 250k-event analyzer
//! passes at < 5 %.
//!
//! ## Determinism contract
//!
//! Span data is wall-clock and therefore **never** enters a deterministic
//! artifact: Table II output, `--metrics-out` registries and store snapshots
//! are byte-identical with tracing on or off, at any `--jobs` level — an
//! invariant the test-suite asserts. Everything here is diagnostic-only
//! output (`--self-trace`, `--doctor`, crash dumps). The monotonic clock is
//! read behind this module's single sanctioned `lint:allow(wall-clock)`
//! site ([`now_ns`]).

use std::cell::{Cell, OnceCell};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Default per-thread ring capacity (spans kept per thread). At 64 bytes a
/// record, a saturated ring costs ~64 KiB per registered thread.
pub const DEFAULT_RING_CAPACITY: usize = 1024;

/// The global runtime gate. Off by default: the disabled fast path of every
/// instrumentation point is one relaxed load and a branch.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turns span recording on or off process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// True when spans are being recorded.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Nanoseconds since the tracer's process-local epoch (first use).
///
/// The **single sanctioned clock site** of the self-tracer: all span
/// timestamps funnel through here, and nothing derived from them may enter
/// a deterministic artifact.
#[inline]
fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    // lint:allow(wall-clock): the self-tracer measures host time by design;
    // its output is diagnostic-only and outside the determinism contract.
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One recorded span: a closed timed region on one thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Subsystem category (`"tier"`, `"store"`, `"pool"`, `"codec"`,
    /// `"analyzer"`, `"machine"`, …).
    pub cat: &'static str,
    /// Span name within the category.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Nesting depth on the recording thread at span entry (0 = top level).
    pub depth: u16,
    /// Tracer-assigned id of the recording thread.
    pub thread: u32,
    /// Bytes processed inside the span (0 when not applicable).
    pub bytes: u64,
    /// Logical events processed inside the span (0 when not applicable).
    pub events: u64,
}

/// Accumulated statistics for one `(category, name)` pair.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Number of closed spans.
    pub count: u64,
    /// Total wall nanoseconds across all spans.
    pub total_ns: u64,
    /// Longest single span in nanoseconds.
    pub max_ns: u64,
    /// Total bytes processed.
    pub bytes: u64,
    /// Total logical events processed.
    pub events: u64,
}

impl SpanStat {
    fn fold(&mut self, dur_ns: u64, bytes: u64, events: u64) {
        self.count += 1;
        self.total_ns += dur_ns;
        self.max_ns = self.max_ns.max(dur_ns);
        self.bytes += bytes;
        self.events += events;
    }

    /// Merges another stat into this one (used when combining threads).
    pub fn merge(&mut self, other: &SpanStat) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
        self.bytes += other.bytes;
        self.events += other.events;
    }

    /// Mean span duration in nanoseconds, or 0 when empty.
    pub fn mean_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }
}

/// One thread's recording state: the span ring plus aggregate stats.
struct Ring {
    thread: u32,
    /// Grows to `capacity` once, then records overwrite in place.
    slots: Vec<SpanRecord>,
    capacity: usize,
    /// When the ring is full: index of the oldest record (= next overwrite).
    next: usize,
    /// Spans evicted by wraparound.
    dropped: u64,
    stats: BTreeMap<(&'static str, &'static str), SpanStat>,
}

impl Ring {
    fn push(&mut self, mut rec: SpanRecord) {
        rec.thread = self.thread;
        self.stats
            .entry((rec.cat, rec.name))
            .or_default()
            .fold(rec.dur_ns, rec.bytes, rec.events);
        if self.slots.len() < self.capacity {
            self.slots.push(rec);
        } else if self.capacity > 0 {
            self.slots[self.next] = rec;
            self.next = (self.next + 1) % self.capacity;
            self.dropped += 1;
        } else {
            self.dropped += 1;
        }
    }

    /// Records in chronological order (oldest retained first).
    fn ordered(&self) -> Vec<SpanRecord> {
        let mut out = Vec::with_capacity(self.slots.len());
        out.extend_from_slice(&self.slots[self.next..]);
        out.extend_from_slice(&self.slots[..self.next]);
        out
    }

    fn clear(&mut self) {
        self.slots.clear();
        self.next = 0;
        self.dropped = 0;
        self.stats.clear();
    }
}

/// All registered per-thread rings. Rings outlive their threads so a
/// snapshot still sees finished pool workers.
static RINGS: Mutex<Vec<Arc<Mutex<Ring>>>> = Mutex::new(Vec::new());
/// Tracer-assigned thread ids, in registration order.
static NEXT_THREAD: AtomicU32 = AtomicU32::new(0);
/// Capacity applied to rings registered after the last [`set_ring_capacity`].
static RING_CAPACITY: AtomicUsize = AtomicUsize::new(DEFAULT_RING_CAPACITY);
/// Global diagnostic counters (store/memo/pool tallies).
static COUNTERS: Mutex<BTreeMap<&'static str, u64>> = Mutex::new(BTreeMap::new());

thread_local! {
    static LOCAL_RING: OnceCell<Arc<Mutex<Ring>>> = const { OnceCell::new() };
    static DEPTH: Cell<u16> = const { Cell::new(0) };
}

/// Locks a mutex, tolerating poisoning: the flight recorder must still dump
/// from a panic hook after another thread died mid-record.
fn lock_tolerant<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn with_ring(f: impl FnOnce(&mut Ring)) {
    LOCAL_RING.with(|cell| {
        let ring = cell.get_or_init(|| {
            let thread = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
            let capacity = RING_CAPACITY.load(Ordering::Relaxed);
            let ring = Arc::new(Mutex::new(Ring {
                thread,
                slots: Vec::with_capacity(capacity),
                capacity,
                next: 0,
                dropped: 0,
                stats: BTreeMap::new(),
            }));
            lock_tolerant(&RINGS).push(ring.clone());
            ring
        });
        f(&mut lock_tolerant(ring));
    });
}

/// Sets the ring capacity for threads that register *after* this call
/// (existing rings are unaffected). Mainly for tests exercising wraparound.
pub fn set_ring_capacity(capacity: usize) {
    RING_CAPACITY.store(capacity, Ordering::SeqCst);
}

/// An open span, closed (and recorded) on drop.
///
/// When tracing is disabled the guard is unarmed and both construction and
/// drop cost one branch.
#[derive(Debug)]
pub struct Span {
    cat: &'static str,
    name: &'static str,
    start_ns: u64,
    bytes: u64,
    events: u64,
    armed: bool,
}

/// Opens a span. Keep the returned guard alive for the duration of the
/// region: `let _s = span::span("codec", "read_setl3");`.
#[inline]
pub fn span(cat: &'static str, name: &'static str) -> Span {
    if !enabled() {
        return Span {
            cat,
            name,
            start_ns: 0,
            bytes: 0,
            events: 0,
            armed: false,
        };
    }
    DEPTH.with(|d| d.set(d.get().saturating_add(1)));
    Span {
        cat,
        name,
        start_ns: now_ns(),
        bytes: 0,
        events: 0,
        armed: true,
    }
}

impl Span {
    /// Attributes `n` processed bytes to the span.
    #[inline]
    pub fn add_bytes(&mut self, n: u64) {
        if self.armed {
            self.bytes += n;
        }
    }

    /// Attributes `n` logical events to the span.
    #[inline]
    pub fn add_events(&mut self, n: u64) {
        if self.armed {
            self.events += n;
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let depth = DEPTH.with(|d| {
            let entered = d.get().saturating_sub(1);
            d.set(entered);
            entered
        });
        let end = now_ns();
        with_ring(|ring| {
            ring.push(SpanRecord {
                cat: self.cat,
                name: self.name,
                start_ns: self.start_ns,
                dur_ns: end.saturating_sub(self.start_ns),
                depth,
                thread: 0, // assigned by the ring
                bytes: self.bytes,
                events: self.events,
            })
        });
    }
}

/// An in-flight phase measurement (see [`phase_start`]). Carries `None`
/// when tracing is disabled, making disabled phases free of any clock read.
#[derive(Debug)]
pub struct PhaseTimer(Option<u64>);

/// Begins an aggregate-only phase measurement.
///
/// This is the `WallProfile` replacement for per-step hot loops (the DES
/// sync/handle/dispatch/reprice phases): [`phase_record`] folds the elapsed
/// time into the thread's [`SpanStat`]s without writing a ring slot, so a
/// million tiny phases neither flood the flight recorder nor evict the
/// coarse spans around them.
#[inline]
pub fn phase_start() -> PhaseTimer {
    PhaseTimer(enabled().then(now_ns))
}

/// Ends a phase measurement, attributing the elapsed time to `(cat, name)`.
#[inline]
pub fn phase_record(cat: &'static str, name: &'static str, timer: PhaseTimer) {
    let Some(start) = timer.0 else { return };
    let dur = now_ns().saturating_sub(start);
    with_ring(|ring| ring.stats.entry((cat, name)).or_default().fold(dur, 0, 0));
}

/// Adds `delta` to the named global diagnostic counter. No-op when tracing
/// is disabled or `delta` is zero.
#[inline]
pub fn counter_add(name: &'static str, delta: u64) {
    if !enabled() || delta == 0 {
        return;
    }
    *lock_tolerant(&COUNTERS).entry(name).or_insert(0) += delta;
}

/// A point-in-time capture of the flight recorder: every thread's retained
/// spans (chronologically merged), the per-`(cat, name)` aggregates, and
/// the global diagnostic counters.
#[derive(Clone, Debug, Default)]
pub struct FlightRecord {
    /// Retained spans across all threads, sorted by start time.
    pub spans: Vec<SpanRecord>,
    /// Aggregates merged across threads.
    pub stats: BTreeMap<(&'static str, &'static str), SpanStat>,
    /// Global diagnostic counters.
    pub counters: BTreeMap<&'static str, u64>,
    /// Number of threads that ever registered a ring.
    pub threads: u32,
    /// Spans evicted by ring wraparound (across all threads).
    pub dropped: u64,
}

impl FlightRecord {
    /// The `n` longest retained spans, longest first.
    pub fn slowest(&self, n: usize) -> Vec<SpanRecord> {
        let mut spans = self.spans.clone();
        spans.sort_by(|a, b| {
            b.dur_ns
                .cmp(&a.dur_ns)
                .then(a.start_ns.cmp(&b.start_ns))
                .then(a.thread.cmp(&b.thread))
        });
        spans.truncate(n);
        spans
    }

    /// Aggregates for one category, in name order.
    pub fn stats_for(&self, cat: &str) -> Vec<(&'static str, SpanStat)> {
        self.stats
            .iter()
            .filter(|((c, _), _)| *c == cat)
            .map(|((_, n), s)| (*n, *s))
            .collect()
    }
}

/// Captures the current flight-recorder state. Safe to call at any time,
/// including from a panic hook.
pub fn snapshot() -> FlightRecord {
    let rings: Vec<Arc<Mutex<Ring>>> = lock_tolerant(&RINGS).clone();
    let mut spans = Vec::new();
    let mut stats: BTreeMap<(&'static str, &'static str), SpanStat> = BTreeMap::new();
    let mut dropped = 0;
    for ring in &rings {
        let ring = lock_tolerant(ring);
        spans.extend(ring.ordered());
        for (key, stat) in &ring.stats {
            stats.entry(*key).or_default().merge(stat);
        }
        dropped += ring.dropped;
    }
    spans.sort_by(|a, b| {
        a.start_ns
            .cmp(&b.start_ns)
            .then(a.thread.cmp(&b.thread))
            .then(a.depth.cmp(&b.depth))
    });
    FlightRecord {
        spans,
        stats,
        counters: lock_tolerant(&COUNTERS).clone(),
        threads: NEXT_THREAD.load(Ordering::Relaxed),
        dropped,
    }
}

/// Clears every ring, all aggregates and all counters (rings stay
/// registered). Mainly for tests.
pub fn reset() {
    for ring in lock_tolerant(&RINGS).iter() {
        lock_tolerant(ring).clear();
    }
    lock_tolerant(&COUNTERS).clear();
}

/// Renders a [`FlightRecord`] to the bytes the crash dump file will hold.
type DumpRender = fn(&FlightRecord) -> String;

/// Where (and how) to dump the flight recorder on panic.
static CRASH_DUMP: OnceLock<(PathBuf, DumpRender)> = OnceLock::new();

/// Installs a process-wide panic hook that renders a [`snapshot`] with
/// `render` and writes it to `path` before delegating to the previous hook.
///
/// The renderer is passed as a plain function pointer so binaries can plug
/// in the chrome-JSON exporter without `simobs` depending on the trace
/// crate. First installation wins; later calls are no-ops.
pub fn install_crash_dump(path: PathBuf, render: fn(&FlightRecord) -> String) {
    if CRASH_DUMP.set((path, render)).is_err() {
        return;
    }
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        dump_now();
        previous(info);
    }));
}

/// Writes the flight-recorder dump configured by [`install_crash_dump`]
/// immediately. Returns the dump path, or `None` when no dump is
/// configured. Errors are swallowed: a failing dump must never mask the
/// panic that triggered it.
pub fn dump_now() -> Option<&'static Path> {
    let (path, render) = CRASH_DUMP.get()?;
    let record = snapshot();
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    // lint:allow(fs-write): the crash-dump funnel writes diagnostic output
    // only — never a deterministic artifact.
    let _ = std::fs::write(path, render(&record));
    Some(path.as_path())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes tests that toggle the global gate or inspect global state.
    fn test_lock() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        lock_tolerant(&LOCK)
    }

    /// Runs `f` on a fresh thread (fresh ring, fresh depth counter) with
    /// tracing enabled and the given ring capacity, returning that thread's
    /// contribution by diffing snapshots is racy — instead each test uses
    /// unique span names and filters on them.
    fn on_fresh_thread<T: Send + 'static>(
        capacity: usize,
        f: impl FnOnce() -> T + Send + 'static,
    ) -> T {
        set_ring_capacity(capacity);
        let out = std::thread::spawn(f).join().unwrap();
        set_ring_capacity(DEFAULT_RING_CAPACITY);
        out
    }

    #[test]
    fn disabled_spans_record_nothing() {
        let _g = test_lock();
        set_enabled(false);
        {
            let mut s = span("test", "disabled_span");
            s.add_bytes(10);
            s.add_events(3);
        }
        phase_record("test", "disabled_phase", phase_start());
        counter_add("disabled_counter", 5);
        let rec = snapshot();
        assert!(!rec.stats.contains_key(&("test", "disabled_span")));
        assert!(!rec.stats.contains_key(&("test", "disabled_phase")));
        assert!(!rec.counters.contains_key("disabled_counter"));
    }

    #[test]
    fn ring_wraparound_keeps_last_n_in_order() {
        let _g = test_lock();
        set_enabled(true);
        const CAP: usize = 8;
        on_fresh_thread(CAP, || {
            for i in 0..(CAP as u64 + 5) {
                let mut s = span("test", "wrap");
                s.add_events(i + 1); // 1-based payload identifies the span
            }
        });
        set_enabled(false);
        let rec = snapshot();
        let kept: Vec<&SpanRecord> = rec
            .spans
            .iter()
            .filter(|r| r.cat == "test" && r.name == "wrap")
            .collect();
        assert_eq!(kept.len(), CAP, "ring must retain exactly its capacity");
        // The oldest 5 were evicted: the retained payloads are 6..=13,
        // still in chronological order.
        let payloads: Vec<u64> = kept.iter().map(|r| r.events).collect();
        assert_eq!(payloads, (6..=13).collect::<Vec<u64>>());
        // Aggregates still count every span, including evicted ones.
        let stat = rec.stats[&("test", "wrap")];
        assert_eq!(stat.count, CAP as u64 + 5);
        assert!(rec.dropped >= 5);
    }

    #[test]
    fn nested_spans_balance_depth() {
        let _g = test_lock();
        set_enabled(true);
        on_fresh_thread(64, || {
            let _outer = span("test", "nest_outer");
            {
                let _mid = span("test", "nest_mid");
                let _inner = span("test", "nest_inner");
            }
            let _mid2 = span("test", "nest_mid2");
        });
        set_enabled(false);
        let rec = snapshot();
        let depth_of = |name: &str| {
            rec.spans
                .iter()
                .find(|r| r.cat == "test" && r.name == name)
                .unwrap_or_else(|| panic!("span {name} not recorded"))
                .depth
        };
        assert_eq!(depth_of("nest_outer"), 0);
        assert_eq!(depth_of("nest_mid"), 1);
        assert_eq!(depth_of("nest_inner"), 2);
        // After the inner pair closed, the next sibling is back at depth 1:
        // open/close stay balanced.
        assert_eq!(depth_of("nest_mid2"), 1);
        // Nested spans close before their parent, so the recorded order
        // (by start) is outer, mid, inner, mid2 on one thread.
        let names: Vec<&str> = rec
            .spans
            .iter()
            .filter(|r| r.cat == "test" && r.name.starts_with("nest_"))
            .map(|r| r.name)
            .collect();
        assert_eq!(
            names,
            vec!["nest_outer", "nest_mid", "nest_inner", "nest_mid2"]
        );
    }

    #[test]
    fn phase_timer_aggregates_without_ring_slots() {
        let _g = test_lock();
        set_enabled(true);
        on_fresh_thread(64, || {
            for _ in 0..10 {
                let t = phase_start();
                phase_record("test", "phase_only", t);
            }
        });
        set_enabled(false);
        let rec = snapshot();
        let stat = rec.stats[&("test", "phase_only")];
        assert_eq!(stat.count, 10);
        assert!(
            !rec.spans
                .iter()
                .any(|r| r.cat == "test" && r.name == "phase_only"),
            "phase timers must not occupy ring slots"
        );
    }

    #[test]
    fn counters_and_payloads_accumulate() {
        let _g = test_lock();
        set_enabled(true);
        on_fresh_thread(64, || {
            let mut s = span("test", "payload");
            s.add_bytes(100);
            s.add_bytes(28);
            s.add_events(7);
            drop(s);
            counter_add("test_counter", 2);
            counter_add("test_counter", 3);
        });
        set_enabled(false);
        let rec = snapshot();
        let stat = rec.stats[&("test", "payload")];
        assert_eq!(stat.bytes, 128);
        assert_eq!(stat.events, 7);
        assert_eq!(rec.counters["test_counter"], 5);
    }

    #[test]
    fn slowest_and_stats_for_select_correctly() {
        let _g = test_lock();
        set_enabled(true);
        on_fresh_thread(64, || {
            let _a = span("cat_a", "slow_sel_a");
            let _b = span("cat_b", "slow_sel_b");
        });
        set_enabled(false);
        let rec = snapshot();
        assert!(!rec.slowest(3).is_empty());
        assert!(rec
            .stats_for("cat_a")
            .iter()
            .any(|(n, _)| *n == "slow_sel_a"));
        assert!(!rec
            .stats_for("cat_a")
            .iter()
            .any(|(n, _)| *n == "slow_sel_b"));
    }
}
