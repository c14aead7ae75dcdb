//! Wait-for graph and critical-path extraction: the "what-if" TLP bound.
//!
//! TASKPROF-style reasoning for the paper's "why is TLP low" question: chain
//! the trace's wake edges (event signal → woken thread, GPU submit → packet
//! → waiting thread) with each thread's own program order, weight nodes by
//! actual CPU run-time, and take the longest path. `app cpu time / critical
//! path length` is then an upper bound on the TLP any scheduler could reach
//! without restructuring the application — if the bound is close to the
//! measured TLP, the serialization is inherent; if it is far above, the app
//! is waiting on something the machine could overlap.
//!
//! A thread's run episode is split into *segments* at every point its chain
//! is sampled (when it wakes another thread or submits a GPU packet), so a
//! wake edge carries exactly the waker's work up to the wake, never its
//! whole episode. Chain segments are therefore disjoint in time, which
//! guarantees `critical path ≤ non-idle wall time` and hence
//! `bound ≥ measured TLP`. GPU packet nodes carry zero work: packets order
//! the chain but model work the CPUs never execute, matching the what-if
//! question "how parallel could the *CPU* side be".
//!
//! Construction is a single forward scan: each thread's run-time comes
//! from the crate's one scheduling replay (`replay.rs`), and the scan also
//! replays Equation 1 for the measured TLP. Node distances finalize in
//! stream order and threads flush in key order at the end, so the result
//! is deterministic and independent of any worker-pool configuration.

use crate::analysis::ConcurrencyFold;
use crate::event::{EtlTrace, PidSet, ThreadKey, TraceEvent};
use crate::replay::{slot_mut, Replay};
use simcore::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The critical-path summary for one application in one trace.
#[derive(Clone, Debug, PartialEq)]
pub struct CriticalPath {
    /// Nodes in the wait-for graph (thread segments + GPU packets).
    pub n_nodes: usize,
    /// Dependency edges (program order, wake edges, submit edges).
    pub n_edges: usize,
    /// Length of the longest work-weighted dependency chain.
    pub critical_len: SimDuration,
    /// Total app CPU time in the window (Σ per-thread run time).
    pub cpu_busy: SimDuration,
    /// The TLP actually achieved (Equation 1).
    pub measured_tlp: f64,
    /// What-if upper bound: `cpu_busy / critical_len`, never below the
    /// measured TLP. This is a restructuring bound, not a machine bound —
    /// it may exceed the logical CPU count.
    pub tlp_upper_bound: f64,
    /// CPU time each thread contributes to the critical path, descending.
    pub path_threads: Vec<(ThreadKey, SimDuration)>,
}

impl CriticalPath {
    /// Fraction of app CPU time that sits on the critical path, in `[0, 1]`
    /// (1.0 = fully serial); `None` for an idle trace.
    pub fn critical_fraction(&self) -> Option<f64> {
        if self.cpu_busy.is_zero() {
            return None;
        }
        Some(self.critical_len / self.cpu_busy)
    }

    /// Renders the fixed-width text report (`tracetool critical-path`
    /// prints this verbatim).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "Critical path (what-if TLP bound)");
        let _ = writeln!(
            out,
            "wait-for graph: {} nodes, {} edges",
            self.n_nodes, self.n_edges
        );
        let _ = writeln!(
            out,
            "critical path {} ms of {} ms app cpu time ({} serial)",
            fmt_ms(self.critical_len.as_nanos()),
            fmt_ms(self.cpu_busy.as_nanos()),
            match self.critical_fraction() {
                Some(f) => format!("{:.1}%", f * 100.0),
                None => "n/a".to_string(),
            },
        );
        let _ = writeln!(
            out,
            "measured TLP {:.2}, what-if upper bound {:.2}",
            self.measured_tlp, self.tlp_upper_bound
        );
        let _ = writeln!(out, "critical-path time by thread (ms):");
        if self.path_threads.is_empty() {
            let _ = writeln!(out, "  (empty path)");
        }
        for (key, d) in &self.path_threads {
            let _ = writeln!(
                out,
                "  pid{}/tid{:<6} {:>10}",
                key.pid,
                key.tid,
                fmt_ms(d.as_nanos())
            );
        }
        out
    }
}

fn fmt_ms(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e6)
}

/// One node of the wait-for graph: a thread segment or a GPU packet.
#[derive(Default)]
struct Node {
    /// Owning thread; `None` for GPU packet nodes.
    key: Option<ThreadKey>,
    /// CPU run-time inside this segment (0 for packets).
    work_ns: u64,
    /// Longest chain ending here, including own work.
    dist_ns: u64,
    /// Predecessor realizing `dist_ns`.
    pred: Option<usize>,
}

/// Per-thread construction state.
#[derive(Default)]
struct ThreadBuild {
    /// The thread's most recent segment node.
    last_node: Option<usize>,
    /// Wake/packet nodes the *next* segment depends on.
    pending_preds: Vec<usize>,
    /// The thread's run-time up to its last segment close.
    run_closed_ns: u64,
}

#[derive(Default)]
struct Graph {
    nodes: Vec<Node>,
    n_edges: usize,
    /// The node of each GPU packet, by `(gpu, packet)`.
    packets: BTreeMap<(usize, u64), usize>,
}

impl Graph {
    /// Closes `key`'s open segment, the thread having run `run_ns` in all:
    /// the run-time since the last close becomes a node whose distance
    /// folds in program order and any pending wake edges. Every predecessor
    /// was created earlier in the stream, so distances finalize in one
    /// pass.
    fn close_segment(&mut self, st: &mut ThreadBuild, key: ThreadKey, run_ns: u64) -> usize {
        let work = run_ns.saturating_sub(std::mem::replace(&mut st.run_closed_ns, run_ns));
        // Nothing new to record: reuse the previous node as the sample.
        if work == 0 && st.pending_preds.is_empty() {
            if let Some(idx) = st.last_node {
                return idx;
            }
        }
        let mut dist = 0u64;
        let mut pred = None;
        for &p in st.last_node.iter().chain(st.pending_preds.iter()) {
            self.n_edges += 1;
            let d = self.nodes.get(p).map_or(0, |n| n.dist_ns);
            if d >= dist {
                dist = d;
                pred = Some(p);
            }
        }
        let idx = self.nodes.len();
        self.nodes.push(Node {
            key: Some(key),
            work_ns: work,
            dist_ns: dist + work,
            pred,
        });
        st.pending_preds.clear();
        st.last_node = Some(idx);
        idx
    }

    /// The node standing for packet `(gpu, packet)`, created weightless on
    /// first sight.
    fn packet(&mut self, id: (usize, u64)) -> usize {
        *self.packets.entry(id).or_insert_with(|| {
            self.nodes.push(Node::default());
            self.nodes.len() - 1
        })
    }
}

/// Builds the wait-for graph for the `filter` application and extracts the
/// critical path and what-if TLP bound. See the module docs for the model.
pub fn critical_path(trace: &EtlTrace, filter: &PidSet) -> CriticalPath {
    let mut sp = simobs::span::span("analyzer", "critical");
    sp.add_events(trace.events().len() as u64);
    let mut fold = CriticalFold::new(filter, trace.n_logical_cpus(), trace.start(), trace.end());
    for ev in trace.events() {
        fold.push(ev);
    }
    fold.finish()
}

/// Same graph construction, streamed over a blocked v3 trace without
/// materializing the event vector.
///
/// The fold, measured TLP included, is shared verbatim with
/// [`critical_path`] and sees the same event sequence, so the whole report
/// matches byte for byte at any shard count.
pub fn critical_path_sharded(
    trace: &crate::shard::ShardedTrace,
    filter: &PidSet,
    runner: &dyn crate::shard::ShardRunner,
    shards: usize,
) -> std::io::Result<CriticalPath> {
    let mut sp = simobs::span::span("analyzer", "critical");
    sp.add_events(trace.count());
    let mut fold = CriticalFold::new(filter, trace.n_logical_cpus(), trace.start(), trace.end());
    trace.fold_events(runner, shards, |ev| fold.push(&ev))?;
    Ok(fold.finish())
}

/// The forward graph scan as an incremental fold, shared verbatim by the
/// materialized and sharded entry points. It owns the Equation 1 replay
/// the report's measured TLP comes from.
struct CriticalFold<'a> {
    filter: &'a PidSet,
    tlp: ConcurrencyFold<'a>,
    end_ns: u64,
    replay: Replay<'a>,
    /// Each thread's construction state, by replay slot.
    builds: Vec<ThreadBuild>,
    graph: Graph,
}

impl<'a> CriticalFold<'a> {
    fn new(filter: &'a PidSet, n_logical: usize, start: SimTime, end: SimTime) -> Self {
        CriticalFold {
            filter,
            tlp: ConcurrencyFold::new(filter, n_logical, start, end),
            end_ns: end.as_nanos(),
            replay: Replay::new(Some(filter), n_logical, start.as_nanos(), end.as_nanos()),
            builds: Vec::new(),
            graph: Graph::default(),
        }
    }

    /// Samples `key`'s chain at `t_ns`, closing its open segment; returns
    /// the segment's node.
    fn sample(&mut self, key: ThreadKey, t_ns: u64) -> usize {
        let slot = self.replay.slot(key);
        let [run_ns, ..] = self.replay.spent(slot, t_ns);
        self.graph
            .close_segment(slot_mut(&mut self.builds, slot), key, run_ns)
    }

    fn push(&mut self, ev: &TraceEvent) {
        self.tlp.push(ev);
        self.replay.push(ev, &mut ());
        let filter = self.filter;
        match *ev {
            TraceEvent::WaitEnd {
                at,
                key,
                reason,
                waker,
            } if filter.contains(key.pid) => {
                // The next segment follows the waker's chain sampled at the
                // wake, and the packet (a fresh node if submitted earlier).
                let waker = waker.filter(|w| filter.contains(w.pid));
                let woke = waker.map(|w| self.sample(w, at.as_nanos()));
                let packet = reason
                    .gpu_packet()
                    .map(|(gpu, p)| self.graph.packet((gpu as usize, p)));
                self.graph.n_edges += usize::from(packet.is_some());
                let slot = self.replay.slot(key);
                let st = slot_mut(&mut self.builds, slot);
                st.pending_preds.extend(woke.into_iter().chain(packet));
            }
            TraceEvent::GpuSubmit {
                at,
                key,
                gpu,
                packet,
            } if filter.contains(key.pid) => {
                let seg = self.sample(key, at.as_nanos());
                let dist = self.graph.nodes.get(seg).map_or(0, |n| n.dist_ns);
                let node = self.graph.packet((gpu, packet));
                self.graph.n_edges += 1;
                // Only a packet node made here takes it: preds point back.
                if let Some(n) = self.graph.nodes.get_mut(node).filter(|_| seg < node) {
                    if dist >= n.dist_ns {
                        n.dist_ns = dist;
                        n.pred = Some(seg);
                    }
                }
            }
            TraceEvent::ThreadEnd { at, key } if filter.contains(key.pid) => {
                self.sample(key, at.as_nanos());
            }
            _ => {}
        }
    }

    fn finish(mut self) -> CriticalPath {
        // Threads still alive at the window end: flush their final segments.
        for (key, _) in self.replay.in_key_order() {
            self.sample(key, self.end_ns);
        }
        let measured_tlp = self.tlp.finish().tlp();
        let graph = &self.graph;

        // Every run interval lands in exactly one segment, so total app CPU
        // time is the sum of node work.
        let cpu_busy_ns: u64 = graph.nodes.iter().map(|n| n.work_ns).sum();
        let critical_ns = graph.nodes.iter().map(|n| n.dist_ns).max().unwrap_or(0);
        // Chain segments are time-disjoint and each keeps ≥1 CPU busy, so
        // critical_ns ≤ non-idle time and the ratio can only dip below the
        // measured TLP through float rounding — clamp it.
        let tlp_upper_bound = if critical_ns == 0 {
            measured_tlp
        } else {
            (cpu_busy_ns as f64 / critical_ns as f64).max(measured_tlp)
        };

        // Walk the longest chain back and tally per-thread contributions.
        let mut per_thread: BTreeMap<ThreadKey, u64> = BTreeMap::new();
        let mut at = graph
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| n.dist_ns == critical_ns)
            .map(|(i, _)| i)
            .next_back();
        while let Some(n) = at.and_then(|i| graph.nodes.get(i)) {
            if let Some(key) = n.key {
                *per_thread.entry(key).or_insert(0) += n.work_ns;
            }
            at = n.pred;
        }
        let mut path_threads: Vec<(ThreadKey, SimDuration)> = per_thread
            .into_iter()
            .filter(|&(_, ns)| ns > 0)
            .map(|(k, ns)| (k, SimDuration::from_nanos(ns)))
            .collect();
        path_threads.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));

        CriticalPath {
            n_nodes: graph.nodes.len(),
            n_edges: graph.n_edges,
            critical_len: SimDuration::from_nanos(critical_ns),
            cpu_busy: SimDuration::from_nanos(cpu_busy_ns),
            measured_tlp,
            tlp_upper_bound,
            path_threads,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{TraceBuilder, WaitReason};
    use simcore::SimTime;

    fn key(tid: u64) -> ThreadKey {
        ThreadKey { pid: 1, tid }
    }

    fn ms(t: u64) -> SimTime {
        SimTime::from_nanos(t * 1_000_000)
    }

    fn start(b: &mut TraceBuilder, tids: &[u64]) {
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
    }

    fn run(b: &mut TraceBuilder, tid: u64, cpu: usize, from: u64, to: u64) {
        b.push(TraceEvent::CSwitch {
            at: ms(from),
            cpu,
            old: None,
            new: Some(key(tid)),
            ready_since: Some(ms(from)),
        });
        b.push(TraceEvent::CSwitch {
            at: ms(to),
            cpu,
            old: Some(key(tid)),
            new: None,
            ready_since: None,
        });
    }

    #[test]
    fn fully_serial_chain_bounds_tlp_at_one() {
        // t0 runs 10 ms, signals t1 which runs 10 ms: cp = cpu = 20 ms.
        let mut b = TraceBuilder::new(4);
        start(&mut b, &[0, 1]);
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
            reason: WaitReason::Event { id: 3 },
        });
        b.push(TraceEvent::WaitEnd {
            at: ms(10),
            key: key(1),
            reason: WaitReason::Event { id: 3 },
            waker: Some(key(0)),
        });
        b.push(TraceEvent::CSwitch {
            at: ms(10),
            cpu: 0,
            old: Some(key(0)),
            new: Some(key(1)),
            ready_since: Some(ms(10)),
        });
        b.push(TraceEvent::CSwitch {
            at: ms(20),
            cpu: 0,
            old: Some(key(1)),
            new: None,
            ready_since: None,
        });
        let trace = b.finish(ms(0), ms(20));
        let filter: PidSet = [1u64].into_iter().collect();
        let cp = critical_path(&trace, &filter);
        assert_eq!(cp.critical_len, SimDuration::from_millis(20));
        assert_eq!(cp.cpu_busy, SimDuration::from_millis(20));
        assert!((cp.tlp_upper_bound - 1.0).abs() < 1e-9, "{cp:?}");
        assert_eq!(cp.path_threads.len(), 2);
    }

    #[test]
    fn independent_threads_bound_at_n() {
        // Two unrelated 10 ms threads: cp = 10 ms, cpu = 20 ms → bound 2.
        let mut b = TraceBuilder::new(4);
        start(&mut b, &[0, 1]);
        b.push(TraceEvent::CSwitch {
            at: ms(0),
            cpu: 0,
            old: None,
            new: Some(key(0)),
            ready_since: Some(ms(0)),
        });
        b.push(TraceEvent::CSwitch {
            at: ms(0),
            cpu: 1,
            old: None,
            new: Some(key(1)),
            ready_since: Some(ms(0)),
        });
        for tid in [0, 1] {
            b.push(TraceEvent::CSwitch {
                at: ms(10),
                cpu: tid as usize,
                old: Some(key(tid)),
                new: None,
                ready_since: None,
            });
        }
        let trace = b.finish(ms(0), ms(10));
        let filter: PidSet = [1u64].into_iter().collect();
        let cp = critical_path(&trace, &filter);
        assert_eq!(cp.critical_len, SimDuration::from_millis(10));
        assert_eq!(cp.cpu_busy, SimDuration::from_millis(20));
        assert!((cp.tlp_upper_bound - 2.0).abs() < 1e-9, "{cp:?}");
        assert!(cp.tlp_upper_bound >= cp.measured_tlp);
        // Both threads run the whole window, so Equation 1 gives 2.
        assert!((cp.measured_tlp - 2.0).abs() < 1e-9, "{cp:?}");
    }

    #[test]
    fn wake_edge_samples_waker_not_whole_episode() {
        // t0 runs [0,30) but signals t1 at 10; t1 runs [10,30) on another
        // CPU. The chain through t1 is 10 (t0's prefix) + 20 = 30, not
        // 30 + 20: sampling at the wake keeps the bound sound.
        let mut b = TraceBuilder::new(4);
        start(&mut b, &[0, 1]);
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
            reason: WaitReason::Event { id: 3 },
        });
        b.push(TraceEvent::WaitEnd {
            at: ms(10),
            key: key(1),
            reason: WaitReason::Event { id: 3 },
            waker: Some(key(0)),
        });
        b.push(TraceEvent::CSwitch {
            at: ms(10),
            cpu: 1,
            old: None,
            new: Some(key(1)),
            ready_since: Some(ms(10)),
        });
        b.push(TraceEvent::CSwitch {
            at: ms(30),
            cpu: 0,
            old: Some(key(0)),
            new: None,
            ready_since: None,
        });
        b.push(TraceEvent::CSwitch {
            at: ms(30),
            cpu: 1,
            old: Some(key(1)),
            new: None,
            ready_since: None,
        });
        let trace = b.finish(ms(0), ms(30));
        let filter: PidSet = [1u64].into_iter().collect();
        let cp = critical_path(&trace, &filter);
        assert_eq!(cp.critical_len, SimDuration::from_millis(30));
        assert_eq!(cp.cpu_busy, SimDuration::from_millis(50));
        assert!(cp.tlp_upper_bound >= cp.measured_tlp);
    }

    #[test]
    fn gpu_packet_orders_chain_without_adding_work() {
        // t0 runs [0,10), submits a packet at 10; the packet runs [10,20)
        // on the GPU; t1 wakes at 20 and runs [20,30). The chain is
        // 10 ms + 0 (packet) + 10 ms = 20 ms even though wall time is 30.
        let mut b = TraceBuilder::new(4);
        start(&mut b, &[0, 1]);
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
            reason: WaitReason::Gpu { gpu: 0, packet: 5 },
        });
        b.push(TraceEvent::GpuSubmit {
            at: ms(10),
            key: key(0),
            gpu: 0,
            packet: 5,
        });
        b.push(TraceEvent::GpuStart {
            at: ms(10),
            gpu: 0,
            engine: 0,
            packet: 5,
            pid: 1,
        });
        b.push(TraceEvent::CSwitch {
            at: ms(10),
            cpu: 0,
            old: Some(key(0)),
            new: None,
            ready_since: None,
        });
        b.push(TraceEvent::GpuEnd {
            at: ms(20),
            gpu: 0,
            engine: 0,
            packet: 5,
            pid: 1,
        });
        b.push(TraceEvent::WaitEnd {
            at: ms(20),
            key: key(1),
            reason: WaitReason::Gpu { gpu: 0, packet: 5 },
            waker: None,
        });
        b.push(TraceEvent::CSwitch {
            at: ms(20),
            cpu: 0,
            old: None,
            new: Some(key(1)),
            ready_since: Some(ms(20)),
        });
        b.push(TraceEvent::CSwitch {
            at: ms(30),
            cpu: 0,
            old: Some(key(1)),
            new: None,
            ready_since: None,
        });
        let trace = b.finish(ms(0), ms(30));
        let filter: PidSet = [1u64].into_iter().collect();
        let cp = critical_path(&trace, &filter);
        assert_eq!(cp.critical_len, SimDuration::from_millis(20));
        assert_eq!(cp.cpu_busy, SimDuration::from_millis(20));
        assert!(cp.tlp_upper_bound >= cp.measured_tlp);
        // Packet node present, weightless.
        assert_eq!(cp.path_threads.len(), 2);
    }

    #[test]
    fn a_packet_woken_before_its_submit_cannot_loop_the_walk() {
        // A defect stream: t0 is woken from packet 5 before it submits it.
        // The packet's node is older than t0's segment at the submit, so
        // it keeps no predecessor and the path walk ends.
        let mut b = TraceBuilder::new(2);
        start(&mut b, &[0]);
        let reason = WaitReason::Gpu { gpu: 0, packet: 5 };
        b.push(TraceEvent::WaitBegin {
            at: ms(0),
            key: key(0),
            reason,
        });
        b.push(TraceEvent::WaitEnd {
            at: ms(1),
            key: key(0),
            reason,
            waker: None,
        });
        run(&mut b, 0, 0, 1, 10);
        b.push(TraceEvent::GpuSubmit {
            at: ms(10),
            key: key(0),
            gpu: 0,
            packet: 5,
        });
        let trace = b.finish(ms(0), ms(10));
        let filter: PidSet = [1u64].into_iter().collect();
        let cp = critical_path(&trace, &filter);
        assert_eq!(cp.critical_len, SimDuration::from_millis(9));
        assert_eq!(cp.path_threads, [(key(0), SimDuration::from_millis(9))]);
    }

    #[test]
    fn empty_trace_is_harmless() {
        let b = TraceBuilder::new(4);
        let trace = b.finish(ms(0), ms(0));
        let cp = critical_path(&trace, &PidSet::new());
        assert_eq!(cp.critical_len, SimDuration::ZERO);
        assert_eq!(cp.n_nodes, 0);
        assert_eq!(cp.critical_fraction(), None);
        assert!(cp.render().contains("empty path"));
    }

    #[test]
    fn render_is_stable() {
        let mut b = TraceBuilder::new(2);
        start(&mut b, &[0]);
        run(&mut b, 0, 0, 0, 10);
        let trace = b.finish(ms(0), ms(10));
        let filter: PidSet = [1u64].into_iter().collect();
        let a = critical_path(&trace, &filter).render();
        let c = critical_path(&trace, &filter).render();
        assert_eq!(a, c);
        assert!(a.contains("100.0% serial"), "{a}");
    }
}
