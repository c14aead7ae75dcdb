//! Simulator output pinned across CPU topologies.
//!
//! The Table II pin covers only the 12-logical SMT rig. This test runs four
//! applications with distinct scheduling shapes — a calendar-bound miner, a
//! pipeline transcoder, a frame-paced game and a multi-process browser — on
//! four topologies: the full 12-logical SMT rig, 5 logical with SMT (the
//! last physical core has no sibling), 6 without SMT and a single CPU. Each
//! run's trace window, every trace event field by field, and its Prometheus
//! registry text are hashed together and compared to recorded digests, so
//! any change to a simulated float, calendar entry or counter fails here.
//! The digest never touches a trace codec, so a change to the on-disk
//! format leaves it alone. Re-record them only for a deliberate model
//! change.

use etwtrace::{EtlTrace, ThreadKey, TraceEvent, WaitReason};
use parastat::{Budget, Experiment};
use simcore::{SimDuration, SimTime};
use workloads::AppId;

const APPS: [AppId; 4] = [
    AppId::EasyMiner,
    AppId::Handbrake,
    AppId::ProjectCars2,
    AppId::Chrome,
];

/// `(logical CPUs, SMT masking mode)`.
const TOPOLOGIES: [(usize, bool); 4] = [(12, true), (5, true), (6, false), (1, false)];

/// One digest per (topology, app), in `TOPOLOGIES` × `APPS` order.
const EXPECTED: [[u64; 4]; 4] = [
    [
        0x06e1_1d7f_3152_ce34,
        0x669e_e04d_5032_4fe1,
        0x6b1b_21a5_0ca7_5a1e,
        0xfa27_55ff_5c74_edcf,
    ],
    [
        0x56f7_c538_e03e_e53c,
        0xdea1_d23b_c5e8_b790,
        0x3b88_9e4d_5e61_308a,
        0x055f_1472_1190_545a,
    ],
    [
        0xbe70_e53b_d35e_caad,
        0x1821_59bf_159c_25b8,
        0x4d2b_a28b_195a_5872,
        0xb893_3188_c726_56d9,
    ],
    [
        0xcbf1_d16f_70fa_457c,
        0x1c4f_5dc8_8d4a_64b6,
        0xefb1_ea1e_39b0_73c6,
        0x5175_d9b1_15fe_0152,
    ],
];

/// 64-bit FNV-1a over the little-endian bytes of every field fed to it.
struct Digest(u64);

impl Digest {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn time(&mut self, t: SimTime) {
        self.u64(t.as_nanos());
    }

    /// Length-prefixed, so adjacent strings cannot trade bytes.
    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }

    fn key(&mut self, k: ThreadKey) {
        self.u64(k.pid);
        self.u64(k.tid);
    }

    fn opt_key(&mut self, k: Option<ThreadKey>) {
        match k {
            None => self.u64(0),
            Some(k) => {
                self.u64(1);
                self.key(k);
            }
        }
    }

    fn reason(&mut self, r: WaitReason) {
        match r {
            WaitReason::Preempted => self.u64(0),
            WaitReason::Yield => self.u64(1),
            WaitReason::Sleep => self.u64(2),
            WaitReason::Event { id } => {
                self.u64(3);
                self.u64(id);
            }
            WaitReason::Gpu { gpu, packet } => {
                self.u64(4);
                self.u64(u64::from(gpu));
                self.u64(packet);
            }
        }
    }

    fn trace(&mut self, trace: &EtlTrace) {
        self.u64(trace.n_logical_cpus() as u64);
        self.time(trace.start());
        self.time(trace.end());
        self.u64(trace.events().len() as u64);
        for ev in trace.events() {
            self.event(ev);
        }
    }

    fn event(&mut self, ev: &TraceEvent) {
        match ev {
            TraceEvent::ProcessStart { at, pid, name } => {
                self.u64(0);
                self.time(*at);
                self.u64(*pid);
                self.str(name);
            }
            TraceEvent::ThreadStart { at, key, name } => {
                self.u64(1);
                self.time(*at);
                self.key(*key);
                self.str(name);
            }
            TraceEvent::ThreadEnd { at, key } => {
                self.u64(2);
                self.time(*at);
                self.key(*key);
            }
            TraceEvent::CSwitch {
                at,
                cpu,
                old,
                new,
                ready_since,
            } => {
                self.u64(3);
                self.time(*at);
                self.u64(*cpu as u64);
                self.opt_key(*old);
                self.opt_key(*new);
                match ready_since {
                    None => self.u64(0),
                    Some(t) => {
                        self.u64(1);
                        self.time(*t);
                    }
                }
            }
            TraceEvent::GpuStart {
                at,
                gpu,
                engine,
                packet,
                pid,
            } => {
                self.u64(4);
                self.time(*at);
                self.u64(*gpu as u64);
                self.u64(u64::from(*engine));
                self.u64(*packet);
                self.u64(*pid);
            }
            TraceEvent::GpuEnd {
                at,
                gpu,
                engine,
                packet,
                pid,
            } => {
                self.u64(5);
                self.time(*at);
                self.u64(*gpu as u64);
                self.u64(u64::from(*engine));
                self.u64(*packet);
                self.u64(*pid);
            }
            TraceEvent::Frame { at, pid } => {
                self.u64(6);
                self.time(*at);
                self.u64(*pid);
            }
            TraceEvent::Marker { at, label } => {
                self.u64(7);
                self.time(*at);
                self.str(label);
            }
            TraceEvent::WaitBegin { at, key, reason } => {
                self.u64(8);
                self.time(*at);
                self.key(*key);
                self.reason(*reason);
            }
            TraceEvent::WaitEnd {
                at,
                key,
                reason,
                waker,
            } => {
                self.u64(9);
                self.time(*at);
                self.key(*key);
                self.reason(*reason);
                self.opt_key(*waker);
            }
            TraceEvent::GpuSubmit {
                at,
                key,
                gpu,
                packet,
            } => {
                self.u64(10);
                self.time(*at);
                self.key(*key);
                self.u64(*gpu as u64);
                self.u64(*packet);
            }
        }
    }
}

fn digest(app: AppId, logical: usize, smt: bool) -> u64 {
    let run = Experiment::new(app)
        .logical(logical, smt)
        .budget(Budget {
            duration: SimDuration::from_secs(5),
            iterations: 1,
        })
        .run_once(42);
    let mut d = Digest(0xcbf2_9ce4_8422_2325);
    d.trace(&run.trace);
    d.bytes(run.metrics.registry.to_prometheus().as_bytes());
    d.0
}

#[test]
fn simulator_output_is_pinned_on_every_topology() {
    let mut got = [[0u64; 4]; 4];
    for (row, &(logical, smt)) in got.iter_mut().zip(&TOPOLOGIES) {
        for (cell, &app) in row.iter_mut().zip(&APPS) {
            *cell = digest(app, logical, smt);
        }
    }
    assert_eq!(
        got, EXPECTED,
        "simulator output changed; digests by topology {TOPOLOGIES:?} × app {APPS:?}:\n{got:#018x?}"
    );
}
