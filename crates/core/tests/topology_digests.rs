//! Simulator output pinned across CPU topologies.
//!
//! The Table II pin covers only the 12-logical SMT rig. This test runs four
//! applications with distinct scheduling shapes — a calendar-bound miner, a
//! pipeline transcoder, a frame-paced game and a multi-process browser — on
//! four topologies: the full 12-logical SMT rig, 5 logical with SMT (the
//! last physical core has no sibling), 6 without SMT and a single CPU. Each
//! run's SETL v3 encoding and Prometheus registry are hashed together and
//! compared to recorded digests, so any change to a simulated float,
//! calendar entry or counter fails here. Re-record them only for a
//! deliberate model change.

use parastat::{Budget, Experiment};
use simcore::SimDuration;
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
        0x8869_046e_6929_7230,
        0xc8bb_2fbf_f5ad_957c,
        0xe0f8_3108_2d77_4a35,
        0xd30d_fdff_53ee_f96e,
    ],
    [
        0x3370_1496_1dd4_5b5c,
        0x11e5_b769_4695_eb31,
        0xbbf8_7212_4f7f_dcd7,
        0x4dfe_40d8_1fb4_4e94,
    ],
    [
        0xf0a7_c911_fc6d_15ac,
        0x8a20_9d4d_4371_fbb1,
        0x7ced_02ce_b909_a77a,
        0x38d6_be3c_b324_a42a,
    ],
    [
        0x391c_84e2_1ee5_786b,
        0x8580_7f0e_0134_83df,
        0x1425_9d3c_f6db_32a1,
        0xf0b0_1b55_777c_dc40,
    ],
];

/// 64-bit FNV-1a.
fn fnv1a(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn digest(app: AppId, logical: usize, smt: bool) -> u64 {
    let run = Experiment::new(app)
        .logical(logical, smt)
        .budget(Budget {
            duration: SimDuration::from_secs(5),
            iterations: 1,
        })
        .run_once(42);
    let h = fnv1a(0xcbf2_9ce4_8422_2325, &etwtrace::setl3::encode(&run.trace));
    fnv1a(h, run.metrics.registry.to_prometheus().as_bytes())
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
