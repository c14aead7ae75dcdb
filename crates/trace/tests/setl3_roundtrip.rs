//! Property-based contract for the SETL v3 codec: encode → decode is the
//! identity on arbitrary valid traces, and no corrupted byte stream ever
//! decodes — it errors (the store layer turns that into quarantine + miss),
//! it never panics and never yields a different trace.

use etwtrace::{etl, setl3, EtlTrace, ThreadKey, TraceBuilder, TraceEvent, WaitReason};
use proptest::prelude::*;
use simcore::SimTime;

/// One raw step of an arbitrary trace: a time delta plus an opcode with
/// enough operands to exercise every event variant and field shape.
type Step = (u64, u8, u64, u64, u32, bool);

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        (
            0u64..5_000_000,
            any::<u8>(),
            1u64..6,
            any::<u64>(),
            0u32..4,
            any::<bool>(),
        ),
        0..120,
    )
}

/// Deterministically expands raw steps into a sealed, time-ordered trace.
/// Small id ranges force string-table reuse and per-CPU clock reuse; the
/// `flag` bit toggles `None` cases (idle CSwitch sides, unknown wakers,
/// missing ready times).
fn build_trace(steps: &[Step], n_cpus: usize) -> EtlTrace {
    let mut b = TraceBuilder::new(n_cpus);
    let mut now = 0u64;
    for &(delta, op, id, raw, small, flag) in steps {
        now += delta;
        let at = SimTime::from_nanos(now);
        let key = ThreadKey {
            pid: id,
            tid: id + 1,
        };
        let other = ThreadKey {
            pid: id + 1,
            tid: id,
        };
        let event = match op % 11 {
            0 => TraceEvent::ProcessStart {
                at,
                pid: id,
                name: format!("app{}.exe", id % 3),
            },
            1 => TraceEvent::ThreadStart {
                at,
                key,
                name: format!("worker-{}", raw % 4),
            },
            2 => TraceEvent::ThreadEnd { at, key },
            3 => TraceEvent::CSwitch {
                at,
                cpu: small as usize % n_cpus,
                old: flag.then_some(key),
                new: (!flag || raw % 3 == 0).then_some(other),
                ready_since: (raw % 2 == 0)
                    .then(|| SimTime::from_nanos(now.saturating_sub(raw % 1000))),
            },
            4 => TraceEvent::GpuStart {
                at,
                gpu: small as usize,
                engine: if flag { u32::MAX } else { small },
                packet: raw,
                pid: id,
            },
            5 => TraceEvent::GpuEnd {
                at,
                gpu: small as usize,
                engine: small,
                packet: raw,
                pid: id,
            },
            6 => TraceEvent::Frame { at, pid: id },
            7 => TraceEvent::Marker {
                at,
                label: format!("phase {}", raw % 5),
            },
            8 => TraceEvent::WaitBegin {
                at,
                key,
                reason: wait_reason(raw, small),
            },
            9 => TraceEvent::WaitEnd {
                at,
                key,
                reason: wait_reason(raw, small),
                waker: flag.then_some(other),
            },
            _ => TraceEvent::GpuSubmit {
                at,
                key,
                gpu: small as usize,
                packet: raw,
            },
        };
        b.push(event);
    }
    b.finish(SimTime::ZERO, SimTime::from_nanos(now + 1))
}

fn wait_reason(raw: u64, small: u32) -> WaitReason {
    match raw % 5 {
        0 => WaitReason::Preempted,
        1 => WaitReason::Yield,
        2 => WaitReason::Sleep,
        3 => WaitReason::Event { id: raw / 5 },
        _ => WaitReason::Gpu {
            gpu: small,
            packet: raw / 5,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// encode → decode is the identity, both through the direct v3 entry
    /// points and through `etl::read_etl`, the reader every consumer calls.
    #[test]
    fn encode_decode_is_identity(steps in arb_steps(), n_cpus in 1usize..=16) {
        let trace = build_trace(&steps, n_cpus);
        let bytes = setl3::encode(&trace);
        let back = setl3::read_setl3(bytes.as_slice()).expect("decode own encoding");
        prop_assert_eq!(&back, &trace);
        let via_etl = etl::read_etl(bytes.as_slice()).expect("read_etl reads v3");
        prop_assert_eq!(&via_etl, &trace);
    }

    /// Any single flipped bit anywhere in the file is a decode error —
    /// never a panic, never a silently different trace.
    #[test]
    fn any_flipped_bit_is_detected(
        steps in arb_steps(),
        pos: u64,
        bit in 0u8..8,
    ) {
        let trace = build_trace(&steps, 4);
        let mut bytes = setl3::encode(&trace);
        let i = (pos % bytes.len() as u64) as usize;
        bytes[i] ^= 1 << bit;
        prop_assert!(
            setl3::read_setl3(bytes.as_slice()).is_err(),
            "flip of bit {bit} at byte {i}/{} went undetected",
            bytes.len()
        );
    }

    /// Every proper prefix of an encoding is a decode error (truncation is
    /// always caught, whether mid-record or at the missing trailer).
    #[test]
    fn any_truncation_is_detected(
        steps in arb_steps(),
        cut: u64,
    ) {
        let trace = build_trace(&steps, 4);
        let bytes = setl3::encode(&trace);
        let keep = (cut % bytes.len() as u64) as usize;
        prop_assert!(
            setl3::read_setl3(&bytes[..keep]).is_err(),
            "truncation to {keep}/{} bytes went undetected",
            bytes.len()
        );
    }
}
