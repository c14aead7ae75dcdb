//! Mutation tests for the trace verifier: take a hand-built, provably clean
//! event stream, corrupt it in one targeted way, and assert the intended
//! diagnostic code fires. The corrupted streams are fed through [`Verifier`]
//! directly because [`etwtrace::TraceBuilder`] panics on out-of-order pushes
//! — precisely the defect some mutations inject.
//!
//! Every stream is also checked with each tid shifted by 2^40. Such tids
//! are past the thread table's tid-indexed array, so both passes take its
//! ordered-map fallback; the shift keeps key order, so the verify report —
//! and, for a stream in time order, the happens-before report — must be
//! the same once the keys are mapped back. A stream in time order also goes
//! through the one checker pass, whose verify half must equal the
//! verifier's report on the stream and on its shifted twin.

use etwtrace::verify::{check, verify_trace, Verifier};
use etwtrace::{
    analyze, DiagCode, Diagnostic, HbOptions, HbReport, ThreadKey, TraceBuilder, TraceEvent,
    VerifyReport, WaitReason,
};
use simcore::SimTime;

fn us(t: u64) -> SimTime {
    SimTime::from_nanos(t * 1_000)
}

fn key(tid: u64) -> ThreadKey {
    ThreadKey { pid: 1, tid }
}

/// A small two-thread scenario exercising dispatch, an event wake, and a
/// full GPU packet lifecycle, obeying every rule the machine guarantees.
fn clean_events() -> Vec<TraceEvent> {
    let (t0, t1) = (key(0), key(1));
    vec![
        TraceEvent::ProcessStart {
            at: us(0),
            pid: 1,
            name: "app.exe".into(),
        },
        TraceEvent::ThreadStart {
            at: us(0),
            key: t0,
            name: "t0".into(),
        },
        TraceEvent::ThreadStart {
            at: us(0),
            key: t1,
            name: "t1".into(),
        },
        TraceEvent::CSwitch {
            at: us(0),
            cpu: 0,
            old: None,
            new: Some(t0),
            ready_since: Some(us(0)),
        },
        TraceEvent::CSwitch {
            at: us(0),
            cpu: 1,
            old: None,
            new: Some(t1),
            ready_since: Some(us(0)),
        },
        // t0 parks on event 7.
        TraceEvent::CSwitch {
            at: us(10),
            cpu: 0,
            old: Some(t0),
            new: None,
            ready_since: None,
        },
        TraceEvent::WaitBegin {
            at: us(10),
            key: t0,
            reason: WaitReason::Event { id: 7 },
        },
        // t1 kicks off a GPU packet.
        TraceEvent::GpuSubmit {
            at: us(12),
            key: t1,
            gpu: 0,
            packet: 1,
        },
        TraceEvent::GpuStart {
            at: us(12),
            gpu: 0,
            engine: 0,
            packet: 1,
            pid: 1,
        },
        // t1 signals t0 awake; t0 is dispatched again.
        TraceEvent::WaitEnd {
            at: us(15),
            key: t0,
            reason: WaitReason::Event { id: 7 },
            waker: Some(t1),
        },
        TraceEvent::CSwitch {
            at: us(15),
            cpu: 0,
            old: None,
            new: Some(t0),
            ready_since: Some(us(15)),
        },
        // t1 parks on its packet; the device completes it.
        TraceEvent::CSwitch {
            at: us(16),
            cpu: 1,
            old: Some(t1),
            new: None,
            ready_since: None,
        },
        TraceEvent::WaitBegin {
            at: us(16),
            key: t1,
            reason: WaitReason::Gpu { gpu: 0, packet: 1 },
        },
        TraceEvent::GpuEnd {
            at: us(20),
            gpu: 0,
            engine: 0,
            packet: 1,
            pid: 1,
        },
        TraceEvent::WaitEnd {
            at: us(20),
            key: t1,
            reason: WaitReason::Gpu { gpu: 0, packet: 1 },
            waker: None,
        },
        TraceEvent::CSwitch {
            at: us(20),
            cpu: 1,
            old: None,
            new: Some(t1),
            ready_since: Some(us(20)),
        },
        // Both exit off-CPU.
        TraceEvent::CSwitch {
            at: us(25),
            cpu: 0,
            old: Some(t0),
            new: None,
            ready_since: None,
        },
        TraceEvent::ThreadEnd {
            at: us(25),
            key: t0,
        },
        TraceEvent::CSwitch {
            at: us(26),
            cpu: 1,
            old: Some(t1),
            new: None,
            ready_since: None,
        },
        TraceEvent::ThreadEnd {
            at: us(26),
            key: t1,
        },
    ]
}

/// Tids this far apart never fit the thread table's tid-indexed array.
const SHIFT: u64 = 1 << 40;

/// `ev` with every tid moved up by [`SHIFT`].
fn shift(ev: &TraceEvent) -> TraceEvent {
    let up = |k: &ThreadKey| ThreadKey {
        pid: k.pid,
        tid: k.tid + SHIFT,
    };
    let mut ev = ev.clone();
    match &mut ev {
        TraceEvent::ThreadStart { key, .. }
        | TraceEvent::ThreadEnd { key, .. }
        | TraceEvent::WaitBegin { key, .. }
        | TraceEvent::GpuSubmit { key, .. } => *key = up(key),
        TraceEvent::WaitEnd { key, waker, .. } => {
            *key = up(key);
            *waker = waker.as_ref().map(up);
        }
        TraceEvent::CSwitch { old, new, .. } => {
            *old = old.as_ref().map(up);
            *new = new.as_ref().map(up);
        }
        _ => {}
    }
    ev
}

/// A shifted stream's findings with their keys and message tids mapped
/// back; the stream's own tids are all below 100.
fn unshift(diags: Vec<Diagnostic>) -> Vec<Diagnostic> {
    diags
        .into_iter()
        .map(|mut d| {
            if let Some(k) = &mut d.thread {
                k.tid -= SHIFT;
            }
            for tid in 0..100 {
                let shifted = format!("tid{}", tid + SHIFT);
                d.message = d.message.replace(&shifted, &format!("tid{tid}"));
            }
            d
        })
        .collect()
}

fn verify(events: &[TraceEvent]) -> VerifyReport {
    let mut v = Verifier::new(2);
    for ev in events {
        v.push(ev);
    }
    v.finish(us(30))
}

/// The happens-before report, for a stream in time order. The one
/// checker pass must give it and, as its verify half, the report the
/// [`Verifier`] alone and [`verify_trace`] give.
fn happens_before(events: &[TraceEvent]) -> Option<HbReport> {
    if events.windows(2).any(|w| w[1].at() < w[0].at()) {
        return None;
    }
    let mut b = TraceBuilder::new(2);
    for ev in events {
        b.push(ev.clone());
    }
    let trace = b.finish(us(0), us(30));
    let (verified, causal) = check(&trace);
    assert_eq!(verified, verify(events), "{}", verified.render());
    assert_eq!(verified, verify_trace(&trace));
    assert_eq!(causal, analyze(&trace, &HbOptions::default()));
    Some(causal)
}

fn run(events: &[TraceEvent]) -> VerifyReport {
    let report = verify(events);
    let shifted: Vec<TraceEvent> = events.iter().map(shift).collect();
    let mut far = verify(&shifted);
    far.diagnostics = unshift(far.diagnostics);
    assert_eq!(far, report, "{}", report.render());
    let hb = happens_before(events);
    let far_hb = happens_before(&shifted).map(|mut r| {
        r.findings = unshift(r.findings);
        r
    });
    assert_eq!(far_hb, hb);
    report
}

#[test]
fn baseline_scenario_is_clean() {
    let report = run(&clean_events());
    assert!(report.is_clean(), "{}", report.render());
    assert_eq!(report.events_checked, clean_events().len());
}

#[test]
fn dropping_an_event_wait_end_fires_run_while_blocked() {
    let mut evs = clean_events();
    evs.retain(|e| {
        !matches!(e, TraceEvent::WaitEnd { key, reason: WaitReason::Event { .. }, .. } if key.tid == 0)
    });
    let report = run(&evs);
    assert!(report.has(DiagCode::RunWhileBlocked), "{}", report.render());
}

#[test]
fn dropping_a_gpu_wait_end_fires_missed_wake() {
    let mut evs = clean_events();
    // Lose the completion wake and t1's subsequent dispatch/exit: the trace
    // now ends with t1 still parked on a packet the device already finished.
    evs.retain(|e| match e {
        TraceEvent::WaitEnd {
            key,
            reason: WaitReason::Gpu { .. },
            ..
        } => key.tid != 1,
        TraceEvent::CSwitch { at, .. } => at.as_nanos() < 20_000 || at.as_nanos() == 25_000,
        TraceEvent::ThreadEnd { key, .. } => key.tid != 1,
        _ => true,
    });
    let report = run(&evs);
    assert!(report.has(DiagCode::GpuMissedWake), "{}", report.render());
}

#[test]
fn reordered_timestamps_fire_time_order() {
    let mut evs = clean_events();
    let last = evs.len() - 1;
    evs.swap(0, last);
    let report = run(&evs);
    assert!(report.has(DiagCode::TimeOrder), "{}", report.render());
}

#[test]
fn forged_waker_fires_waker_not_live() {
    let mut evs = clean_events();
    for ev in &mut evs {
        if let TraceEvent::WaitEnd {
            waker: waker @ Some(_),
            ..
        } = ev
        {
            *waker = Some(key(99));
        }
    }
    let report = run(&evs);
    assert!(report.has(DiagCode::WakerNotLive), "{}", report.render());
}

#[test]
fn duplicated_submission_fires_gpu_double_submit() {
    let mut evs = clean_events();
    let submit = evs
        .iter()
        .position(|e| matches!(e, TraceEvent::GpuSubmit { .. }))
        .expect("scenario submits");
    let dup = evs[submit].clone();
    evs.insert(submit + 1, dup);
    let report = run(&evs);
    assert!(report.has(DiagCode::GpuDoubleSubmit), "{}", report.render());
}

#[test]
fn dispatching_onto_an_occupied_cpu_fires_cpu_conflict() {
    let mut evs = clean_events();
    // cpu 0 holds t0 from us(0); shove t1 onto it without switching t0 out.
    evs.insert(
        5,
        TraceEvent::CSwitch {
            at: us(5),
            cpu: 0,
            old: None,
            new: Some(key(1)),
            ready_since: None,
        },
    );
    let report = run(&evs);
    assert!(report.has(DiagCode::CpuConflict), "{}", report.render());
}

#[test]
fn mismatched_wait_reason_fires_wait_reason_mismatch() {
    let mut evs = clean_events();
    for ev in &mut evs {
        if let TraceEvent::WaitEnd {
            reason: reason @ WaitReason::Event { .. },
            ..
        } = ev
        {
            *reason = WaitReason::Event { id: 8 };
        }
    }
    let report = run(&evs);
    assert!(
        report.has(DiagCode::WaitReasonMismatch),
        "{}",
        report.render()
    );
}

#[test]
fn unknown_thread_fires_unknown_thread() {
    let mut evs = clean_events();
    evs.insert(
        3,
        TraceEvent::WaitBegin {
            at: us(0),
            key: key(42),
            reason: WaitReason::Sleep,
        },
    );
    let report = run(&evs);
    assert!(report.has(DiagCode::UnknownThread), "{}", report.render());
}

#[test]
fn exiting_on_cpu_fires_exit_on_cpu() {
    let mut evs = clean_events();
    // Remove t0's switch-out at us(25) so its ThreadEnd happens on-CPU.
    evs.retain(|e| {
        !matches!(e, TraceEvent::CSwitch { at, cpu: 0, old: Some(_), .. } if at.as_nanos() == 25_000)
    });
    let report = run(&evs);
    assert!(report.has(DiagCode::ExitOnCpu), "{}", report.render());
}
