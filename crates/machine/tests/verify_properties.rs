//! Property-based check of the trace emission contract: for arbitrary mixes
//! of compute, sleep, event signalling/waiting, GPU submission and yields,
//! the machine's sealed trace must pass the streaming invariant checker with
//! zero findings and the happens-before pass with no structural findings.
//! The same trace with every tid shifted by 2^40, past the thread table's
//! tid-indexed array, must give the same reports.

use etwtrace::verify::{check, verify_trace};
use etwtrace::{analyze, EtlTrace, HbOptions, ThreadKey, TraceBuilder, TraceEvent};
use machine::{Action, Machine, MachineConfig, ThreadCtx, ThreadProgram, Work};
use proptest::prelude::*;
use simcore::SimDuration;

/// A data-driven program over the full action vocabulary. Event opcodes
/// alternate signal/wait against a shared event so waits are eventually
/// served; GPU opcodes submit a small packet and immediately wait on it.
#[derive(Clone, Debug)]
struct MixedProgram {
    steps: Vec<(u8, u16)>,
    idx: usize,
}

impl ThreadProgram for MixedProgram {
    fn next(&mut self, ctx: &mut ThreadCtx<'_>) -> Action {
        let Some(&(op, amount)) = self.steps.get(self.idx) else {
            return Action::Exit;
        };
        self.idx += 1;
        let f = amount as f64;
        match op % 6 {
            0 => Action::Compute(Work::busy_us(f * 10.0)),
            1 => Action::Sleep(SimDuration::from_micros(amount as u64 * 10)),
            2 => Action::Yield,
            3 => {
                // Bank a unit first so this wait (or a later one) is served.
                let ev = machine::EventId(0);
                ctx.signal(ev);
                Action::WaitEvent(ev)
            }
            4 => {
                ctx.signal_n(machine::EventId(0), 2);
                Action::Compute(Work::busy_us(f))
            }
            _ => {
                let sub = ctx.submit_gpu(0, 0, simgpu::PacketKind::Compute, f * 0.05);
                Action::WaitGpu(sub)
            }
        }
    }
}

/// A thread that computes for the whole window, so the machine always has a
/// runnable thread and an end-of-trace event wait is never a true deadlock.
struct Workhorse;

impl ThreadProgram for Workhorse {
    fn next(&mut self, _ctx: &mut ThreadCtx<'_>) -> Action {
        Action::Compute(Work::busy_us(500.0))
    }
}

/// `trace` with every tid moved up by 2^40, which keeps key order.
fn shifted(trace: &EtlTrace) -> EtlTrace {
    let up = |k: &ThreadKey| ThreadKey {
        pid: k.pid,
        tid: k.tid + (1 << 40),
    };
    let mut b = TraceBuilder::new(trace.n_logical_cpus());
    for ev in trace.events() {
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
        b.push(ev);
    }
    b.finish(trace.start(), trace.end())
}

fn arb_program() -> impl Strategy<Value = Vec<(u8, u16)>> {
    proptest::collection::vec((any::<u8>(), 1u16..400), 1..20)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whatever the programs do, the sealed trace has zero verifier
    /// findings, and the happens-before pass reports no deadlock or lost
    /// wakeup (the machine's semaphores wake FIFO).
    #[test]
    fn arbitrary_programs_emit_verifiable_traces(
        programs in proptest::collection::vec(arb_program(), 1..8),
        logical in 1usize..=12,
        seed: u64,
    ) {
        let mut cfg = MachineConfig::study_rig(logical.max(2), true).with_seed(seed);
        let cpu = simcpu::presets::i7_8700k();
        cfg.topology = simcpu::Topology::with_logical_cpus(&cpu, logical, true);
        let mut m = Machine::new(cfg);
        let ev = m.create_event();
        prop_assert_eq!(ev, machine::EventId(0));
        let pid = m.add_process("verify.exe");
        m.spawn(pid, "workhorse", Box::new(Workhorse));
        for (i, steps) in programs.into_iter().enumerate() {
            m.spawn(pid, &format!("t{i}"), Box::new(MixedProgram { steps, idx: 0 }));
        }
        m.run_for(SimDuration::from_millis(100));
        let trace = m.into_trace();

        let report = verify_trace(&trace);
        prop_assert!(report.is_clean(), "verifier findings:\n{}", report.render());

        let hb = analyze(&trace, &HbOptions::default());
        prop_assert!(hb.is_clean(), "happens-before findings:\n{}", hb.render());

        // The one checker pass gives both reports, on the trace and on
        // its shifted twin. Clean reports carry no keys, so equal reports
        // need no mapping.
        let far = shifted(&trace);
        for t in [&trace, &far] {
            let (verified, causal) = check(t);
            prop_assert_eq!(&verified, &verify_trace(t));
            prop_assert_eq!(&verified, &report);
            prop_assert_eq!(&causal, &analyze(t, &HbOptions::default()));
            prop_assert_eq!(&causal, &hb);
        }
    }
}
