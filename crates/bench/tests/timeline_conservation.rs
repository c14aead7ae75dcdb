//! Property-based check of the timeline fold's conservation contract: for
//! arbitrary mixes of compute, sleep, event signalling/waiting, GPU
//! submission and yields, and for any bucket count, the per-bucket sums
//! must equal the whole-trace totals *exactly* (integer nanoseconds, no
//! rounding slop), the buckets must tile the window, and the totals must
//! be independent of the bucket count. The streaming decoder path must
//! agree byte-for-byte with the in-memory fold. The same generator checks
//! that the Fig. 5–7/9 series are their summaries cut into bins.

use etwtrace::{analysis, setl3, timeline, EtlTrace};
use machine::{Action, Machine, MachineConfig, ThreadCtx, ThreadProgram, Work};
use proptest::prelude::*;
use simcore::SimDuration;

/// A data-driven program over the full action vocabulary (same shape as the
/// machine crate's verifier property test). Event opcodes bank a unit
/// before waiting so waits are eventually served; GPU opcodes submit a
/// small packet and immediately wait on it.
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

fn arb_program() -> impl Strategy<Value = Vec<(u8, u16)>> {
    proptest::collection::vec((any::<u8>(), 1u16..400), 1..20)
}

/// `a` and `b` agree to 1e-9 of the larger magnitude.
fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs())
}

fn random_trace(programs: Vec<Vec<(u8, u16)>>, logical: usize, seed: u64) -> EtlTrace {
    let mut m = Machine::new(MachineConfig::study_rig(logical.max(2), true).with_seed(seed));
    let ev = m.create_event();
    assert_eq!(ev, machine::EventId(0));
    let pid = m.add_process("timeline.exe");
    for (i, steps) in programs.into_iter().enumerate() {
        m.spawn(
            pid,
            &format!("t{i}"),
            Box::new(MixedProgram { steps, idx: 0 }),
        );
    }
    m.run_for(SimDuration::from_millis(50));
    m.into_trace()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Whatever the programs do and however the window is bucketed, every
    /// nanosecond of busy, wait, ready and GPU time lands in exactly one
    /// bucket: sums equal totals, field for field.
    #[test]
    fn bucket_sums_equal_whole_trace_totals(
        programs in proptest::collection::vec(arb_program(), 1..8),
        logical in 2usize..=12,
        seed: u64,
    ) {
        let trace = random_trace(programs, logical, seed);
        let reference = timeline::fold_trace(&trace, 1);
        for n_buckets in [1usize, 2, 3, 7, 16, 97] {
            let tl = timeline::fold_trace(&trace, n_buckets);
            prop_assert_eq!(tl.buckets.len(), n_buckets);
            prop_assert!(
                tl.check_conservation().is_ok(),
                "conservation failed at {} buckets: {:?}",
                n_buckets,
                tl.check_conservation()
            );
            // Totals are a property of the trace, not of the bucketing.
            prop_assert_eq!(&tl.totals, &reference.totals);
        }
    }

    /// A series with one bin over the whole window is its summary: the
    /// instantaneous TLP equals Eq. 1 TLP, and the GPU busy series equals
    /// GPU utilization on every device and on device 0.
    #[test]
    fn one_bin_series_equal_their_summaries(
        programs in proptest::collection::vec(arb_program(), 1..8),
        logical in 2usize..=12,
        seed: u64,
    ) {
        let trace = random_trace(programs, logical, seed);
        let filter = trace.pids_by_name("timeline");
        let window = trace.window();
        let tlp = analysis::instantaneous_tlp(&trace, &filter, window);
        prop_assert_eq!(tlp.len(), 1);
        let eq1 = analysis::concurrency(&trace, &filter).tlp();
        prop_assert!(close(tlp.points()[0].1, eq1), "series {:?}, Eq. 1 {}", tlp, eq1);
        for gpu in [None, Some(0)] {
            let series = analysis::gpu_util_series(&trace, &filter, gpu, window);
            prop_assert_eq!(series.len(), 1);
            let util = analysis::gpu_utilization(&trace, &filter, gpu).percent();
            prop_assert!(
                close(series.points()[0].1, util),
                "gpu {:?}: series {:?}, utilization {}",
                gpu,
                series,
                util
            );
        }
    }

    /// The streaming v3 path (varint decode + checksums, no event vector)
    /// produces the same timeline as folding the in-memory event log.
    #[test]
    fn streaming_fold_matches_in_memory_fold(
        programs in proptest::collection::vec(arb_program(), 1..5),
        seed: u64,
    ) {
        let trace = random_trace(programs, 8, seed);
        let encoded = setl3::encode(&trace);
        let streamed = timeline::read_timeline(&encoded[..], 13).expect("stream v3");
        let folded = timeline::fold_trace(&trace, 13);
        prop_assert_eq!(streamed.render(), folded.render());
        prop_assert_eq!(streamed.to_csv(), folded.to_csv());
        prop_assert_eq!(&streamed.totals, &folded.totals);
    }
}
