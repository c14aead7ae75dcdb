//! Property-based check of the timeline fold's conservation contract: for
//! arbitrary mixes of compute, sleep, event signalling/waiting, GPU
//! submission and yields, and for any bucket count, the per-bucket sums
//! must equal the whole-trace totals *exactly* (integer nanoseconds, no
//! rounding slop), the buckets must tile the window, and the totals must
//! be independent of the bucket count. The streaming decoder path must
//! agree byte-for-byte with the in-memory fold. The same generator checks
//! that the Fig. 5–7/9 series are their summaries cut into bins, and, in
//! debug builds, that every CPU busy figure the analysers read off the
//! trace equals the occupancy the scheduler integrated itself.

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

/// Runs `programs` for 50 ms; the machine is returned unsealed.
fn simulate(programs: Vec<Vec<(u8, u16)>>, logical: usize, seed: u64) -> Machine {
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
    m
}

fn random_trace(programs: Vec<Vec<(u8, u16)>>, logical: usize, seed: u64) -> EtlTrace {
    simulate(programs, logical, seed).into_trace()
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

/// Blame's per-thread time states over all pids, summed: (ready, running).
fn blame_ready_and_running(trace: &EtlTrace) -> (u64, u64) {
    let report = etwtrace::blame::blame(trace, &trace.all_pids());
    report
        .per_thread
        .iter()
        .fold((0, 0), |(ready, running), (_, b)| {
            (ready + b.ready_ns, running + b.running_ns)
        })
}

/// The timeline and blame read one ready rule: a started thread is ready
/// until it first runs or waits.
#[test]
fn timeline_ready_time_is_blames_on_handoff_traces() {
    for rounds in [1, 17, 500] {
        let trace = repro_bench::Handoff { rounds }.trace();
        let tl = timeline::fold_trace(&trace, 5);
        let (ready, running) = blame_ready_and_running(&trace);
        assert_eq!(tl.totals.ready_ns, ready, "{rounds} rounds");
        assert_eq!(tl.totals.busy_cpu_ns, running, "{rounds} rounds");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The timeline's ready time is the sum of blame's per-thread ready
    /// time, and its busy time the sum of their running time, whatever the
    /// programs do: the two read one replay.
    #[test]
    fn timeline_ready_time_is_blames(
        programs in proptest::collection::vec(arb_program(), 1..8),
        logical in 2usize..=12,
        seed: u64,
    ) {
        let trace = random_trace(programs, logical, seed);
        let tl = timeline::fold_trace(&trace, 3);
        let (ready, running) = blame_ready_and_running(&trace);
        prop_assert_eq!(tl.totals.ready_ns, ready);
        prop_assert_eq!(tl.totals.busy_cpu_ns, running);
    }
}

/// The ground truth: each analyser's CPU busy time against the totals
/// `Machine::sync` keeps in debug builds.
#[cfg(debug_assertions)]
mod truth {
    use super::*;
    use etwtrace::{blame, critical, ShardedTrace};
    use parastat::ThreadPoolRunner;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// The timeline's busy, non-idle and per-CPU time, blame's app CPU
        /// busy time and the critical path's CPU time over all pids equal
        /// the scheduler's own clock, in memory, streamed, and sharded at
        /// 1, 2 and 7 shards.
        #[test]
        fn busy_time_equals_the_schedulers_own_clock(
            programs in proptest::collection::vec(arb_program(), 1..8),
            logical in 2usize..=12,
            seed: u64,
        ) {
            let m = simulate(programs, logical, seed);
            let truth = m.cpu_truth().clone();
            let trace = m.into_trace();
            let all = trace.all_pids();
            let encoded = setl3::encode(&trace);
            let sharded = ShardedTrace::from_bytes(encoded.clone()).expect("index");
            let pool = ThreadPoolRunner::new(2);
            let mut timelines = vec![
                timeline::fold_trace(&trace, 7),
                timeline::read_timeline(&encoded, 7).expect("stream v3"),
            ];
            let mut blames = vec![blame::blame(&trace, &all)];
            let mut criticals = vec![critical::critical_path(&trace, &all)];
            for shards in [1, 2, 7] {
                timelines.push(timeline::timeline_sharded(&sharded, 7, &pool, shards).expect("fold"));
                blames.push(blame::blame_sharded(&sharded, &all, &pool, shards).expect("fold"));
                criticals.push(
                    critical::critical_path_sharded(&sharded, &all, &pool, shards).expect("fold"),
                );
            }
            for tl in &timelines {
                prop_assert_eq!(tl.totals.busy_cpu_ns, truth.core_ns());
                prop_assert_eq!(tl.totals.nonidle_ns, truth.nonidle_ns());
                prop_assert_eq!(&tl.totals.per_cpu_busy_ns, &truth.cpu_busy_ns);
            }
            for report in &blames {
                prop_assert_eq!(report.cpu_busy_ns, truth.core_ns());
            }
            for path in &criticals {
                prop_assert_eq!(path.cpu_busy.as_nanos(), truth.core_ns());
            }
        }
    }
}
