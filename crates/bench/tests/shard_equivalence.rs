//! Property-based pin of the sharded-analysis contract: for arbitrary
//! mixes of compute, sleep, event signalling/waiting, GPU submission and
//! yields — and for *any* shard count, on either the serial reference
//! runner or a real thread pool — every sharded analyzer must produce
//! exactly the report its materialized twin computes from the same trace.
//! Not "close": equal, field for field, so the rendered bytes match at any
//! `--analyzer-shards` setting. The one-pass `tlp` fold must equal the five
//! materialized analyzers it fuses.

use etwtrace::{analysis, setl3, EtlTrace, SerialShards, ShardRunner, ShardedTrace};
use machine::{Action, Machine, MachineConfig, ThreadCtx, ThreadProgram, Work};
use parastat::ThreadPoolRunner;
use proptest::prelude::*;
use simcore::SimDuration;

/// A data-driven program over the full action vocabulary (same shape as
/// the timeline conservation property test). Event opcodes bank a unit
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

fn random_trace(programs: Vec<Vec<(u8, u16)>>, logical: usize, seed: u64) -> EtlTrace {
    let mut m = Machine::new(MachineConfig::study_rig(logical.max(2), true).with_seed(seed));
    let ev = m.create_event();
    assert_eq!(ev, machine::EventId(0));
    let pid = m.add_process("shard.exe");
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
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Whatever the programs do, however many shards carve the block list,
    /// and whichever runner drives them, every analyzer report is equal to
    /// the one the materialize-then-fold pipeline computes.
    #[test]
    fn every_sharded_analyzer_equals_its_materialized_twin(
        programs in proptest::collection::vec(arb_program(), 1..6),
        logical in 1usize..6,
        shards in 1usize..9,
        seed in any::<u64>(),
    ) {
        let trace = random_trace(programs, logical, seed);
        let sharded = ShardedTrace::from_bytes(setl3::encode(&trace)).unwrap();
        let filter = trace.pids_by_name("shard");
        let opts = etwtrace::hb::HbOptions::default();
        let tlp = analysis::TlpReport {
            profile: analysis::concurrency(&trace, &filter),
            gpu: analysis::gpu_utilization(&trace, &filter, None),
            latency: analysis::scheduling_latency(&trace, &filter),
            schedule: analysis::schedule_stats(&trace, &filter),
            engines: analysis::gpu_engine_breakdown(&trace, &filter, 0),
        };
        let pool = ThreadPoolRunner::new(2);
        let runners: [&dyn ShardRunner; 2] = [&SerialShards, &pool];
        for runner in runners {
            prop_assert_eq!(
                &sharded.pids_by_name(runner, shards, "shard").unwrap(),
                &filter
            );
            prop_assert_eq!(
                etwtrace::verify::verify_sharded(&sharded, runner, shards).unwrap(),
                etwtrace::verify::verify_trace(&trace)
            );
            prop_assert_eq!(
                etwtrace::hb::analyze_sharded(&sharded, &opts, runner, shards).unwrap(),
                etwtrace::hb::analyze(&trace, &opts)
            );
            prop_assert_eq!(
                etwtrace::blame::blame_sharded(&sharded, &filter, runner, shards).unwrap(),
                etwtrace::blame::blame(&trace, &filter)
            );
            let cp_sharded =
                etwtrace::critical::critical_path_sharded(&sharded, &filter, runner, shards)
                    .unwrap();
            let cp = etwtrace::critical::critical_path(&trace, &filter);
            prop_assert_eq!(
                cp_sharded.measured_tlp.to_bits(),
                cp.measured_tlp.to_bits()
            );
            prop_assert_eq!(cp_sharded, cp);
            prop_assert_eq!(
                etwtrace::timeline::timeline_sharded(&sharded, 31, runner, shards).unwrap(),
                etwtrace::timeline::fold_trace(&trace, 31)
            );
            prop_assert_eq!(
                analysis::concurrency_sharded(&sharded, &filter, runner, shards).unwrap(),
                analysis::concurrency(&trace, &filter)
            );
            prop_assert_eq!(
                analysis::gpu_utilization_sharded(&sharded, &filter, None, runner, shards)
                    .unwrap(),
                analysis::gpu_utilization(&trace, &filter, None)
            );
            prop_assert_eq!(
                analysis::schedule_stats_sharded(&sharded, &filter, runner, shards).unwrap(),
                analysis::schedule_stats(&trace, &filter)
            );
            prop_assert_eq!(
                analysis::gpu_engine_breakdown_sharded(&sharded, &filter, 0, runner, shards)
                    .unwrap(),
                analysis::gpu_engine_breakdown(&trace, &filter, 0)
            );
            prop_assert_eq!(
                analysis::scheduling_latency_sharded(&sharded, &filter, runner, shards).unwrap(),
                analysis::scheduling_latency(&trace, &filter)
            );
            for width in [1, 2, 7] {
                prop_assert_eq!(
                    &analysis::tlp_report_sharded(&sharded, &filter, runner, width).unwrap(),
                    &tlp
                );
            }
        }
    }
}
