//! End-to-end trace-pipeline tests: determinism, CSV export round-trips,
//! and Equation 1 recomputed from the exported columns.

use desktop_parallelism::etwtrace::{analysis, export, PidSet};
use desktop_parallelism::machine::{Machine, MachineConfig};
use desktop_parallelism::parastat::{Budget, Experiment};
use desktop_parallelism::simcore::{Histogram, SimDuration};
use desktop_parallelism::workloads::{build, AppId, WorkloadOpts};

#[test]
fn identical_seeds_produce_identical_traces() {
    let run = |seed: u64| {
        Experiment::new(AppId::VlcMediaPlayer)
            .budget(Budget {
                duration: SimDuration::from_secs(8),
                iterations: 1,
            })
            .run_once(seed)
    };
    let a = run(7);
    let b = run(7);
    assert_eq!(a.trace, b.trace, "same seed must replay bit-identically");
    assert_ne!(a.trace.events().len(), 0);
    // A different seed produces a different trace but nearly the same metric.
    let c = run(8);
    assert_ne!(a.trace, c.trace);
    assert!((a.tlp() - c.tlp()).abs() < 0.3);
}

#[test]
fn csv_exports_have_the_wpa_columns() {
    let mut m = Machine::new(MachineConfig::study_rig(12, true));
    let opts = WorkloadOpts {
        duration: SimDuration::from_secs(3),
        ..WorkloadOpts::default()
    };
    build(AppId::QuickTime, &mut m, &opts);
    m.run_for(SimDuration::from_secs(3));
    let trace = m.into_trace();

    let cpu_csv = export::cpu_usage_precise(&trace);
    assert!(cpu_csv.starts_with("Process,CPU,ReadyTime(us),SwitchInTime(us)"));
    assert!(cpu_csv.lines().count() > 10);
    assert!(cpu_csv.contains("quicktimeplayer.exe"));

    let gpu_csv = export::gpu_utilization_fm(&trace);
    assert!(gpu_csv.starts_with("Process,StartExecution(us),Finished(us)"));
    assert!(gpu_csv.lines().count() > 5);
}

/// Recomputes GPU utilization from the exported `GPU Utilization (FM)`
/// columns — the paper's custom-script step — and checks it matches the
/// analyzer (the "cross-validate the GPU data with those reported by WPA"
/// step of §III-C).
#[test]
fn equation_from_exported_csv_matches_analyzer() {
    let mut m = Machine::new(MachineConfig::study_rig(12, true));
    let opts = WorkloadOpts {
        duration: SimDuration::from_secs(5),
        ..WorkloadOpts::default()
    };
    let pid = build(AppId::PhoenixMiner, &mut m, &opts);
    m.run_for(SimDuration::from_secs(5));
    let trace = m.into_trace();
    let filter: PidSet = [pid.0].into_iter().collect();
    let analyzer = analysis::gpu_utilization(&trace, &filter, Some(0));

    // Parse the CSV and integrate busy time (union via interval sweep).
    let csv = export::gpu_utilization_fm(&trace);
    let mut edges: Vec<(f64, i32)> = Vec::new();
    for line in csv.lines().skip(1) {
        let mut cols = line.split(',');
        let process = cols.next().unwrap();
        if !process.starts_with("phoenixminer") {
            continue;
        }
        let start: f64 = cols.next().unwrap().parse().unwrap();
        let end: f64 = cols.next().unwrap().parse().unwrap();
        edges.push((start, 1));
        edges.push((end, -1));
    }
    edges.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut depth = 0;
    let mut busy_us = 0.0;
    let mut last = 0.0;
    for (t, d) in edges {
        if depth > 0 {
            busy_us += t - last;
        }
        last = t;
        depth += d;
    }
    let window_us = trace.window().as_secs_f64() * 1e6;
    let busy_frac = busy_us / window_us;
    assert!(
        (busy_frac - analyzer.busy_frac).abs() < 0.01,
        "csv {busy_frac} vs analyzer {}",
        analyzer.busy_frac
    );
    assert!(busy_frac > 0.99, "phoenix should saturate the GPU");
}

/// Equation 1 invariants on a real application profile.
#[test]
fn concurrency_profile_is_a_distribution() {
    let run = Experiment::new(AppId::Firefox)
        .budget(Budget {
            duration: SimDuration::from_secs(10),
            iterations: 1,
        })
        .run_once(3);
    let profile = run.profile();
    let fractions = profile.fractions();
    let sum: f64 = fractions.iter().sum();
    assert!((sum - 1.0).abs() < 1e-9, "c fractions sum to {sum}");
    assert_eq!(fractions.len(), 13);
    // TLP equals the Equation 1 recomputation by hand.
    let busy = 1.0 - fractions[0];
    let weighted: f64 = fractions
        .iter()
        .enumerate()
        .skip(1)
        .map(|(i, c)| i as f64 * c)
        .sum();
    assert!((profile.tlp() - weighted / busy).abs() < 1e-12);
}

#[test]
fn etl_file_roundtrips_a_real_workload_trace() {
    // Record a real application trace, save it as a binary `.etl`, reload
    // it, and confirm the full analysis pipeline produces identical output.
    let run = Experiment::new(AppId::VlcMediaPlayer)
        .budget(Budget {
            duration: SimDuration::from_secs(6),
            iterations: 1,
        })
        .run_once(11);
    let buf = desktop_parallelism::etwtrace::setl3::encode(&run.trace);
    assert!(buf.len() > 1000, "trace file is {} bytes", buf.len());
    let back = desktop_parallelism::etwtrace::etl::read_etl(buf.as_slice()).unwrap();
    assert_eq!(run.trace, back);
    let a = analysis::concurrency(&run.trace, &run.filter);
    let b = analysis::concurrency(&back, &run.filter);
    assert_eq!(a.fractions(), b.fractions());
    assert_eq!(
        export::cpu_usage_precise(&run.trace),
        export::cpu_usage_precise(&back)
    );
}

#[test]
fn merged_histograms_equal_sum_of_parts() {
    let budget = Budget {
        duration: SimDuration::from_secs(5),
        iterations: 1,
    };
    let a = Experiment::new(AppId::Word).budget(budget).run_once(1);
    let b = Experiment::new(AppId::Word).budget(budget).run_once(2);
    let mut merged = Histogram::new(12);
    merged.merge(a.profile().histogram());
    merged.merge(b.profile().histogram());
    let total = a.profile().histogram().total() + b.profile().histogram().total();
    assert_eq!(merged.total(), total);
}
