//! The six workloads: their inputs, set-up, timed pass and output checks.
//!
//! Two input sets drive the Table II sweep through `RunContext` with a
//! `SimStore` attached, once into an empty store (`table2-cold`) and once
//! replaying a filled one (`table2-warm`). Two more are traces analysed by
//! the six `tracetool` calls, on the default path (`*-serial`) or at
//! `--analyzer-shards 2` (`*-sharded`): one large trace (`analyze-large-*`)
//! and thirty small ones (`analyze-suite-*`).

use crate::stats;
use crate::tools;
use cryptomine::Sha256;
use etwtrace::setl3;
use parastat::{paper, suite, Budget, Experiment, RunContext, RunRequest, SimStore};
use simcore::SimDuration;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};
use workloads::AppId;

/// Simulation workers of the Table II sweeps, `RunContext::pooled(2)`. A
/// constant rather than `nproc`, so both sides of a comparison run the same
/// configuration whatever host they run on.
pub const JOBS: usize = 2;

/// The seed the benchmark was tuned on; the Table II CSV is pinned at it.
pub const TUNING_SEED: u64 = 42;

/// SHA-256 of the Table II CSV at [`TUNING_SEED`]: byte-identical to the
/// committed `results/table2.csv` (`repro table2 --budget standard`).
pub const TABLE2_CSV_SHA256: &str =
    "5569e8a385787301662a9f9788753aa093aa5f01fb6923c0f536eaa427d2044a";

/// The inputs a workload runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Input {
    /// Table II at the `standard` budget: 30 apps × 30 s × 2 iterations.
    Table2,
    /// One Project CARS 2 trace, 120 s simulated (~721k events).
    Large,
    /// Table II at the `quick` budget: 30 traces of 15 s (~560k events).
    Suite,
}

impl Input {
    /// The experiments, seeded with `seed` (the base seed of every one).
    pub fn experiments(self, seed: u64) -> Vec<Experiment> {
        match self {
            Input::Table2 => table2(standard_budget(), seed),
            Input::Large => vec![Experiment::new(AppId::ProjectCars2)
                .budget(Budget {
                    duration: SimDuration::from_secs(120),
                    iterations: 1,
                })
                .seed(seed)],
            Input::Suite => table2(Budget::quick(), seed),
        }
    }
}

/// `repro --budget standard`: 30 s windows, 2 iterations.
pub fn standard_budget() -> Budget {
    Budget {
        duration: SimDuration::from_secs(30),
        iterations: 2,
    }
}

/// The Table II experiments `suite::run_table2` builds, at `seed`.
pub fn table2(budget: Budget, seed: u64) -> Vec<Experiment> {
    AppId::ALL
        .iter()
        .map(|&app| suite::table2_experiment(app, budget).seed(seed))
        .collect()
}

/// The requests `RunContext::run_experiments` submits for `exps`, in order.
pub fn requests(exps: &[Experiment]) -> Vec<RunRequest> {
    exps.iter()
        .flat_map(|e| (0..e.budget.iterations).map(|i| RunRequest::new(e, e.base_seed + i as u64)))
        .collect()
}

/// What one timed pass does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Pass {
    /// The sweep into an empty store: every request simulates.
    Cold,
    /// The sweep replayed from a filled store: every request is a disk hit.
    Warm,
    /// The six tool calls on the default path.
    Serial,
    /// The six tool calls at `--analyzer-shards 2`.
    Sharded,
}

/// One benchmark workload.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub input: Input,
    pub pass: Pass,
}

/// Every workload, in the order `parabench all` runs them.
pub const ALL: [Workload; 6] = [
    Workload {
        name: "table2-cold",
        input: Input::Table2,
        pass: Pass::Cold,
    },
    Workload {
        name: "table2-warm",
        input: Input::Table2,
        pass: Pass::Warm,
    },
    Workload {
        name: "analyze-large-serial",
        input: Input::Large,
        pass: Pass::Serial,
    },
    Workload {
        name: "analyze-large-sharded",
        input: Input::Large,
        pass: Pass::Sharded,
    },
    Workload {
        name: "analyze-suite-serial",
        input: Input::Suite,
        pass: Pass::Serial,
    },
    Workload {
        name: "analyze-suite-sharded",
        input: Input::Suite,
        pass: Pass::Sharded,
    },
];

/// The workload called `name`.
pub fn find(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

/// Operations attempted and failed. An operation is one simulation or
/// replay of a sweep, one tool call of an analyse pass, or one request of
/// the traced walk; a failed check or an `Err` fails it, and nothing panics.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one operation; an `Err` is reported on stderr.
    pub fn record(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.fail(1, &why);
        }
    }

    /// Counts `n` operations of which `failed` failed for `why`.
    fn ops(&mut self, n: u64, failed: u64, why: impl FnOnce() -> String) {
        self.attempted += n;
        if failed > 0 {
            self.fail(failed.min(n), &why());
        }
    }

    fn fail(&mut self, n: u64, why: &str) {
        self.failed += n;
        if self.failed <= 20 {
            eprintln!("parabench: FAILED {n} operation(s): {why}");
        }
    }
}

/// A working directory under `target/parabench/` for one run's stores;
/// removed when dropped.
pub struct WorkDir {
    root: PathBuf,
    next: std::cell::Cell<u32>,
}

impl WorkDir {
    pub fn new(workload: &str, seed: u64) -> WorkDir {
        let root = PathBuf::from(format!(
            "target/parabench/work-{workload}-seed{seed}-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&root);
        WorkDir {
            root,
            next: std::cell::Cell::new(0),
        }
    }

    /// A path no store has used yet (created lazily by `SimStore`).
    pub fn fresh(&self) -> PathBuf {
        let n = self.next.get();
        self.next.set(n + 1);
        self.root.join(format!("store-{n}"))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// A digest for comparing outputs within a run.
pub fn digest(bytes: &[u8]) -> u64 {
    let mut h = DefaultHasher::new();
    bytes.hash(&mut h);
    h.finish()
}

fn sha256_hex(bytes: &[u8]) -> String {
    Sha256::digest(bytes)
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect()
}

/// One encoded trace of an analyse workload.
pub struct Trace {
    pub app: AppId,
    pub bytes: Vec<u8>,
}

/// A workload's inputs after set-up, and the reference outputs its passes
/// are checked against.
pub struct Prepared {
    pub exps: Vec<Experiment>,
    /// The filled store `table2-warm` replays.
    warm_store: Option<PathBuf>,
    traces: Vec<Trace>,
    /// What the passes must reproduce: the Table II CSV of a sweep, the
    /// per-call report digests of an analyse pass.
    reference_csv: String,
    reference_calls: Vec<u64>,
    /// `setl3::encode` digests of the real `run_once` traces, one per
    /// request; filled only for the traced run, which checks against them.
    pub run_digests: Vec<u64>,
    /// Bytes of store entries one sweep writes, or of the analysed traces.
    pub data_bytes: u64,
    pub tlp_mae: f64,
    pub gpu_mae: f64,
}

impl Drop for Prepared {
    fn drop(&mut self) {
        if let Some(dir) = &self.warm_store {
            let _ = std::fs::remove_dir_all(dir);
        }
    }
}

impl Prepared {
    pub fn reference_csv(&self) -> Option<&str> {
        (!self.reference_csv.is_empty()).then_some(self.reference_csv.as_str())
    }

    /// A digest of every reference output, for checking that repeated
    /// set-ups agree.
    pub fn reference_digest(&self) -> u64 {
        let mut h = DefaultHasher::new();
        self.reference_csv.hash(&mut h);
        self.reference_calls.hash(&mut h);
        h.finish()
    }
}

/// The product of one Table II sweep.
pub struct Sweep {
    pub secs: f64,
    pub csv: String,
    rows: Vec<suite::AppMeasurement>,
    /// `RunContext::store_stats`: (disk hits, disk misses, quarantined).
    pub disk: (u64, u64, u64),
    /// `RunContext::cache_stats`: (memo hits, simulations).
    pub memo: (u64, u64),
    write_failures: usize,
    run_digests: Vec<u64>,
}

/// One Table II sweep as `repro table2` runs it: `suite::run_table2`'s body
/// with seeded experiments, on a fresh `RunContext` of `jobs` workers with
/// the store at `store` attached, then the report and the CSV. Timed from
/// the context's construction to the CSV; dropping the memoized runs is
/// not timed.
pub fn sweep(exps: &[Experiment], store: &Path, jobs: usize, with_digests: bool) -> Sweep {
    let t = stats::now();
    let mut ctx = RunContext::pooled(jobs);
    ctx.set_store(SimStore::open(store));
    let rows: Vec<suite::AppMeasurement> = ctx
        .run_experiments(exps)
        .into_iter()
        .map(|measured| suite::AppMeasurement {
            reference: paper::table2_row(measured.app),
            measured,
        })
        .collect();
    std::hint::black_box(suite::render_table2(&rows));
    let csv = suite::table2_csv(&rows);
    let secs = stats::secs_since(t);
    let (disk, memo, write_failures) = (
        ctx.store_stats(),
        ctx.cache_stats(),
        ctx.store_notes().len(),
    );
    let run_digests = if with_digests {
        // Memo hits: the runs this sweep just simulated or replayed.
        ctx.run_singles(requests(exps))
            .iter()
            .map(|run| digest(&setl3::encode(&run.trace)))
            .collect()
    } else {
        Vec::new()
    };
    Sweep {
        secs,
        csv,
        rows,
        disk,
        memo,
        write_failures,
        run_digests,
    }
}

/// Checks a sweep against the expected store traffic and the reference
/// CSV, counting one operation per simulation or replay.
fn check_sweep(s: &Sweep, pass: Pass, n: u64, reference: &str, seed: u64, tally: &mut Tally) {
    let (hits, misses, quarantined) = s.disk;
    // A replay that missed the store re-simulated; in a fresh store every
    // request must miss, and a quarantine means an entry was already there.
    let mut failed = match pass {
        Pass::Warm => n - hits.min(n),
        _ => n - misses.min(n) + quarantined,
    } + s.write_failures as u64;
    let mut why = format!("store stats {:?}, memo {:?}", s.disk, s.memo);
    let per_row = n / AppId::ALL.len().max(1) as u64;
    let (got, want): (Vec<&str>, Vec<&str>) =
        (s.csv.lines().collect(), reference.lines().collect());
    if got.len() != want.len() || got.first() != want.first() {
        failed = n;
        why.push_str("; CSV shape differs from the reference");
    } else {
        let bad = got.iter().zip(&want).filter(|(a, b)| a != b).count() as u64;
        failed += bad * per_row;
        if bad > 0 {
            why.push_str(&format!("; {bad} CSV row(s) differ from the reference"));
        }
    }
    if seed == TUNING_SEED && sha256_hex(s.csv.as_bytes()) != TABLE2_CSV_SHA256 {
        failed = n;
        why.push_str("; CSV is not the committed results/table2.csv");
    }
    tally.ops(n, failed, || why);
}

/// One analyse pass: the six calls over every trace, timed as a whole.
/// Returns the seconds taken and each call's outcome, in order.
pub fn analyze_pass(traces: &[Trace], sharded: bool) -> (f64, Vec<Result<tools::Output, String>>) {
    let t = stats::now();
    let outs: Vec<_> = traces
        .iter()
        .flat_map(|tr| {
            tools::CALLS
                .iter()
                .map(move |call| tools::run(call, &tr.bytes, tr.app.process_name(), sharded))
        })
        .collect();
    (stats::secs_since(t), outs)
}

/// Checks an analyse pass call by call against the reference digests.
fn check_calls(outs: &[Result<tools::Output, String>], reference: &[u64], tally: &mut Tally) {
    for (i, out) in outs.iter().enumerate() {
        let call = tools::CALLS[i % tools::CALLS.len()];
        tally.record(match out {
            Ok(o) if reference.get(i) == Some(&digest(o.text.as_bytes())) => Ok(()),
            Ok(_) => Err(format!("`{call}` report #{i} differs from the reference")),
            Err(e) => Err(format!("`{call}` #{i}: {e}")),
        });
    }
}

fn mae(pairs: impl Iterator<Item = (f64, f64)>) -> f64 {
    let (sum, n) = pairs.fold((0.0, 0usize), |(s, n), (a, b)| (s + (a - b).abs(), n + 1));
    sum / n.max(1) as f64
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

impl Workload {
    /// Set-up: everything before the first timed pass. It builds the
    /// inputs, runs one untimed warm-up pass and records the reference
    /// outputs the timed passes are checked against:
    ///
    /// * `table2-cold`: one cold sweep into an empty store (then deleted);
    /// * `table2-warm`: one cold sweep filling the store, one warm replay;
    /// * `analyze-*`: the traces simulated on `RunContext::pooled(2)` and
    ///   encoded as v3, one serial and one sharded pass, whose reports
    ///   must agree call by call.
    pub fn prepare(&self, seed: u64, work: &WorkDir, tally: &mut Tally, traced: bool) -> Prepared {
        let exps = self.input.experiments(seed);
        let mut p = Prepared {
            exps,
            warm_store: None,
            traces: Vec::new(),
            reference_csv: String::new(),
            reference_calls: Vec::new(),
            run_digests: Vec::new(),
            data_bytes: 0,
            tlp_mae: 0.0,
            gpu_mae: 0.0,
        };
        let n = requests(&p.exps).len() as u64;
        match self.pass {
            Pass::Cold | Pass::Warm => {
                let dir = work.fresh();
                let fill = sweep(&p.exps, &dir, JOBS, traced);
                p.data_bytes = dir_bytes(&dir);
                p.tlp_mae = mae(fill
                    .rows
                    .iter()
                    .map(|r| (r.measured.tlp.mean(), r.reference.tlp)));
                p.gpu_mae = mae(fill
                    .rows
                    .iter()
                    .map(|r| (r.measured.gpu_percent.mean(), r.reference.gpu)));
                check_sweep(&fill, Pass::Cold, n, &fill.csv, seed, tally);
                if self.pass == Pass::Warm {
                    let warm = sweep(&p.exps, &dir, JOBS, false);
                    check_sweep(&warm, Pass::Warm, n, &fill.csv, seed, tally);
                    p.warm_store = Some(dir);
                } else {
                    let _ = std::fs::remove_dir_all(&dir);
                }
                p.reference_csv = fill.csv;
                p.run_digests = fill.run_digests;
            }
            Pass::Serial | Pass::Sharded => {
                let ctx = RunContext::pooled(JOBS);
                let runs = ctx.run_singles(requests(&p.exps));
                p.traces = runs
                    .iter()
                    .zip(&p.exps)
                    .map(|(run, exp)| Trace {
                        app: exp.app,
                        bytes: setl3::encode(&run.trace),
                    })
                    .collect();
                drop(runs);
                p.data_bytes = p.traces.iter().map(|t| t.bytes.len() as u64).sum();
                p.run_digests = p.traces.iter().map(|t| digest(&t.bytes)).collect();
                let (_, serial) = analyze_pass(&p.traces, false);
                p.reference_calls = serial
                    .iter()
                    .map(|o| o.as_ref().map_or(0, |o| digest(o.text.as_bytes())))
                    .collect();
                check_calls(&serial, &p.reference_calls, tally);
                let (_, sharded) = analyze_pass(&p.traces, true);
                check_calls(&sharded, &p.reference_calls, tally);
                let measured: Vec<(AppId, (f64, f64))> = serial
                    .iter()
                    .filter_map(|o| o.as_ref().ok()?.tlp_gpu)
                    .zip(&p.traces)
                    .map(|(m, t)| (t.app, m))
                    .collect();
                p.tlp_mae = mae(measured
                    .iter()
                    .map(|(a, m)| (m.0, paper::table2_row(*a).tlp)));
                p.gpu_mae = mae(measured
                    .iter()
                    .map(|(a, m)| (m.1, paper::table2_row(*a).gpu)));
            }
        }
        p
    }

    /// Whether the workload's own pass runs on the 2-worker pool.
    pub fn parallel(&self) -> bool {
        self.pass != Pass::Serial
    }

    /// Threads the workload's pass keeps busy: a warm sweep replays on the
    /// calling thread while the pool idles.
    pub fn busy_threads(&self) -> usize {
        match self.pass {
            Pass::Cold => JOBS,
            Pass::Sharded => tools::SHARDS,
            Pass::Warm | Pass::Serial => 1,
        }
    }

    /// One pass over the workload's inputs, its outputs checked into
    /// `tally`: on the 2-worker pool if `parallel` (`RunContext::pooled(2)`,
    /// `--analyzer-shards 2`), else on the calling thread
    /// (`RunContext::serial()`, the default analyser path). The timed loop
    /// runs the workload's own kind; the traced run times both to report
    /// `runner.parallel_efficiency`.
    pub fn pass(
        &self,
        p: &Prepared,
        work: &WorkDir,
        seed: u64,
        parallel: bool,
        tally: &mut Tally,
    ) -> Timed {
        let jobs = if parallel { JOBS } else { 1 };
        let n = requests(&p.exps).len() as u64;
        let (dir, remove) = match self.pass {
            Pass::Cold => (work.fresh(), true),
            Pass::Warm => (
                p.warm_store.clone().expect("warm set-up fills a store"),
                false,
            ),
            Pass::Serial | Pass::Sharded => {
                let (secs, outs) = analyze_pass(&p.traces, parallel);
                check_calls(&outs, &p.reference_calls, tally);
                return Timed {
                    secs,
                    counts: [0; 4],
                };
            }
        };
        let s = sweep(&p.exps, &dir, jobs, false);
        check_sweep(&s, self.pass, n, &p.reference_csv, seed, tally);
        if remove {
            let _ = std::fs::remove_dir_all(&dir);
        }
        Timed {
            secs: s.secs,
            counts: [s.memo.0, s.disk.0, s.disk.1, s.disk.2],
        }
    }
}

/// A timed pass's wall time and its `RunContext` counters: memo hits, disk
/// hits, disk misses, quarantined. The analyse workloads submit nothing to
/// a `RunContext` and count zeros.
pub struct Timed {
    pub secs: f64,
    pub counts: [u64; 4],
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The first two Table II experiments at a 2 s budget: the same code
    /// paths as the real inputs, small enough for a debug build.
    fn small(seed: u64) -> Vec<Experiment> {
        let budget = Budget {
            duration: SimDuration::from_secs(2),
            iterations: 2,
        };
        table2(budget, seed).into_iter().take(2).collect()
    }

    fn traces(exps: &[Experiment]) -> Vec<Trace> {
        let runs = RunContext::pooled(JOBS).run_singles(requests(exps));
        runs.iter()
            .zip(requests(exps))
            .map(|(run, req)| Trace {
                app: req.experiment.app,
                bytes: setl3::encode(&run.trace),
            })
            .collect()
    }

    fn digests(outs: &[Result<tools::Output, String>]) -> Vec<u64> {
        outs.iter()
            .map(|o| digest(o.as_ref().expect("call succeeds").text.as_bytes()))
            .collect()
    }

    #[test]
    fn two_passes_at_one_seed_give_identical_digests() {
        let work = WorkDir::new("unit-digests", TUNING_SEED);
        let exps = small(TUNING_SEED);
        let a = sweep(&exps, &work.fresh(), JOBS, true);
        let b = sweep(&exps, &work.fresh(), JOBS, true);
        assert_eq!(a.csv, b.csv);
        assert_eq!(a.run_digests, b.run_digests);
        assert_eq!(a.disk, (0, 4, 0));

        let traces = traces(&exps);
        let first = digests(&analyze_pass(&traces, false).1);
        assert_eq!(first.len(), traces.len() * tools::CALLS.len());
        assert_eq!(first, digests(&analyze_pass(&traces, false).1));
        assert_eq!(first, digests(&analyze_pass(&traces, true).1));
    }

    #[test]
    fn held_out_seed_7_gives_another_table2_csv() {
        let work = WorkDir::new("unit-seeds", TUNING_SEED);
        let tuning = sweep(&small(TUNING_SEED), &work.fresh(), JOBS, false);
        let held_out = sweep(&small(7), &work.fresh(), JOBS, false);
        assert_ne!(tuning.csv, held_out.csv);
    }
}
