//! The run-execution layer: canonical run requests, a memoizing result
//! cache, and a thread pool that resolves cache misses.
//!
//! The paper's protocol is embarrassingly parallel — Table II alone is
//! 30 applications × 3 iterations of *independent* 60 s simulations — and
//! several figures re-simulate identical configurations (HandBrake at
//! 4 logical cores appears in Fig. 4, Fig. 5 and Fig. 8). This module
//! removes both sources of waste without touching the simulator:
//!
//! * [`RunRequest`] — one iteration of one [`Experiment`] at one seed, in
//!   canonical form with a stable [cache key](RunRequest::cache_key).
//! * [`ThreadPoolRunner`] — runs an index closure over `0..n` on a
//!   [`std::thread::scope`] pool, or inline on the calling thread at
//!   width 1. Each job constructs *and consumes* its own single-threaded
//!   [`machine::Machine`], so no simulator state ever crosses a thread
//!   boundary; only the plain-data [`SingleRun`] result moves back.
//! * [`RunContext`] — the memoizing front end every suite/figure builder
//!   submits through. Duplicate requests (within a batch or across
//!   batches) resolve once and share one `Arc<SingleRun>`. Each pool job
//!   resolves one memory miss end to end: store load, then (on a miss)
//!   simulation and write-back. Results and every counter, note and
//!   verification report are folded in submission order, so every
//!   downstream report, CSV and Prometheus rendering is byte-identical
//!   whatever the job count.
//!
//! Determinism argument: the DES guarantees identical (config, seed) ⇒
//! identical trace and metrics, and a store entry is a pure function of
//! its key. Workers only race for *which* request to resolve next, never
//! on shared state, and the batch result vector is indexed by submission
//! position, not completion order. Aggregation (means, σ, histogram
//! merges) therefore consumes runs in exactly the order the serial path
//! produced them.

use crate::experiment::{Experiment, Measurement, SingleRun};
use crate::store::{LoadOutcome, SimStore};
use etwtrace::shard::ShardRunner;
use simobs::span;
use std::collections::{HashMap, HashSet};
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Environment variable overriding the default job count (used by
/// [`RunContext::from_env`], the `repro` binary and CI).
pub const JOBS_ENV: &str = "PARASTAT_JOBS";

/// One iteration of one experiment at one seed — the unit of work the
/// runners execute and the cache memoizes.
#[derive(Clone, Debug)]
pub struct RunRequest {
    /// The experiment, normalized (see [`RunRequest::new`]).
    pub experiment: Experiment,
    /// The iteration seed (`base_seed + i` for iteration `i`).
    pub seed: u64,
}

/// A stable, content-derived cache key for a [`RunRequest`].
///
/// Two requests with the same key run the same machine configuration,
/// workload and seed, and therefore — by the simulator's determinism
/// guarantee — produce identical [`SingleRun`]s.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct RunKey(String);

impl RunKey {
    /// The canonical key string (what the persistent store hashes and
    /// embeds in entries for collision detection).
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl RunRequest {
    /// Canonicalizes an experiment + seed into a request.
    ///
    /// Fields that cannot influence a single iteration are normalized away
    /// so equivalent work shares one cache entry: `budget.iterations`
    /// (a single run is always one iteration), `base_seed` (the explicit
    /// `seed` is what reaches the machine) and `opts.duration` (pinned to
    /// `budget.duration`, exactly as [`Experiment::run_once`] does).
    pub fn new(experiment: &Experiment, seed: u64) -> RunRequest {
        let mut experiment = experiment.clone();
        experiment.budget.iterations = 1;
        experiment.base_seed = 0;
        experiment.opts.duration = experiment.budget.duration;
        RunRequest { experiment, seed }
    }

    /// The request's content-derived cache key.
    ///
    /// Built from the canonical `Debug` rendering of the normalized
    /// experiment — every field that reaches the machine configuration or
    /// the workload builder is part of the derived `Debug` output, and the
    /// rendering of plain data (enums, floats, integers) is deterministic.
    pub fn cache_key(&self) -> RunKey {
        RunKey(format!("{:?}|seed={}", self.experiment, self.seed))
    }

    /// Runs the iteration on the calling thread.
    pub fn execute(&self) -> SingleRun {
        self.experiment.run_once(self.seed)
    }
}

/// Fans index-tagged work out over `jobs` scoped worker threads.
///
/// Workers claim indices through an atomic cursor; callers deposit each
/// result into the index's own slot, so completion order never leaks into
/// output. The same pool runs the [`RunContext`]'s run batches and the
/// sharded trace analyzers. No simulator state is shared: a job's
/// `Machine` (and everything `Rc`-shaped a future machine revision might
/// hold) lives and dies inside one worker.
#[derive(Clone, Copy, Debug)]
pub struct ThreadPoolRunner {
    jobs: usize,
}

impl ThreadPoolRunner {
    /// A pool with `jobs` workers (clamped to at least 1).
    pub fn new(jobs: usize) -> ThreadPoolRunner {
        ThreadPoolRunner { jobs: jobs.max(1) }
    }
}

/// Shard bodies and run-batch workers are both closures over `Sync` state.
/// Callers order results by index, so worker scheduling can never leak
/// into rendered output.
impl ShardRunner for ThreadPoolRunner {
    /// Calls `f(0..shards)` on up to `jobs` scoped workers, or inline on
    /// the calling thread when only one worker would run.
    fn run_shards(&self, shards: usize, f: &(dyn Fn(usize) + Sync)) {
        let workers = self.jobs.min(shards);
        if workers <= 1 {
            for i in 0..shards {
                f(i);
            }
            return;
        }
        let cursor = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= shards {
                        break;
                    }
                    f(i);
                });
            }
        });
    }
}

/// The disk tier's answer to one memory-missed request.
enum Disk {
    /// No store attached.
    Off,
    Hit,
    Miss,
    /// The entry failed a load check (the reason) and was quarantined.
    Quarantined(String),
}

/// One memory-missed request, resolved end to end on a pool worker.
struct Resolved {
    disk: Disk,
    /// The stored run on a hit, else a fresh simulation.
    run: SingleRun,
    /// Why the fresh run's write-back failed, if it did.
    save_error: Option<std::io::Error>,
}

/// The memoizing execution front end: suite and figure builders submit
/// [`RunRequest`]s here instead of driving machines themselves.
///
/// The cache maps [`RunKey`]s to shared [`SingleRun`]s, so figures that
/// revisit a configuration (Fig. 4 / Fig. 8 share HandBrake at 4 logical
/// cores; `repro all` shares the whole Table II sweep with Figs. 2–3)
/// reuse the simulation instead of repeating it. Entries are never
/// evicted; call [`RunContext::clear_cache`] between unrelated sweeps if
/// trace memory matters.
pub struct RunContext {
    pool: ThreadPoolRunner,
    cache: Mutex<HashMap<RunKey, Arc<SingleRun>>>,
    store: Option<SimStore>,
    hits: AtomicU64,
    misses: AtomicU64,
    disk_hits: AtomicU64,
    disk_misses: AtomicU64,
    quarantined: AtomicU64,
    store_notes: Mutex<Vec<String>>,
    verify_traces: AtomicU64,
    verify_findings: AtomicU64,
    verify_reports: Mutex<Vec<String>>,
}

impl std::fmt::Debug for RunContext {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunContext")
            .field("jobs", &self.jobs())
            .field("cached", &self.cache_len())
            .field("hits", &self.hits.load(Ordering::Relaxed))
            .field("misses", &self.misses.load(Ordering::Relaxed))
            .finish()
    }
}

impl Default for RunContext {
    /// The environment-configured context ([`RunContext::from_env`]).
    fn default() -> RunContext {
        RunContext::from_env()
    }
}

impl RunContext {
    /// A serial context: the calling thread resolves everything, in order.
    pub fn serial() -> RunContext {
        RunContext::pooled(1)
    }

    /// A pooled context with `jobs` workers (`jobs <= 1` runs everything
    /// on the calling thread).
    pub fn pooled(jobs: usize) -> RunContext {
        RunContext {
            pool: ThreadPoolRunner::new(jobs),
            cache: Mutex::new(HashMap::new()),
            store: None,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            disk_misses: AtomicU64::new(0),
            quarantined: AtomicU64::new(0),
            store_notes: Mutex::new(Vec::new()),
            verify_traces: AtomicU64::new(0),
            verify_findings: AtomicU64::new(0),
            verify_reports: Mutex::new(Vec::new()),
        }
    }

    /// A context sized by the `PARASTAT_JOBS` environment variable, or by
    /// [`std::thread::available_parallelism`] when unset/unparsable.
    pub fn from_env() -> RunContext {
        // lint:allow(env-read): PARASTAT_JOBS is the documented job-count
        // override; parallelism cannot change any rendered artefact.
        let jobs = std::env::var(JOBS_ENV)
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(NonZeroUsize::get)
                    .unwrap_or(1)
            });
        RunContext::pooled(jobs)
    }

    /// Worker parallelism of the pool.
    pub fn jobs(&self) -> usize {
        self.pool.jobs
    }

    /// Number of memoized runs currently held.
    pub fn cache_len(&self) -> usize {
        self.cache.lock().expect("run cache poisoned").len()
    }

    /// Cache hit / miss counters since construction. A "miss" is an actual
    /// simulation — runs replayed from the persistent store count in
    /// [`RunContext::store_stats`] instead, so a fully warm store reports
    /// zero misses.
    pub fn cache_stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Attaches a persistent [`SimStore`] as the second memo tier: lookups
    /// go memory → disk → simulate, and fresh simulations are written back
    /// (best-effort — store I/O failures never fail a run).
    pub fn set_store(&mut self, store: SimStore) {
        self.store = Some(store);
    }

    /// The attached persistent store, if any.
    pub fn store(&self) -> Option<&SimStore> {
        self.store.as_ref()
    }

    /// Persistent-store session counters since construction:
    /// `(disk hits, disk misses, quarantined entries)`. All zero when no
    /// store is attached. Quarantined entries also count as disk misses —
    /// the caller re-simulated.
    pub fn store_stats(&self) -> (u64, u64, u64) {
        (
            self.disk_hits.load(Ordering::Relaxed),
            self.disk_misses.load(Ordering::Relaxed),
            self.quarantined.load(Ordering::Relaxed),
        )
    }

    /// One note per store anomaly this session (quarantines and failed
    /// write-backs), for diagnostic output. Never part of any artifact.
    pub fn store_notes(&self) -> Vec<String> {
        self.store_notes
            .lock()
            .expect("store notes poisoned")
            .clone()
    }

    fn push_store_note(&self, note: String) {
        self.store_notes
            .lock()
            .expect("store notes poisoned")
            .push(note);
    }

    /// Drops every memoized run (traces can be large; long `repro all`
    /// sessions may want to release them between artefacts).
    pub fn clear_cache(&self) {
        self.cache.lock().expect("run cache poisoned").clear();
    }

    /// Verification tally over every fresh simulation this context ran:
    /// `(traces checked, total verifier + happens-before findings)`.
    ///
    /// Every [`Experiment::run_once`] already verifies its sealed trace and
    /// records the result as `parastat_verify_findings_total`; the context
    /// reads that counter back, so the tally is free and always on.
    pub fn verify_stats(&self) -> (u64, u64) {
        (
            self.verify_traces.load(Ordering::Relaxed),
            self.verify_findings.load(Ordering::Relaxed),
        )
    }

    /// Rendered diagnostic reports for every fresh run with findings
    /// (empty on a healthy simulator).
    pub fn verify_reports(&self) -> Vec<String> {
        self.verify_reports
            .lock()
            .expect("verify reports poisoned")
            .clone()
    }

    /// Reads one run's verification counter into the context tally; runs
    /// with findings get a full re-verification so the rendered diagnostics
    /// can be reported.
    fn tally_verification(&self, run: &SingleRun, label: &str) {
        self.verify_traces.fetch_add(1, Ordering::Relaxed);
        let findings = run
            .metrics
            .registry
            .counter_value("parastat_verify_findings_total", &[])
            .unwrap_or(0);
        if findings == 0 {
            return;
        }
        self.verify_findings.fetch_add(findings, Ordering::Relaxed);
        let (verified, causal) = etwtrace::verify::check(&run.trace);
        let mut report = format!("{label}:\n{}", verified.render());
        if !causal.is_clean() {
            report.push_str(&causal.render());
        }
        self.verify_reports
            .lock()
            .expect("verify reports poisoned")
            .push(report);
    }

    /// Executes a batch of requests, memoized, returning results in
    /// submission order.
    ///
    /// Requests whose key is already cached are served from the cache;
    /// duplicates within the batch resolve once. Every other request is one
    /// pool job that [resolves](RunContext::resolve) it end to end. The
    /// calling thread then folds the outcomes in submission order — tier
    /// counters, store notes (quarantines before write-back failures),
    /// verification tallies (store-loaded runs first) and memo inserts — so
    /// none of them depends on the job count.
    pub fn run_singles(&self, requests: Vec<RunRequest>) -> Vec<Arc<SingleRun>> {
        let keys: Vec<RunKey> = requests.iter().map(RunRequest::cache_key).collect();
        let mut fresh: Vec<usize> = Vec::new();
        {
            let mut tier = span::span("tier", "memory");
            tier.add_events(requests.len() as u64);
            let cache = self.cache.lock().expect("run cache poisoned");
            let mut scheduled: HashSet<&RunKey> = HashSet::new();
            for (i, key) in keys.iter().enumerate() {
                if !cache.contains_key(key) && scheduled.insert(key) {
                    fresh.push(i);
                }
            }
        }
        self.hits
            .fetch_add((requests.len() - fresh.len()) as u64, Ordering::Relaxed);
        span::counter_add("memo_hits", (requests.len() - fresh.len()) as u64);
        let resolved = self.pool_map(fresh.len(), |j| {
            self.resolve(&requests[fresh[j]], &keys[fresh[j]])
        });
        let (mut stored, mut simulated, mut failed_saves) = (Vec::new(), Vec::new(), Vec::new());
        for (&i, r) in fresh.iter().zip(resolved) {
            let label = format!("{:?} seed={}", requests[i].experiment.app, requests[i].seed);
            match r.disk {
                Disk::Off => {}
                Disk::Hit => {
                    self.disk_hits.fetch_add(1, Ordering::Relaxed);
                    span::counter_add("disk_hits", 1);
                    stored.push((i, format!("{label} (store)"), r.run));
                    continue;
                }
                Disk::Miss => {
                    self.disk_misses.fetch_add(1, Ordering::Relaxed);
                    span::counter_add("disk_misses", 1);
                }
                Disk::Quarantined(reason) => {
                    self.disk_misses.fetch_add(1, Ordering::Relaxed);
                    self.quarantined.fetch_add(1, Ordering::Relaxed);
                    span::counter_add("disk_misses", 1);
                    span::counter_add("store_quarantined", 1);
                    self.push_store_note(format!("quarantined {label}: {reason}"));
                }
            }
            if let Some(e) = r.save_error {
                failed_saves.push(format!("write-back failed for {label}: {e}"));
            }
            simulated.push((i, label, r.run));
        }
        for note in failed_saves {
            self.push_store_note(note);
        }
        self.misses
            .fetch_add(simulated.len() as u64, Ordering::Relaxed);
        span::counter_add("memo_misses", simulated.len() as u64);
        // Every stored run already passed the store's integrity pipeline
        // (checksum, epoch, key, re-verification), so it joins the memory
        // cache exactly as a fresh simulation would.
        for (_, label, run) in stored.iter().chain(&simulated) {
            self.tally_verification(run, label);
        }
        let mut cache = self.cache.lock().expect("run cache poisoned");
        for (i, _, run) in stored.into_iter().chain(simulated) {
            cache.insert(keys[i].clone(), Arc::new(run));
        }
        keys.iter().map(|k| Arc::clone(&cache[k])).collect()
    }

    /// Resolves one memory-missed request on the calling worker: a store
    /// load, and on a miss or quarantine a simulation plus its write-back.
    /// The write-back is best-effort: a full disk or read-only store costs
    /// persistence, never correctness.
    fn resolve(&self, req: &RunRequest, key: &RunKey) -> Resolved {
        let disk = match &self.store {
            None => Disk::Off,
            Some(store) => {
                let mut tier = span::span("tier", "disk");
                tier.add_events(1);
                match store.load(key) {
                    LoadOutcome::Hit(run) => {
                        return Resolved {
                            disk: Disk::Hit,
                            run: *run,
                            save_error: None,
                        }
                    }
                    LoadOutcome::Miss => Disk::Miss,
                    LoadOutcome::Quarantined { reason } => Disk::Quarantined(reason),
                }
            }
        };
        let run = {
            let mut tier = span::span("tier", "simulate");
            tier.add_events(1);
            req.execute()
        };
        let save_error = self.store.as_ref().and_then(|s| s.save(key, &run).err());
        Resolved {
            disk,
            run,
            save_error,
        }
    }

    /// Calls `f(0..n)` on the pool and returns the results in index order.
    /// One `pool/worker` span per worker and one `pool/work` span per call:
    /// worker wall time minus its work spans is the claim/idle overhead the
    /// doctor reports as pool occupancy.
    fn pool_map<T: Send>(&self, n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
        let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let cursor = AtomicUsize::new(0);
        self.pool.run_shards(self.jobs().min(n), &|_| {
            let mut worker = span::span("pool", "worker");
            loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                worker.add_events(1);
                let out = {
                    let _work = span::span("pool", "work");
                    f(i)
                };
                *slots[i].lock().expect("result slot poisoned") = Some(out);
            }
        });
        slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("result slot poisoned")
                    .expect("workers claim every index")
            })
            .collect()
    }

    /// Executes (or recalls) one iteration of `experiment` at `seed`.
    pub fn run_single(&self, experiment: &Experiment, seed: u64) -> Arc<SingleRun> {
        self.run_singles(vec![RunRequest::new(experiment, seed)])
            .pop()
            .expect("one request yields one run")
    }

    /// Runs every iteration of every experiment as one flat batch and
    /// reassembles per-experiment [`Measurement`]s in submission order —
    /// the Table II protocol, parallel across applications *and*
    /// iterations.
    pub fn run_experiments(&self, experiments: &[Experiment]) -> Vec<Measurement> {
        let mut requests = Vec::new();
        for exp in experiments {
            for i in 0..exp.budget.iterations {
                requests.push(RunRequest::new(exp, exp.base_seed + i as u64));
            }
        }
        let runs = self.run_singles(requests);
        let mut out = Vec::with_capacity(experiments.len());
        let mut offset = 0;
        for exp in experiments {
            let n = exp.budget.iterations as usize;
            out.push(Measurement::aggregate(exp, &runs[offset..offset + n]));
            offset += n;
        }
        out
    }

    /// Runs all iterations of one experiment (see [`RunContext::run_experiments`]).
    pub fn run_experiment(&self, experiment: &Experiment) -> Measurement {
        self.run_experiments(std::slice::from_ref(experiment))
            .pop()
            .expect("one experiment yields one measurement")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Budget;
    use simcore::SimDuration;
    use workloads::AppId;

    fn tiny(app: AppId) -> Experiment {
        Experiment::new(app).budget(Budget {
            duration: SimDuration::from_secs(3),
            iterations: 2,
        })
    }

    #[test]
    fn cache_key_ignores_iterations_and_base_seed() {
        let a = RunRequest::new(&tiny(AppId::Handbrake), 7);
        let mut exp = tiny(AppId::Handbrake).seed(999);
        exp.budget.iterations = 5;
        let b = RunRequest::new(&exp, 7);
        assert_eq!(a.cache_key(), b.cache_key());
        let c = RunRequest::new(&tiny(AppId::Handbrake), 8);
        assert_ne!(a.cache_key(), c.cache_key());
        let d = RunRequest::new(&tiny(AppId::Handbrake).logical(4, true), 7);
        assert_ne!(a.cache_key(), d.cache_key());
    }

    #[test]
    fn a_width_1_pool_runs_inline_in_index_order() {
        let caller = std::thread::current().id();
        let seen = Mutex::new(Vec::new());
        ThreadPoolRunner::new(1).run_shards(3, &|i| {
            seen.lock().unwrap().push((i, std::thread::current().id()));
        });
        let expected: Vec<_> = (0..3).map(|i| (i, caller)).collect();
        assert_eq!(seen.into_inner().unwrap(), expected);
    }

    #[test]
    fn memo_cache_shares_one_run() {
        let ctx = RunContext::serial();
        let exp = tiny(AppId::Braina);
        let first = ctx.run_single(&exp, 1);
        let again = ctx.run_single(&exp, 1);
        assert!(
            Arc::ptr_eq(&first, &again),
            "repeat request must be memoized"
        );
        let (hits, misses) = ctx.cache_stats();
        assert_eq!((hits, misses), (1, 1));
        assert_eq!(ctx.cache_len(), 1);
        ctx.clear_cache();
        assert_eq!(ctx.cache_len(), 0);
    }

    #[test]
    fn in_batch_duplicates_simulate_once() {
        let ctx = RunContext::pooled(4);
        let exp = tiny(AppId::Word);
        let runs = ctx.run_singles(vec![
            RunRequest::new(&exp, 3),
            RunRequest::new(&exp, 3),
            RunRequest::new(&exp, 4),
        ]);
        assert!(Arc::ptr_eq(&runs[0], &runs[1]));
        assert!(!Arc::ptr_eq(&runs[0], &runs[2]));
        let (hits, misses) = ctx.cache_stats();
        assert_eq!((hits, misses), (1, 2));
    }

    #[test]
    fn pooled_matches_serial_measurements() {
        let exps = vec![tiny(AppId::Handbrake), tiny(AppId::Excel).logical(4, true)];
        let serial = RunContext::serial().run_experiments(&exps);
        let pooled = RunContext::pooled(4).run_experiments(&exps);
        assert_eq!(serial.len(), pooled.len());
        for (s, p) in serial.iter().zip(&pooled) {
            assert_eq!(s.tlp.mean().to_bits(), p.tlp.mean().to_bits());
            assert_eq!(s.fractions(), p.fractions());
            assert_eq!(s.metrics, p.metrics);
        }
    }
}
