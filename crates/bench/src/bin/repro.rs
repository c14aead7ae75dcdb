//! `repro` — regenerate the paper's tables and figures on the simulated rig.
//!
//! ```text
//! repro <artefact>... [--budget quick|standard|paper] [--jobs N] [--out DIR]
//! repro all          [--budget …]
//! repro --blame      [--budget …]
//! repro --metrics-out metrics.prom [--metrics-app handbrake] [--budget …]
//! repro --help
//! ```
//!
//! Each artefact prints its report to stdout and writes it (plus CSV for the
//! timeline figures) under `--out` (default `results/`).
//!
//! `--jobs N` sets how many simulations run concurrently (default: the
//! `PARASTAT_JOBS` environment variable, else every available core). Each
//! simulation stays single-threaded and seeded, and results are reassembled
//! in submission order, so every artefact is byte-identical whatever `N` is.
//!
//! `--blame` runs the bottleneck profiler over the whole suite — the same
//! iterations as Table II, served from the memo cache when both are asked
//! for — and emits the per-app attribution table (`blame.md`): measured TLP,
//! the critical-path what-if TLP bound, and the top serialization bottleneck.
//!
//! `--metrics-out` runs one experiment (default: HandBrake) under the chosen
//! budget and writes the per-iteration scheduler/GPU/calendar metrics in the
//! Prometheus text exposition format. The snapshots are deterministic, so the
//! file is diffable across machines and runs.
//!
//! `--verify` reports the context's trace-verification tally after the run —
//! every fresh simulation's trace goes through the invariant checker — and
//! exits 1 with the full diagnostic reports if anything fired.
//!
//! `--store` attaches the persistent run store (`target/simstore/`, or the
//! `PARASTAT_STORE` path): simulations persist across invocations, so a
//! repeated sweep replays from disk with zero simulations and byte-identical
//! artifacts. Setting `PARASTAT_STORE` implies `--store`; `--no-store` wins
//! over both. `--store-stats` prints the disk hit/miss/quarantine tally and
//! any anomaly notes after the run.
//!
//! `--self-trace <path>` turns the span tracer on for the whole invocation
//! and writes the flight-recorder snapshot as Perfetto-loadable chrome JSON
//! on exit: one track per thread, with spans for pool workers, the three
//! memo tiers, store/codec I/O and every analyzer pass. Tracing never
//! changes any artifact byte — the tables stay byte-identical with it on
//! or off.
//!
//! `--doctor` also enables tracing and prints the one-shot health report
//! (pool occupancy, cache hit rates, tier latencies, codec throughput,
//! slowest spans, store footprint) after the run. With no artefact given it
//! probes with the Table II suite under the selected budget.
//!
//! `--timeline` folds every application's Table II trace (iteration 0)
//! through the streaming timeline pass and emits `timeline.md` (per-app
//! bucket tables) plus `timeline.csv` (one row per app × bucket). Combined
//! with `--doctor`, the health report gains a `timelines` section naming
//! each app's lowest-TLP intervals and their dominant wait reason.
//!
//! `--baseline <dir>` runs a fixed reference configuration (VLC under the
//! quick budget, iteration 0 — always the same regardless of `--budget`),
//! folds its metrics registry plus timeline summary into one snapshot, and
//! diffs it against `<dir>/baseline.prom`, exiting 1 on any drift beyond
//! the threshold. `--baseline <dir> --update` rewrites the snapshot
//! instead — that is how the committed baseline under
//! `crates/bench/tests/golden/` is refreshed after an intended change.
//!
//! On panic, the flight recorder dumps the last spans and counters to
//! `target/flight-recorder/repro.json` so crashed CI runs leave a trace.

use parastat::figures::{
    ablation, compare, discussion, gpu, scaling, smt, stability, tables, validation, vr, web,
};
use parastat::{bottleneck, paper, suite, Budget, Experiment, RunContext};
use repro_bench::{budget, ARTEFACTS};
use std::fs;
use std::path::{Path, PathBuf};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut artefacts: Vec<String> = Vec::new();
    let mut budget_name = "standard".to_string();
    let mut out_dir = PathBuf::from("results");
    let mut metrics_out: Option<PathBuf> = None;
    let mut metrics_app = "handbrake".to_string();
    let mut jobs: Option<usize> = None;
    let mut want_blame = false;
    let mut want_verify = false;
    let mut store_flag: Option<bool> = None;
    let mut want_store_stats = false;
    let mut self_trace: Option<PathBuf> = None;
    let mut want_doctor = false;
    let mut want_timeline = false;
    let mut baseline_dir: Option<PathBuf> = None;
    let mut baseline_update = false;
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--timeline" => want_timeline = true,
            "--baseline" => {
                baseline_dir = Some(PathBuf::from(
                    it.next()
                        .unwrap_or_else(|| usage("--baseline needs a directory")),
                ));
            }
            "--update" => baseline_update = true,
            "--store" => store_flag = Some(true),
            "--no-store" => store_flag = Some(false),
            "--store-stats" => want_store_stats = true,
            "--self-trace" => {
                self_trace = Some(PathBuf::from(
                    it.next()
                        .unwrap_or_else(|| usage("--self-trace needs a path")),
                ));
            }
            "--doctor" => want_doctor = true,
            "--budget" => {
                budget_name = it.next().unwrap_or_else(|| usage("--budget needs a value"));
            }
            "--jobs" => {
                let v = it.next().unwrap_or_else(|| usage("--jobs needs a value"));
                jobs = Some(
                    v.parse()
                        .unwrap_or_else(|_| usage(&format!("invalid --jobs `{v}`"))),
                );
            }
            "--out" => {
                out_dir = PathBuf::from(it.next().unwrap_or_else(|| usage("--out needs a value")));
            }
            "--metrics-out" => {
                metrics_out = Some(PathBuf::from(
                    it.next()
                        .unwrap_or_else(|| usage("--metrics-out needs a path")),
                ));
            }
            "--metrics-app" => {
                metrics_app = it
                    .next()
                    .unwrap_or_else(|| usage("--metrics-app needs an app substring"));
            }
            "--blame" => want_blame = true,
            "--verify" => want_verify = true,
            "help" | "--help" | "-h" => {
                print!("{}", usage_text());
                return;
            }
            "all" => artefacts.extend(ARTEFACTS.iter().map(|s| s.to_string())),
            other if ARTEFACTS.contains(&other) => artefacts.push(other.to_string()),
            other => usage(&format!("unknown artefact `{other}`")),
        }
    }
    let b = budget(&budget_name).unwrap_or_else(|| {
        usage(&format!(
            "unknown budget `{budget_name}`: use quick, standard or paper"
        ))
    });
    if artefacts.is_empty()
        && metrics_out.is_none()
        && !want_blame
        && !want_doctor
        && !want_timeline
        && baseline_dir.is_none()
    {
        usage("no artefact given");
    }
    if baseline_update && baseline_dir.is_none() {
        usage("--update only makes sense with --baseline <dir>");
    }
    // The flight recorder is always armed: a panicking run leaves its last
    // spans and counters behind for post-mortem, even without --self-trace.
    simobs::span::install_crash_dump(
        PathBuf::from("target/flight-recorder/repro.json"),
        etwtrace::chrome::self_trace_json,
    );
    if self_trace.is_some() || want_doctor {
        simobs::span::set_enabled(true);
    }
    // One context for the whole invocation: artefacts that share a
    // configuration (table2/fig2/fig3, the browser figures, …) reuse each
    // other's simulations through the memo cache.
    let mut ctx = match jobs {
        Some(n) => RunContext::pooled(n),
        None => RunContext::from_env(),
    };
    // `--no-store` > `--store` > "PARASTAT_STORE is set" > off.
    let use_store = store_flag.unwrap_or_else(|| parastat::store::env_root().is_some());
    if use_store {
        let store = parastat::SimStore::open_default();
        eprintln!("# store: {}", store.root().display());
        ctx.set_store(store);
    }
    fs::create_dir_all(&out_dir).expect("create output directory");
    eprintln!(
        "# budget: {} ({}s x {} iterations); jobs: {}",
        budget_name,
        b.duration.as_secs_f64(),
        b.iterations,
        ctx.jobs()
    );
    let ran_any = !artefacts.is_empty() || metrics_out.is_some() || want_blame || want_timeline;
    if let Some(path) = &metrics_out {
        write_metrics(&ctx, path, &metrics_app, b);
    }

    // Table II results are reused by figs 2 and 3 (and, via the memo cache,
    // by any other artefact that re-submits the same configurations).
    let mut table2_cache: Option<Vec<suite::AppMeasurement>> = None;
    let mut table2 = |b: Budget| -> Vec<suite::AppMeasurement> {
        table2_cache
            .get_or_insert_with(|| {
                eprintln!("# running the 30-application suite…");
                suite::run_table2(&ctx, b)
            })
            .clone()
    };

    for artefact in artefacts {
        eprintln!("# {artefact}");
        match artefact.as_str() {
            "table1" => emit(&out_dir, "table1", &tables::table1(), None),
            "table2" => {
                let results = table2(b);
                emit(
                    &out_dir,
                    "table2",
                    &suite::render_table2(&results),
                    Some(suite::table2_csv(&results)),
                );
            }
            "table3" => emit(&out_dir, "table3", &tables::table3(&ctx, b).render(), None),
            "fig2" => {
                let results = table2(b);
                emit(&out_dir, "fig2", &compare::fig2(&results).render(), None);
            }
            "fig3" => {
                let results = table2(b);
                emit(&out_dir, "fig3", &compare::fig3(&results).render(), None);
            }
            "fig4" => emit(&out_dir, "fig4", &scaling::fig4(&ctx, b).render(), None),
            "fig5" => emit_timeline(&out_dir, "fig5", &scaling::fig5(&ctx, b)),
            "fig6" => emit_timeline(&out_dir, "fig6", &scaling::fig6(&ctx, b)),
            "fig7" => emit_timeline(&out_dir, "fig7", &scaling::fig7(&ctx, b)),
            "fig8" => emit(&out_dir, "fig8", &smt::fig8(&ctx, b).render(), None),
            "fig9" => emit(&out_dir, "fig9", &gpu::fig9(&ctx, b).render(), None),
            "fig10" => emit(&out_dir, "fig10", &gpu::fig10(&ctx, b).render(), None),
            "fig11" => emit(&out_dir, "fig11", &web::fig11(&ctx, b).render(), None),
            "fig12" => emit(&out_dir, "fig12", &vr::fig12(&ctx, b).render(), None),
            "fig13" => emit(&out_dir, "fig13", &vr::fig13(&ctx, b).render(), None),
            "validation" => emit(
                &out_dir,
                "validation",
                &validation::automation_validation(&ctx, b).render(),
                None,
            ),
            "discussion" => emit(
                &out_dir,
                "discussion",
                &discussion::discussion(&ctx, b),
                None,
            ),
            "power" => emit(
                &out_dir,
                "power",
                &parastat::energy::browser_power(&ctx, b).render(),
                None,
            ),
            "ablation" => emit(&out_dir, "ablation", &ablation::ablation(&ctx, b), None),
            "stability" => emit(
                &out_dir,
                "stability",
                &stability::stability(&ctx, b, 5).render(),
                None,
            ),
            _ => unreachable!("validated above"),
        }
    }
    if want_blame {
        eprintln!("# blame");
        let rows = bottleneck::run_blame(&ctx, b);
        emit(&out_dir, "blame", &bottleneck::render_blame(&rows), None);
    }
    let mut timelines: Vec<(String, etwtrace::Timeline)> = Vec::new();
    if want_timeline {
        eprintln!("# timeline: folding every app's iteration-0 trace…");
        timelines = run_timelines(&ctx, b);
        let mut report = String::new();
        let mut csv = String::from("app,");
        for (i, (name, tl)) in timelines.iter().enumerate() {
            report.push_str(&format!("## {name}\n\n{}\n", tl.render()));
            let body = tl.to_csv();
            let mut lines = body.lines();
            let header = lines.next().unwrap_or_default();
            if i == 0 {
                csv.push_str(header);
                csv.push('\n');
            }
            for line in lines {
                csv.push_str(&format!("{name},{line}\n"));
            }
        }
        emit(&out_dir, "timeline", &report, Some(csv));
    }
    let mut regression = false;
    if let Some(dir) = &baseline_dir {
        let snap = baseline_snapshot(&ctx);
        let path = dir.join("baseline.prom");
        if baseline_update {
            fs::create_dir_all(dir).expect("create baseline directory");
            // lint:allow(fs-write): whole-file baseline snapshot to a
            // user-chosen path, refreshed only on explicit --update.
            fs::write(&path, &snap).expect("write baseline");
            eprintln!("# baseline → {}", path.display());
        } else {
            let committed = fs::read_to_string(&path).unwrap_or_else(|e| {
                usage(&format!(
                    "{}: {e} (run with --update to create it)",
                    path.display()
                ))
            });
            let report = etwtrace::diff_metrics(
                &etwtrace::parse_prometheus(&committed),
                &etwtrace::parse_prometheus(&snap),
                etwtrace::DiffConfig::default(),
            );
            print!("{}", report.render());
            regression = report.is_regression();
        }
    }
    if want_doctor {
        if !ran_any {
            eprintln!("# doctor: probing with the 30-application suite…");
            let _ = table2(b);
        }
        println!(
            "{}",
            parastat::doctor::doctor_report_with_timelines(
                &ctx,
                &simobs::span::snapshot(),
                &timelines
            )
        );
    }
    if let Some(path) = &self_trace {
        let json = etwtrace::chrome::self_trace_json(&simobs::span::snapshot());
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            fs::create_dir_all(parent).expect("create self-trace directory");
        }
        // lint:allow(fs-write): diagnostic self-trace export to a
        // user-chosen path; never a deterministic artifact.
        fs::write(path, json).expect("write self-trace");
        eprintln!("# self-trace → {}", path.display());
    }
    let (hits, misses) = ctx.cache_stats();
    eprintln!("# simulations: {misses} run, {hits} served from cache");
    if ctx.store().is_some() || want_store_stats {
        let (disk_hits, disk_misses, quarantined) = ctx.store_stats();
        eprintln!(
            "# store: {disk_hits} disk hits, {disk_misses} disk misses, {quarantined} quarantined"
        );
        if want_store_stats {
            for note in ctx.store_notes() {
                eprintln!("# store note: {note}");
            }
        }
    }
    if want_verify {
        let (traces, findings) = ctx.verify_stats();
        eprintln!("# verification: {traces} traces checked, {findings} findings");
        if findings > 0 {
            for report in ctx.verify_reports() {
                eprintln!("{report}");
            }
            std::process::exit(1);
        }
    }
    eprintln!(
        "# done; paper says the average TLP is {:.1} across the suite",
        paper::AVERAGE_TLP
    );
    if regression {
        std::process::exit(1);
    }
}

/// One iteration-0 trace per application, folded through the streaming
/// timeline pass. Uses the same canonical Table II experiments, so the memo
/// cache shares these simulations with `table2`/`fig2`/`fig3` and the
/// result is byte-identical at any `--jobs`.
fn run_timelines(ctx: &RunContext, b: Budget) -> Vec<(String, etwtrace::Timeline)> {
    let exps: Vec<_> = workloads::AppId::ALL
        .iter()
        .map(|&app| suite::table2_experiment(app, b))
        .collect();
    let reqs = exps
        .iter()
        .map(|e| parastat::RunRequest::new(e, e.base_seed))
        .collect();
    let runs = ctx.run_singles(reqs);
    workloads::AppId::ALL
        .iter()
        .zip(runs)
        .map(|(&app, run)| {
            (
                app.display_name().to_string(),
                etwtrace::fold_trace(&run.trace, 24),
            )
        })
        .collect()
}

/// The reference snapshot `--baseline` diffs against: VLC under the quick
/// budget, iteration 0 — deliberately independent of `--budget`, so the
/// committed baseline compares like-for-like no matter how the rest of the
/// invocation was configured. The snapshot is the run's Prometheus registry
/// plus the 16-bucket timeline summary, one exposition document.
fn baseline_snapshot(ctx: &RunContext) -> String {
    eprintln!("# baseline: VLC, quick budget, iteration 0…");
    let exp = Experiment::new(workloads::AppId::VlcMediaPlayer).budget(Budget::quick());
    let runs = ctx.run_singles(vec![parastat::RunRequest::new(&exp, exp.base_seed)]);
    let run = &runs[0];
    let mut text = run.metrics.to_prometheus();
    for (k, v) in etwtrace::fold_trace(&run.trace, 16).metrics() {
        text.push_str(&format!("{k} {v}\n"));
    }
    text
}

/// Runs one experiment and dumps its per-iteration metrics snapshots as
/// Prometheus text, separated by `# iteration N seed S` comment lines.
fn write_metrics(ctx: &RunContext, path: &Path, app_substr: &str, b: Budget) {
    let wanted = app_substr.to_ascii_lowercase();
    let app = workloads::AppId::ALL
        .iter()
        .copied()
        .find(|a| a.display_name().to_ascii_lowercase().contains(&wanted))
        .unwrap_or_else(|| usage(&format!("no app matches `{app_substr}`")));
    eprintln!("# collecting metrics for {}…", app.display_name());
    let exp = Experiment::new(app).budget(b);
    let m = ctx.run_experiment(&exp);
    let mut text = String::new();
    for (i, snapshot) in m.metrics.iter().enumerate() {
        text.push_str(&format!(
            "# iteration {i} seed {}\n{}",
            exp.base_seed + i as u64,
            snapshot.to_prometheus()
        ));
    }
    // lint:allow(fs-write): whole-file metrics export to a user-chosen
    // path; regenerated from scratch every run, never read back.
    fs::write(path, &text).expect("write metrics");
    eprintln!(
        "# {} iterations of {} metrics → {}",
        m.metrics.len(),
        app.display_name(),
        path.display()
    );
}

fn emit_timeline(out_dir: &Path, name: &str, fig: &parastat::figures::scaling::Timeline) {
    emit(out_dir, name, &fig.render(), Some(fig.to_csv()));
    let labels: Vec<String> = fig
        .runs
        .iter()
        .flat_map(|(n, ..)| [format!("tlp_{n}"), format!("gpu_{n}")])
        .collect();
    let label_refs: Vec<&str> = labels.iter().map(String::as_str).collect();
    let gp = parastat::report::gnuplot_script(
        &fig.title,
        &format!("{name}.csv"),
        &label_refs,
        "TLP / GPU %",
    );
    // lint:allow(fs-write): whole-file artifact export; regenerated every run.
    fs::write(out_dir.join(format!("{name}.gp")), gp).expect("write gnuplot script");
}

fn emit(out_dir: &Path, name: &str, report: &str, csv: Option<String>) {
    println!("{report}");
    let md = out_dir.join(format!("{name}.md"));
    // lint:allow(fs-write): whole-file artifact export; regenerated every run.
    fs::write(&md, report).expect("write report");
    if let Some(csv) = csv {
        let path = out_dir.join(format!("{name}.csv"));
        // lint:allow(fs-write): whole-file artifact export; regenerated every run.
        fs::write(&path, csv).expect("write csv");
    }
}

fn usage_text() -> String {
    [
        "usage: repro <artefact>...|all [--blame] [--verify] [--budget quick|standard|paper] [--jobs N] [--out DIR]",
        "       repro <artefact> --store [--store-stats]   # persistent run store (see PARASTAT_STORE)",
        "       repro --blame [--budget …]",
        "       repro <artefact> --verify   # exit 1 if any trace fails verification",
        "       repro --metrics-out <path> [--metrics-app SUBSTR] [--budget …]",
        "       repro <artefact> --self-trace <path>   # Perfetto-loadable span trace of the run itself",
        "       repro --doctor [<artefact>...]   # one-shot pipeline health report",
        "       repro --timeline [--budget …]   # per-app bucketed TLP/wait/GPU series",
        "       repro --baseline <dir> [--update]   # diff against <dir>/baseline.prom; exit 1 on drift",
        "       repro help   # this listing",
        &format!("artefacts: {}", ARTEFACTS.join(" ")),
        "",
    ]
    .join("\n")
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprint!("{}", usage_text());
    std::process::exit(2);
}
