//! `tracetool` — the UIforETW + wpaexporter workflow as one CLI:
//! record an application trace on the simulated rig, save it as a binary
//! `.etl` file, and analyze or export it offline.
//!
//! ```text
//! tracetool record <app-substring> <seconds> <out.etl>   # UIforETW step (SETL v3)
//! tracetool info <trace.etl>                             # container + record census
//! tracetool summary <trace.etl>                          # task-manager view
//! tracetool tlp <trace.etl> <process-prefix>             # Equation 1
//! tracetool latency <trace.etl> <process-prefix>         # ready→run delays
//! tracetool bottlenecks <trace.etl> <process-prefix>     # blocked-time blame
//! tracetool critical-path <trace.etl> <process-prefix>   # what-if TLP bound
//! tracetool verify <trace.etl>                           # invariant + HB check
//! tracetool timeline <trace.etl> [--buckets N] [--csv|--json]  # bucketed series
//! tracetool diff <A> <B> [--threshold PCT]               # run-diff regression report
//! tracetool export-cpu <trace.etl>                       # CPU Usage (Precise) CSV
//! tracetool export-gpu <trace.etl>                       # GPU Utilization (FM) CSV
//! tracetool export-chrome <trace.etl> <out.json>         # Perfetto timeline
//! tracetool synth <events> <out.etl>                     # synthetic v3 stress trace
//! ```
//!
//! Exit codes are uniform across subcommands so CI can gate on them:
//! 0 = clean, 1 = findings (verify diagnostics, diff regression),
//! 2 = usage error or corrupt input.
//!
//! A trace file is one SETL v3 stream, the format `record` writes. Every
//! reader refuses a legacy flat v1/v2 file with exit 2 and a message
//! naming the converter, `tracetool pack` from an older build, and any
//! corrupt byte, the file trailer's included, with exit 2 on every path.
//!
//! `info` summarizes a trace file without materializing it: container
//! format, event/record counts, string-table size, window duration,
//! the per-CPU context-switch histogram and the per-wait-reason census —
//! all through the checksum-enforcing v3 block walk. `timeline` folds the
//! same walk into the bucketed series without materializing the event
//! vector.
//!
//! The analysis subcommands (`verify`, `tlp`, `latency`, `bottlenecks`,
//! `critical-path`, `timeline`) accept a global `--analyzer-shards N`
//! flag that routes them through the sharded streaming path: blocks of a
//! SETL v3 file decode in parallel on `N` workers (`0` = one per hardware
//! thread; at most 256) and fold into byte-identical reports.

use etwtrace::{
    analysis, blame, chrome, critical, etl, export, hb, setl3, verify, EtlTrace, PidSet,
    ShardedTrace,
};
use machine::{Machine, MachineConfig};
use parastat::ThreadPoolRunner;
use repro_bench::Handoff;
use simcore::{SimDuration, SimTime};
use std::fs::File;
use std::io::{BufWriter, Write};
use workloads::{build, AppId, WorkloadOpts};

/// The longest `record` window: more whole seconds overflow the
/// nanosecond clock.
const MAX_RECORD_SECS: u64 = u64::MAX / 1_000_000_000;

/// The most `timeline --buckets`: the fold allocates every bucket up front,
/// 144 bytes each, so this caps it at 144 MiB.
const MAX_BUCKETS: usize = 1 << 20;

/// The most `--analyzer-shards`: a fold starts up to this many threads and
/// keeps up to twice as many decoded blocks (about 320 KiB each) alive, so
/// this caps it at 256 threads and about 160 MiB of blocks.
const MAX_SHARDS: usize = 256;

fn main() {
    // Arm the flight recorder: a panicking analysis leaves its last spans
    // behind under target/flight-recorder/ for post-mortem.
    simobs::span::install_crash_dump(
        std::path::PathBuf::from("target/flight-recorder/tracetool.json"),
        chrome::self_trace_json,
    );
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let shards = take_shards(&mut args);
    match args.first().map(String::as_str) {
        Some("record") => {
            let [_, app, secs, out] = &args[..] else {
                usage("record <app-substring> <seconds> <out.etl>");
            };
            let secs: u64 = secs.parse().unwrap_or_else(|_| usage("bad seconds"));
            if secs > MAX_RECORD_SECS {
                usage(&format!(
                    "<seconds> {secs} is above the maximum of {MAX_RECORD_SECS}"
                ));
            }
            let app = resolve_app(app);
            eprintln!("recording {} for {secs}s…", app.display_name());
            let mut m = Machine::new(MachineConfig::study_rig(12, true));
            let opts = WorkloadOpts {
                duration: SimDuration::from_secs(secs),
                ..WorkloadOpts::default()
            };
            build(app, &mut m, &opts);
            m.run_for(SimDuration::from_secs(secs));
            let trace = m.into_trace();
            // lint:allow(fs-write): streamed whole-file trace export to a
            // user-chosen path; never consumed by the persistent store.
            File::create(out)
                .and_then(|file| setl3::write_setl3(&trace, file))
                .unwrap_or_else(|e| usage(&format!("{out}: {e}")));
            eprintln!("{} events → {out}", trace.events().len());
        }
        Some("info") => {
            if args.len() != 2 {
                usage("info <trace.etl>");
            }
            let path = &args[1];
            let info = etl::trace_info(&read_bytes(path))
                .unwrap_or_else(|e| usage(&format!("{path}: {e}")));
            print!("{}", info.render());
        }
        Some("summary") => {
            let trace = load(&args, 2);
            println!(
                "{:<26} {:>4} {:>8} {:>7} {:>7}",
                "process", "pid", "threads", "CPU %", "GPU %"
            );
            for p in analysis::per_process_summary(&trace) {
                println!(
                    "{:<26} {:>4} {:>8} {:>7.1} {:>7.1}",
                    p.name, p.pid, p.threads, p.cpu_percent, p.gpu_percent
                );
            }
        }
        Some("tlp") => {
            let [_, path, prefix] = &args[..] else {
                usage("tlp <trace.etl> <process-prefix>");
            };
            let (profile, util, lat, sched, engines, filter);
            if let Some(shards) = shards {
                let runner = ThreadPoolRunner::new(shards);
                let trace = read_sharded(path);
                filter = sharded_filter(&trace, &runner, shards, prefix);
                profile = analysis::concurrency_sharded(&trace, &filter, &runner, shards)
                    .unwrap_or_else(|e| usage(&format!("{path}: {e}")));
                util = analysis::gpu_utilization_sharded(&trace, &filter, None, &runner, shards)
                    .unwrap_or_else(|e| usage(&format!("{path}: {e}")));
                lat = analysis::scheduling_latency_sharded(&trace, &filter, &runner, shards)
                    .unwrap_or_else(|e| usage(&format!("{path}: {e}")));
                sched = analysis::schedule_stats_sharded(&trace, &filter, &runner, shards)
                    .unwrap_or_else(|e| usage(&format!("{path}: {e}")));
                engines =
                    analysis::gpu_engine_breakdown_sharded(&trace, &filter, 0, &runner, shards)
                        .unwrap_or_else(|e| usage(&format!("{path}: {e}")));
            } else {
                let trace = read(path);
                filter = trace.pids_by_name(prefix);
                if filter.is_empty() {
                    usage(&format!("no process matches `{prefix}`"));
                }
                profile = analysis::concurrency(&trace, &filter);
                util = analysis::gpu_utilization(&trace, &filter, None);
                lat = analysis::scheduling_latency(&trace, &filter);
                sched = analysis::schedule_stats(&trace, &filter);
                engines = analysis::gpu_engine_breakdown(&trace, &filter, 0);
            }
            println!("processes        : {}", filter.len());
            println!("TLP              : {:.3}", profile.tlp());
            println!("max concurrency  : {}", profile.max_concurrency());
            println!("GPU utilization  : {:.2} %", util.percent());
            println!(
                "sched latency    : mean {:.0} µs, p95 {:.0} µs",
                lat.mean_us, lat.p95_us
            );
            println!(
                "run episodes     : {} (mean {:.2} ms, max {:.1} ms), {} migrations",
                sched.episodes, sched.mean_slice_ms, sched.max_slice_ms, sched.migrations
            );
            if !engines.is_empty() {
                let parts: Vec<String> = engines
                    .iter()
                    .map(|(e, f)| {
                        let name = if *e == u32::MAX {
                            "nvenc".to_string()
                        } else {
                            format!("queue{e}")
                        };
                        format!("{name} {:.1}%", f * 100.0)
                    })
                    .collect();
                println!("GPU engines      : {}", parts.join(", "));
            }
            let c: Vec<String> = profile
                .fractions()
                .iter()
                .map(|f| format!("{:.1}", f * 100.0))
                .collect();
            println!("c0..cN (%)       : {}", c.join(" "));
        }
        Some("latency") => {
            let [_, path, prefix] = &args[..] else {
                usage("latency <trace.etl> <process-prefix>");
            };
            let lat = if let Some(shards) = shards {
                let runner = ThreadPoolRunner::new(shards);
                let trace = read_sharded(path);
                let filter = sharded_filter(&trace, &runner, shards, prefix);
                analysis::scheduling_latency_sharded(&trace, &filter, &runner, shards)
                    .unwrap_or_else(|e| usage(&format!("{path}: {e}")))
            } else {
                let trace = read(path);
                let filter = trace.pids_by_name(prefix);
                if filter.is_empty() {
                    usage(&format!("no process matches `{prefix}`"));
                }
                analysis::scheduling_latency(&trace, &filter)
            };
            println!("sched events     : {}", lat.count);
            println!("mean latency     : {:.1} µs", lat.mean_us);
            println!("p50 latency      : {:.1} µs", lat.p50_us);
            println!("p95 latency      : {:.1} µs", lat.p95_us);
            println!("p99 latency      : {:.1} µs", lat.p99_us);
            println!("max latency      : {:.1} µs", lat.max_us);
        }
        Some("bottlenecks") => {
            if let Some(shards) = shards {
                let (trace, filter, runner) = load_sharded_filtered(&args, "bottlenecks", shards);
                let report = blame::blame_sharded(&trace, &filter, &runner, shards)
                    .unwrap_or_else(|e| usage(&format!("{e}")));
                print!("{}", report.render());
            } else {
                let (trace, filter) = load_filtered(&args, "bottlenecks");
                print!("{}", blame::blame(&trace, &filter).render());
            }
        }
        Some("critical-path") => {
            if let Some(shards) = shards {
                let (trace, filter, runner) = load_sharded_filtered(&args, "critical-path", shards);
                let report = critical::critical_path_sharded(&trace, &filter, &runner, shards)
                    .unwrap_or_else(|e| usage(&format!("{e}")));
                print!("{}", report.render());
            } else {
                let (trace, filter) = load_filtered(&args, "critical-path");
                print!("{}", critical::critical_path(&trace, &filter).render());
            }
        }
        Some("verify") => {
            let (report, causal);
            if let Some(shards) = shards {
                if args.len() != 2 {
                    usage("verify <trace.etl>");
                }
                let runner = ThreadPoolRunner::new(shards);
                let trace = read_sharded(&args[1]);
                report = verify::verify_sharded(&trace, &runner, shards)
                    .unwrap_or_else(|e| usage(&format!("{e}")));
                causal = hb::analyze_sharded(&trace, &hb::HbOptions::default(), &runner, shards)
                    .unwrap_or_else(|e| usage(&format!("{e}")));
            } else {
                let trace = load(&args, 2);
                report = verify::verify_trace(&trace);
                causal = hb::analyze(&trace, &hb::HbOptions::default());
            }
            print!("{}", report.render());
            print!("{}", causal.render());
            if !report.is_clean() || !causal.is_clean() {
                std::process::exit(1);
            }
        }
        Some("timeline") => {
            let mut path = None;
            let mut buckets = 24usize;
            let mut format = "text";
            let mut it = args[1..].iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--buckets" => {
                        buckets = it
                            .next()
                            .and_then(|v| v.parse().ok())
                            .filter(|&n| n > 0)
                            .unwrap_or_else(|| usage("--buckets needs a positive integer"));
                        if buckets > MAX_BUCKETS {
                            usage(&format!(
                                "--buckets {buckets} is above the maximum of {MAX_BUCKETS}"
                            ));
                        }
                    }
                    "--csv" => format = "csv",
                    "--json" => format = "json",
                    other if path.is_none() && !other.starts_with('-') => {
                        path = Some(other.to_string())
                    }
                    other => usage(&format!("unexpected argument `{other}`")),
                }
            }
            let path =
                path.unwrap_or_else(|| usage("timeline <trace.etl> [--buckets N] [--csv|--json]"));
            let tl = if let Some(shards) = shards {
                let runner = ThreadPoolRunner::new(shards);
                let trace = read_sharded(&path);
                etwtrace::timeline::timeline_sharded(&trace, buckets, &runner, shards)
                    .unwrap_or_else(|e| usage(&format!("{path}: {e}")))
            } else {
                etwtrace::timeline::read_timeline(&read_bytes(&path), buckets)
                    .unwrap_or_else(|e| usage(&format!("{path}: {e}")))
            };
            match format {
                "csv" => print!("{}", tl.to_csv()),
                "json" => println!("{}", tl.to_json()),
                _ => print!("{}", tl.render()),
            }
        }
        Some("diff") => {
            let mut paths = Vec::new();
            let mut cfg = etwtrace::DiffConfig::default();
            let mut it = args[1..].iter();
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--threshold" => {
                        let pct: f64 = it
                            .next()
                            .and_then(|v| v.parse().ok())
                            .filter(|&p| p >= 0.0)
                            .unwrap_or_else(|| usage("--threshold needs a percentage"));
                        cfg.rel_threshold = pct / 100.0;
                    }
                    other if !other.starts_with('-') => paths.push(other.to_string()),
                    other => usage(&format!("unexpected argument `{other}`")),
                }
            }
            let [base, current] = &paths[..] else {
                usage("diff <baseline> <current> [--threshold PCT]");
            };
            let report =
                etwtrace::diff_metrics(&load_metric_set(base), &load_metric_set(current), cfg);
            print!("{}", report.render());
            if report.is_regression() {
                std::process::exit(1);
            }
        }
        Some("help") | Some("--help") | Some("-h") => {
            print!("{}", usage_text());
        }
        Some("synth") => {
            let [_, events, out] = &args[..] else {
                usage("synth <events> <out.etl>");
            };
            let n: u64 = events
                .parse()
                .ok()
                .filter(|&n| n > 0)
                .unwrap_or_else(|| usage("synth needs a positive event count"));
            synth(n, out);
        }
        Some("export-cpu") => print!("{}", export::cpu_usage_precise(&load(&args, 2))),
        Some("export-gpu") => print!("{}", export::gpu_utilization_fm(&load(&args, 2))),
        Some("export-chrome") => {
            let [_, path, out] = &args[..] else {
                usage("export-chrome <trace.etl> <out.json>");
            };
            let trace = read(path);
            let json = chrome::chrome_trace(&trace);
            // lint:allow(fs-write): whole-file timeline export to a
            // user-chosen path.
            std::fs::write(out, &json).unwrap_or_else(|e| usage(&format!("{out}: {e}")));
            eprintln!(
                "{} events → {out} (open in https://ui.perfetto.dev)",
                trace.events().len()
            );
        }
        Some(unknown) => usage(&format!("unknown subcommand `{unknown}`")),
        None => usage("missing subcommand"),
    }
}

/// Strips a global `--analyzer-shards N` flag from anywhere on the command
/// line. `Some(n)` routes supporting subcommands through the sharded
/// streaming path; `0` resolves to one shard per hardware thread, at most
/// [`MAX_SHARDS`].
fn take_shards(args: &mut Vec<String>) -> Option<usize> {
    let i = args.iter().position(|a| a == "--analyzer-shards")?;
    let n = args
        .get(i + 1)
        .and_then(|v| v.parse::<usize>().ok())
        .unwrap_or_else(|| usage("--analyzer-shards needs a non-negative integer"));
    if n > MAX_SHARDS {
        usage(&format!(
            "--analyzer-shards {n} is above the maximum of {MAX_SHARDS}"
        ));
    }
    args.drain(i..i + 2);
    Some(if n == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
            .min(MAX_SHARDS)
    } else {
        n
    })
}

/// Opens a trace file for sharded analysis.
fn read_sharded(path: &str) -> ShardedTrace<'static> {
    ShardedTrace::from_bytes(read_bytes(path)).unwrap_or_else(|e| usage(&format!("{path}: {e}")))
}

/// Resolves a process-prefix filter through the parallel sweep.
fn sharded_filter(
    trace: &ShardedTrace,
    runner: &ThreadPoolRunner,
    shards: usize,
    prefix: &str,
) -> PidSet {
    let filter = trace
        .pids_by_name(runner, shards, prefix)
        .unwrap_or_else(|e| usage(&format!("{e}")));
    if filter.is_empty() {
        usage(&format!("no process matches `{prefix}`"));
    }
    filter
}

/// Sharded twin of [`load_filtered`].
fn load_sharded_filtered(
    args: &[String],
    cmd: &str,
    shards: usize,
) -> (ShardedTrace<'static>, PidSet, ThreadPoolRunner) {
    let [_, path, prefix] = args else {
        usage(&format!("{cmd} <trace.etl> <process-prefix>"));
    };
    let runner = ThreadPoolRunner::new(shards);
    let trace = read_sharded(path);
    let filter = sharded_filter(&trace, &runner, shards, prefix);
    (trace, filter, runner)
}

/// Writes the bench suite's synthetic workload ([`Handoff`]), rounded up
/// to whole rounds of at least `n` events, through the streaming v3 writer
/// — memory stays flat however large `n` is, so CI can smoke-test the
/// sharded analyzers on multi-million-event traces. The trace is
/// verify-clean (exit 0 end to end).
fn synth(n: u64, out: &str) {
    let gen = Handoff::at_least(n);
    let count = gen.event_count();
    let strings = gen.strings();
    let strings: Vec<&str> = strings.iter().map(String::as_str).collect();
    // lint:allow(fs-write): streamed whole-file trace export to a
    // user-chosen path; never consumed by the persistent store.
    let file = File::create(out).unwrap_or_else(|e| usage(&format!("{out}: {e}")));
    let mut w = setl3::V3Writer::new(
        BufWriter::new(file),
        Handoff::CPUS,
        SimTime::ZERO,
        gen.end(),
        &strings,
        count,
    )
    .unwrap_or_else(|e| usage(&format!("{out}: {e}")));
    for ev in gen.events() {
        w.push(&ev)
            .unwrap_or_else(|e| usage(&format!("{out}: {e}")));
    }
    w.finish()
        .and_then(|mut w| w.flush())
        .unwrap_or_else(|e| usage(&format!("{out}: {e}")));
    let bytes = std::fs::metadata(out).map(|m| m.len()).unwrap_or(0);
    eprintln!("{count} events ({bytes} bytes) → {out}");
}

/// Parses `<cmd> <trace.etl> <process-prefix>` and resolves the filter.
fn load_filtered(args: &[String], cmd: &str) -> (EtlTrace, PidSet) {
    let [_, path, prefix] = args else {
        usage(&format!("{cmd} <trace.etl> <process-prefix>"));
    };
    let trace = read(path);
    let filter = trace.pids_by_name(prefix);
    if filter.is_empty() {
        usage(&format!("no process matches `{prefix}`"));
    }
    (trace, filter)
}

fn load(args: &[String], arity: usize) -> EtlTrace {
    if args.len() != arity {
        usage("expected a trace file");
    }
    read(&args[1])
}

/// Loads one `diff` operand as a metric map. Trace files (sniffed by the
/// `SETL` magic, so a legacy flat file gets the trace reader's error) fold
/// through the streaming timeline pass into
/// [`etwtrace::Timeline::metrics`]; anything else parses as Prometheus
/// text exposition. That makes `diff` work uniformly over
/// `.etl` files and `repro --metrics` registry snapshots.
fn load_metric_set(path: &str) -> std::collections::BTreeMap<String, f64> {
    let bytes = read_bytes(path);
    if bytes.starts_with(b"SETL") {
        let tl = etwtrace::timeline::read_timeline(&bytes[..], 16)
            .unwrap_or_else(|e| usage(&format!("{path}: {e}")));
        tl.metrics()
    } else {
        let text = String::from_utf8_lossy(&bytes);
        let map = etwtrace::parse_prometheus(&text);
        if map.is_empty() {
            usage(&format!(
                "{path}: no metrics found (not a trace or registry)"
            ));
        }
        map
    }
}

fn read(path: &str) -> EtlTrace {
    etl::read_etl(&read_bytes(path)).unwrap_or_else(|e| usage(&format!("{path}: {e}")))
}

/// The whole file at `path`: every trace reader takes the stream as one
/// slice.
fn read_bytes(path: &str) -> Vec<u8> {
    std::fs::read(path).unwrap_or_else(|e| usage(&format!("{path}: {e}")))
}

fn resolve_app(wanted: &str) -> AppId {
    AppId::ALL
        .iter()
        .copied()
        .find(|a| {
            a.display_name()
                .to_ascii_lowercase()
                .contains(&wanted.to_ascii_lowercase())
        })
        .unwrap_or_else(|| usage(&format!("no app matches `{wanted}`")))
}

fn usage_text() -> String {
    [
        "usage: tracetool <subcommand> …",
        "       tracetool record <app> <secs> <out.etl>      record an app trace",
        "       tracetool info <trace.etl>                   container + record census",
        "       tracetool summary <trace.etl>                per-process overview",
        "       tracetool tlp <trace.etl> <prefix>           TLP / concurrency (Eq. 1)",
        "       tracetool latency <trace.etl> <prefix>       ready→run latency",
        "       tracetool bottlenecks <trace.etl> <prefix>   blocked-time blame",
        "       tracetool critical-path <trace.etl> <prefix> what-if TLP bound",
        "       tracetool verify <trace.etl>                 invariant + happens-before check",
        "       tracetool timeline <trace.etl> [--buckets N] [--csv|--json]",
        "                                                    bucketed TLP/wait/GPU series",
        "       tracetool diff <base> <current> [--threshold PCT]",
        "                                                    run-diff regression report",
        "       tracetool export-cpu <trace.etl>             CPU Usage (Precise) CSV",
        "       tracetool export-gpu <trace.etl>             GPU Utilization (FM) CSV",
        "       tracetool export-chrome <trace.etl> <out>    Perfetto timeline JSON",
        "       tracetool synth <events> <out.etl>           synthetic v3 stress trace",
        "       tracetool help                               this listing",
        "",
        "global: --analyzer-shards N  decode trace blocks on N workers (0 = all",
        "        hardware threads; at most 256) for verify/tlp/latency/bottlenecks/",
        "        critical-path/timeline; output is identical",
        "",
        "exit codes: 0 clean, 1 findings (verify diagnostics, diff regression),",
        "            2 usage error or corrupt input",
        "",
    ]
    .join("\n")
}

fn usage(msg: &str) -> ! {
    eprintln!("tracetool: {msg}");
    eprint!("{}", usage_text());
    std::process::exit(2);
}
