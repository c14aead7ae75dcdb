//! `parabench` — the end-to-end and per-layer benchmark of the Table II
//! pipeline: simulate, store, replay, and analyse traces with `tracetool`.
//!
//! ```text
//! parabench --workload <name> [--seed S] [--seconds N] [--trace 0|1]
//! parabench all [--seed S] [--seconds N]
//! ```
//!
//! With `--trace 0` a run sets its workload up three times (reporting the
//! median as `setup_s`), then runs closed-loop passes for `--seconds` and
//! reports the end-to-end metrics. With `--trace 1` it sets up once and
//! runs the traced layer walk (see `walk.rs`) for `--seconds`, reporting the
//! per-layer metrics and writing the spans to
//! `target/parabench/<workload>-seed<S>.trace.json`. Either way the last
//! line of stdout is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. `all` runs every workload in both modes, each in a fresh
//! child process, writes `target/parabench/results-seed<S>.json`, and exits
//! 1 if any operation failed. Run it from the repository root.

mod calibrate;
mod heap;
mod metrics;
mod recorder;
mod stats;
mod tools;
mod walk;
mod workload;

use metrics::Outcome;
use recorder::Recorder;
use std::path::Path;
use std::process::{Command, Stdio};
use workload::{Prepared, Tally, WorkDir, Workload};

#[global_allocator]
static HEAP: heap::Counting = heap::Counting;

/// Set-ups per `--trace 0` run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Timed passes per run at the least, however short `--seconds` is.
const MIN_PASSES: usize = 3;

struct Args {
    all: bool,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut a = Args {
        all: false,
        workload: None,
        seed: workload::TUNING_SEED,
        seconds: 10.0,
        trace: false,
    };
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| it.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "all" => a.all = true,
            "--workload" => a.workload = Some(value("--workload")?),
            "--seed" => a.seed = value("--seed")?.parse().map_err(|_| "bad --seed")?,
            "--seconds" => {
                a.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or("bad --seconds")?;
            }
            "--trace" => {
                a.trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unexpected argument `{other}`")),
        }
    }
    Ok(a)
}

fn usage(msg: &str) -> ! {
    eprintln!("parabench: {msg}");
    eprintln!("usage: parabench --workload <name> [--seed S] [--seconds N] [--trace 0|1]");
    eprintln!("       parabench all [--seed S] [--seconds N]");
    let names: Vec<&str> = workload::ALL.iter().map(|w| w.name).collect();
    eprintln!("workloads: {}", names.join(" "));
    std::process::exit(2);
}

fn main() {
    let args = parse(std::env::args().skip(1)).unwrap_or_else(|e| usage(&e));
    if args.all {
        std::process::exit(all(&args));
    }
    let name = args
        .workload
        .as_deref()
        .unwrap_or_else(|| usage("missing --workload"));
    let w = workload::find(name).unwrap_or_else(|| usage(&format!("unknown workload `{name}`")));
    let work = WorkDir::new(w.name, args.seed);
    let (outcome, catalogue) = if args.trace {
        (traced(w, &args, &work), &metrics::PER_LAYER[..])
    } else {
        (timed(w, &args, &work), &metrics::END_TO_END[..])
    };
    drop(work);
    match outcome.json(catalogue) {
        Ok(line) => {
            for (name, unit) in catalogue {
                if let Some((_, v)) = outcome.values.iter().find(|(n, _)| n == name) {
                    eprintln!("{} {name} {v} {unit}", w.name);
                }
            }
            println!("{line}");
        }
        Err(e) => {
            eprintln!("parabench: {e}");
            std::process::exit(1);
        }
    }
}

/// Prints a timing's median, quartiles and sample count.
fn describe(w: &Workload, name: &str, values: &[f64]) {
    let (q1, q3) = stats::quartiles(values);
    eprintln!(
        "# {} {name}: median {:.4} s, q1 {q1:.4}, q3 {q3:.4}, n {}",
        w.name,
        stats::median(values),
        values.len()
    );
}

/// The end-to-end run: set up [`SETUP_REPS`] times, then closed-loop
/// passes — one client, the next pass starting when the last one ends —
/// for `--seconds`.
fn timed(w: &Workload, a: &Args, work: &WorkDir) -> Outcome {
    let mut tally = Tally::default();
    // (raw, normalised) seconds of each set-up and each pass.
    let (mut setups, mut sweeps) = (Vec::new(), Vec::new());
    let mut prepared: Option<Prepared> = None;
    let mut reference = None;
    for _ in 0..SETUP_REPS {
        // Drop the previous set-up, and the store it filled, first.
        drop(prepared.take());
        let slowdown = calibrate::host_slowdown(workload::JOBS);
        let t = stats::now();
        let p = w.prepare(a.seed, work, &mut tally, false);
        let raw = stats::secs_since(t);
        setups.push((raw, raw / slowdown));
        let first = *reference.get_or_insert(p.reference_digest());
        if p.reference_digest() != first {
            tally.record(Err(
                "a repeated set-up produced other reference outputs".into()
            ));
        }
        prepared = Some(p);
    }
    let p = prepared.expect("at least one set-up");
    let t0 = stats::now();
    while sweeps.len() < MIN_PASSES || stats::secs_since(t0) < a.seconds {
        let slowdown = calibrate::host_slowdown(w.busy_threads());
        let raw = w.pass(&p, work, a.seed, w.parallel(), &mut tally).secs;
        sweeps.push((raw, raw / slowdown));
    }
    let (setup_raw, setup_s): (Vec<f64>, Vec<f64>) = setups.into_iter().unzip();
    let (sweep_raw, sweep_s): (Vec<f64>, Vec<f64>) = sweeps.into_iter().unzip();
    describe(w, "setup_s (raw)", &setup_raw);
    describe(w, "setup_s", &setup_s);
    describe(w, "sweep_s (raw)", &sweep_raw);
    describe(w, "sweep_s", &sweep_s);
    eprintln!(
        "# {} accuracy against the paper's Table II: TLP MAE {:.4}, GPU % MAE {:.4}",
        w.name, p.tlp_mae, p.gpu_mae
    );
    const MIB: f64 = 1024.0 * 1024.0;
    let values = [
        ("setup_s", stats::median(&setup_s)),
        ("sweep_s", stats::median(&sweep_s)),
        ("peak_heap_mb", heap::peak_mib()),
        ("data_mb", p.data_bytes as f64 / MIB),
    ];
    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        values: values.iter().map(|(n, v)| (n.to_string(), *v)).collect(),
    }
}

/// The per-layer run: set up once, time one pass on the calling thread and
/// one on the pool, then alternate untraced and traced layer walks for
/// `--seconds`. Per-layer values are medians over the traced walks; the
/// tracing overhead compares the walks' median wall times.
fn traced(w: &Workload, a: &Args, work: &WorkDir) -> Outcome {
    let mut tally = Tally::default();
    let p = w.prepare(a.seed, work, &mut tally, true);
    let one = w.pass(&p, work, a.seed, false, &mut tally);
    let pooled = w.pass(&p, work, a.seed, true, &mut tally);
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut layers: Vec<Vec<(String, f64)>> = Vec::new();
    let mut last = None;
    let t0 = stats::now();
    while layers.is_empty() || stats::secs_since(t0) < a.seconds {
        // Alternate which walk of a pair runs first, so warm-up effects do
        // not read as tracing overhead.
        let traced_first = layers.len() % 2 == 1;
        for on in [traced_first, !traced_first] {
            let dir = work.fresh();
            let mut rec = Recorder::new(on);
            let wall = walk::walk(&mut rec, &p, &dir, &mut tally);
            let _ = std::fs::remove_dir_all(&dir);
            if on {
                traced.push(wall);
                layers.push(walk::layer_metrics(&rec));
                last = Some(rec);
            } else {
                untraced.push(wall);
            }
        }
    }
    describe(w, "walk (untraced)", &untraced);
    describe(w, "walk (traced)", &traced);
    let mut values: Vec<(String, f64)> = layers[0]
        .iter()
        .map(|(name, _)| {
            let all: Vec<f64> = layers
                .iter()
                .filter_map(|set| set.iter().find(|(n, _)| n == name).map(|(_, v)| *v))
                .collect();
            (name.clone(), stats::median(&all))
        })
        .collect();
    let [memo_hits, disk_hits, disk_misses, quarantined] = pooled.counts;
    values.extend([
        (
            "runner.parallel_efficiency".to_string(),
            one.secs / (workload::JOBS as f64 * pooled.secs),
        ),
        ("runner.memo_hits".into(), memo_hits as f64),
        ("runner.disk_hits".into(), disk_hits as f64),
        ("runner.disk_misses".into(), disk_misses as f64),
        ("runner.quarantined".into(), quarantined as f64),
        (
            "trace.overhead_pct".into(),
            100.0 * (stats::median(&traced) / stats::median(&untraced) - 1.0),
        ),
    ]);
    if let Some(rec) = last {
        let path = format!("target/parabench/{}-seed{}.trace.json", w.name, a.seed);
        write(Path::new(&path), rec.chrome_json().as_bytes());
    }
    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        values,
    }
}

/// Writes a result file through the store's atomic temp-file + rename
/// helper, so a reader never sees a torn file.
fn write(path: &Path, bytes: &[u8]) {
    match parastat::store::atomic_write(path, bytes) {
        Ok(()) => eprintln!("# wrote {}", path.display()),
        Err(e) => eprintln!("parabench: cannot write {}: {e}", path.display()),
    }
}

/// `parabench all`: every workload in both modes, one fresh child process
/// at a time so no run inherits another's heap, page cache warmth aside.
fn all(a: &Args) -> i32 {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("parabench: cannot locate own executable: {e}");
            return 1;
        }
    };
    let mut ok = true;
    let mut runs = Vec::new();
    for w in &workload::ALL {
        for trace in ["0", "1"] {
            let out = Command::new(&exe)
                .args(["--workload", w.name, "--trace", trace])
                .args([
                    "--seed",
                    &a.seed.to_string(),
                    "--seconds",
                    &a.seconds.to_string(),
                ])
                .stderr(Stdio::inherit())
                .output();
            let line = match &out {
                Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout)
                    .lines()
                    .last()
                    .unwrap_or_default()
                    .to_string(),
                _ => String::new(),
            };
            if !line.starts_with("{\"correct\": true,") {
                eprintln!("parabench: {} --trace {trace} failed", w.name);
                ok = false;
            }
            if !line.is_empty() {
                runs.push(format!(
                    "  {{\"workload\": \"{}\", \"trace\": {trace}, \"result\": {line}}}",
                    w.name
                ));
            }
        }
    }
    let doc = format!(
        "{{\"seed\": {}, \"seconds\": {}, \"runs\": [\n{}\n]}}\n",
        a.seed,
        a.seconds,
        runs.join(",\n")
    );
    write(
        Path::new(&format!("target/parabench/results-seed{}.json", a.seed)),
        doc.as_bytes(),
    );
    if ok {
        0
    } else {
        1
    }
}
