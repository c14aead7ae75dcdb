//! Persistent-store determinism: cold and warm runs, any job count, must
//! render byte-identical artifacts — and a corrupted entry must cost one
//! re-simulation, never a changed byte.

use etwtrace::{EtlTrace, HbOptions, PidSet, ThreadKey, TraceBuilder, TraceEvent, WaitReason};
use parastat::store::LoadOutcome;
use parastat::{Budget, Experiment, RunContext, RunMetrics, RunRequest, SimStore, SingleRun};
use simcore::{SimDuration, SimTime};
use std::path::{Path, PathBuf};
use workloads::AppId;

fn tmp_root(name: &str) -> PathBuf {
    let mut root = std::env::temp_dir();
    root.push(format!("simstore-it-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    root
}

fn experiments() -> Vec<Experiment> {
    let budget = Budget {
        duration: SimDuration::from_secs(2),
        iterations: 2,
    };
    vec![
        Experiment::new(AppId::VlcMediaPlayer).budget(budget),
        Experiment::new(AppId::Handbrake)
            .budget(budget)
            .logical(4, true),
    ]
}

fn render(ctx: &RunContext) -> String {
    let mut out = String::new();
    for m in ctx.run_experiments(&experiments()) {
        out.push_str(&format!(
            "{:?} tlp={} fractions={:?}\n",
            m.app,
            m.tlp.mean().to_bits(),
            m.fractions()
        ));
        for metrics in &m.metrics {
            out.push_str(&metrics.to_prometheus());
        }
    }
    out
}

fn store_ctx(root: &Path, jobs: usize) -> RunContext {
    let mut ctx = RunContext::pooled(jobs);
    ctx.set_store(SimStore::open(root));
    ctx
}

/// Every live entry of a store, in path order (the quarantine is skipped).
fn entries(root: &Path) -> Vec<PathBuf> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(read) = std::fs::read_dir(dir) else {
            return;
        };
        let mut paths: Vec<_> = read.flatten().map(|e| e.path()).collect();
        paths.sort();
        for p in paths {
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n != "quarantine") {
                    walk(&p, out);
                }
            } else if p.extension().is_some_and(|x| x == "run") {
                out.push(p);
            }
        }
    }
    let mut out = Vec::new();
    walk(root, &mut out);
    out
}

/// Flips one byte in the middle of an entry.
fn corrupt(entry: &Path) {
    let mut bytes = std::fs::read(entry).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x80;
    parastat::store::atomic_write(entry, &bytes).unwrap();
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for e in std::fs::read_dir(from).unwrap().flatten() {
        let target = to.join(e.file_name());
        if e.path().is_dir() {
            copy_dir(&e.path(), &target);
        } else {
            std::fs::copy(e.path(), &target).unwrap();
        }
    }
}

#[test]
fn warm_store_replays_with_zero_simulations_and_identical_bytes() {
    let root = tmp_root("warm");

    // Cold pass, serial: everything simulates and persists.
    let cold = store_ctx(&root, 1);
    let cold_render = render(&cold);
    let (_, cold_misses) = cold.cache_stats();
    let (dh, dm, q) = cold.store_stats();
    assert_eq!(cold_misses, 4, "2 experiments x 2 iterations simulate");
    assert_eq!((dh, q), (0, 0));
    assert_eq!(dm, 4);

    // Warm pass, pooled: zero simulations, 100% disk hits, same bytes.
    let warm = store_ctx(&root, 4);
    let warm_render = render(&warm);
    let (_, warm_misses) = warm.cache_stats();
    let (dh, dm, q) = warm.store_stats();
    assert_eq!(warm_misses, 0, "warm store must not simulate");
    assert_eq!((dh, dm, q), (4, 0, 0));
    assert_eq!(
        cold_render, warm_render,
        "cold and warm artifacts must match"
    );

    // No-store reference: the store must be invisible in the artifacts.
    let plain = RunContext::serial();
    assert_eq!(render(&plain), cold_render);
    assert_eq!(plain.store_stats(), (0, 0, 0));

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn corrupted_entry_requarantines_and_resimulates_identically() {
    let root = tmp_root("corrupt");
    let cold_render = render(&store_ctx(&root, 1));

    // Flip one byte in one persisted entry.
    corrupt(&entries(&root)[0]);

    let repair = store_ctx(&root, 2);
    let repaired_render = render(&repair);
    let (_, misses) = repair.cache_stats();
    let (dh, dm, q) = repair.store_stats();
    assert_eq!(q, 1, "exactly the poisoned entry is quarantined");
    assert_eq!(misses, 1, "only the poisoned entry re-simulates");
    assert_eq!((dh, dm), (3, 1));
    assert_eq!(
        repaired_render, cold_render,
        "corruption must never leak into artifacts"
    );
    assert_eq!(repair.store_notes().len(), 1);
    assert!(repair.store_notes()[0].contains("quarantined"));

    // The re-simulation healed the store: next pass is fully warm.
    let healed = store_ctx(&root, 1);
    assert_eq!(render(&healed), cold_render);
    assert_eq!(healed.store_stats(), (4, 0, 0));

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn corrupted_copies_replay_identically_at_any_job_count() {
    let root = tmp_root("copies");
    let cold_render = render(&store_ctx(&root, 1));
    for entry in &entries(&root)[..2] {
        corrupt(entry);
    }
    let copies = [tmp_root("copies-serial"), tmp_root("copies-pooled")];
    for copy in &copies {
        copy_dir(&root, copy);
    }

    // The serial and the pooled replay each load two good entries and
    // quarantine, re-simulate and write back two bad ones.
    let serial = store_ctx(&copies[0], 1);
    let pooled = store_ctx(&copies[1], 4);
    let serial_render = render(&serial);
    assert_eq!(serial_render, cold_render);
    assert_eq!(render(&pooled), serial_render);
    assert_eq!(serial.store_stats(), (2, 2, 2));
    assert_eq!(pooled.store_stats(), serial.store_stats());
    assert_eq!(serial.store_notes().len(), 2);
    assert_eq!(pooled.store_notes(), serial.store_notes());
    assert_eq!(pooled.verify_stats(), serial.verify_stats());

    // Both write-backs healed their copy.
    for copy in &copies {
        let healed = store_ctx(copy, 1);
        assert_eq!(render(&healed), cold_render);
        assert_eq!(healed.store_stats(), (4, 0, 0));
        let _ = std::fs::remove_dir_all(copy);
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn load_outcome_reflects_store_state() {
    let root = tmp_root("outcome");
    let store = SimStore::open(&root);
    let exp = Experiment::new(AppId::VlcMediaPlayer).budget(Budget {
        duration: SimDuration::from_secs(2),
        iterations: 1,
    });
    let req = RunRequest::new(&exp, 42);
    let key = req.cache_key();
    assert!(matches!(store.load(&key), LoadOutcome::Miss));
    store.save(&key, &req.execute()).unwrap();
    assert!(matches!(store.load(&key), LoadOutcome::Hit(_)));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn an_epoch_1_entry_is_a_clean_miss() {
    let root = tmp_root("epoch1");
    let store = SimStore::open(&root);
    let exp = Experiment::new(AppId::VlcMediaPlayer).budget(Budget {
        duration: SimDuration::from_secs(2),
        iterations: 1,
    });
    let key = RunRequest::new(&exp, 42).cache_key();
    // Epoch-1 entries may hold SETL v3 revision-1 traces, which no reader
    // decodes any more. The epoch is part of the address, so an entry
    // filed where epoch 1 put it is never read: a miss, not a quarantine.
    let mut h = cryptomine::Sha256::new();
    h.update(key.as_str().as_bytes());
    h.update(&1u32.to_le_bytes());
    let hex: String = h.finalize().iter().map(|b| format!("{b:02x}")).collect();
    let old = root.join("v1").join(&hex[..2]).join(format!("{hex}.run"));
    parastat::store::atomic_write(&old, b"SRUN epoch-1 entry").unwrap();
    assert_ne!(store.entry_path(&key), old);
    assert!(matches!(store.load(&key), LoadOutcome::Miss));
    assert!(old.exists(), "the old entry is left alone");
    assert!(!store.quarantine_dir().exists());
    let _ = std::fs::remove_dir_all(&root);
}

fn ms(t: u64) -> SimTime {
    SimTime::from_nanos(t * 1_000_000)
}

/// One process with threads `0..n` started at 0 on a 2-CPU machine.
fn process(n: u64) -> TraceBuilder {
    let mut b = TraceBuilder::new(2);
    b.push(TraceEvent::ProcessStart {
        at: ms(0),
        pid: 1,
        name: "vlc.exe".into(),
    });
    for tid in 0..n {
        b.push(TraceEvent::ThreadStart {
            at: ms(0),
            key: ThreadKey { pid: 1, tid },
            name: format!("t{tid}"),
        });
    }
    b
}

/// Exactly one `verify` finding and none from happens-before: thread 1
/// switches in onto CPU 0 while thread 0 still occupies it (V003).
fn switch_onto_an_occupied_cpu() -> EtlTrace {
    let mut b = process(2);
    for (at, tid) in [(0, 0), (1, 1)] {
        b.push(TraceEvent::CSwitch {
            at: ms(at),
            cpu: 0,
            old: None,
            new: Some(ThreadKey { pid: 1, tid }),
            ready_since: Some(ms(0)),
        });
    }
    b.finish(ms(0), ms(10))
}

/// Exactly one finding, from happens-before only: the one thread parks
/// on an event nothing signals and is still parked at the end (H001).
fn the_last_live_thread_parked() -> EtlTrace {
    let t0 = ThreadKey { pid: 1, tid: 0 };
    let mut b = process(1);
    b.push(TraceEvent::CSwitch {
        at: ms(0),
        cpu: 0,
        old: None,
        new: Some(t0),
        ready_since: Some(ms(0)),
    });
    b.push(TraceEvent::CSwitch {
        at: ms(1),
        cpu: 0,
        old: Some(t0),
        new: None,
        ready_since: None,
    });
    b.push(TraceEvent::WaitBegin {
        at: ms(1),
        key: t0,
        reason: WaitReason::Event { id: 5 },
    });
    b.finish(ms(0), ms(10))
}

/// A run holding `trace` whose snapshot recorded `recorded` findings.
fn hand_built(trace: EtlTrace, recorded: u64) -> SingleRun {
    let mut metrics = RunMetrics::default();
    metrics
        .registry
        .counter("parastat_verify_findings_total", &[], recorded);
    SingleRun {
        trace,
        filter: [1].into_iter().collect::<PidSet>(),
        metrics,
    }
}

/// A load re-runs verify and happens-before on the decoded trace. An entry
/// whose count of findings differs from its snapshot's is quarantined and
/// re-simulated, whichever pass the finding comes from; an entry that
/// recorded its findings loads.
#[test]
fn a_load_quarantines_an_entry_whose_findings_differ_from_its_record() {
    let exp = Experiment::new(AppId::VlcMediaPlayer).budget(Budget {
        duration: SimDuration::from_secs(2),
        iterations: 1,
    });
    let cases = [
        ("verify", switch_onto_an_occupied_cpu(), (1, 0)),
        ("hb", the_last_live_thread_parked(), (0, 1)),
    ];
    for (pass, trace, counts) in cases {
        let verified = etwtrace::verify_trace(&trace);
        let causal = etwtrace::analyze(&trace, &HbOptions::default());
        assert_eq!(
            (verified.diagnostics.len(), causal.findings.len()),
            counts,
            "{pass}:\n{}{}",
            verified.render(),
            causal.render()
        );
        for recorded in [0, 1] {
            let root = tmp_root(&format!("reverify-{pass}-{recorded}"));
            let req = RunRequest::new(&exp, 42);
            let key = req.cache_key();
            let store = SimStore::open(&root);
            store
                .save(&key, &hand_built(trace.clone(), recorded))
                .unwrap();
            let ctx = store_ctx(&root, 1);
            ctx.run_singles(vec![req]);
            if recorded == 0 {
                assert_eq!(ctx.store_stats(), (0, 1, 1), "{pass}");
                let notes = ctx.store_notes();
                assert_eq!(notes.len(), 1, "{pass}: {notes:?}");
                assert!(
                    notes[0].ends_with("verify pass found 1 finding(s), entry recorded 0"),
                    "{pass}: {notes:?}"
                );
                assert_eq!(
                    std::fs::read_dir(store.quarantine_dir()).unwrap().count(),
                    1
                );
            } else {
                assert_eq!(ctx.store_stats(), (1, 0, 0), "{pass}");
                assert!(ctx.store_notes().is_empty(), "{pass}");
                assert_eq!(ctx.verify_stats(), (1, 1), "{pass}");
                let LoadOutcome::Hit(run) = store.load(&key) else {
                    panic!("{pass}: an entry that recorded its finding must load");
                };
                assert_eq!(run.trace, trace);
            }
            let _ = std::fs::remove_dir_all(&root);
        }
    }
}
