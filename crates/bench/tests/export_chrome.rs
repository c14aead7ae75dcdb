//! End-to-end check of the Perfetto pipeline: simulate a short run, round-
//! trip the trace through the binary `.etl` format, export Chrome trace-event
//! JSON, and verify the JSON covers every context switch and GPU packet with
//! well-formed `ph`/`ts`/`pid`/`tid`/`name` fields.

use etwtrace::{chrome, etl, setl3, TraceEvent};
use machine::{Machine, MachineConfig};
use simcore::SimDuration;
use workloads::{build, AppId, WorkloadOpts};

/// Pulls the string value of a JSON field like `"ph":"X"` out of one event
/// line. The exporter emits one event object per line, so line-oriented
/// parsing is exact, not heuristic.
fn field<'a>(line: &'a str, name: &str) -> Option<&'a str> {
    let tag = format!("\"{name}\":");
    let rest = &line[line.find(&tag)? + tag.len()..];
    if let Some(stripped) = rest.strip_prefix('"') {
        stripped.split('"').next()
    } else {
        rest.split([',', '}']).next()
    }
}

#[test]
fn chrome_export_round_trips_and_covers_the_trace() {
    // A short VLC run exercises CPU threads, GPU queue packets and frames.
    let mut m = Machine::new(MachineConfig::study_rig(12, true));
    let opts = WorkloadOpts {
        duration: SimDuration::from_secs(2),
        ..WorkloadOpts::default()
    };
    build(AppId::VlcMediaPlayer, &mut m, &opts);
    m.run_for(SimDuration::from_secs(2));
    let trace = m.into_trace();

    // Round-trip through the binary format, as `tracetool export-chrome`
    // does when reading a recorded `.etl` file.
    let bytes = setl3::encode(&trace);
    let reloaded = etl::read_etl(bytes.as_slice()).expect("reload trace");
    assert_eq!(reloaded.events(), trace.events());

    let json = chrome::chrome_trace(&reloaded);
    let events: Vec<&str> = json
        .lines()
        .filter(|l| l.starts_with('{') && l.contains("\"ph\""))
        .collect();
    assert!(!events.is_empty());

    // Every event carries the required trace-event fields.
    let mut slices = 0usize;
    let mut gpu_slices = 0usize;
    let mut instants = 0usize;
    let mut counters = 0usize;
    for ev in &events {
        let ph = field(ev, "ph").expect("ph");
        let name = field(ev, "name").expect("name");
        let pid: u64 = field(ev, "pid").expect("pid").parse().expect("pid int");
        assert!(!name.is_empty(), "unnamed event: {ev}");
        let ts: f64 = field(ev, "ts").expect("ts").parse().expect("ts number");
        assert!(ts >= 0.0);
        match ph {
            "X" => {
                let tid: u64 = field(ev, "tid").expect("tid").parse().expect("tid int");
                let dur: f64 = field(ev, "dur").expect("dur").parse().expect("dur number");
                assert!(dur >= 0.0);
                slices += 1;
                if pid >= 1000 {
                    gpu_slices += 1;
                } else {
                    assert_eq!(pid, 1, "CPU slices live in the CPU track group");
                    assert!((tid as usize) < trace.n_logical_cpus());
                }
            }
            "i" => instants += 1,
            "M" => assert!(name == "process_name" || name == "thread_name"),
            "C" => {
                // Timeline counter tracks live on their own synthetic pid
                // and always carry a finite numeric value.
                assert_eq!(pid, 3000, "counters live in the timeline track: {ev}");
                let value: f64 = field(ev, "value").expect("value").parse().expect("number");
                assert!(value.is_finite());
                counters += 1;
            }
            other => panic!("unexpected phase {other}: {ev}"),
        }
    }

    // Coverage: one slice per switch-in, one per started GPU packet, one
    // instant per frame/marker.
    let switch_ins = trace
        .events()
        .iter()
        .filter(|e| matches!(e, TraceEvent::CSwitch { new: Some(_), .. }))
        .count();
    let packets = trace
        .events()
        .iter()
        .filter(|e| matches!(e, TraceEvent::GpuStart { .. }))
        .count();
    let frames = trace
        .events()
        .iter()
        .filter(|e| matches!(e, TraceEvent::Frame { .. } | TraceEvent::Marker { .. }))
        .count();
    assert!(switch_ins > 0 && packets > 0 && frames > 0, "dull trace");
    assert_eq!(slices, switch_ins + packets);
    assert_eq!(gpu_slices, packets);
    assert_eq!(instants, frames);
    // Four counter series (TLP, ready queue, blocked threads, GPU busy %),
    // one sample per timeline bucket plus a closing sample each.
    assert!(counters > 0 && counters % 4 == 0, "got {counters} counters");

    // Determinism: exporting the same trace twice is byte-identical.
    assert_eq!(json, chrome::chrome_trace(&trace));
}
