//! Office-productivity models: Acrobat, Excel, PowerPoint, Word, Outlook
//! (paper §IV-B). Mostly serial interaction handling with light helper
//! threads; Excel occasionally fans out across every logical CPU ("Excel
//! spent 3.7 % of time using the maximum number of available logical
//! cores", §VIII).

use crate::blocks::{spawn_burst, Service, UiThread};
use crate::image::fill;
use crate::params::office as p;
use crate::WorkloadOpts;
use autoinput::{install, InputAction, Script};
use machine::{Action, Machine, Pid, Work};
use simcpu::ComputeKind;
use simgpu::PacketKind;

/// Adobe Acrobat Pro DC: "scan documents, combine different files into one
/// PDF, manipulate the pages, insert links, watermarks and signatures" —
/// serial document processing, no GPU (Table II: 1.3, 0.0 %).
pub fn acrobat(m: &mut Machine, opts: &WorkloadOpts) -> Pid {
    let pid = m.add_process("acrobat.exe");
    let cycle = Script::new()
        .wait_ms(1200)
        .menu("File>Combine")
        .drag() // rearrange pages
        .click() // insert link
        .menu("Edit>Watermark")
        .keys("CONFIDENTIAL")
        .menu("File>Export>Slides");
    let channel = install(m, fill(cycle, opts.duration), opts.automation);
    let ui = UiThread::new(channel).with_handler(move |action, ctx| {
        match action {
            InputAction::Menu(_) => {
                // Combine/export runs a page-worker alongside the UI thread.
                let ms = p::ACROBAT_ACTION_MS * 2.0;
                let mut j = spawn_burst(ctx, 1, ms * 0.45, 10.0, ComputeKind::Scalar, "pages");
                let mut actions = vec![Action::Compute(Work::busy_ms(ms))];
                while let Some(w) = j.next_wait() {
                    actions.push(w);
                }
                actions
            }
            _ => vec![Action::Compute(Work::busy_ms(p::ACROBAT_ACTION_MS * 0.5))],
        }
    });
    m.spawn(pid, "ui", Box::new(ui));
    // Font/page-cache helper keeps a second thread mildly busy.
    m.spawn(
        pid,
        "pagecache",
        Box::new(Service::new(
            p::SERVICE_PERIOD_MS * 3.0,
            p::SERVICE_TICK_MS,
            ComputeKind::Scalar,
        )),
    );
    pid
}

/// Microsoft Excel: "a spreadsheet containing 1 million rows": copies,
/// means, sort and filter, histogram. Recalculation runs 2-wide; sorts and
/// histograms fan out across all logical CPUs (Table II: 2.1, 2.1 %).
pub fn excel(m: &mut Machine, opts: &WorkloadOpts) -> Pid {
    let pid = m.add_process("excel.exe");
    let cycle = Script::new()
        .wait_ms(800)
        .click() // select column
        .keys("=AVERAGE(A:A)")
        .scroll(4) // pan
        .menu("Data>Sort")
        .click() // filter rows
        .menu("Insert>Histogram");
    let channel = install(m, fill(cycle, opts.duration), opts.automation);
    let mut op = 0u32;
    let ui = UiThread::new(channel).with_handler(move |action, ctx| {
        op += 1;
        ctx.submit_gpu(0, 0, PacketKind::Present, 240.0);
        let _ = action;
        if op % p::EXCEL_WIDE_EVERY == 0 {
            // Sort / histogram over 1M rows: all logical CPUs.
            let n = ctx.logical_cpus() as u32;
            let total = p::EXCEL_WIDE_MS * 12.0;
            let mut j = spawn_burst(
                ctx,
                n,
                total / n as f64,
                6.0,
                ComputeKind::MemoryBound,
                "sort",
            );
            let mut actions = vec![Action::Compute(Work::busy_ms(p::EXCEL_RECALC_MS * 0.3))];
            while let Some(w) = j.next_wait() {
                actions.push(w);
            }
            actions
        } else {
            // Ordinary recalc: the main thread plus one calc helper.
            let mut j = spawn_burst(
                ctx,
                1,
                p::EXCEL_RECALC_MS,
                8.0,
                ComputeKind::MemoryBound,
                "calc",
            );
            let mut actions = vec![Action::Compute(
                Work::busy_ms(p::EXCEL_RECALC_MS).with_kind(ComputeKind::MemoryBound),
            )];
            while let Some(w) = j.next_wait() {
                actions.push(w);
            }
            actions
        }
    });
    m.spawn(pid, "ui", Box::new(ui));
    pid
}

/// Microsoft PowerPoint: template editing with shape animations; the GPU
/// composites the animations (Table II: 1.2, 4.0 %).
pub fn powerpoint(m: &mut Machine, opts: &WorkloadOpts) -> Pid {
    let pid = m.add_process("powerpnt.exe");
    let cycle = Script::new()
        .wait_ms(900)
        .keys("- bullet point")
        .menu("Insert>Shape")
        .drag() // scale/rotate picture
        .menu("Animations>Fly In")
        .click(); // run animation
    let channel = install(m, fill(cycle, opts.duration), opts.automation);
    let ui = UiThread::new(channel).with_handler(move |action, ctx| {
        if matches!(action, InputAction::Menu(path) if path.starts_with("Animations"))
            || matches!(action, InputAction::Click)
        {
            ctx.submit_gpu(0, 0, PacketKind::Present, p::PPT_ANIM_GFLOP);
        }
        // Layout/render helper overlaps the UI thread on heavier edits.
        if matches!(action, InputAction::Menu(_)) {
            let mut j = spawn_burst(
                ctx,
                1,
                p::PPT_ACTION_MS * 0.6,
                8.0,
                ComputeKind::Mixed,
                "layout",
            );
            let mut actions = vec![Action::Compute(Work::busy_ms(p::PPT_ACTION_MS))];
            while let Some(w) = j.next_wait() {
                actions.push(w);
            }
            return actions;
        }
        vec![Action::Compute(Work::busy_ms(p::PPT_ACTION_MS))]
    });
    m.spawn(pid, "ui", Box::new(ui));
    pid
}

/// Microsoft Word: document editing with a background spell-checker
/// (Table II: 1.3, 1.7 %).
pub fn word(m: &mut Machine, opts: &WorkloadOpts) -> Pid {
    let pid = m.add_process("winword.exe");
    let cycle = Script::new()
        .wait_ms(700)
        .keys("The quick brown fox jumps over the lazy dog. ")
        .menu("Format>Styles")
        .drag() // move image
        .keys("Further prose for the report being prepared today. ");
    let channel = install(m, fill(cycle, opts.duration), opts.automation);
    let ui = UiThread::new(channel).with_handler(move |action, ctx| {
        ctx.submit_gpu(0, 0, PacketKind::Present, p::WORD_GPU_GFLOP);
        if let InputAction::Keys(text) = action {
            // Typing re-runs spell/grammar analysis on a helper thread.
            let ms = p::WORD_ACTION_MS * 2.0 + 0.6 * text.chars().count() as f64;
            let mut j = spawn_burst(ctx, 1, ms, 8.0, ComputeKind::Scalar, "proof");
            let mut actions = vec![Action::Compute(Work::busy_ms(ms))];
            while let Some(w) = j.next_wait() {
                actions.push(w);
            }
            return actions;
        }
        vec![Action::Compute(Work::busy_ms(p::WORD_ACTION_MS))]
    });
    m.spawn(pid, "ui", Box::new(ui));
    m.spawn(
        pid,
        "spellcheck",
        Box::new(Service::new(
            p::SERVICE_PERIOD_MS * 3.5,
            p::SERVICE_TICK_MS * 0.4,
            ComputeKind::Scalar,
        )),
    );
    pid
}

/// Microsoft Outlook: compose/search/move mail with a background sync
/// engine (Table II: 1.3, 2.5 %).
pub fn outlook(m: &mut Machine, opts: &WorkloadOpts) -> Pid {
    let pid = m.add_process("outlook.exe");
    let cycle = Script::new()
        .wait_ms(1000)
        .keys("status update draft")
        .menu("Home>Search")
        .click() // reply
        .drag() // move to folder
        .menu("Home>Filter Email");
    let channel = install(m, fill(cycle, opts.duration), opts.automation);
    let ui = UiThread::new(channel).with_handler(move |action, ctx| {
        ctx.submit_gpu(0, 0, PacketKind::Present, p::OUTLOOK_GPU_GFLOP);
        match action {
            InputAction::Menu(path) => {
                // Search / filter walks the mail store on a worker thread.
                let ms = if path.contains("Search") {
                    p::OUTLOOK_ACTION_MS * 2.5
                } else {
                    p::OUTLOOK_ACTION_MS * 1.5
                };
                let mut j = spawn_burst(ctx, 1, ms * 1.4, 10.0, ComputeKind::MemoryBound, "store");
                let mut actions = vec![Action::Compute(Work::busy_ms(ms))];
                while let Some(w) = j.next_wait() {
                    actions.push(w);
                }
                actions
            }
            _ => vec![Action::Compute(Work::busy_ms(p::OUTLOOK_ACTION_MS))],
        }
    });
    m.spawn(pid, "ui", Box::new(ui));
    m.spawn(
        pid,
        "mailsync",
        Box::new(Service::new(
            p::SERVICE_PERIOD_MS * 2.0,
            p::SERVICE_TICK_MS * 1.5,
            ComputeKind::Mixed,
        )),
    );
    pid
}

#[cfg(test)]
mod tests {
    use super::*;
    use etwtrace::analysis;
    use machine::MachineConfig;
    use simcore::SimDuration;

    fn tlp_and_gpu(build: fn(&mut Machine, &WorkloadOpts) -> Pid) -> (f64, f64, usize) {
        let mut m = Machine::new(MachineConfig::study_rig(12, true));
        let opts = WorkloadOpts {
            duration: SimDuration::from_secs(40),
            ..WorkloadOpts::default()
        };
        let pid = build(&mut m, &opts);
        m.run_for(SimDuration::from_secs(40));
        let trace = m.into_trace();
        let filter: etwtrace::PidSet = [pid.0].into_iter().collect();
        let prof = analysis::concurrency(&trace, &filter);
        let util = analysis::gpu_utilization(&trace, &filter, Some(0));
        (prof.tlp(), util.percent(), prof.max_concurrency())
    }

    #[test]
    fn office_apps_have_low_tlp() {
        for (name, build) in [
            ("acrobat", acrobat as fn(&mut Machine, &WorkloadOpts) -> Pid),
            ("powerpoint", powerpoint),
            ("word", word),
            ("outlook", outlook),
        ] {
            let (tlp, _, _) = tlp_and_gpu(build);
            assert!((0.95..2.0).contains(&tlp), "{name} tlp {tlp}");
        }
    }

    #[test]
    fn excel_touches_all_cores() {
        let (tlp, _, max) = tlp_and_gpu(excel);
        assert_eq!(max, 12, "sort bursts must reach 12-wide");
        assert!((1.5..3.0).contains(&tlp), "excel tlp {tlp}");
    }

    #[test]
    fn acrobat_never_uses_gpu() {
        let (_, gpu, _) = tlp_and_gpu(acrobat);
        assert_eq!(gpu, 0.0);
    }

    #[test]
    fn powerpoint_uses_more_gpu_than_word() {
        let (_, ppt, _) = tlp_and_gpu(powerpoint);
        let (_, word_gpu, _) = tlp_and_gpu(word);
        assert!(ppt > word_gpu, "ppt {ppt} vs word {word_gpu}");
    }
}
