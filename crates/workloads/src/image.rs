//! Image-authoring models: Photoshop, Maya 3D, AutoCAD (paper §IV-A).

use crate::blocks::{spawn_burst, Join, Service, UiThread};
use crate::params::{autocad, maya, photoshop};
use crate::WorkloadOpts;
use autoinput::{install, InputAction, Script};
use machine::{Action, Machine, Pid, Work};
use simcore::SimDuration;
use simcpu::ComputeKind;
use simgpu::PacketKind;

/// Repeats `cycle` enough times to cover `duration`.
pub(crate) fn fill(cycle: Script, duration: SimDuration) -> Script {
    let nominal = cycle.nominal_duration();
    if nominal.is_zero() {
        return cycle;
    }
    let reps = (duration.as_millis() / nominal.as_millis()).max(1) as u32 + 1;
    cycle.repeated(reps)
}

/// A render job: serial preparation, then a fork-join burst across
/// `threads` workers, then serial post-processing. Used by Photoshop's
/// filters and Maya's software renderer so the serial phases genuinely
/// precede/follow the parallel region (Amdahl's law, §V-C1).
pub(crate) struct RenderJob {
    /// Serial preparation (ref-ms).
    pub serial_ms: f64,
    /// Serial post-processing (ref-ms).
    pub post_ms: f64,
    /// Fork width.
    pub threads: u32,
    /// Per-worker work (ref-ms).
    pub per_thread_ms: f64,
    /// Worker chunk size.
    pub seg_ms: f64,
    /// Worker flavour.
    pub kind: ComputeKind,
    /// Optional GPU packet submitted with the burst.
    pub gpu_gflop: f64,
    pub(crate) phase: JobPhase,
    pub(crate) join: Option<Join>,
}

/// Lifecycle of a [`RenderJob`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum JobPhase {
    Prep,
    Fork,
    Join,
    Post,
    Done,
}

impl RenderJob {
    pub(crate) fn new(
        serial_ms: f64,
        post_ms: f64,
        threads: u32,
        per_thread_ms: f64,
        seg_ms: f64,
        kind: ComputeKind,
        gpu_gflop: f64,
    ) -> Self {
        RenderJob {
            serial_ms,
            post_ms,
            threads,
            per_thread_ms,
            seg_ms,
            kind,
            gpu_gflop,
            phase: JobPhase::Prep,
            join: None,
        }
    }
}

impl machine::ThreadProgram for RenderJob {
    fn next(&mut self, ctx: &mut machine::ThreadCtx<'_>) -> Action {
        loop {
            match self.phase {
                JobPhase::Prep => {
                    self.phase = JobPhase::Fork;
                    return Action::Compute(Work::busy_ms(self.serial_ms));
                }
                JobPhase::Fork => {
                    self.join = Some(spawn_burst(
                        ctx,
                        self.threads,
                        self.per_thread_ms,
                        self.seg_ms,
                        self.kind,
                        "render",
                    ));
                    if self.gpu_gflop > 0.0 {
                        ctx.submit_gpu(0, 0, PacketKind::Compute, self.gpu_gflop);
                    }
                    self.phase = JobPhase::Join;
                }
                JobPhase::Join => {
                    if let Some(w) = self.join.as_mut().and_then(|j| j.next_wait()) {
                        return w;
                    }
                    self.phase = JobPhase::Post;
                }
                JobPhase::Post => {
                    self.phase = JobPhase::Done;
                    return Action::Compute(Work::busy_ms(self.post_ms));
                }
                JobPhase::Done => return Action::Exit,
            }
        }
    }
}

/// Adobe Photoshop CC: "5 custom filters are applied serially on a
/// 100 mega-pixel photograph". Filter rendering forks one worker per
/// logical CPU (linear scaling, §V-C1 / Fig. 6); interaction handling is
/// serial.
pub fn photoshop(m: &mut Machine, opts: &WorkloadOpts) -> Pid {
    let pid = m.add_process("photoshop.exe");
    let cycle = Script::new()
        .wait_ms(photoshop::FILTER_PERIOD_S * 1000 - 4500)
        .click() // select region
        .scroll(2) // zoom to inspect
        .menu("Filter>Apply");
    let channel = install(m, fill(cycle, opts.duration), opts.automation);

    let ui = UiThread::new(channel).with_handler(move |action, ctx| {
        match action {
            InputAction::Menu(_) => {
                // Fork the filter render across every logical CPU; total
                // image work is fixed, so per-worker work shrinks with the
                // enabled core count (runtime scales, Fig. 6). Serial
                // pre/post phases bracket the parallel region.
                let n = ctx.logical_cpus() as u32;
                let total = photoshop::FILTER_WORKER_MS * 12.0;
                ctx.spawn_sibling(
                    "filter",
                    Box::new(RenderJob::new(
                        photoshop::FILTER_SERIAL_MS,
                        photoshop::FILTER_SERIAL_MS * 0.6,
                        n,
                        total / n as f64,
                        photoshop::FILTER_SEG_MS,
                        ComputeKind::Vector,
                        photoshop::FILTER_GPU_GFLOP,
                    )),
                );
                vec![Action::Compute(Work::busy_ms(8.0))]
            }
            _ => vec![Action::Compute(Work::busy_ms(photoshop::INTERACT_MS))],
        }
    });
    m.spawn(pid, "ui", Box::new(ui));
    // Scratch-disk / housekeeping service.
    m.spawn(
        pid,
        "housekeeping",
        Box::new(Service::new(500.0, 2.0, ComputeKind::Scalar)),
    );
    pid
}

/// Autodesk Maya 3D: "software render with raytracing followed by a
/// hardware render with fog, motion blur and anti-aliasing, rotate, pan and
/// zoom the camera".
pub fn maya(m: &mut Machine, opts: &WorkloadOpts) -> Pid {
    let pid = m.add_process("maya.exe");
    let cycle = Script::new()
        .wait_ms(maya::RENDER_PERIOD_S * 1000 / 2 - 3000)
        .menu("Render>Software (raytrace)")
        .wait_ms(maya::RENDER_PERIOD_S * 1000 / 2 - 3000)
        .menu("Render>Hardware")
        .drag() // orbit
        .scroll(3); // zoom
    let channel = install(m, fill(cycle, opts.duration), opts.automation);

    let ui = UiThread::new(channel).with_handler(move |action, ctx| match action {
        InputAction::Menu(path) if path.contains("Software") => {
            ctx.spawn_sibling(
                "raytrace",
                Box::new(RenderJob::new(
                    maya::PREP_MS,
                    maya::PREP_MS * 0.3,
                    maya::RAYTRACE_THREADS,
                    maya::RAYTRACE_WORKER_MS,
                    10.0,
                    ComputeKind::Vector,
                    0.0,
                )),
            );
            vec![Action::Compute(Work::busy_ms(10.0))]
        }
        InputAction::Menu(_) => {
            // Hardware render: GPU does the work; Maya blocks on it.
            let sub = ctx.submit_gpu(0, 0, PacketKind::Graphics3d, maya::HW_RENDER_GFLOP);
            vec![
                Action::Compute(Work::busy_ms(maya::PREP_MS * 0.4)),
                Action::WaitGpu(sub),
            ]
        }
        _ => {
            ctx.submit_gpu(0, 0, PacketKind::Graphics3d, maya::VIEWPORT_GFLOP);
            vec![Action::Compute(Work::busy_ms(maya::VIEWPORT_MS))]
        }
    });
    m.spawn(pid, "ui", Box::new(ui));
    pid
}

/// Autodesk AutoCAD LT: "import a floorplan, pan, zoom, draw, fillet the
/// edges, mirror and enter text" — serial command processing with GPU
/// viewport regenerations (Table II: TLP 1.2, GPU 9.0 %).
pub fn autocad(m: &mut Machine, opts: &WorkloadOpts) -> Pid {
    let pid = m.add_process("acad.exe");
    let cycle = Script::new()
        .wait_ms(900)
        .drag() // pan
        .scroll(2) // zoom
        .click() // draw
        .menu("Modify>Fillet")
        .click() // mirror pick
        .keys("room label"); // enter text
    let channel = install(m, fill(cycle, opts.duration), opts.automation);

    let mut op = 0u32;
    let ui = UiThread::new(channel).with_handler(move |action, ctx| {
        op += 1;
        // Every command redraws the viewport on the GPU.
        ctx.submit_gpu(0, 0, PacketKind::Graphics3d, autocad::REDRAW_GFLOP);
        let mut actions = vec![Action::Compute(Work::busy_ms(autocad::COMMAND_MS))];
        if matches!(action, InputAction::Menu(_)) || op % 4 == 0 {
            // Occasional regen uses a helper thread (width 2).
            let mut j = spawn_burst(ctx, 1, autocad::REGEN_MS, 5.0, ComputeKind::Mixed, "regen");
            actions.push(Action::Compute(Work::busy_ms(autocad::REGEN_MS)));
            while let Some(w) = j.next_wait() {
                actions.push(w);
            }
        }
        actions
    });
    m.spawn(pid, "ui", Box::new(ui));
    pid
}

#[cfg(test)]
mod tests {
    use super::*;
    use etwtrace::analysis;
    use machine::MachineConfig;

    fn run(build: fn(&mut Machine, &WorkloadOpts) -> Pid, secs: u64) -> (etwtrace::EtlTrace, Pid) {
        let mut m = Machine::new(MachineConfig::study_rig(12, true));
        let opts = WorkloadOpts {
            duration: SimDuration::from_secs(secs),
            ..WorkloadOpts::default()
        };
        let pid = build(&mut m, &opts);
        m.run_for(SimDuration::from_secs(secs));
        (m.into_trace(), pid)
    }

    #[test]
    fn photoshop_filters_reach_max_concurrency() {
        let (trace, pid) = run(photoshop, 30);
        let filter: etwtrace::PidSet = [pid.0].into_iter().collect();
        let prof = analysis::concurrency(&trace, &filter);
        assert_eq!(prof.max_concurrency(), 12, "filters must go 12-wide");
        assert!(prof.tlp() > 5.0, "tlp {}", prof.tlp());
    }

    #[test]
    fn autocad_is_mostly_serial_with_gpu_redraws() {
        let (trace, pid) = run(autocad, 30);
        let filter: etwtrace::PidSet = [pid.0].into_iter().collect();
        let tlp = analysis::concurrency(&trace, &filter).tlp();
        assert!(tlp < 2.0, "tlp {tlp}");
        let util = analysis::gpu_utilization(&trace, &filter, Some(0));
        assert!(util.busy_frac > 0.02, "{util:?}");
    }

    #[test]
    fn maya_uses_gpu_more_than_photoshop() {
        let (t1, p1) = run(maya, 40);
        let (t2, p2) = run(photoshop, 40);
        let f1: etwtrace::PidSet = [p1.0].into_iter().collect();
        let f2: etwtrace::PidSet = [p2.0].into_iter().collect();
        let u1 = analysis::gpu_utilization(&t1, &f1, Some(0)).percent();
        let u2 = analysis::gpu_utilization(&t2, &f2, Some(0)).percent();
        assert!(u1 > u2, "maya {u1}% vs photoshop {u2}%");
    }
}
