//! Video authoring and transcoding models: PowerDirector, Premiere Pro,
//! HandBrake, WinX HD Video Converter (paper §IV-D).
//!
//! The transcoders are a coordinator + encoder-worker-pool structure: the
//! coordinator seeds one GOP of frames, joins the workers, then performs a
//! serial rate-control/muxing phase — producing exactly the "TLP mostly at
//! its maximum, but drops periodically due to serialization" shape of
//! Fig. 5. At the end of a finite clip it stops the workers before it
//! exits, so no thread is left parked at the end of the trace. Each encoded frame emits a `Frame` trace event, so the transcode
//! rate of Table III / Fig. 8 is `frames / window`.

use crate::blocks::{Stage, StageGpu, Ticker, UiThread};
use crate::image::fill;
use crate::params::{authoring as pa, transcode as pt};
use crate::WorkloadOpts;
use autoinput::{install, InputAction, Script};
use machine::{Action, EventId, Machine, Pid, ThreadCtx, ThreadProgram, Work};
use simcore::SimDuration;
use simcpu::ComputeKind;
use simgpu::PacketKind;
use std::cell::Cell;
use std::rc::Rc;

/// Ends a clock-driven export once its clip is encoded: it takes one wake
/// per encoded frame, then marks `transcode-done`, sets `stop` and wakes
/// each of the events the export's threads park on once, so they exit.
struct ExportDone {
    encoded: EventId,
    frames_left: u64,
    stop: Rc<Cell<bool>>,
    wake: Vec<EventId>,
}

impl ThreadProgram for ExportDone {
    fn next(&mut self, ctx: &mut ThreadCtx<'_>) -> Action {
        if self.frames_left > 0 {
            self.frames_left -= 1;
            return Action::WaitEvent(self.encoded);
        }
        ctx.marker("transcode-done");
        self.stop.set(true);
        for &event in &self.wake {
            ctx.signal(event);
        }
        Action::Exit
    }
}

/// GOP-granular transcode coordinator (see module docs).
struct Coordinator {
    work: EventId,
    done: EventId,
    gop: u32,
    serial_ms: f64,
    frames_left: u64,
    /// Submit a fixed-function encode job per GOP (WinX with NVENC).
    nvenc_frames_per_gop: f64,
    joined: u32,
    /// Encoder threads, and the flag that stops them when the clip ends.
    workers: u32,
    stop: Rc<Cell<bool>>,
    /// The event an editor's UI thread waits on, when that thread shares
    /// `stop`: it gets one wake when the clip ends, so it exits too.
    ui: Option<EventId>,
    phase: CoordPhase,
}

enum CoordPhase {
    Seed,
    Join,
    Serial,
}

impl ThreadProgram for Coordinator {
    fn next(&mut self, ctx: &mut ThreadCtx<'_>) -> Action {
        loop {
            match self.phase {
                CoordPhase::Seed => {
                    if self.frames_left == 0 {
                        ctx.marker("transcode-done");
                        self.stop.set(true);
                        ctx.signal_n(self.work, u64::from(self.workers));
                        if let Some(ui) = self.ui {
                            ctx.signal(ui);
                        }
                        return Action::Exit;
                    }
                    let batch = (self.gop as u64).min(self.frames_left) as u32;
                    self.frames_left -= batch as u64;
                    ctx.signal_n(self.work, batch as u64);
                    self.joined = batch;
                    self.phase = CoordPhase::Join;
                }
                CoordPhase::Join => {
                    if self.joined > 0 {
                        self.joined -= 1;
                        return Action::WaitEvent(self.done);
                    }
                    self.phase = CoordPhase::Serial;
                }
                CoordPhase::Serial => {
                    self.phase = CoordPhase::Seed;
                    if self.nvenc_frames_per_gop > 0.0 {
                        ctx.submit_encode(0, self.nvenc_frames_per_gop);
                    }
                    let ms = ctx
                        .rng()
                        .normal(self.serial_ms, self.serial_ms * 0.15)
                        .max(1.0);
                    return Action::Compute(Work::busy_ms(ms).with_kind(ComputeKind::Scalar));
                }
            }
        }
    }
}

/// Spawns a transcode pool in `pid`: `workers` encoder threads fed by a
/// coordinator. Returns nothing; every encoded frame presents a Frame event.
#[allow(clippy::too_many_arguments)]
fn spawn_transcode_pool(
    m: &mut Machine,
    pid: Pid,
    workers: u32,
    frame_ms: f64,
    gop: u32,
    serial_ms: f64,
    frames: u64,
    gpu: Option<StageGpu>,
    nvenc_frames_per_gop: f64,
    background: bool,
) {
    let work = m.create_event();
    let done = m.create_event();
    let stop = Rc::new(Cell::new(false));
    for i in 0..workers {
        let mut stage = Stage::new(work, Some(done), frame_ms, ComputeKind::Vector)
            .with_present()
            .with_stop(stop.clone());
        stage.jitter = pt::FRAME_JITTER;
        if let Some(g) = gpu {
            stage = stage.with_gpu(g);
        }
        if background {
            stage = stage.with_priority(machine::Priority::Background);
        }
        m.spawn(pid, &format!("encode-{i}"), Box::new(stage));
    }
    m.spawn(
        pid,
        "coordinator",
        Box::new(Coordinator {
            work,
            done,
            gop,
            serial_ms,
            frames_left: frames,
            nvenc_frames_per_gop,
            joined: 0,
            workers,
            stop,
            ui: None,
            phase: CoordPhase::Seed,
        }),
    );
}

/// HandBrake 1.1.0: software-only transcode of a 4K 50 FPS clip down to
/// 1080p30. "HandBrake does not offload tasks to the GPU, so the
/// utilization stays below 1 %" (§V-D1); Table II: TLP 9.4, GPU 0.4 %.
pub fn handbrake(m: &mut Machine, opts: &WorkloadOpts) -> Pid {
    let pid = m.add_process("handbrake.exe");
    let frames = opts.transcode_frames.unwrap_or(u64::MAX / 2);
    spawn_transcode_pool(
        m,
        pid,
        pt::WORKERS,
        pt::FRAME_MS,
        pt::GOP,
        pt::SERIAL_MS,
        frames,
        Some(StageGpu {
            queue: 0,
            kind: PacketKind::Present,
            gflop: pt::HB_PREVIEW_GFLOP,
            wait: false,
        }),
        0.0,
        opts.background,
    );
    pid
}

/// WinX HD Video Converter 5.12.1: the same clip, with CUDA/NVENC hardware
/// acceleration when `opts.cuda` (Table II: TLP 9.2, GPU 13.6 %; Table III:
/// GPU raises the transcode rate and lowers TLP).
pub fn winx(m: &mut Machine, opts: &WorkloadOpts) -> Pid {
    let pid = m.add_process("winx.exe");
    let frames = opts.transcode_frames.unwrap_or(u64::MAX / 2);
    if opts.cuda {
        spawn_transcode_pool(
            m,
            pid,
            pt::WINX_CUDA_WORKERS,
            pt::FRAME_MS * pt::WINX_CUDA_CPU_SCALE,
            pt::GOP,
            pt::SERIAL_MS * 0.8,
            frames,
            Some(StageGpu {
                queue: 0,
                kind: PacketKind::Compute,
                gflop: pt::WINX_CUDA_GFLOP,
                wait: true,
            }),
            pt::GOP as f64 * pt::WINX_NVENC_FRAMES,
            opts.background,
        );
    } else {
        // Without the GPU, WinX runs a longer pipeline with far less
        // rate-control serialization than HandBrake (Table III reports TLP
        // 11.5 at 12 logical CPUs).
        spawn_transcode_pool(
            m,
            pid,
            pt::WORKERS,
            pt::FRAME_MS,
            pt::GOP * 4,
            pt::SERIAL_MS * 0.3,
            frames,
            None,
            0.0,
            opts.background,
        );
    }
    pid
}

/// Switches PowerDirector / Premiere from the editing phase to the export
/// phase partway through the window.
struct AuthoringController {
    edit_span: SimDuration,
    phase: u32,
    export: Box<dyn FnOnce(&mut ThreadCtx<'_>)>,
}

impl ThreadProgram for AuthoringController {
    fn next(&mut self, ctx: &mut ThreadCtx<'_>) -> Action {
        self.phase += 1;
        match self.phase {
            1 => Action::Sleep(self.edit_span),
            2 => {
                ctx.marker("export-start");
                let export = std::mem::replace(&mut self.export, Box::new(|_| {}));
                export(ctx);
                Action::Exit
            }
            _ => unreachable!(),
        }
    }
}

/// CyberLink PowerDirector v16: timeline editing (transitions, titles,
/// color correction) then an export render on a 6-worker encoder pool with
/// GPU effect packets (Table II: TLP 4.3, GPU 6.3 %).
pub fn powerdirector(m: &mut Machine, opts: &WorkloadOpts) -> Pid {
    let pid = m.add_process("pdr.exe");
    let edit_span = opts.duration.mul_f64(0.35);
    // Editing script only covers the edit phase.
    let cycle = Script::new()
        .wait_ms(700)
        .drag() // place clip
        .menu("Transition>Crossfade")
        .click() // color correction
        .keys("Title text");
    let channel = install(m, fill(cycle, edit_span), opts.automation);
    // Stops the export's encoders and, once its script is done, `ui`.
    let stop = Rc::new(Cell::new(false));
    let ui_event = channel.event;
    let ui = UiThread::new(channel)
        .with_handler(move |action, ctx| {
            ctx.submit_gpu(0, 0, PacketKind::Graphics3d, 30.0); // preview redraw
            let ms = match action {
                InputAction::Menu(_) => pa::PDR_EDIT_MS * 1.6,
                _ => pa::PDR_EDIT_MS,
            };
            vec![Action::Compute(Work::busy_ms(ms))]
        })
        .with_stop(stop.clone());
    m.spawn(pid, "ui", Box::new(ui));

    let frames = opts.transcode_frames.unwrap_or(u64::MAX / 2);
    let cuda = opts.cuda;
    m.spawn(
        pid,
        "controller",
        Box::new(AuthoringController {
            edit_span,
            phase: 0,
            export: Box::new(move |ctx| {
                let work = ctx.create_event();
                let done = ctx.create_event();
                for i in 0..pa::PDR_WORKERS {
                    let mut stage =
                        Stage::new(work, Some(done), pa::PDR_FRAME_MS, ComputeKind::Vector)
                            .with_present()
                            .with_stop(stop.clone());
                    stage.jitter = 0.25;
                    if cuda {
                        stage = stage.with_gpu(StageGpu {
                            queue: 0,
                            kind: PacketKind::Compute,
                            gflop: pa::PDR_FRAME_GFLOP,
                            wait: false,
                        });
                    }
                    ctx.spawn_sibling(&format!("encode-{i}"), Box::new(stage));
                }
                ctx.spawn_sibling(
                    "coordinator",
                    Box::new(Coordinator {
                        work,
                        done,
                        gop: pa::PDR_BATCH,
                        serial_ms: pa::PDR_SERIAL_MS,
                        frames_left: frames,
                        nvenc_frames_per_gop: 0.0,
                        joined: 0,
                        workers: pa::PDR_WORKERS,
                        stop,
                        ui: Some(ui_event),
                        phase: CoordPhase::Seed,
                    }),
                );
            }),
        }),
    );
    pid
}

/// Adobe Premiere Pro CC: the same editing sequence, then a mostly serial
/// 2-wide export pipeline. With CUDA the per-frame CPU work shrinks and a
/// CUDA effect packet is submitted per frame — "higher utilization and
/// lower TLP than without CUDA" (Fig. 9). Table II ran without CUDA
/// (GPU 0.6 %). A finite clip (`transcode_frames`) ends after its last
/// encode: the frame clock fires that many frames, and an `export-done`
/// thread then stops the stages and `ui`.
pub fn premiere(m: &mut Machine, opts: &WorkloadOpts) -> Pid {
    let pid = m.add_process("premiere.exe");
    let edit_span = opts.duration.mul_f64(0.22);
    let cycle = Script::new()
        .wait_ms(800)
        .drag()
        .menu("Effects>Dissolve")
        .click()
        .keys("Lower third");
    let channel = install(m, fill(cycle, edit_span), opts.automation);
    // Stops the export's stages and `ui` once a finite clip is encoded.
    let stop = Rc::new(Cell::new(false));
    let ui_event = channel.event;
    let ui = UiThread::new(channel)
        .with_handler(move |_, _| vec![Action::Compute(Work::busy_ms(pa::PDR_EDIT_MS * 0.9))])
        .with_stop(stop.clone());
    m.spawn(pid, "ui", Box::new(ui));

    let frames = opts.transcode_frames;
    let cuda = opts.cuda;
    m.spawn(
        pid,
        "controller",
        Box::new(AuthoringController {
            edit_span,
            phase: 0,
            export: Box::new(move |ctx| {
                // Frame clock drives a decode stage then an encode stage —
                // a 2-wide pipeline with a serial assembly step.
                let tick = ctx.create_event();
                let decoded = ctx.create_event();
                // A finite clip's encodes are counted on an event of their own.
                let encoded = frames.map(|_| ctx.create_event());
                let mut clock = Ticker::new(SimDuration::from_millis(55), tick);
                clock.count = frames;
                ctx.spawn_sibling("frame-clock", Box::new(clock));
                let cpu_scale = if cuda { pa::PREM_CUDA_CPU_SCALE } else { 1.0 };
                let decode = Stage::new(
                    tick,
                    Some(decoded),
                    pa::PREM_FRAME_MS * cpu_scale,
                    ComputeKind::Vector,
                );
                ctx.spawn_sibling("decode", Box::new(decode.with_stop(stop.clone())));
                let gpu = if cuda {
                    StageGpu {
                        queue: 0,
                        kind: PacketKind::Compute,
                        gflop: pa::PREM_CUDA_GFLOP,
                        wait: true,
                    }
                } else {
                    StageGpu {
                        queue: 0,
                        kind: PacketKind::Present,
                        gflop: pa::PREM_SW_GFLOP,
                        wait: false,
                    }
                };
                let mut encode = Stage::new(
                    decoded,
                    encoded,
                    pa::PREM_SERIAL_MS * cpu_scale,
                    ComputeKind::Vector,
                )
                .with_present()
                .with_gpu(gpu)
                .with_stop(stop.clone());
                encode.jitter = 0.2;
                ctx.spawn_sibling("encode", Box::new(encode));
                if let (Some(frames_left), Some(encoded)) = (frames, encoded) {
                    let done = ExportDone {
                        encoded,
                        frames_left,
                        stop,
                        wake: vec![tick, decoded, ui_event],
                    };
                    ctx.spawn_sibling("export-done", Box::new(done));
                }
            }),
        }),
    );
    pid
}

#[cfg(test)]
mod tests {
    use super::*;
    use etwtrace::analysis;
    use machine::MachineConfig;

    fn run_app(
        build: fn(&mut Machine, &WorkloadOpts) -> Pid,
        logical: usize,
        smt: bool,
        cuda: bool,
        secs: u64,
    ) -> (etwtrace::EtlTrace, Pid) {
        let mut m = Machine::new(MachineConfig::study_rig(logical, smt));
        let opts = WorkloadOpts {
            duration: SimDuration::from_secs(secs),
            cuda,
            ..WorkloadOpts::default()
        };
        let pid = build(&mut m, &opts);
        m.run_for(SimDuration::from_secs(secs));
        (m.into_trace(), pid)
    }

    fn frames(trace: &etwtrace::EtlTrace, pid: Pid) -> f64 {
        trace
            .events()
            .iter()
            .filter(|e| matches!(e, etwtrace::TraceEvent::Frame { pid: p, .. } if *p == pid.0))
            .count() as f64
    }

    #[test]
    fn handbrake_is_highly_parallel_and_gpu_free() {
        let (trace, pid) = run_app(handbrake, 12, true, true, 20);
        let filter: etwtrace::PidSet = [pid.0].into_iter().collect();
        let prof = analysis::concurrency(&trace, &filter);
        assert!(prof.tlp() > 8.0, "tlp {}", prof.tlp());
        let util = analysis::gpu_utilization(&trace, &filter, Some(0));
        assert!(util.percent() < 1.0, "gpu {util:?}");
    }

    #[test]
    fn handbrake_rate_scales_with_cores() {
        let (t4, p4) = run_app(handbrake, 2, false, true, 20);
        let (t12, p12) = run_app(handbrake, 6, false, true, 20);
        let r4 = frames(&t4, p4);
        let r12 = frames(&t12, p12);
        assert!(r12 > 2.0 * r4, "2-core {r4} vs 6-core {r12}");
    }

    #[test]
    fn smt_lowers_transcode_rate_at_equal_logical_cores() {
        // Fig. 8: HB-SMT below HB at the same logical core count.
        let (t_smt, p_smt) = run_app(handbrake, 6, true, true, 20);
        let (t_no, p_no) = run_app(handbrake, 6, false, true, 20);
        let r_smt = frames(&t_smt, p_smt);
        let r_no = frames(&t_no, p_no);
        assert!(r_no > r_smt, "noSMT {r_no} vs SMT {r_smt}");
    }

    #[test]
    fn cuda_raises_winx_rate_and_lowers_tlp() {
        let (t_gpu, p_gpu) = run_app(winx, 12, true, true, 20);
        let (t_sw, p_sw) = run_app(winx, 12, true, false, 20);
        let r_gpu = frames(&t_gpu, p_gpu);
        let r_sw = frames(&t_sw, p_sw);
        assert!(r_gpu > r_sw, "cuda {r_gpu} vs sw {r_sw}");
        let f_gpu: etwtrace::PidSet = [p_gpu.0].into_iter().collect();
        let f_sw: etwtrace::PidSet = [p_sw.0].into_iter().collect();
        let tlp_gpu = analysis::concurrency(&t_gpu, &f_gpu).tlp();
        let tlp_sw = analysis::concurrency(&t_sw, &f_sw).tlp();
        assert!(tlp_gpu < tlp_sw, "cuda tlp {tlp_gpu} vs sw {tlp_sw}");
        let u_gpu = analysis::gpu_utilization(&t_gpu, &f_gpu, Some(0)).percent();
        let u_sw = analysis::gpu_utilization(&t_sw, &f_sw, Some(0)).percent();
        assert!(u_gpu > 5.0 && u_sw < 1.0, "gpu {u_gpu}% sw {u_sw}%");
    }

    /// A finished clip stops every thread that worked on it: the
    /// happens-before pass finds no thread parked at the end of the trace
    /// (H001), with and without the GPU. The transcoders and PowerDirector
    /// finish their 60 frames, and PowerDirector's `ui` exits with the
    /// encoders. Premiere's frame clock fires 60 frames, and its decode,
    /// encode and `ui` threads exit after the last encode.
    #[test]
    fn a_finished_clip_leaves_no_encoder_parked() {
        type Build = fn(&mut Machine, &WorkloadOpts) -> Pid;
        let apps: [(&str, Build, bool); 7] = [
            ("handbrake", handbrake, false),
            ("winx", winx, false),
            ("winx", winx, true),
            ("powerdirector", powerdirector, false),
            ("powerdirector", powerdirector, true),
            ("premiere", premiere, false),
            ("premiere", premiere, true),
        ];
        for (name, build, cuda) in apps {
            let mut m = Machine::new(MachineConfig::study_rig(4, false));
            let opts = WorkloadOpts {
                duration: SimDuration::from_secs(30),
                transcode_frames: Some(60),
                cuda,
                ..WorkloadOpts::default()
            };
            build(&mut m, &opts);
            m.run_for(SimDuration::from_secs(30));
            let trace = m.into_trace();
            let done = trace.events().iter().any(
                |e| matches!(e, etwtrace::TraceEvent::Marker { label, .. } if label == "transcode-done"),
            );
            assert!(done, "{name} cuda {cuda}");
            let (verified, causal) = etwtrace::verify::check(&trace);
            assert!(
                verified.is_clean(),
                "{name} cuda {cuda}: {}",
                verified.render()
            );
            assert!(causal.is_clean(), "{name} cuda {cuda}: {}", causal.render());
        }
    }

    #[test]
    fn finite_transcode_job_finishes() {
        let mut m = Machine::new(MachineConfig::study_rig(12, true));
        let opts = WorkloadOpts {
            duration: SimDuration::from_secs(60),
            transcode_frames: Some(120),
            ..WorkloadOpts::default()
        };
        let pid = handbrake(&mut m, &opts);
        m.run_for(SimDuration::from_secs(60));
        let trace = m.into_trace();
        assert_eq!(frames(&trace, pid), 120.0);
        assert!(trace.events().iter().any(
            |e| matches!(e, etwtrace::TraceEvent::Marker { label, .. } if label == "transcode-done")
        ));
    }

    #[test]
    fn premiere_cuda_shifts_work_to_gpu() {
        let (t_c, p_c) = run_app(premiere, 12, true, true, 30);
        let (t_s, p_s) = run_app(premiere, 12, true, false, 30);
        let f_c: etwtrace::PidSet = [p_c.0].into_iter().collect();
        let f_s: etwtrace::PidSet = [p_s.0].into_iter().collect();
        let u_c = analysis::gpu_utilization(&t_c, &f_c, Some(0)).percent();
        let u_s = analysis::gpu_utilization(&t_s, &f_s, Some(0)).percent();
        assert!(u_c > u_s + 2.0, "cuda {u_c}% vs sw {u_s}%");
        let tlp_c = analysis::concurrency(&t_c, &f_c).tlp();
        let tlp_s = analysis::concurrency(&t_s, &f_s).tlp();
        assert!(tlp_c <= tlp_s + 0.1, "cuda tlp {tlp_c} vs sw {tlp_s}");
    }

    #[test]
    fn powerdirector_mixes_edit_and_export() {
        let (trace, pid) = run_app(powerdirector, 12, true, true, 40);
        let filter: etwtrace::PidSet = [pid.0].into_iter().collect();
        let tlp = analysis::concurrency(&trace, &filter).tlp();
        assert!((2.5..7.0).contains(&tlp), "tlp {tlp}");
    }
}
