//! Multimedia-playback models: QuickTime, Windows Media Player, VLC
//! (paper §IV-C): "a 480p and a 1080p version of the same video are played
//! in succession". Each player is a decode/render pipeline clocked at
//! 30 FPS whose costs jump when the 1080p half starts; VLC splits demux,
//! audio and video across more threads (hence its higher TLP).

use crate::blocks::{Service, Stage, StageGpu, Ticker, UiThread};
use crate::image::fill;
use crate::params::media as p;
use crate::WorkloadOpts;
use autoinput::{install, Script};
use machine::{Action, Machine, Pid, ThreadCtx, ThreadProgram, Work};
use simcore::SimDuration;
use simcpu::ComputeKind;
use simgpu::PacketKind;

/// Which pipeline layout a player uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Layout {
    /// Decode → render only (QuickTime).
    Simple,
    /// Decode → render + housekeeping service (WMP).
    WithService,
    /// Demux → decode → render + audio pipeline (VLC).
    Split,
}

/// Spawns one playback pipeline. `frames` bounds the clocks (the 480p
/// half: `frames + 1` video ticks); `None` plays to the end of the window.
fn spawn_pipeline(
    ctx: &mut ThreadCtx<'_>,
    layout: Layout,
    decode_ms: f64,
    gpu_gflop: f64,
    frames: Option<u64>,
) {
    let period = SimDuration::from_secs_f64(1.0 / p::FPS);
    let tick = ctx.create_event();
    let mut ticker = Ticker::new(period, tick);
    ticker.count = frames.map(|f| f + 1);
    ctx.spawn_sibling("vsync", Box::new(ticker));

    let present_gpu = StageGpu {
        queue: 0,
        kind: PacketKind::VideoDecode,
        gflop: gpu_gflop,
        wait: false,
    };
    match layout {
        Layout::Split => {
            // VLC: demux fans each frame out to two slice-parallel decoders
            // and the video-output thread, with audio on its own clock —
            // the thread structure behind its category-topping TLP.
            let demuxed = ctx.create_event();
            let mut demux = Stage::new(tick, Some(demuxed), p::VLC_DEMUX_MS, ComputeKind::Scalar);
            demux.output_signals = 3;
            ctx.spawn_sibling("demux", Box::new(demux));
            for i in 0..2 {
                ctx.spawn_sibling(
                    &format!("decode-{i}"),
                    Box::new(Stage::new(demuxed, None, decode_ms, ComputeKind::Vector)),
                );
            }
            ctx.spawn_sibling(
                "vout",
                Box::new(
                    Stage::new(demuxed, None, p::RENDER_MS * 3.0, ComputeKind::Mixed)
                        .with_present()
                        .with_gpu(present_gpu),
                ),
            );
            let atick = ctx.create_event();
            let mut aticker = Ticker::new(SimDuration::from_millis(23), atick);
            aticker.count = frames.map(|f| f * 3 / 2 + 1);
            ctx.spawn_sibling("audio-clock", Box::new(aticker));
            ctx.spawn_sibling(
                "audio",
                Box::new(Stage::new(atick, None, p::VLC_AUDIO_MS, ComputeKind::Mixed)),
            );
        }
        Layout::WithService => {
            // WMP: decode fans out to a render thread and an audio/effects
            // post-processing thread that run concurrently.
            let decoded = ctx.create_event();
            let mut decode = Stage::new(tick, Some(decoded), decode_ms * 2.5, ComputeKind::Vector);
            decode.output_signals = 2;
            ctx.spawn_sibling("decode", Box::new(decode));
            ctx.spawn_sibling(
                "render",
                Box::new(
                    Stage::new(decoded, None, p::RENDER_MS * 3.0, ComputeKind::Mixed)
                        .with_present()
                        .with_gpu(present_gpu),
                ),
            );
            ctx.spawn_sibling(
                "post",
                Box::new(Stage::new(
                    decoded,
                    None,
                    p::RENDER_MS * 3.0,
                    ComputeKind::Mixed,
                )),
            );
        }
        Layout::Simple => {
            // QuickTime: a strictly sequential decode → render chain plus a
            // light audio thread on its own clock.
            let decoded = ctx.create_event();
            ctx.spawn_sibling(
                "decode",
                Box::new(Stage::new(
                    tick,
                    Some(decoded),
                    decode_ms,
                    ComputeKind::Vector,
                )),
            );
            ctx.spawn_sibling(
                "render",
                Box::new(
                    Stage::new(decoded, None, p::RENDER_MS, ComputeKind::Mixed)
                        .with_present()
                        .with_gpu(present_gpu),
                ),
            );
            let atick = ctx.create_event();
            let mut aticker = Ticker::new(SimDuration::from_millis(23), atick);
            aticker.count = frames.map(|f| f * 3 / 2 + 1);
            ctx.spawn_sibling("audio-clock", Box::new(aticker));
            ctx.spawn_sibling(
                "audio",
                Box::new(Stage::new(atick, None, 1.4, ComputeKind::Mixed)),
            );
        }
    }
}

/// Plays the 480p half, then switches to the 1080p pipeline.
struct PlayerController {
    layout: Layout,
    half: SimDuration,
    phase: u32,
    decode_scale: f64,
}

impl ThreadProgram for PlayerController {
    fn next(&mut self, ctx: &mut ThreadCtx<'_>) -> Action {
        self.phase += 1;
        match self.phase {
            1 => {
                let frames = (self.half.as_secs_f64() * p::FPS) as u64;
                spawn_pipeline(
                    ctx,
                    self.layout,
                    p::DECODE_480P_MS * self.decode_scale,
                    p::FRAME_GPU_GFLOP * 0.45,
                    Some(frames),
                );
                Action::Sleep(self.half)
            }
            2 => {
                spawn_pipeline(
                    ctx,
                    self.layout,
                    p::DECODE_1080P_MS * self.decode_scale,
                    p::FRAME_GPU_GFLOP,
                    None,
                );
                Action::Exit
            }
            _ => unreachable!(),
        }
    }
}

fn player(
    m: &mut Machine,
    opts: &WorkloadOpts,
    process: &str,
    layout: Layout,
    decode_scale: f64,
) -> Pid {
    let pid = m.add_process(process);
    // Light control script: open, play, a volume tweak and a seek.
    let cycle = Script::new().wait_ms(4000).click().wait_ms(8000).scroll(1);
    let channel = install(m, fill(cycle, opts.duration), opts.automation);
    let ui = UiThread::new(channel).with_handler(|_, _| vec![Action::Compute(Work::busy_ms(4.0))]);
    m.spawn(pid, "ui", Box::new(ui));
    m.spawn(
        pid,
        "controller",
        Box::new(PlayerController {
            layout,
            half: opts.duration / 2,
            phase: 0,
            decode_scale,
        }),
    );
    if layout == Layout::WithService {
        m.spawn(
            pid,
            "housekeeping",
            Box::new(Service::new(40.0, p::WMP_SERVICE_MS, ComputeKind::Scalar)),
        );
    }
    pid
}

/// QuickTime Player 7.7.9 (Table II: TLP 1.1, GPU 16.4 %).
pub fn quicktime(m: &mut Machine, opts: &WorkloadOpts) -> Pid {
    player(m, opts, "quicktimeplayer.exe", Layout::Simple, 1.0)
}

/// Windows Media Player 12.0 (Table II: TLP 1.3, GPU 16.1 %).
pub fn wmp(m: &mut Machine, opts: &WorkloadOpts) -> Pid {
    player(m, opts, "wmplayer.exe", Layout::WithService, 1.1)
}

/// VLC Media Player 3.0.3 (Table II: TLP 1.8, GPU 15.7 %) — software
/// pipeline split across demux/decode/audio/render threads.
pub fn vlc(m: &mut Machine, opts: &WorkloadOpts) -> Pid {
    player(m, opts, "vlc.exe", Layout::Split, 8.5)
}

#[cfg(test)]
mod tests {
    use super::*;
    use etwtrace::analysis;
    use machine::MachineConfig;

    fn run(build: fn(&mut Machine, &WorkloadOpts) -> Pid) -> (f64, f64, f64) {
        let mut m = Machine::new(MachineConfig::study_rig(12, true));
        let opts = WorkloadOpts {
            duration: SimDuration::from_secs(30),
            ..WorkloadOpts::default()
        };
        let pid = build(&mut m, &opts);
        m.run_for(SimDuration::from_secs(30));
        let trace = m.into_trace();
        let filter: etwtrace::PidSet = [pid.0].into_iter().collect();
        let tlp = analysis::concurrency(&trace, &filter).tlp();
        let gpu = analysis::gpu_utilization(&trace, &filter, Some(0)).percent();
        let fps = analysis::fps_series(&trace, Some(pid.0), SimDuration::from_secs(5)).mean();
        (tlp, gpu, fps)
    }

    #[test]
    fn players_hold_30fps() {
        for build in [quicktime, wmp, vlc] {
            let (_, _, fps) = run(build);
            assert!((fps - 30.0).abs() < 3.0, "fps {fps}");
        }
    }

    #[test]
    fn vlc_has_highest_tlp() {
        let (qt, _, _) = run(quicktime);
        let (vl, _, _) = run(vlc);
        assert!(vl > qt, "vlc {vl} vs quicktime {qt}");
        assert!(qt < 1.5, "quicktime tlp {qt}");
    }

    #[test]
    fn gpu_utilization_is_moderate() {
        for build in [quicktime, wmp, vlc] {
            let (_, gpu, _) = run(build);
            assert!((8.0..25.0).contains(&gpu), "gpu {gpu}%");
        }
    }
}
