//! The §VII "Discussion" what-if experiments — the paper's suggestions for
//! better harnessing the hardware, implemented and measured:
//!
//! * **Complementary co-scheduling**: "applications exhibiting
//!   complementary TLP characteristics can be scheduled to execute
//!   concurrently to achieve best utilization of the processor. For
//!   example, HandBrake exhibits high TLP with short periods of TLP drop.
//!   The OS could schedule another task during troughs."
//! * **Background GPU offload**: "if the user is editing an image in
//!   Photoshop and transcoding videos in background, the transcoding task
//!   can be offloaded to the GPU when Photoshop is using the CPU."
//! * **Responsiveness vs cores**: Flautner et al.'s original observation
//!   that "a second processor improved the responsiveness of interactive
//!   applications", re-measured as ready→run scheduling latency.

use crate::experiment::{Budget, Experiment};
use crate::report;
use crate::runner::{RunContext, RunRequest};
use etwtrace::analysis;
use workloads::{build, AppId};

/// Result of the complementary co-scheduling experiment.
#[derive(Clone, Debug)]
pub struct CoScheduling {
    /// Machine utilization (mean running threads / logical CPUs) —
    /// HandBrake alone.
    pub hb_alone_busy: f64,
    /// Photoshop alone.
    pub ps_alone_busy: f64,
    /// Both running together.
    pub combined_busy: f64,
    /// HandBrake's transcode rate alone vs co-scheduled (FPS).
    pub hb_rate: (f64, f64),
}

/// Runs HandBrake and Photoshop separately, then together on one machine.
/// Builds multi-app machines by hand (an [`Experiment`] models exactly one
/// application), so it stays off the [`RunContext`] path.
pub fn cosched(budget: Budget) -> CoScheduling {
    let busy_of = |apps: &[AppId]| -> (f64, f64) {
        let exp = Experiment::new(apps[0]).budget(budget);
        let (mut m, opts) = exp.build_machine(1);
        for &app in apps {
            build(app, &mut m, &opts);
        }
        m.run_for(budget.duration);
        let trace = m.into_trace();
        let all = trace.all_pids();
        let profile = analysis::concurrency(&trace, &all);
        // Machine utilization: mean number of running threads over the
        // window, normalized by the logical-CPU count.
        let busy = profile
            .fractions()
            .iter()
            .enumerate()
            .map(|(i, c)| i as f64 * c)
            .sum::<f64>()
            / profile.n_logical() as f64;
        let hb = trace.pids_by_name("handbrake");
        let frames = analysis::frame_count(&trace, &hb) as f64;
        (busy, frames / trace.window().as_secs_f64())
    };
    let (hb_alone_busy, hb_rate_alone) = busy_of(&[AppId::Handbrake]);
    let (ps_alone_busy, _) = busy_of(&[AppId::Photoshop]);
    let (combined_busy, hb_rate_shared) = busy_of(&[AppId::Handbrake, AppId::Photoshop]);
    CoScheduling {
        hb_alone_busy,
        ps_alone_busy,
        combined_busy,
        hb_rate: (hb_rate_alone, hb_rate_shared),
    }
}

impl CoScheduling {
    /// Renders the experiment.
    pub fn render(&self) -> String {
        format!(
            "§VII co-scheduling — HandBrake + Photoshop on one rig\n\n\
             machine utilization: HandBrake alone {:.1} %, Photoshop alone {:.1} %, together {:.1} %\n\
             HandBrake transcode rate: alone {:.1} FPS, co-scheduled {:.1} FPS\n\
             Photoshop's bursts fill HandBrake's rate-control troughs: the combined\n\
             machine is busier than either app alone while HandBrake loses only a\n\
             fraction of its throughput.\n",
            self.hb_alone_busy * 100.0,
            self.ps_alone_busy * 100.0,
            self.combined_busy * 100.0,
            self.hb_rate.0,
            self.hb_rate.1,
        )
    }
}

/// Result of the background GPU-offload experiment.
#[derive(Clone, Debug)]
pub struct Offload {
    /// WinX transcode rate co-scheduled with Photoshop: (CPU-only, CUDA).
    pub winx_rate: (f64, f64),
    /// Photoshop's busy-time share of the machine: (CPU-only, CUDA).
    pub photoshop_share: (f64, f64),
}

/// Photoshop in the foreground, WinX transcoding in the background, with
/// and without GPU offload. Also a hand-built two-app machine, so it stays
/// off the [`RunContext`] path.
pub fn offload(budget: Budget) -> Offload {
    let run = |cuda: bool| -> (f64, f64) {
        let mut exp = Experiment::new(AppId::WinxHdConverter).budget(budget);
        exp.opts.cuda = cuda;
        let (mut m, opts) = exp.build_machine(2);
        build(AppId::WinxHdConverter, &mut m, &opts);
        build(AppId::Photoshop, &mut m, &opts);
        m.run_for(budget.duration);
        let trace = m.into_trace();
        let winx = trace.pids_by_name("winx");
        let ps = trace.pids_by_name("photoshop");
        let frames = analysis::frame_count(&trace, &winx) as f64;
        let rate = frames / trace.window().as_secs_f64();
        let ps_busy = 1.0 - analysis::concurrency(&trace, &ps).fractions()[0];
        (rate, ps_busy)
    };
    let (rate_cpu, ps_cpu) = run(false);
    let (rate_gpu, ps_gpu) = run(true);
    Offload {
        winx_rate: (rate_cpu, rate_gpu),
        photoshop_share: (ps_cpu, ps_gpu),
    }
}

impl Offload {
    /// Renders the experiment.
    pub fn render(&self) -> String {
        format!(
            "§VII background GPU offload — Photoshop foreground, WinX background\n\n\
             WinX rate: CPU-only {:.1} FPS → with CUDA/NVENC {:.1} FPS\n\
             Photoshop busy share: {:.1} % → {:.1} %\n\
             Offloading the background transcode to the GPU raises its rate while\n\
             relieving CPU pressure on the interactive application.\n",
            self.winx_rate.0,
            self.winx_rate.1,
            self.photoshop_share.0 * 100.0,
            self.photoshop_share.1 * 100.0,
        )
    }
}

/// Responsiveness (ready→run latency) of an interactive app vs core count.
#[derive(Clone, Debug)]
pub struct Responsiveness {
    /// `(logical cores, mean µs, p95 µs)`.
    pub rows: Vec<(usize, f64, f64)>,
}

/// Measures Word's scheduling latency at 1–12 logical CPUs, as one batch.
pub fn responsiveness(ctx: &RunContext, budget: Budget) -> Responsiveness {
    const CORES: [usize; 4] = [1, 2, 4, 12];
    let requests = CORES
        .iter()
        .map(|&n| {
            let exp = Experiment::new(AppId::Word)
                .budget(budget)
                .logical(n, n > 1);
            RunRequest::new(&exp, 3)
        })
        .collect();
    let rows = CORES
        .iter()
        .zip(ctx.run_singles(requests))
        .map(|(&n, run)| {
            let lat = analysis::scheduling_latency(&run.trace, &run.filter);
            (n, lat.mean_us, lat.p95_us)
        })
        .collect();
    Responsiveness { rows }
}

impl Responsiveness {
    /// Mean latency at a core count.
    pub fn mean_at(&self, logical: usize) -> f64 {
        self.rows
            .iter()
            .find(|(n, ..)| *n == logical)
            .map(|&(_, mean, _)| mean)
            .expect("measured")
    }

    /// Renders the experiment.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|(n, mean, p95)| vec![n.to_string(), format!("{mean:.0}"), format!("{p95:.0}")])
            .collect();
        format!(
            "§II responsiveness — Word's ready→run scheduling latency vs cores\n\n{}\n\
             A second logical CPU removes most queueing delay (Flautner et al.'s\n\
             original observation); further cores bring diminishing returns.\n",
            report::markdown_table(&["Logical CPUs", "mean (µs)", "p95 (µs)"], &rows)
        )
    }
}

/// Runs all three §VII experiments and concatenates the reports.
pub fn discussion(ctx: &RunContext, budget: Budget) -> String {
    format!(
        "{}\n{}\n{}",
        cosched(budget).render(),
        offload(budget).render(),
        responsiveness(ctx, budget).render()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimDuration;

    fn budget() -> Budget {
        Budget {
            duration: SimDuration::from_secs(10),
            iterations: 1,
        }
    }

    #[test]
    fn cosched_fills_the_troughs() {
        let c = cosched(budget());
        assert!(c.combined_busy > c.hb_alone_busy);
        assert!(c.combined_busy > c.ps_alone_busy);
        // HandBrake keeps most of its throughput.
        assert!(c.hb_rate.1 > 0.6 * c.hb_rate.0, "{c:?}");
        assert!(c.render().contains("co-scheduling"));
    }

    #[test]
    fn offload_speeds_up_background_transcode() {
        let o = offload(budget());
        assert!(o.winx_rate.1 > o.winx_rate.0, "{o:?}");
        assert!(o.render().contains("GPU offload"));
    }

    #[test]
    fn second_cpu_improves_responsiveness() {
        let r = responsiveness(
            &RunContext::from_env(),
            Budget {
                duration: SimDuration::from_secs(20),
                iterations: 1,
            },
        );
        let one = r.mean_at(1);
        let two = r.mean_at(2);
        let twelve = r.mean_at(12);
        assert!(two < one, "1 cpu {one}µs vs 2 cpus {two}µs");
        assert!(twelve <= two + 1.0, "12 cpus {twelve}µs");
        assert!(r.render().contains("responsiveness"));
    }
}
