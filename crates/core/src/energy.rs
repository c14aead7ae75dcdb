//! Energy estimation — reproducing §V-E's power claim.
//!
//! The paper quotes Microsoft's measurement that "Edge claims to have the
//! best power efficiency, with Chrome and Firefox consuming 36 % and 53 %
//! more power respectively, which is consistent with its low TLP and GPU
//! utilization". We close that loop: a simple marginal-energy model over
//! the recorded trace (busy logical CPUs × per-thread power + GPU busy time
//! × GPU power) lets the simulated browsers be ranked the same way.

use crate::experiment::{Budget, Experiment};
use crate::report;
use crate::runner::{RunContext, RunRequest};
use etwtrace::{analysis, EtlTrace, PidSet};
use workloads::browse::BrowseScenario;
use workloads::AppId;

/// Marginal power parameters for the study rig.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EnergyModel {
    /// Incremental package power per busy logical CPU (W). The i7-8700K's
    /// 95 W TDP over 12 hardware threads gives ≈8 W/thread sustained.
    pub cpu_per_thread_w: f64,
    /// GPU power above idle while packets execute (W). The GTX 1080 Ti's
    /// 250 W board power less ~10 W idle.
    pub gpu_busy_w: f64,
}

impl EnergyModel {
    /// The study rig's parameters.
    pub fn study_rig() -> EnergyModel {
        EnergyModel {
            cpu_per_thread_w: 8.0,
            gpu_busy_w: 240.0,
        }
    }
}

/// Marginal energy attributed to one application over a trace window.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EnergyEstimate {
    /// CPU energy in joules.
    pub cpu_joules: f64,
    /// GPU energy in joules.
    pub gpu_joules: f64,
    /// Mean marginal power draw over the window, in watts.
    pub mean_watts: f64,
}

/// Estimates the application's marginal energy from its concurrency profile
/// and GPU busy time.
pub fn estimate(trace: &EtlTrace, filter: &PidSet, model: EnergyModel) -> EnergyEstimate {
    let window = trace.window().as_secs_f64();
    let profile = analysis::concurrency(trace, filter);
    // Busy-thread integral: Σ_i i · c_i · window = CPU-seconds consumed.
    let cpu_seconds: f64 = profile
        .fractions()
        .iter()
        .enumerate()
        .map(|(i, c)| i as f64 * c * window)
        .sum();
    let cpu_joules = cpu_seconds * model.cpu_per_thread_w;
    let gpu = analysis::gpu_utilization(trace, filter, None);
    let gpu_joules = gpu.busy_frac * window * model.gpu_busy_w;
    EnergyEstimate {
        cpu_joules,
        gpu_joules,
        mean_watts: if window > 0.0 {
            (cpu_joules + gpu_joules) / window
        } else {
            0.0
        },
    }
}

/// §V-E power comparison result.
#[derive(Clone, Debug)]
pub struct BrowserPower {
    /// `(browser, mean watts, percent above Edge)`.
    pub rows: Vec<(AppId, f64, f64)>,
}

/// Paper §V-E (quoting Microsoft): Chrome draws 36 % more than Edge.
pub const PAPER_CHROME_OVER_EDGE_PCT: f64 = 36.0;
/// Paper §V-E: Firefox draws 53 % more than Edge.
pub const PAPER_FIREFOX_OVER_EDGE_PCT: f64 = 53.0;

/// Runs the multi-tab test on all three browsers (one batch) and ranks them
/// by power. Edge comes first and is the baseline.
pub fn browser_power(ctx: &RunContext, budget: Budget) -> BrowserPower {
    const BROWSERS: [AppId; 3] = [AppId::Edge, AppId::Chrome, AppId::Firefox];
    let model = EnergyModel::study_rig();
    let requests = BROWSERS
        .iter()
        .map(|&app| {
            let exp = Experiment::new(app)
                .budget(budget)
                .browse(BrowseScenario::MultiTab);
            RunRequest::new(&exp, 17)
        })
        .collect();
    let watts: Vec<f64> = ctx
        .run_singles(requests)
        .iter()
        .map(|run| estimate(&run.trace, &run.filter, model).mean_watts)
        .collect();
    let edge = watts[0];
    let rows = BROWSERS
        .into_iter()
        .zip(watts)
        .map(|(app, w)| (app, w, (w / edge - 1.0) * 100.0))
        .collect();
    BrowserPower { rows }
}

impl BrowserPower {
    /// Percent above Edge for a browser.
    pub fn over_edge_pct(&self, app: AppId) -> f64 {
        self.rows
            .iter()
            .find(|(a, ..)| *a == app)
            .map(|&(_, _, pct)| pct)
            .expect("browser measured")
    }

    /// Renders the comparison.
    pub fn render(&self) -> String {
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|(app, w, pct)| {
                let paper = match app {
                    AppId::Chrome => format!("+{PAPER_CHROME_OVER_EDGE_PCT:.0} %"),
                    AppId::Firefox => format!("+{PAPER_FIREFOX_OVER_EDGE_PCT:.0} %"),
                    _ => "baseline".to_string(),
                };
                vec![
                    app.display_name().to_string(),
                    format!("{w:.1}"),
                    format!("{pct:+.0} %"),
                    paper,
                ]
            })
            .collect();
        format!(
            "§V-E power — browser marginal power in the multi-tab test\n\n{}\n\
             Edge's low TLP and GPU utilization make it the power baseline, with\n\
             Chrome and Firefox above it — the ordering (and rough magnitude) of\n\
             the Microsoft measurement the paper cites.\n",
            report::markdown_table(
                &["Browser", "mean W (marginal)", "vs Edge", "paper (cited)"],
                &rows
            )
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simcore::SimDuration;

    #[test]
    fn estimate_integrates_cpu_and_gpu() {
        // Build a tiny synthetic trace: 1 thread busy 50 % + GPU busy 25 %.
        use etwtrace::{ThreadKey, TraceBuilder, TraceEvent};
        use simcore::SimTime;
        let mut b = TraceBuilder::new(2);
        b.push(TraceEvent::CSwitch {
            at: SimTime::ZERO,
            cpu: 0,
            old: None,
            new: Some(ThreadKey { pid: 1, tid: 1 }),
            ready_since: None,
        });
        b.push(TraceEvent::GpuStart {
            at: SimTime::ZERO,
            gpu: 0,
            engine: 0,
            packet: 1,
            pid: 1,
        });
        b.push(TraceEvent::GpuEnd {
            at: SimTime::ZERO + SimDuration::from_millis(250),
            gpu: 0,
            engine: 0,
            packet: 1,
            pid: 1,
        });
        b.push(TraceEvent::CSwitch {
            at: SimTime::ZERO + SimDuration::from_millis(500),
            cpu: 0,
            old: Some(ThreadKey { pid: 1, tid: 1 }),
            new: None,
            ready_since: None,
        });
        let t = b.finish(SimTime::ZERO, SimTime::ZERO + SimDuration::from_secs(1));
        let filter: PidSet = [1u64].into_iter().collect();
        let model = EnergyModel {
            cpu_per_thread_w: 10.0,
            gpu_busy_w: 100.0,
        };
        let e = estimate(&t, &filter, model);
        assert!((e.cpu_joules - 5.0).abs() < 1e-9, "{e:?}"); // 0.5 s × 10 W
        assert!((e.gpu_joules - 25.0).abs() < 1e-9, "{e:?}"); // 0.25 s × 100 W
        assert!((e.mean_watts - 30.0).abs() < 1e-9, "{e:?}");
    }

    #[test]
    fn browsers_rank_like_the_microsoft_measurement() {
        let budget = Budget {
            duration: SimDuration::from_secs(30),
            iterations: 1,
        };
        let power = browser_power(&RunContext::from_env(), budget);
        let chrome = power.over_edge_pct(AppId::Chrome);
        let firefox = power.over_edge_pct(AppId::Firefox);
        assert!(chrome > 5.0, "chrome only {chrome:+.0}% above edge");
        assert!(firefox > chrome, "firefox {firefox} vs chrome {chrome}");
        assert!(
            chrome < 100.0 && firefox < 130.0,
            "magnitudes off: {power:?}"
        );
        assert!(power.render().contains("Edge"));
    }
}
