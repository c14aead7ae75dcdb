//! Mining-rig comparison: the four miners on a GTX 680 vs a GTX 1080 Ti
//! (the paper's Fig. 10 flavour), with real SHA-256d kernels running inside
//! the CPU mining threads.
//!
//! ```text
//! cargo run --release --example mining_rig
//! ```

use desktop_parallelism::etwtrace::TraceEvent;
use desktop_parallelism::parastat::{Budget, Experiment};
use desktop_parallelism::simcore::SimDuration;
use desktop_parallelism::simgpu::presets;
use desktop_parallelism::workloads::AppId;

fn main() {
    let budget = Budget {
        duration: SimDuration::from_secs(15),
        iterations: 1,
    };
    println!(
        "{:<30} {:>12} {:>12}",
        "miner", "GTX 680 (%)", "1080 Ti (%)"
    );
    for app in [
        AppId::BitcoinMiner,
        AppId::EasyMiner,
        AppId::PhoenixMiner,
        AppId::WinEthMiner,
    ] {
        let mid = Experiment::new(app)
            .budget(budget)
            .gpu(presets::gtx_680())
            .run()
            .gpu_percent
            .mean();
        let hi = Experiment::new(app)
            .budget(budget)
            .gpu(presets::gtx_1080_ti())
            .run()
            .gpu_percent
            .mean();
        println!("{:<30} {mid:>12.1} {hi:>12.1}", app.display_name());
    }
    println!();
    println!("Running EasyMiner with REAL double-SHA-256 kernels in its CPU threads…");
    let mut exp = Experiment::new(AppId::EasyMiner).budget(budget);
    exp.opts.real_kernels = true;
    let run = exp.run_once(1);
    let shares = run
        .trace
        .events()
        .iter()
        .filter(|e| matches!(e, TraceEvent::Marker { label, .. } if label == "share"))
        .count();
    println!(
        "TLP {:.2}, GPU {:.1} %, {} share(s) found at 18 leading zero bits",
        run.tlp(),
        run.gpu_util().percent(),
        shares
    );
    println!("(Note the Fig. 10 outlier: WinEth runs HOTTER on the 1080 Ti — Kepler");
    println!(" predates the cryptocurrency boom and cannot keep Ethash fed.)");
}
