//! GPU hardware descriptions and the per-architecture efficiency table.

use crate::packet::PacketKind;

/// NVIDIA architecture generations appearing in the study.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GpuArch {
    /// GTX 285 (Blake et al.'s 2010 card).
    Tesla,
    /// GTX 680 — the paper's "mid-end" comparison card.
    Kepler,
    /// GTX 1080 Ti — the paper's primary card.
    Pascal,
}

/// Static description of a discrete GPU.
///
/// ```
/// use simgpu::presets;
/// let gpu = presets::gtx_1080_ti();
/// assert_eq!(gpu.cuda_cores, 3584);
/// assert!(gpu.peak_gflops() > 10_000.0);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct GpuSpec {
    /// Marketing name.
    pub name: &'static str,
    /// Number of CUDA cores.
    pub cuda_cores: u32,
    /// Core clock in MHz.
    pub core_mhz: f64,
    /// Memory bandwidth in GB/s (reporting only).
    pub mem_gbps: f64,
    /// Number of independent command queues the device exposes.
    pub hw_queues: usize,
    /// Architecture generation (drives the efficiency table).
    pub arch: GpuArch,
    /// Whether a fixed-function video encoder (NVENC) is present.
    pub has_nvenc: bool,
    /// Fixed-function encoder throughput in 1080p frames per second.
    pub nvenc_fps_1080p: f64,
}

impl GpuSpec {
    /// Peak single-precision throughput in GFLOP/s (2 FLOPs per core-cycle).
    pub fn peak_gflops(&self) -> f64 {
        2.0 * self.cuda_cores as f64 * self.core_mhz / 1e3
    }

    /// Sustained throughput in GFLOP/s for a packet kind, applying the
    /// architecture-efficiency table.
    pub fn effective_gflops(&self, kind: PacketKind) -> f64 {
        self.peak_gflops() * self.arch_efficiency(kind)
    }

    /// Fraction of peak the architecture sustains on the given packet kind.
    ///
    /// Kepler's poor Ethash number encodes the paper's §V-D2 explanation:
    /// "NVIDIA's Kepler architecture in GTX 680, released before the
    /// prevalence of cryptocurrency, is not optimized to run mining
    /// workloads".
    pub fn arch_efficiency(&self, kind: PacketKind) -> f64 {
        use GpuArch::*;
        use PacketKind::*;
        match (self.arch, kind) {
            (Pascal, _) => 1.0,
            (Kepler, Graphics3d) => 0.90,
            (Kepler, Compute) => 0.80,
            (Kepler, Sha256) => 0.75,
            (Kepler, Ethash) => 0.28,
            (Kepler, VideoDecode) => 0.80,
            (Kepler, Present) => 0.95,
            (Tesla, Graphics3d) => 0.80,
            (Tesla, Compute) => 0.50,
            (Tesla, Sha256) => 0.50,
            (Tesla, Ethash) => 0.05,
            (Tesla, VideoDecode) => 0.50,
            (Tesla, Present) => 0.90,
        }
    }

    /// Extra idle gap a queue inserts after each packet of `kind`, as a
    /// fraction of the packet's runtime. Models driver/scheduling stalls on
    /// architectures that cannot keep a workload fed (Kepler + Ethash): the
    /// GPU is *slower and less utilized*, matching Fig. 10's WinEth bar.
    pub fn dispatch_gap_frac(&self, kind: PacketKind) -> f64 {
        match (self.arch, kind) {
            (GpuArch::Kepler, PacketKind::Ethash) => 0.18,
            (GpuArch::Tesla, PacketKind::Ethash) => 0.50,
            _ => 0.0,
        }
    }
}

/// GPU presets for the cards in the study.
pub mod presets {
    use super::*;

    /// The paper's primary card (Table I): 3584 CUDA cores @ 1481 MHz.
    pub fn gtx_1080_ti() -> GpuSpec {
        GpuSpec {
            name: "NVIDIA GTX 1080 Ti",
            cuda_cores: 3584,
            core_mhz: 1481.0,
            mem_gbps: 484.0,
            hw_queues: 8,
            arch: GpuArch::Pascal,
            has_nvenc: true,
            nvenc_fps_1080p: 600.0,
        }
    }

    /// The paper's mid-end card: 1536 CUDA cores @ 1006 MHz.
    pub fn gtx_680() -> GpuSpec {
        GpuSpec {
            name: "NVIDIA GTX 680",
            cuda_cores: 1536,
            core_mhz: 1006.0,
            mem_gbps: 192.0,
            hw_queues: 4,
            arch: GpuArch::Kepler,
            has_nvenc: true,
            nvenc_fps_1080p: 240.0,
        }
    }

    /// Blake et al.'s 2010 card: 240 CUDA cores @ 648 MHz, no NVENC.
    pub fn gtx_285() -> GpuSpec {
        GpuSpec {
            name: "NVIDIA GTX 285",
            cuda_cores: 240,
            core_mhz: 648.0,
            mem_gbps: 159.0,
            hw_queues: 1,
            arch: GpuArch::Tesla,
            has_nvenc: false,
            nvenc_fps_1080p: 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_flops_match_published_ratios() {
        let hi = presets::gtx_1080_ti();
        let mid = presets::gtx_680();
        let old = presets::gtx_285();
        // Paper §III-A: 1080 Ti has ~15x the cores and ~2x the clock of 285.
        assert!((hi.cuda_cores as f64 / old.cuda_cores as f64 - 14.93).abs() < 0.1);
        assert!(hi.core_mhz / old.core_mhz > 2.0);
        // 1080 Ti ≈ 3.4x the raw FLOPS of the 680.
        let ratio = hi.peak_gflops() / mid.peak_gflops();
        assert!((3.0..4.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn kepler_is_bad_at_ethash() {
        let mid = presets::gtx_680();
        assert!(mid.arch_efficiency(PacketKind::Ethash) < 0.5);
        assert!(mid.dispatch_gap_frac(PacketKind::Ethash) > 0.0);
        let hi = presets::gtx_1080_ti();
        assert_eq!(hi.arch_efficiency(PacketKind::Ethash), 1.0);
        assert_eq!(hi.dispatch_gap_frac(PacketKind::Ethash), 0.0);
    }

    #[test]
    fn hash_rate_ratios_match_fig10() {
        let hi = presets::gtx_1080_ti();
        let mid = presets::gtx_680();
        // The paper: "the hash rate of GTX 680 is at least 2× lower".
        let sha =
            hi.effective_gflops(PacketKind::Sha256) / mid.effective_gflops(PacketKind::Sha256);
        assert!(sha >= 2.0, "SHA-256 ratio {sha}");
        // Kepler cannot keep Ethash fed: with its dispatch gaps, the 1080
        // Ti's lead grows far past the raw 3.4× FLOPS gap.
        let ethash = |gpu: &GpuSpec| {
            gpu.effective_gflops(PacketKind::Ethash)
                / (1.0 + gpu.dispatch_gap_frac(PacketKind::Ethash))
        };
        let eth = ethash(&hi) / ethash(&mid);
        assert!(eth > 8.0, "Ethash ratio {eth}");
    }

    #[test]
    fn efficiency_bounded() {
        for spec in [
            presets::gtx_1080_ti(),
            presets::gtx_680(),
            presets::gtx_285(),
        ] {
            for kind in PacketKind::ALL {
                let e = spec.arch_efficiency(kind);
                assert!((0.0..=1.0).contains(&e), "{} {kind:?} {e}", spec.name);
            }
        }
    }

    #[test]
    fn only_old_card_lacks_nvenc() {
        assert!(presets::gtx_1080_ti().has_nvenc);
        assert!(presets::gtx_680().has_nvenc);
        assert!(!presets::gtx_285().has_nvenc);
    }
}
