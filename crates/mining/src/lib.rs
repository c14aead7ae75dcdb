//! # cryptomine — the SHA-256 kernel of the mining workloads
//!
//! The paper benchmarks four miners: **Bitcoin Miner** and **EasyMiner**
//! (SHA-256d Bitcoin-style) and **PhoenixMiner** and **Windows Ethereum
//! Miner** (Ethash). The simulator sees Ethash only as GPU work
//! (`simgpu::PacketKind::Ethash`), so this crate holds just the kernel
//! that runs for real:
//!
//! * [`sha256`] — FIPS 180-4 SHA-256 and Bitcoin's double-SHA-256, plus
//!   block-header nonce scanning ([`sha256::scan_nonces`]). The SHA-256d
//!   miners' CPU threads scan nonces with it when a run sets
//!   `real_kernels`, and the run store addresses its entries with it.

pub mod sha256;

pub use sha256::{double_sha256, scan_nonces, BlockHeader, Sha256};
