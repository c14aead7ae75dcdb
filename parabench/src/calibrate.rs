//! Host-speed normalisation of the end-to-end times.
//!
//! The benchmark runs on shared hosts whose speed drifts by tens of percent
//! over minutes as neighbours come and go, which swamps the differences a
//! comparison looks for. So every timed step (each set-up, each pass) is
//! preceded by a fixed reference kernel on as many threads as the step
//! keeps busy, and its time is divided by the kernel's slowdown against
//! its nominal time: the result is seconds on a host where the kernel runs
//! at nominal speed. The kernel is standard-library code only — an
//! allocate-sort-hash over 8 MiB and a binary-heap calendar with small
//! string allocations, the two shapes of work the simulator and the trace
//! codecs do — so it tracks the host and nothing a change to the
//! repository can touch. Raw seconds are printed next to the normalised
//! ones.

use crate::stats;
use etwtrace::ShardRunner;
use parastat::ThreadPoolRunner;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;

/// The kernel's time on one and on two threads on the host the baseline
/// was recorded on (a 2-vCPU x86-64 VM) at its quietest, so normalised
/// seconds read close to raw ones there.
const NOMINAL_S: [f64; 2] = [NOMINAL_1, NOMINAL_2];
const NOMINAL_1: f64 = 0.04;
const NOMINAL_2: f64 = 0.05;

/// How much slower than nominal the host runs the reference kernel on
/// `workers` threads (1 or 2) right now.
pub fn host_slowdown(workers: usize) -> f64 {
    let workers = workers.clamp(1, NOMINAL_S.len());
    let pool = ThreadPoolRunner::new(workers);
    let t = stats::now();
    pool.run_shards(workers, &|i| {
        black_box(sort_hash(i as u64));
        black_box(calendar(i as u64));
    });
    stats::secs_since(t) / NOMINAL_S[workers - 1]
}

fn sort_hash(seed: u64) -> u64 {
    let mut v: Vec<u64> = (0..1_000_000u64)
        .map(|i| (i ^ seed).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    v.sort_unstable();
    v.iter().fold(0, |h, x| h.rotate_left(5) ^ x)
}

fn calendar(seed: u64) -> u64 {
    let mut heap = BinaryHeap::new();
    let mut log: Vec<(u64, String)> = Vec::new();
    let mut x = seed | 1;
    let mut acc = 0u64;
    for i in 0..300_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        heap.push(Reverse(x % 1_000_000 + i));
        if heap.len() > 1000 {
            if let Some(Reverse(due)) = heap.pop() {
                acc ^= due;
                if due % 4 == 0 {
                    log.push((due, format!("t{}", due % 97)));
                }
            }
        }
    }
    acc ^ log.len() as u64
}
