#![allow(missing_docs)] // criterion_group! generates undocumented glue

//! Criterion benches over the real SHA-256 kernel — the genuinely executed
//! compute behind the SHA-256d mining workload models.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};
use cryptomine::{double_sha256, scan_nonces, BlockHeader, Sha256};

fn bench_sha256(c: &mut Criterion) {
    let mut g = c.benchmark_group("sha256");
    g.throughput(Throughput::Bytes(64));
    g.bench_function("compress_64B", |b| {
        let data = [0xabu8; 64];
        b.iter(|| Sha256::digest(black_box(&data)))
    });
    g.throughput(Throughput::Elements(1));
    g.bench_function("double_sha256_header", |b| {
        let header = BlockHeader::synthetic(7, 20).with_nonce(42);
        b.iter(|| double_sha256(black_box(&header)))
    });
    g.throughput(Throughput::Elements(256));
    g.bench_function("scan_256_nonces", |b| {
        let header = BlockHeader::synthetic(7, 255);
        b.iter(|| scan_nonces(black_box(&header), 0..256))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_sha256
}
criterion_main!(benches);
