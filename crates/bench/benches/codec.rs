//! Wall-clock benchmarks of the wire-format codecs: NVMf capsules and
//! CRC-32 — every functional IO crosses these paths.
//!
//! `crc32_bytewise` is a reference kernel defined in this file (the
//! classic one-table-lookup-per-byte loop), timed in the same run as the
//! production `crc32`, so a speed-up is read as a ratio of two numbers
//! taken on the same host under the same load. `crc32_shift` times the
//! zero-run operator that pre-CRC capsule encodes and extent-map merges
//! rely on.

use bytes::Bytes;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fabric::Capsule;
use microfs::crc::{crc32, crc32_shift};
use std::hint::black_box;

const CRC_SIZES: [usize; 3] = [64, 4096, 1 << 20];

fn bench_capsule(c: &mut Criterion) {
    let mut g = c.benchmark_group("capsule_roundtrip");
    for &size in &[4096usize, 32 << 10, 1 << 20] {
        g.throughput(Throughput::Bytes(size as u64));
        let payload = Bytes::from(vec![0xA5u8; size]);
        g.bench_with_input(BenchmarkId::from_parameter(size), &payload, |b, p| {
            b.iter(|| {
                let cap = Capsule::write(1, 1, 0, p.clone());
                let wire = cap.encode();
                black_box(Capsule::decode(wire).unwrap().len)
            })
        });
    }
    g.finish();
}

fn bench_crc(c: &mut Criterion) {
    let mut g = c.benchmark_group("crc32");
    for &size in &CRC_SIZES {
        g.throughput(Throughput::Bytes(size as u64));
        let data = vec![0x5Au8; size];
        g.bench_with_input(BenchmarkId::from_parameter(size), &data, |b, d| {
            b.iter(|| black_box(crc32(black_box(d))))
        });
    }
    g.finish();
}

/// Bytewise reference table (reflected IEEE polynomial).
fn bytewise_table() -> [u32; 256] {
    let mut t = [0u32; 256];
    for (i, e) in t.iter_mut().enumerate() {
        let mut c = i as u32;
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
        *e = c;
    }
    t
}

fn crc32_bytewise(t: &[u32; 256], data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = t[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

fn bench_crc_reference(c: &mut Criterion) {
    let table = bytewise_table();
    let mut g = c.benchmark_group("crc32_bytewise");
    for &size in &CRC_SIZES {
        g.throughput(Throughput::Bytes(size as u64));
        let data = vec![0x5Au8; size];
        assert_eq!(crc32_bytewise(&table, &data), crc32(&data));
        g.bench_with_input(BenchmarkId::from_parameter(size), &data, |b, d| {
            b.iter(|| black_box(crc32_bytewise(&table, black_box(d))))
        });
    }
    g.finish();
}

fn bench_crc_shift(c: &mut Criterion) {
    let mut g = c.benchmark_group("crc32_shift");
    for &len in &[4096u64, 4 << 20, (1 << 40) - 1] {
        g.bench_with_input(BenchmarkId::from_parameter(len), &len, |b, &l| {
            b.iter(|| black_box(crc32_shift(black_box(0x1234_5678), black_box(l))))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_capsule,
    bench_crc,
    bench_crc_reference,
    bench_crc_shift
);
criterion_main!(benches);
