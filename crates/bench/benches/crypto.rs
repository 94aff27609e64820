//! Crypto backend A/B benchmarks: software T-table/Shoup vs hardware
//! AES-NI/PCLMULQDQ, for every primitive the secure channel leans on.
//!
//! Criterion tracks wall-clock for both backends side by side (single
//! block encrypt, bulk CTR keystream, GHASH, full GCM seal, and the
//! protocol's 64 B seal/open). Separately, best-of-5 timed loops print
//! `engine-events-per-sec` lines for the CI floor gate — absolute
//! hardware throughput in bytes/sec, the hw-over-soft speedup ratios
//! (which is how the "≥4× on bulk keystream and GHASH" acceptance bar
//! stays pinned), and hardware 64 B seals and opens per second, so the
//! per-message path is gated and not only 4 KiB throughput. The hardware
//! lines only print when the CPU has the features; the floor file
//! assumes an AES-NI host (every x86_64 CI runner qualifies).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mgpu_crypto::aes::{Aes128, Block};
use mgpu_crypto::backend::{cpu_features, Backend};
use mgpu_crypto::ctr::CtrKeystream;
use mgpu_crypto::gcm::AesGcm;
use mgpu_crypto::ghash::{Ghash, GhashKey};
use mgpu_crypto::pad::PadSeed;
use std::time::Instant;

/// Bulk payload: 4 KiB = 256 AES blocks, a realistic OTP window refill
/// and far past the 8-block pipeline / 4-block fold ramp-up.
const BULK_BYTES: usize = 4096;
const BULK_BLOCKS: usize = BULK_BYTES / 16;

const KEY: [u8; 16] = [0x42; 16];

/// One protected block: a 64 B cacheline under the channel's 12 B header
/// (which doubles as the nonce).
const BLOCK: usize = 64;
const HEADER: [u8; 12] = [9u8; 12];

fn backends() -> Vec<Backend> {
    let mut v = vec![Backend::Soft];
    if Backend::HwAesClmul.is_available() {
        v.push(Backend::HwAesClmul);
    }
    v
}

/// Best-of-N timed throughput in bytes/sec for `f`, which processes
/// `bytes` per call and is repeated `reps` times per sample.
fn peak_bps(bytes: usize, reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..5 {
        let started = Instant::now();
        for _ in 0..reps {
            f();
        }
        let seconds = started.elapsed().as_secs_f64();
        best = best.max((bytes * reps) as f64 / seconds.max(f64::EPSILON));
    }
    best
}

fn keystream_bps(backend: Backend) -> f64 {
    let ks = CtrKeystream::with_backend(&KEY, backend);
    let seed = PadSeed::new(1, 2, 99);
    let mut out = vec![[0u8; 16]; BULK_BLOCKS];
    peak_bps(BULK_BYTES, 2000, || {
        ks.keystream_blocks(seed, 0, black_box(&mut out));
    })
}

fn ghash_bps(backend: Backend) -> f64 {
    let key = GhashKey::with_backend([0x77; 16], backend);
    let data = vec![0xA5u8; BULK_BYTES];
    peak_bps(BULK_BYTES, 2000, || {
        let mut g = Ghash::with_key(key.clone());
        g.update(black_box(&data));
        black_box(g.finalize(0, data.len() as u64));
    })
}

/// Best-of-5 64 B seals (or verify-then-decrypt opens) per second through
/// the in-place core, with the 8 B tag the protocol keeps.
fn short_ops_per_sec(backend: Backend, open: bool) -> f64 {
    let gcm = AesGcm::with_backend(&KEY, backend);
    let mut block = [0x3Cu8; BLOCK];
    let tag = gcm.seal_in_place_detached(&HEADER, &HEADER, &mut block);
    let sealed = block;
    peak_bps(1, 200_000, || {
        if open {
            let mut buf = sealed;
            gcm.open_in_place_detached(&HEADER, &HEADER, black_box(&mut buf), &tag[..8])
                .expect("authentic block");
            black_box(buf);
        } else {
            black_box(gcm.seal_in_place_detached(&HEADER, &HEADER, black_box(&mut block)));
        }
    })
}

fn bench_crypto_backends(c: &mut Criterion) {
    let seed = PadSeed::new(1, 2, 99);
    for backend in backends() {
        let name = backend.name();
        let aes = Aes128::with_backend(&KEY, backend);
        let ks = CtrKeystream::with_backend(&KEY, backend);
        let ghash_key = GhashKey::with_backend([0x77; 16], backend);
        let gcm = AesGcm::with_backend(&KEY, backend);

        let mut group = c.benchmark_group(format!("crypto-{name}"));
        group.bench_function("block-encrypt", |b| {
            let mut block: Block = [7u8; 16];
            b.iter(|| {
                block = aes.encrypt_block(black_box(block));
                block
            });
        });
        group.bench_function("keystream-4k", |b| {
            let mut out = vec![[0u8; 16]; BULK_BLOCKS];
            b.iter(|| {
                ks.keystream_blocks(seed, 0, black_box(&mut out));
            });
        });
        group.bench_function("ghash-4k", |b| {
            let data = vec![0xA5u8; BULK_BYTES];
            b.iter(|| {
                let mut g = Ghash::with_key(ghash_key.clone());
                g.update(black_box(&data));
                g.finalize(0, data.len() as u64)
            });
        });
        group.bench_function("seal-4k", |b| {
            let pt = vec![0x3Cu8; BULK_BYTES];
            let mut ct = Vec::with_capacity(BULK_BYTES);
            b.iter(|| gcm.seal_detached_into(&[9u8; 12], b"hdr", black_box(&pt), &mut ct));
        });
        group.bench_function("seal-64B", |b| {
            let mut block = [0x3Cu8; BLOCK];
            b.iter(|| gcm.seal_in_place_detached(&HEADER, &HEADER, black_box(&mut block)));
        });
        group.bench_function("open-64B", |b| {
            let mut sealed = [0x3Cu8; BLOCK];
            let tag = gcm.seal_in_place_detached(&HEADER, &HEADER, &mut sealed);
            b.iter(|| {
                let mut buf = sealed;
                gcm.open_in_place_detached(&HEADER, &HEADER, black_box(&mut buf), &tag[..8])
                    .expect("authentic block");
                buf
            });
        });
        group.finish();
    }

    // CI floor-gate lines (parsed by the bench smoke step): absolute
    // hardware throughput and the hw/soft speedup ratios.
    if Backend::HwAesClmul.is_available() {
        let soft_ks = keystream_bps(Backend::Soft);
        let hw_ks = keystream_bps(Backend::HwAesClmul);
        let soft_gh = ghash_bps(Backend::Soft);
        let hw_gh = ghash_bps(Backend::HwAesClmul);
        println!("engine-events-per-sec aesni_keystream_Bps {hw_ks:.0} (soft {soft_ks:.0} B/s)");
        println!("engine-events-per-sec clmul_ghash_Bps {hw_gh:.0} (soft {soft_gh:.0} B/s)");
        println!(
            "engine-events-per-sec aesni_keystream_speedup {:.2} (hw over soft, 4 KiB)",
            hw_ks / soft_ks
        );
        println!(
            "engine-events-per-sec clmul_ghash_speedup {:.2} (hw over soft, 4 KiB)",
            hw_gh / soft_gh
        );
        for (label, open) in [("gcm-seal-64B", false), ("gcm-open-64B", true)] {
            let ops = short_ops_per_sec(Backend::HwAesClmul, open);
            println!("engine-events-per-sec {label} {ops:.0} (ops/s, 12 B header, 8 B tag)");
        }
        println!("crypto-backend-features {}", cpu_features().join(","));
    } else {
        println!("crypto-backend hw unavailable: skipping aesni_*/clmul_* floor lines");
    }
}

criterion_group!(benches, bench_crypto_backends);
criterion_main!(benches);
