//! Hardware AES-128 via the `x86_64` AES-NI instructions.
//!
//! This is the [`crate::backend::Backend::HwAesClmul`] implementation of
//! the block cipher: the key schedule runs through `aeskeygenassist` and
//! bulk encryption through an 8-block interleaved `aesenc` pipeline. Both
//! are bit-for-bit equivalent to the portable T-table path in
//! [`crate::aes`] (property-tested in `tests/backend_parity.rs`) — the
//! point is throughput: `aesenc` retires one round per instruction and the
//! 8-way interleave keeps the pipeline full across independent CTR
//! counter blocks, where the software path spends ~40 table lookups per
//! round batch. Unlike the T-tables, AES-NI is also constant-time by
//! construction: no key- or data-dependent memory accesses exist for a
//! co-tenant to probe.
//!
//! # Safety contract
//!
//! Every `unsafe` in this module is one of two shapes, each documented at
//! the use site:
//!
//! 1. **Feature gate** — calling a `#[target_feature(enable = "aes")]`
//!    function. Sound if and only if the CPU supports AES-NI; the public
//!    wrappers assert [`available`] before entering, and the dispatch
//!    layer only selects this module when detection succeeded.
//! 2. **Unaligned SIMD loads/stores** — `_mm_loadu_si128` /
//!    `_mm_storeu_si128` on `[u8; 16]` buffers. Sound because the `u`
//!    variants have no alignment requirement and every pointer derives
//!    from a live reference covering exactly 16 bytes.

use crate::aes::Block;
use core::arch::x86_64::{
    __m128i, _mm_aesenc_si128, _mm_aesenclast_si128, _mm_aeskeygenassist_si128, _mm_loadu_si128,
    _mm_set_epi32, _mm_setzero_si128, _mm_shuffle_epi32, _mm_slli_si128, _mm_storeu_si128,
    _mm_xor_si128,
};

/// Number of independent blocks kept in flight by the bulk pipeline.
/// `aesenc` has a multi-cycle latency but single-cycle throughput on every
/// AES-NI core, so 8 interleaved streams cover the dependency chains of
/// all current microarchitectures without spilling registers.
const PIPELINE: usize = 8;

/// Runtime check for this module's instruction set.
#[must_use]
pub fn available() -> bool {
    std::arch::is_x86_feature_detected!("aes")
}

/// Expands an AES-128 key into the 11 round keys via `aeskeygenassist`.
///
/// Produces exactly the FIPS-197 §5.2 schedule (the same bytes as the
/// software expansion — pinned by tests), computed the way hardware
/// implementations do: the assist instruction supplies `SubWord(RotWord)`
/// plus the round constant, and the three `slli`/`xor` pairs fold the
/// running word prefix.
///
/// # Panics
///
/// Panics if the CPU does not support AES-NI.
#[must_use]
pub fn expand_key(key: &[u8; 16]) -> [[u8; 16]; 11] {
    assert!(available(), "AES-NI key expansion without CPU support");
    // SAFETY: feature gate — `available()` verified AES-NI support above.
    unsafe { expand_key_impl(key) }
}

/// One key-schedule round: `prev` is round key `i-1`, `assist` the
/// `aeskeygenassist` output for it (with the matching round constant).
#[target_feature(enable = "aes")]
fn expand_round(prev: __m128i, assist: __m128i) -> __m128i {
    // Broadcast the high word of the assist result (SubWord(RotWord(w3))
    // ^ rcon) to all four lanes, then xor in the prefix sums of the
    // previous round key's words.
    let t = _mm_shuffle_epi32::<0b1111_1111>(assist);
    let mut k = prev;
    k = _mm_xor_si128(k, _mm_slli_si128::<4>(k));
    k = _mm_xor_si128(k, _mm_slli_si128::<4>(k));
    k = _mm_xor_si128(k, _mm_slli_si128::<4>(k));
    _mm_xor_si128(k, t)
}

#[target_feature(enable = "aes")]
fn expand_key_impl(key: &[u8; 16]) -> [[u8; 16]; 11] {
    // SAFETY: unaligned load — `key` is a live 16-byte reference.
    let k0 = unsafe { _mm_loadu_si128(key.as_ptr().cast::<__m128i>()) };
    let mut rk = [k0; 11];
    // `aeskeygenassist` takes the round constant as an immediate, so the
    // ten rounds are spelled out rather than looped.
    rk[1] = expand_round(rk[0], _mm_aeskeygenassist_si128::<0x01>(rk[0]));
    rk[2] = expand_round(rk[1], _mm_aeskeygenassist_si128::<0x02>(rk[1]));
    rk[3] = expand_round(rk[2], _mm_aeskeygenassist_si128::<0x04>(rk[2]));
    rk[4] = expand_round(rk[3], _mm_aeskeygenassist_si128::<0x08>(rk[3]));
    rk[5] = expand_round(rk[4], _mm_aeskeygenassist_si128::<0x10>(rk[4]));
    rk[6] = expand_round(rk[5], _mm_aeskeygenassist_si128::<0x20>(rk[5]));
    rk[7] = expand_round(rk[6], _mm_aeskeygenassist_si128::<0x40>(rk[6]));
    rk[8] = expand_round(rk[7], _mm_aeskeygenassist_si128::<0x80>(rk[7]));
    rk[9] = expand_round(rk[8], _mm_aeskeygenassist_si128::<0x1b>(rk[8]));
    rk[10] = expand_round(rk[9], _mm_aeskeygenassist_si128::<0x36>(rk[9]));
    let mut out = [[0u8; 16]; 11];
    for (bytes, reg) in out.iter_mut().zip(rk) {
        // SAFETY: unaligned store — `bytes` is a live 16-byte buffer.
        unsafe { _mm_storeu_si128(bytes.as_mut_ptr().cast::<__m128i>(), reg) };
    }
    out
}

/// Encrypts one block with an expanded schedule.
///
/// # Panics
///
/// Panics if the CPU does not support AES-NI.
#[must_use]
pub fn encrypt_block(round_keys: &[[u8; 16]; 11], block: Block) -> Block {
    assert!(available(), "AES-NI encryption without CPU support");
    // SAFETY: feature gate — `available()` verified AES-NI support above.
    unsafe { encrypt_block_impl(round_keys, block) }
}

/// Encrypts the counter blocks `nonce ‖ be32(first + i)` for
/// `i = 0, 1, …` into `out`, the 32-bit counter wrapping — the CTR
/// keystream of a 96-bit nonce, as GCM's `inc32` steps it.
///
/// This is the bulk entry point behind CTR keystream and OTP pad refill:
/// the blocks are independent counter values, so the 8-block interleaved
/// pipeline runs at `aesenc` throughput instead of its latency. The
/// counters are built in a register from the nonce's words and written
/// with whole-block stores, so the encryption's loads forward straight
/// from those stores; counter blocks assembled byte-wise in memory stall
/// every such load instead.
///
/// # Panics
///
/// Panics if the CPU does not support AES-NI.
pub fn encrypt_counters(
    round_keys: &[[u8; 16]; 11],
    nonce: &[u8; 12],
    first: u32,
    out: &mut [Block],
) {
    assert!(available(), "AES-NI encryption without CPU support");
    // SAFETY: feature gate — `available()` verified AES-NI support above.
    unsafe { encrypt_counters_impl(round_keys, nonce, first, out) }
}

#[target_feature(enable = "aes")]
fn encrypt_counters_impl(
    round_keys: &[[u8; 16]; 11],
    nonce: &[u8; 12],
    first: u32,
    out: &mut [Block],
) {
    let word = |i: usize| i32::from_ne_bytes(nonce[4 * i..4 * i + 4].try_into().expect("4 bytes"));
    let (w0, w1, w2) = (word(0), word(1), word(2));
    let mut counter = first;
    for block in out.iter_mut() {
        // Lane 3 holds bytes 12..16: the counter, big-endian.
        let lane3 = i32::from_ne_bytes(counter.to_be_bytes());
        let reg = _mm_set_epi32(lane3, w2, w1, w0);
        // SAFETY: unaligned store — `block` is a live 16-byte buffer.
        unsafe { _mm_storeu_si128(block.as_mut_ptr().cast::<__m128i>(), reg) };
        counter = counter.wrapping_add(1);
    }
    encrypt_blocks_impl(round_keys, out);
}

#[target_feature(enable = "aes")]
pub(crate) fn load_schedule(round_keys: &[[u8; 16]; 11]) -> [__m128i; 11] {
    let mut keys = [_mm_setzero_si128(); 11];
    for (reg, bytes) in keys.iter_mut().zip(round_keys) {
        // SAFETY: unaligned load — each round key is a live 16-byte array.
        *reg = unsafe { _mm_loadu_si128(bytes.as_ptr().cast::<__m128i>()) };
    }
    keys
}

#[target_feature(enable = "aes")]
fn encrypt_block_impl(round_keys: &[[u8; 16]; 11], block: Block) -> Block {
    let mut one = [block];
    encrypt_lanes(&load_schedule(round_keys), &mut one);
    one[0]
}

#[target_feature(enable = "aes")]
fn encrypt_blocks_impl(round_keys: &[[u8; 16]; 11], blocks: &mut [Block]) {
    let keys = load_schedule(round_keys);
    let (groups, tail) = blocks.as_chunks_mut::<PIPELINE>();
    for group in groups {
        encrypt_lanes(&keys, group);
    }
    // The tail is interleaved too, so a run shorter than the pipeline — a
    // 4-block cacheline pad, a message's last keystream chunk — costs one
    // round-latency chain, not one per block.
    macro_rules! tail {
        ($($n:literal),*) => {
            match tail.len() {
                $($n => encrypt_lanes::<$n>(&keys, tail.try_into().expect("tail length")),)*
                _ => {}
            }
        };
    }
    tail!(1, 2, 3, 4, 5, 6, 7);
}

/// Encrypts `N` independent blocks in place, rounds interleaved (see
/// [`encrypt_regs`]).
#[target_feature(enable = "aes")]
fn encrypt_lanes<const N: usize>(keys: &[__m128i; 11], blocks: &mut [Block; N]) {
    let mut s = [_mm_setzero_si128(); N];
    for (reg, block) in s.iter_mut().zip(blocks.iter()) {
        // SAFETY: unaligned load — each element is a live 16-byte array.
        *reg = unsafe { _mm_loadu_si128(block.as_ptr().cast::<__m128i>()) };
    }
    encrypt_regs(keys, &mut s);
    for (reg, block) in s.iter().zip(blocks.iter_mut()) {
        // SAFETY: unaligned store — each element is a live 16-byte buffer.
        unsafe { _mm_storeu_si128(block.as_mut_ptr().cast::<__m128i>(), *reg) };
    }
}

/// Encrypts `N` independent blocks held in registers, rounds interleaved:
/// all `N` streams advance one round before any stream advances two, so
/// consecutive `aesenc` on one stream are `N` instructions apart — beyond
/// the instruction's latency once `N` reaches the pipeline depth.
#[target_feature(enable = "aes")]
pub(crate) fn encrypt_regs<const N: usize>(keys: &[__m128i; 11], s: &mut [__m128i; N]) {
    for reg in s.iter_mut() {
        *reg = _mm_xor_si128(*reg, keys[0]);
    }
    for key in &keys[1..10] {
        for reg in s.iter_mut() {
            *reg = _mm_aesenc_si128(*reg, *key);
        }
    }
    for reg in s.iter_mut() {
        *reg = _mm_aesenclast_si128(*reg, keys[10]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fips197_appendix_b_vector() {
        if !available() {
            return;
        }
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let rk = expand_key(&key);
        let pt = [
            0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
            0x07, 0x34,
        ];
        let expected = [
            0x39, 0x25, 0x84, 0x1d, 0x02, 0xdc, 0x09, 0xfb, 0xdc, 0x11, 0x85, 0x97, 0x19, 0x6a,
            0x0b, 0x32,
        ];
        assert_eq!(encrypt_block(&rk, pt), expected);
        // Last round key of this schedule, FIPS-197 Appendix A.1.
        assert_eq!(
            rk[10],
            [
                0xd0, 0x14, 0xf9, 0xa8, 0xc9, 0xee, 0x25, 0x89, 0xe1, 0x3f, 0x0c, 0xc8, 0xb6, 0x63,
                0x0c, 0xa6
            ]
        );
    }

    #[test]
    fn bulk_matches_single_across_remainders() {
        if !available() {
            return;
        }
        let rk = expand_key(&[0x42; 16]);
        let nonce = [0x5E; 12];
        // Every length up to two pipelines plus a remainder, so each tail
        // width 0..8 runs after zero, one and two full groups.
        for len in 0..=23usize {
            let mut blocks = vec![[0u8; 16]; len];
            encrypt_counters(&rk, &nonce, 3, &mut blocks);
            for (i, block) in blocks.iter().enumerate() {
                let mut counter = [0u8; 16];
                counter[..12].copy_from_slice(&nonce);
                counter[12..].copy_from_slice(&(3 + i as u32).to_be_bytes());
                assert_eq!(*block, encrypt_block(&rk, counter), "len={len} block {i}");
            }
        }
    }
}
