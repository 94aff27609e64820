//! Fused short-message AES-GCM for the hardware backend: AES-NI counter
//! mode and PCLMULQDQ GHASH in one pass over registers.
//!
//! The secure channel seals every 64 B block under a 12 B header, so its
//! cost is per message, not per byte. A message whose AAD, text and
//! length block fit in [`FOLD_BLOCKS`] GHASH blocks (the channel's takes
//! 6) runs here in one call:
//!
//! 1. the counter blocks `J0, J0+1, …` — one per text block after `J0` —
//!    are built in registers from the nonce and encrypted as one
//!    interleaved group: `E(J0)` and the whole keystream at once;
//! 2. the keystream is XORed into the text with whole-block loads and
//!    stores;
//! 3. every GHASH block is multiplied by its power of `H` (the `k`-th of
//!    `n` blocks by `Hⁿ⁻ᵏ`), the 256-bit products accumulate, and one
//!    reduction yields the hash.
//!
//! Done through byte arrays, the same three steps spend more time in
//! store-forwarding stalls — counter blocks and block lists assembled
//! from narrower writes, then read back whole — than in arithmetic.
//! Outputs are bit-for-bit those of the streaming path in
//! [`crate::gcm`] (checked at every AAD length 0..=40 and text length
//! 0..=160 in `tests/backend_parity.rs`).
//!
//! # Safety contract
//!
//! Same two shapes as [`crate::aesni`] and [`crate::clmul`]: calling the
//! `#[target_feature]` body (sound because [`short_message`] asserts both
//! modules' runtime detection first) and unaligned
//! `_mm_loadu_si128`/`_mm_storeu_si128` on live 16-byte buffers.

use crate::aesni::{self, encrypt_regs, load_schedule};
use crate::clmul::{self, clmul256, load_be, reduce, store_be};
use crate::gcm::{check_tag, fits_one_fold, Op, TagMismatch};
use crate::ghash::FOLD_BLOCKS;
use core::arch::x86_64::{
    __m128i, _mm_loadu_si128, _mm_set_epi32, _mm_set_epi64x, _mm_setzero_si128, _mm_storeu_si128,
    _mm_xor_si128,
};

/// Runs `op` on the short message in `buf` (AAD `aad`, 96-bit `nonce`)
/// and returns the tag over its ciphertext.
///
/// # Errors
///
/// Returns [`TagMismatch`] when `op` is [`Op::Open`] and the tag does not
/// verify; `buf` is then left untouched.
///
/// # Panics
///
/// Panics if the CPU lacks AES-NI, PCLMULQDQ or SSSE3, or if the message
/// does not fit one GHASH fold.
pub fn short_message(
    round_keys: &[[u8; 16]; 11],
    hpow: &[[u8; 16]; FOLD_BLOCKS],
    nonce: &[u8; 12],
    aad: &[u8],
    buf: &mut [u8],
    op: Op<'_>,
) -> Result<[u8; 16], TagMismatch> {
    assert!(
        aesni::available() && clmul::available(),
        "fused AES-GCM without CPU support"
    );
    assert!(
        fits_one_fold(aad.len(), buf.len()),
        "message too long for one GHASH fold"
    );
    // SAFETY: feature gate — `aesni::available()` and
    // `clmul::available()` verified AES-NI, PCLMULQDQ and SSSE3 above.
    unsafe { short_message_impl(round_keys, hpow, nonce, aad, buf, op) }
}

#[target_feature(enable = "aes,pclmulqdq,ssse3")]
fn short_message_impl(
    round_keys: &[[u8; 16]; 11],
    hpow: &[[u8; 16]; FOLD_BLOCKS],
    nonce: &[u8; 12],
    aad: &[u8],
    buf: &mut [u8],
    op: Op<'_>,
) -> Result<[u8; 16], TagMismatch> {
    // `E(J0)` plus one pad per text block, as one interleaved group.
    let keys = load_schedule(round_keys);
    let mut pads = [_mm_setzero_si128(); FOLD_BLOCKS];
    macro_rules! counter_pads {
        ($($n:literal),*) => {
            match 1 + buf.len().div_ceil(16) {
                $($n => counter_pads::<$n>(&keys, nonce, (&mut pads[..$n]).try_into().expect("lanes")),)*
                _ => unreachable!("a short message has at most 7 text blocks"),
            }
        };
    }
    counter_pads!(1, 2, 3, 4, 5, 6, 7, 8);

    if let Op::Seal = op {
        xor_keystream(buf, &pads);
    }
    let tag = tag(hpow, aad, buf, pads[0]);
    match op {
        Op::Seal => {}
        Op::Open(expected) => {
            check_tag(expected, &tag)?;
            xor_keystream(buf, &pads);
        }
        Op::Decrypt => xor_keystream(buf, &pads),
    }
    Ok(tag)
}

/// Encrypts the counter blocks `nonce ‖ be32(1 + i)`, `i < N`, built in
/// registers: the nonce's three words, then the big-endian counter.
#[target_feature(enable = "aes,pclmulqdq,ssse3")]
fn counter_pads<const N: usize>(keys: &[__m128i; 11], nonce: &[u8; 12], pads: &mut [__m128i; N]) {
    let word = |i: usize| i32::from_ne_bytes(nonce[4 * i..4 * i + 4].try_into().expect("4 bytes"));
    let (w0, w1, w2) = (word(0), word(1), word(2));
    for (i, pad) in pads.iter_mut().enumerate() {
        let counter = i32::from_ne_bytes((1 + i as u32).to_be_bytes());
        *pad = _mm_set_epi32(counter, w2, w1, w0);
    }
    encrypt_regs(keys, pads);
}

/// XORs the keystream `pads[1..]` into `buf`, a whole block at a time.
#[target_feature(enable = "aes,pclmulqdq,ssse3")]
fn xor_keystream(buf: &mut [u8], pads: &[__m128i; FOLD_BLOCKS]) {
    let (full, tail) = buf.as_chunks_mut::<16>();
    for (block, pad) in full.iter_mut().zip(&pads[1..]) {
        // SAFETY: unaligned load and store — `block` is a live 16-byte
        // buffer.
        unsafe {
            let text = _mm_loadu_si128(block.as_ptr().cast::<__m128i>());
            _mm_storeu_si128(
                block.as_mut_ptr().cast::<__m128i>(),
                _mm_xor_si128(text, *pad),
            );
        }
    }
    if !tail.is_empty() {
        let mut pad = [0u8; 16];
        // SAFETY: unaligned store — `pad` is a live 16-byte buffer.
        unsafe { _mm_storeu_si128(pad.as_mut_ptr().cast::<__m128i>(), pads[1 + full.len()]) };
        for (byte, key) in tail.iter_mut().zip(pad) {
            *byte ^= key;
        }
    }
}

/// A partial block, zero-padded and byte-reversed as [`load_be`] leaves a
/// whole one. Assembled in registers: a padded copy in memory would be
/// read back whole through a store-forwarding stall.
#[target_feature(enable = "aes,pclmulqdq,ssse3")]
fn load_be_partial(tail: &[u8]) -> __m128i {
    // The reversed register's high half is the block's bytes 0..8 read
    // big-endian, its low half bytes 8..16.
    let mut halves = [0u64; 2];
    for (i, &byte) in tail.iter().enumerate() {
        halves[i / 8] |= u64::from(byte) << (56 - 8 * (i % 8));
    }
    _mm_set_epi64x(halves[0] as i64, halves[1] as i64)
}

/// The GCM tag over `aad` and `ciphertext`: every block's product with
/// its power of `H` accumulated for one reduction, then masked with
/// `E(J0)`.
#[target_feature(enable = "aes,pclmulqdq,ssse3")]
fn tag(hpow: &[[u8; 16]; FOLD_BLOCKS], aad: &[u8], ciphertext: &[u8], ek_j0: __m128i) -> [u8; 16] {
    let mut remaining = aad.len().div_ceil(16) + ciphertext.len().div_ceil(16) + 1;
    let mut hi = _mm_setzero_si128();
    let mut lo = _mm_setzero_si128();
    let mut absorb = |block: __m128i| {
        remaining -= 1;
        let (h, l) = clmul256(block, load_be(&hpow[remaining]));
        hi = _mm_xor_si128(hi, h);
        lo = _mm_xor_si128(lo, l);
    };
    for section in [aad, ciphertext] {
        let (full, tail) = section.as_chunks::<16>();
        for block in full {
            absorb(load_be(block));
        }
        if !tail.is_empty() {
            absorb(load_be_partial(tail));
        }
    }
    // The length block `be64(aad bits) ‖ be64(text bits)`, byte-reversed
    // as `load_be` would leave it.
    let bits = |bytes: usize| (bytes as u64 * 8) as i64;
    absorb(_mm_set_epi64x(bits(aad.len()), bits(ciphertext.len())));
    let s = u128::from_ne_bytes(store_be(reduce(hi, lo)));
    let mut mask = [0u8; 16];
    // SAFETY: unaligned store — `mask` is a live 16-byte buffer.
    unsafe { _mm_storeu_si128(mask.as_mut_ptr().cast::<__m128i>(), ek_j0) };
    (s ^ u128::from_ne_bytes(mask)).to_ne_bytes()
}
