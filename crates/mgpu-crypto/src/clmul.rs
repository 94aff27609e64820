//! Hardware GHASH via the `x86_64` carry-less multiply (PCLMULQDQ).
//!
//! This is the [`crate::backend::Backend::HwAesClmul`] implementation of
//! GF(2^128) multiplication for GHASH. A 128×128-bit carry-less product is
//! assembled from four `pclmulqdq` invocations (schoolbook over 64-bit
//! halves), the 256-bit result is shifted left by one to compensate for
//! GCM's bit-reflected operand order, and reduced modulo
//! `x^128 + x^7 + x^2 + x + 1` with Intel's two-phase shift/XOR sequence
//! (the classic gfmul construction from the Intel GCM white paper).
//!
//! The bulk entry point [`fold`] processes up to eight blocks per
//! reduction using a precomputed H-power table: since shift and reduction
//! are linear over XOR, `(((y⊕x₁)H ⊕ x₂)H ⊕ x₃)H ⊕ x₄)H` is computed as
//! `reduce(clmul(y⊕x₁, H⁴) ⊕ clmul(x₂, H³) ⊕ clmul(x₃, H²) ⊕ clmul(x₄, H))`
//! — one reduction amortized over all the group's multiplies. Outputs
//! are bit-for-bit equal to the Shoup-table and bit-loop paths in
//! [`crate::ghash`] (property-tested in `tests/backend_parity.rs`), and
//! the data flow is constant-time: no data- or key-dependent loads or
//! branches, unlike the 4 KB software table.
//!
//! # Safety contract
//!
//! Same two shapes as [`crate::aesni`], documented at each use site:
//! feature-gated calls into `#[target_feature]` functions (sound because
//! the public wrappers assert [`available`] first) and unaligned
//! `_mm_loadu_si128`/`_mm_storeu_si128` on live 16-byte buffers (the `u`
//! variants carry no alignment requirement).

use crate::ghash::FOLD_BLOCKS;
use core::arch::x86_64::{
    __m128i, _mm_clmulepi64_si128, _mm_loadu_si128, _mm_or_si128, _mm_set_epi8, _mm_shuffle_epi8,
    _mm_slli_epi32, _mm_slli_si128, _mm_srli_epi32, _mm_srli_si128, _mm_storeu_si128,
    _mm_xor_si128,
};

/// Runtime check for this module's instruction set: `pclmulqdq` for the
/// multiplies, `ssse3` for the byte-order shuffle.
#[must_use]
pub fn available() -> bool {
    std::arch::is_x86_feature_detected!("pclmulqdq") && std::arch::is_x86_feature_detected!("ssse3")
}

/// Loads a GCM-order (big-endian) block and reverses it into the
/// little-endian layout the clmul math operates in.
#[target_feature(enable = "pclmulqdq,ssse3")]
pub(crate) fn load_be(block: &[u8; 16]) -> __m128i {
    // Reverse all 16 bytes: index i takes byte 15-i.
    let mask = _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
    // SAFETY: unaligned load — `block` is a live 16-byte reference.
    let raw = unsafe { _mm_loadu_si128(block.as_ptr().cast::<__m128i>()) };
    _mm_shuffle_epi8(raw, mask)
}

/// Reverses back to GCM byte order and stores.
#[target_feature(enable = "pclmulqdq,ssse3")]
pub(crate) fn store_be(v: __m128i) -> [u8; 16] {
    let mask = _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
    let swapped = _mm_shuffle_epi8(v, mask);
    let mut out = [0u8; 16];
    // SAFETY: unaligned store — `out` is a live 16-byte buffer.
    unsafe { _mm_storeu_si128(out.as_mut_ptr().cast::<__m128i>(), swapped) };
    out
}

/// 128×128 → 256-bit carry-less product, schoolbook over 64-bit halves:
/// `lo = a0·b0`, `hi = a1·b1`, with the cross terms `a0·b1 ⊕ a1·b0` split
/// across the middle. Returns `(hi, lo)`.
#[target_feature(enable = "pclmulqdq,ssse3")]
pub(crate) fn clmul256(a: __m128i, b: __m128i) -> (__m128i, __m128i) {
    let lo = _mm_clmulepi64_si128::<0x00>(a, b);
    let hi = _mm_clmulepi64_si128::<0x11>(a, b);
    let mid = _mm_xor_si128(
        _mm_clmulepi64_si128::<0x10>(a, b),
        _mm_clmulepi64_si128::<0x01>(a, b),
    );
    (
        _mm_xor_si128(hi, _mm_srli_si128::<8>(mid)),
        _mm_xor_si128(lo, _mm_slli_si128::<8>(mid)),
    )
}

/// Reduces a 256-bit carry-less product `(hi, lo)` to a field element.
///
/// First shifts the whole 256-bit value left by one bit — GCM's operands
/// are bit-reflected, so the plain carry-less product sits one bit low —
/// then applies Intel's two-phase reduction modulo
/// `x^128 + x^7 + x^2 + x + 1` (phase one folds via left shifts by
/// 31/30/25, phase two via right shifts by 1/2/7). Linear over XOR, so
/// several products may be accumulated into `(hi, lo)` before one call.
#[target_feature(enable = "pclmulqdq,ssse3")]
pub(crate) fn reduce(hi: __m128i, lo: __m128i) -> __m128i {
    // 256-bit shift left by 1: per-lane shifts plus carries across the
    // 32-bit lane and 128-bit register boundaries.
    let carry_lo = _mm_srli_epi32::<31>(lo);
    let carry_hi = _mm_srli_epi32::<31>(hi);
    let lo = _mm_or_si128(_mm_slli_epi32::<1>(lo), _mm_slli_si128::<4>(carry_lo));
    let hi = _mm_or_si128(
        _mm_or_si128(_mm_slli_epi32::<1>(hi), _mm_slli_si128::<4>(carry_hi)),
        _mm_srli_si128::<12>(carry_lo),
    );
    // Phase 1: multiply the low half by x^127 + x^126 + x^121 (left
    // shifts by 31, 30, 25) and fold the top 96 bits back in.
    let t = _mm_xor_si128(
        _mm_xor_si128(_mm_slli_epi32::<31>(lo), _mm_slli_epi32::<30>(lo)),
        _mm_slli_epi32::<25>(lo),
    );
    let fold_hi = _mm_srli_si128::<4>(t);
    let lo = _mm_xor_si128(lo, _mm_slli_si128::<12>(t));
    // Phase 2: right shifts by 1, 2, 7 complete the reduction.
    let t2 = _mm_xor_si128(
        _mm_xor_si128(_mm_srli_epi32::<1>(lo), _mm_srli_epi32::<2>(lo)),
        _mm_xor_si128(_mm_srli_epi32::<7>(lo), fold_hi),
    );
    _mm_xor_si128(hi, _mm_xor_si128(lo, t2))
}

/// Single GF(2^128) multiply `x · h` in GCM byte order.
///
/// # Panics
///
/// Panics if the CPU does not support PCLMULQDQ+SSSE3.
#[must_use]
pub fn mul(x: &[u8; 16], h: &[u8; 16]) -> [u8; 16] {
    assert!(available(), "PCLMULQDQ GHASH without CPU support");
    // SAFETY: feature gate — `available()` verified CPU support above.
    unsafe { mul_impl(x, h) }
}

#[target_feature(enable = "pclmulqdq,ssse3")]
fn mul_impl(x: &[u8; 16], h: &[u8; 16]) -> [u8; 16] {
    let (hi, lo) = clmul256(load_be(x), load_be(h));
    store_be(reduce(hi, lo))
}

/// Bulk GHASH fold: absorbs `blocks` into accumulator `y`, up to
/// [`FOLD_BLOCKS`] blocks per reduction.
///
/// `hpow` holds `[H, H², …, H⁸]` in GCM byte order (precomputed by
/// [`crate::ghash::GhashKey`] with the portable field arithmetic). Each
/// group of `n ≤ 8` blocks computes
/// `y ← reduce(clmul(y⊕b₀, Hⁿ) ⊕ clmul(b₁, Hⁿ⁻¹) ⊕ … ⊕ clmul(bₙ₋₁, H))`,
/// so a short message — AAD, ciphertext and length block together — is
/// authenticated with a single reduction. Returns the new `y`.
///
/// # Panics
///
/// Panics if the CPU does not support PCLMULQDQ+SSSE3.
#[must_use]
pub fn fold(y: &[u8; 16], hpow: &[[u8; 16]; FOLD_BLOCKS], blocks: &[[u8; 16]]) -> [u8; 16] {
    assert!(available(), "PCLMULQDQ GHASH without CPU support");
    // SAFETY: feature gate — `available()` verified CPU support above.
    unsafe { fold_impl(y, hpow, blocks) }
}

#[target_feature(enable = "pclmulqdq,ssse3")]
fn fold_impl(y: &[u8; 16], hpow: &[[u8; 16]; FOLD_BLOCKS], blocks: &[[u8; 16]]) -> [u8; 16] {
    let mut acc = load_be(y);
    for group in blocks.chunks(FOLD_BLOCKS) {
        // The shift/reduction are linear over XOR, so the group's products
        // accumulate in 256-bit form and reduce once. Block i of an
        // n-block group is weighted by H^(n-i); the accumulator rides on
        // the first block.
        let n = group.len();
        let (mut hi, mut lo) = clmul256(
            _mm_xor_si128(acc, load_be(&group[0])),
            load_be(&hpow[n - 1]),
        );
        for (block, power) in group[1..].iter().zip(hpow[..n - 1].iter().rev()) {
            let (phi, plo) = clmul256(load_be(block), load_be(power));
            hi = _mm_xor_si128(hi, phi);
            lo = _mm_xor_si128(lo, plo);
        }
        acc = reduce(hi, lo);
    }
    store_be(acc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ghash::Gf128;

    fn soft_mul(x: [u8; 16], h: [u8; 16]) -> [u8; 16] {
        Gf128::from_bytes(x).mul(Gf128::from_bytes(h)).to_bytes()
    }

    fn hpowers(h: [u8; 16]) -> [[u8; 16]; FOLD_BLOCKS] {
        let hf = Gf128::from_bytes(h);
        let mut pow = [[0u8; 16]; FOLD_BLOCKS];
        let mut acc = hf;
        for slot in &mut pow {
            *slot = acc.to_bytes();
            acc = acc.mul(hf);
        }
        pow
    }

    #[test]
    fn single_mul_matches_bit_loop_oracle() {
        if !available() {
            return;
        }
        let cases: [([u8; 16], [u8; 16]); 4] = [
            ([0u8; 16], [0xFF; 16]),
            ([0x80; 16], [0x01; 16]),
            (
                {
                    let mut b = [0u8; 16];
                    b[0] = 0x80; // the field's 1
                    b
                },
                [0x5A; 16],
            ),
            ([0xC3; 16], [0x3C; 16]),
        ];
        for (x, h) in cases {
            assert_eq!(mul(&x, &h), soft_mul(x, h), "x={x:02x?} h={h:02x?}");
        }
        // Pseudo-random sweep via a tiny LCG (deterministic).
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut next_block = || {
            let mut b = [0u8; 16];
            for byte in &mut b {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                *byte = (state >> 56) as u8;
            }
            b
        };
        for _ in 0..64 {
            let x = next_block();
            let h = next_block();
            assert_eq!(mul(&x, &h), soft_mul(x, h));
        }
    }

    #[test]
    fn fold_matches_sequential_horner() {
        if !available() {
            return;
        }
        let h = [0x77u8; 16];
        let pow = hpowers(h);
        for len in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 12, 13, 15, 16, 17, 24, 25] {
            let blocks: Vec<[u8; 16]> = (0..len).map(|i| [(i as u8) * 7 + 1; 16]).collect();
            let y0 = [0x11u8; 16];
            // Reference: one multiply per block with the bit-loop oracle.
            let hf = Gf128::from_bytes(h);
            let mut y = Gf128::from_bytes(y0);
            for b in &blocks {
                y = y.add(Gf128::from_bytes(*b)).mul(hf);
            }
            assert_eq!(fold(&y0, &pow, &blocks), y.to_bytes(), "len={len}");
        }
    }
}
