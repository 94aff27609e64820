//! GHASH — the universal hash of AES-GCM, over GF(2^128).
//!
//! GHASH authenticates data by evaluating a polynomial over GF(2^128) at a
//! secret point `H = AES_K(0^128)`. Because the expensive part (the GF
//! multiplies) depends only on the data and `H`, while the final masking pad
//! depends only on the counter, the MAC can be completed with "only a GHASH
//! computation time" once the authentication pad is pre-generated
//! (paper Fig. 6c).
//!
//! Multiplication by `H` dispatches per key through the [`crate::backend`]
//! layer:
//!
//! * **Software** — Shoup's 8-bit table method: a 256-entry table of
//!   `byte · H` products is built once per key ([`GhashKey`]) and each
//!   block multiply becomes 16 table lookups plus 16 byte-shifts, instead
//!   of the 128-iteration bit loop of [`Gf128::mul`]. The bit loop is kept
//!   as the reference oracle and the two are checked for equivalence in
//!   tests.
//! * **Hardware** — `x86_64` PCLMULQDQ ([`crate::clmul`]): one carry-less
//!   multiply per block, and for bulk data an aggregated reduction over
//!   up to [`FOLD_BLOCKS`] blocks at a time from the precomputed
//!   `H¹..H⁸` power table ([`GhashKey::fold_blocks`], which
//!   [`Ghash::update`] and AES-GCM's streaming path feed every full-block
//!   run through).
//!   Bit-for-bit equal to the software path and constant-time, unlike the
//!   data-indexed Shoup table.

use crate::backend::{self, Backend};
use std::sync::Arc;

/// Blocks the hardware fold absorbs per reduction, and so the length of
/// the `H`-power table: `H¹..H⁸`.
pub const FOLD_BLOCKS: usize = 8;

/// An element of GF(2^128) in GCM's bit-reflected representation.
///
/// # Examples
///
/// ```
/// use mgpu_crypto::ghash::Gf128;
///
/// let a = Gf128::from_bytes([3u8; 16]);
/// let b = Gf128::from_bytes([5u8; 16]);
/// // Multiplication is commutative.
/// assert_eq!(a.mul(b), b.mul(a));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Gf128 {
    hi: u64,
    lo: u64,
}

impl Gf128 {
    /// The additive identity.
    pub const ZERO: Gf128 = Gf128 { hi: 0, lo: 0 };

    /// The multiplicative identity (GCM bit order: MSB of byte 0 set).
    pub const ONE: Gf128 = Gf128 { hi: 1 << 63, lo: 0 };

    /// Interprets 16 big-endian bytes as a field element.
    #[must_use]
    pub fn from_bytes(bytes: [u8; 16]) -> Self {
        Gf128 {
            hi: u64::from_be_bytes(bytes[0..8].try_into().expect("8 bytes")),
            lo: u64::from_be_bytes(bytes[8..16].try_into().expect("8 bytes")),
        }
    }

    /// Serializes back to 16 big-endian bytes.
    #[must_use]
    pub fn to_bytes(self) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[0..8].copy_from_slice(&self.hi.to_be_bytes());
        out[8..16].copy_from_slice(&self.lo.to_be_bytes());
        out
    }

    /// Field addition = XOR.
    // Named like the mathematical operation on purpose; implementing
    // `std::ops` would invite accidental use in non-field contexts.
    #[allow(clippy::should_implement_trait)]
    #[must_use]
    pub fn add(self, rhs: Gf128) -> Gf128 {
        Gf128 {
            hi: self.hi ^ rhs.hi,
            lo: self.lo ^ rhs.lo,
        }
    }

    /// Field multiplication per NIST SP 800-38D Algorithm 1.
    ///
    /// Bit i of the operand (counting from the MSB of byte 0, GCM order)
    /// selects whether the running product accumulates `V`, which is doubled
    /// (shifted right with conditional reduction by `R = 0xE1 << 120`)
    /// each step.
    #[allow(clippy::should_implement_trait)]
    #[must_use]
    pub fn mul(self, rhs: Gf128) -> Gf128 {
        let mut z = Gf128::ZERO;
        let mut v = rhs;
        for i in 0..128 {
            let xi = if i < 64 {
                (self.hi >> (63 - i)) & 1
            } else {
                (self.lo >> (127 - i)) & 1
            };
            if xi == 1 {
                z = z.add(v);
            }
            // v = v * x (right shift in GCM bit order), reduce if the bit
            // shifted out was set.
            let lsb = v.lo & 1;
            v.lo = (v.lo >> 1) | (v.hi << 63);
            v.hi >>= 1;
            if lsb == 1 {
                v.hi ^= 0xE1u64 << 56;
            }
        }
        z
    }

    /// Multiplies by `x` (one GCM right-shift with reduction) — the
    /// doubling step used to build the Shoup table.
    #[must_use]
    fn mul_x(self) -> Gf128 {
        let lsb = self.lo & 1;
        let mut v = Gf128 {
            hi: self.hi >> 1,
            lo: (self.lo >> 1) | (self.hi << 63),
        };
        if lsb == 1 {
            v.hi ^= 0xE1u64 << 56;
        }
        v
    }
}

/// Reduction constants for a right-shift by 8 (multiplication by `x^8`).
///
/// Shifting an element right by one bit reduces by XORing `0xE1 << 120`
/// when the dropped bit was set; over 8 shifts the dropped byte `b`
/// contributes, for each set bit `j`, that constant shifted right `7 - j`
/// more times. All contributions land in the top 16 bits of `hi`, so the
/// whole shift-by-8 reduction is one table lookup.
const fn build_reduce8() -> [u64; 256] {
    let mut table = [0u64; 256];
    let mut b = 0usize;
    while b < 256 {
        let mut acc = 0u64;
        let mut j = 0;
        while j < 8 {
            if (b >> j) & 1 == 1 {
                acc ^= 0xE1u64 << (49 + j);
            }
            j += 1;
        }
        table[b] = acc;
        b += 1;
    }
    table
}

const REDUCE8: [u64; 256] = build_reduce8();

/// A GHASH key: `H` expanded into Shoup's 256-entry product table.
///
/// Entry `b` holds `B(b) · H`, where `B(b)` is the degree-<8 polynomial a
/// byte denotes in GCM bit order (MSB = lowest-degree coefficient). The
/// table costs 4 KB and is built once per key; cloning shares it.
///
/// # Examples
///
/// ```
/// use mgpu_crypto::ghash::{Gf128, GhashKey};
///
/// let h = [0x25u8; 16];
/// let key = GhashKey::new(h);
/// let x = Gf128::from_bytes([7u8; 16]);
/// // The table multiply agrees with the bit-by-bit reference.
/// assert_eq!(key.mul(x), x.mul(Gf128::from_bytes(h)));
/// ```
#[derive(Debug, Clone)]
pub struct GhashKey {
    table: Arc<[Gf128; 256]>,
    /// `[H, H², …, H⁸]` in GCM byte order, for the hardware aggregated
    /// fold. Computed with the portable bit-loop multiply so the table
    /// itself never depends on the backend.
    hpow: [[u8; 16]; FOLD_BLOCKS],
    /// Implementation family, snapshotted from the process default at
    /// construction.
    backend: Backend,
}

impl GhashKey {
    /// Builds the key tables for hash subkey `h` (= `AES_K(0)` in GCM),
    /// using the process-default backend ([`backend::default_backend`]).
    #[must_use]
    pub fn new(h: [u8; 16]) -> Self {
        Self::with_backend(h, backend::default_backend())
    }

    /// Builds the key tables for an explicitly chosen backend. Both
    /// backends produce bit-identical GHASH output; only the instructions
    /// differ.
    ///
    /// # Panics
    ///
    /// Panics if `backend` is not available on this CPU.
    #[must_use]
    pub fn with_backend(h: [u8; 16], backend: Backend) -> Self {
        assert!(
            backend.is_available(),
            "backend {} is not available on this host",
            backend.name()
        );
        let hf = Gf128::from_bytes(h);
        let mut hpow = [[0u8; 16]; FOLD_BLOCKS];
        let mut acc = hf;
        for slot in &mut hpow {
            *slot = acc.to_bytes();
            acc = acc.mul(hf);
        }
        let h = hf;
        let mut table = [Gf128::ZERO; 256];
        // Single-bit bytes: 0x80 denotes x^0, 0x40 denotes x^1, ... 0x01
        // denotes x^7. Fill them by repeated doubling of H.
        let mut v = h;
        let mut bit = 0x80usize;
        while bit > 0 {
            table[bit] = v;
            v = v.mul_x();
            bit >>= 1;
        }
        // Composite bytes by linearity: b = p | q with p the highest bit.
        let mut p = 2usize;
        while p < 256 {
            for q in 1..p {
                table[p | q] = table[p].add(table[q]);
            }
            p <<= 1;
        }
        GhashKey {
            table: Arc::new(table),
            hpow,
            backend,
        }
    }

    /// The implementation family this key dispatches to.
    #[must_use]
    pub fn backend(&self) -> Backend {
        self.backend
    }

    /// `[H, H², …, H⁸]` in GCM byte order, for the fused AES-GCM kernel.
    #[cfg(target_arch = "x86_64")]
    pub(crate) fn powers(&self) -> &[[u8; 16]; FOLD_BLOCKS] {
        &self.hpow
    }

    /// Multiplies `x · H`, dispatching to the backend chosen at key
    /// construction.
    #[must_use]
    pub fn mul(&self, x: Gf128) -> Gf128 {
        match self.backend {
            Backend::Soft => self.mul_soft(x),
            #[cfg(target_arch = "x86_64")]
            Backend::HwAesClmul => {
                Gf128::from_bytes(crate::clmul::mul(&x.to_bytes(), &self.hpow[0]))
            }
            #[cfg(not(target_arch = "x86_64"))]
            Backend::HwAesClmul => unreachable!("hw backend unavailable off x86_64"),
        }
    }

    /// The Shoup-table multiply (software backend): Horner over the 16
    /// bytes of `x`, highest byte index first, shifting by `x^8` between
    /// steps.
    #[must_use]
    fn mul_soft(&self, x: Gf128) -> Gf128 {
        let bytes = x.to_bytes();
        let mut z = Gf128::ZERO;
        for &b in bytes.iter().rev() {
            // z = z * x^8, reducing the dropped byte in one lookup.
            let dropped = (z.lo & 0xff) as usize;
            z.lo = (z.lo >> 8) | (z.hi << 56);
            z.hi = (z.hi >> 8) ^ REDUCE8[dropped];
            z = z.add(self.table[b as usize]);
        }
        z
    }

    /// Absorbs a run of full blocks into accumulator `y`:
    /// `y ← (…((y ⊕ b₀)·H ⊕ b₁)·H … ⊕ bₙ₋₁)·H`.
    ///
    /// On the hardware backend this is the aggregated-reduction fold over
    /// the `H¹..H⁸` power table, one reduction per [`FOLD_BLOCKS`] blocks —
    /// the GHASH bulk fast path; on the software backend it is the
    /// sequential Horner loop.
    #[must_use]
    pub fn fold_blocks(&self, y: Gf128, blocks: &[[u8; 16]]) -> Gf128 {
        match self.backend {
            Backend::Soft => blocks.iter().fold(y, |acc, block| {
                self.mul_soft(acc.add(Gf128::from_bytes(*block)))
            }),
            #[cfg(target_arch = "x86_64")]
            Backend::HwAesClmul => {
                Gf128::from_bytes(crate::clmul::fold(&y.to_bytes(), &self.hpow, blocks))
            }
            #[cfg(not(target_arch = "x86_64"))]
            Backend::HwAesClmul => unreachable!("hw backend unavailable off x86_64"),
        }
    }
}

/// Streaming GHASH state keyed by `H`.
///
/// # Examples
///
/// ```
/// use mgpu_crypto::ghash::Ghash;
///
/// let mut g = Ghash::new([0x25u8; 16]);
/// g.update(b"some data to authenticate");
/// let tag = g.finalize(25, 0);
/// assert_eq!(tag.len(), 16);
/// ```
#[derive(Debug, Clone)]
pub struct Ghash {
    key: GhashKey,
    y: Gf128,
    /// Pending partial block. Never exceeds 15 bytes: full blocks are
    /// absorbed straight from the input slice, so hashing allocates
    /// nothing.
    buf: [u8; 16],
    buf_len: usize,
}

impl Ghash {
    /// Creates a GHASH instance with hash subkey `h` (= `AES_K(0)` in GCM),
    /// building the key's product table. Callers hashing many messages
    /// under one key should build a [`GhashKey`] once and use
    /// [`Ghash::with_key`] instead.
    #[must_use]
    pub fn new(h: [u8; 16]) -> Self {
        Self::with_key(GhashKey::new(h))
    }

    /// Creates a GHASH instance from an already-expanded key (cheap: the
    /// table is shared, not rebuilt).
    #[must_use]
    pub fn with_key(key: GhashKey) -> Self {
        Ghash {
            key,
            y: Gf128::ZERO,
            buf: [0u8; 16],
            buf_len: 0,
        }
    }

    /// Absorbs bytes; data is processed in 16-byte blocks, zero-padded at
    /// block boundaries internally.
    pub fn update(&mut self, data: &[u8]) {
        let mut data = data;
        if self.buf_len > 0 {
            let take = (16 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 16 {
                let block = self.buf;
                self.absorb_block(block);
                self.buf_len = 0;
            }
        }
        // Feed the aligned full-block region to the key's bulk fold in one
        // call — on the hardware backend that is the aggregated PCLMULQDQ
        // path.
        let (blocks, rest) = data.as_chunks::<16>();
        self.y = self.key.fold_blocks(self.y, blocks);
        self.buf[..rest.len()].copy_from_slice(rest);
        self.buf_len = rest.len();
    }

    /// Pads the pending partial block with zeros and absorbs it, aligning
    /// the state to a block boundary (used between the AAD and ciphertext
    /// sections of GCM).
    pub fn pad_to_block(&mut self) {
        if self.buf_len > 0 {
            let mut block = [0u8; 16];
            block[..self.buf_len].copy_from_slice(&self.buf[..self.buf_len]);
            self.absorb_block(block);
            self.buf_len = 0;
        }
    }

    /// Finishes the hash with the GCM length block:
    /// `len(AAD) || len(ciphertext)` in bits.
    #[must_use]
    pub fn finalize(mut self, aad_len_bytes: u64, ct_len_bytes: u64) -> [u8; 16] {
        self.pad_to_block();
        let mut len_block = [0u8; 16];
        len_block[0..8].copy_from_slice(&(aad_len_bytes * 8).to_be_bytes());
        len_block[8..16].copy_from_slice(&(ct_len_bytes * 8).to_be_bytes());
        self.absorb_block(len_block);
        self.y.to_bytes()
    }

    fn absorb_block(&mut self, block: [u8; 16]) {
        self.y = self.key.mul(self.y.add(Gf128::from_bytes(block)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_axioms_hold_on_samples() {
        let a = Gf128::from_bytes([0x12; 16]);
        let b = Gf128::from_bytes([0x34; 16]);
        let c = Gf128::from_bytes([0x56; 16]);
        // Commutativity.
        assert_eq!(a.mul(b), b.mul(a));
        // Associativity.
        assert_eq!(a.mul(b).mul(c), a.mul(b.mul(c)));
        // Distributivity over XOR.
        assert_eq!(a.mul(b.add(c)), a.mul(b).add(a.mul(c)));
        // Identities.
        assert_eq!(a.mul(Gf128::ONE), a);
        assert_eq!(a.mul(Gf128::ZERO), Gf128::ZERO);
        assert_eq!(a.add(a), Gf128::ZERO);
    }

    #[test]
    fn bytes_roundtrip() {
        let mut raw = [0u8; 16];
        for (i, b) in raw.iter_mut().enumerate() {
            *b = i as u8 * 17;
        }
        assert_eq!(Gf128::from_bytes(raw).to_bytes(), raw);
    }

    #[test]
    fn ghash_zero_data_is_zero() {
        // GHASH of nothing (no AAD, no CT) is the length block times H,
        // with both lengths zero the length block is zero, so the result
        // stays zero regardless of H.
        let g = Ghash::new([0xAB; 16]);
        assert_eq!(g.finalize(0, 0), [0u8; 16]);
    }

    #[test]
    fn ghash_incremental_equals_oneshot() {
        let h = [0x77; 16];
        let data = b"The quick brown fox jumps over the lazy dog";
        let mut one = Ghash::new(h);
        one.update(data);
        let mut two = Ghash::new(h);
        two.update(&data[..13]);
        two.update(&data[13..]);
        assert_eq!(
            one.finalize(0, data.len() as u64),
            two.finalize(0, data.len() as u64)
        );
    }

    #[test]
    fn ghash_is_sensitive_to_every_byte() {
        let h = [0x77; 16];
        let base = [0u8; 32];
        let mut g0 = Ghash::new(h);
        g0.update(&base);
        let t0 = g0.finalize(0, 32);
        for i in 0..32 {
            let mut tweaked = base;
            tweaked[i] ^= 1;
            let mut g = Ghash::new(h);
            g.update(&tweaked);
            assert_ne!(g.finalize(0, 32), t0, "flip at byte {i} undetected");
        }
    }

    #[test]
    fn nist_gcm_ghash_vector() {
        // From NIST GCM test case 2 internals: H = AES_K(0) for K = 0^128 is
        // 66e94bd4ef8a2c3b884cfa59ca342b2e. GHASH(H, {}, C) with
        // C = 0388dace60b6a392f328c2b971b2fe78 equals
        // f38cbb1ad69223dcc3457ae5b6b0f885.
        fn hex16(s: &str) -> [u8; 16] {
            let mut out = [0u8; 16];
            for i in 0..16 {
                out[i] = u8::from_str_radix(&s[2 * i..2 * i + 2], 16).unwrap();
            }
            out
        }
        let h = hex16("66e94bd4ef8a2c3b884cfa59ca342b2e");
        let c = hex16("0388dace60b6a392f328c2b971b2fe78");
        let mut g = Ghash::new(h);
        g.update(&c);
        assert_eq!(g.finalize(0, 16), hex16("f38cbb1ad69223dcc3457ae5b6b0f885"));
    }

    #[test]
    fn table_mul_matches_reference_on_edge_cases() {
        for h in [[0u8; 16], [0xFF; 16], {
            let mut b = [0u8; 16];
            b[0] = 0x80; // the field's 1
            b
        }] {
            let key = GhashKey::new(h);
            let hf = Gf128::from_bytes(h);
            for x in [Gf128::ZERO, Gf128::ONE, Gf128::from_bytes([1; 16]), hf] {
                assert_eq!(key.mul(x), x.mul(hf), "h={h:02x?}");
            }
        }
    }

    #[test]
    fn with_key_shares_the_table() {
        let key = GhashKey::new([0x5A; 16]);
        let data = b"shared-table ghash input, more than one block long....";
        let mut a = Ghash::with_key(key.clone());
        a.update(data);
        let mut b = Ghash::new([0x5A; 16]);
        b.update(data);
        assert_eq!(
            a.finalize(0, data.len() as u64),
            b.finalize(0, data.len() as u64)
        );
    }

    mod prop_tests {
        use super::*;
        use proptest::prelude::*;

        fn gf() -> impl Strategy<Value = Gf128> {
            proptest::array::uniform16(any::<u8>()).prop_map(Gf128::from_bytes)
        }

        proptest! {
            #[test]
            fn mul_commutes(a in gf(), b in gf()) {
                prop_assert_eq!(a.mul(b), b.mul(a));
            }

            #[test]
            fn table_mul_matches_bitwise_mul(h in proptest::array::uniform16(any::<u8>()),
                                             x in gf()) {
                // Shoup's table method against SP 800-38D Algorithm 1.
                let key = GhashKey::new(h);
                prop_assert_eq!(key.mul(x), x.mul(Gf128::from_bytes(h)));
            }

            #[test]
            fn mul_distributes(a in gf(), b in gf(), c in gf()) {
                prop_assert_eq!(a.mul(b.add(c)), a.mul(b).add(a.mul(c)));
            }

            #[test]
            fn one_is_identity(a in gf()) {
                prop_assert_eq!(a.mul(Gf128::ONE), a);
                prop_assert_eq!(Gf128::ONE.mul(a), a);
            }

            #[test]
            fn ghash_linear_in_xor(h in proptest::array::uniform16(any::<u8>()),
                                   a in proptest::collection::vec(any::<u8>(), 16),
                                   b in proptest::collection::vec(any::<u8>(), 16)) {
                // GHASH over a single block is H*(block [+] ...); over XORed
                // inputs the tags XOR (with identical length blocks the
                // length contribution cancels).
                let tag = |data: &[u8]| {
                    let mut g = Ghash::new(h);
                    g.update(data);
                    Gf128::from_bytes(g.finalize(0, data.len() as u64))
                };
                let xored: Vec<u8> = a.iter().zip(&b).map(|(x, y)| x ^ y).collect();
                let zero = vec![0u8; 16];
                let lhs = tag(&a).add(tag(&b));
                let rhs = tag(&xored).add(tag(&zero));
                prop_assert_eq!(lhs, rhs);
            }
        }
    }
}
