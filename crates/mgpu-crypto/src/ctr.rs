//! Counter-mode keystream generation — the "one-time pad" of the paper.
//!
//! Counter-mode protection (paper §II-C, Fig. 4) derives a keystream block
//! from a seed that combines the message counter (`MsgCTR`), the sender ID
//! and the receiver ID. XORing that keystream with the plaintext performs
//! encryption; XORing again decrypts. Because the keystream depends only on
//! the seed — never on the data — it can be generated *before* the data
//! arrives, which is exactly the pre-generation opportunity the OTP buffer
//! schemes exploit.

use crate::aes::{Aes128, Block, BLOCK_SIZE};
use crate::backend::Backend;
use crate::pad::PadSeed;

/// Counter-mode keystream generator bound to one AES key.
///
/// # Examples
///
/// ```
/// use mgpu_crypto::ctr::CtrKeystream;
/// use mgpu_crypto::pad::PadSeed;
///
/// let ks = CtrKeystream::new(&[9u8; 16]);
/// let seed = PadSeed::new(1, 2, 42);
/// let pad = ks.pad_64(seed);
///
/// let plaintext = [0xABu8; 64];
/// let mut ct = plaintext;
/// CtrKeystream::xor_in_place(&mut ct, &pad);
/// assert_ne!(ct, plaintext);
/// CtrKeystream::xor_in_place(&mut ct, &pad);
/// assert_eq!(ct, plaintext);
/// ```
#[derive(Debug, Clone)]
pub struct CtrKeystream {
    aes: Aes128,
}

impl CtrKeystream {
    /// Creates a generator for the given session key, using the
    /// process-default backend ([`crate::backend::default_backend`]).
    #[must_use]
    pub fn new(key: &[u8; 16]) -> Self {
        CtrKeystream {
            aes: Aes128::new(key),
        }
    }

    /// Creates a generator on an explicitly chosen backend. Keystream
    /// output is bit-identical across backends.
    ///
    /// # Panics
    ///
    /// Panics if `backend` is not available on this CPU.
    #[must_use]
    pub fn with_backend(key: &[u8; 16], backend: Backend) -> Self {
        CtrKeystream {
            aes: Aes128::with_backend(key, backend),
        }
    }

    /// The implementation family this generator dispatches to.
    #[must_use]
    pub fn backend(&self) -> Backend {
        self.aes.backend()
    }

    /// Generates one 16-byte keystream block for `seed` at block offset
    /// `block_idx` within the message.
    #[must_use]
    pub fn block(&self, seed: PadSeed, block_idx: u32) -> Block {
        self.aes.encrypt_block(seed.to_counter_block(block_idx))
    }

    /// Fills `out` with consecutive keystream blocks for `seed`, starting
    /// at block offset `start_idx`.
    ///
    /// This is the bulk refill path: the whole window is encrypted in one
    /// [`Aes128::encrypt_counters`] call, so pad generation amortizes
    /// per-call overhead across it.
    ///
    /// # Panics
    ///
    /// Panics if the blocks would overflow the 32-bit per-message block
    /// index space.
    pub fn keystream_blocks(&self, seed: PadSeed, start_idx: u32, out: &mut [Block]) {
        assert!(
            (out.len() as u64) <= u64::from(u32::MAX - start_idx) + 1,
            "keystream window overflows the 32-bit block index"
        );
        // The assert above rules out a wrap of the block index, so inc32
        // steps exactly through `start_idx, start_idx + 1, …`.
        self.aes.encrypt_counters(&seed.to_nonce(), start_idx, out);
    }

    /// Generates the 64-byte encryption pad for one cacheline, as used by
    /// the paper's OTP buffer entries ("encryption pad (512 bits)").
    #[must_use]
    pub fn pad_64(&self, seed: PadSeed) -> [u8; 64] {
        let mut blocks = [[0u8; BLOCK_SIZE]; 4];
        self.keystream_blocks(seed, 0, &mut blocks);
        let mut pad = [0u8; 64];
        for (chunk, block) in pad.chunks_exact_mut(BLOCK_SIZE).zip(blocks.iter()) {
            chunk.copy_from_slice(block);
        }
        pad
    }

    /// Generates an arbitrary-length keystream for `seed`.
    #[must_use]
    pub fn keystream(&self, seed: PadSeed, len: usize) -> Vec<u8> {
        let mut blocks = vec![[0u8; BLOCK_SIZE]; len.div_ceil(BLOCK_SIZE)];
        self.keystream_blocks(seed, 0, &mut blocks);
        let mut out: Vec<u8> = blocks.into_iter().flatten().collect();
        out.truncate(len);
        out
    }

    /// XORs `pad` into `data` — the 1-cycle encryption/decryption step of
    /// Fig. 6 once the pad is pre-generated.
    ///
    /// # Panics
    ///
    /// Panics if `pad` is shorter than `data`.
    pub fn xor_in_place(data: &mut [u8], pad: &[u8]) {
        assert!(pad.len() >= data.len(), "pad shorter than data");
        for (d, p) in data.iter_mut().zip(pad.iter()) {
            *d ^= p;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ks() -> CtrKeystream {
        CtrKeystream::new(&[0x11; 16])
    }

    #[test]
    fn pad_is_deterministic_in_seed() {
        let seed = PadSeed::new(1, 2, 100);
        assert_eq!(ks().pad_64(seed), ks().pad_64(seed));
    }

    #[test]
    fn pad_differs_across_counters() {
        let a = ks().pad_64(PadSeed::new(1, 2, 100));
        let b = ks().pad_64(PadSeed::new(1, 2, 101));
        assert_ne!(a, b);
    }

    #[test]
    fn pad_differs_across_direction() {
        // Sender/receiver IDs are part of the seed, so GPU1->GPU2 and
        // GPU2->GPU1 never share pads even at equal counters.
        let a = ks().pad_64(PadSeed::new(1, 2, 5));
        let b = ks().pad_64(PadSeed::new(2, 1, 5));
        assert_ne!(a, b);
    }

    #[test]
    fn keystream_prefix_property() {
        let seed = PadSeed::new(3, 0, 7);
        let long = ks().keystream(seed, 100);
        let short = ks().keystream(seed, 10);
        assert_eq!(&long[..10], &short[..]);
        assert_eq!(long.len(), 100);
    }

    #[test]
    fn keystream_matches_pad64() {
        let seed = PadSeed::new(3, 0, 7);
        assert_eq!(ks().keystream(seed, 64), ks().pad_64(seed).to_vec());
    }

    #[test]
    fn keystream_blocks_matches_per_block_calls() {
        let seed = PadSeed::new(3, 1, 9);
        let mut bulk = [[0u8; BLOCK_SIZE]; 7];
        ks().keystream_blocks(seed, 5, &mut bulk);
        for (i, block) in bulk.iter().enumerate() {
            assert_eq!(*block, ks().block(seed, 5 + i as u32));
        }
    }

    #[test]
    #[should_panic(expected = "32-bit block index")]
    fn keystream_blocks_rejects_index_overflow() {
        let mut blocks = [[0u8; BLOCK_SIZE]; 2];
        ks().keystream_blocks(PadSeed::new(0, 0, 0), u32::MAX, &mut blocks);
    }

    #[test]
    fn xor_roundtrip() {
        let seed = PadSeed::new(1, 4, 9);
        let pad = ks().pad_64(seed);
        let original = *b"0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef";
        let mut data = original;
        CtrKeystream::xor_in_place(&mut data, &pad);
        assert_ne!(data, original);
        CtrKeystream::xor_in_place(&mut data, &pad);
        assert_eq!(data, original);
    }

    #[test]
    #[should_panic(expected = "pad shorter")]
    fn short_pad_panics() {
        let mut data = [0u8; 8];
        CtrKeystream::xor_in_place(&mut data, &[0u8; 4]);
    }

    mod prop_tests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn distinct_seeds_distinct_pads(
                s1 in any::<u16>(), r1 in any::<u16>(), c1 in any::<u64>(),
                s2 in any::<u16>(), r2 in any::<u16>(), c2 in any::<u64>()) {
                prop_assume!((s1, r1, c1) != (s2, r2, c2));
                let ks = CtrKeystream::new(&[7; 16]);
                prop_assert_ne!(
                    ks.pad_64(PadSeed::new(s1, r1, c1)),
                    ks.pad_64(PadSeed::new(s2, r2, c2))
                );
            }

            #[test]
            fn xor_is_involutive(data in proptest::collection::vec(any::<u8>(), 0..64),
                                 ctr in any::<u64>()) {
                let ks = CtrKeystream::new(&[7; 16]);
                let pad = ks.pad_64(PadSeed::new(0, 1, ctr));
                let mut copy = data.clone();
                CtrKeystream::xor_in_place(&mut copy, &pad);
                CtrKeystream::xor_in_place(&mut copy, &pad);
                prop_assert_eq!(copy, data);
            }
        }
    }
}
