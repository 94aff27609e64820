//! AES-GCM authenticated encryption (NIST SP 800-38D), composed from the
//! in-repo AES-128, CTR and GHASH primitives.
//!
//! The secure channel in `mgpu-secure` uses this for end-to-end functional
//! validation: real ciphertexts, real tags, real tamper detection.
//!
//! Every entry point is a thin wrapper over one in-place core
//! ([`AesGcm::seal_in_place_detached`], [`AesGcm::open_in_place_detached`],
//! [`AesGcm::decrypt_in_place_and_tag`]), and neither of its paths
//! allocates. The message length selects the path. When the AAD, the
//! ciphertext and the length block fit in
//! [`FOLD_BLOCKS`](crate::ghash::FOLD_BLOCKS) GHASH blocks —
//! the protocol's 64 B block under its 12 B header takes 6 — the hardware
//! backend runs the fused kernel in `aesni_gcm`: one bulk AES call yields
//! `E(J0)` together with the whole keystream, and one GHASH fold with a
//! single reduction authenticates the message. Every other message, and
//! every message on the software backend, streams: the keystream in
//! 16-block chunks, GHASH section by section.

use crate::aes::Aes128;
use crate::backend::{self, Backend};
use crate::ghash::{Gf128, GhashKey};

/// Authentication tag length in bytes (full 128-bit tags).
pub const TAG_LEN: usize = 16;

/// AES-GCM authenticated encryption bound to one 128-bit key.
///
/// # Examples
///
/// ```
/// use mgpu_crypto::gcm::AesGcm;
///
/// let gcm = AesGcm::new(&[1u8; 16]);
/// let sealed = gcm.seal(&[2u8; 12], b"aad", b"hello");
/// assert_eq!(gcm.open(&[2u8; 12], b"aad", &sealed).unwrap(), b"hello");
/// assert!(gcm.open(&[2u8; 12], b"tampered-aad", &sealed).is_err());
/// ```
#[derive(Debug, Clone)]
pub struct AesGcm {
    aes: Aes128,
    /// `H = AES_K(0)` expanded into the backend's key tables (Shoup
    /// product table and `H`-power table), built once per key and
    /// borrowed by every tag computation.
    h: GhashKey,
}

/// Authentication failure returned by [`AesGcm::open`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TagMismatch;

impl core::fmt::Display for TagMismatch {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("GCM authentication tag mismatch")
    }
}

impl std::error::Error for TagMismatch {}

/// What the in-place core does with a message: the three operations
/// every public entry point reduces to.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Op<'t> {
    /// Encrypt, then tag the ciphertext.
    Seal,
    /// Tag the ciphertext, then decrypt only if the tag matches this
    /// (possibly truncated) one.
    Open(&'t [u8]),
    /// Tag the ciphertext and decrypt unconditionally (lazy verification).
    Decrypt,
}

/// Whether AAD, text and length block fit in one GHASH fold.
#[cfg(target_arch = "x86_64")]
pub(crate) fn fits_one_fold(aad_len: usize, len: usize) -> bool {
    aad_len.div_ceil(16) + len.div_ceil(16) < crate::ghash::FOLD_BLOCKS
}

/// Checks a detached tag of 8 to 16 bytes against the prefix of the
/// computed one, without an early exit on the first differing byte.
pub(crate) fn check_tag(expected: &[u8], computed: &[u8; 16]) -> Result<(), TagMismatch> {
    if expected.len() < 8 || expected.len() > TAG_LEN {
        return Err(TagMismatch);
    }
    let diff = expected
        .iter()
        .zip(computed)
        .fold(0u8, |acc, (a, b)| acc | (a ^ b));
    if diff == 0 {
        Ok(())
    } else {
        Err(TagMismatch)
    }
}

/// XORs `keystream` into `buf`, a whole 16-byte block at a time.
fn xor_keystream(buf: &mut [u8], keystream: &[[u8; 16]]) {
    let (full, tail) = buf.as_chunks_mut::<16>();
    for (b, k) in full.iter_mut().zip(keystream) {
        *b = (u128::from_ne_bytes(*b) ^ u128::from_ne_bytes(*k)).to_ne_bytes();
    }
    if let Some(k) = keystream.get(full.len()) {
        for (b, k) in tail.iter_mut().zip(k) {
            *b ^= k;
        }
    }
}

impl AesGcm {
    /// Creates a GCM instance, deriving the hash subkey `H = AES_K(0)`,
    /// using the process-default backend ([`backend::default_backend`]).
    #[must_use]
    pub fn new(key: &[u8; 16]) -> Self {
        Self::with_backend(key, backend::default_backend())
    }

    /// Creates a GCM instance on an explicitly chosen backend (both the
    /// AES and GHASH halves). Output is bit-identical across backends.
    ///
    /// # Panics
    ///
    /// Panics if `backend` is not available on this CPU.
    #[must_use]
    pub fn with_backend(key: &[u8; 16], backend: Backend) -> Self {
        let aes = Aes128::with_backend(key, backend);
        let h = GhashKey::with_backend(aes.encrypt_block([0u8; 16]), backend);
        AesGcm { aes, h }
    }

    /// The implementation family this instance dispatches to.
    #[must_use]
    pub fn backend(&self) -> Backend {
        self.aes.backend()
    }

    /// Counter blocks encrypted per bulk call on the streaming path; 16
    /// blocks (256 B) keep the scratch on the stack.
    const CTR_CHUNK: usize = 16;

    /// The in-place core: runs `op` on `buf` and returns the tag over its
    /// ciphertext.
    fn run(
        &self,
        nonce: &[u8; 12],
        aad: &[u8],
        buf: &mut [u8],
        op: Op<'_>,
    ) -> Result<[u8; 16], TagMismatch> {
        #[cfg(target_arch = "x86_64")]
        if self.backend() == Backend::HwAesClmul && fits_one_fold(aad.len(), buf.len()) {
            let (round_keys, hpow) = (self.aes.round_keys(), self.h.powers());
            return crate::aesni_gcm::short_message(round_keys, hpow, nonce, aad, buf, op);
        }
        if let Op::Seal = op {
            self.apply_keystream(nonce, buf);
        }
        let tag = self.tag(nonce, aad, buf);
        match op {
            Op::Seal => {}
            Op::Open(expected) => {
                check_tag(expected, &tag)?;
                self.apply_keystream(nonce, buf);
            }
            Op::Decrypt => self.apply_keystream(nonce, buf),
        }
        Ok(tag)
    }

    /// CTR-mode encrypt/decrypt of `buf` in place from counter `J0+1`,
    /// streamed through a stack chunk of counter blocks.
    fn apply_keystream(&self, nonce: &[u8; 12], buf: &mut [u8]) {
        let mut chunk = [[0u8; 16]; Self::CTR_CHUNK];
        for (i, piece) in buf.chunks_mut(16 * Self::CTR_CHUNK).enumerate() {
            // J0 = nonce ‖ be32(1) for a 96-bit nonce (SP 800-38D §7.1), so
            // the keystream starts at 2; the cast wraps exactly as inc32.
            let first = (2 + Self::CTR_CHUNK * i) as u32;
            let nblocks = piece.len().div_ceil(16);
            self.aes
                .encrypt_counters(nonce, first, &mut chunk[..nblocks]);
            xor_keystream(piece, &chunk[..nblocks]);
        }
    }

    /// Absorbs `data` into `y`, zero-padding its last partial block.
    fn fold_padded(&self, y: Gf128, data: &[u8]) -> Gf128 {
        let (full, tail) = data.as_chunks::<16>();
        let y = self.h.fold_blocks(y, full);
        if tail.is_empty() {
            return y;
        }
        let mut last = [0u8; 16];
        last[..tail.len()].copy_from_slice(tail);
        self.h.fold_blocks(y, &[last])
    }

    /// Computes the GCM tag over `aad` and `ciphertext`, GHASH section by
    /// section masked with `E_K(J0)`.
    fn tag(&self, nonce: &[u8; 12], aad: &[u8], ciphertext: &[u8]) -> [u8; 16] {
        let mut len_block = [0u8; 16];
        len_block[..8].copy_from_slice(&(aad.len() as u64 * 8).to_be_bytes());
        len_block[8..].copy_from_slice(&(ciphertext.len() as u64 * 8).to_be_bytes());
        let y = self.fold_padded(Gf128::ZERO, aad);
        let y = self.fold_padded(y, ciphertext);
        let s = self.h.fold_blocks(y, &[len_block]);
        let mut ek_j0 = [[0u8; 16]];
        self.aes.encrypt_counters(nonce, 1, &mut ek_j0);
        (u128::from_ne_bytes(s.to_bytes()) ^ u128::from_ne_bytes(ek_j0[0])).to_ne_bytes()
    }

    /// Encrypts `buffer` in place and returns the 16-byte tag — the core
    /// every seal form wraps. The protocol layer truncates the tag to its
    /// 8 B `MsgMAC`; GCM explicitly supports 64-bit tags
    /// (SP 800-38D §5.2.1.2).
    ///
    /// `aad` is authenticated but not encrypted — the protocol uses it for
    /// message headers (sender ID, counter) that must travel in the clear.
    pub fn seal_in_place_detached(
        &self,
        nonce: &[u8; 12],
        aad: &[u8],
        buffer: &mut [u8],
    ) -> [u8; 16] {
        self.run(nonce, aad, buffer, Op::Seal)
            .expect("sealing never fails")
    }

    /// Verifies the detached (possibly truncated) tag over the ciphertext
    /// in `buffer`, then decrypts it in place. On failure `buffer` is left
    /// untouched.
    ///
    /// # Errors
    ///
    /// Returns [`TagMismatch`] if `tag` is shorter than 8 bytes, longer
    /// than 16, or does not match the computed tag's prefix.
    pub fn open_in_place_detached(
        &self,
        nonce: &[u8; 12],
        aad: &[u8],
        buffer: &mut [u8],
        tag: &[u8],
    ) -> Result<(), TagMismatch> {
        self.run(nonce, aad, buffer, Op::Open(tag)).map(drop)
    }

    /// Decrypts `buffer` in place *unconditionally* and returns the tag
    /// computed over its ciphertext, without verifying anything.
    ///
    /// This is the primitive behind the paper's *lazy verification*: the
    /// receiver forwards decrypted data immediately and checks the
    /// (batched) MAC when the whole batch has arrived. Callers MUST
    /// eventually compare the returned tag against an authentic one.
    pub fn decrypt_in_place_and_tag(
        &self,
        nonce: &[u8; 12],
        aad: &[u8],
        buffer: &mut [u8],
    ) -> [u8; 16] {
        self.run(nonce, aad, buffer, Op::Decrypt)
            .expect("lazy decryption never fails")
    }

    /// Encrypts `plaintext` and appends the 16-byte tag.
    #[must_use]
    pub fn seal(&self, nonce: &[u8; 12], aad: &[u8], plaintext: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(plaintext.len() + TAG_LEN);
        out.extend_from_slice(plaintext);
        let tag = self.seal_in_place_detached(nonce, aad, &mut out);
        out.extend_from_slice(&tag);
        out
    }

    /// Encrypts `plaintext` returning ciphertext and the 16-byte tag
    /// separately.
    #[must_use]
    pub fn seal_detached(
        &self,
        nonce: &[u8; 12],
        aad: &[u8],
        plaintext: &[u8],
    ) -> (Vec<u8>, [u8; 16]) {
        let mut ciphertext = plaintext.to_vec();
        let tag = self.seal_in_place_detached(nonce, aad, &mut ciphertext);
        (ciphertext, tag)
    }

    /// Buffer-reusing form of [`AesGcm::seal_detached`]: encrypts
    /// `plaintext` into `ciphertext_out` (cleared first) and returns the
    /// 16-byte tag. Performs no heap allocation once `ciphertext_out` has
    /// capacity.
    pub fn seal_detached_into(
        &self,
        nonce: &[u8; 12],
        aad: &[u8],
        plaintext: &[u8],
        ciphertext_out: &mut Vec<u8>,
    ) -> [u8; 16] {
        ciphertext_out.clear();
        ciphertext_out.extend_from_slice(plaintext);
        self.seal_in_place_detached(nonce, aad, ciphertext_out)
    }

    /// Buffer-reusing form of [`AesGcm::decrypt_and_tag`]: decrypts
    /// `ciphertext` into `plaintext_out` (cleared first) *unconditionally*
    /// and returns the computed tag. Same lazy-verification contract as
    /// [`AesGcm::decrypt_in_place_and_tag`].
    pub fn decrypt_and_tag_into(
        &self,
        nonce: &[u8; 12],
        aad: &[u8],
        ciphertext: &[u8],
        plaintext_out: &mut Vec<u8>,
    ) -> [u8; 16] {
        plaintext_out.clear();
        plaintext_out.extend_from_slice(ciphertext);
        self.decrypt_in_place_and_tag(nonce, aad, plaintext_out)
    }

    /// Buffer-reusing form of [`AesGcm::open_detached`]: verifies the
    /// detached (possibly truncated) tag, then decrypts into
    /// `plaintext_out` (cleared first; untouched on verification failure).
    ///
    /// # Errors
    ///
    /// Returns [`TagMismatch`] under the same conditions as
    /// [`AesGcm::open_in_place_detached`].
    pub fn open_detached_into(
        &self,
        nonce: &[u8; 12],
        aad: &[u8],
        ciphertext: &[u8],
        tag: &[u8],
        plaintext_out: &mut Vec<u8>,
    ) -> Result<(), TagMismatch> {
        check_tag(tag, &self.tag(nonce, aad, ciphertext))?;
        plaintext_out.clear();
        plaintext_out.extend_from_slice(ciphertext);
        self.apply_keystream(nonce, plaintext_out);
        Ok(())
    }

    /// Decrypts `ciphertext` *unconditionally* and returns the plaintext
    /// together with the computed tag — the allocating form of
    /// [`AesGcm::decrypt_in_place_and_tag`], with the same lazy-verification
    /// contract.
    #[must_use]
    pub fn decrypt_and_tag(
        &self,
        nonce: &[u8; 12],
        aad: &[u8],
        ciphertext: &[u8],
    ) -> (Vec<u8>, [u8; 16]) {
        let mut plaintext = ciphertext.to_vec();
        let tag = self.decrypt_in_place_and_tag(nonce, aad, &mut plaintext);
        (plaintext, tag)
    }

    /// Verifies a detached (possibly truncated) tag and decrypts.
    ///
    /// # Errors
    ///
    /// Returns [`TagMismatch`] under the same conditions as
    /// [`AesGcm::open_in_place_detached`].
    pub fn open_detached(
        &self,
        nonce: &[u8; 12],
        aad: &[u8],
        ciphertext: &[u8],
        tag: &[u8],
    ) -> Result<Vec<u8>, TagMismatch> {
        let mut plaintext = ciphertext.to_vec();
        self.open_in_place_detached(nonce, aad, &mut plaintext, tag)?;
        Ok(plaintext)
    }

    /// Verifies and decrypts a sealed message.
    ///
    /// # Errors
    ///
    /// Returns [`TagMismatch`] if the ciphertext is too short to contain a
    /// tag, or if the tag does not verify (tamper, wrong nonce, wrong AAD).
    pub fn open(
        &self,
        nonce: &[u8; 12],
        aad: &[u8],
        sealed: &[u8],
    ) -> Result<Vec<u8>, TagMismatch> {
        let Some(split) = sealed.len().checked_sub(TAG_LEN) else {
            return Err(TagMismatch);
        };
        let (ciphertext, tag) = sealed.split_at(split);
        self.open_detached(nonce, aad, ciphertext, tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    /// NIST GCM spec test case 1: empty everything.
    #[test]
    fn nist_case_1() {
        let gcm = AesGcm::new(&[0u8; 16]);
        let sealed = gcm.seal(&[0u8; 12], b"", b"");
        assert_eq!(sealed, hex("58e2fccefa7e3061367f1d57a4e7455a"));
        // The decrypt direction verifies the same vector: the sealed message
        // is tag-only, and opening yields the empty plaintext.
        assert_eq!(gcm.open(&[0u8; 12], b"", &sealed).unwrap(), b"");
        let (ct, tag) = gcm.seal_detached(&[0u8; 12], b"", b"");
        assert!(ct.is_empty());
        assert_eq!(tag.to_vec(), hex("58e2fccefa7e3061367f1d57a4e7455a"));
        assert_eq!(gcm.open_detached(&[0u8; 12], b"", &ct, &tag).unwrap(), b"");
    }

    /// NIST GCM spec test case 2: 16 zero bytes of plaintext.
    #[test]
    fn nist_case_2() {
        let gcm = AesGcm::new(&[0u8; 16]);
        let sealed = gcm.seal(&[0u8; 12], b"", &[0u8; 16]);
        assert_eq!(
            sealed,
            hex("0388dace60b6a392f328c2b971b2fe78ab6e47d42cec13bdf53a67b21257bddf")
        );
        assert_eq!(gcm.open(&[0u8; 12], b"", &sealed).unwrap(), [0u8; 16]);
        // Detached MAC on the vector's ciphertext.
        let (ct, tag) = gcm.seal_detached(&[0u8; 12], b"", &[0u8; 16]);
        assert_eq!(ct, hex("0388dace60b6a392f328c2b971b2fe78"));
        assert_eq!(tag.to_vec(), hex("ab6e47d42cec13bdf53a67b21257bddf"));
        assert_eq!(
            gcm.open_detached(&[0u8; 12], b"", &ct, &tag).unwrap(),
            [0u8; 16]
        );
    }

    /// NIST GCM spec test case 3: full key/IV/plaintext.
    #[test]
    fn nist_case_3() {
        let key: [u8; 16] = hex("feffe9928665731c6d6a8f9467308308").try_into().unwrap();
        let nonce: [u8; 12] = hex("cafebabefacedbaddecaf888").try_into().unwrap();
        let pt = hex(
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
        );
        let gcm = AesGcm::new(&key);
        let sealed = gcm.seal(&nonce, b"", &pt);
        let expected_ct = hex(
            "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
             21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985",
        );
        let expected_tag = hex("4d5c2af327cd64a62cf35abd2ba6fab4");
        assert_eq!(&sealed[..pt.len()], &expected_ct[..]);
        assert_eq!(&sealed[pt.len()..], &expected_tag[..]);
        // Decrypt direction from the published ciphertext, both attached and
        // with a detached tag truncated to the protocol's 8-byte MsgMAC.
        assert_eq!(gcm.open(&nonce, b"", &sealed).unwrap(), pt);
        assert_eq!(
            gcm.open_detached(&nonce, b"", &expected_ct, &expected_tag)
                .unwrap(),
            pt
        );
        assert_eq!(
            gcm.open_detached(&nonce, b"", &expected_ct, &expected_tag[..8])
                .unwrap(),
            pt
        );
    }

    /// NIST GCM spec test case 4: with AAD and truncated plaintext.
    #[test]
    fn nist_case_4() {
        let key: [u8; 16] = hex("feffe9928665731c6d6a8f9467308308").try_into().unwrap();
        let nonce: [u8; 12] = hex("cafebabefacedbaddecaf888").try_into().unwrap();
        let pt = hex(
            "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
             1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
        );
        let aad = hex("feedfacedeadbeeffeedfacedeadbeefabaddad2");
        let gcm = AesGcm::new(&key);
        let sealed = gcm.seal(&nonce, &aad, &pt);
        let expected_tag = hex("5bc94fbc3221a5db94fae95ae7121a47");
        assert_eq!(&sealed[pt.len()..], &expected_tag[..]);
        assert_eq!(gcm.open(&nonce, &aad, &sealed).unwrap(), pt);
    }

    #[test]
    fn detached_matches_attached() {
        let gcm = AesGcm::new(&[7u8; 16]);
        let (ct, tag) = gcm.seal_detached(&[1u8; 12], b"aad", b"some payload");
        let mut sealed = ct.clone();
        sealed.extend_from_slice(&tag);
        assert_eq!(sealed, gcm.seal(&[1u8; 12], b"aad", b"some payload"));
        assert_eq!(
            gcm.open_detached(&[1u8; 12], b"aad", &ct, &tag).unwrap(),
            b"some payload"
        );
    }

    #[test]
    fn truncated_tag_verifies_and_detects_tamper() {
        let gcm = AesGcm::new(&[7u8; 16]);
        let (ct, tag) = gcm.seal_detached(&[1u8; 12], b"", b"block");
        assert!(gcm.open_detached(&[1u8; 12], b"", &ct, &tag[..8]).is_ok());
        let mut bad = ct.clone();
        bad[0] ^= 1;
        assert_eq!(
            gcm.open_detached(&[1u8; 12], b"", &bad, &tag[..8]),
            Err(TagMismatch)
        );
        // Tags shorter than 64 bits are refused outright.
        assert_eq!(
            gcm.open_detached(&[1u8; 12], b"", &ct, &tag[..4]),
            Err(TagMismatch)
        );
        // Overlong tags are refused.
        let mut long = tag.to_vec();
        long.push(0);
        assert_eq!(
            gcm.open_detached(&[1u8; 12], b"", &ct, &long),
            Err(TagMismatch)
        );
    }

    #[test]
    fn decrypt_and_tag_is_lazy() {
        let gcm = AesGcm::new(&[7u8; 16]);
        let (ct, tag) = gcm.seal_detached(&[1u8; 12], b"", b"lazy block");
        // Decryption succeeds even with no tag at hand...
        let (pt, computed) = gcm.decrypt_and_tag(&[1u8; 12], b"", &ct);
        assert_eq!(pt, b"lazy block");
        // ...and the computed tag equals the genuine one for untampered
        // data, but differs once the ciphertext is corrupted.
        assert_eq!(computed, tag);
        let mut bad = ct;
        bad[3] ^= 0x10;
        let (_, computed_bad) = gcm.decrypt_and_tag(&[1u8; 12], b"", &bad);
        assert_ne!(computed_bad, tag);
    }

    #[test]
    fn into_variants_match_allocating_forms() {
        let gcm = AesGcm::new(&[7u8; 16]);
        let mut ct = Vec::new();
        let mut pt = Vec::new();
        // Reuse the same buffers across messages of different lengths.
        for msg in [&b"short"[..], &[0xAB; 64][..], &[0x11; 200][..]] {
            let tag = gcm.seal_detached_into(&[1u8; 12], b"aad", msg, &mut ct);
            let (expect_ct, expect_tag) = gcm.seal_detached(&[1u8; 12], b"aad", msg);
            assert_eq!(ct, expect_ct);
            assert_eq!(tag, expect_tag);
            let lazy_tag = gcm.decrypt_and_tag_into(&[1u8; 12], b"aad", &ct, &mut pt);
            assert_eq!(pt, msg);
            assert_eq!(lazy_tag, tag);
            gcm.open_detached_into(&[1u8; 12], b"aad", &ct, &tag[..8], &mut pt)
                .unwrap();
            assert_eq!(pt, msg);
        }
        // Verification failure leaves the output untouched.
        let tag = gcm.seal_detached_into(&[1u8; 12], b"", b"payload", &mut ct);
        ct[0] ^= 1;
        pt.clear();
        pt.extend_from_slice(b"sentinel");
        assert_eq!(
            gcm.open_detached_into(&[1u8; 12], b"", &ct, &tag, &mut pt),
            Err(TagMismatch)
        );
        assert_eq!(pt, b"sentinel");
    }

    #[test]
    fn tamper_detection_ciphertext() {
        let gcm = AesGcm::new(&[3u8; 16]);
        let mut sealed = gcm.seal(&[1u8; 12], b"hdr", b"payload bytes");
        sealed[0] ^= 1;
        assert_eq!(gcm.open(&[1u8; 12], b"hdr", &sealed), Err(TagMismatch));
    }

    #[test]
    fn tamper_detection_tag() {
        let gcm = AesGcm::new(&[3u8; 16]);
        let mut sealed = gcm.seal(&[1u8; 12], b"hdr", b"payload bytes");
        let last = sealed.len() - 1;
        sealed[last] ^= 0x80;
        assert_eq!(gcm.open(&[1u8; 12], b"hdr", &sealed), Err(TagMismatch));
    }

    #[test]
    fn wrong_nonce_rejected() {
        let gcm = AesGcm::new(&[3u8; 16]);
        let sealed = gcm.seal(&[1u8; 12], b"", b"data");
        assert_eq!(gcm.open(&[2u8; 12], b"", &sealed), Err(TagMismatch));
    }

    #[test]
    fn truncated_input_rejected() {
        let gcm = AesGcm::new(&[3u8; 16]);
        assert_eq!(gcm.open(&[1u8; 12], b"", &[1, 2, 3]), Err(TagMismatch));
    }

    #[test]
    fn error_type_displays() {
        assert!(TagMismatch.to_string().contains("tag mismatch"));
    }

    mod prop_tests {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            #[test]
            fn roundtrip(key in proptest::array::uniform16(any::<u8>()),
                         nonce in proptest::array::uniform12(any::<u8>()),
                         aad in proptest::collection::vec(any::<u8>(), 0..48),
                         pt in proptest::collection::vec(any::<u8>(), 0..200)) {
                let gcm = AesGcm::new(&key);
                let sealed = gcm.seal(&nonce, &aad, &pt);
                prop_assert_eq!(gcm.open(&nonce, &aad, &sealed).unwrap(), pt);
            }

            #[test]
            fn any_single_bitflip_is_caught(
                key in proptest::array::uniform16(any::<u8>()),
                nonce in proptest::array::uniform12(any::<u8>()),
                pt in proptest::collection::vec(any::<u8>(), 1..64),
                flip_byte in any::<proptest::sample::Index>(),
                flip_bit in 0u8..8) {
                let gcm = AesGcm::new(&key);
                let mut sealed = gcm.seal(&nonce, b"", &pt);
                let idx = flip_byte.index(sealed.len());
                sealed[idx] ^= 1 << flip_bit;
                prop_assert_eq!(gcm.open(&nonce, b"", &sealed), Err(TagMismatch));
            }
        }
    }
}
