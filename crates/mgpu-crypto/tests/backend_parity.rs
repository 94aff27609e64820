//! Cross-backend bit-equality: the hardware AES-NI/PCLMULQDQ paths must
//! produce exactly the bytes of the portable software implementations, for
//! every primitive and at every size class the protocol uses.
//!
//! On hosts without the hardware features the hw side of each comparison
//! is skipped (the software path is then the only implementation and is
//! covered by the unit tests and NIST vectors in-crate).

use mgpu_crypto::aes::Aes128;
use mgpu_crypto::backend::Backend;
use mgpu_crypto::ctr::CtrKeystream;
use mgpu_crypto::gcm::AesGcm;
use mgpu_crypto::ghash::{Gf128, Ghash, GhashKey};
use mgpu_crypto::pad::PadSeed;
use proptest::prelude::*;

fn hw() -> Option<Backend> {
    Backend::HwAesClmul
        .is_available()
        .then_some(Backend::HwAesClmul)
}

/// Every backend available on this host — always includes soft.
fn all_backends() -> Vec<Backend> {
    let mut v = vec![Backend::Soft];
    v.extend(hw());
    v
}

fn hex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

#[test]
fn bulk_ctr_keystream_matches_at_every_length() {
    // Every window length 0..=64 blocks: the hw path crosses its 8-block
    // pipeline boundary eight times and ends at every remainder size.
    let Some(hw) = hw() else { return };
    let soft = CtrKeystream::with_backend(&[0x5Au8; 16], Backend::Soft);
    let fast = CtrKeystream::with_backend(&[0x5Au8; 16], hw);
    let seed = PadSeed::new(3, 7, 1234);
    for nblocks in 0..=64usize {
        let mut a = vec![[0u8; 16]; nblocks];
        let mut b = vec![[0u8; 16]; nblocks];
        soft.keystream_blocks(seed, 5, &mut a);
        fast.keystream_blocks(seed, 5, &mut b);
        assert_eq!(a, b, "keystream diverges at {nblocks} blocks");
    }
}

#[test]
fn nist_gcm_vectors_pass_on_every_backend() {
    // NIST GCM spec test cases 1–4, run against each available backend.
    struct Case {
        key: &'static str,
        nonce: &'static str,
        aad: &'static str,
        pt: &'static str,
        ct: &'static str,
        tag: &'static str,
    }
    let cases = [
        Case {
            key: "00000000000000000000000000000000",
            nonce: "000000000000000000000000",
            aad: "",
            pt: "",
            ct: "",
            tag: "58e2fccefa7e3061367f1d57a4e7455a",
        },
        Case {
            key: "00000000000000000000000000000000",
            nonce: "000000000000000000000000",
            aad: "",
            pt: "00000000000000000000000000000000",
            ct: "0388dace60b6a392f328c2b971b2fe78",
            tag: "ab6e47d42cec13bdf53a67b21257bddf",
        },
        Case {
            key: "feffe9928665731c6d6a8f9467308308",
            nonce: "cafebabefacedbaddecaf888",
            aad: "",
            pt: "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
                  1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b391aafd255",
            ct: "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
                 21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091473f5985",
            tag: "4d5c2af327cd64a62cf35abd2ba6fab4",
        },
        Case {
            key: "feffe9928665731c6d6a8f9467308308",
            nonce: "cafebabefacedbaddecaf888",
            aad: "feedfacedeadbeeffeedfacedeadbeefabaddad2",
            pt: "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72\
                 1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39",
            ct: "42831ec2217774244b7221b784d0d49ce3aa212f2c02a4e035c17e2329aca12e\
                 21d514b25466931c7d8f6a5aac84aa051ba30b396a0aac973d58e091",
            tag: "5bc94fbc3221a5db94fae95ae7121a47",
        },
    ];
    for backend in all_backends() {
        for (i, case) in cases.iter().enumerate() {
            let key: [u8; 16] = hex(case.key).try_into().unwrap();
            let nonce: [u8; 12] = hex(case.nonce).try_into().unwrap();
            let aad = hex(case.aad);
            let pt = hex(case.pt.replace(char::is_whitespace, "").as_str());
            let gcm = AesGcm::with_backend(&key, backend);
            let (ct, tag) = gcm.seal_detached(&nonce, &aad, &pt);
            assert_eq!(
                ct,
                hex(case.ct.replace(char::is_whitespace, "").as_str()),
                "case {i} ciphertext on {backend}"
            );
            assert_eq!(tag.to_vec(), hex(case.tag), "case {i} tag on {backend}");
            assert_eq!(
                gcm.open_detached(&nonce, &aad, &ct, &tag).unwrap(),
                pt,
                "case {i} open on {backend}"
            );
            // The same vector through the in-place core.
            let mut buf = pt.clone();
            assert_eq!(
                gcm.seal_in_place_detached(&nonce, &aad, &mut buf),
                tag,
                "case {i} in-place tag on {backend}"
            );
            assert_eq!(buf, ct, "case {i} in-place ciphertext on {backend}");
            gcm.open_in_place_detached(&nonce, &aad, &mut buf, &tag)
                .expect("authentic vector");
            assert_eq!(buf, pt, "case {i} in-place open on {backend}");
            buf.clone_from(&ct);
            assert_eq!(
                gcm.decrypt_in_place_and_tag(&nonce, &aad, &mut buf),
                tag,
                "case {i} lazy tag on {backend}"
            );
            assert_eq!(buf, pt, "case {i} lazy decrypt on {backend}");
        }
    }
}

/// Reference AES-GCM built only from the single-block cipher and the
/// streaming [`Ghash`]: counter blocks assembled byte-wise, one
/// `encrypt_block` each, GHASH fed section by section. Returns
/// `(ciphertext, tag)`.
fn reference_seal(
    key: &[u8; 16],
    backend: Backend,
    nonce: &[u8; 12],
    aad: &[u8],
    pt: &[u8],
) -> (Vec<u8>, [u8; 16]) {
    let aes = Aes128::with_backend(key, backend);
    let counter = |i: u32| {
        let mut block = [0u8; 16];
        block[..12].copy_from_slice(nonce);
        block[12..].copy_from_slice(&(1 + i).to_be_bytes());
        aes.encrypt_block(block)
    };
    let ct: Vec<u8> = pt
        .chunks(16)
        .enumerate()
        .flat_map(|(i, chunk)| {
            let pad = counter(1 + i as u32);
            chunk
                .iter()
                .zip(pad)
                .map(|(p, k)| p ^ k)
                .collect::<Vec<u8>>()
        })
        .collect();
    let h = aes.encrypt_block([0u8; 16]);
    let mut g = Ghash::with_key(GhashKey::with_backend(h, backend));
    g.update(aad);
    g.pad_to_block();
    g.update(&ct);
    let s = g.finalize(aad.len() as u64, ct.len() as u64);
    let ek_j0 = counter(0);
    let mut tag = [0u8; 16];
    for (t, (a, b)) in tag.iter_mut().zip(s.iter().zip(ek_j0)) {
        *t = a ^ b;
    }
    (ct, tag)
}

#[test]
fn in_place_core_matches_streaming_reference_at_every_length() {
    // Every AAD length 0..=40 and text length 0..=160: the short path
    // (AAD, text and length block within one 8-block GHASH fold) and the
    // streaming path meet inside this range for every AAD length.
    let key = [0x2Bu8; 16];
    let nonce = [0x5Cu8; 12];
    let gcms: Vec<AesGcm> = all_backends()
        .into_iter()
        .map(|b| AesGcm::with_backend(&key, b))
        .collect();
    for aad_len in 0..=40usize {
        let aad: Vec<u8> = (0..aad_len).map(|i| (i * 7 + 3) as u8).collect();
        for len in 0..=160usize {
            let pt: Vec<u8> = (0..len).map(|i| (i * 13 + aad_len) as u8).collect();
            let (ct, tag) = reference_seal(&key, Backend::Soft, &nonce, &aad, &pt);
            for gcm in &gcms {
                let context = format!("aad {aad_len} B, text {len} B on {}", gcm.backend());
                let mut buf = pt.clone();
                let sealed_tag = gcm.seal_in_place_detached(&nonce, &aad, &mut buf);
                assert_eq!(buf, ct, "{context}: ciphertext");
                assert_eq!(sealed_tag, tag, "{context}: tag");
                gcm.open_in_place_detached(&nonce, &aad, &mut buf, &tag[..8])
                    .unwrap_or_else(|_| panic!("{context}: genuine message rejected"));
                assert_eq!(buf, pt, "{context}: open");
                buf.clone_from(&ct);
                let lazy_tag = gcm.decrypt_in_place_and_tag(&nonce, &aad, &mut buf);
                assert_eq!(buf, pt, "{context}: lazy decrypt");
                assert_eq!(lazy_tag, tag, "{context}: lazy tag");
            }
        }
    }
    if let Some(hw) = hw() {
        // The reference itself agrees across backends.
        let pt = [0x77u8; 100];
        assert_eq!(
            reference_seal(&key, Backend::Soft, &nonce, b"hdr", &pt),
            reference_seal(&key, hw, &nonce, b"hdr", &pt)
        );
    }
}

#[test]
fn every_single_bit_flip_is_rejected_and_leaves_the_buffer_untouched() {
    let key = [0x91u8; 16];
    let nonce = [0x0Eu8; 12];
    // Both sides of the short-path boundary, the protocol's 12 B header
    // over a 64 B block, and ragged lengths.
    let shapes = [
        (12usize, 64usize),
        (0, 0),
        (0, 112),
        (16, 96),
        (17, 97),
        (40, 160),
        (5, 1),
    ];
    for backend in all_backends() {
        let gcm = AesGcm::with_backend(&key, backend);
        for (aad_len, len) in shapes {
            let aad: Vec<u8> = (0..aad_len).map(|i| i as u8 ^ 0xA5).collect();
            let pt: Vec<u8> = (0..len).map(|i| (i * 31) as u8).collect();
            let mut ct = pt.clone();
            let tag = gcm.seal_in_place_detached(&nonce, &aad, &mut ct);
            let context = format!("aad {aad_len} B, text {len} B on {backend}");
            let rejects = |aad: &[u8], ct: &[u8], tag: &[u8], what: String| {
                let mut buf = ct.to_vec();
                assert!(
                    gcm.open_in_place_detached(&nonce, aad, &mut buf, tag)
                        .is_err(),
                    "{context}: {what} accepted"
                );
                assert_eq!(buf, ct, "{context}: {what} touched the buffer");
            };
            for bit in 0..8 * len {
                let mut bad = ct.clone();
                bad[bit / 8] ^= 1 << (bit % 8);
                rejects(&aad, &bad, &tag, format!("ciphertext bit {bit} flip"));
            }
            for bit in 0..8 * aad_len {
                let mut bad = aad.clone();
                bad[bit / 8] ^= 1 << (bit % 8);
                rejects(&bad, &ct, &tag, format!("AAD bit {bit} flip"));
            }
            for tag_len in [8, 16] {
                for bit in 0..8 * tag_len {
                    let mut bad = tag[..tag_len].to_vec();
                    bad[bit / 8] ^= 1 << (bit % 8);
                    rejects(&aad, &ct, &bad, format!("{tag_len} B tag bit {bit} flip"));
                }
            }
        }
    }
}

#[test]
fn encrypt_counters_matches_single_blocks_across_the_wrap() {
    // The 32-bit counter wraps inside the run; the rest of the block
    // never changes.
    let nonce = [0xC4u8; 12];
    for backend in all_backends() {
        let aes = Aes128::with_backend(&[0x3Du8; 16], backend);
        for len in [0usize, 1, 5, 8, 9, 17] {
            let first = u32::MAX - 3;
            let mut out = vec![[0u8; 16]; len];
            aes.encrypt_counters(&nonce, first, &mut out);
            for (i, block) in out.iter().enumerate() {
                let mut counter = [0u8; 16];
                counter[..12].copy_from_slice(&nonce);
                counter[12..].copy_from_slice(&first.wrapping_add(i as u32).to_be_bytes());
                assert_eq!(
                    *block,
                    aes.encrypt_block(counter),
                    "{backend}: block {i} of {len}"
                );
            }
        }
    }
}

proptest! {
    #[test]
    fn single_block_encrypt_matches(key in proptest::array::uniform16(any::<u8>()),
                                    pt in proptest::array::uniform16(any::<u8>())) {
        let Some(hw) = hw() else { return Ok(()) };
        let soft = Aes128::with_backend(&key, Backend::Soft);
        let fast = Aes128::with_backend(&key, hw);
        prop_assert_eq!(soft.encrypt_block(pt), fast.encrypt_block(pt));
    }

    #[test]
    fn bulk_encrypt_matches(key in proptest::array::uniform16(any::<u8>()),
                            nonce in proptest::array::uniform12(any::<u8>()),
                            first in any::<u32>(),
                            len in 0usize..48) {
        let Some(hw) = hw() else { return Ok(()) };
        let soft = Aes128::with_backend(&key, Backend::Soft);
        let fast = Aes128::with_backend(&key, hw);
        let mut a = vec![[0u8; 16]; len];
        let mut b = vec![[0u8; 16]; len];
        soft.encrypt_counters(&nonce, first, &mut a);
        fast.encrypt_counters(&nonce, first, &mut b);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn ghash_matches(h in proptest::array::uniform16(any::<u8>()),
                     data in proptest::collection::vec(any::<u8>(), 0..256),
                     split in 0usize..256) {
        let Some(hw) = hw() else { return Ok(()) };
        // Split the update to exercise the partial-block buffer on both
        // sides, not just the aligned bulk path.
        let split = split.min(data.len());
        let run = |backend: Backend| {
            let mut g = Ghash::with_key(GhashKey::with_backend(h, backend));
            g.update(&data[..split]);
            g.update(&data[split..]);
            g.finalize(0, data.len() as u64)
        };
        prop_assert_eq!(run(Backend::Soft), run(hw));
    }

    #[test]
    fn ghash_key_mul_matches(h in proptest::array::uniform16(any::<u8>()),
                             x in proptest::array::uniform16(any::<u8>())) {
        let Some(hw) = hw() else { return Ok(()) };
        let soft = GhashKey::with_backend(h, Backend::Soft);
        let fast = GhashKey::with_backend(h, hw);
        let x = Gf128::from_bytes(x);
        prop_assert_eq!(soft.mul(x), fast.mul(x));
    }

    #[test]
    fn gcm_seal_open_matches(key in proptest::array::uniform16(any::<u8>()),
                             nonce in proptest::array::uniform12(any::<u8>()),
                             aad in proptest::collection::vec(any::<u8>(), 0..64),
                             pt in proptest::collection::vec(any::<u8>(), 0..256)) {
        let Some(hw) = hw() else { return Ok(()) };
        let soft = AesGcm::with_backend(&key, Backend::Soft);
        let fast = AesGcm::with_backend(&key, hw);
        let sealed_soft = soft.seal(&nonce, &aad, &pt);
        let sealed_fast = fast.seal(&nonce, &aad, &pt);
        prop_assert_eq!(&sealed_soft, &sealed_fast);
        // Cross-open: each backend verifies and decrypts the other's seal.
        prop_assert_eq!(soft.open(&nonce, &aad, &sealed_fast).unwrap(), pt.clone());
        prop_assert_eq!(fast.open(&nonce, &aad, &sealed_soft).unwrap(), pt);
    }
}
