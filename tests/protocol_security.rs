//! Adversarial integration tests on the functional secure channel:
//! seeded random traffic with injected attacks across a whole node mesh,
//! all running over the workspace's from-scratch AES-GCM.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use secure_mgpu::secure::channel::{Endpoint, WireBlock};
use secure_mgpu::secure::key_exchange::KeyExchange;
use secure_mgpu::types::{MgpuError, NodeId};
use std::collections::BTreeMap;

fn mesh(gpus: u16) -> BTreeMap<NodeId, Endpoint> {
    let kx = KeyExchange::boot(*b"integration-key!");
    NodeId::all(gpus)
        .map(|n| (n, Endpoint::new(n, gpus, &kx)))
        .collect()
}

#[test]
fn random_mesh_traffic_all_verifies() {
    let mut nodes = mesh(4);
    let ids: Vec<NodeId> = NodeId::all(4).collect();
    let mut rng = StdRng::seed_from_u64(7);
    for i in 0..500u32 {
        let src = ids[rng.random_range(0..ids.len())];
        let dst = loop {
            let d = ids[rng.random_range(0..ids.len())];
            if d != src {
                break d;
            }
        };
        let mut payload = [0u8; 64];
        payload[..4].copy_from_slice(&i.to_be_bytes());
        let wire = nodes.get_mut(&src).unwrap().seal_block(dst, &payload);
        let (plain, ack) = nodes.get_mut(&dst).unwrap().open_block(&wire).unwrap();
        assert_eq!(plain, payload);
        nodes.get_mut(&src).unwrap().accept_ack(&ack).unwrap();
    }
    for node in nodes.values() {
        assert_eq!(node.outstanding_acks(), 0);
    }
}

#[test]
fn every_random_tamper_is_detected() {
    let mut nodes = mesh(2);
    let mut rng = StdRng::seed_from_u64(11);
    for _ in 0..200 {
        let wire = nodes
            .get_mut(&NodeId::gpu(1))
            .unwrap()
            .seal_block(NodeId::gpu(2), &[0x77; 64]);
        // Tamper with a random byte of ciphertext or MAC.
        let mut bad: WireBlock = wire;
        if rng.random_bool(0.5) {
            let idx = rng.random_range(0..bad.ciphertext.len());
            bad.ciphertext[idx] ^= 1u8 << rng.random_range(0u32..8);
        } else if let Some(mac) = bad.mac.as_mut() {
            mac[rng.random_range(0usize..8)] ^= 1u8 << rng.random_range(0u32..8);
        }
        match nodes.get_mut(&NodeId::gpu(2)).unwrap().open_block(&bad) {
            Err(MgpuError::AuthenticationFailed { .. }) => {}
            other => panic!("tamper survived: {other:?}"),
        }
        // The genuine block still goes through afterwards.
        let (_, ack) = nodes
            .get_mut(&NodeId::gpu(2))
            .unwrap()
            .open_block(&wire)
            .expect("genuine block accepted after failed attack");
        nodes
            .get_mut(&NodeId::gpu(1))
            .unwrap()
            .accept_ack(&ack)
            .unwrap();
    }
}

#[test]
fn batches_survive_random_permutations() {
    let mut nodes = mesh(2);
    let mut rng = StdRng::seed_from_u64(13);
    for round in 0..40u8 {
        let n = rng.random_range(2..=16usize);
        let blocks: Vec<[u8; 64]> = (0..n).map(|i| [(i as u8) ^ round; 64]).collect();
        let (mut wires, trailer) = nodes
            .get_mut(&NodeId::gpu(1))
            .unwrap()
            .seal_batch(NodeId::gpu(2), &blocks);
        // Shuffle delivery order.
        for i in (1..wires.len()).rev() {
            wires.swap(i, rng.random_range(0..=i));
        }
        let trailer_first = rng.random_bool(0.5);
        let receiver = nodes.get_mut(&NodeId::gpu(2)).unwrap();
        let mut ack = None;
        if trailer_first {
            assert!(receiver.accept_trailer(&trailer).unwrap().is_none());
        }
        for wire in &wires {
            let (_, got) = receiver.open_batched_block(wire).unwrap();
            if let Some(a) = got {
                ack = Some(a);
            }
        }
        if !trailer_first {
            ack = receiver.accept_trailer(&trailer).unwrap();
        }
        let ack = ack.expect("batch must verify");
        nodes
            .get_mut(&NodeId::gpu(1))
            .unwrap()
            .accept_ack(&ack)
            .unwrap();
    }
}

#[test]
fn replayed_batches_are_rejected() {
    let mut nodes = mesh(2);
    let blocks: Vec<[u8; 64]> = (0..4u8).map(|i| [i; 64]).collect();
    let (wires, trailer) = nodes
        .get_mut(&NodeId::gpu(1))
        .unwrap()
        .seal_batch(NodeId::gpu(2), &blocks);
    {
        let receiver = nodes.get_mut(&NodeId::gpu(2)).unwrap();
        for wire in &wires {
            receiver.open_batched_block(wire).unwrap();
        }
        receiver
            .accept_trailer(&trailer)
            .unwrap()
            .expect("verified");
    }
    // Replay the whole batch: the trailer's batch id is stale.
    let receiver = nodes.get_mut(&NodeId::gpu(2)).unwrap();
    match receiver.accept_trailer(&trailer) {
        Err(MgpuError::ReplayDetected { .. }) => {}
        other => panic!("batch replay survived: {other:?}"),
    }
}

#[test]
fn cross_pair_isolation() {
    // A block sealed for GPU2 must not open at GPU3 (different pair key
    // and AAD), even though both share the boot exchange.
    let mut nodes = mesh(3);
    let wire = nodes
        .get_mut(&NodeId::gpu(1))
        .unwrap()
        .seal_block(NodeId::gpu(2), &[9; 64]);
    let mut redirected = wire;
    redirected.receiver = NodeId::gpu(3);
    match nodes
        .get_mut(&NodeId::gpu(3))
        .unwrap()
        .open_block(&redirected)
    {
        Err(MgpuError::AuthenticationFailed { .. }) => {}
        other => panic!("cross-pair redirect survived: {other:?}"),
    }
}
