//! System-level flow control: typed backpressure, credit gates, and
//! wakeup dedup shared by the pacing, NIC, and engine layers.
//!
//! Together with the fabric's [`mgpu_sim::timeq::TimedServer`] this is
//! the PR 8 flow substrate: every "is this resource ready?" question in
//! the system answers with either a grant or a **typed reject**
//! ([`Reject`]) that says exactly when or on what signal to come back —
//! never a bare `false` the caller must re-poll.
//!
//! * [`CreditPool`] — unsigned per-node slot credits (issue slots: a
//!   GPU's memory-level parallelism).
//! * [`CreditGate`] — signed per-node credits with a park queue and
//!   config-selected arbitration (replay-protection ACK windows, where
//!   batch trailers may transiently overdraw and blocked senders park
//!   prepared blocks until a credit returns).
//! * [`WakeupLadder`] — the PR 5 gap-wakeup dedup, extracted: at most
//!   one timer wakeup armed per node, none lost.
//! * [`CheckDedup`] — per-node record of the latest pending timer check,
//!   so a second check for the same node and cycle is never scheduled.

use mgpu_types::{ArbitrationKind, Cycle, DenseNodeMap, NodeId};
use std::collections::VecDeque;

/// Typed backpressure: why a request was not granted, and what wakes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reject {
    /// The resource frees (or the request becomes eligible) at this
    /// cycle: schedule exactly one retry then.
    NotBefore(Cycle),
    /// Out of credits with no self-known free time: a credit release
    /// (completion/ACK) re-offers service — park, do not poll.
    AwaitCredit,
    /// Nothing left to serve: no retry will ever succeed.
    Drained,
}

/// Unsigned per-node slot credits (e.g. issue slots). Taking a credit
/// either succeeds or answers [`Reject::AwaitCredit`]; returning one is
/// infallible.
#[derive(Debug)]
pub struct CreditPool {
    free: DenseNodeMap<u32>,
    grants: DenseNodeMap<u64>,
}

impl CreditPool {
    /// A pool giving each node in `nodes` `capacity` credits.
    #[must_use]
    pub fn new(nodes: impl Iterator<Item = NodeId>, capacity: u32) -> Self {
        let free: DenseNodeMap<u32> = nodes.map(|n| (n, capacity)).collect();
        let grants = free.keys().map(|n| (n, 0)).collect();
        CreditPool { free, grants }
    }

    /// Takes one credit from `node`; [`Reject::AwaitCredit`] when none
    /// are free (a [`CreditPool::put`] will re-offer).
    pub fn take(&mut self, node: NodeId) -> Result<(), Reject> {
        let free = self.free.get_mut(node).expect("node in pool");
        if *free == 0 {
            return Err(Reject::AwaitCredit);
        }
        *free -= 1;
        *self.grants.get_mut(node).expect("node in pool") += 1;
        Ok(())
    }

    /// Returns one credit to `node`.
    pub fn put(&mut self, node: NodeId) {
        *self.free.get_mut(node).expect("node in pool") += 1;
    }

    /// Free credits at `node`.
    #[must_use]
    pub fn free(&self, node: NodeId) -> u32 {
        self.free.get(node).copied().unwrap_or(0)
    }

    /// Credits granted to `node` so far.
    #[must_use]
    pub fn grants(&self, node: NodeId) -> u64 {
        self.grants.get(node).copied().unwrap_or(0)
    }
}

/// Signed per-node credits with a park queue and pluggable arbitration.
///
/// Models windows where privileged callers may transiently overdraw
/// (replay-table trailer reservations) and where a denied caller parks
/// its work item `D` until a credit returns. When a credit is released,
/// the next parked item is chosen by the configured [`ArbitrationKind`]:
///
/// * [`ArbitrationKind::RoundRobin`] — FIFO park order (today's service
///   order; the bit-for-bit default).
/// * [`ArbitrationKind::FixedPriority`] — lowest priority key first
///   (callers pass e.g. the originating request index, so older requests
///   preempt the park queue).
#[derive(Debug)]
pub struct CreditGate<D> {
    free: DenseNodeMap<i64>,
    parked: DenseNodeMap<VecDeque<(u64, D)>>,
    grants: DenseNodeMap<u64>,
    arbitration: ArbitrationKind,
}

impl<D> CreditGate<D> {
    /// A gate giving each node in `nodes` `capacity` credits, unparking
    /// under `arbitration`.
    #[must_use]
    pub fn new(
        nodes: impl Iterator<Item = NodeId>,
        capacity: i64,
        arbitration: ArbitrationKind,
    ) -> Self {
        let free: DenseNodeMap<i64> = nodes.map(|n| (n, capacity)).collect();
        let grants = free.keys().map(|n| (n, 0)).collect();
        CreditGate {
            free,
            parked: DenseNodeMap::new(),
            grants,
            arbitration,
        }
    }

    /// Takes one credit at `node`; [`Reject::AwaitCredit`] when the
    /// window is exhausted (a [`CreditGate::release`] re-offers — park
    /// the work item, do not poll).
    pub fn admit(&mut self, node: NodeId) -> Result<(), Reject> {
        let free = self.free.get_mut(node).expect("node in gate");
        if *free <= 0 {
            return Err(Reject::AwaitCredit);
        }
        *free -= 1;
        *self.grants.get_mut(node).expect("node in gate") += 1;
        Ok(())
    }

    /// Takes one credit at `node` unconditionally, allowing the balance
    /// to go negative (privileged callers only — batch trailer flushes
    /// are never parked).
    pub fn overdraw(&mut self, node: NodeId) {
        *self.free.get_mut(node).expect("node in gate") -= 1;
        *self.grants.get_mut(node).expect("node in gate") += 1;
    }

    /// Parks `item` at `node` until a credit returns. `priority` is the
    /// [`ArbitrationKind::FixedPriority`] key (lower unparks first);
    /// round-robin ignores it.
    pub fn park(&mut self, node: NodeId, priority: u64, item: D) {
        self.parked
            .get_or_insert_with(node, VecDeque::new)
            .push_back((priority, item));
    }

    /// Returns one credit to `node` and unparks the next work item under
    /// the configured arbitration, if any is waiting.
    pub fn release(&mut self, node: NodeId) -> Option<D> {
        *self.free.get_mut(node).expect("node in gate") += 1;
        let queue = self.parked.get_mut(node)?;
        let at = match self.arbitration {
            ArbitrationKind::RoundRobin => {
                if queue.is_empty() {
                    return None;
                }
                0
            }
            ArbitrationKind::FixedPriority => {
                queue
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, (priority, _))| *priority)?
                    .0
            }
        };
        queue.remove(at).map(|(_, item)| item)
    }

    /// Free credits at `node` (negative while overdrawn); zero for nodes
    /// outside the gate.
    #[must_use]
    pub fn free(&self, node: NodeId) -> i64 {
        self.free.get(node).copied().unwrap_or(0)
    }

    /// Credits granted at `node` so far (admissions plus overdraws).
    #[must_use]
    pub fn grants(&self, node: NodeId) -> u64 {
        self.grants.get(node).copied().unwrap_or(0)
    }

    /// Work items parked at `node`.
    #[must_use]
    pub fn parked_len(&self, node: NodeId) -> usize {
        self.parked.get(node).map_or(0, VecDeque::len)
    }
}

/// The PR 5 gap-wakeup dedup, extracted from the engines: per node, at
/// most one timer wakeup is armed at any moment, and the armed time
/// never exceeds the node's live ready cycle — so no wakeup is lost and
/// the duplicate-poll population cannot grow (see DESIGN.md §10).
#[derive(Debug)]
pub struct WakeupLadder {
    armed: DenseNodeMap<Option<Cycle>>,
}

impl WakeupLadder {
    /// A ladder with every node in `nodes` unarmed.
    #[must_use]
    pub fn new(nodes: impl Iterator<Item = NodeId>) -> Self {
        WakeupLadder {
            armed: nodes.map(|n| (n, None)).collect(),
        }
    }

    /// Notes that a wakeup for `node` fired at `now`: if it was the
    /// armed one, the node becomes re-armable. (A wakeup scheduled
    /// before arming — e.g. the initial kick or a completion poll — does
    /// not match and leaves the armed timer in place.)
    pub fn fired(&mut self, node: NodeId, now: Cycle) {
        if self.armed[node] == Some(now) {
            self.armed.insert(node, None);
        }
    }

    /// Requests a wakeup for `node` at `at`. `true` means the caller
    /// must schedule it (the ladder armed it); `false` means an earlier-
    /// or-equal wakeup is already armed and scheduling another would
    /// recreate the duplicate-poll storm.
    pub fn arm(&mut self, node: NodeId, at: Cycle) -> bool {
        if self.armed[node].is_none() {
            self.armed.insert(node, Some(at));
            true
        } else {
            false
        }
    }

    /// The cycle of `node`'s armed wakeup, if one is pending.
    #[must_use]
    pub fn armed(&self, node: NodeId) -> Option<Cycle> {
        self.armed[node]
    }
}

/// Per-node dedup of timer checks that are idempotent within a cycle
/// (batch flush checks): remembers the cycle of the check most recently
/// scheduled for each node until that check fires.
///
/// Invariant: a recorded cycle `t` means the check that set it is still
/// pending — firing at `t` clears the record, and the record only returns
/// to `t` by scheduling a new check there. So [`CheckDedup::schedule`]
/// refusing a check for `(node, t)` always leaves an earlier-sequenced
/// check for `(node, t)` in the queue.
#[derive(Debug)]
pub struct CheckDedup {
    pending: DenseNodeMap<Option<Cycle>>,
}

impl CheckDedup {
    /// A dedup with no check pending for any node in `nodes`.
    #[must_use]
    pub fn new(nodes: impl Iterator<Item = NodeId>) -> Self {
        CheckDedup {
            pending: nodes.map(|n| (n, None)).collect(),
        }
    }

    /// Requests a check for `node` at `at`. `true` means the caller must
    /// schedule it; `false` means the check recorded for `node` is
    /// pending at that same cycle.
    pub fn schedule(&mut self, node: NodeId, at: Cycle) -> bool {
        if self.pending[node] == Some(at) {
            false
        } else {
            self.pending.insert(node, Some(at));
            true
        }
    }

    /// Notes that a check for `node` fired at `now`.
    pub fn fired(&mut self, node: NodeId, now: Cycle) {
        if self.pending[node] == Some(now) {
            self.pending.insert(node, None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes() -> impl Iterator<Item = NodeId> {
        [NodeId::gpu(1), NodeId::gpu(2)].into_iter()
    }

    #[test]
    fn pool_rejects_await_credit_at_zero_and_recovers() {
        let g1 = NodeId::gpu(1);
        let mut pool = CreditPool::new(nodes(), 1);
        assert_eq!(pool.take(g1), Ok(()));
        assert_eq!(pool.take(g1), Err(Reject::AwaitCredit));
        assert_eq!(pool.free(g1), 0);
        pool.put(g1);
        assert_eq!(pool.take(g1), Ok(()));
        assert_eq!(pool.grants(g1), 2);
        // The other node's credits are untouched.
        assert_eq!(pool.free(NodeId::gpu(2)), 1);
    }

    #[test]
    fn gate_round_robin_unparks_in_fifo_order() {
        let g1 = NodeId::gpu(1);
        let mut gate: CreditGate<&str> = CreditGate::new(nodes(), 1, ArbitrationKind::RoundRobin);
        assert!(gate.admit(g1).is_ok());
        assert_eq!(gate.admit(g1), Err(Reject::AwaitCredit));
        gate.park(g1, 9, "first-parked");
        gate.park(g1, 3, "second-parked");
        // FIFO ignores the priority keys: park order wins.
        assert_eq!(gate.release(g1), Some("first-parked"));
        assert_eq!(gate.release(g1), Some("second-parked"));
        assert_eq!(gate.release(g1), None);
    }

    #[test]
    fn gate_fixed_priority_unparks_lowest_key() {
        let g1 = NodeId::gpu(1);
        let mut gate: CreditGate<&str> =
            CreditGate::new(nodes(), 1, ArbitrationKind::FixedPriority);
        gate.admit(g1).unwrap();
        gate.park(g1, 9, "late-request");
        gate.park(g1, 3, "early-request");
        gate.park(g1, 5, "middle-request");
        assert_eq!(gate.release(g1), Some("early-request"));
        assert_eq!(gate.release(g1), Some("middle-request"));
        assert_eq!(gate.release(g1), Some("late-request"));
    }

    #[test]
    fn gate_overdraw_goes_negative_and_must_repay() {
        let g1 = NodeId::gpu(1);
        let mut gate: CreditGate<u32> = CreditGate::new(nodes(), 2, ArbitrationKind::RoundRobin);
        gate.admit(g1).unwrap();
        gate.admit(g1).unwrap();
        gate.overdraw(g1);
        assert_eq!(gate.free(g1), -1);
        assert_eq!(gate.admit(g1), Err(Reject::AwaitCredit));
        gate.release(g1);
        assert_eq!(gate.admit(g1), Err(Reject::AwaitCredit), "still at zero");
        gate.release(g1);
        assert!(gate.admit(g1).is_ok());
        assert_eq!(gate.grants(g1), 4);
    }

    #[test]
    fn ladder_arms_once_until_fired() {
        let g1 = NodeId::gpu(1);
        let mut ladder = WakeupLadder::new(nodes());
        assert!(ladder.arm(g1, Cycle::new(10)), "first arm schedules");
        assert!(!ladder.arm(g1, Cycle::new(10)), "duplicate suppressed");
        assert!(!ladder.arm(g1, Cycle::new(25)), "later wakeup suppressed");
        // A stray poll at a non-armed time does not disarm.
        ladder.fired(g1, Cycle::new(5));
        assert!(!ladder.arm(g1, Cycle::new(10)));
        // The armed wakeup firing re-arms the node.
        ladder.fired(g1, Cycle::new(10));
        assert!(ladder.arm(g1, Cycle::new(25)));
    }

    #[test]
    fn ladder_reports_the_armed_cycle() {
        let (g1, g2) = (NodeId::gpu(1), NodeId::gpu(2));
        let mut ladder = WakeupLadder::new(nodes());
        assert_eq!(ladder.armed(g1), None);
        assert!(ladder.arm(g1, Cycle::new(10)));
        assert_eq!(ladder.armed(g1), Some(Cycle::new(10)));
        assert_eq!(ladder.armed(g2), None, "per node");
        // A refused arm leaves the earlier wakeup in place.
        assert!(!ladder.arm(g1, Cycle::new(4)));
        assert_eq!(ladder.armed(g1), Some(Cycle::new(10)));
        ladder.fired(g1, Cycle::new(9));
        assert_eq!(ladder.armed(g1), Some(Cycle::new(10)));
        ladder.fired(g1, Cycle::new(10));
        assert_eq!(ladder.armed(g1), None);
    }

    #[test]
    fn check_dedup_refuses_only_a_pending_same_cycle_check() {
        let (g1, g2) = (NodeId::gpu(1), NodeId::gpu(2));
        let mut checks = CheckDedup::new(nodes());
        assert!(checks.schedule(g1, Cycle::new(10)));
        assert!(!checks.schedule(g1, Cycle::new(10)), "same cycle pending");
        assert!(checks.schedule(g2, Cycle::new(10)), "per node");
        // A different cycle is scheduled and becomes the record; the
        // earlier check at 10 is still queued, but a new request for 10
        // is scheduled again (conservative, never lost).
        assert!(checks.schedule(g1, Cycle::new(12)));
        assert!(checks.schedule(g1, Cycle::new(10)));
        // Firing at the recorded cycle clears it.
        checks.fired(g1, Cycle::new(10));
        assert!(checks.schedule(g1, Cycle::new(10)));
        // Firing at another cycle leaves the record.
        checks.fired(g1, Cycle::new(12));
        assert!(!checks.schedule(g1, Cycle::new(10)));
    }
}
