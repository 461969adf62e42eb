//! Chain replication with Rambda-Tx's concurrency-control unit (Sec. IV-B).
//!
//! Machines form a linear chain. A transaction's writes enter at the head,
//! are appended to every replica's redo log in order, and commit when the
//! tail's ACK back-propagates to the head. The concurrency-control unit —
//! a small hash table indexed by key — admits at most one outstanding
//! transaction per key; conflicting transactions queue in arrival order.

use serde::{Deserialize, Serialize};

use crate::store::PersistentStore;

/// One write of a transaction.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TxnWrite {
    /// Target key (addresses an offset in the NVM space).
    pub key: u64,
    /// New value.
    pub value: Vec<u8>,
}

/// Result of executing a transaction against the chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TxnOutcome {
    /// The transaction id assigned by the head.
    pub txn_id: u64,
    /// Values observed by the read set (in request order).
    pub reads: Vec<Option<Vec<u8>>>,
    /// How many transactions were queued ahead on conflicting keys.
    pub conflicts_waited: usize,
}

/// The concurrency-control unit: per-key FIFO admission.
///
/// Holds one `(key, txn)` slot per admitted pair, in arrival order, so a
/// key's queue is the subsequence of slots on that key. Serial execution
/// keeps at most one transaction's keys here, and the vectors stop
/// allocating once warm.
#[derive(Debug, Clone, Default)]
pub struct ConcurrencyControl {
    slots: Vec<(u64, u64)>,
    /// Scratch for [`admit`](Self::admit)'s distinct transactions ahead.
    ahead: Vec<u64>,
}

impl ConcurrencyControl {
    /// Creates an empty unit.
    pub fn new() -> Self {
        ConcurrencyControl::default()
    }

    /// Admits `txn` on `keys`; returns how many distinct transactions are
    /// queued ahead of it across its keys (0 = runs immediately).
    pub fn admit(&mut self, txn: u64, keys: impl IntoIterator<Item = u64>) -> usize {
        self.ahead.clear();
        for key in keys {
            let mut queued = false;
            for &(_, other) in self.slots.iter().filter(|&&(k, _)| k == key) {
                if other == txn {
                    queued = true;
                } else if !self.ahead.contains(&other) {
                    self.ahead.push(other);
                }
            }
            if !queued {
                self.slots.push((key, txn));
            }
        }
        self.ahead.len()
    }

    /// Releases `txn`'s slots after commit.
    pub fn release(&mut self, txn: u64, keys: impl IntoIterator<Item = u64>) {
        for key in keys {
            self.slots.retain(|&slot| slot != (key, txn));
        }
    }

    /// Keys currently under some transaction.
    pub fn busy_keys(&self) -> usize {
        let slots = &self.slots;
        (0..slots.len()).filter(|&i| slots[..i].iter().all(|&(k, _)| k != slots[i].0)).count()
    }
}

/// A replication chain of persistent stores.
#[derive(Debug, Clone)]
pub struct Chain {
    replicas: Vec<PersistentStore>,
    cc: ConcurrencyControl,
    next_txn: u64,
}

impl Chain {
    /// Creates a chain of `replicas` empty stores.
    ///
    /// # Panics
    ///
    /// Panics if `replicas == 0`.
    pub fn new(replicas: usize) -> Self {
        assert!(replicas > 0, "a chain needs at least one replica");
        Chain { replicas: vec![PersistentStore::new(); replicas], cc: ConcurrencyControl::new(), next_txn: 0 }
    }

    /// Number of replicas.
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// Whether the chain has no replicas (never true after construction).
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    /// Read access to a replica.
    pub fn replica(&self, i: usize) -> &PersistentStore {
        &self.replicas[i]
    }

    /// Mutable access to a replica (crash injection in tests).
    pub fn replica_mut(&mut self, i: usize) -> &mut PersistentStore {
        &mut self.replicas[i]
    }

    /// The concurrency-control unit.
    pub fn concurrency_control(&self) -> &ConcurrencyControl {
        &self.cc
    }

    /// Executes one transaction: reads are served at the head (chain
    /// replication keeps the head consistent), writes propagate down the
    /// chain and commit everywhere before the outcome returns. Allocates
    /// nothing beyond the outcome and the log arenas' growth.
    pub fn execute(&mut self, reads: &[u64], writes: Vec<TxnWrite>) -> TxnOutcome {
        let txn_id = self.next_txn;
        self.next_txn += 1;
        let keys = || reads.iter().copied().chain(writes.iter().map(|w| w.key));
        let conflicts_waited = self.cc.admit(txn_id, keys());
        // (In the timed model, conflicting admission delays the start; the
        // functional chain executes serially, so admission always proceeds.)

        let read_values = reads.iter().map(|&k| self.replicas[0].get(k).map(<[u8]>::to_vec)).collect();

        if !writes.is_empty() {
            // Head -> tail: append + persist at every replica in order.
            for replica in &mut self.replicas {
                let idx = replica.append(txn_id, writes.iter().map(|w| (w.key, w.value.as_slice())));
                replica.persist_through(idx);
            }
            // Tail ACK back-propagates; every replica then commits locally
            // (already durable here).
        }

        self.cc.release(txn_id, keys());
        TxnOutcome { txn_id, reads: read_values, conflicts_waited }
    }

    /// Bulk-loads `(key, value)` pairs, one committed single-write
    /// transaction each — observationally identical to calling
    /// [`execute`](Self::execute) with one write per pair (same transaction
    /// ids, same logs, same memtables), but skipping concurrency-control
    /// admission (a no-op when loading serially). The pairs are appended to
    /// the head replica, which a fresh chain then clones down the chain.
    pub fn preload<I>(&mut self, items: I)
    where
        I: IntoIterator<Item = (u64, Vec<u8>)>,
    {
        let fresh = self.replicas.iter().all(|r| r.log_len() == 0);
        let (head, rest) = self.replicas.split_first_mut().expect("a chain has a head");
        let first = head.log_len();
        for (key, value) in items {
            let idx = head.append(self.next_txn, [(key, value.as_slice())]);
            head.persist_through(idx);
            self.next_txn += 1;
        }
        for replica in rest {
            if fresh {
                *replica = head.clone();
            } else {
                replica.preload_from(head, first);
            }
        }
    }

    /// Checks that all replicas agree on the durable log length and on all
    /// read values (the chain invariant).
    pub fn check_consistency(&self) -> Result<(), String> {
        let head_len = self.replicas[0].durable_len();
        let head_log = self.replicas[0].durable_log();
        for (i, r) in self.replicas.iter().enumerate() {
            if r.durable_len() != head_len {
                return Err(format!(
                    "replica {i} has {} durable records, head has {head_len}",
                    r.durable_len()
                ));
            }
            if r.durable_log() != head_log {
                return Err(format!("replica {i} log diverges from head"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(key: u64, byte: u8) -> TxnWrite {
        TxnWrite { key, value: vec![byte; 16] }
    }

    #[test]
    fn single_write_replicates_everywhere() {
        let mut chain = Chain::new(3);
        chain.execute(&[], vec![w(5, 0xAA)]);
        for i in 0..3 {
            assert_eq!(chain.replica(i).get(5).unwrap(), &[0xAA; 16]);
        }
        chain.check_consistency().unwrap();
    }

    #[test]
    fn reads_see_committed_writes() {
        let mut chain = Chain::new(2);
        chain.execute(&[], vec![w(1, 0x01)]);
        let out = chain.execute(&[1, 2], vec![]);
        assert_eq!(out.reads[0].as_deref().unwrap(), &[0x01; 16]);
        assert!(out.reads[1].is_none());
    }

    #[test]
    fn multi_write_txn_is_one_log_record() {
        let mut chain = Chain::new(2);
        chain.execute(&[], vec![w(1, 1), w(2, 2)]);
        assert_eq!(chain.replica(0).log_len(), 1);
        assert_eq!(chain.replica(1).log_len(), 1);
    }

    #[test]
    fn concurrency_control_counts_conflicts() {
        let mut cc = ConcurrencyControl::new();
        assert_eq!(cc.admit(1, [10, 11]), 0);
        assert_eq!(cc.admit(2, [11, 12]), 1); // behind txn 1 on key 11
        assert_eq!(cc.admit(3, [10, 11]), 2); // behind both
        cc.release(1, [10, 11]);
        assert_eq!(cc.busy_keys(), 3); // 10:[3] 11:[2,3] 12:[2]
        cc.release(2, [11, 12]);
        cc.release(3, [10, 11]);
        assert_eq!(cc.busy_keys(), 0);
    }

    #[test]
    fn txn_ids_are_monotonic() {
        let mut chain = Chain::new(1);
        let a = chain.execute(&[], vec![w(1, 1)]).txn_id;
        let b = chain.execute(&[], vec![w(1, 2)]).txn_id;
        assert!(b > a);
    }

    #[test]
    fn tail_crash_recovers_to_consistency() {
        let mut chain = Chain::new(2);
        for i in 0..50u64 {
            chain.execute(&[], vec![w(i, i as u8)]);
        }
        chain.replica_mut(1).crash();
        chain.replica_mut(1).recover();
        chain.check_consistency().unwrap();
        assert_eq!(chain.replica(1).get(17).unwrap(), &[17u8; 16]);
    }

    #[test]
    fn later_write_wins_after_recovery() {
        let mut chain = Chain::new(2);
        chain.execute(&[], vec![w(9, 1)]);
        chain.execute(&[], vec![w(9, 2)]);
        chain.replica_mut(0).crash();
        chain.replica_mut(0).recover();
        assert_eq!(chain.replica(0).get(9).unwrap(), &[2u8; 16]);
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn empty_chain_panics() {
        Chain::new(0);
    }

    /// `preload` must be indistinguishable from per-transaction `execute`,
    /// including duplicate keys (later write wins) and follow-on txn ids.
    #[test]
    fn preload_matches_execute_loop() {
        let items: Vec<(u64, Vec<u8>)> = (0..500u64).map(|k| (k % 120, vec![(k & 0xFF) as u8; 16])).collect();
        let mut bulk = Chain::new(2);
        bulk.preload(items.clone());
        let mut slow = Chain::new(2);
        for (key, value) in items {
            slow.execute(&[], vec![TxnWrite { key, value }]);
        }
        for i in 0..2 {
            assert_eq!(bulk.replica(i).durable_log(), slow.replica(i).durable_log());
            assert_eq!(bulk.replica(i).len(), slow.replica(i).len());
            for k in 0..120 {
                assert_eq!(bulk.replica(i).get(k), slow.replica(i).get(k));
            }
        }
        bulk.check_consistency().unwrap();
        // Follow-on transactions get identical ids.
        let a = bulk.execute(&[], vec![w(1, 9)]).txn_id;
        let b = slow.execute(&[], vec![w(1, 9)]).txn_id;
        assert_eq!(a, b);
    }

    #[test]
    fn preload_after_writes_still_matches() {
        let mut bulk = Chain::new(2);
        bulk.execute(&[], vec![w(7, 0x07)]);
        bulk.preload((0..50u64).map(|k| (k, vec![k as u8; 8])));
        let mut slow = Chain::new(2);
        slow.execute(&[], vec![w(7, 0x07)]);
        for k in 0..50u64 {
            slow.execute(&[], vec![TxnWrite { key: k, value: vec![k as u8; 8] }]);
        }
        for i in 0..2 {
            assert_eq!(bulk.replica(i).durable_log(), slow.replica(i).durable_log());
            assert_eq!(bulk.replica(i).get(7), slow.replica(i).get(7));
        }
    }

    #[test]
    fn empty_preload_on_a_used_chain_persists_nothing() {
        let mut chain = Chain::new(2);
        chain.execute(&[], vec![w(1, 0x01)]);
        let tail = chain.replica_mut(0).apply(crate::WalRecord { txn_id: 99, writes: vec![(2, vec![2; 4])] });
        chain.preload(Vec::new());
        assert_eq!(chain.replica(0).durable_len(), tail, "the unpersisted record stays volatile");
        chain.replica_mut(0).crash();
        chain.replica_mut(0).recover();
        assert!(chain.replica(0).get(2).is_none(), "unpersisted write must not survive");
        chain.check_consistency().unwrap();
    }

    mod differential {
        use proptest::prelude::*;

        use super::super::*;
        use crate::reference::{assert_same, RefCc, RefChain};
        use crate::WalRecord;

        /// Keys are drawn from `0..KEYS`, so transactions collide often.
        const KEYS: u64 = 16;

        #[derive(Debug, Clone)]
        enum CcOp {
            Admit(u64, Vec<u64>),
            Release(u64, Vec<u64>),
        }

        fn cc_op() -> impl Strategy<Value = CcOp> {
            let keys = || proptest::collection::vec(0u64..6, 0..5);
            prop_oneof![
                (0u64..5, keys()).prop_map(|(t, k)| CcOp::Admit(t, k)),
                (0u64..5, keys()).prop_map(|(t, k)| CcOp::Release(t, k)),
            ]
        }

        #[derive(Debug, Clone)]
        enum ChainOp {
            Execute(Vec<u64>, Vec<(u64, u8, usize)>),
            Preload(Vec<(u64, u8, usize)>),
            /// Appends an unpersisted record to one replica.
            Tamper(usize, u64, u8),
            CrashRecover(usize),
        }

        fn writes(max: usize) -> impl Strategy<Value = Vec<(u64, u8, usize)>> {
            proptest::collection::vec((0..KEYS, any::<u8>(), 0usize..5), 0..max)
        }

        fn chain_op() -> impl Strategy<Value = ChainOp> {
            let execute = || {
                (proptest::collection::vec(0..KEYS + 2, 0..5), writes(4))
                    .prop_map(|(r, w)| ChainOp::Execute(r, w))
            };
            prop_oneof![
                execute(),
                execute(),
                execute(),
                execute(),
                writes(6).prop_map(ChainOp::Preload),
                (0usize..4, 0..KEYS, any::<u8>()).prop_map(|(i, k, b)| ChainOp::Tamper(i, k, b)),
                (0usize..4).prop_map(ChainOp::CrashRecover),
            ]
        }

        fn txn_writes(w: &[(u64, u8, usize)]) -> Vec<TxnWrite> {
            w.iter().map(|&(key, b, len)| TxnWrite { key, value: vec![b; len] }).collect()
        }

        fn pairs(w: &[(u64, u8, usize)]) -> Vec<(u64, Vec<u8>)> {
            w.iter().map(|&(key, b, len)| (key, vec![b; len])).collect()
        }

        proptest! {
            /// The slot-vector unit returns the per-key-queue unit's counts.
            #[test]
            fn slot_vector_cc_matches_reference(ops in proptest::collection::vec(cc_op(), 0..60)) {
                let mut cc = ConcurrencyControl::new();
                let mut r = RefCc::default();
                for op in ops {
                    match op {
                        CcOp::Admit(t, keys) => {
                            prop_assert_eq!(cc.admit(t, keys.iter().copied()), r.admit(t, keys));
                        }
                        CcOp::Release(t, keys) => {
                            cc.release(t, keys.iter().copied());
                            r.release(t, keys);
                        }
                    }
                    prop_assert_eq!(cc.busy_keys(), r.busy_keys());
                }
            }

            /// A chain of arena stores returns the reference chain's outcomes
            /// and holds the same replica state after every step.
            #[test]
            fn arena_chain_matches_reference(replicas in 1usize..5,
                                             initial in writes(8),
                                             ops in proptest::collection::vec(chain_op(), 0..60)) {
                let mut chain = Chain::new(replicas);
                let mut r = RefChain::new(replicas);
                chain.preload(pairs(&initial));
                r.preload(pairs(&initial));
                for op in ops {
                    match op {
                        ChainOp::Execute(reads, w) => {
                            let got = chain.execute(&reads, txn_writes(&w));
                            prop_assert_eq!(got, r.execute(&reads, txn_writes(&w)));
                        }
                        ChainOp::Preload(w) => {
                            chain.preload(pairs(&w));
                            r.preload(pairs(&w));
                        }
                        ChainOp::Tamper(i, key, b) => {
                            let record = WalRecord { txn_id: 1 << 40, writes: vec![(key, vec![b; 3])] };
                            chain.replica_mut(i % replicas).apply(record.clone());
                            r.replicas[i % replicas].apply(record);
                        }
                        ChainOp::CrashRecover(i) => {
                            chain.replica_mut(i % replicas).crash();
                            chain.replica_mut(i % replicas).recover();
                            r.replicas[i % replicas].crash();
                            r.replicas[i % replicas].recover();
                        }
                    }
                    for i in 0..replicas {
                        assert_same(chain.replica(i), &r.replicas[i], KEYS + 2);
                    }
                    prop_assert_eq!(chain.concurrency_control().busy_keys(), r.cc.busy_keys());
                }
            }
        }
    }
}
