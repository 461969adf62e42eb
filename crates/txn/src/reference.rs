//! The `BTreeMap`-and-`Vec<WalRecord>` store, the per-key-`VecDeque`
//! concurrency-control unit and the record-cloning chain that the arena
//! store replaced, kept as reference models for the differential tests.
//!
//! They are the replaced code with two bug fixes applied: `preload` persists
//! only what it appended, and `persist_through` rejects an index past the
//! log's end.

use std::collections::{BTreeMap, VecDeque};

use crate::chain::{TxnOutcome, TxnWrite};
use crate::store::{PersistentStore, WalRecord};

/// Asserts that `s` and `r` agree on every observation: `get` over keys
/// `0..keys`, `len`, `log_len`, `durable_len` and `durable_log`.
pub fn assert_same(s: &PersistentStore, r: &RefStore, keys: u64) {
    for key in 0..keys {
        assert_eq!(s.get(key), r.get(key), "key {key}");
    }
    assert_eq!(s.len(), r.len());
    assert_eq!(s.log_len(), r.log_len());
    assert_eq!(s.durable_len(), r.durable_len());
    assert_eq!(s.durable_log(), r.durable_log());
}

/// Memtable over a log of owned records.
#[derive(Debug, Clone, Default)]
pub struct RefStore {
    memtable: BTreeMap<u64, Vec<u8>>,
    wal: Vec<WalRecord>,
    durable: usize,
}

impl RefStore {
    pub fn len(&self) -> usize {
        self.memtable.len()
    }

    pub fn get(&self, key: u64) -> Option<&[u8]> {
        self.memtable.get(&key).map(|v| v.as_slice())
    }

    pub fn apply(&mut self, record: WalRecord) -> usize {
        for (k, v) in &record.writes {
            self.memtable.insert(*k, v.clone());
        }
        self.wal.push(record);
        self.wal.len() - 1
    }

    pub fn preload(&mut self, records: Vec<WalRecord>) {
        let appended = !records.is_empty();
        for r in &records {
            for (k, v) in &r.writes {
                self.memtable.insert(*k, v.clone());
            }
        }
        self.wal.extend(records);
        if appended {
            self.durable = self.wal.len();
        }
    }

    pub fn persist_through(&mut self, index: usize) {
        assert!(index < self.wal.len(), "persist_through({index}) past the log's end ({})", self.wal.len());
        self.durable = self.durable.max(index + 1);
    }

    pub fn durable_len(&self) -> usize {
        self.durable
    }

    pub fn log_len(&self) -> usize {
        self.wal.len()
    }

    pub fn durable_log(&self) -> &[WalRecord] {
        &self.wal[..self.durable]
    }

    pub fn crash(&mut self) {
        self.memtable.clear();
        self.wal.truncate(self.durable);
    }

    pub fn recover(&mut self) {
        self.memtable.clear();
        for rec in &self.wal {
            for (k, v) in &rec.writes {
                self.memtable.insert(*k, v.clone());
            }
        }
    }
}

/// Per-key FIFO admission over `BTreeMap<key, VecDeque<txn>>`.
#[derive(Debug, Clone, Default)]
pub struct RefCc {
    queues: BTreeMap<u64, VecDeque<u64>>,
}

impl RefCc {
    pub fn admit(&mut self, txn: u64, keys: impl IntoIterator<Item = u64>) -> usize {
        let mut ahead = Vec::new();
        for key in keys {
            let q = self.queues.entry(key).or_default();
            for &other in q.iter() {
                if other != txn && !ahead.contains(&other) {
                    ahead.push(other);
                }
            }
            if !q.contains(&txn) {
                q.push_back(txn);
            }
        }
        ahead.len()
    }

    pub fn release(&mut self, txn: u64, keys: impl IntoIterator<Item = u64>) {
        for key in keys {
            if let Some(q) = self.queues.get_mut(&key) {
                q.retain(|&t| t != txn);
                if q.is_empty() {
                    self.queues.remove(&key);
                }
            }
        }
    }

    pub fn busy_keys(&self) -> usize {
        self.queues.len()
    }
}

/// A chain that clones each record once per replica.
#[derive(Debug, Clone)]
pub struct RefChain {
    pub replicas: Vec<RefStore>,
    pub cc: RefCc,
    next_txn: u64,
}

impl RefChain {
    pub fn new(replicas: usize) -> Self {
        RefChain { replicas: vec![RefStore::default(); replicas], cc: RefCc::default(), next_txn: 0 }
    }

    pub fn execute(&mut self, reads: &[u64], writes: Vec<TxnWrite>) -> TxnOutcome {
        let txn_id = self.next_txn;
        self.next_txn += 1;
        let keys: Vec<u64> = reads.iter().copied().chain(writes.iter().map(|w| w.key)).collect();
        let conflicts_waited = self.cc.admit(txn_id, keys.iter().copied());
        let read_values = reads.iter().map(|&k| self.replicas[0].get(k).map(|v| v.to_vec())).collect();
        if !writes.is_empty() {
            let record = WalRecord { txn_id, writes: writes.into_iter().map(|w| (w.key, w.value)).collect() };
            for replica in &mut self.replicas {
                let idx = replica.apply(record.clone());
                replica.persist_through(idx);
            }
        }
        self.cc.release(txn_id, keys);
        TxnOutcome { txn_id, reads: read_values, conflicts_waited }
    }

    pub fn preload(&mut self, items: impl IntoIterator<Item = (u64, Vec<u8>)>) {
        let records: Vec<WalRecord> = items
            .into_iter()
            .map(|(key, value)| {
                let txn_id = self.next_txn;
                self.next_txn += 1;
                WalRecord { txn_id, writes: vec![(key, value)] }
            })
            .collect();
        if self.replicas.iter().all(|r| r.log_len() == 0) {
            self.replicas[0].preload(records);
            let head = self.replicas[0].clone();
            for replica in &mut self.replicas[1..] {
                *replica = head.clone();
            }
        } else {
            for replica in &mut self.replicas[1..] {
                replica.preload(records.clone());
            }
            self.replicas[0].preload(records);
        }
    }
}
