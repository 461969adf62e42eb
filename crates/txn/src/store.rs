//! A log-structured persistent key-value store over (simulated) NVM.
//!
//! Stands in for RocksDB in the evaluation (Sec. VI-C): a volatile memtable
//! in front of a durable redo log. A write is durable once its log record is
//! in the NVM-backed log; crash recovery replays the durable prefix. Values
//! are addressed by their offset in the log, the offset-in-NVM discipline
//! HyperLoop uses: the log is one append-only arena, and the memtable maps
//! each key to its latest value's byte range there (DESIGN.md §12.5).

use rambda_des::DetHashMap;
use serde::{Deserialize, Serialize};

/// One durable redo-log record: a whole transaction's writes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WalRecord {
    /// Transaction id (monotonic per chain).
    pub txn_id: u64,
    /// `(key, value)` writes, applied atomically.
    pub writes: Vec<(u64, Vec<u8>)>,
}

impl WalRecord {
    /// Serialized size: the paper's log format — one count byte plus
    /// `(data, len, offset)` tuples.
    pub fn log_bytes(&self) -> u64 {
        1 + self.writes.iter().map(|(_, v)| v.len() as u64 + 4 + 8).sum::<u64>()
    }
}

/// The persistent store: a redo-log arena plus an offset-addressed memtable.
///
/// The log is three append-only vectors. Record `r`'s writes are the range
/// of `writes` from its first write up to the next record's, and write `w`'s
/// value is the range of `bytes` from the previous write's end up to its
/// own. Nothing is allocated per record or per value.
#[derive(Debug, Clone, Default)]
pub struct PersistentStore {
    /// Key → byte range of its latest value in `bytes`. Only ever probed by
    /// key, never iterated, so hash order cannot reach an output.
    memtable: DetHashMap<u64, (usize, usize)>,
    /// Per record: `(txn_id, index of its first write)`.
    records: Vec<(u64, usize)>,
    /// Per write: `(key, end offset of its value in bytes)`.
    writes: Vec<(u64, usize)>,
    /// Every value, back to back.
    bytes: Vec<u8>,
    /// Records up to `durable` survive a crash (the simulated NVM contents).
    durable: usize,
}

impl PersistentStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        PersistentStore::default()
    }

    /// Number of live keys.
    pub fn len(&self) -> usize {
        self.memtable.len()
    }

    /// Whether the store holds no keys.
    pub fn is_empty(&self) -> bool {
        self.memtable.is_empty()
    }

    /// Reads a key from the memtable.
    pub fn get(&self, key: u64) -> Option<&[u8]> {
        self.memtable.get(&key).map(|&(start, end)| &self.bytes[start..end])
    }

    /// Appends a transaction's record to the redo log (not yet durable) and
    /// applies it to the memtable. Returns the record's log index.
    pub fn append<'a>(&mut self, txn_id: u64, writes: impl IntoIterator<Item = (u64, &'a [u8])>) -> usize {
        self.records.push((txn_id, self.writes.len()));
        for (key, value) in writes {
            let start = self.bytes.len();
            self.bytes.extend_from_slice(value);
            self.memtable.insert(key, (start, self.bytes.len()));
            self.writes.push((key, self.bytes.len()));
        }
        self.records.len() - 1
    }

    /// [`append`](Self::append) for an owned record.
    pub fn apply(&mut self, record: WalRecord) -> usize {
        self.append(record.txn_id, record.writes.iter().map(|(k, v)| (*k, v.as_slice())))
    }

    /// Appends `records` and marks them durable: `apply` + `persist_through`
    /// per record. Persists nothing when `records` is empty, so a volatile
    /// tail already in the log stays volatile.
    pub fn preload(&mut self, records: impl IntoIterator<Item = WalRecord>) {
        let first = self.log_len();
        for record in records {
            self.apply(record);
        }
        self.persist_since(first);
    }

    /// Appends `src`'s records from index `first` on and marks them durable.
    pub(crate) fn preload_from(&mut self, src: &PersistentStore, first: usize) {
        let start = self.log_len();
        for r in first..src.log_len() {
            self.append(src.records[r].0, src.record_writes(r));
        }
        self.persist_since(start);
    }

    /// Marks the log durable through `index` (the NVM write completed —
    /// ADR guarantees persistence once it reaches the DIMM's write buffer).
    ///
    /// # Panics
    ///
    /// Panics if `index` is not a record in the log.
    pub fn persist_through(&mut self, index: usize) {
        let len = self.log_len();
        assert!(index < len, "persist_through({index}) is past the log's end (log_len {len})");
        self.durable = self.durable.max(index + 1);
    }

    /// Marks every record from index `first` on durable, if there are any.
    fn persist_since(&mut self, first: usize) {
        if self.log_len() > first {
            self.persist_through(self.log_len() - 1);
        }
    }

    /// Number of durable log records.
    pub fn durable_len(&self) -> usize {
        self.durable
    }

    /// Total log records (durable + volatile tail).
    pub fn log_len(&self) -> usize {
        self.records.len()
    }

    /// The durable log prefix, decoded into owned records.
    pub fn durable_log(&self) -> Vec<WalRecord> {
        (0..self.durable)
            .map(|r| WalRecord {
                txn_id: self.records[r].0,
                writes: self.record_writes(r).map(|(k, v)| (k, v.to_vec())).collect(),
            })
            .collect()
    }

    /// Simulates a crash: the memtable and the volatile log tail are lost.
    pub fn crash(&mut self) {
        let writes = self.first_write(self.durable);
        let bytes = self.value_start(writes);
        self.memtable.clear();
        self.records.truncate(self.durable);
        self.writes.truncate(writes);
        self.bytes.truncate(bytes);
    }

    /// Recovers after a crash by replaying the log into the memtable.
    pub fn recover(&mut self) {
        self.memtable.clear();
        let mut start = 0;
        for &(key, end) in &self.writes {
            self.memtable.insert(key, (start, end));
            start = end;
        }
    }

    /// Index of record `r`'s first write (`writes.len()` past the last record).
    fn first_write(&self, r: usize) -> usize {
        self.records.get(r).map_or(self.writes.len(), |&(_, w)| w)
    }

    /// Offset in `bytes` where write `w`'s value starts.
    fn value_start(&self, w: usize) -> usize {
        w.checked_sub(1).map_or(0, |prev| self.writes[prev].1)
    }

    /// Write `w`'s value.
    fn value(&self, w: usize) -> &[u8] {
        &self.bytes[self.value_start(w)..self.writes[w].1]
    }

    /// Record `r`'s writes, in order.
    fn record_writes(&self, r: usize) -> impl Iterator<Item = (u64, &[u8])> {
        (self.records[r].1..self.first_write(r + 1)).map(move |w| (self.writes[w].0, self.value(w)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, kvs: &[(u64, u8)]) -> WalRecord {
        WalRecord { txn_id: id, writes: kvs.iter().map(|&(k, b)| (k, vec![b; 8])).collect() }
    }

    #[test]
    fn apply_and_get() {
        let mut s = PersistentStore::new();
        s.apply(rec(1, &[(10, 0xAA), (11, 0xBB)]));
        assert_eq!(s.get(10).unwrap(), &[0xAA; 8]);
        assert_eq!(s.get(11).unwrap(), &[0xBB; 8]);
        assert_eq!(s.len(), 2);
        assert!(s.get(99).is_none());
    }

    #[test]
    fn log_bytes_match_paper_format() {
        let r = rec(1, &[(1, 0), (2, 0)]);
        // 1 count byte + 2 x (8 bytes data + 4 len + 8 offset).
        assert_eq!(r.log_bytes(), 1 + 2 * 20);
    }

    #[test]
    fn crash_loses_volatile_tail_only() {
        let mut s = PersistentStore::new();
        let i0 = s.apply(rec(1, &[(1, 0x01)]));
        s.persist_through(i0);
        s.apply(rec(2, &[(2, 0x02)])); // never persisted
        s.crash();
        assert_eq!(s.log_len(), 1);
        assert!(s.get(1).is_none(), "memtable lost in the crash");
        s.recover();
        assert_eq!(s.get(1).unwrap(), &[0x01; 8]);
        assert!(s.get(2).is_none(), "unpersisted txn must not reappear");
    }

    #[test]
    fn recovery_applies_log_in_order() {
        let mut s = PersistentStore::new();
        let a = s.apply(rec(1, &[(7, 0x01)]));
        s.persist_through(a);
        let b = s.apply(rec(2, &[(7, 0x02)])); // overwrites key 7
        s.persist_through(b);
        s.crash();
        s.recover();
        assert_eq!(s.get(7).unwrap(), &[0x02; 8], "later record must win");
    }

    #[test]
    fn persist_through_is_monotonic() {
        let mut s = PersistentStore::new();
        let a = s.apply(rec(1, &[(1, 1)]));
        let b = s.apply(rec(2, &[(2, 2)]));
        s.persist_through(b);
        s.persist_through(a); // regress attempt
        assert_eq!(s.durable_len(), 2);
        assert_eq!(s.durable_log().len(), 2);
    }

    #[test]
    fn empty_store_behaviour() {
        let mut s = PersistentStore::new();
        assert!(s.is_empty());
        s.crash();
        s.recover();
        assert!(s.is_empty());
    }

    #[test]
    fn empty_preload_keeps_the_volatile_tail_volatile() {
        let mut s = PersistentStore::new();
        let i0 = s.apply(rec(1, &[(1, 0x01)]));
        s.persist_through(i0);
        s.apply(rec(2, &[(2, 0x02)])); // never persisted
        s.preload(Vec::new());
        assert_eq!((s.durable_len(), s.log_len()), (1, 2), "an empty preload persists nothing");
        s.crash();
        s.recover();
        assert!(s.get(2).is_none(), "unpersisted txn must not reappear");
        assert_eq!(s.get(1).unwrap(), &[0x01; 8]);
    }

    #[test]
    #[should_panic(expected = "persist_through(3) is past the log's end (log_len 0)")]
    fn persist_through_rejects_an_index_past_the_log() {
        PersistentStore::new().persist_through(3);
    }

    mod differential {
        use proptest::prelude::*;

        use super::super::*;
        use crate::reference::{assert_same, RefStore};

        /// Keys are drawn from `0..KEYS`, so writes collide often.
        const KEYS: u64 = 12;

        #[derive(Debug, Clone)]
        enum Op {
            /// Through `apply` (`true`) or `append` (`false`).
            Write(bool, WalRecord),
            /// Persists the record at this index modulo the log length.
            Persist(usize),
            Crash,
            Recover,
            Preload(Vec<WalRecord>),
        }

        fn record() -> impl Strategy<Value = WalRecord> {
            (any::<u64>(), proptest::collection::vec((0..KEYS, any::<u8>(), 0usize..5), 0..4)).prop_map(
                |(txn_id, writes)| WalRecord {
                    txn_id,
                    writes: writes.into_iter().map(|(k, b, len)| (k, vec![b; len])).collect(),
                },
            )
        }

        fn op() -> impl Strategy<Value = Op> {
            let write = || (any::<bool>(), record()).prop_map(|(via_apply, r)| Op::Write(via_apply, r));
            prop_oneof![
                write(),
                write(),
                write(),
                any::<usize>().prop_map(Op::Persist),
                any::<usize>().prop_map(Op::Persist),
                Just(Op::Crash),
                Just(Op::Recover),
                proptest::collection::vec(record(), 0..4).prop_map(Op::Preload),
            ]
        }

        proptest! {
            /// The arena store is observationally identical to the
            /// record-per-`Vec` store under any sequence of operations,
            /// starting from a fresh preload.
            #[test]
            fn arena_store_matches_reference(initial in proptest::collection::vec(record(), 0..4),
                                             ops in proptest::collection::vec(op(), 0..60)) {
                let mut s = PersistentStore::new();
                let mut r = RefStore::default();
                s.preload(initial.clone());
                r.preload(initial);
                assert_same(&s, &r, KEYS);
                for op in ops {
                    match op {
                        Op::Write(via_apply, rec) => {
                            let got = if via_apply {
                                s.apply(rec.clone())
                            } else {
                                s.append(rec.txn_id, rec.writes.iter().map(|(k, v)| (*k, v.as_slice())))
                            };
                            prop_assert_eq!(got, r.apply(rec));
                        }
                        Op::Persist(i) if r.log_len() > 0 => {
                            s.persist_through(i % r.log_len());
                            r.persist_through(i % r.log_len());
                        }
                        Op::Persist(_) => {}
                        Op::Crash => {
                            s.crash();
                            r.crash();
                        }
                        Op::Recover => {
                            s.recover();
                            r.recover();
                        }
                        Op::Preload(records) => {
                            s.preload(records.clone());
                            r.preload(records);
                        }
                    }
                    assert_same(&s, &r, KEYS);
                }
            }
        }
    }
}
