//! Property-based tests: the MICA-style store against a model (HashMap).

use std::collections::HashMap;

use proptest::prelude::*;
use rambda_kvs::store::{KvConfig, KvStore};

#[derive(Debug, Clone)]
enum Op {
    Get(u64),
    Put(u64, Vec<u8>),
    Remove(u64),
}

/// Values of 0–24 B, so updates shrink in place and grow by appending,
/// and freed value indices are reused by longer values.
fn op_strategy(keys: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..keys).prop_map(Op::Get),
        (0..keys, proptest::collection::vec(any::<u8>(), 0..25)).prop_map(|(k, v)| Op::Put(k, v)),
        (0..keys).prop_map(Op::Remove),
    ]
}

proptest! {
    /// The store behaves exactly like a HashMap under any operation
    /// sequence, including heavy collisions (tiny bucket table).
    #[test]
    fn store_matches_model(ops in proptest::collection::vec(op_strategy(64), 1..400)) {
        let mut store = KvStore::new(KvConfig { buckets: 4, value_bytes: 8 });
        let mut model: HashMap<u64, Vec<u8>> = HashMap::new();
        for op in ops {
            match op {
                Op::Get(k) => {
                    let (got, trace) = store.get(k);
                    prop_assert_eq!(got.map(<[u8]>::to_vec), model.get(&k).cloned());
                    prop_assert_eq!(trace.hit, model.contains_key(&k));
                }
                Op::Put(k, v) => {
                    let trace = store.put(k, v.clone());
                    prop_assert_eq!(trace.hit, model.contains_key(&k));
                    model.insert(k, v);
                }
                Op::Remove(k) => {
                    let (old, _) = store.remove(k);
                    prop_assert_eq!(old, model.remove(&k));
                }
            }
            prop_assert_eq!(store.len(), model.len());
        }
    }

    /// Access traces are sane: every op touches at least one bucket line,
    /// and GET value reads happen exactly on hits.
    #[test]
    fn traces_are_consistent(keys in proptest::collection::vec(0u64..1000, 1..200)) {
        let mut store = KvStore::new(KvConfig::for_pairs(1000, 16));
        for (i, &k) in keys.iter().enumerate() {
            let t = store.put(k, vec![i as u8; 16]);
            prop_assert!(t.bucket_reads >= 1);
            prop_assert!(t.writes >= 1);
        }
        for &k in &keys {
            let (v, t) = store.get(k);
            prop_assert!(v.is_some());
            prop_assert_eq!(t.value_reads, 1);
            prop_assert!(t.accesses() >= 2);
        }
        let (v, t) = store.get(1_000_000);
        prop_assert!(v.is_none());
        prop_assert_eq!(t.value_reads, 0);
    }

    /// Footprint never shrinks as pairs are added and stays line-aligned.
    #[test]
    fn footprint_is_monotone(n in 1usize..500) {
        let mut store = KvStore::new(KvConfig::for_pairs(500, 32));
        let mut last = store.footprint_bytes();
        for k in 0..n as u64 {
            store.put(k, vec![0; 32]);
            let f = store.footprint_bytes();
            prop_assert!(f >= last);
            last = f;
        }
    }
}
