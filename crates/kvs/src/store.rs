//! The functional MICA-style key-value store (Sec. IV-A).
//!
//! Layout follows the paper's description: a set-associative hash table
//! whose bucket entries hold a key tag and a pointer into a slab-allocated
//! value pool; full buckets chain to freshly allocated overflow buckets.
//! Each bucket is one 128 B block aligned to a cache line: the line of its
//! eight keys, then its eight value indices and its chain link, so a walk
//! reads one key line per bucket (DESIGN.md §12.6).
//! Every operation returns an [`OpTrace`] counting the distinct memory
//! locations it touched (bucket lines, chained bucket lines, the value
//! slab), which the serving designs translate into timed memory accesses.

use serde::{Deserialize, Serialize};

/// Bucket associativity (entries per bucket line).
const WAYS: usize = 8;

/// Store geometry.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KvConfig {
    /// Number of primary buckets (rounded up to a power of two).
    pub buckets: usize,
    /// Value bytes per pair (64 B in the evaluation).
    pub value_bytes: usize,
}

impl KvConfig {
    /// Geometry sized for `pairs` pairs at ~50 % primary-bucket load.
    pub fn for_pairs(pairs: usize, value_bytes: usize) -> Self {
        let buckets = (pairs * 2 / WAYS).next_power_of_two().max(16);
        KvConfig { buckets, value_bytes }
    }
}

/// The memory touches of one operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct OpTrace {
    /// Bucket lines read (primary + chained).
    pub bucket_reads: usize,
    /// Value-slab lines read.
    pub value_reads: usize,
    /// Lines written (bucket update and/or value store).
    pub writes: usize,
    /// Whether the key was found (GET) / replaced (PUT).
    pub hit: bool,
}

impl OpTrace {
    /// Total memory accesses of the operation.
    pub fn accesses(&self) -> usize {
        self.bucket_reads + self.value_reads + self.writes
    }
}

/// The value index of an empty way, and the link of the last bucket in a
/// chain.
const NONE: u32 = u32::MAX;

/// One bucket: the line of its keys, then each way's value index (`NONE`
/// for an empty way) and the chained overflow bucket (an index into
/// `overflow`, `NONE` for none), per Sec. IV-A: "another bucket with the
/// same format will be allocated and linked to the existing bucket by a
/// pointer".
#[derive(Debug, Clone, Copy)]
#[repr(C, align(64))]
struct Bucket {
    keys: [u64; WAYS],
    values: [u32; WAYS],
    next: u32,
}

const _: () = assert!(std::mem::size_of::<Bucket>() == 128);

impl Bucket {
    const EMPTY: Bucket = Bucket { keys: [0; WAYS], values: [NONE; WAYS], next: NONE };

    /// The way holding `key`, if any.
    fn way_of(&self, key: u64) -> Option<usize> {
        (0..WAYS).find(|&w| self.keys[w] == key && self.values[w] != NONE)
    }
}

/// An index into `spans` or `overflow`; `NONE` stays a sentinel.
fn index(len: usize) -> u32 {
    u32::try_from(len).ok().filter(|&i| i != NONE).expect("fewer than u32::MAX values and buckets")
}

/// The store.
#[derive(Debug, Clone)]
pub struct KvStore {
    cfg: KvConfig,
    mask: u64,
    buckets: Vec<Bucket>,
    overflow: Vec<Bucket>,
    /// The slab-allocated value pool: one flat byte arena instead of one
    /// heap allocation per value, so bulk loads and serving-path PUTs do
    /// not touch the allocator.
    pool: Vec<u8>,
    /// Per value-index `(offset, len)` span into `pool`. A removed index
    /// keeps `len == 0` until the slot is reused.
    spans: Vec<(usize, u32)>,
    free_values: Vec<u32>,
    len: usize,
}

/// A 64-bit mix (splitmix64 finalizer) standing in for the APU's pipelined
/// hash unit.
pub(crate) fn hash64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl KvStore {
    /// Creates an empty store.
    pub fn new(cfg: KvConfig) -> Self {
        let buckets = cfg.buckets.next_power_of_two();
        KvStore {
            mask: buckets as u64 - 1,
            buckets: vec![Bucket::EMPTY; buckets],
            overflow: Vec::new(),
            pool: Vec::new(),
            spans: Vec::new(),
            free_values: Vec::new(),
            cfg: KvConfig { buckets, ..cfg },
            len: 0,
        }
    }

    /// Number of stored pairs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The configured geometry.
    pub fn config(&self) -> &KvConfig {
        &self.cfg
    }

    /// Approximate resident bytes (hash lines + values): the footprint used
    /// for cache-hit modelling. Each bucket counts as the one 64 B line the
    /// APU reads.
    pub fn footprint_bytes(&self) -> u64 {
        let bucket_lines = (self.buckets.len() + self.overflow.len()) as u64 * 64;
        let value_bytes = self.spans.iter().map(|&(_, len)| (len as u64).max(64)).sum::<u64>();
        bucket_lines + value_bytes
    }

    /// The bytes of value index `idx`.
    fn value(&self, idx: u32) -> &[u8] {
        let (off, len) = self.spans[idx as usize];
        &self.pool[off..off + len as usize]
    }

    fn bucket_index(&self, key: u64) -> usize {
        (hash64(key) & self.mask) as usize
    }

    /// Walks the chain of primary bucket `bi` for `key`: the bucket lines
    /// read, and the bucket and way that hold `key`, if one does.
    fn find(&self, bi: usize, key: u64) -> (usize, Option<(BucketRef, usize)>) {
        let mut at = BucketRef::Primary(bi);
        let mut reads = 1;
        loop {
            let bucket = self.bucket(at);
            if let Some(way) = bucket.way_of(key) {
                return (reads, Some((at, way)));
            }
            if bucket.next == NONE {
                return (reads, None);
            }
            reads += 1;
            at = BucketRef::Overflow(bucket.next as usize);
        }
    }

    /// Reads the value for `key`.
    pub fn get(&self, key: u64) -> (Option<&[u8]>, OpTrace) {
        let (bucket_reads, found) = self.find(self.bucket_index(key), key);
        match found {
            Some((at, way)) => {
                let trace = OpTrace { bucket_reads, value_reads: 1, writes: 0, hit: true };
                (Some(self.value(self.bucket(at).values[way])), trace)
            }
            None => (None, OpTrace { bucket_reads, ..OpTrace::default() }),
        }
    }

    /// Inserts or updates `key`.
    pub fn put(&mut self, key: u64, value: Vec<u8>) -> OpTrace {
        self.put_slice(key, &value)
    }

    /// Stores `value` into the pool at `idx`'s span, reusing the existing
    /// region when it fits and appending to the pool end otherwise (the
    /// stale region stays leaked in the arena — invisible to the modelled
    /// footprint, which reads spans only).
    fn store_value(&mut self, idx: u32, value: &[u8]) {
        let (off, len) = self.spans[idx as usize];
        if value.len() <= len as usize {
            self.pool[off..off + value.len()].copy_from_slice(value);
            self.spans[idx as usize] = (off, value.len() as u32);
        } else {
            let off = self.pool.len();
            self.pool.extend_from_slice(value);
            self.spans[idx as usize] = (off, value.len() as u32);
        }
    }

    /// Inserts or updates `key` from a borrowed value — the allocation-free
    /// hot path used by the serving designs.
    pub fn put_slice(&mut self, key: u64, value: &[u8]) -> OpTrace {
        self.put_at(self.bucket_index(key), key, value)
    }

    /// `put_slice` of a key whose primary bucket is `bi`.
    fn put_at(&mut self, bi: usize, key: u64, value: &[u8]) -> OpTrace {
        // Update in place if present.
        let (bucket_reads, found) = self.find(bi, key);
        if let Some((at, way)) = found {
            self.store_value(self.bucket(at).values[way], value);
            // The value store is the one write.
            return OpTrace { bucket_reads, value_reads: 0, writes: 1, hit: true };
        }

        // Allocate from the slab pool and take the first empty way
        // (allocating a chained bucket on a full chain — hash collision).
        let value_idx = match self.free_values.pop() {
            Some(i) => {
                self.store_value(i, value);
                i
            }
            None => {
                let idx = index(self.spans.len());
                self.spans.push((self.pool.len(), value.len() as u32));
                self.pool.extend_from_slice(value);
                idx
            }
        };
        // Bucket entry + value store, plus the link write of a chained
        // bucket allocated on the way.
        let mut writes = 2;
        let mut at = BucketRef::Primary(bi);
        loop {
            let bucket = self.bucket_mut(at);
            if let Some(way) = bucket.values.iter().position(|&v| v == NONE) {
                bucket.keys[way] = key;
                bucket.values[way] = value_idx;
                self.len += 1;
                return OpTrace { bucket_reads, value_reads: 0, writes, hit: false };
            }
            let next = bucket.next;
            at = if next == NONE {
                let n = index(self.overflow.len());
                self.overflow.push(Bucket::EMPTY);
                self.bucket_mut(at).next = n;
                writes += 1;
                BucketRef::Overflow(n as usize)
            } else {
                BucketRef::Overflow(next as usize)
            };
        }
    }

    /// Loads `pairs` into the store, leaving it as `put_slice` calls on
    /// each pair in turn would, but working through the table in bucket
    /// order: it hashes every key once, orders the pairs stably by primary
    /// bucket with a counting sort, reserves the value pool and the span
    /// table once, and inserts each pair with `put_slice`'s own logic.
    ///
    /// The pairs of one bucket keep their relative order, and a bucket's
    /// chain holds only keys of that bucket, so every key lands in the way
    /// and chain link it would take under the sequential calls, duplicates
    /// and an already filled store included (DESIGN.md §12.6). `pairs` is
    /// walked twice and must yield the same pairs both times, as an
    /// iterator over a collection or a range does.
    pub fn bulk_load<'v, I>(&mut self, pairs: I)
    where
        I: IntoIterator<Item = (u64, &'v [u8])>,
        I::IntoIter: Clone,
    {
        let pairs = pairs.into_iter();
        // Bucket indices and positions are `u32`s, halving the scratch.
        let mut homes = Vec::with_capacity(pairs.size_hint().0);
        let mut cursor = vec![0u32; self.buckets.len()];
        let mut bytes = 0;
        for (key, value) in pairs.clone() {
            let bi = self.bucket_index(key);
            homes.push(u32::try_from(bi).expect("fewer than 2^32 buckets"));
            cursor[bi] += 1;
            bytes += value.len();
        }
        u32::try_from(homes.len()).expect("fewer than 2^32 pairs per load");
        // Counts become each bucket's first position, then, as the pairs
        // are scattered, the end of its run.
        let mut start = 0;
        for c in &mut cursor {
            (*c, start) = (start, start + *c);
        }
        let mut sorted: Vec<(u64, &[u8])> = vec![(0, &[]); homes.len()];
        for ((key, value), &bi) in pairs.zip(&homes) {
            debug_assert_eq!(bi as usize, self.bucket_index(key), "`pairs` changed between its walks");
            let at = &mut cursor[bi as usize];
            sorted[*at as usize] = (key, value);
            *at += 1;
        }
        drop(homes);
        self.pool.reserve(bytes);
        self.spans.reserve(sorted.len());
        let mut start = 0;
        for (bi, &end) in cursor.iter().enumerate() {
            for &(key, value) in &sorted[start..end as usize] {
                self.put_at(bi, key, value);
            }
            start = end as usize;
        }
    }

    /// Removes `key`; returns the old value if present.
    pub fn remove(&mut self, key: u64) -> (Option<Vec<u8>>, OpTrace) {
        let (bucket_reads, found) = self.find(self.bucket_index(key), key);
        let Some((at, way)) = found else {
            return (None, OpTrace { bucket_reads, ..OpTrace::default() });
        };
        let idx = std::mem::replace(&mut self.bucket_mut(at).values[way], NONE);
        self.len -= 1;
        self.free_values.push(idx);
        let (off, len) = self.spans[idx as usize];
        let value = self.pool[off..off + len as usize].to_vec();
        // Zero the span (the freed region stays leaked, as an owner-less
        // arena hole) so the footprint model sees an empty slot, like the
        // old per-value slab.
        self.spans[idx as usize] = (off, 0);
        (Some(value), OpTrace { bucket_reads, value_reads: 0, writes: 1, hit: true })
    }

    fn bucket(&self, r: BucketRef) -> &Bucket {
        match r {
            BucketRef::Primary(i) => &self.buckets[i],
            BucketRef::Overflow(i) => &self.overflow[i],
        }
    }

    fn bucket_mut(&mut self, r: BucketRef) -> &mut Bucket {
        match r {
            BucketRef::Primary(i) => &mut self.buckets[i],
            BucketRef::Overflow(i) => &mut self.overflow[i],
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum BucketRef {
    Primary(usize),
    Overflow(usize),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::RefStore;

    fn store() -> KvStore {
        KvStore::new(KvConfig::for_pairs(10_000, 64))
    }

    #[test]
    fn put_get_round_trip() {
        let mut s = store();
        let t = s.put(42, vec![7u8; 64]);
        assert_eq!(t.writes, 2);
        assert!(!t.hit);
        let (v, t) = s.get(42);
        assert_eq!(v.unwrap(), &[7u8; 64][..]);
        assert!(t.hit);
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn get_missing_reports_miss() {
        let s = store();
        let (v, t) = s.get(999);
        assert!(v.is_none());
        assert!(!t.hit);
        assert_eq!(t.accesses(), 1);
    }

    #[test]
    fn update_in_place_reuses_slab() {
        let mut s = store();
        s.put(1, vec![1; 64]);
        let t = s.put(1, vec![2; 64]);
        assert!(t.hit);
        assert_eq!(t.writes, 1);
        assert_eq!(s.len(), 1);
        assert_eq!(s.get(1).0.unwrap()[0], 2);
    }

    #[test]
    fn get_trace_matches_paper_average() {
        // "on average, each GET request requires three memory accesses and
        // each PUT requires four" — bucket + value (+ entry/value writes) at
        // moderate load, plus occasional chain walks.
        let mut s = KvStore::new(KvConfig::for_pairs(100_000, 64));
        for k in 0..100_000u64 {
            s.put(k, vec![0; 64]);
        }
        let mut get_total = 0usize;
        for k in 0..100_000u64 {
            let (v, t) = s.get(k);
            assert!(v.is_some());
            // +1: the request itself is read from the ring in the serving
            // path, giving the paper's 3 total for in-structure accesses.
            get_total += t.accesses();
        }
        let avg = get_total as f64 / 100_000.0;
        assert!((2.0..2.5).contains(&avg), "avg={avg}");
    }

    #[test]
    fn collisions_chain_and_remain_reachable() {
        // Tiny table to force chains.
        let mut s = KvStore::new(KvConfig { buckets: 16, value_bytes: 8 });
        for k in 0..2_000u64 {
            s.put(k, k.to_le_bytes().to_vec());
        }
        assert_eq!(s.len(), 2000);
        let mut chained = false;
        for k in 0..2_000u64 {
            let (v, t) = s.get(k);
            assert_eq!(v.unwrap(), &k.to_le_bytes()[..]);
            chained |= t.bucket_reads > 1;
        }
        assert!(chained, "expected some chain walks in an overloaded table");
    }

    #[test]
    fn an_insert_that_allocates_a_chained_bucket_writes_its_link() {
        // One primary bucket: the ninth new key allocates a chained bucket
        // and writes its link besides the entry and the value. No serving
        // run takes this path: `KvsParams::loaded_store` preloads keys
        // `0..pairs` and every serving PUT updates one of them in place, so
        // reports do not move.
        let cfg = KvConfig { buckets: 1, value_bytes: 8 };
        let (mut store, mut reference) = (KvStore::new(cfg.clone()), RefStore::new(cfg));
        let mut put = |k: u64| {
            let trace = store.put_slice(k, &[k as u8; 8]);
            assert_eq!(trace, reference.put_slice(k, &[k as u8; 8]), "key {k}");
            trace.writes
        };
        for k in 0..8 {
            assert_eq!(put(k), 2, "key {k} fills a way of the primary bucket");
        }
        assert_eq!(put(8), 3, "entry, value and the new bucket's link");
        assert_eq!(put(9), 2, "the chained bucket is already linked");
    }

    #[test]
    fn remove_frees_and_reuses_slab_slots() {
        let mut s = store();
        s.put(1, vec![1; 64]);
        s.put(2, vec![2; 64]);
        let (v, t) = s.remove(1);
        assert_eq!(v.unwrap(), vec![1; 64]);
        assert!(t.hit);
        assert_eq!(s.len(), 1);
        assert!(s.get(1).0.is_none());
        // Slab slot is recycled.
        s.put(3, vec![3; 64]);
        assert_eq!(s.get(3).0.unwrap(), &[3u8; 64][..]);
        let (gone, _) = s.remove(99);
        assert!(gone.is_none());
    }

    #[test]
    fn footprint_grows_with_content() {
        let mut s = store();
        let before = s.footprint_bytes();
        for k in 0..1000 {
            s.put(k, vec![0; 64]);
        }
        assert!(s.footprint_bytes() > before);
    }

    #[test]
    fn bulk_load_equals_sequential_puts_at_scale() {
        // The paper-scale geometry at 1/10: ~50 % primary load, a few
        // chains. Every GET trace pins each key's chain link.
        let pairs = 100_000u64;
        let cfg = KvConfig::for_pairs(pairs as usize, 64);
        let values: Vec<Vec<u8>> = (0..=255u8).map(|b| vec![b; 64]).collect();
        let mut loaded = KvStore::new(cfg.clone());
        loaded.bulk_load((0..pairs).map(|k| (k, values[(k & 0xFF) as usize].as_slice())));
        let mut reference = RefStore::new(cfg);
        for k in 0..pairs {
            reference.put_slice(k, &values[(k & 0xFF) as usize]);
        }
        assert!(!loaded.overflow.is_empty(), "the load must chain somewhere");
        for k in 0..pairs + 1_000 {
            assert_eq!(loaded.get(k), reference.get(k), "key {k}");
        }
        assert_eq!(loaded.len(), reference.len());
        assert_eq!(loaded.footprint_bytes(), reference.footprint_bytes());
    }

    #[test]
    fn hash_is_deterministic_and_spreads() {
        assert_eq!(hash64(123), hash64(123));
        let mut low = 0;
        for k in 0..1000u64 {
            if hash64(k) & 1 == 0 {
                low += 1;
            }
        }
        assert!((400..600).contains(&low), "low={low}");
    }

    mod differential {
        use proptest::prelude::*;

        use super::super::*;
        use crate::reference::RefStore;

        /// Keys are drawn from `0..KEYS`: with at most 16 buckets, loads
        /// repeat keys and overfill buckets into chains.
        const KEYS: u64 = 160;

        #[derive(Debug, Clone)]
        enum Op {
            Get(u64),
            /// Through `put` (`true`) or `put_slice` (`false`).
            Put(bool, u64, Vec<u8>),
            Remove(u64),
            Load(Vec<(u64, Vec<u8>)>),
        }

        /// 0–24 B, so updates shrink in place, grow by appending, and
        /// reuse freed value indices with longer values.
        fn value() -> impl Strategy<Value = Vec<u8>> {
            proptest::collection::vec(any::<u8>(), 0..25)
        }

        fn pairs(max: usize) -> impl Strategy<Value = Vec<(u64, Vec<u8>)>> {
            proptest::collection::vec((0..KEYS, value()), 0..max)
        }

        fn op() -> impl Strategy<Value = Op> {
            let get = || (0..KEYS).prop_map(Op::Get);
            let put = || (any::<bool>(), 0..KEYS, value()).prop_map(|(owned, k, v)| Op::Put(owned, k, v));
            let remove = || (0..KEYS).prop_map(Op::Remove);
            prop_oneof![
                get(),
                get(),
                get(),
                put(),
                put(),
                put(),
                remove(),
                remove(),
                pairs(80).prop_map(Op::Load)
            ]
        }

        /// Loads `pairs` into `s` in bucket order, and into `r` with one
        /// `put_slice` after another.
        fn load(s: &mut KvStore, r: &mut RefStore, pairs: &[(u64, Vec<u8>)]) {
            s.bulk_load(pairs.iter().map(|(k, v)| (*k, v.as_slice())));
            for (k, v) in pairs {
                r.put_slice(*k, v);
            }
        }

        /// Every observation agrees: each key's value and `OpTrace`, `len`
        /// and `footprint_bytes`.
        fn assert_same(s: &KvStore, r: &RefStore) {
            for key in 0..KEYS {
                assert_eq!(s.get(key), r.get(key), "key {key}");
            }
            assert_eq!(s.len(), r.len());
            assert_eq!(s.footprint_bytes(), r.footprint_bytes());
        }

        proptest! {
            /// The bucket-line store and its bulk loader are observationally
            /// identical to the `Option<Slot>` store fed one `put_slice` at
            /// a time, from a load into a fresh table of 1–16 buckets
            /// through any sequence of operations and loads.
            #[test]
            fn bucket_line_store_matches_reference(buckets in 1usize..=16,
                                                  initial in pairs(320),
                                                  ops in proptest::collection::vec(op(), 0..60)) {
                let cfg = KvConfig { buckets, value_bytes: 8 };
                let mut s = KvStore::new(cfg.clone());
                let mut r = RefStore::new(cfg);
                prop_assert_eq!(s.config().buckets, buckets.next_power_of_two());
                load(&mut s, &mut r, &initial);
                assert_same(&s, &r);
                for op in ops {
                    match op {
                        Op::Get(k) => prop_assert_eq!(s.get(k), r.get(k)),
                        Op::Put(owned, k, v) => {
                            let got = if owned { s.put(k, v.clone()) } else { s.put_slice(k, &v) };
                            prop_assert_eq!(got, r.put_slice(k, &v));
                        }
                        Op::Remove(k) => prop_assert_eq!(s.remove(k), r.remove(k)),
                        Op::Load(pairs) => load(&mut s, &mut r, &pairs),
                    }
                    assert_same(&s, &r);
                }
            }
        }
    }
}
