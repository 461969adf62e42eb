//! The `[Option<Slot>; 8]`-bucket store that the bucket-line store
//! replaced, kept as the reference model for the differential tests.
//!
//! It is the replaced code under a new name, without its comments, its
//! `cfg` field and the methods the tests do not call. It has no bulk
//! loader: the tests load the same pairs into it with `put_slice`, one
//! after another.

use crate::store::{hash64, KvConfig, OpTrace};

const WAYS: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    key: u64,
    value_idx: u32,
}

#[derive(Debug, Clone)]
struct Bucket {
    slots: [Option<Slot>; WAYS],
    next: Option<u32>,
}

impl Bucket {
    fn empty() -> Self {
        Bucket { slots: [None; WAYS], next: None }
    }
}

/// The replaced store.
#[derive(Debug, Clone)]
pub struct RefStore {
    mask: u64,
    buckets: Vec<Bucket>,
    overflow: Vec<Bucket>,
    pool: Vec<u8>,
    spans: Vec<(usize, u32)>,
    free_values: Vec<u32>,
    len: usize,
}

impl RefStore {
    pub fn new(cfg: KvConfig) -> Self {
        let buckets = cfg.buckets.next_power_of_two();
        RefStore {
            mask: buckets as u64 - 1,
            buckets: vec![Bucket::empty(); buckets],
            overflow: Vec::new(),
            pool: Vec::new(),
            spans: Vec::new(),
            free_values: Vec::new(),
            len: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn footprint_bytes(&self) -> u64 {
        let bucket_lines = (self.buckets.len() + self.overflow.len()) as u64 * 64;
        let value_bytes = self.spans.iter().map(|&(_, len)| (len as u64).max(64)).sum::<u64>();
        bucket_lines + value_bytes
    }

    fn value(&self, idx: u32) -> &[u8] {
        let (off, len) = self.spans[idx as usize];
        &self.pool[off..off + len as usize]
    }

    fn bucket_index(&self, key: u64) -> usize {
        (hash64(key) & self.mask) as usize
    }

    pub fn get(&self, key: u64) -> (Option<&[u8]>, OpTrace) {
        let mut trace = OpTrace { bucket_reads: 1, ..OpTrace::default() };
        let mut bucket = &self.buckets[self.bucket_index(key)];
        loop {
            for slot in bucket.slots.iter().flatten() {
                if slot.key == key {
                    trace.value_reads = 1;
                    trace.hit = true;
                    return (Some(self.value(slot.value_idx)), trace);
                }
            }
            match bucket.next {
                Some(n) => {
                    trace.bucket_reads += 1;
                    bucket = &self.overflow[n as usize];
                }
                None => return (None, trace),
            }
        }
    }

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

    pub fn put_slice(&mut self, key: u64, value: &[u8]) -> OpTrace {
        let mut trace = OpTrace { bucket_reads: 1, ..OpTrace::default() };
        let bi = self.bucket_index(key);

        {
            let mut cursor = BucketRef::Primary(bi);
            loop {
                let bucket = self.bucket(cursor);
                if let Some(slot) = bucket.slots.iter().flatten().find(|s| s.key == key) {
                    let idx = slot.value_idx;
                    trace.writes = 1;
                    trace.hit = true;
                    self.store_value(idx, value);
                    return trace;
                }
                match bucket.next {
                    Some(n) => {
                        trace.bucket_reads += 1;
                        cursor = BucketRef::Overflow(n as usize);
                    }
                    None => break,
                }
            }
        }

        let value_idx = match self.free_values.pop() {
            Some(i) => {
                self.store_value(i, value);
                i
            }
            None => {
                let off = self.pool.len();
                self.pool.extend_from_slice(value);
                self.spans.push((off, value.len() as u32));
                (self.spans.len() - 1) as u32
            }
        };
        let mut cursor = BucketRef::Primary(bi);
        loop {
            let bucket = self.bucket_mut(cursor);
            if let Some(empty) = bucket.slots.iter_mut().find(|s| s.is_none()) {
                *empty = Some(Slot { key, value_idx });
                trace.writes += 2;
                self.len += 1;
                return trace;
            }
            match bucket.next {
                Some(n) => cursor = BucketRef::Overflow(n as usize),
                None => {
                    let n = self.overflow.len() as u32;
                    self.overflow.push(Bucket::empty());
                    self.bucket_mut(cursor).next = Some(n);
                    trace.writes += 1;
                    cursor = BucketRef::Overflow(n as usize);
                }
            }
        }
    }

    pub fn remove(&mut self, key: u64) -> (Option<Vec<u8>>, OpTrace) {
        let mut trace = OpTrace { bucket_reads: 1, ..OpTrace::default() };
        let bi = self.bucket_index(key);
        let mut cursor = BucketRef::Primary(bi);
        loop {
            let bucket = self.bucket_mut(cursor);
            for slot in bucket.slots.iter_mut() {
                if let Some(s) = slot {
                    if s.key == key {
                        let idx = s.value_idx;
                        *slot = None;
                        trace.writes = 1;
                        trace.hit = true;
                        self.len -= 1;
                        self.free_values.push(idx);
                        let (off, len) = self.spans[idx as usize];
                        let value = self.pool[off..off + len as usize].to_vec();
                        self.spans[idx as usize] = (off, 0);
                        return (Some(value), trace);
                    }
                }
            }
            match self.bucket(cursor).next {
                Some(n) => {
                    trace.bucket_reads += 1;
                    cursor = BucketRef::Overflow(n as usize);
                }
                None => return (None, trace),
            }
        }
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
