//! Negative fixture for `cargo xtask analyze`: a simulation crate breaking
//! R1 (hash containers), R2 (wall-clock, threads, env I/O, process globals)
//! and R3 (missing `#![forbid(unsafe_code)]`). Never compiled — scanned by
//! xtask/tests.

use std::collections::HashMap;
use std::collections::HashSet;
use std::time::Instant;

static mut EPOCH: u64 = 0;

thread_local! {
    static TICKS: u64 = 0;
}

pub struct Shard {
    entries: HashMap<u64, Vec<u8>>,
    dirty: HashSet<u64>,
}

pub fn run(shard: &mut Shard) {
    let started = Instant::now();
    let worker = std::thread::spawn(move || 42);
    let seed = std::env::var("SEED").unwrap_or_default();
    let _ = (started, worker, seed, &shard.entries, &shard.dirty);
}

#[cfg(test)]
mod tests {
    // A HashMap or a thread-local inside #[cfg(test)] is fine: R1/R2 skip
    // test modules.
    use std::collections::HashMap;

    thread_local! {
        static ORACLE_RUNS: u64 = 0;
    }

    #[test]
    fn oracle_may_hash() {
        let mut oracle: HashMap<u32, u32> = HashMap::new();
        oracle.insert(1, 2);
        assert_eq!(oracle.get(&1), Some(&2));
    }
}
