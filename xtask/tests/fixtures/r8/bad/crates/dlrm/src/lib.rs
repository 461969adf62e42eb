//! Negative fixture for rule R8 (RNG provenance): literal seed, unsalted
//! seed, ambient entropy and an RNG clone. Never compiled — scanned by
//! xtask/tests.

#![forbid(unsafe_code)]

pub fn build(epoch: u64) -> SimRng {
    let rng = SimRng::seed(0xDEAD_BEEF);
    let other = SimRng::seed(epoch);
    let copy = rng.clone();
    let hasher = thread_rng();
    let _ = (other, copy, hasher);
    rng
}

pub fn build_ok(params: &Params) -> SimRng {
    // Flows from the workload seed: must NOT be flagged.
    SimRng::seed(params.seed)
}
