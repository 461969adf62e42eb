//! Clean fixture for rule R8: seeds flow from the workload seed, the RNG's
//! own `impl` may use raw constants (it IS the primitive), and literal
//! seeds inside `#[cfg(test)]` are masked. Never compiled — scanned by
//! xtask/tests.

#![forbid(unsafe_code)]

pub struct SimRng {
    state: u64,
}

impl SimRng {
    pub fn stream(seed: u64, salt: u64) -> Self {
        // Inside the RNG's own impl the primitive may use raw constants:
        // a bare-literal seed() here is exempt (it IS the provenance root).
        let golden = SimRng::seed(0x9E37_79B9_7F4A_7C15);
        let _ = (seed, salt);
        golden
    }
}

pub fn build(params: &Params) -> SimRng {
    SimRng::seed(params.seed)
}

#[cfg(test)]
mod tests {
    // Literal seeds in test oracles are masked: R8 skips test modules.
    #[test]
    fn fixed_stream() {
        let _ = super::SimRng::seed(42);
    }
}
