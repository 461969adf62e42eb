//! The APU trait — the only application-specific block in the accelerator.
//!
//! An APU receives a request (already delivered through a ring and
//! discovered via cpoll) and processes it using the standard interfaces the
//! paper lists: coherent data read/write, ALU operations, and (for
//! CPU-collaborative apps) ring messages to the host cores. All of these are
//! timed through [`ApuCtx`], which advances a per-request clock.

use rambda_des::SimTime;
use rambda_mem::MemorySystem;

use crate::engine::AccelEngine;

/// Per-request processing context handed to an APU.
///
/// Wraps the engine + host memory system and tracks the request's own
/// timeline: each operation advances `now`.
#[derive(Debug)]
pub struct ApuCtx<'a> {
    engine: &'a mut AccelEngine,
    mem: &'a mut MemorySystem,
    now: SimTime,
}

impl<'a> ApuCtx<'a> {
    /// Creates a context for one request starting at `start`.
    pub fn new(engine: &'a mut AccelEngine, mem: &'a mut MemorySystem, start: SimTime) -> Self {
        ApuCtx { engine, mem, now: start }
    }

    /// The request's current timestamp.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// A dependent read of `bytes` from application data (walker step).
    pub fn read(&mut self, bytes: u64) {
        self.now = self.engine.mem_access(self.now, bytes, false, self.mem);
    }

    /// A write of `bytes` to application data.
    pub fn write(&mut self, bytes: u64) {
        self.now = self.engine.mem_access(self.now, bytes, true, self.mem);
    }

    /// `n` dependent reads (pointer chase).
    pub fn read_chain(&mut self, n: usize, bytes: u64) {
        self.now = self.engine.read_chain(self.now, n, bytes, self.mem);
    }

    /// `n` independent reads kept in flight together (the FSM's
    /// out-of-order window); completes when the last one lands.
    pub fn read_fanout(&mut self, n: usize, bytes: u64) {
        self.now = self.engine.read_fanout(self.now, n, bytes, self.mem);
    }

    /// `n` ALU operations (hash steps, comparisons, aggregations).
    pub fn compute(&mut self, n: u64) {
        self.now = self.engine.compute(self.now, n);
    }

    /// Sends a message of `bytes` to the host CPU through the intra-machine
    /// ring (Sec. III-A) and waits `host_time` for the CPU-side work before
    /// the reply lands back in the accelerator's request ring.
    ///
    /// Used by CPU-collaborative APUs like DLRM's pre-processing hand-off.
    pub fn call_host(&mut self, bytes: u64, host_time: rambda_des::Span) {
        let sent = self.engine.ring_write(self.now, bytes, self.mem);
        let replied_at = sent + host_time;
        self.now = self.engine.ring_read(replied_at, bytes, self.mem);
    }
}

/// An application processing unit.
///
/// Implementations hold the application's *functional* state (hash tables,
/// embedding tables, ...) and express their *timing* through the context.
pub trait Apu {
    /// Request type.
    type Req;
    /// Response type.
    type Resp;

    /// Processes one request, advancing the context clock; returns the
    /// response to be emitted through the SQ handler.
    fn process(&mut self, req: Self::Req, ctx: &mut ApuCtx<'_>) -> Self::Resp;

    /// Response payload size in bytes (for the RDMA write back).
    fn response_bytes(&self, resp: &Self::Resp) -> u64;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{AccelConfig, DataLocation};
    use rambda_des::Span;
    use rambda_mem::MemConfig;

    /// A toy APU: chase two pointers and add.
    struct ToyApu;
    impl Apu for ToyApu {
        type Req = u64;
        type Resp = u64;
        fn process(&mut self, req: u64, ctx: &mut ApuCtx<'_>) -> u64 {
            ctx.read_chain(3, 64);
            ctx.compute(1);
            req + 1
        }
        fn response_bytes(&self, _resp: &u64) -> u64 {
            8
        }
    }

    #[test]
    fn toy_apu_advances_clock() {
        let mut engine = AccelEngine::new(AccelConfig::prototype(DataLocation::HostDram));
        let mut mem = MemorySystem::new(MemConfig::default(), true);
        let mut ctx = ApuCtx::new(&mut engine, &mut mem, SimTime::from_us(1));
        let resp = ToyApu.process(7, &mut ctx);
        assert_eq!(resp, 8);
        // 3 dependent host reads ≈ 3 x ~245ns + 5ns ALU.
        let took = ctx.now() - SimTime::from_us(1);
        assert!((600.0..900.0).contains(&took.as_ns_f64()), "{took}");
        assert_eq!(ToyApu.response_bytes(&resp), 8);
    }

    #[test]
    fn call_host_round_trip() {
        let mut engine = AccelEngine::new(AccelConfig::prototype(DataLocation::HostDram));
        let mut mem = MemorySystem::new(MemConfig::default(), true);
        let mut ctx = ApuCtx::new(&mut engine, &mut mem, SimTime::ZERO);
        ctx.call_host(256, Span::from_us(1));
        // Ring write + 1us host + ring read.
        assert!(ctx.now().as_us_f64() > 1.4, "{}", ctx.now().as_us_f64());
    }
}
