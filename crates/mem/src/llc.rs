//! LLC / DDIO / TPH routing model (Fig. 5 and Fig. 6 of the paper).
//!
//! Inbound device DMA is routed either into the LLC's DDIO ways or to main
//! memory. The paper's Fig. 5 experiment establishes the routing rule on real
//! hardware; we reproduce it exactly:
//!
//! * data goes to the **LLC** if global DDIO is enabled **or** the PCIe
//!   packet carries the TPH bit;
//! * otherwise it goes to **memory**, where a DMA write costs both a read
//!   (ownership/merge) and a write on the DRAM channels.

use serde::{Deserialize, Serialize};

/// Where an inbound DMA landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DmaRoute {
    /// Injected into the LLC DDIO ways (no memory-channel traffic now).
    Llc,
    /// Written to main memory (read-for-ownership + write traffic).
    Memory,
}

/// The last-level cache from the I/O subsystem's point of view.
///
/// Tracks the bytes injected by DDIO and how much of the DDIO working set
/// overflows the DDIO ways (overflow is written back to memory — or to NVM
/// with write amplification, handled by
/// [`MemorySystem`](crate::MemorySystem)).
#[derive(Debug, Clone)]
pub struct Llc {
    ddio_enabled: bool,
    ddio_capacity: u64,
    injected_bytes: u64,
    resident_bytes: u64,
}

impl Llc {
    /// Creates an LLC model with the given DDIO-way capacity in bytes.
    pub fn new(ddio_enabled: bool, ddio_capacity: u64) -> Self {
        Llc { ddio_enabled, ddio_capacity, injected_bytes: 0, resident_bytes: 0 }
    }

    /// Whether global DDIO is enabled (the BIOS-level knob).
    pub fn ddio_enabled(&self) -> bool {
        self.ddio_enabled
    }

    /// Resolves the routing decision for one inbound PCIe write.
    ///
    /// `tph` is the TLP-processing-hint bit of the packet. This is the exact
    /// rule measured in Fig. 5: either knob suffices to steer the data into
    /// the cache.
    pub fn route(&self, tph: bool) -> DmaRoute {
        if self.ddio_enabled || tph {
            DmaRoute::Llc
        } else {
            DmaRoute::Memory
        }
    }

    /// Records an injection of `bytes` into the DDIO ways and returns how
    /// many bytes *overflowed* (were evicted to the memory side because the
    /// DDIO working set exceeds the DDIO-way capacity).
    ///
    /// The model is a running-occupancy estimate: consumption by cores is
    /// assumed to keep up (the paper's workloads poll the rings), so only
    /// working sets larger than the DDIO ways spill.
    pub fn inject(&mut self, bytes: u64) -> u64 {
        self.injected_bytes = self.injected_bytes.saturating_add(bytes);
        let new_resident = self.resident_bytes.saturating_add(bytes);
        if new_resident > self.ddio_capacity {
            let spill = new_resident - self.ddio_capacity;
            self.resident_bytes = self.ddio_capacity;
            spill
        } else {
            self.resident_bytes = new_resident;
            0
        }
    }

    /// Marks `bytes` as consumed by a core (frees DDIO-way occupancy).
    pub fn consume(&mut self, bytes: u64) {
        self.resident_bytes = self.resident_bytes.saturating_sub(bytes);
    }

    /// Total bytes ever injected through DDIO/TPH.
    pub fn injected_bytes(&self) -> u64 {
        self.injected_bytes
    }

    /// Current DDIO-way occupancy estimate.
    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_matches_fig5() {
        // (ddio, tph) -> route; only off/off goes to memory.
        let cases = [
            (true, true, DmaRoute::Llc),
            (true, false, DmaRoute::Llc),
            (false, true, DmaRoute::Llc),
            (false, false, DmaRoute::Memory),
        ];
        for (ddio, tph, want) in cases {
            let llc = Llc::new(ddio, 1 << 20);
            assert_eq!(llc.route(tph), want, "ddio={ddio} tph={tph}");
        }
    }

    #[test]
    fn injection_spills_beyond_ddio_ways() {
        let mut llc = Llc::new(true, 1000);
        assert_eq!(llc.inject(600), 0);
        assert_eq!(llc.inject(600), 200);
        assert_eq!(llc.resident_bytes(), 1000);
        llc.consume(500);
        assert_eq!(llc.resident_bytes(), 500);
        assert_eq!(llc.inject(400), 0);
        assert_eq!(llc.injected_bytes(), 1600);
    }

    #[test]
    fn consume_saturates() {
        let mut llc = Llc::new(true, 100);
        llc.inject(50);
        llc.consume(500);
        assert_eq!(llc.resident_bytes(), 0);
    }
}
