//! Power and energy model (Sec. VI-B, Tab. III).
//!
//! The paper measures: ~90 W for the fully-loaded Xeon (RAPL), ~15 W for
//! the Smart NIC's ARM complex (the full card draws considerably more),
//! 24–27 W for the FPGA at peak throughput, plus one host core Rambda keeps
//! for CQ polling. Tab. III reports overall Kop/W for the uniform-GET KVS
//! operating point; the per-design power functions here reproduce the
//! accounting that yields those numbers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::{Deserialize, Serialize};

/// Component power constants in watts.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PowerConfig {
    /// One fully-loaded Xeon core (90 W across ten busy cores).
    pub xeon_core_w: f64,
    /// The FPGA chip at peak throughput (RAPL + firmware: 24–27 W).
    pub fpga_w: f64,
    /// The Smart NIC ARM complex when fully loaded.
    pub smartnic_arm_w: f64,
    /// The rest of the Smart NIC card (NIC ASIC, DRAM, board).
    pub smartnic_board_w: f64,
    /// A plain RNIC card.
    pub rnic_w: f64,
    /// The rest of the server box at load (fans, DIMMs, board, disks).
    pub server_base_w: f64,
}

impl Default for PowerConfig {
    fn default() -> Self {
        PowerConfig {
            xeon_core_w: 9.0,
            fpga_w: 26.0,
            smartnic_arm_w: 15.0,
            smartnic_board_w: 32.0,
            rnic_w: 25.0,
            server_base_w: 140.0,
        }
    }
}

/// Which serving design is drawing power.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Design {
    /// CPU-based serving on `cores` busy cores (plus the RNIC).
    Cpu {
        /// Busy cores.
        cores: usize,
    },
    /// Smart NIC serving (ARM + card).
    SmartNic,
    /// Rambda: FPGA + one host core for CQ polling + the RNIC.
    Rambda,
}

impl PowerConfig {
    /// Power drawn by the *processing subsystem* of a design — what
    /// Tab. III divides throughput by. Matches the paper's measurement
    /// boundaries: RAPL cores for the CPU design, the whole Smart NIC card,
    /// and FPGA + CQ-polling core + RNIC for Rambda.
    pub fn design_watts(&self, design: Design) -> f64 {
        match design {
            Design::Cpu { cores } => self.xeon_core_w * cores as f64,
            Design::SmartNic => self.smartnic_arm_w + self.smartnic_board_w,
            Design::Rambda => self.fpga_w + self.xeon_core_w + self.rnic_w,
        }
    }

    /// Whole-server power at load for a design (for the "~38 % lower server
    /// box power" claim).
    pub fn server_watts(&self, design: Design) -> f64 {
        let idle_cores = match design {
            // Non-serving cores are near-idle but not free; fold them into
            // server_base_w.
            Design::Cpu { .. } | Design::SmartNic | Design::Rambda => 0.0,
        };
        self.server_base_w + idle_cores + self.design_watts(design)
    }
}

/// Kilo-operations per watt — Tab. III's metric.
///
/// ```
/// let kopw = rambda_power::kop_per_watt(11.7e6, 90.0);
/// assert!((kopw - 130.0).abs() < 1.0);
/// ```
pub fn kop_per_watt(ops_per_sec: f64, watts: f64) -> f64 {
    assert!(watts > 0.0, "watts must be positive");
    ops_per_sec / 1000.0 / watts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_design_is_ninety_watts_of_cores() {
        // The paper's ~90W RAPL reading for ten fully-loaded cores.
        let cfg = PowerConfig::default();
        assert_eq!(cfg.design_watts(Design::Cpu { cores: 10 }), 90.0);
    }

    #[test]
    fn rambda_design_power_matches_paper_accounting() {
        let cfg = PowerConfig::default();
        // FPGA (26) + CQ-polling core (9) + RNIC (25) = 60W.
        assert_eq!(cfg.design_watts(Design::Rambda), 60.0);
        // The paper: Rambda's FPGA draws ~2x the Smart NIC ARM complex...
        assert!(cfg.fpga_w < 2.0 * cfg.smartnic_arm_w);
        // ...but still wins on op/W (checked end-to-end in the bench).
    }

    #[test]
    fn server_power_ordering_favours_rambda_over_cpu() {
        let cfg = PowerConfig::default();
        let cpu = cfg.server_watts(Design::Cpu { cores: 10 });
        let rambda = cfg.server_watts(Design::Rambda);
        assert!(rambda < cpu);
        // Roughly the ~38% box-level reduction at similar throughput is
        // checked in the Tab. III bench; here just the ordering.
    }

    #[test]
    fn kop_per_watt_math() {
        assert!((kop_per_watt(1_000_000.0, 10.0) - 100.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "watts must be positive")]
    fn zero_watts_panics() {
        kop_per_watt(1.0, 0.0);
    }
}
