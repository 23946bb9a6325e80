//! SRAM macro compiler model.
//!
//! MemPool's SPM and instruction cache are built from single-port SRAM
//! macros. A memory compiler trades periphery (decoders, sense amplifiers,
//! control) against the bit array, so small macros are periphery-dominated:
//! doubling a 1 KiB bank costs far less than 2x in area. The model is
//!
//! ```text
//! area(bits)  = A0 + AB * bits            (+ 15 % per bit beyond 16 Kib,
//!                                          for redundancy and deeper
//!                                          column circuits)
//! delay(bits) = D0 + DLOG * log2(bits/8 Kib) + DSTEP * [bits >= 16 Kib]
//! energy(bits) = E0 + EROOT * sqrt(bits)
//! ```
//!
//! The step in the delay model captures the column-mux / wordline-
//! segmentation boundary the compiler crosses going from 256x32 to 512x32
//! macros; the paper observes exactly this effect ("an operating frequency
//! drop of 6.2 % between the MemPool-3D 2 MiB and 1 MiB groups, despite
//! having the same footprint ... due to the longer SRAMs' delay").

/// Area model intercept in µm².
const A0_UM2: f64 = 4838.0;
/// Area model slope in µm² per bit.
const AB_UM2_PER_BIT: f64 = 0.22;
/// Extra per-bit cost beyond 16 Kib.
const AB_LARGE_SURCHARGE: f64 = 0.15;
/// Bits at which the large-macro surcharge and delay step begin.
const LARGE_MACRO_BITS: f64 = 16384.0;
/// Access delay intercept (a 1 KiB macro), in ps.
const D0_PS: f64 = 280.0;
/// Delay slope per doubling, in ps.
const DLOG_PS: f64 = 11.5;
/// Delay step at the large-macro boundary, in ps.
const DSTEP_PS: f64 = 48.5;
/// Energy intercept per access, in pJ.
const E0_PJ: f64 = 8.0;
/// Energy slope per sqrt(bit), in pJ.
const EROOT_PJ: f64 = 0.06;

/// One compiled SRAM macro.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct SramMacro {
    bits: u64,
}

impl SramMacro {
    /// Creates a macro holding `bits` bits.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero.
    pub(crate) fn new(bits: u64) -> Self {
        assert!(bits > 0, "an SRAM macro must hold at least one bit");
        SramMacro { bits }
    }

    /// Creates a macro holding `bytes` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `bytes` is zero.
    pub(crate) fn with_capacity_bytes(bytes: u64) -> Self {
        Self::new(bytes * 8)
    }

    /// Macro area in µm².
    pub(crate) fn area_um2(&self) -> f64 {
        let bits = self.bits as f64;
        let surcharge = AB_LARGE_SURCHARGE * (bits - LARGE_MACRO_BITS).max(0.0);
        A0_UM2 + AB_UM2_PER_BIT * (bits + surcharge)
    }

    /// Macro width in µm (2:1 aspect ratio, lying on its long side).
    pub(crate) fn width_um(&self) -> f64 {
        (2.0 * self.area_um2()).sqrt()
    }

    /// Macro height in µm.
    pub(crate) fn height_um(&self) -> f64 {
        self.width_um() / 2.0
    }

    /// Perimeter in µm (used for halo area in the 2D flow).
    pub(crate) fn perimeter_um(&self) -> f64 {
        2.0 * (self.width_um() + self.height_um())
    }

    /// Access delay in ps.
    pub(crate) fn access_delay_ps(&self) -> f64 {
        let bits = self.bits as f64;
        let step = if bits >= LARGE_MACRO_BITS {
            DSTEP_PS
        } else {
            0.0
        };
        D0_PS + DLOG_PS * (bits / 8192.0).log2() + step
    }

    /// Energy per access in pJ.
    pub(crate) fn access_energy_pj(&self) -> f64 {
        E0_PJ + EROOT_PJ * (self.bits as f64).sqrt()
    }

    /// Number of signal pins (data in/out, address, control) — the F2F
    /// signal bumps a memory-die macro needs.
    pub(crate) fn signal_pins(&self, data_width_bits: u32) -> u32 {
        let words = self.bits / data_width_bits as u64;
        let addr_bits = (words as f64).log2().ceil() as u32;
        // data in + data out + address + chip select, write enable, byte
        // strobes, clock.
        2 * data_width_bits + addr_bits + 7
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kib(k: u64) -> SramMacro {
        SramMacro::with_capacity_bytes(k * 1024)
    }

    #[test]
    fn area_is_periphery_dominated_at_small_sizes() {
        // Doubling 1 KiB -> 2 KiB costs well under 2x.
        let ratio = kib(2).area_um2() / kib(1).area_um2();
        assert!(ratio < 1.5, "ratio {ratio}");
        // But large macros approach linear cost.
        let ratio_large = kib(8).area_um2() / kib(4).area_um2();
        assert!(ratio_large > 1.5, "ratio {ratio_large}");
    }

    #[test]
    fn delay_matches_paper_observed_steps() {
        // The 1->2 KiB step is large (paper: 6.2 % frequency drop at equal
        // footprint, ~60 ps of a ~1 ns period); subsequent doublings are
        // small.
        let d1 = kib(1).access_delay_ps();
        let d2 = kib(2).access_delay_ps();
        let d4 = kib(4).access_delay_ps();
        let d8 = kib(8).access_delay_ps();
        assert!((d2 - d1 - 60.0).abs() < 1.0, "1->2 KiB step: {}", d2 - d1);
        assert!((d4 - d2 - 11.5).abs() < 1.0);
        assert!((d8 - d4 - 11.5).abs() < 1.0);
    }

    #[test]
    fn energy_roughly_doubles_from_1k_to_8k() {
        let ratio = kib(8).access_energy_pj() / kib(1).access_energy_pj();
        assert!((1.6..2.2).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn geometry_is_consistent() {
        let m = kib(4);
        assert!((m.width_um() * m.height_um() - m.area_um2()).abs() < 1e-6);
        assert!((m.width_um() - 2.0 * m.height_um()).abs() < 1e-9);
        assert!(m.perimeter_um() > 0.0);
    }

    #[test]
    fn signal_pins_grow_with_depth() {
        let p1 = kib(1).signal_pins(32);
        let p8 = kib(8).signal_pins(32);
        assert_eq!(p8 - p1, 3, "8x deeper macro needs 3 more address bits");
        assert!(p1 > 64, "data in+out alone is 64 pins");
    }

    #[test]
    #[should_panic(expected = "at least one bit")]
    fn zero_bits_panics() {
        let _ = SramMacro::new(0);
    }
}
