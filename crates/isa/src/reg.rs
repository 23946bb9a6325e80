//! Architectural registers and the register file.

use std::fmt;
use std::str::FromStr;

/// One of the 32 RV32 integer registers.
///
/// # Example
///
/// ```
/// use mempool_isa::Reg;
///
/// let a0: Reg = "a0".parse()?;
/// assert_eq!(a0, Reg::new(10));
/// assert_eq!(a0.abi_name(), "a0");
/// # Ok::<(), mempool_isa::ParseRegError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Reg(u8);

/// ABI names of the 32 registers, indexed by register number.
const ABI_NAMES: [&str; 32] = [
    "zero", "ra", "sp", "gp", "tp", "t0", "t1", "t2", "s0", "s1", "a0", "a1", "a2", "a3", "a4",
    "a5", "a6", "a7", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9", "s10", "s11", "t3", "t4",
    "t5", "t6",
];

impl Reg {
    /// The hardwired-zero register `x0`.
    pub const ZERO: Reg = Reg(0);
    /// Return-address register `x1`.
    pub const RA: Reg = Reg(1);
    /// Stack pointer `x2`.
    pub const SP: Reg = Reg(2);

    /// Creates a register from its number.
    ///
    /// # Panics
    ///
    /// Panics if `number >= 32`.
    pub const fn new(number: u8) -> Self {
        assert!(number < 32, "register number out of range");
        Reg(number)
    }

    /// Creates a register from the low 5 bits of an encoding field.
    pub const fn from_bits(bits: u32) -> Self {
        Reg((bits & 0x1f) as u8)
    }

    /// The register number (0..32).
    pub const fn number(self) -> u8 {
        self.0
    }

    /// The ABI name (`zero`, `ra`, `sp`, `a0`, ...).
    pub fn abi_name(self) -> &'static str {
        ABI_NAMES[self.0 as usize]
    }

    /// Iterator over all 32 registers.
    pub fn all() -> impl Iterator<Item = Reg> {
        (0..32u8).map(Reg)
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.abi_name())
    }
}

/// Error returned when a register name cannot be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRegError {
    name: String,
}

impl ParseRegError {
    pub(crate) fn new(name: impl Into<String>) -> Self {
        ParseRegError { name: name.into() }
    }
}

impl fmt::Display for ParseRegError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown register name `{}`", self.name)
    }
}

impl std::error::Error for ParseRegError {}

impl FromStr for Reg {
    type Err = ParseRegError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if let Some(num) = s.strip_prefix('x') {
            if let Ok(n) = num.parse::<u8>() {
                if n < 32 {
                    return Ok(Reg(n));
                }
            }
        }
        if s == "fp" {
            return Ok(Reg(8)); // Alias for s0.
        }
        ABI_NAMES
            .iter()
            .position(|&name| name == s)
            .map(|n| Reg(n as u8))
            .ok_or_else(|| ParseRegError::new(s))
    }
}

/// The integer register file, with `x0` hardwired to zero.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegFile {
    regs: [u32; 32],
}

impl RegFile {
    /// Creates a register file with all registers zero.
    pub fn new() -> Self {
        RegFile { regs: [0; 32] }
    }

    /// Reads a register. Reading `x0` always yields 0.
    #[inline]
    pub fn read(&self, reg: Reg) -> u32 {
        self.regs[reg.0 as usize]
    }

    /// Writes a register. Writes to `x0` are discarded.
    #[inline]
    pub fn write(&mut self, reg: Reg, value: u32) {
        if reg.0 != 0 {
            self.regs[reg.0 as usize] = value;
        }
    }

    /// Returns all register values, for debugging and tracing.
    pub fn snapshot(&self) -> [u32; 32] {
        self.regs
    }
}

impl Default for RegFile {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Display for RegFile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, value) in self.regs.iter().enumerate() {
            if *value != 0 {
                writeln!(f, "{:>4} = {:#010x}", Reg(i as u8), value)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn abi_names_round_trip() {
        for reg in Reg::all() {
            let parsed: Reg = reg.abi_name().parse().unwrap();
            assert_eq!(parsed, reg);
        }
    }

    #[test]
    fn numeric_names_parse() {
        assert_eq!("x0".parse::<Reg>().unwrap(), Reg::ZERO);
        assert_eq!("x31".parse::<Reg>().unwrap(), Reg::new(31));
        assert!("x32".parse::<Reg>().is_err());
    }

    #[test]
    fn fp_is_alias_for_s0() {
        assert_eq!("fp".parse::<Reg>().unwrap(), "s0".parse::<Reg>().unwrap());
    }

    #[test]
    fn unknown_names_error_mentions_input() {
        let err = "bogus".parse::<Reg>().unwrap_err();
        assert!(err.to_string().contains("bogus"));
    }

    #[test]
    fn x0_is_hardwired_to_zero() {
        let mut rf = RegFile::new();
        rf.write(Reg::ZERO, 0xdead_beef);
        assert_eq!(rf.read(Reg::ZERO), 0);
    }

    #[test]
    fn writes_land_in_the_right_register() {
        let mut rf = RegFile::new();
        rf.write(Reg::new(10), 42);
        assert_eq!(rf.read(Reg::new(10)), 42);
        assert_eq!(rf.read(Reg::new(11)), 0);
    }

    #[test]
    fn display_shows_nonzero_registers() {
        let mut rf = RegFile::new();
        rf.write("a0".parse().unwrap(), 7);
        let shown = rf.to_string();
        assert!(shown.contains("a0"));
        assert!(!shown.contains("a1"));
    }

    #[test]
    #[should_panic(expected = "register number out of range")]
    fn new_panics_on_out_of_range() {
        let _ = Reg::new(32);
    }
}
