//! Program container.

use std::collections::BTreeMap;
use std::fmt;

use crate::asm::{self, AssembleError};
use crate::instr::Instr;

/// An assembled program: a flat instruction sequence plus its label table.
///
/// Instruction addresses start at 0 and advance by 4 bytes; MemPool cores
/// fetch through their tile's instruction cache, so program and data
/// addresses live in separate spaces (a Harvard-style model).
///
/// # Example
///
/// ```
/// use mempool_isa::Program;
///
/// let p = Program::assemble("start: addi a0, zero, 1\nj start")?;
/// assert_eq!(p.len(), 2);
/// assert_eq!(p.label("start"), Some(0));
/// # Ok::<(), mempool_isa::AssembleError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Program {
    instrs: Vec<Instr>,
    labels: BTreeMap<String, u32>,
}

impl Program {
    /// Creates a program from raw instructions.
    pub fn new(instrs: Vec<Instr>) -> Self {
        Program {
            instrs,
            labels: BTreeMap::new(),
        }
    }

    /// Assembles a program from text.
    ///
    /// # Errors
    ///
    /// Returns [`AssembleError`] describing the offending line on any parse
    /// or label-resolution failure.
    pub fn assemble(source: &str) -> Result<Self, AssembleError> {
        asm::assemble(source)
    }

    pub(crate) fn with_labels(instrs: Vec<Instr>, labels: BTreeMap<String, u32>) -> Self {
        Program { instrs, labels }
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Whether the program is empty.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Fetches the instruction at byte address `pc`, if in range and
    /// aligned.
    #[inline]
    pub fn fetch(&self, pc: u32) -> Option<Instr> {
        if !pc.is_multiple_of(4) {
            return None;
        }
        self.instrs.get((pc / 4) as usize).copied()
    }

    /// Byte address of a label.
    pub fn label(&self, name: &str) -> Option<u32> {
        self.labels.get(name).copied()
    }

    /// The instruction sequence.
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// Encodes the program into its binary image.
    pub fn to_words(&self) -> Vec<u32> {
        self.instrs.iter().map(|i| i.encode()).collect()
    }

    /// Decodes a program from a binary image.
    ///
    /// # Errors
    ///
    /// Returns the first [`crate::DecodeError`] encountered.
    pub fn from_words(words: &[u32]) -> Result<Self, crate::DecodeError> {
        let instrs = words
            .iter()
            .map(|&w| crate::decode(w))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Program::new(instrs))
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let by_addr: BTreeMap<u32, &str> = self
            .labels
            .iter()
            .map(|(name, &addr)| (addr, name.as_str()))
            .collect();
        for (i, instr) in self.instrs.iter().enumerate() {
            let addr = (i * 4) as u32;
            if let Some(name) = by_addr.get(&addr) {
                writeln!(f, "{name}:")?;
            }
            writeln!(f, "    {instr}")?;
        }
        Ok(())
    }
}

impl FromIterator<Instr> for Program {
    fn from_iter<I: IntoIterator<Item = Instr>>(iter: I) -> Self {
        Program::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Instr;
    use crate::reg::Reg;

    #[test]
    fn fetch_requires_alignment_and_range() {
        let p = Program::assemble("nop\nnop\nwfi").unwrap();
        assert!(p.fetch(0).is_some());
        assert!(p.fetch(8).is_some());
        assert!(p.fetch(2).is_none());
        assert!(p.fetch(12).is_none());
    }

    #[test]
    fn binary_round_trip() {
        let p = Program::assemble("addi a0, zero, 5\nmul a1, a0, a0\nwfi").unwrap();
        let words = p.to_words();
        let back = Program::from_words(&words).unwrap();
        assert_eq!(back.instrs(), p.instrs());
    }

    #[test]
    fn display_lists_labels_and_instructions() {
        let p = Program::assemble("top: addi a0, a0, 1\nj top").unwrap();
        let text = p.to_string();
        assert!(text.contains("top:"));
        assert!(text.contains("addi a0, a0, 1"));
    }

    #[test]
    fn collect_from_instruction_iterator() {
        let p: Program = std::iter::repeat_n(Instr::Fence, 3).collect();
        assert_eq!(p.len(), 3);
        assert_eq!(p.fetch(4), Some(Instr::Fence));
        assert_eq!(p.label("anything"), None);
        let _ = Reg::ZERO;
    }
}
