//! Snitch-like core timing state.
//!
//! Snitch is a tiny single-issue in-order core whose key latency-tolerance
//! feature is a register *scoreboard*: loads do not block at issue; only an
//! instruction that *uses* a register with a pending response stalls. The
//! model here captures that, a bounded number of outstanding transactions,
//! and a one-cycle taken-branch bubble.

use mempool_isa::{Instr, Reg, RegFile};

use crate::ckpt::words_struct;
use crate::stats::CoreStats;

/// Why a core could not issue this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stall {
    /// A source (or overwritten destination) register has a pending
    /// response.
    Scoreboard,
    /// The core already has the maximum number of outstanding transactions.
    Structural,
}

/// What the scoreboard needs to know about an instruction, decoded once
/// when its program is installed (see `Cluster::load_program`) instead of
/// on every issue attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct IssueRecord {
    /// Registers whose pending response blocks the issue: sources, the
    /// issue-time destination and the response destination, one bit per
    /// register number (`x0` is never pending, so its bit stays clear).
    hazards: u32,
    is_mem: bool,
}

impl IssueRecord {
    #[inline]
    pub(crate) fn decode(instr: Instr) -> Self {
        let hazards = instr
            .src_regs()
            .into_iter()
            .chain([instr.dst_reg(), instr.response_reg()])
            .flatten()
            .fold(0u32, |mask, reg| mask | 1 << reg.number());
        IssueRecord {
            hazards: hazards & !1,
            is_mem: instr.is_mem(),
        }
    }
}

/// Timing state of one core.
#[derive(Debug, Clone)]
pub struct Core {
    /// Architectural register file.
    pub regs: RegFile,
    /// Program counter.
    pub pc: u32,
    halted: bool,
    /// Latched up by an injected fault: the core never fetches again.
    hung: bool,
    /// Bitmask of registers with outstanding responses.
    busy: u32,
    outstanding: u32,
    /// Remaining bubble cycles from a taken branch or I$ miss.
    bubble: u32,
    /// Execution statistics.
    pub stats: CoreStats,
}

words_struct!(Core {
    regs,
    pc,
    halted,
    hung,
    busy,
    outstanding,
    bubble,
    stats,
});

impl Core {
    /// Creates a reset core starting at pc 0.
    pub fn new() -> Self {
        Core {
            regs: RegFile::new(),
            pc: 0,
            halted: false,
            hung: false,
            busy: 0,
            outstanding: 0,
            bubble: 0,
            stats: CoreStats::default(),
        }
    }

    /// Whether the core has executed `wfi`.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Restarts the core at `pc`, clearing the halted flag, scoreboard,
    /// and bubbles while preserving the register file and statistics.
    ///
    /// # Panics
    ///
    /// Panics if the core still has outstanding memory transactions — a
    /// core must quiesce (reach `wfi` with all responses drained) before a
    /// new phase starts.
    pub fn reset_at(&mut self, pc: u32) {
        assert_eq!(
            self.outstanding, 0,
            "core restarted with outstanding transactions"
        );
        self.pc = pc;
        self.halted = false;
        self.busy = 0;
        self.bubble = 0;
    }

    /// Marks the core halted.
    pub fn halt(&mut self) {
        self.halted = true;
    }

    /// Whether the core was latched up by an injected fault.
    pub fn hung(&self) -> bool {
        self.hung
    }

    /// Latches the core up: it never fetches again (not even after a
    /// `resume_all`), modeling a hard fault on the logic die.
    pub fn hang(&mut self) {
        self.hung = true;
    }

    /// Number of outstanding memory transactions.
    pub fn outstanding(&self) -> u32 {
        self.outstanding
    }

    /// Whether the core is idle this cycle due to a bubble; decrements the
    /// bubble counter.
    #[inline]
    pub fn consume_bubble(&mut self) -> bool {
        if self.bubble > 0 {
            self.bubble -= 1;
            true
        } else {
            false
        }
    }

    /// Inserts `cycles` of pipeline bubble (taken branch, I$ miss).
    pub fn insert_bubble(&mut self, cycles: u32) {
        self.bubble += cycles;
    }

    /// Charges `cycles` of pipeline stall for an ECC-corrected response
    /// (a halted core has no pipeline to stall).
    pub(crate) fn stall_ecc(&mut self, cycles: u32) {
        if !self.halted {
            self.bubble += cycles;
            self.stats.stall_ecc += cycles as u64;
        }
    }

    /// Checks whether `instr` can issue under the scoreboard, given the
    /// outstanding-transaction limit: `check_record` on a record
    /// decoded on the spot.
    #[inline]
    pub fn check_issue(&self, instr: Instr, max_outstanding: u32) -> Result<(), Stall> {
        self.check_record(IssueRecord::decode(instr), max_outstanding)
    }

    /// The scoreboard check itself: RAW on the sources, WAW on the
    /// issue-time and response destinations, then the outstanding limit
    /// for memory instructions.
    #[inline]
    pub(crate) fn check_record(
        &self,
        record: IssueRecord,
        max_outstanding: u32,
    ) -> Result<(), Stall> {
        if self.busy & record.hazards != 0 {
            return Err(Stall::Scoreboard);
        }
        if record.is_mem && self.outstanding >= max_outstanding {
            return Err(Stall::Structural);
        }
        Ok(())
    }

    /// Marks a register as awaiting a memory response.
    pub fn mark_pending(&mut self, reg: Option<Reg>) {
        if let Some(reg) = reg {
            if reg.number() != 0 {
                self.busy |= 1 << reg.number();
            }
        }
        self.outstanding += 1;
    }

    /// Completes a memory transaction, optionally writing `value` to `reg`.
    pub fn complete(&mut self, reg: Option<Reg>, value: u32) {
        if let Some(reg) = reg {
            self.regs.write(reg, value);
            if reg.number() != 0 {
                self.busy &= !(1 << reg.number());
            }
        }
        debug_assert!(self.outstanding > 0, "response without outstanding request");
        self.outstanding = self.outstanding.saturating_sub(1);
    }
}

impl Default for Core {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mempool_isa::instr::{AluOp, LoadOp};

    fn lw(rd: u8, rs1: u8) -> Instr {
        Instr::Load {
            op: LoadOp::Lw,
            rd: Reg::new(rd),
            rs1: Reg::new(rs1),
            offset: 0,
        }
    }

    fn add(rd: u8, rs1: u8, rs2: u8) -> Instr {
        Instr::Op {
            op: AluOp::Add,
            rd: Reg::new(rd),
            rs1: Reg::new(rs1),
            rs2: Reg::new(rs2),
        }
    }

    #[test]
    fn independent_instructions_issue_while_load_pending() {
        let mut core = Core::new();
        core.mark_pending(Some(Reg::new(10)));
        assert_eq!(core.check_issue(add(5, 6, 7), 8), Ok(()));
    }

    #[test]
    fn use_of_pending_register_stalls() {
        let mut core = Core::new();
        core.mark_pending(Some(Reg::new(10)));
        assert_eq!(core.check_issue(add(5, 10, 7), 8), Err(Stall::Scoreboard));
        // WAW also stalls.
        assert_eq!(core.check_issue(add(10, 5, 7), 8), Err(Stall::Scoreboard));
        assert_eq!(core.check_issue(lw(10, 5), 8), Err(Stall::Scoreboard));
    }

    #[test]
    fn completion_clears_busy_and_writes_value() {
        let mut core = Core::new();
        core.mark_pending(Some(Reg::new(10)));
        core.complete(Some(Reg::new(10)), 42);
        assert_eq!(core.regs.read(Reg::new(10)), 42);
        assert_eq!(core.check_issue(add(5, 10, 7), 8), Ok(()));
        assert_eq!(core.outstanding(), 0);
    }

    #[test]
    fn outstanding_limit_stalls_memory_ops_only() {
        let mut core = Core::new();
        for i in 0..4 {
            core.mark_pending(Some(Reg::new(10 + i)));
        }
        assert_eq!(core.check_issue(lw(20, 5), 4), Err(Stall::Structural));
        assert_eq!(core.check_issue(add(20, 5, 6), 4), Ok(()));
    }

    #[test]
    fn stores_count_against_outstanding_but_track_no_register() {
        let mut core = Core::new();
        core.mark_pending(None);
        assert_eq!(core.outstanding(), 1);
        core.complete(None, 0);
        assert_eq!(core.outstanding(), 0);
    }

    #[test]
    fn bubbles_consume_cycles() {
        let mut core = Core::new();
        core.insert_bubble(2);
        assert!(core.consume_bubble());
        assert!(core.consume_bubble());
        assert!(!core.consume_bubble());
    }

    #[test]
    fn hang_survives_reset() {
        let mut core = Core::new();
        core.hang();
        core.halt();
        core.reset_at(0x100);
        assert!(core.hung(), "a latched-up core stays hung across phases");
        assert!(!core.halted());
    }

    #[test]
    fn x0_is_never_busy() {
        let mut core = Core::new();
        core.mark_pending(Some(Reg::ZERO));
        assert_eq!(core.check_issue(add(5, 0, 0), 8), Ok(()));
    }
}
