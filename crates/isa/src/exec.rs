//! Architectural execution semantics.
//!
//! Two entry points:
//!
//! * [`issue`] — executes one instruction *up to* its memory access,
//!   returning an [`Issue`] describing what the memory system must do.
//!   The timing simulator (`mempool-sim`) uses this to model split
//!   request/response transactions with realistic latencies.
//! * [`Machine`] — a synchronous single-core machine with a flat data
//!   memory, used as the golden model for kernel verification and ISA
//!   tests.

use std::fmt;

use crate::instr::{AluOp, AmoOp, BranchOp, Instr, LoadOp, MulOp, StoreOp, CSR_MHARTID};
use crate::program::Program;
use crate::reg::{ParseRegError, Reg, RegFile};

/// Access width of a memory transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemWidth {
    /// 8-bit access.
    Byte,
    /// 16-bit access.
    Half,
    /// 32-bit access.
    Word,
}

impl MemWidth {
    /// Number of bytes transferred.
    pub const fn bytes(self) -> u32 {
        match self {
            MemWidth::Byte => 1,
            MemWidth::Half => 2,
            MemWidth::Word => 4,
        }
    }
}

/// What a memory transaction must do once it reaches its bank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemAccessKind {
    /// Read; the result is written back to `rd` (sign-extended if `signed`).
    Load {
        /// Access width.
        width: MemWidth,
        /// Sign-extend sub-word results.
        signed: bool,
        /// Destination register for the response.
        rd: Reg,
    },
    /// Write of `value`.
    Store {
        /// Access width.
        width: MemWidth,
        /// Data to write.
        value: u32,
    },
    /// Atomic read-modify-write of a word; the old value is written to `rd`.
    Amo {
        /// Read-modify-write operation.
        op: AmoOp,
        /// Register operand of the RMW.
        value: u32,
        /// Destination register for the old value.
        rd: Reg,
    },
}

impl MemAccessKind {
    /// Destination register awaiting this transaction's response, if any.
    #[inline]
    pub fn response_reg(&self) -> Option<Reg> {
        match *self {
            MemAccessKind::Load { rd, .. } | MemAccessKind::Amo { rd, .. } => Some(rd),
            MemAccessKind::Store { .. } => None,
        }
    }
}

/// A memory transaction produced by [`issue`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemRequest {
    /// Byte address of the access.
    pub addr: u32,
    /// Operation to perform at the bank.
    pub kind: MemAccessKind,
}

/// Result of issuing one instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Issue {
    /// The instruction completed in the core; execution continues at `pc`.
    Next {
        /// Next program counter.
        pc: u32,
    },
    /// The instruction started a memory transaction; the core may continue
    /// at `next_pc` while the transaction is outstanding (Snitch's
    /// scoreboard semantics — only a *use* of the destination register
    /// stalls).
    Mem {
        /// The transaction handed to the memory system.
        req: MemRequest,
        /// Next program counter.
        next_pc: u32,
    },
    /// The core halted (`wfi`).
    Halt,
}

/// Error raised by architectural execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecError {
    /// A data access fell outside the machine's memory.
    MemOutOfBounds {
        /// Faulting byte address.
        addr: u32,
    },
    /// A data access was not aligned to its width.
    Misaligned {
        /// Faulting byte address.
        addr: u32,
    },
    /// The program counter left the program.
    PcOutOfRange {
        /// Faulting program counter.
        pc: u32,
    },
    /// [`Machine::run`] hit its step limit before the core halted.
    StepLimit {
        /// The limit that was exceeded.
        limit: u64,
    },
}

impl fmt::Display for ExecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecError::MemOutOfBounds { addr } => {
                write!(f, "memory access at {addr:#010x} is out of bounds")
            }
            ExecError::Misaligned { addr } => {
                write!(f, "misaligned memory access at {addr:#010x}")
            }
            ExecError::PcOutOfRange { pc } => {
                write!(f, "program counter {pc:#010x} is outside the program")
            }
            ExecError::StepLimit { limit } => {
                write!(f, "core did not halt within {limit} steps")
            }
        }
    }
}

impl std::error::Error for ExecError {}

fn alu(op: AluOp, a: u32, b: u32) -> u32 {
    match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub => a.wrapping_sub(b),
        AluOp::Sll => a.wrapping_shl(b & 0x1f),
        AluOp::Slt => ((a as i32) < (b as i32)) as u32,
        AluOp::Sltu => (a < b) as u32,
        AluOp::Xor => a ^ b,
        AluOp::Srl => a.wrapping_shr(b & 0x1f),
        AluOp::Sra => ((a as i32).wrapping_shr(b & 0x1f)) as u32,
        AluOp::Or => a | b,
        AluOp::And => a & b,
    }
}

// RISC-V defines division by zero to return all-ones / the dividend
// rather than trapping, so the manual zero checks are the specification,
// not a checked_div in disguise.
#[allow(clippy::manual_checked_ops)]
fn mul(op: MulOp, a: u32, b: u32) -> u32 {
    match op {
        MulOp::Mul => a.wrapping_mul(b),
        MulOp::Mulh => (((a as i32 as i64) * (b as i32 as i64)) >> 32) as u32,
        MulOp::Mulhsu => (((a as i32 as i64) * (b as u64 as i64)) >> 32) as u32,
        MulOp::Mulhu => (((a as u64) * (b as u64)) >> 32) as u32,
        MulOp::Div => {
            if b == 0 {
                u32::MAX
            } else if a == 0x8000_0000 && b == u32::MAX {
                a
            } else {
                ((a as i32) / (b as i32)) as u32
            }
        }
        MulOp::Divu => {
            if b == 0 {
                u32::MAX
            } else {
                a / b
            }
        }
        MulOp::Rem => {
            if b == 0 {
                a
            } else if a == 0x8000_0000 && b == u32::MAX {
                0
            } else {
                ((a as i32) % (b as i32)) as u32
            }
        }
        MulOp::Remu => {
            if b == 0 {
                a
            } else {
                a % b
            }
        }
    }
}

fn branch_taken(op: BranchOp, a: u32, b: u32) -> bool {
    match op {
        BranchOp::Beq => a == b,
        BranchOp::Bne => a != b,
        BranchOp::Blt => (a as i32) < (b as i32),
        BranchOp::Bge => (a as i32) >= (b as i32),
        BranchOp::Bltu => a < b,
        BranchOp::Bgeu => a >= b,
    }
}

/// The byte address a memory instruction accesses, or `None` for any
/// other instruction: `rs1 + offset` for loads and stores, `rs1` itself
/// for AMOs and the post-incrementing `p.lw`/`p.sw` (their offset is the
/// increment, applied after the access).
///
/// It only reads `regs`, so a timing model can arbitrate on the address
/// before the instruction issues; [`issue`] takes its address from here.
#[inline]
pub fn mem_addr(instr: Instr, regs: &RegFile) -> Option<u32> {
    match instr {
        Instr::Load { rs1, offset, .. } | Instr::Store { rs1, offset, .. } => {
            Some(regs.read(rs1).wrapping_add(offset as u32))
        }
        Instr::Amo { rs1, .. } | Instr::LwPostInc { rs1, .. } | Instr::SwPostInc { rs1, .. } => {
            Some(regs.read(rs1))
        }
        _ => None,
    }
}

/// Executes one instruction up to its memory access.
///
/// Register reads, ALU work, branch resolution, and post-increment updates
/// happen here; loads, stores, and AMOs are returned as [`Issue::Mem`] for
/// the caller's memory system to perform. `hartid` is the value returned by
/// reading the `mhartid` CSR.
#[inline]
pub fn issue(instr: Instr, pc: u32, regs: &mut RegFile, hartid: u32) -> Issue {
    let next = pc.wrapping_add(4);
    let mem = |addr: Option<u32>, kind| Issue::Mem {
        req: MemRequest {
            addr: addr.expect("a memory instruction has an address"),
            kind,
        },
        next_pc: next,
    };
    match instr {
        Instr::Lui { rd, imm } => {
            regs.write(rd, imm);
            Issue::Next { pc: next }
        }
        Instr::Auipc { rd, imm } => {
            regs.write(rd, pc.wrapping_add(imm));
            Issue::Next { pc: next }
        }
        Instr::Jal { rd, offset } => {
            regs.write(rd, next);
            Issue::Next {
                pc: pc.wrapping_add(offset as u32),
            }
        }
        Instr::Jalr { rd, rs1, offset } => {
            let target = regs.read(rs1).wrapping_add(offset as u32) & !1;
            regs.write(rd, next);
            Issue::Next { pc: target }
        }
        Instr::Branch {
            op,
            rs1,
            rs2,
            offset,
        } => {
            let taken = branch_taken(op, regs.read(rs1), regs.read(rs2));
            Issue::Next {
                pc: if taken {
                    pc.wrapping_add(offset as u32)
                } else {
                    next
                },
            }
        }
        Instr::Load { op, rd, .. } => {
            let (width, signed) = match op {
                LoadOp::Lb => (MemWidth::Byte, true),
                LoadOp::Lh => (MemWidth::Half, true),
                LoadOp::Lw => (MemWidth::Word, false),
                LoadOp::Lbu => (MemWidth::Byte, false),
                LoadOp::Lhu => (MemWidth::Half, false),
            };
            mem(
                mem_addr(instr, regs),
                MemAccessKind::Load { width, signed, rd },
            )
        }
        Instr::Store { op, rs2, .. } => {
            let width = match op {
                StoreOp::Sb => MemWidth::Byte,
                StoreOp::Sh => MemWidth::Half,
                StoreOp::Sw => MemWidth::Word,
            };
            let value = regs.read(rs2);
            mem(mem_addr(instr, regs), MemAccessKind::Store { width, value })
        }
        Instr::OpImm { op, rd, rs1, imm } => {
            regs.write(rd, alu(op, regs.read(rs1), imm as u32));
            Issue::Next { pc: next }
        }
        Instr::Op { op, rd, rs1, rs2 } => {
            regs.write(rd, alu(op, regs.read(rs1), regs.read(rs2)));
            Issue::Next { pc: next }
        }
        Instr::Mul { op, rd, rs1, rs2 } => {
            regs.write(rd, mul(op, regs.read(rs1), regs.read(rs2)));
            Issue::Next { pc: next }
        }
        Instr::Amo { op, rd, rs2, .. } => {
            let value = regs.read(rs2);
            mem(mem_addr(instr, regs), MemAccessKind::Amo { op, value, rd })
        }
        Instr::Xpulp { op, rd, rs1, rs2 } => {
            regs.write(rd, op.apply(regs.read(rs1), regs.read(rs2)));
            Issue::Next { pc: next }
        }
        Instr::Mac { rd, rs1, rs2 } => {
            let acc = regs
                .read(rd)
                .wrapping_add(regs.read(rs1).wrapping_mul(regs.read(rs2)));
            regs.write(rd, acc);
            Issue::Next { pc: next }
        }
        Instr::LwPostInc { rd, rs1, offset } => {
            let addr = mem_addr(instr, regs);
            regs.write(rs1, regs.read(rs1).wrapping_add(offset as u32));
            let kind = MemAccessKind::Load {
                width: MemWidth::Word,
                signed: false,
                rd,
            };
            mem(addr, kind)
        }
        Instr::SwPostInc { rs2, rs1, offset } => {
            let addr = mem_addr(instr, regs);
            regs.write(rs1, regs.read(rs1).wrapping_add(offset as u32));
            // The data register is read after the increment.
            let kind = MemAccessKind::Store {
                width: MemWidth::Word,
                value: regs.read(rs2),
            };
            mem(addr, kind)
        }
        Instr::Csrrs { rd, csr, rs1: _ } => {
            let value = if csr == CSR_MHARTID { hartid } else { 0 };
            regs.write(rd, value);
            Issue::Next { pc: next }
        }
        Instr::Wfi => Issue::Halt,
        Instr::Fence => Issue::Next { pc: next },
    }
}

/// Applies a load's response value to the register file, handling
/// sign-extension.
pub(crate) fn apply_load(regs: &mut RegFile, kind: MemAccessKind, raw: u32) {
    match kind {
        MemAccessKind::Load { width, signed, rd } => {
            let value = match (width, signed) {
                (MemWidth::Byte, true) => raw as u8 as i8 as i32 as u32,
                (MemWidth::Byte, false) => raw as u8 as u32,
                (MemWidth::Half, true) => raw as u16 as i16 as i32 as u32,
                (MemWidth::Half, false) => raw as u16 as u32,
                (MemWidth::Word, _) => raw,
            };
            regs.write(rd, value);
        }
        MemAccessKind::Amo { rd, .. } => regs.write(rd, raw),
        MemAccessKind::Store { .. } => {}
    }
}

/// A synchronous single-core machine over a flat data memory.
///
/// This is the *golden model*: memory transactions complete instantly, so it
/// computes architecturally correct results against which the timing
/// simulator and kernel generators are verified.
#[derive(Debug, Clone)]
pub struct Machine {
    program: Program,
    regs: RegFile,
    pc: u32,
    mem: Vec<u8>,
    hartid: u32,
    halted: bool,
    retired: u64,
}

impl Machine {
    /// Creates a machine running `program` with `mem_bytes` of zeroed data
    /// memory.
    pub fn new(program: Program, mem_bytes: usize) -> Self {
        Machine {
            program,
            regs: RegFile::new(),
            pc: 0,
            mem: vec![0; mem_bytes],
            hartid: 0,
            halted: false,
            retired: 0,
        }
    }

    /// The register file.
    pub fn regs(&self) -> &RegFile {
        &self.regs
    }

    /// Reads a register by ABI name.
    ///
    /// # Errors
    ///
    /// Returns an error if the name is not a valid register.
    pub fn reg(&self, name: &str) -> Result<u32, ParseRegError> {
        Ok(self.regs.read(name.parse::<Reg>()?))
    }

    /// Number of retired instructions.
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Reads a 32-bit word from data memory.
    ///
    /// # Errors
    ///
    /// Returns an error if the address is out of bounds or misaligned.
    pub fn read_word(&self, addr: u32) -> Result<u32, ExecError> {
        self.check(addr, 4)?;
        let i = addr as usize;
        Ok(u32::from_le_bytes([
            self.mem[i],
            self.mem[i + 1],
            self.mem[i + 2],
            self.mem[i + 3],
        ]))
    }

    /// Writes a 32-bit word to data memory.
    ///
    /// # Errors
    ///
    /// Returns an error if the address is out of bounds or misaligned.
    pub(crate) fn write_word(&mut self, addr: u32, value: u32) -> Result<(), ExecError> {
        self.check(addr, 4)?;
        let i = addr as usize;
        self.mem[i..i + 4].copy_from_slice(&value.to_le_bytes());
        Ok(())
    }

    fn check(&self, addr: u32, width: u32) -> Result<(), ExecError> {
        if !addr.is_multiple_of(width) {
            return Err(ExecError::Misaligned { addr });
        }
        if (addr as usize) + (width as usize) > self.mem.len() {
            return Err(ExecError::MemOutOfBounds { addr });
        }
        Ok(())
    }

    fn mem_access(&mut self, req: MemRequest) -> Result<(), ExecError> {
        match req.kind {
            MemAccessKind::Load { width, .. } => {
                self.check(req.addr, width.bytes())?;
                let i = req.addr as usize;
                let raw = match width {
                    MemWidth::Byte => self.mem[i] as u32,
                    MemWidth::Half => u16::from_le_bytes([self.mem[i], self.mem[i + 1]]) as u32,
                    MemWidth::Word => self.read_word(req.addr)?,
                };
                apply_load(&mut self.regs, req.kind, raw);
            }
            MemAccessKind::Store { width, value } => {
                self.check(req.addr, width.bytes())?;
                let i = req.addr as usize;
                match width {
                    MemWidth::Byte => self.mem[i] = value as u8,
                    MemWidth::Half => {
                        self.mem[i..i + 2].copy_from_slice(&(value as u16).to_le_bytes())
                    }
                    MemWidth::Word => self.write_word(req.addr, value)?,
                }
            }
            MemAccessKind::Amo { op, value, rd } => {
                let old = self.read_word(req.addr)?;
                self.write_word(req.addr, op.apply(old, value))?;
                self.regs.write(rd, old);
            }
        }
        Ok(())
    }

    /// Executes one instruction.
    ///
    /// # Errors
    ///
    /// Returns an error on out-of-bounds or misaligned accesses, or when the
    /// program counter leaves the program.
    pub(crate) fn step(&mut self) -> Result<(), ExecError> {
        if self.halted {
            return Ok(());
        }
        let Some(instr) = self.program.fetch(self.pc) else {
            return Err(ExecError::PcOutOfRange { pc: self.pc });
        };
        self.retired += 1;
        match issue(instr, self.pc, &mut self.regs, self.hartid) {
            Issue::Next { pc } => self.pc = pc,
            Issue::Mem { req, next_pc } => {
                self.mem_access(req)?;
                self.pc = next_pc;
            }
            Issue::Halt => self.halted = true,
        }
        Ok(())
    }

    /// Runs until the core halts, returning the number of retired
    /// instructions.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::StepLimit`] if the core does not halt within
    /// `max_steps`, or any execution error raised along the way.
    pub fn run(&mut self, max_steps: u64) -> Result<u64, ExecError> {
        for _ in 0..max_steps {
            if self.halted {
                return Ok(self.retired);
            }
            self.step()?;
        }
        if self.halted {
            Ok(self.retired)
        } else {
            Err(ExecError::StepLimit { limit: max_steps })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::Program;

    fn run(src: &str) -> Machine {
        let program = Program::assemble(src).expect("assembly failed");
        let mut machine = Machine::new(program, 4096);
        machine.run(100_000).expect("run failed");
        machine
    }

    #[test]
    fn arithmetic_and_branches() {
        let m = run(r#"
            li   a0, 0      # sum
            li   a1, 1      # i
            li   a2, 11     # limit
        loop:
            add  a0, a0, a1
            addi a1, a1, 1
            blt  a1, a2, loop
            wfi
        "#);
        assert_eq!(m.reg("a0").unwrap(), 55);
    }

    #[test]
    fn loads_and_stores_round_trip_through_memory() {
        let m = run(r#"
            li   t0, 256
            li   t1, 0x12345678
            sw   t1, 0(t0)
            lw   t2, 0(t0)
            lh   t3, 0(t0)
            lhu  t4, 2(t0)
            lb   t5, 3(t0)
            lbu  t6, 0(t0)
            wfi
        "#);
        assert_eq!(m.reg("t2").unwrap(), 0x12345678);
        assert_eq!(m.reg("t3").unwrap(), 0x5678);
        assert_eq!(m.reg("t4").unwrap(), 0x1234);
        assert_eq!(m.reg("t5").unwrap(), 0x12);
        assert_eq!(m.reg("t6").unwrap(), 0x78);
    }

    #[test]
    fn signed_loads_sign_extend() {
        let m = run(r#"
            li   t0, 128
            li   t1, 0xFFFF8080
            sw   t1, 0(t0)
            lb   t2, 0(t0)
            lh   t3, 0(t0)
            wfi
        "#);
        assert_eq!(m.reg("t2").unwrap() as i32, -128);
        assert_eq!(m.reg("t3").unwrap() as i32, -32640);
    }

    #[test]
    fn mul_div_edge_cases() {
        let m = run(r#"
            li   a0, -7
            li   a1, 2
            mul  a2, a0, a1
            div  a3, a0, a1
            rem  a4, a0, a1
            li   a5, 0
            div  a6, a0, a5   # div by zero -> -1
            rem  a7, a0, a5   # rem by zero -> dividend
            wfi
        "#);
        assert_eq!(m.reg("a2").unwrap() as i32, -14);
        assert_eq!(m.reg("a3").unwrap() as i32, -3);
        assert_eq!(m.reg("a4").unwrap() as i32, -1);
        assert_eq!(m.reg("a6").unwrap(), u32::MAX);
        assert_eq!(m.reg("a7").unwrap() as i32, -7);
    }

    #[test]
    fn div_overflow_wraps_to_int_min() {
        let m = run(r#"
            li   a0, 0x80000000
            li   a1, -1
            div  a2, a0, a1
            rem  a3, a0, a1
            wfi
        "#);
        assert_eq!(m.reg("a2").unwrap(), 0x8000_0000);
        assert_eq!(m.reg("a3").unwrap(), 0);
    }

    #[test]
    fn mac_accumulates() {
        let m = run(r#"
            li   a0, 10
            li   a1, 3
            li   a2, 4
            p.mac a0, a1, a2
            p.mac a0, a1, a2
            wfi
        "#);
        assert_eq!(m.reg("a0").unwrap(), 34);
    }

    #[test]
    fn post_increment_load_store() {
        let m = run(r#"
            li   t0, 512       # write pointer
            li   t1, 7
            p.sw t1, 4(t0!)
            p.sw t1, 4(t0!)
            li   t2, 512       # read pointer
            p.lw a0, 4(t2!)
            p.lw a1, 4(t2!)
            wfi
        "#);
        assert_eq!(m.reg("a0").unwrap(), 7);
        assert_eq!(m.reg("a1").unwrap(), 7);
        assert_eq!(m.reg("t0").unwrap(), 520);
        assert_eq!(m.reg("t2").unwrap(), 520);
    }

    #[test]
    fn amo_add_returns_old_value() {
        let m = run(r#"
            li   t0, 64
            li   t1, 5
            sw   t1, 0(t0)
            li   t2, 3
            amoadd.w a0, t2, (t0)
            lw   a1, 0(t0)
            wfi
        "#);
        assert_eq!(m.reg("a0").unwrap(), 5);
        assert_eq!(m.reg("a1").unwrap(), 8);
    }

    #[test]
    fn jal_and_jalr_link() {
        let m = run(r#"
            jal  ra, func
            li   a1, 99
            wfi
        func:
            li   a0, 42
            jalr zero, 0(ra)
        "#);
        assert_eq!(m.reg("a0").unwrap(), 42);
        assert_eq!(m.reg("a1").unwrap(), 99);
    }

    #[test]
    fn csrrs_reads_hartid() {
        let program = Program::assemble("csrr a0, mhartid\nwfi").unwrap();
        let mut m = Machine::new(program, 64);
        m.hartid = 17;
        m.run(10).unwrap();
        assert_eq!(m.reg("a0").unwrap(), 17);
    }

    #[test]
    fn out_of_bounds_access_errors() {
        let program = Program::assemble("li t0, 0x10000\nlw a0, 0(t0)\nwfi").unwrap();
        let mut m = Machine::new(program, 4096);
        let err = m.run(10).unwrap_err();
        assert!(matches!(err, ExecError::MemOutOfBounds { .. }));
    }

    #[test]
    fn misaligned_access_errors() {
        let program = Program::assemble("li t0, 2\nlw a0, 0(t0)\nwfi").unwrap();
        let mut m = Machine::new(program, 4096);
        let err = m.run(10).unwrap_err();
        assert!(matches!(err, ExecError::Misaligned { addr: 2 }));
    }

    #[test]
    fn step_limit_reported() {
        let program = Program::assemble("loop: j loop").unwrap();
        let mut m = Machine::new(program, 64);
        let err = m.run(100).unwrap_err();
        assert_eq!(err, ExecError::StepLimit { limit: 100 });
    }

    #[test]
    fn retired_counts_instructions() {
        let m = run("li a0, 1\nli a1, 2\nadd a2, a0, a1\nwfi");
        assert_eq!(m.retired(), 4);
    }
}
