//! Typed instruction representation with binary encode/decode.
//!
//! The binary format follows the RISC-V unprivileged specification for the
//! I, M, and A subsets used here. The two `Xpulpimg` instructions the
//! kernels rely on are encoded in the *custom-0* opcode space (`0x0b`),
//! because the original PULP encodings reuse reserved fields in ways that
//! would complicate a clean-room decoder; the mapping is:
//!
//! | instruction | funct3 | format |
//! |---|---|---|
//! | `p.mac rd, rs1, rs2` | `000` | R-type (funct7 = 0) |
//! | `p.lw rd, imm(rs1!)` | `001` | I-type |
//! | `p.sw rs2, imm(rs1!)` | `010` | S-type |
//! | `p.min/p.max/p.minu/p.maxu/p.abs/p.clip` | `011` | R-type (funct7 selects) |
//!
//! An op's mnemonic and the bits that select it live in one place: its
//! family's op table (`BRANCH_OPS`, `LOAD_OPS`, `STORE_OPS`, `ALU_OPS`,
//! `ALU_IMM_OPS`, `MUL_OPS`, `AMO_OPS`, `XPULP_OPS`, and `BARE_OPS` for
//! `wfi`/`fence`). The assembler, `Display`, [`Instr::encode`] and
//! [`decode`] all read those rows.
//!
//! Every instruction round-trips: `decode(instr.encode()) == instr`.

use std::fmt;

use crate::reg::Reg;

/// Conditional-branch comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BranchOp {
    /// Branch if equal.
    Beq,
    /// Branch if not equal.
    Bne,
    /// Branch if less than (signed).
    Blt,
    /// Branch if greater or equal (signed).
    Bge,
    /// Branch if less than (unsigned).
    Bltu,
    /// Branch if greater or equal (unsigned).
    Bgeu,
}

/// Load width and sign behavior.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LoadOp {
    /// Load byte, sign-extended.
    Lb,
    /// Load half-word, sign-extended.
    Lh,
    /// Load word.
    Lw,
    /// Load byte, zero-extended.
    Lbu,
    /// Load half-word, zero-extended.
    Lhu,
}

/// Store width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StoreOp {
    /// Store byte.
    Sb,
    /// Store half-word.
    Sh,
    /// Store word.
    Sw,
}

/// Integer ALU operation (register-register; the immediate forms exclude
/// `Sub`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AluOp {
    /// Addition.
    Add,
    /// Subtraction (register form only).
    Sub,
    /// Logical shift left.
    Sll,
    /// Set if less than (signed).
    Slt,
    /// Set if less than (unsigned).
    Sltu,
    /// Bitwise exclusive or.
    Xor,
    /// Logical shift right.
    Srl,
    /// Arithmetic shift right.
    Sra,
    /// Bitwise or.
    Or,
    /// Bitwise and.
    And,
}

/// M-extension multiply/divide operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MulOp {
    /// Low 32 bits of the product.
    Mul,
    /// High 32 bits of the signed x signed product.
    Mulh,
    /// High 32 bits of the signed x unsigned product.
    Mulhsu,
    /// High 32 bits of the unsigned x unsigned product.
    Mulhu,
    /// Signed division.
    Div,
    /// Unsigned division.
    Divu,
    /// Signed remainder.
    Rem,
    /// Unsigned remainder.
    Remu,
}

/// A-extension atomic memory operation (word-sized).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AmoOp {
    /// Atomic add: `rd = mem[rs1]; mem[rs1] += rs2`.
    Add,
    /// Atomic swap: `rd = mem[rs1]; mem[rs1] = rs2`.
    Swap,
    /// Atomic and.
    And,
    /// Atomic or.
    Or,
    /// Atomic xor.
    Xor,
    /// Atomic signed maximum.
    Max,
    /// Atomic signed minimum.
    Min,
}

impl AmoOp {
    /// Applies the read-modify-write semantics: returns the new memory
    /// value given the `old` memory value and the `src` register operand.
    pub fn apply(self, old: u32, src: u32) -> u32 {
        match self {
            AmoOp::Add => old.wrapping_add(src),
            AmoOp::Swap => src,
            AmoOp::And => old & src,
            AmoOp::Or => old | src,
            AmoOp::Xor => old ^ src,
            AmoOp::Max => (old as i32).max(src as i32) as u32,
            AmoOp::Min => (old as i32).min(src as i32) as u32,
        }
    }
}

/// `Xpulpimg` scalar min/max/abs/clip operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum XpulpOp {
    /// Signed minimum.
    Min,
    /// Signed maximum.
    Max,
    /// Unsigned minimum.
    MinU,
    /// Unsigned maximum.
    MaxU,
    /// Absolute value (`rs2` ignored).
    Abs,
    /// Clip to `[0, rs2]` (the ReLU-with-ceiling of the DSP kernels).
    Clip,
}

impl XpulpOp {
    /// Applies the operation.
    pub(crate) fn apply(self, a: u32, b: u32) -> u32 {
        match self {
            XpulpOp::Min => (a as i32).min(b as i32) as u32,
            XpulpOp::Max => (a as i32).max(b as i32) as u32,
            XpulpOp::MinU => a.min(b),
            XpulpOp::MaxU => a.max(b),
            XpulpOp::Abs => (a as i32).unsigned_abs(),
            // A negative ceiling degenerates to zero (the clip window
            // `[0, rs2]` is empty below zero) — found by the randomized
            // co-simulation tests.
            XpulpOp::Clip => (a as i32).clamp(0, (b as i32).max(0)) as u32,
        }
    }
}

/// One decoded instruction.
///
/// # Example
///
/// ```
/// use mempool_isa::{decode, Instr};
/// use mempool_isa::instr::{AluOp};
///
/// let add = "add a0, a1, a2".parse::<Instr>()?;
/// assert_eq!(decode(add.encode())?, add);
/// assert_eq!(add.to_string(), "add a0, a1, a2");
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instr {
    /// Load upper immediate; `imm` holds the already-shifted 32-bit value
    /// (low 12 bits zero).
    Lui {
        /// Destination register.
        rd: Reg,
        /// Upper-immediate value with the low 12 bits clear.
        imm: u32,
    },
    /// Add upper immediate to PC.
    Auipc {
        /// Destination register.
        rd: Reg,
        /// Upper-immediate value with the low 12 bits clear.
        imm: u32,
    },
    /// Jump and link.
    Jal {
        /// Destination register for the return address.
        rd: Reg,
        /// PC-relative byte offset.
        offset: i32,
    },
    /// Jump and link register.
    Jalr {
        /// Destination register for the return address.
        rd: Reg,
        /// Base register.
        rs1: Reg,
        /// Byte offset added to `rs1`.
        offset: i32,
    },
    /// Conditional branch.
    Branch {
        /// Comparison performed.
        op: BranchOp,
        /// First operand.
        rs1: Reg,
        /// Second operand.
        rs2: Reg,
        /// PC-relative byte offset.
        offset: i32,
    },
    /// Load from memory.
    Load {
        /// Width/sign variant.
        op: LoadOp,
        /// Destination register.
        rd: Reg,
        /// Base register.
        rs1: Reg,
        /// Byte offset.
        offset: i32,
    },
    /// Store to memory.
    Store {
        /// Width variant.
        op: StoreOp,
        /// Source register holding the data.
        rs2: Reg,
        /// Base register.
        rs1: Reg,
        /// Byte offset.
        offset: i32,
    },
    /// ALU operation with an immediate operand.
    OpImm {
        /// Operation (never `Sub`).
        op: AluOp,
        /// Destination register.
        rd: Reg,
        /// Source register.
        rs1: Reg,
        /// Immediate operand (shift amounts use the low 5 bits).
        imm: i32,
    },
    /// Register-register ALU operation.
    Op {
        /// Operation.
        op: AluOp,
        /// Destination register.
        rd: Reg,
        /// First source register.
        rs1: Reg,
        /// Second source register.
        rs2: Reg,
    },
    /// M-extension multiply/divide.
    Mul {
        /// Operation.
        op: MulOp,
        /// Destination register.
        rd: Reg,
        /// First source register.
        rs1: Reg,
        /// Second source register.
        rs2: Reg,
    },
    /// A-extension atomic word operation.
    Amo {
        /// Read-modify-write operation.
        op: AmoOp,
        /// Destination register receiving the old memory value.
        rd: Reg,
        /// Address register.
        rs1: Reg,
        /// Operand register.
        rs2: Reg,
    },
    /// `Xpulpimg` multiply-accumulate: `rd += rs1 * rs2`.
    Mac {
        /// Accumulator (read and written).
        rd: Reg,
        /// First factor.
        rs1: Reg,
        /// Second factor.
        rs2: Reg,
    },
    /// `Xpulpimg` scalar min/max/abs/clip.
    Xpulp {
        /// Operation.
        op: XpulpOp,
        /// Destination register.
        rd: Reg,
        /// First operand.
        rs1: Reg,
        /// Second operand (ignored by `Abs`).
        rs2: Reg,
    },
    /// `Xpulpimg` post-incrementing load word: `rd = mem[rs1]; rs1 += offset`.
    LwPostInc {
        /// Destination register.
        rd: Reg,
        /// Base register, incremented after the access.
        rs1: Reg,
        /// Post-increment amount in bytes.
        offset: i32,
    },
    /// `Xpulpimg` post-incrementing store word: `mem[rs1] = rs2; rs1 += offset`.
    SwPostInc {
        /// Source register holding the data.
        rs2: Reg,
        /// Base register, incremented after the access.
        rs1: Reg,
        /// Post-increment amount in bytes.
        offset: i32,
    },
    /// CSR read-and-set (used to read `mhartid` with `rs1 = x0`).
    Csrrs {
        /// Destination register receiving the old CSR value.
        rd: Reg,
        /// CSR address.
        csr: u16,
        /// Set-mask register.
        rs1: Reg,
    },
    /// Wait for interrupt; the simulator treats this as "core halted".
    Wfi,
    /// Memory fence (a no-op in this in-order model, kept for binary
    /// compatibility).
    Fence,
}

/// The `mhartid` CSR address: each core reads its cluster-global index here.
pub const CSR_MHARTID: u16 = 0xf14;

// Opcode constants (bits [6:0]).
const OP_LUI: u32 = 0b011_0111;
const OP_AUIPC: u32 = 0b001_0111;
const OP_JAL: u32 = 0b110_1111;
const OP_JALR: u32 = 0b110_0111;
const OP_BRANCH: u32 = 0b110_0011;
const OP_LOAD: u32 = 0b000_0011;
const OP_STORE: u32 = 0b010_0011;
const OP_OP_IMM: u32 = 0b001_0011;
const OP_OP: u32 = 0b011_0011;
const OP_AMO: u32 = 0b010_1111;
const OP_SYSTEM: u32 = 0b111_0011;
const OP_MISC_MEM: u32 = 0b000_1111;
const OP_CUSTOM0: u32 = 0b000_1011;

/// `funct3` (bits [14:12]) in place.
const fn f3(funct3: u32) -> u32 {
    funct3 << 12
}

/// An AMO's `funct5` (bits [31:27]) in place.
const fn f5(funct5: u32) -> u32 {
    funct5 << 27
}

/// `funct7` (bits [31:25]) in place.
const fn f7(funct7: u32) -> u32 {
    funct7 << 25
}

const FUNCT3: u32 = f3(0b111);
const FUNCT5: u32 = f5(0b1_1111);
const FUNCT7: u32 = f7(0b111_1111);

// The bits that select a family (or a lone instruction) inside its opcode.
const MULDIV: u32 = f7(0b000_0001);
const AMO_W: u32 = f3(0b010);
const P_MAC: u32 = f3(0b000);
const P_LW: u32 = f3(0b001);
const P_SW: u32 = f3(0b010);
const P_SCALAR: u32 = f3(0b011);
const CSRRS: u32 = f3(0b010);
/// Bit 30, which selects the alternate op: `funct7` of `sub` and `sra`,
/// immediate bit 10 of `srai`.
const ALT: u32 = f7(0b010_0000);

/// An op table: each op of a family with its mnemonic and the bits that
/// select it inside the instruction word, already in place. The
/// assembler, [`Instr::encode`], [`decode`] and `Display` all read these
/// rows; nothing else spells an op.
pub(crate) type OpTable<Op> = [(Op, &'static str, u32)];

/// Conditional branches, by `funct3`.
pub(crate) const BRANCH_OPS: [(BranchOp, &str, u32); 6] = [
    (BranchOp::Beq, "beq", f3(0b000)),
    (BranchOp::Bne, "bne", f3(0b001)),
    (BranchOp::Blt, "blt", f3(0b100)),
    (BranchOp::Bge, "bge", f3(0b101)),
    (BranchOp::Bltu, "bltu", f3(0b110)),
    (BranchOp::Bgeu, "bgeu", f3(0b111)),
];

/// Loads, by `funct3`.
pub(crate) const LOAD_OPS: [(LoadOp, &str, u32); 5] = [
    (LoadOp::Lb, "lb", f3(0b000)),
    (LoadOp::Lh, "lh", f3(0b001)),
    (LoadOp::Lw, "lw", f3(0b010)),
    (LoadOp::Lbu, "lbu", f3(0b100)),
    (LoadOp::Lhu, "lhu", f3(0b101)),
];

/// Stores, by `funct3`.
pub(crate) const STORE_OPS: [(StoreOp, &str, u32); 3] = [
    (StoreOp::Sb, "sb", f3(0b000)),
    (StoreOp::Sh, "sh", f3(0b001)),
    (StoreOp::Sw, "sw", f3(0b010)),
];

/// Register-register ALU ops, by `funct7` and `funct3`.
pub(crate) const ALU_OPS: [(AluOp, &str, u32); 10] = [
    (AluOp::Add, "add", f3(0b000)),
    (AluOp::Sub, "sub", ALT | f3(0b000)),
    (AluOp::Sll, "sll", f3(0b001)),
    (AluOp::Slt, "slt", f3(0b010)),
    (AluOp::Sltu, "sltu", f3(0b011)),
    (AluOp::Xor, "xor", f3(0b100)),
    (AluOp::Srl, "srl", f3(0b101)),
    (AluOp::Sra, "sra", ALT | f3(0b101)),
    (AluOp::Or, "or", f3(0b110)),
    (AluOp::And, "and", f3(0b111)),
];

/// ALU ops with an immediate, by `funct3`. A shift's immediate bits
/// [11:5] act as its `funct7`; only `srai` sets one (`ALT`).
pub(crate) const ALU_IMM_OPS: [(AluOp, &str, u32); 9] = [
    (AluOp::Add, "addi", f3(0b000)),
    (AluOp::Slt, "slti", f3(0b010)),
    (AluOp::Sltu, "sltiu", f3(0b011)),
    (AluOp::Xor, "xori", f3(0b100)),
    (AluOp::Or, "ori", f3(0b110)),
    (AluOp::And, "andi", f3(0b111)),
    (AluOp::Sll, "slli", f3(0b001)),
    (AluOp::Srl, "srli", f3(0b101)),
    (AluOp::Sra, "srai", ALT | f3(0b101)),
];

/// M-extension ops, by `funct3` (the family is `funct7 = 1` of `OP`).
pub(crate) const MUL_OPS: [(MulOp, &str, u32); 8] = [
    (MulOp::Mul, "mul", f3(0b000)),
    (MulOp::Mulh, "mulh", f3(0b001)),
    (MulOp::Mulhsu, "mulhsu", f3(0b010)),
    (MulOp::Mulhu, "mulhu", f3(0b011)),
    (MulOp::Div, "div", f3(0b100)),
    (MulOp::Divu, "divu", f3(0b101)),
    (MulOp::Rem, "rem", f3(0b110)),
    (MulOp::Remu, "remu", f3(0b111)),
];

/// Word atomics, by `funct5` (the `aq`/`rl` bits are neither set nor
/// decoded).
pub(crate) const AMO_OPS: [(AmoOp, &str, u32); 7] = [
    (AmoOp::Add, "amoadd.w", f5(0b00000)),
    (AmoOp::Swap, "amoswap.w", f5(0b00001)),
    (AmoOp::Xor, "amoxor.w", f5(0b00100)),
    (AmoOp::And, "amoand.w", f5(0b01100)),
    (AmoOp::Or, "amoor.w", f5(0b01000)),
    (AmoOp::Min, "amomin.w", f5(0b10000)),
    (AmoOp::Max, "amomax.w", f5(0b10100)),
];

/// `Xpulpimg` scalar ops, by `funct7` (the family is `funct3 = 011` of
/// custom-0).
pub(crate) const XPULP_OPS: [(XpulpOp, &str, u32); 6] = [
    (XpulpOp::Min, "p.min", f7(0)),
    (XpulpOp::Max, "p.max", f7(1)),
    (XpulpOp::MinU, "p.minu", f7(2)),
    (XpulpOp::MaxU, "p.maxu", f7(3)),
    (XpulpOp::Abs, "p.abs", f7(4)),
    (XpulpOp::Clip, "p.clip", f7(5)),
];

/// The instructions without operands, by their whole word. Any `fence`
/// word decodes, the canonical one is encoded.
pub(crate) const BARE_OPS: [(Instr, &str, u32); 2] = [
    (Instr::Wfi, "wfi", 0x1050_0073),
    (Instr::Fence, "fence", OP_MISC_MEM),
];

/// The mnemonic and selecting bits of `op`'s row.
fn spell<Op: Copy + PartialEq + fmt::Debug>(table: &OpTable<Op>, op: Op) -> (&'static str, u32) {
    match table.iter().find(|row| row.0 == op) {
        Some(&(_, name, bits)) => (name, bits),
        None => unreachable!("{op:?} has no row in its op table"),
    }
}

fn name<Op: Copy + PartialEq + fmt::Debug>(table: &OpTable<Op>, op: Op) -> &'static str {
    spell(table, op).0
}

fn bits<Op: Copy + PartialEq + fmt::Debug>(table: &OpTable<Op>, op: Op) -> u32 {
    spell(table, op).1
}

/// The op whose row is spelled `mnemonic`.
pub(crate) fn named<Op: Copy>(table: &OpTable<Op>, mnemonic: &str) -> Option<Op> {
    table.iter().find(|row| row.1 == mnemonic).map(|row| row.0)
}

/// The op whose row has exactly the selecting `bits`.
fn selected<Op: Copy>(table: &OpTable<Op>, bits: u32) -> Option<Op> {
    table.iter().find(|row| row.2 == bits).map(|row| row.0)
}

impl AluOp {
    /// Whether the immediate form takes a 5-bit shift amount.
    fn is_shift(self) -> bool {
        matches!(self, AluOp::Sll | AluOp::Srl | AluOp::Sra)
    }
}

// The formats take the opcode with the selecting bits already ORed in.
fn r_type(fixed: u32, rd: Reg, rs1: Reg, rs2: Reg) -> u32 {
    fixed
        | ((rd.number() as u32) << 7)
        | ((rs1.number() as u32) << 15)
        | ((rs2.number() as u32) << 20)
}

fn i_type(fixed: u32, rd: Reg, rs1: Reg, imm: i32) -> u32 {
    fixed
        | ((rd.number() as u32) << 7)
        | ((rs1.number() as u32) << 15)
        | (((imm as u32) & 0xfff) << 20)
}

fn s_type(fixed: u32, rs1: Reg, rs2: Reg, imm: i32) -> u32 {
    let imm = imm as u32;
    fixed
        | ((imm & 0x1f) << 7)
        | ((rs1.number() as u32) << 15)
        | ((rs2.number() as u32) << 20)
        | (((imm >> 5) & 0x7f) << 25)
}

fn b_type(fixed: u32, rs1: Reg, rs2: Reg, offset: i32) -> u32 {
    let imm = offset as u32;
    fixed
        | (((imm >> 11) & 1) << 7)
        | (((imm >> 1) & 0xf) << 8)
        | ((rs1.number() as u32) << 15)
        | ((rs2.number() as u32) << 20)
        | (((imm >> 5) & 0x3f) << 25)
        | (((imm >> 12) & 1) << 31)
}

fn j_type(opcode: u32, rd: Reg, offset: i32) -> u32 {
    let imm = offset as u32;
    opcode
        | ((rd.number() as u32) << 7)
        | (((imm >> 12) & 0xff) << 12)
        | (((imm >> 11) & 1) << 20)
        | (((imm >> 1) & 0x3ff) << 21)
        | (((imm >> 20) & 1) << 31)
}

fn sign_extend(value: u32, bits: u32) -> i32 {
    let shift = 32 - bits;
    ((value << shift) as i32) >> shift
}

impl Instr {
    /// Encodes the instruction into its 32-bit binary form.
    pub fn encode(self) -> u32 {
        match self {
            Instr::Lui { rd, imm } => OP_LUI | ((rd.number() as u32) << 7) | (imm & 0xffff_f000),
            Instr::Auipc { rd, imm } => {
                OP_AUIPC | ((rd.number() as u32) << 7) | (imm & 0xffff_f000)
            }
            Instr::Jal { rd, offset } => j_type(OP_JAL, rd, offset),
            Instr::Jalr { rd, rs1, offset } => i_type(OP_JALR, rd, rs1, offset),
            Instr::Branch {
                op,
                rs1,
                rs2,
                offset,
            } => b_type(OP_BRANCH | bits(&BRANCH_OPS, op), rs1, rs2, offset),
            Instr::Load {
                op,
                rd,
                rs1,
                offset,
            } => i_type(OP_LOAD | bits(&LOAD_OPS, op), rd, rs1, offset),
            Instr::Store {
                op,
                rs2,
                rs1,
                offset,
            } => s_type(OP_STORE | bits(&STORE_OPS, op), rs1, rs2, offset),
            Instr::OpImm { op, rd, rs1, imm } => {
                let imm = if op.is_shift() { imm & 0x1f } else { imm };
                i_type(OP_OP_IMM | bits(&ALU_IMM_OPS, op), rd, rs1, imm)
            }
            Instr::Op { op, rd, rs1, rs2 } => r_type(OP_OP | bits(&ALU_OPS, op), rd, rs1, rs2),
            Instr::Mul { op, rd, rs1, rs2 } => {
                r_type(OP_OP | MULDIV | bits(&MUL_OPS, op), rd, rs1, rs2)
            }
            Instr::Amo { op, rd, rs1, rs2 } => {
                r_type(OP_AMO | AMO_W | bits(&AMO_OPS, op), rd, rs1, rs2)
            }
            Instr::Mac { rd, rs1, rs2 } => r_type(OP_CUSTOM0 | P_MAC, rd, rs1, rs2),
            Instr::Xpulp { op, rd, rs1, rs2 } => {
                r_type(OP_CUSTOM0 | P_SCALAR | bits(&XPULP_OPS, op), rd, rs1, rs2)
            }
            Instr::LwPostInc { rd, rs1, offset } => i_type(OP_CUSTOM0 | P_LW, rd, rs1, offset),
            Instr::SwPostInc { rs2, rs1, offset } => s_type(OP_CUSTOM0 | P_SW, rs1, rs2, offset),
            Instr::Csrrs { rd, csr, rs1 } => i_type(OP_SYSTEM | CSRRS, rd, rs1, csr as i32),
            Instr::Wfi | Instr::Fence => bits(&BARE_OPS, self),
        }
    }
}

/// Error returned when a 32-bit word is not a recognized instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError {
    word: u32,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot decode instruction word {:#010x}", self.word)
    }
}

impl std::error::Error for DecodeError {}

/// Decodes a 32-bit instruction word.
///
/// # Errors
///
/// Returns [`DecodeError`] for words outside the implemented subset.
pub fn decode(word: u32) -> Result<Instr, DecodeError> {
    let err = DecodeError { word };
    let opcode = word & 0x7f;
    let rd = Reg::from_bits(word >> 7);
    let rs1 = Reg::from_bits(word >> 15);
    let rs2 = Reg::from_bits(word >> 20);
    let funct3 = word & FUNCT3;
    let i_imm = sign_extend(word >> 20, 12);
    let s_imm = sign_extend(((word >> 25) << 5) | ((word >> 7) & 0x1f), 12);
    let b_imm = sign_extend(
        (((word >> 31) & 1) << 12)
            | (((word >> 7) & 1) << 11)
            | (((word >> 25) & 0x3f) << 5)
            | (((word >> 8) & 0xf) << 1),
        13,
    );
    let j_imm = sign_extend(
        (((word >> 31) & 1) << 20)
            | (((word >> 12) & 0xff) << 12)
            | (((word >> 20) & 1) << 11)
            | (((word >> 21) & 0x3ff) << 1),
        21,
    );

    Ok(match opcode {
        OP_LUI => Instr::Lui {
            rd,
            imm: word & 0xffff_f000,
        },
        OP_AUIPC => Instr::Auipc {
            rd,
            imm: word & 0xffff_f000,
        },
        OP_JAL => Instr::Jal { rd, offset: j_imm },
        OP_JALR if funct3 == 0 => Instr::Jalr {
            rd,
            rs1,
            offset: i_imm,
        },
        OP_BRANCH => Instr::Branch {
            op: selected(&BRANCH_OPS, funct3).ok_or(err)?,
            rs1,
            rs2,
            offset: b_imm,
        },
        OP_LOAD => Instr::Load {
            op: selected(&LOAD_OPS, funct3).ok_or(err)?,
            rd,
            rs1,
            offset: i_imm,
        },
        OP_STORE => Instr::Store {
            op: selected(&STORE_OPS, funct3).ok_or(err)?,
            rs2,
            rs1,
            offset: s_imm,
        },
        OP_OP_IMM => {
            // Bit 30 selects `srai`; in any other row it is an immediate
            // bit (a shift amount's other high bits are not decoded).
            let op = selected(&ALU_IMM_OPS, word & (FUNCT3 | ALT))
                .or_else(|| selected(&ALU_IMM_OPS, funct3))
                .ok_or(err)?;
            let imm = if op.is_shift() { i_imm & 0x1f } else { i_imm };
            Instr::OpImm { op, rd, rs1, imm }
        }
        OP_OP if word & FUNCT7 == MULDIV => Instr::Mul {
            op: selected(&MUL_OPS, funct3).ok_or(err)?,
            rd,
            rs1,
            rs2,
        },
        OP_OP => Instr::Op {
            op: selected(&ALU_OPS, word & (FUNCT7 | FUNCT3)).ok_or(err)?,
            rd,
            rs1,
            rs2,
        },
        OP_AMO if funct3 == AMO_W => Instr::Amo {
            op: selected(&AMO_OPS, word & FUNCT5).ok_or(err)?,
            rd,
            rs1,
            rs2,
        },
        OP_CUSTOM0 => match funct3 {
            P_MAC if word & FUNCT7 == 0 => Instr::Mac { rd, rs1, rs2 },
            P_LW => Instr::LwPostInc {
                rd,
                rs1,
                offset: i_imm,
            },
            P_SW => Instr::SwPostInc {
                rs2,
                rs1,
                offset: s_imm,
            },
            P_SCALAR => Instr::Xpulp {
                op: selected(&XPULP_OPS, word & FUNCT7).ok_or(err)?,
                rd,
                rs1,
                rs2,
            },
            _ => return Err(err),
        },
        OP_SYSTEM if funct3 == CSRRS => Instr::Csrrs {
            rd,
            csr: ((word >> 20) & 0xfff) as u16,
            rs1,
        },
        OP_MISC_MEM if funct3 == 0 => Instr::Fence,
        _ => return selected(&BARE_OPS, word).ok_or(err),
    })
}

impl Instr {
    /// Registers read by this instruction (including `rd` for the
    /// accumulating `p.mac`). Used by timing models for scoreboard stalls.
    #[inline]
    pub fn src_regs(self) -> [Option<Reg>; 3] {
        match self {
            Instr::Lui { .. } | Instr::Auipc { .. } | Instr::Jal { .. } => [None; 3],
            Instr::Jalr { rs1, .. } => [Some(rs1), None, None],
            Instr::Branch { rs1, rs2, .. } => [Some(rs1), Some(rs2), None],
            Instr::Load { rs1, .. } => [Some(rs1), None, None],
            Instr::Store { rs1, rs2, .. } => [Some(rs1), Some(rs2), None],
            Instr::OpImm { rs1, .. } => [Some(rs1), None, None],
            Instr::Op { rs1, rs2, .. } | Instr::Mul { rs1, rs2, .. } => {
                [Some(rs1), Some(rs2), None]
            }
            Instr::Amo { rs1, rs2, .. } => [Some(rs1), Some(rs2), None],
            Instr::Mac { rd, rs1, rs2 } => [Some(rs1), Some(rs2), Some(rd)],
            Instr::Xpulp { rs1, rs2, .. } => [Some(rs1), Some(rs2), None],
            Instr::LwPostInc { rs1, .. } => [Some(rs1), None, None],
            Instr::SwPostInc { rs1, rs2, .. } => [Some(rs1), Some(rs2), None],
            Instr::Csrrs { rs1, .. } => [Some(rs1), None, None],
            Instr::Wfi | Instr::Fence => [None; 3],
        }
    }

    /// Register written at *issue* time (ALU results, links, post-increment
    /// base updates). Memory responses write [`Self::response_reg`] instead.
    #[inline]
    pub fn dst_reg(self) -> Option<Reg> {
        let rd = match self {
            Instr::Lui { rd, .. }
            | Instr::Auipc { rd, .. }
            | Instr::Jal { rd, .. }
            | Instr::Jalr { rd, .. }
            | Instr::OpImm { rd, .. }
            | Instr::Op { rd, .. }
            | Instr::Mul { rd, .. }
            | Instr::Mac { rd, .. }
            | Instr::Xpulp { rd, .. }
            | Instr::Csrrs { rd, .. } => Some(rd),
            Instr::LwPostInc { rs1, .. } | Instr::SwPostInc { rs1, .. } => Some(rs1),
            Instr::Branch { .. }
            | Instr::Load { .. }
            | Instr::Store { .. }
            | Instr::Amo { .. }
            | Instr::Wfi
            | Instr::Fence => None,
        };
        rd.filter(|r| r.number() != 0)
    }

    /// Register written by the *memory response*, if this instruction is a
    /// load or AMO.
    #[inline]
    pub fn response_reg(self) -> Option<Reg> {
        let rd = match self {
            Instr::Load { rd, .. } | Instr::Amo { rd, .. } | Instr::LwPostInc { rd, .. } => {
                Some(rd)
            }
            _ => None,
        };
        rd.filter(|r| r.number() != 0)
    }

    /// Whether this instruction accesses data memory.
    #[inline]
    pub fn is_mem(self) -> bool {
        matches!(
            self,
            Instr::Load { .. }
                | Instr::Store { .. }
                | Instr::Amo { .. }
                | Instr::LwPostInc { .. }
                | Instr::SwPostInc { .. }
        )
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Instr::Lui { rd, imm } => write!(f, "lui {rd}, {:#x}", imm >> 12),
            Instr::Auipc { rd, imm } => write!(f, "auipc {rd}, {:#x}", imm >> 12),
            Instr::Jal { rd, offset } => write!(f, "jal {rd}, {offset}"),
            Instr::Jalr { rd, rs1, offset } => write!(f, "jalr {rd}, {offset}({rs1})"),
            Instr::Branch {
                op,
                rs1,
                rs2,
                offset,
            } => write!(f, "{} {rs1}, {rs2}, {offset}", name(&BRANCH_OPS, op)),
            Instr::Load {
                op,
                rd,
                rs1,
                offset,
            } => write!(f, "{} {rd}, {offset}({rs1})", name(&LOAD_OPS, op)),
            Instr::Store {
                op,
                rs2,
                rs1,
                offset,
            } => write!(f, "{} {rs2}, {offset}({rs1})", name(&STORE_OPS, op)),
            Instr::OpImm { op, rd, rs1, imm } => {
                write!(f, "{} {rd}, {rs1}, {imm}", name(&ALU_IMM_OPS, op))
            }
            Instr::Op { op, rd, rs1, rs2 } => {
                write!(f, "{} {rd}, {rs1}, {rs2}", name(&ALU_OPS, op))
            }
            Instr::Mul { op, rd, rs1, rs2 } => {
                write!(f, "{} {rd}, {rs1}, {rs2}", name(&MUL_OPS, op))
            }
            Instr::Amo { op, rd, rs1, rs2 } => {
                write!(f, "{} {rd}, {rs2}, ({rs1})", name(&AMO_OPS, op))
            }
            Instr::Mac { rd, rs1, rs2 } => write!(f, "p.mac {rd}, {rs1}, {rs2}"),
            Instr::Xpulp { op, rd, rs1, .. } if op == XpulpOp::Abs => {
                write!(f, "{} {rd}, {rs1}", name(&XPULP_OPS, op))
            }
            Instr::Xpulp { op, rd, rs1, rs2 } => {
                write!(f, "{} {rd}, {rs1}, {rs2}", name(&XPULP_OPS, op))
            }
            Instr::LwPostInc { rd, rs1, offset } => write!(f, "p.lw {rd}, {offset}({rs1}!)"),
            Instr::SwPostInc { rs2, rs1, offset } => write!(f, "p.sw {rs2}, {offset}({rs1}!)"),
            Instr::Csrrs { rd, csr, rs1 } => write!(f, "csrrs {rd}, {csr:#x}, {rs1}"),
            Instr::Wfi | Instr::Fence => f.write_str(name(&BARE_OPS, *self)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(n: u8) -> Reg {
        Reg::new(n)
    }

    fn round_trip(instr: Instr) {
        let word = instr.encode();
        let back = decode(word).unwrap_or_else(|e| panic!("{instr}: {e}"));
        assert_eq!(back, instr, "round trip of `{instr}` ({word:#010x})");
    }

    #[test]
    fn alu_round_trips() {
        for op in [
            AluOp::Add,
            AluOp::Sub,
            AluOp::Sll,
            AluOp::Slt,
            AluOp::Sltu,
            AluOp::Xor,
            AluOp::Srl,
            AluOp::Sra,
            AluOp::Or,
            AluOp::And,
        ] {
            round_trip(Instr::Op {
                op,
                rd: r(5),
                rs1: r(6),
                rs2: r(7),
            });
        }
    }

    #[test]
    fn op_imm_round_trips_with_negative_imm() {
        for (op, imm) in [
            (AluOp::Add, -2048),
            (AluOp::Add, 2047),
            (AluOp::Xor, -1),
            (AluOp::Sll, 31),
            (AluOp::Srl, 1),
            (AluOp::Sra, 17),
            (AluOp::And, 255),
        ] {
            round_trip(Instr::OpImm {
                op,
                rd: r(1),
                rs1: r(2),
                imm,
            });
        }
    }

    #[test]
    fn branch_offsets_round_trip() {
        for offset in [-4096, -2, 0, 2, 4094] {
            round_trip(Instr::Branch {
                op: BranchOp::Bne,
                rs1: r(3),
                rs2: r(4),
                offset,
            });
        }
    }

    #[test]
    fn jal_offsets_round_trip() {
        for offset in [-1048576, -2, 0, 2, 1048574] {
            round_trip(Instr::Jal {
                rd: Reg::RA,
                offset,
            });
        }
    }

    #[test]
    fn loads_and_stores_round_trip() {
        for op in [LoadOp::Lb, LoadOp::Lh, LoadOp::Lw, LoadOp::Lbu, LoadOp::Lhu] {
            round_trip(Instr::Load {
                op,
                rd: r(8),
                rs1: r(9),
                offset: -4,
            });
        }
        for op in [StoreOp::Sb, StoreOp::Sh, StoreOp::Sw] {
            round_trip(Instr::Store {
                op,
                rs2: r(8),
                rs1: r(9),
                offset: 2047,
            });
        }
    }

    #[test]
    fn mul_div_round_trip() {
        for op in [
            MulOp::Mul,
            MulOp::Mulh,
            MulOp::Mulhsu,
            MulOp::Mulhu,
            MulOp::Div,
            MulOp::Divu,
            MulOp::Rem,
            MulOp::Remu,
        ] {
            round_trip(Instr::Mul {
                op,
                rd: r(10),
                rs1: r(11),
                rs2: r(12),
            });
        }
    }

    #[test]
    fn amo_round_trips() {
        for op in [
            AmoOp::Add,
            AmoOp::Swap,
            AmoOp::And,
            AmoOp::Or,
            AmoOp::Xor,
            AmoOp::Max,
            AmoOp::Min,
        ] {
            round_trip(Instr::Amo {
                op,
                rd: r(13),
                rs1: r(14),
                rs2: r(15),
            });
        }
    }

    #[test]
    fn xpulpimg_round_trips() {
        round_trip(Instr::Mac {
            rd: r(1),
            rs1: r(2),
            rs2: r(3),
        });
        round_trip(Instr::LwPostInc {
            rd: r(4),
            rs1: r(5),
            offset: 4,
        });
        round_trip(Instr::SwPostInc {
            rs2: r(6),
            rs1: r(7),
            offset: -8,
        });
    }

    #[test]
    fn xpulp_scalar_ops_round_trip() {
        for op in [
            XpulpOp::Min,
            XpulpOp::Max,
            XpulpOp::MinU,
            XpulpOp::MaxU,
            XpulpOp::Abs,
            XpulpOp::Clip,
        ] {
            round_trip(Instr::Xpulp {
                op,
                rd: r(8),
                rs1: r(9),
                rs2: r(10),
            });
        }
    }

    #[test]
    fn xpulp_apply_semantics() {
        let neg5 = -5i32 as u32;
        assert_eq!(XpulpOp::Min.apply(neg5, 3), neg5);
        assert_eq!(XpulpOp::Max.apply(neg5, 3), 3);
        assert_eq!(XpulpOp::MinU.apply(neg5, 3), 3); // unsigned: -5 is huge
        assert_eq!(XpulpOp::MaxU.apply(neg5, 3), neg5);
        assert_eq!(XpulpOp::Abs.apply(neg5, 0), 5);
        assert_eq!(XpulpOp::Abs.apply(7, 0), 7);
        assert_eq!(XpulpOp::Clip.apply(neg5, 10), 0);
        assert_eq!(XpulpOp::Clip.apply(15, 10), 10);
        assert_eq!(XpulpOp::Clip.apply(7, 10), 7);
        // Negative ceilings collapse the window to zero instead of
        // panicking.
        assert_eq!(XpulpOp::Clip.apply(7, -3i32 as u32), 0);
        assert_eq!(XpulpOp::Clip.apply(-7i32 as u32, -3i32 as u32), 0);
    }

    #[test]
    fn system_round_trips() {
        round_trip(Instr::Wfi);
        round_trip(Instr::Fence);
        round_trip(Instr::Csrrs {
            rd: r(10),
            csr: CSR_MHARTID,
            rs1: Reg::ZERO,
        });
    }

    #[test]
    fn lui_keeps_upper_bits_only() {
        round_trip(Instr::Lui {
            rd: r(20),
            imm: 0xdead_b000,
        });
        round_trip(Instr::Auipc {
            rd: r(21),
            imm: 0xffff_f000,
        });
    }

    /// The mnemonics of a table's rows.
    fn names<Op>(table: &OpTable<Op>) -> impl Iterator<Item = &'static str> + '_ {
        table.iter().map(|row| row.1)
    }

    /// Every row of every op table, spelled as source text: assembled,
    /// encoded, decoded and displayed, it comes back as the same text.
    #[test]
    fn every_op_table_row_round_trips_through_text_and_bits() {
        let mut texts: Vec<String> = Vec::new();
        texts.extend(names(&BRANCH_OPS).map(|n| format!("{n} a0, a1, -8")));
        texts.extend(names(&LOAD_OPS).map(|n| format!("{n} a0, 12(sp)")));
        texts.extend(names(&STORE_OPS).map(|n| format!("{n} a0, -4(sp)")));
        texts.extend(names(&ALU_OPS).map(|n| format!("{n} a0, a1, a2")));
        texts.extend(names(&ALU_IMM_OPS).map(|n| format!("{n} t0, t1, 7")));
        texts.extend(names(&MUL_OPS).map(|n| format!("{n} s0, s1, s2")));
        texts.extend(names(&AMO_OPS).map(|n| format!("{n} a0, a1, (a2)")));
        texts.extend(XPULP_OPS.iter().map(|&(op, n, _)| match op {
            XpulpOp::Abs => format!("{n} a3, a4"),
            _ => format!("{n} a3, a4, a5"),
        }));
        texts.extend(names(&BARE_OPS).map(str::to_owned));
        assert_eq!(texts.len(), 6 + 5 + 3 + 10 + 9 + 8 + 7 + 6 + 2);
        for text in &texts {
            let program = crate::Program::assemble(text).unwrap_or_else(|e| panic!("{text}: {e}"));
            let [instr] = program.instrs() else {
                panic!("`{text}` is one instruction");
            };
            let back = decode(instr.encode()).unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(back, *instr, "{text}");
            assert_eq!(back.to_string(), *text);
        }
    }

    /// Fixed-seed property over 2^20 words, half of them given one of
    /// the implemented opcodes: whatever decodes re-encodes to a word that
    /// decodes to the same instruction.
    #[test]
    fn decoded_words_re_encode_to_the_same_instruction() {
        const OPCODES: [u32; 13] = [
            OP_LUI,
            OP_AUIPC,
            OP_JAL,
            OP_JALR,
            OP_BRANCH,
            OP_LOAD,
            OP_STORE,
            OP_OP_IMM,
            OP_OP,
            OP_AMO,
            OP_SYSTEM,
            OP_MISC_MEM,
            OP_CUSTOM0,
        ];
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut decoded = 0u32;
        for i in 0..1u32 << 20 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let mut word = (state >> 32) as u32;
            if i % 2 == 1 {
                word = (word & !0x7f) | OPCODES[(state >> 16) as usize % OPCODES.len()];
            }
            if let Ok(instr) = decode(word) {
                decoded += 1;
                assert_eq!(decode(instr.encode()), Ok(instr), "{word:#010x}");
            }
        }
        assert!(decoded > 1 << 18, "only {decoded} words decoded");
    }

    #[test]
    fn garbage_words_fail_to_decode() {
        assert!(decode(0x0000_0000).is_err());
        assert!(decode(0xffff_ffff).is_err());
    }

    #[test]
    fn amo_apply_semantics() {
        assert_eq!(AmoOp::Add.apply(5, 3), 8);
        assert_eq!(AmoOp::Swap.apply(5, 3), 3);
        assert_eq!(AmoOp::And.apply(0b110, 0b011), 0b010);
        assert_eq!(AmoOp::Or.apply(0b110, 0b011), 0b111);
        assert_eq!(AmoOp::Xor.apply(0b110, 0b011), 0b101);
        assert_eq!(AmoOp::Max.apply(-5i32 as u32, 3), 3);
        assert_eq!(AmoOp::Min.apply(-5i32 as u32, 3), -5i32 as u32);
    }

    #[test]
    fn dependency_helpers() {
        let mac = Instr::Mac {
            rd: r(10),
            rs1: r(11),
            rs2: r(12),
        };
        assert_eq!(mac.src_regs(), [Some(r(11)), Some(r(12)), Some(r(10))]);
        assert_eq!(mac.dst_reg(), Some(r(10)));
        assert_eq!(mac.response_reg(), None);
        assert!(!mac.is_mem());

        let lw = Instr::LwPostInc {
            rd: r(10),
            rs1: r(11),
            offset: 4,
        };
        assert_eq!(lw.dst_reg(), Some(r(11))); // post-increment at issue
        assert_eq!(lw.response_reg(), Some(r(10)));
        assert!(lw.is_mem());

        // Writes to x0 are not tracked.
        let nop = Instr::OpImm {
            op: AluOp::Add,
            rd: Reg::ZERO,
            rs1: Reg::ZERO,
            imm: 0,
        };
        assert_eq!(nop.dst_reg(), None);
    }

    #[test]
    fn display_formats_match_assembly_syntax() {
        assert_eq!(
            Instr::Load {
                op: LoadOp::Lw,
                rd: r(10),
                rs1: r(2),
                offset: 8
            }
            .to_string(),
            "lw a0, 8(sp)"
        );
        assert_eq!(
            Instr::LwPostInc {
                rd: r(10),
                rs1: r(11),
                offset: 4
            }
            .to_string(),
            "p.lw a0, 4(a1!)"
        );
    }
}
