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

fn r_type(opcode: u32, funct3: u32, funct7: u32, rd: Reg, rs1: Reg, rs2: Reg) -> u32 {
    opcode
        | ((rd.number() as u32) << 7)
        | (funct3 << 12)
        | ((rs1.number() as u32) << 15)
        | ((rs2.number() as u32) << 20)
        | (funct7 << 25)
}

fn i_type(opcode: u32, funct3: u32, rd: Reg, rs1: Reg, imm: i32) -> u32 {
    opcode
        | ((rd.number() as u32) << 7)
        | (funct3 << 12)
        | ((rs1.number() as u32) << 15)
        | (((imm as u32) & 0xfff) << 20)
}

fn s_type(opcode: u32, funct3: u32, rs1: Reg, rs2: Reg, imm: i32) -> u32 {
    let imm = imm as u32;
    opcode
        | ((imm & 0x1f) << 7)
        | (funct3 << 12)
        | ((rs1.number() as u32) << 15)
        | ((rs2.number() as u32) << 20)
        | (((imm >> 5) & 0x7f) << 25)
}

fn b_type(opcode: u32, funct3: u32, rs1: Reg, rs2: Reg, offset: i32) -> u32 {
    let imm = offset as u32;
    opcode
        | (((imm >> 11) & 1) << 7)
        | (((imm >> 1) & 0xf) << 8)
        | (funct3 << 12)
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
            Instr::Jalr { rd, rs1, offset } => i_type(OP_JALR, 0b000, rd, rs1, offset),
            Instr::Branch {
                op,
                rs1,
                rs2,
                offset,
            } => {
                let funct3 = match op {
                    BranchOp::Beq => 0b000,
                    BranchOp::Bne => 0b001,
                    BranchOp::Blt => 0b100,
                    BranchOp::Bge => 0b101,
                    BranchOp::Bltu => 0b110,
                    BranchOp::Bgeu => 0b111,
                };
                b_type(OP_BRANCH, funct3, rs1, rs2, offset)
            }
            Instr::Load {
                op,
                rd,
                rs1,
                offset,
            } => {
                let funct3 = match op {
                    LoadOp::Lb => 0b000,
                    LoadOp::Lh => 0b001,
                    LoadOp::Lw => 0b010,
                    LoadOp::Lbu => 0b100,
                    LoadOp::Lhu => 0b101,
                };
                i_type(OP_LOAD, funct3, rd, rs1, offset)
            }
            Instr::Store {
                op,
                rs2,
                rs1,
                offset,
            } => {
                let funct3 = match op {
                    StoreOp::Sb => 0b000,
                    StoreOp::Sh => 0b001,
                    StoreOp::Sw => 0b010,
                };
                s_type(OP_STORE, funct3, rs1, rs2, offset)
            }
            Instr::OpImm { op, rd, rs1, imm } => match op {
                AluOp::Add => i_type(OP_OP_IMM, 0b000, rd, rs1, imm),
                AluOp::Slt => i_type(OP_OP_IMM, 0b010, rd, rs1, imm),
                AluOp::Sltu => i_type(OP_OP_IMM, 0b011, rd, rs1, imm),
                AluOp::Xor => i_type(OP_OP_IMM, 0b100, rd, rs1, imm),
                AluOp::Or => i_type(OP_OP_IMM, 0b110, rd, rs1, imm),
                AluOp::And => i_type(OP_OP_IMM, 0b111, rd, rs1, imm),
                AluOp::Sll => i_type(OP_OP_IMM, 0b001, rd, rs1, imm & 0x1f),
                AluOp::Srl => i_type(OP_OP_IMM, 0b101, rd, rs1, imm & 0x1f),
                AluOp::Sra => i_type(OP_OP_IMM, 0b101, rd, rs1, (imm & 0x1f) | 0x400),
                AluOp::Sub => unreachable!("subi does not exist; use addi with negated imm"),
            },
            Instr::Op { op, rd, rs1, rs2 } => {
                let (funct3, funct7) = match op {
                    AluOp::Add => (0b000, 0b000_0000),
                    AluOp::Sub => (0b000, 0b010_0000),
                    AluOp::Sll => (0b001, 0b000_0000),
                    AluOp::Slt => (0b010, 0b000_0000),
                    AluOp::Sltu => (0b011, 0b000_0000),
                    AluOp::Xor => (0b100, 0b000_0000),
                    AluOp::Srl => (0b101, 0b000_0000),
                    AluOp::Sra => (0b101, 0b010_0000),
                    AluOp::Or => (0b110, 0b000_0000),
                    AluOp::And => (0b111, 0b000_0000),
                };
                r_type(OP_OP, funct3, funct7, rd, rs1, rs2)
            }
            Instr::Mul { op, rd, rs1, rs2 } => {
                let funct3 = match op {
                    MulOp::Mul => 0b000,
                    MulOp::Mulh => 0b001,
                    MulOp::Mulhsu => 0b010,
                    MulOp::Mulhu => 0b011,
                    MulOp::Div => 0b100,
                    MulOp::Divu => 0b101,
                    MulOp::Rem => 0b110,
                    MulOp::Remu => 0b111,
                };
                r_type(OP_OP, funct3, 0b000_0001, rd, rs1, rs2)
            }
            Instr::Amo { op, rd, rs1, rs2 } => {
                let funct5 = match op {
                    AmoOp::Add => 0b00000,
                    AmoOp::Swap => 0b00001,
                    AmoOp::Xor => 0b00100,
                    AmoOp::And => 0b01100,
                    AmoOp::Or => 0b01000,
                    AmoOp::Min => 0b10000,
                    AmoOp::Max => 0b10100,
                };
                r_type(OP_AMO, 0b010, funct5 << 2, rd, rs1, rs2)
            }
            Instr::Mac { rd, rs1, rs2 } => r_type(OP_CUSTOM0, 0b000, 0, rd, rs1, rs2),
            Instr::Xpulp { op, rd, rs1, rs2 } => {
                let funct7 = match op {
                    XpulpOp::Min => 0,
                    XpulpOp::Max => 1,
                    XpulpOp::MinU => 2,
                    XpulpOp::MaxU => 3,
                    XpulpOp::Abs => 4,
                    XpulpOp::Clip => 5,
                };
                r_type(OP_CUSTOM0, 0b011, funct7, rd, rs1, rs2)
            }
            Instr::LwPostInc { rd, rs1, offset } => i_type(OP_CUSTOM0, 0b001, rd, rs1, offset),
            Instr::SwPostInc { rs2, rs1, offset } => s_type(OP_CUSTOM0, 0b010, rs1, rs2, offset),
            Instr::Csrrs { rd, csr, rs1 } => i_type(OP_SYSTEM, 0b010, rd, rs1, csr as i32),
            Instr::Wfi => 0x1050_0073,
            Instr::Fence => i_type(OP_MISC_MEM, 0b000, Reg::ZERO, Reg::ZERO, 0),
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
    let funct3 = (word >> 12) & 0x7;
    let rs1 = Reg::from_bits(word >> 15);
    let rs2 = Reg::from_bits(word >> 20);
    let funct7 = word >> 25;
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

    match opcode {
        OP_LUI => Ok(Instr::Lui {
            rd,
            imm: word & 0xffff_f000,
        }),
        OP_AUIPC => Ok(Instr::Auipc {
            rd,
            imm: word & 0xffff_f000,
        }),
        OP_JAL => Ok(Instr::Jal { rd, offset: j_imm }),
        OP_JALR if funct3 == 0 => Ok(Instr::Jalr {
            rd,
            rs1,
            offset: i_imm,
        }),
        OP_BRANCH => {
            let op = match funct3 {
                0b000 => BranchOp::Beq,
                0b001 => BranchOp::Bne,
                0b100 => BranchOp::Blt,
                0b101 => BranchOp::Bge,
                0b110 => BranchOp::Bltu,
                0b111 => BranchOp::Bgeu,
                _ => return Err(err),
            };
            Ok(Instr::Branch {
                op,
                rs1,
                rs2,
                offset: b_imm,
            })
        }
        OP_LOAD => {
            let op = match funct3 {
                0b000 => LoadOp::Lb,
                0b001 => LoadOp::Lh,
                0b010 => LoadOp::Lw,
                0b100 => LoadOp::Lbu,
                0b101 => LoadOp::Lhu,
                _ => return Err(err),
            };
            Ok(Instr::Load {
                op,
                rd,
                rs1,
                offset: i_imm,
            })
        }
        OP_STORE => {
            let op = match funct3 {
                0b000 => StoreOp::Sb,
                0b001 => StoreOp::Sh,
                0b010 => StoreOp::Sw,
                _ => return Err(err),
            };
            Ok(Instr::Store {
                op,
                rs2,
                rs1,
                offset: s_imm,
            })
        }
        OP_OP_IMM => {
            let (op, imm) = match funct3 {
                0b000 => (AluOp::Add, i_imm),
                0b010 => (AluOp::Slt, i_imm),
                0b011 => (AluOp::Sltu, i_imm),
                0b100 => (AluOp::Xor, i_imm),
                0b110 => (AluOp::Or, i_imm),
                0b111 => (AluOp::And, i_imm),
                0b001 => (AluOp::Sll, (i_imm & 0x1f)),
                0b101 if (i_imm >> 10) & 1 == 1 => (AluOp::Sra, i_imm & 0x1f),
                0b101 => (AluOp::Srl, i_imm & 0x1f),
                _ => return Err(err),
            };
            Ok(Instr::OpImm { op, rd, rs1, imm })
        }
        OP_OP if funct7 == 0b000_0001 => {
            let op = match funct3 {
                0b000 => MulOp::Mul,
                0b001 => MulOp::Mulh,
                0b010 => MulOp::Mulhsu,
                0b011 => MulOp::Mulhu,
                0b100 => MulOp::Div,
                0b101 => MulOp::Divu,
                0b110 => MulOp::Rem,
                _ => MulOp::Remu,
            };
            Ok(Instr::Mul { op, rd, rs1, rs2 })
        }
        OP_OP => {
            let op = match (funct3, funct7) {
                (0b000, 0b000_0000) => AluOp::Add,
                (0b000, 0b010_0000) => AluOp::Sub,
                (0b001, 0b000_0000) => AluOp::Sll,
                (0b010, 0b000_0000) => AluOp::Slt,
                (0b011, 0b000_0000) => AluOp::Sltu,
                (0b100, 0b000_0000) => AluOp::Xor,
                (0b101, 0b000_0000) => AluOp::Srl,
                (0b101, 0b010_0000) => AluOp::Sra,
                (0b110, 0b000_0000) => AluOp::Or,
                (0b111, 0b000_0000) => AluOp::And,
                _ => return Err(err),
            };
            Ok(Instr::Op { op, rd, rs1, rs2 })
        }
        OP_AMO if funct3 == 0b010 => {
            let op = match funct7 >> 2 {
                0b00000 => AmoOp::Add,
                0b00001 => AmoOp::Swap,
                0b00100 => AmoOp::Xor,
                0b01100 => AmoOp::And,
                0b01000 => AmoOp::Or,
                0b10000 => AmoOp::Min,
                0b10100 => AmoOp::Max,
                _ => return Err(err),
            };
            Ok(Instr::Amo { op, rd, rs1, rs2 })
        }
        OP_CUSTOM0 => match funct3 {
            0b000 if funct7 == 0 => Ok(Instr::Mac { rd, rs1, rs2 }),
            0b001 => Ok(Instr::LwPostInc {
                rd,
                rs1,
                offset: i_imm,
            }),
            0b010 => Ok(Instr::SwPostInc {
                rs2,
                rs1,
                offset: s_imm,
            }),
            0b011 => {
                let op = match funct7 {
                    0 => XpulpOp::Min,
                    1 => XpulpOp::Max,
                    2 => XpulpOp::MinU,
                    3 => XpulpOp::MaxU,
                    4 => XpulpOp::Abs,
                    5 => XpulpOp::Clip,
                    _ => return Err(err),
                };
                Ok(Instr::Xpulp { op, rd, rs1, rs2 })
            }
            _ => Err(err),
        },
        OP_SYSTEM => {
            if word == 0x1050_0073 {
                Ok(Instr::Wfi)
            } else if funct3 == 0b010 {
                Ok(Instr::Csrrs {
                    rd,
                    csr: ((word >> 20) & 0xfff) as u16,
                    rs1,
                })
            } else {
                Err(err)
            }
        }
        OP_MISC_MEM if funct3 == 0 => Ok(Instr::Fence),
        _ => Err(err),
    }
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
            } => {
                let name = match op {
                    BranchOp::Beq => "beq",
                    BranchOp::Bne => "bne",
                    BranchOp::Blt => "blt",
                    BranchOp::Bge => "bge",
                    BranchOp::Bltu => "bltu",
                    BranchOp::Bgeu => "bgeu",
                };
                write!(f, "{name} {rs1}, {rs2}, {offset}")
            }
            Instr::Load {
                op,
                rd,
                rs1,
                offset,
            } => {
                let name = match op {
                    LoadOp::Lb => "lb",
                    LoadOp::Lh => "lh",
                    LoadOp::Lw => "lw",
                    LoadOp::Lbu => "lbu",
                    LoadOp::Lhu => "lhu",
                };
                write!(f, "{name} {rd}, {offset}({rs1})")
            }
            Instr::Store {
                op,
                rs2,
                rs1,
                offset,
            } => {
                let name = match op {
                    StoreOp::Sb => "sb",
                    StoreOp::Sh => "sh",
                    StoreOp::Sw => "sw",
                };
                write!(f, "{name} {rs2}, {offset}({rs1})")
            }
            Instr::OpImm { op, rd, rs1, imm } => {
                let name = match op {
                    AluOp::Add => "addi",
                    AluOp::Slt => "slti",
                    AluOp::Sltu => "sltiu",
                    AluOp::Xor => "xori",
                    AluOp::Or => "ori",
                    AluOp::And => "andi",
                    AluOp::Sll => "slli",
                    AluOp::Srl => "srli",
                    AluOp::Sra => "srai",
                    AluOp::Sub => unreachable!(),
                };
                write!(f, "{name} {rd}, {rs1}, {imm}")
            }
            Instr::Op { op, rd, rs1, rs2 } => {
                let name = match op {
                    AluOp::Add => "add",
                    AluOp::Sub => "sub",
                    AluOp::Sll => "sll",
                    AluOp::Slt => "slt",
                    AluOp::Sltu => "sltu",
                    AluOp::Xor => "xor",
                    AluOp::Srl => "srl",
                    AluOp::Sra => "sra",
                    AluOp::Or => "or",
                    AluOp::And => "and",
                };
                write!(f, "{name} {rd}, {rs1}, {rs2}")
            }
            Instr::Mul { op, rd, rs1, rs2 } => {
                let name = match op {
                    MulOp::Mul => "mul",
                    MulOp::Mulh => "mulh",
                    MulOp::Mulhsu => "mulhsu",
                    MulOp::Mulhu => "mulhu",
                    MulOp::Div => "div",
                    MulOp::Divu => "divu",
                    MulOp::Rem => "rem",
                    MulOp::Remu => "remu",
                };
                write!(f, "{name} {rd}, {rs1}, {rs2}")
            }
            Instr::Amo { op, rd, rs1, rs2 } => {
                let name = match op {
                    AmoOp::Add => "amoadd.w",
                    AmoOp::Swap => "amoswap.w",
                    AmoOp::And => "amoand.w",
                    AmoOp::Or => "amoor.w",
                    AmoOp::Xor => "amoxor.w",
                    AmoOp::Max => "amomax.w",
                    AmoOp::Min => "amomin.w",
                };
                write!(f, "{name} {rd}, {rs2}, ({rs1})")
            }
            Instr::Mac { rd, rs1, rs2 } => write!(f, "p.mac {rd}, {rs1}, {rs2}"),
            Instr::Xpulp { op, rd, rs1, rs2 } => {
                let name = match op {
                    XpulpOp::Min => "p.min",
                    XpulpOp::Max => "p.max",
                    XpulpOp::MinU => "p.minu",
                    XpulpOp::MaxU => "p.maxu",
                    XpulpOp::Abs => "p.abs",
                    XpulpOp::Clip => "p.clip",
                };
                if op == XpulpOp::Abs {
                    write!(f, "{name} {rd}, {rs1}")
                } else {
                    write!(f, "{name} {rd}, {rs1}, {rs2}")
                }
            }
            Instr::LwPostInc { rd, rs1, offset } => write!(f, "p.lw {rd}, {offset}({rs1}!)"),
            Instr::SwPostInc { rs2, rs1, offset } => write!(f, "p.sw {rs2}, {offset}({rs1}!)"),
            Instr::Csrrs { rd, csr, rs1 } => write!(f, "csrrs {rd}, {csr:#x}, {rs1}"),
            Instr::Wfi => f.write_str("wfi"),
            Instr::Fence => f.write_str("fence"),
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
