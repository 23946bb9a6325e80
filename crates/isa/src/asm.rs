//! A small two-pass text assembler.
//!
//! Supported syntax:
//!
//! * one instruction per line; `#` and `//` start comments;
//! * `label:` definitions, on their own line or preceding an instruction;
//! * branch/jump targets may be labels or numeric byte offsets;
//! * registers by ABI name (`a0`) or number (`x10`);
//! * immediates in decimal (`-42`) or hex (`0xff`);
//! * the common pseudo-instructions: `nop`, `li`, `mv`, `not`, `neg`,
//!   `seqz`, `snez`, `j`, `jr`, `ret`, `call`, `beqz`, `bnez`, `bgt`,
//!   `ble`, and `csrr` (with the `mhartid` CSR name);
//! * the `Xpulpimg` mnemonics: `p.mac`, `p.lw`/`p.sw` with `(reg!)`
//!   post-increment operands, `p.min`/`p.max`/`p.minu`/`p.maxu`,
//!   `p.abs`, and `p.clip`.
//!
//! `li` expands to one or two instructions depending on whether the value
//! fits in a 12-bit signed immediate.

use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;

use crate::instr::{AluOp, AmoOp, BranchOp, Instr, LoadOp, MulOp, StoreOp, XpulpOp, CSR_MHARTID};
use crate::program::Program;
use crate::reg::Reg;

/// Error produced while assembling, with the 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AssembleError {
    line: usize,
    message: String,
}

impl AssembleError {
    fn new(line: usize, message: impl Into<String>) -> Self {
        AssembleError {
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for AssembleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for AssembleError {}

/// A branch/jump target: a label to resolve or an already-known offset.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Target {
    Label(String),
    Offset(i32),
}

/// One instruction with a possibly unresolved control-flow target.
#[derive(Debug, Clone)]
enum Draft {
    Ready(Instr),
    Branch {
        op: BranchOp,
        rs1: Reg,
        rs2: Reg,
        target: Target,
    },
    Jal {
        rd: Reg,
        target: Target,
    },
}

struct Line<'a> {
    number: usize,
    text: &'a str,
}

fn parse_reg(line: &Line<'_>, token: &str) -> Result<Reg, AssembleError> {
    token
        .parse::<Reg>()
        .map_err(|e| AssembleError::new(line.number, e.to_string()))
}

fn parse_imm(line: &Line<'_>, token: &str) -> Result<i64, AssembleError> {
    let token = token.trim();
    let (negative, digits) = match token.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, token),
    };
    let value = if let Some(hex) = digits
        .strip_prefix("0x")
        .or_else(|| digits.strip_prefix("0X"))
    {
        i64::from_str_radix(hex, 16)
    } else if let Some(bin) = digits.strip_prefix("0b") {
        i64::from_str_radix(bin, 2)
    } else {
        digits.parse::<i64>()
    }
    .map_err(|_| AssembleError::new(line.number, format!("invalid immediate `{token}`")))?;
    Ok(if negative { -value } else { value })
}

fn imm12(line: &Line<'_>, value: i64) -> Result<i32, AssembleError> {
    if (-2048..=2047).contains(&value) {
        Ok(value as i32)
    } else {
        Err(AssembleError::new(
            line.number,
            format!("immediate {value} does not fit in 12 signed bits"),
        ))
    }
}

/// Parses `off(rs1)` or, with `post_inc`, `off(rs1!)`.
fn parse_mem_operand(
    line: &Line<'_>,
    token: &str,
    post_inc: bool,
) -> Result<(i32, Reg), AssembleError> {
    let open = token.find('(').ok_or_else(|| {
        AssembleError::new(
            line.number,
            format!("expected `offset(reg)`, got `{token}`"),
        )
    })?;
    let close = token
        .rfind(')')
        .ok_or_else(|| AssembleError::new(line.number, format!("missing `)` in `{token}`")))?;
    let off_text = token[..open].trim();
    let offset = if off_text.is_empty() {
        0
    } else {
        imm12(line, parse_imm(line, off_text)?)?
    };
    let mut reg_text = token[open + 1..close].trim();
    let has_bang = reg_text.ends_with('!');
    if has_bang {
        reg_text = reg_text[..reg_text.len() - 1].trim();
    }
    if has_bang != post_inc {
        return Err(AssembleError::new(
            line.number,
            if post_inc {
                format!("post-incrementing access requires `(reg!)`, got `{token}`")
            } else {
                format!("`!` is only valid on p.lw/p.sw operands, got `{token}`")
            },
        ));
    }
    Ok((offset, parse_reg(line, reg_text)?))
}

fn parse_target(token: &str) -> Target {
    let trimmed = token.trim();
    let is_offset = trimmed
        .strip_prefix('-')
        .unwrap_or(trimmed)
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_digit());
    if is_offset {
        // Numeric targets are byte offsets; invalid digits are caught when
        // the target cannot be parsed as an i32 either, falling back to a
        // label that will fail resolution with a clear message.
        if let Ok(value) = trimmed.parse::<i32>() {
            return Target::Offset(value);
        }
    }
    Target::Label(trimmed.to_owned())
}

fn expect_operands<'t>(
    line: &Line<'_>,
    operands: &'t [&'t str],
    count: usize,
    mnemonic: &str,
) -> Result<&'t [&'t str], AssembleError> {
    if operands.len() == count {
        Ok(operands)
    } else {
        Err(AssembleError::new(
            line.number,
            format!(
                "`{mnemonic}` expects {count} operand(s), got {}",
                operands.len()
            ),
        ))
    }
}

fn parse_csr(line: &Line<'_>, token: &str) -> Result<u16, AssembleError> {
    match token {
        "mhartid" => Ok(CSR_MHARTID),
        other => {
            let value = parse_imm(line, other)?;
            if (0..=0xfff).contains(&value) {
                Ok(value as u16)
            } else {
                Err(AssembleError::new(
                    line.number,
                    format!("csr address {value} out of range"),
                ))
            }
        }
    }
}

/// Expands `li rd, imm` into one or two instructions.
fn expand_li(rd: Reg, value: i64) -> Vec<Instr> {
    let value = value as i32;
    if (-2048..=2047).contains(&value) {
        vec![Instr::OpImm {
            op: AluOp::Add,
            rd,
            rs1: Reg::ZERO,
            imm: value,
        }]
    } else {
        let value = value as u32;
        let lo = ((value << 20) as i32) >> 20; // sign-extended low 12 bits
        let hi = value.wrapping_sub(lo as u32) & 0xffff_f000;
        let mut out = vec![Instr::Lui { rd, imm: hi }];
        if lo != 0 {
            out.push(Instr::OpImm {
                op: AluOp::Add,
                rd,
                rs1: rd,
                imm: lo,
            });
        }
        out
    }
}

fn parse_line(line: &Line<'_>, mnemonic: &str, ops: &[&str]) -> Result<Vec<Draft>, AssembleError> {
    let branch_ops = [
        ("beq", BranchOp::Beq),
        ("bne", BranchOp::Bne),
        ("blt", BranchOp::Blt),
        ("bge", BranchOp::Bge),
        ("bltu", BranchOp::Bltu),
        ("bgeu", BranchOp::Bgeu),
    ];
    let load_ops = [
        ("lb", LoadOp::Lb),
        ("lh", LoadOp::Lh),
        ("lw", LoadOp::Lw),
        ("lbu", LoadOp::Lbu),
        ("lhu", LoadOp::Lhu),
    ];
    let store_ops = [
        ("sb", StoreOp::Sb),
        ("sh", StoreOp::Sh),
        ("sw", StoreOp::Sw),
    ];
    let alu_r = [
        ("add", AluOp::Add),
        ("sub", AluOp::Sub),
        ("sll", AluOp::Sll),
        ("slt", AluOp::Slt),
        ("sltu", AluOp::Sltu),
        ("xor", AluOp::Xor),
        ("srl", AluOp::Srl),
        ("sra", AluOp::Sra),
        ("or", AluOp::Or),
        ("and", AluOp::And),
    ];
    let alu_i = [
        ("addi", AluOp::Add),
        ("slti", AluOp::Slt),
        ("sltiu", AluOp::Sltu),
        ("xori", AluOp::Xor),
        ("ori", AluOp::Or),
        ("andi", AluOp::And),
        ("slli", AluOp::Sll),
        ("srli", AluOp::Srl),
        ("srai", AluOp::Sra),
    ];
    let mul_ops = [
        ("mul", MulOp::Mul),
        ("mulh", MulOp::Mulh),
        ("mulhsu", MulOp::Mulhsu),
        ("mulhu", MulOp::Mulhu),
        ("div", MulOp::Div),
        ("divu", MulOp::Divu),
        ("rem", MulOp::Rem),
        ("remu", MulOp::Remu),
    ];
    let xpulp_ops = [
        ("p.min", XpulpOp::Min),
        ("p.max", XpulpOp::Max),
        ("p.minu", XpulpOp::MinU),
        ("p.maxu", XpulpOp::MaxU),
        ("p.clip", XpulpOp::Clip),
    ];
    let amo_ops = [
        ("amoadd.w", AmoOp::Add),
        ("amoswap.w", AmoOp::Swap),
        ("amoand.w", AmoOp::And),
        ("amoor.w", AmoOp::Or),
        ("amoxor.w", AmoOp::Xor),
        ("amomax.w", AmoOp::Max),
        ("amomin.w", AmoOp::Min),
    ];

    if let Some((_, op)) = branch_ops.iter().find(|(name, _)| *name == mnemonic) {
        let ops = expect_operands(line, ops, 3, mnemonic)?;
        return Ok(vec![Draft::Branch {
            op: *op,
            rs1: parse_reg(line, ops[0])?,
            rs2: parse_reg(line, ops[1])?,
            target: parse_target(ops[2]),
        }]);
    }
    if let Some((_, op)) = load_ops.iter().find(|(name, _)| *name == mnemonic) {
        let ops = expect_operands(line, ops, 2, mnemonic)?;
        let (offset, rs1) = parse_mem_operand(line, ops[1], false)?;
        return Ok(vec![Draft::Ready(Instr::Load {
            op: *op,
            rd: parse_reg(line, ops[0])?,
            rs1,
            offset,
        })]);
    }
    if let Some((_, op)) = store_ops.iter().find(|(name, _)| *name == mnemonic) {
        let ops = expect_operands(line, ops, 2, mnemonic)?;
        let (offset, rs1) = parse_mem_operand(line, ops[1], false)?;
        return Ok(vec![Draft::Ready(Instr::Store {
            op: *op,
            rs2: parse_reg(line, ops[0])?,
            rs1,
            offset,
        })]);
    }
    if let Some((_, op)) = mul_ops.iter().find(|(name, _)| *name == mnemonic) {
        let ops = expect_operands(line, ops, 3, mnemonic)?;
        return Ok(vec![Draft::Ready(Instr::Mul {
            op: *op,
            rd: parse_reg(line, ops[0])?,
            rs1: parse_reg(line, ops[1])?,
            rs2: parse_reg(line, ops[2])?,
        })]);
    }
    if let Some((_, op)) = amo_ops.iter().find(|(name, _)| *name == mnemonic) {
        let ops = expect_operands(line, ops, 3, mnemonic)?;
        let (offset, rs1) = parse_mem_operand(line, ops[2], false)?;
        if offset != 0 {
            return Err(AssembleError::new(
                line.number,
                "atomic operations take a bare `(reg)` address",
            ));
        }
        return Ok(vec![Draft::Ready(Instr::Amo {
            op: *op,
            rd: parse_reg(line, ops[0])?,
            rs1,
            rs2: parse_reg(line, ops[1])?,
        })]);
    }
    if let Some((_, op)) = xpulp_ops.iter().find(|(name, _)| *name == mnemonic) {
        let ops = expect_operands(line, ops, 3, mnemonic)?;
        return Ok(vec![Draft::Ready(Instr::Xpulp {
            op: *op,
            rd: parse_reg(line, ops[0])?,
            rs1: parse_reg(line, ops[1])?,
            rs2: parse_reg(line, ops[2])?,
        })]);
    }
    if mnemonic == "p.abs" {
        let ops = expect_operands(line, ops, 2, mnemonic)?;
        return Ok(vec![Draft::Ready(Instr::Xpulp {
            op: XpulpOp::Abs,
            rd: parse_reg(line, ops[0])?,
            rs1: parse_reg(line, ops[1])?,
            rs2: Reg::ZERO,
        })]);
    }
    if let Some((_, op)) = alu_i.iter().find(|(name, _)| *name == mnemonic) {
        let ops = expect_operands(line, ops, 3, mnemonic)?;
        let imm = imm12(line, parse_imm(line, ops[2])?)?;
        return Ok(vec![Draft::Ready(Instr::OpImm {
            op: *op,
            rd: parse_reg(line, ops[0])?,
            rs1: parse_reg(line, ops[1])?,
            imm,
        })]);
    }
    if let Some((_, op)) = alu_r.iter().find(|(name, _)| *name == mnemonic) {
        let ops = expect_operands(line, ops, 3, mnemonic)?;
        return Ok(vec![Draft::Ready(Instr::Op {
            op: *op,
            rd: parse_reg(line, ops[0])?,
            rs1: parse_reg(line, ops[1])?,
            rs2: parse_reg(line, ops[2])?,
        })]);
    }

    match mnemonic {
        "lui" => {
            let ops = expect_operands(line, ops, 2, mnemonic)?;
            let value = parse_imm(line, ops[1])?;
            Ok(vec![Draft::Ready(Instr::Lui {
                rd: parse_reg(line, ops[0])?,
                imm: ((value as u32) << 12),
            })])
        }
        "auipc" => {
            let ops = expect_operands(line, ops, 2, mnemonic)?;
            let value = parse_imm(line, ops[1])?;
            Ok(vec![Draft::Ready(Instr::Auipc {
                rd: parse_reg(line, ops[0])?,
                imm: ((value as u32) << 12),
            })])
        }
        "jal" => match ops.len() {
            1 => Ok(vec![Draft::Jal {
                rd: Reg::RA,
                target: parse_target(ops[0]),
            }]),
            2 => Ok(vec![Draft::Jal {
                rd: parse_reg(line, ops[0])?,
                target: parse_target(ops[1]),
            }]),
            n => Err(AssembleError::new(
                line.number,
                format!("`jal` expects 1 or 2 operands, got {n}"),
            )),
        },
        "jalr" => {
            let ops = expect_operands(line, ops, 2, mnemonic)?;
            let (offset, rs1) = parse_mem_operand(line, ops[1], false)?;
            Ok(vec![Draft::Ready(Instr::Jalr {
                rd: parse_reg(line, ops[0])?,
                rs1,
                offset,
            })])
        }
        "p.mac" => {
            let ops = expect_operands(line, ops, 3, mnemonic)?;
            Ok(vec![Draft::Ready(Instr::Mac {
                rd: parse_reg(line, ops[0])?,
                rs1: parse_reg(line, ops[1])?,
                rs2: parse_reg(line, ops[2])?,
            })])
        }
        "p.lw" => {
            let ops = expect_operands(line, ops, 2, mnemonic)?;
            let (offset, rs1) = parse_mem_operand(line, ops[1], true)?;
            Ok(vec![Draft::Ready(Instr::LwPostInc {
                rd: parse_reg(line, ops[0])?,
                rs1,
                offset,
            })])
        }
        "p.sw" => {
            let ops = expect_operands(line, ops, 2, mnemonic)?;
            let (offset, rs1) = parse_mem_operand(line, ops[1], true)?;
            Ok(vec![Draft::Ready(Instr::SwPostInc {
                rs2: parse_reg(line, ops[0])?,
                rs1,
                offset,
            })])
        }
        "csrrs" => {
            let ops = expect_operands(line, ops, 3, mnemonic)?;
            Ok(vec![Draft::Ready(Instr::Csrrs {
                rd: parse_reg(line, ops[0])?,
                csr: parse_csr(line, ops[1])?,
                rs1: parse_reg(line, ops[2])?,
            })])
        }
        "wfi" => Ok(vec![Draft::Ready(Instr::Wfi)]),
        "fence" => Ok(vec![Draft::Ready(Instr::Fence)]),

        // Pseudo-instructions.
        "nop" => Ok(vec![Draft::Ready(Instr::OpImm {
            op: AluOp::Add,
            rd: Reg::ZERO,
            rs1: Reg::ZERO,
            imm: 0,
        })]),
        "li" => {
            let ops = expect_operands(line, ops, 2, mnemonic)?;
            let rd = parse_reg(line, ops[0])?;
            let value = parse_imm(line, ops[1])?;
            if !(-(1i64 << 31)..(1i64 << 32)).contains(&value) {
                return Err(AssembleError::new(
                    line.number,
                    format!("`li` immediate {value} does not fit in 32 bits"),
                ));
            }
            Ok(expand_li(rd, value).into_iter().map(Draft::Ready).collect())
        }
        "mv" => {
            let ops = expect_operands(line, ops, 2, mnemonic)?;
            Ok(vec![Draft::Ready(Instr::OpImm {
                op: AluOp::Add,
                rd: parse_reg(line, ops[0])?,
                rs1: parse_reg(line, ops[1])?,
                imm: 0,
            })])
        }
        "not" => {
            let ops = expect_operands(line, ops, 2, mnemonic)?;
            Ok(vec![Draft::Ready(Instr::OpImm {
                op: AluOp::Xor,
                rd: parse_reg(line, ops[0])?,
                rs1: parse_reg(line, ops[1])?,
                imm: -1,
            })])
        }
        "neg" => {
            let ops = expect_operands(line, ops, 2, mnemonic)?;
            Ok(vec![Draft::Ready(Instr::Op {
                op: AluOp::Sub,
                rd: parse_reg(line, ops[0])?,
                rs1: Reg::ZERO,
                rs2: parse_reg(line, ops[1])?,
            })])
        }
        "seqz" => {
            let ops = expect_operands(line, ops, 2, mnemonic)?;
            Ok(vec![Draft::Ready(Instr::OpImm {
                op: AluOp::Sltu,
                rd: parse_reg(line, ops[0])?,
                rs1: parse_reg(line, ops[1])?,
                imm: 1,
            })])
        }
        "snez" => {
            let ops = expect_operands(line, ops, 2, mnemonic)?;
            Ok(vec![Draft::Ready(Instr::Op {
                op: AluOp::Sltu,
                rd: parse_reg(line, ops[0])?,
                rs1: Reg::ZERO,
                rs2: parse_reg(line, ops[1])?,
            })])
        }
        "j" => {
            let ops = expect_operands(line, ops, 1, mnemonic)?;
            Ok(vec![Draft::Jal {
                rd: Reg::ZERO,
                target: parse_target(ops[0]),
            }])
        }
        "jr" => {
            let ops = expect_operands(line, ops, 1, mnemonic)?;
            Ok(vec![Draft::Ready(Instr::Jalr {
                rd: Reg::ZERO,
                rs1: parse_reg(line, ops[0])?,
                offset: 0,
            })])
        }
        "ret" => Ok(vec![Draft::Ready(Instr::Jalr {
            rd: Reg::ZERO,
            rs1: Reg::RA,
            offset: 0,
        })]),
        "call" => {
            let ops = expect_operands(line, ops, 1, mnemonic)?;
            Ok(vec![Draft::Jal {
                rd: Reg::RA,
                target: parse_target(ops[0]),
            }])
        }
        "beqz" => {
            let ops = expect_operands(line, ops, 2, mnemonic)?;
            Ok(vec![Draft::Branch {
                op: BranchOp::Beq,
                rs1: parse_reg(line, ops[0])?,
                rs2: Reg::ZERO,
                target: parse_target(ops[1]),
            }])
        }
        "bnez" => {
            let ops = expect_operands(line, ops, 2, mnemonic)?;
            Ok(vec![Draft::Branch {
                op: BranchOp::Bne,
                rs1: parse_reg(line, ops[0])?,
                rs2: Reg::ZERO,
                target: parse_target(ops[1]),
            }])
        }
        "bgt" => {
            let ops = expect_operands(line, ops, 3, mnemonic)?;
            Ok(vec![Draft::Branch {
                op: BranchOp::Blt,
                rs1: parse_reg(line, ops[1])?,
                rs2: parse_reg(line, ops[0])?,
                target: parse_target(ops[2]),
            }])
        }
        "ble" => {
            let ops = expect_operands(line, ops, 3, mnemonic)?;
            Ok(vec![Draft::Branch {
                op: BranchOp::Bge,
                rs1: parse_reg(line, ops[1])?,
                rs2: parse_reg(line, ops[0])?,
                target: parse_target(ops[2]),
            }])
        }
        "csrr" => {
            let ops = expect_operands(line, ops, 2, mnemonic)?;
            Ok(vec![Draft::Ready(Instr::Csrrs {
                rd: parse_reg(line, ops[0])?,
                csr: parse_csr(line, ops[1])?,
                rs1: Reg::ZERO,
            })])
        }
        other => Err(AssembleError::new(
            line.number,
            format!("unknown mnemonic `{other}`"),
        )),
    }
}

fn split_operands(rest: &str) -> Vec<&str> {
    rest.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect()
}

/// Assembles a source string into a [`Program`].
///
/// # Errors
///
/// Returns [`AssembleError`] identifying the offending line on any syntax
/// error, unknown mnemonic, out-of-range immediate, duplicate label, or
/// undefined label reference.
pub(crate) fn assemble(source: &str) -> Result<Program, AssembleError> {
    let mut drafts: Vec<(usize, Draft)> = Vec::new();
    let mut labels: BTreeMap<String, u32> = BTreeMap::new();

    for (index, raw) in source.lines().enumerate() {
        let number = index + 1;
        let line = Line { number, text: raw };
        let mut text = line.text;
        if let Some(pos) = text.find('#') {
            text = &text[..pos];
        }
        if let Some(pos) = text.find("//") {
            text = &text[..pos];
        }
        let mut text = text.trim();
        // Peel off any leading `label:` definitions.
        while let Some(colon) = text.find(':') {
            let (candidate, rest) = text.split_at(colon);
            let candidate = candidate.trim();
            let valid = !candidate.is_empty()
                && candidate
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.');
            if !valid {
                break;
            }
            let addr = (drafts.len() * 4) as u32;
            if labels.insert(candidate.to_owned(), addr).is_some() {
                return Err(AssembleError::new(
                    number,
                    format!("duplicate label `{candidate}`"),
                ));
            }
            text = rest[1..].trim();
        }
        if text.is_empty() {
            continue;
        }
        let (mnemonic, rest) = match text.find(char::is_whitespace) {
            Some(pos) => (&text[..pos], text[pos..].trim()),
            None => (text, ""),
        };
        let operands = split_operands(rest);
        for draft in parse_line(&line, mnemonic, &operands)? {
            drafts.push((number, draft));
        }
    }

    let mut instrs = Vec::with_capacity(drafts.len());
    for (i, (number, draft)) in drafts.iter().enumerate() {
        let pc = (i * 4) as u32;
        let resolve = |target: &Target| -> Result<i32, AssembleError> {
            match target {
                Target::Offset(off) => Ok(*off),
                Target::Label(name) => labels
                    .get(name)
                    .map(|&addr| addr.wrapping_sub(pc) as i32)
                    .ok_or_else(|| {
                        AssembleError::new(*number, format!("undefined label `{name}`"))
                    }),
            }
        };
        let instr = match draft {
            Draft::Ready(instr) => *instr,
            Draft::Branch {
                op,
                rs1,
                rs2,
                target,
            } => {
                let offset = resolve(target)?;
                if !(-4096..=4094).contains(&offset) {
                    return Err(AssembleError::new(
                        *number,
                        format!("branch offset {offset} out of range"),
                    ));
                }
                Instr::Branch {
                    op: *op,
                    rs1: *rs1,
                    rs2: *rs2,
                    offset,
                }
            }
            Draft::Jal { rd, target } => {
                let offset = resolve(target)?;
                if !(-(1 << 20)..(1 << 20)).contains(&offset) {
                    return Err(AssembleError::new(
                        *number,
                        format!("jump offset {offset} out of range"),
                    ));
                }
                Instr::Jal { rd: *rd, offset }
            }
        };
        instrs.push(instr);
    }

    Ok(Program::with_labels(instrs, labels))
}

impl FromStr for Instr {
    type Err = AssembleError;

    /// Parses a single instruction (labels are not allowed; pseudo-
    /// instructions are accepted only if they expand to exactly one
    /// instruction).
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let program = assemble(s)?;
        match program.instrs() {
            [single] => Ok(*single),
            other => Err(AssembleError::new(
                1,
                format!("expected exactly one instruction, got {}", other.len()),
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_blank_lines_are_skipped() {
        let p = assemble("# header\n\n  nop  // trailing\n").unwrap();
        assert_eq!(p.len(), 1);
    }

    #[test]
    fn labels_resolve_forward_and_backward() {
        let p = assemble(
            r#"
            start:
                beqz a0, end
                j start
            end:
                wfi
            "#,
        )
        .unwrap();
        assert_eq!(p.label("start"), Some(0));
        assert_eq!(p.label("end"), Some(8));
        // The backward jump at pc=4 targets pc=0.
        assert_eq!(
            p.fetch(4),
            Some(Instr::Jal {
                rd: Reg::ZERO,
                offset: -4
            })
        );
    }

    #[test]
    fn duplicate_labels_rejected() {
        let err = assemble("a: nop\na: nop").unwrap_err();
        assert!(err.to_string().contains("duplicate label"));
        assert_eq!(err.line, 2);
    }

    #[test]
    fn undefined_label_rejected_with_line() {
        let err = assemble("nop\nj nowhere").unwrap_err();
        assert!(err.to_string().contains("undefined label `nowhere`"));
        assert_eq!(err.line, 2);
    }

    #[test]
    fn li_expands_to_one_or_two_instructions() {
        assert_eq!(assemble("li a0, 100").unwrap().len(), 1);
        assert_eq!(assemble("li a0, -2048").unwrap().len(), 1);
        assert_eq!(assemble("li a0, 4096").unwrap().len(), 1); // lo == 0
        assert_eq!(assemble("li a0, 0x12345678").unwrap().len(), 2);
        assert_eq!(assemble("li a0, -1000000").unwrap().len(), 2);
    }

    #[test]
    fn li_values_are_correct() {
        use crate::exec::Machine;
        for value in [
            0i64,
            1,
            -1,
            2047,
            -2048,
            2048,
            -2049,
            0x7fff_ffff,
            -0x8000_0000,
            0x1234_5678,
            -0x1234_5678,
            0xdead_beefu32 as i32 as i64,
        ] {
            let src = format!("li a0, {value}\nwfi");
            let mut m = Machine::new(assemble(&src).unwrap(), 16);
            m.run(10).unwrap();
            assert_eq!(
                m.reg("a0").unwrap(),
                value as u32,
                "li {value} produced wrong result"
            );
        }
    }

    #[test]
    fn immediate_formats() {
        assert!(assemble("addi a0, a0, 0x7f").is_ok());
        assert!(assemble("addi a0, a0, -0x10").is_ok());
        assert!(assemble("addi a0, a0, 0b101").is_ok());
        assert!(assemble("addi a0, a0, 2048").is_err());
        assert!(assemble("addi a0, a0, banana").is_err());
    }

    #[test]
    fn memory_operand_forms() {
        assert!(assemble("lw a0, 8(sp)").is_ok());
        assert!(assemble("lw a0, (sp)").is_ok()); // implicit 0 offset
        assert!(assemble("p.lw a0, 4(a1!)").is_ok());
        assert!(assemble("p.lw a0, 4(a1)").is_err()); // missing `!`
        assert!(assemble("lw a0, 4(a1!)").is_err()); // stray `!`
        assert!(assemble("lw a0, 4").is_err());
    }

    #[test]
    fn amo_operand_form() {
        assert!(assemble("amoadd.w a0, a1, (a2)").is_ok());
        assert!(assemble("amoadd.w a0, a1, 4(a2)").is_err());
    }

    #[test]
    fn unknown_mnemonic_reports_line() {
        let err = assemble("nop\nfrobnicate a0").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.to_string().contains("frobnicate"));
    }

    #[test]
    fn operand_count_mismatch_reported() {
        let err = assemble("add a0, a1").unwrap_err();
        assert!(err.to_string().contains("expects 3 operand(s)"));
    }

    #[test]
    fn pseudo_instructions_assemble() {
        let p = assemble(
            r#"
            top:
                mv   a0, a1
                not  a2, a3
                neg  a4, a5
                seqz a6, a7
                snez t0, t1
                bgt  a0, a1, top
                ble  a0, a1, top
                jr   ra
                ret
                call top
                csrr a0, mhartid
            "#,
        )
        .unwrap();
        assert_eq!(p.len(), 11);
    }

    #[test]
    fn xpulp_scalar_mnemonics_assemble() {
        let p = assemble(
            "p.min a0, a1, a2\np.max a3, a4, a5\np.minu t0, t1, t2\np.maxu s0, s1, s2\np.abs a6, a7\np.clip a0, a1, a2",
        )
        .unwrap();
        assert_eq!(p.len(), 6);
        assert_eq!(
            p.fetch(16),
            Some(Instr::Xpulp {
                op: XpulpOp::Abs,
                rd: "a6".parse().unwrap(),
                rs1: "a7".parse().unwrap(),
                rs2: Reg::ZERO,
            })
        );
    }

    #[test]
    fn numeric_branch_targets_are_byte_offsets() {
        let p = assemble("j 8").unwrap();
        assert_eq!(
            p.fetch(0),
            Some(Instr::Jal {
                rd: Reg::ZERO,
                offset: 8
            })
        );
    }

    #[test]
    fn from_str_accepts_single_instruction_only() {
        assert!("add a0, a1, a2".parse::<Instr>().is_ok());
        assert!("li a0, 0x12345678".parse::<Instr>().is_err()); // expands to 2
    }

    #[test]
    fn label_on_same_line_as_instruction() {
        let p = assemble("loop: j loop").unwrap();
        assert_eq!(p.label("loop"), Some(0));
    }

    #[test]
    fn branch_out_of_range_rejected() {
        let mut src = String::from("start: nop\n");
        for _ in 0..1500 {
            src.push_str("nop\n");
        }
        src.push_str("beq a0, a1, start\n");
        let err = assemble(&src).unwrap_err();
        assert!(err.to_string().contains("out of range"));
    }
}
