//! A small two-pass text assembler.
//!
//! Supported syntax:
//!
//! * one instruction per line; `#` and `//` start comments;
//! * `label:` definitions, on their own line or preceding an instruction;
//! * branch/jump targets may be labels or numeric byte offsets;
//! * registers by ABI name (`a0`) or number (`x10`);
//! * immediates in decimal (`-42`) or hex (`0xff`);
//! * the CSR name `mhartid`;
//! * `li` and the pseudo-instructions listed in `PSEUDO_OPS`;
//! * the `Xpulpimg` mnemonics: `p.mac`, `p.lw`/`p.sw` with `(reg!)`
//!   post-increment operands, `p.min`/`p.max`/`p.minu`/`p.maxu`,
//!   `p.abs`, and `p.clip`.
//!
//! `li` expands to one or two instructions depending on whether the value
//! fits in a 12-bit signed immediate; every other pseudo-instruction is one
//! base instruction, spelled out by its `PSEUDO_OPS` row.

use std::collections::BTreeMap;
use std::fmt;
use std::str::FromStr;

use crate::instr::{
    named, AluOp, BranchOp, Instr, XpulpOp, ALU_IMM_OPS, ALU_OPS, AMO_OPS, BARE_OPS, BRANCH_OPS,
    CSR_MHARTID, LOAD_OPS, MUL_OPS, STORE_OPS, XPULP_OPS,
};
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

/// The pseudo-instructions but `li`: (mnemonic, operand count, template).
/// A template is one base instruction whose hole `{i}` takes the pseudo's
/// `i`-th operand. No template names a pseudo-instruction.
const PSEUDO_OPS: [(&str, usize, &str); 15] = [
    ("nop", 0, "addi zero, zero, 0"),
    ("mv", 2, "addi {0}, {1}, 0"),
    ("not", 2, "xori {0}, {1}, -1"),
    ("neg", 2, "sub {0}, zero, {1}"),
    ("seqz", 2, "sltiu {0}, {1}, 1"),
    ("snez", 2, "sltu {0}, zero, {1}"),
    ("j", 1, "jal zero, {0}"),
    ("jr", 1, "jalr zero, 0({0})"),
    ("ret", 0, "jalr zero, 0(ra)"),
    ("call", 1, "jal ra, {0}"),
    ("beqz", 2, "beq {0}, zero, {1}"),
    ("bnez", 2, "bne {0}, zero, {1}"),
    ("bgt", 3, "blt {1}, {0}, {2}"),
    ("ble", 3, "bge {1}, {0}, {2}"),
    ("csrr", 2, "csrrs {0}, {1}, zero"),
];

/// Fills a `PSEUDO_OPS` template's holes with `ops`, in one pass: an
/// operand's own text is never read as a hole.
fn expand(template: &str, ops: &[&str]) -> String {
    let mut pieces = template.split('{');
    let mut text = pieces.next().unwrap_or_default().to_owned();
    for piece in pieces {
        text.push_str(ops[usize::from(piece.as_bytes()[0] - b'0')]);
        text.push_str(&piece[2..]);
    }
    text
}

/// Parses `rd, rs1, rs2`.
fn three_regs(line: &Line<'_>, ops: &[&str], mnemonic: &str) -> Result<[Reg; 3], AssembleError> {
    let ops = expect_operands(line, ops, 3, mnemonic)?;
    Ok([
        parse_reg(line, ops[0])?,
        parse_reg(line, ops[1])?,
        parse_reg(line, ops[2])?,
    ])
}

fn parse_line(line: &Line<'_>, mnemonic: &str, ops: &[&str]) -> Result<Vec<Draft>, AssembleError> {
    let ready = |instr| Ok(vec![Draft::Ready(instr)]);
    if let Some(&(_, count, template)) = PSEUDO_OPS.iter().find(|row| row.0 == mnemonic) {
        let base = expand(template, expect_operands(line, ops, count, mnemonic)?);
        let (mnemonic, ops) = split_instruction(&base);
        return parse_line(line, mnemonic, &ops);
    }
    if let Some(op) = named(&BRANCH_OPS, mnemonic) {
        let ops = expect_operands(line, ops, 3, mnemonic)?;
        return Ok(vec![Draft::Branch {
            op,
            rs1: parse_reg(line, ops[0])?,
            rs2: parse_reg(line, ops[1])?,
            target: parse_target(ops[2]),
        }]);
    }
    if let Some(op) = named(&LOAD_OPS, mnemonic) {
        let ops = expect_operands(line, ops, 2, mnemonic)?;
        let (offset, rs1) = parse_mem_operand(line, ops[1], false)?;
        return ready(Instr::Load {
            op,
            rd: parse_reg(line, ops[0])?,
            rs1,
            offset,
        });
    }
    if let Some(op) = named(&STORE_OPS, mnemonic) {
        let ops = expect_operands(line, ops, 2, mnemonic)?;
        let (offset, rs1) = parse_mem_operand(line, ops[1], false)?;
        return ready(Instr::Store {
            op,
            rs2: parse_reg(line, ops[0])?,
            rs1,
            offset,
        });
    }
    if let Some(op) = named(&MUL_OPS, mnemonic) {
        let [rd, rs1, rs2] = three_regs(line, ops, mnemonic)?;
        return ready(Instr::Mul { op, rd, rs1, rs2 });
    }
    if let Some(op) = named(&AMO_OPS, mnemonic) {
        let ops = expect_operands(line, ops, 3, mnemonic)?;
        let (offset, rs1) = parse_mem_operand(line, ops[2], false)?;
        if offset != 0 {
            return Err(AssembleError::new(
                line.number,
                "atomic operations take a bare `(reg)` address",
            ));
        }
        let (rd, rs2) = (parse_reg(line, ops[0])?, parse_reg(line, ops[1])?);
        return ready(Instr::Amo { op, rd, rs1, rs2 });
    }
    if let Some(op) = named(&XPULP_OPS, mnemonic) {
        // `p.abs` has no second source.
        let [rd, rs1, rs2] = if op == XpulpOp::Abs {
            let ops = expect_operands(line, ops, 2, mnemonic)?;
            [
                parse_reg(line, ops[0])?,
                parse_reg(line, ops[1])?,
                Reg::ZERO,
            ]
        } else {
            three_regs(line, ops, mnemonic)?
        };
        return ready(Instr::Xpulp { op, rd, rs1, rs2 });
    }
    if let Some(op) = named(&ALU_IMM_OPS, mnemonic) {
        let ops = expect_operands(line, ops, 3, mnemonic)?;
        let imm = imm12(line, parse_imm(line, ops[2])?)?;
        let (rd, rs1) = (parse_reg(line, ops[0])?, parse_reg(line, ops[1])?);
        return ready(Instr::OpImm { op, rd, rs1, imm });
    }
    if let Some(op) = named(&ALU_OPS, mnemonic) {
        let [rd, rs1, rs2] = three_regs(line, ops, mnemonic)?;
        return ready(Instr::Op { op, rd, rs1, rs2 });
    }
    if let Some(instr) = named(&BARE_OPS, mnemonic) {
        expect_operands(line, ops, 0, mnemonic)?;
        return ready(instr);
    }

    match mnemonic {
        "lui" | "auipc" => {
            let ops = expect_operands(line, ops, 2, mnemonic)?;
            let imm = (parse_imm(line, ops[1])? as u32) << 12;
            let rd = parse_reg(line, ops[0])?;
            ready(if mnemonic == "lui" {
                Instr::Lui { rd, imm }
            } else {
                Instr::Auipc { rd, imm }
            })
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
            ready(Instr::Jalr {
                rd: parse_reg(line, ops[0])?,
                rs1,
                offset,
            })
        }
        "p.mac" => {
            let [rd, rs1, rs2] = three_regs(line, ops, mnemonic)?;
            ready(Instr::Mac { rd, rs1, rs2 })
        }
        "p.lw" => {
            let ops = expect_operands(line, ops, 2, mnemonic)?;
            let (offset, rs1) = parse_mem_operand(line, ops[1], true)?;
            ready(Instr::LwPostInc {
                rd: parse_reg(line, ops[0])?,
                rs1,
                offset,
            })
        }
        "p.sw" => {
            let ops = expect_operands(line, ops, 2, mnemonic)?;
            let (offset, rs1) = parse_mem_operand(line, ops[1], true)?;
            ready(Instr::SwPostInc {
                rs2: parse_reg(line, ops[0])?,
                rs1,
                offset,
            })
        }
        "csrrs" => {
            let ops = expect_operands(line, ops, 3, mnemonic)?;
            ready(Instr::Csrrs {
                rd: parse_reg(line, ops[0])?,
                csr: parse_csr(line, ops[1])?,
                rs1: parse_reg(line, ops[2])?,
            })
        }

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
        other => Err(AssembleError::new(
            line.number,
            format!("unknown mnemonic `{other}`"),
        )),
    }
}

/// Splits an instruction's text into its mnemonic and its operands.
fn split_instruction(text: &str) -> (&str, Vec<&str>) {
    let (mnemonic, rest) = text.split_once(char::is_whitespace).unwrap_or((text, ""));
    let operands = rest.split(',').map(str::trim).filter(|s| !s.is_empty());
    (mnemonic, operands.collect())
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
        let (mnemonic, operands) = split_instruction(text);
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

        // Every row against its base form written out, at pc 4 after a
        // label at pc 0: the same `Instr`s and the same words, with label
        // and numeric targets alike.
        let cases = [
            ("nop", "addi zero, zero, 0"),
            ("mv a0, a1", "addi a0, a1, 0"),
            ("not a2, a3", "xori a2, a3, -1"),
            ("neg a4, a5", "sub a4, zero, a5"),
            ("seqz a6, a7", "sltiu a6, a7, 1"),
            ("snez t0, t1", "sltu t0, zero, t1"),
            ("j top", "jal zero, top"),
            ("j -8", "jal zero, -8"),
            ("jr t2", "jalr zero, 0(t2)"),
            ("ret", "jalr zero, 0(ra)"),
            ("call top", "jal ra, top"),
            ("call 16", "jal ra, 16"),
            ("beqz s0, top", "beq s0, zero, top"),
            ("beqz s0, 12", "beq s0, zero, 12"),
            ("bnez s1, top", "bne s1, zero, top"),
            ("bnez s1, -4", "bne s1, zero, -4"),
            ("bgt a0, a1, top", "blt a1, a0, top"),
            ("bgt a0, a1, 8", "blt a1, a0, 8"),
            ("ble a0, a1, top", "bge a1, a0, top"),
            ("ble a0, a1, -12", "bge a1, a0, -12"),
            ("csrr a0, mhartid", "csrrs a0, mhartid, zero"),
            ("csrr a0, 0x300", "csrrs a0, 0x300, zero"),
        ];
        for (name, ..) in PSEUDO_OPS {
            let covered = cases
                .iter()
                .any(|(pseudo, _)| pseudo.split(' ').next() == Some(name));
            assert!(covered, "`{name}` has no written-out case");
        }
        let assembled = |text| assemble(&format!("top: nop\n{text}")).unwrap();
        for (pseudo, base) in cases {
            let (got, want) = (assembled(pseudo), assembled(base));
            assert_eq!(got.instrs(), want.instrs(), "{pseudo}");
            assert_eq!(got.to_words(), want.to_words(), "{pseudo}");
        }
    }

    #[test]
    fn pseudo_templates_name_only_base_mnemonics() {
        let real = |m| {
            named(&BRANCH_OPS, m).is_some()
                || named(&LOAD_OPS, m).is_some()
                || named(&STORE_OPS, m).is_some()
                || named(&ALU_OPS, m).is_some()
                || named(&ALU_IMM_OPS, m).is_some()
                || named(&MUL_OPS, m).is_some()
                || named(&AMO_OPS, m).is_some()
                || named(&XPULP_OPS, m).is_some()
                || named(&BARE_OPS, m).is_some()
        };
        let holes = ["<0>", "<1>", "<2>"];
        for (name, count, template) in PSEUDO_OPS {
            assert!(!real(name), "`{name}` is a real op");
            let base = template.split(' ').next().unwrap();
            let pseudo = base == "li" || PSEUDO_OPS.iter().any(|row| row.0 == base);
            assert!(!pseudo, "`{name}` expands to the pseudo `{base}`");
            // Every hole names an operand, and every operand has a hole.
            let text = expand(template, &holes[..count]);
            assert!(!text.contains('{') && !text.contains('}'), "{text}");
            assert!(
                holes[..count].iter().all(|hole| text.contains(hole)),
                "{text}"
            );
        }
        // An operand's own text is never read as a hole.
        assert_eq!(
            expand("bgt {1}, {0}, {2}", &["{1}", "x", "{0}"]),
            "bgt x, {1}, {0}"
        );
    }

    #[test]
    fn operand_count_mismatch_reported() {
        for (source, message) in [
            ("add a0, a1", "`add` expects 3 operand(s), got 2"),
            ("nop a0", "`nop` expects 0 operand(s), got 1"),
            ("ret a0", "`ret` expects 0 operand(s), got 1"),
            ("wfi a0", "`wfi` expects 0 operand(s), got 1"),
            ("fence x", "`fence` expects 0 operand(s), got 1"),
            ("bgt a0, a1", "`bgt` expects 3 operand(s), got 2"),
            ("mv a0", "`mv` expects 2 operand(s), got 1"),
            ("csrr a0, mhartid, a1", "`csrr` expects 2 operand(s), got 3"),
        ] {
            assert_eq!(
                assemble(source).unwrap_err().to_string(),
                format!("line 1: {message}")
            );
        }
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
