//! Randomized co-simulation: arbitrary generated programs must produce
//! bit-identical architectural state on the ISA golden model and the
//! cycle-accurate simulator. This is the strongest correctness net over
//! the simulator's split-transaction machinery — scoreboarding, bank
//! arbitration, response reordering — none of which may ever change
//! *results*.

use proptest::prelude::*;

use mempool_3d::mempool_arch::{ClusterConfig, GlobalCoreId};
use mempool_3d::mempool_isa::exec::Machine;
use mempool_3d::mempool_isa::instr::{AluOp, BranchOp, Instr, LoadOp, MulOp, StoreOp, XpulpOp};
use mempool_3d::mempool_isa::{Program, Reg};
use mempool_3d::mempool_sim::{Cluster, SimParams};

/// Addressable data window shared by both models (fits any tiny SPM).
const MEM_WORDS: u32 = 64;

fn reg() -> impl Strategy<Value = Reg> {
    // Avoid ra/sp conventions entirely; any register is architecturally
    // fine, including x0.
    (0u8..32).prop_map(Reg::new)
}

/// Straight-line instructions that are always safe to execute: ALU ops on
/// arbitrary registers, plus loads/stores through x0 with bounded offsets.
fn safe_instr() -> impl Strategy<Value = Instr> {
    let word_offset = (0i32..MEM_WORDS as i32).prop_map(|w| w * 4);
    prop_oneof![
        4 => (
            prop_oneof![
                Just(AluOp::Add),
                Just(AluOp::Sub),
                Just(AluOp::Sll),
                Just(AluOp::Slt),
                Just(AluOp::Sltu),
                Just(AluOp::Xor),
                Just(AluOp::Srl),
                Just(AluOp::Sra),
                Just(AluOp::Or),
                Just(AluOp::And)
            ],
            reg(),
            reg(),
            reg()
        )
            .prop_map(|(op, rd, rs1, rs2)| Instr::Op { op, rd, rs1, rs2 }),
        3 => (reg(), reg(), -2048i32..2048).prop_map(|(rd, rs1, imm)| Instr::OpImm {
            op: AluOp::Add,
            rd,
            rs1,
            imm
        }),
        2 => (
            prop_oneof![
                Just(MulOp::Mul),
                Just(MulOp::Mulh),
                Just(MulOp::Div),
                Just(MulOp::Rem)
            ],
            reg(),
            reg(),
            reg()
        )
            .prop_map(|(op, rd, rs1, rs2)| Instr::Mul { op, rd, rs1, rs2 }),
        2 => (reg(), reg(), reg()).prop_map(|(rd, rs1, rs2)| Instr::Mac { rd, rs1, rs2 }),
        1 => (
            prop_oneof![
                Just(XpulpOp::Min),
                Just(XpulpOp::Max),
                Just(XpulpOp::Abs),
                Just(XpulpOp::Clip)
            ],
            reg(),
            reg(),
            reg()
        )
            .prop_map(|(op, rd, rs1, rs2)| Instr::Xpulp { op, rd, rs1, rs2 }),
        2 => (reg(), word_offset.clone()).prop_map(|(rd, offset)| Instr::Load {
            op: LoadOp::Lw,
            rd,
            rs1: Reg::ZERO,
            offset
        }),
        2 => (reg(), word_offset.clone()).prop_map(|(rs2, offset)| Instr::Store {
            op: StoreOp::Sw,
            rs2,
            rs1: Reg::ZERO,
            offset
        }),
        1 => (reg(), (0i32..MEM_WORDS as i32 * 4)).prop_map(|(rd, offset)| Instr::Load {
            op: LoadOp::Lbu,
            rd,
            rs1: Reg::ZERO,
            offset
        }),
        1 => (reg(), any::<u32>()).prop_map(|(rd, imm)| Instr::Lui {
            rd,
            imm: imm & 0xffff_f000
        }),
    ]
}

/// Safe straight-line code, then one well-formed counted loop around
/// `loop_body`, ending in `wfi`.
fn counted_loop_program(straight: Vec<Instr>, loop_body: &[Instr], trips: u32) -> Program {
    let mut instrs = straight;
    // Counted loop: t6 = trips; body; t6 -= 1; bnez t6, -body.
    // Nothing in the body may clobber the counter, or the loop can
    // run forever; retarget such writes to t5.
    let keep_counter = |i: Instr| -> Instr {
        let counter = Reg::new(31);
        let safe = Reg::new(30);
        match i {
            Instr::Op { op, rd, rs1, rs2 } if rd == counter => Instr::Op {
                op,
                rd: safe,
                rs1,
                rs2,
            },
            Instr::OpImm { op, rd, rs1, imm } if rd == counter => Instr::OpImm {
                op,
                rd: safe,
                rs1,
                imm,
            },
            Instr::Mul { op, rd, rs1, rs2 } if rd == counter => Instr::Mul {
                op,
                rd: safe,
                rs1,
                rs2,
            },
            Instr::Mac { rd, rs1, rs2 } if rd == counter => Instr::Mac { rd: safe, rs1, rs2 },
            Instr::Xpulp { op, rd, rs1, rs2 } if rd == counter => Instr::Xpulp {
                op,
                rd: safe,
                rs1,
                rs2,
            },
            Instr::Load {
                op,
                rd,
                rs1,
                offset,
            } if rd == counter => Instr::Load {
                op,
                rd: safe,
                rs1,
                offset,
            },
            Instr::Lui { rd, .. } if rd == counter => Instr::Lui { rd: safe, imm: 0 },
            other => other,
        }
    };
    instrs.push(Instr::OpImm {
        op: AluOp::Add,
        rd: Reg::new(31), // t6
        rs1: Reg::ZERO,
        imm: trips as i32,
    });
    let body_start = instrs.len();
    instrs.extend(loop_body.iter().copied().map(keep_counter));
    instrs.push(Instr::OpImm {
        op: AluOp::Add,
        rd: Reg::new(31),
        rs1: Reg::new(31),
        imm: -1,
    });
    let distance = (instrs.len() - body_start) as i32 * 4;
    instrs.push(Instr::Branch {
        op: BranchOp::Bne,
        rs1: Reg::new(31),
        rs2: Reg::ZERO,
        offset: -distance,
    });
    instrs.push(Instr::Wfi);
    Program::new(instrs)
}

fn program_strategy() -> impl Strategy<Value = Program> {
    (
        prop::collection::vec(safe_instr(), 1..40),
        prop::collection::vec(safe_instr(), 1..10),
        2u32..6,
    )
        .prop_map(|(straight, loop_body, trips)| counted_loop_program(straight, &loop_body, trips))
}

/// Runs `program` to its `wfi` on the golden model and on a one-core
/// cluster and compares every register and every word of the data window.
fn compare_with_golden_model(program: &Program) -> Result<(), TestCaseError> {
    let mut machine = Machine::new(program.clone(), MEM_WORDS as usize * 4);
    machine.run(1_000_000).expect("golden model halts");

    let cfg = ClusterConfig::builder()
        .groups(1)
        .tiles_per_group(1)
        .cores_per_tile(1)
        .banks_per_tile(4)
        .bank_words(64)
        .build()
        .expect("valid config");
    let mut cluster = Cluster::new(cfg, SimParams::default());
    cluster.load_program(program.clone());
    cluster.preload_icaches();
    cluster.run(10_000_000).expect("simulator halts");

    for r in Reg::all() {
        prop_assert_eq!(
            cluster.reg(GlobalCoreId::new(0), r),
            machine.regs().read(r),
            "register {} differs\n{}",
            r,
            program
        );
    }
    for w in 0..MEM_WORDS {
        prop_assert_eq!(
            cluster.read_spm_word(w * 4).expect("mapped"),
            machine.read_word(w * 4).expect("mapped"),
            "word {} differs\n{}",
            w,
            program
        );
    }
    // Timing sanity: the simulator can stall but never "skips" work.
    prop_assert!(cluster.stats().total_retired() >= machine.retired());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn simulator_matches_golden_model(program in program_strategy()) {
        compare_with_golden_model(&program)?;
    }
}

// The two cases proptest once recorded as failures, as the generator's
// inputs (the vendored stub reads no regressions file).

fn nop() -> Instr {
    Instr::Op {
        op: AluOp::Add,
        rd: Reg::ZERO,
        rs1: Reg::ZERO,
        rs2: Reg::ZERO,
    }
}

/// `add x0,x0,x0; addi x31,x0,2; add x31,x0,x0; addi x31,x31,-1; bne ..;
/// wfi`: a loop body that zeroes its own trip counter never ends, on
/// either model. The generator retargets such writes; the loop then runs
/// its two trips and both models agree.
#[test]
fn recorded_case_loop_body_writing_the_trip_counter() {
    let clobber = Instr::Op {
        op: AluOp::Add,
        rd: Reg::new(31),
        rs1: Reg::ZERO,
        rs2: Reg::ZERO,
    };
    let program = counted_loop_program(vec![nop()], &[clobber], 2);
    assert!(
        !program.instrs()[2..].contains(&clobber),
        "the body must not write the counter:\n{program}"
    );
    compare_with_golden_model(&program).unwrap();
}

/// `div x15,x0,x0; p.clip x0,x0,x15; addi x31,x0,2; add x0,x0,x0; ..`:
/// division by zero leaves all ones in `x15`, which `p.clip` then takes
/// as its (negative) bound.
#[test]
fn recorded_case_clip_bounded_by_a_division_by_zero() {
    let straight = vec![
        Instr::Mul {
            op: MulOp::Div,
            rd: Reg::new(15),
            rs1: Reg::ZERO,
            rs2: Reg::ZERO,
        },
        Instr::Xpulp {
            op: XpulpOp::Clip,
            rd: Reg::ZERO,
            rs1: Reg::ZERO,
            rs2: Reg::new(15),
        },
    ];
    compare_with_golden_model(&counted_loop_program(straight, &[nop()], 2)).unwrap();
}
