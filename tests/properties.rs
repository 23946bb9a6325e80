//! Property-based tests over the core data structures and invariants.

use proptest::prelude::*;

use mempool_3d::mempool_arch::{
    AddressMap, BankId, BankLocation, ClusterConfig, MemoryRegion, SpmCapacity, TileId,
};
use mempool_3d::mempool_isa::exec::{MemAccessKind, MemWidth};
use mempool_3d::mempool_isa::instr::{AluOp, AmoOp, BranchOp, LoadOp, MulOp, StoreOp, XpulpOp};
use mempool_3d::mempool_isa::{decode, Instr, Program, Reg};
use mempool_3d::mempool_sim::ckpt::records_round_trip;
use mempool_3d::mempool_sim::core::{Core, Stall};
use mempool_3d::mempool_sim::{fnv1a, BankStats, ClusterStats, CoreStats, FNV_OFFSET};
use mempool_fault::TimedFault;

fn reg_strategy() -> impl Strategy<Value = Reg> {
    (0u8..32).prop_map(Reg::new)
}

fn instr_strategy() -> impl Strategy<Value = Instr> {
    let r = reg_strategy;
    prop_oneof![
        (r(), any::<u32>()).prop_map(|(rd, imm)| Instr::Lui {
            rd,
            imm: imm & 0xffff_f000
        }),
        (r(), any::<u32>()).prop_map(|(rd, imm)| Instr::Auipc {
            rd,
            imm: imm & 0xffff_f000
        }),
        (r(), -(1i32 << 20)..(1i32 << 20)).prop_map(|(rd, o)| Instr::Jal { rd, offset: o & !1 }),
        (r(), r(), -2048i32..2048).prop_map(|(rd, rs1, offset)| Instr::Jalr { rd, rs1, offset }),
        (
            prop_oneof![
                Just(BranchOp::Beq),
                Just(BranchOp::Bne),
                Just(BranchOp::Blt),
                Just(BranchOp::Bge),
                Just(BranchOp::Bltu),
                Just(BranchOp::Bgeu)
            ],
            r(),
            r(),
            -4096i32..4096
        )
            .prop_map(|(op, rs1, rs2, o)| Instr::Branch {
                op,
                rs1,
                rs2,
                offset: o & !1
            }),
        (
            prop_oneof![
                Just(LoadOp::Lb),
                Just(LoadOp::Lh),
                Just(LoadOp::Lw),
                Just(LoadOp::Lbu),
                Just(LoadOp::Lhu)
            ],
            r(),
            r(),
            -2048i32..2048
        )
            .prop_map(|(op, rd, rs1, offset)| Instr::Load {
                op,
                rd,
                rs1,
                offset
            }),
        (
            prop_oneof![Just(StoreOp::Sb), Just(StoreOp::Sh), Just(StoreOp::Sw)],
            r(),
            r(),
            -2048i32..2048
        )
            .prop_map(|(op, rs2, rs1, offset)| Instr::Store {
                op,
                rs2,
                rs1,
                offset
            }),
        (
            prop_oneof![
                Just(AluOp::Add),
                Just(AluOp::Slt),
                Just(AluOp::Sltu),
                Just(AluOp::Xor),
                Just(AluOp::Or),
                Just(AluOp::And)
            ],
            r(),
            r(),
            -2048i32..2048
        )
            .prop_map(|(op, rd, rs1, imm)| Instr::OpImm { op, rd, rs1, imm }),
        (
            prop_oneof![Just(AluOp::Sll), Just(AluOp::Srl), Just(AluOp::Sra)],
            r(),
            r(),
            0i32..32
        )
            .prop_map(|(op, rd, rs1, imm)| Instr::OpImm { op, rd, rs1, imm }),
        (
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
            r(),
            r(),
            r()
        )
            .prop_map(|(op, rd, rs1, rs2)| Instr::Op { op, rd, rs1, rs2 }),
        (
            prop_oneof![
                Just(MulOp::Mul),
                Just(MulOp::Mulh),
                Just(MulOp::Mulhsu),
                Just(MulOp::Mulhu),
                Just(MulOp::Div),
                Just(MulOp::Divu),
                Just(MulOp::Rem),
                Just(MulOp::Remu)
            ],
            r(),
            r(),
            r()
        )
            .prop_map(|(op, rd, rs1, rs2)| Instr::Mul { op, rd, rs1, rs2 }),
        (
            prop_oneof![
                Just(AmoOp::Add),
                Just(AmoOp::Swap),
                Just(AmoOp::And),
                Just(AmoOp::Or),
                Just(AmoOp::Xor),
                Just(AmoOp::Max),
                Just(AmoOp::Min)
            ],
            r(),
            r(),
            r()
        )
            .prop_map(|(op, rd, rs1, rs2)| Instr::Amo { op, rd, rs1, rs2 }),
        (r(), r(), r()).prop_map(|(rd, rs1, rs2)| Instr::Mac { rd, rs1, rs2 }),
        (
            prop_oneof![
                Just(XpulpOp::Min),
                Just(XpulpOp::Max),
                Just(XpulpOp::MinU),
                Just(XpulpOp::MaxU),
                Just(XpulpOp::Clip)
            ],
            r(),
            r(),
            r()
        )
            .prop_map(|(op, rd, rs1, rs2)| Instr::Xpulp { op, rd, rs1, rs2 }),
        (r(), r()).prop_map(|(rd, rs1)| Instr::Xpulp {
            op: XpulpOp::Abs,
            rd,
            rs1,
            rs2: Reg::ZERO,
        }),
        (r(), r(), -2048i32..2048).prop_map(|(rd, rs1, offset)| Instr::LwPostInc {
            rd,
            rs1,
            offset
        }),
        (r(), r(), -2048i32..2048).prop_map(|(rs2, rs1, offset)| Instr::SwPostInc {
            rs2,
            rs1,
            offset
        }),
        Just(Instr::Wfi),
        Just(Instr::Fence),
    ]
}

fn loc_strategy() -> impl Strategy<Value = BankLocation> {
    (any::<u32>(), any::<u32>(), any::<u32>()).prop_map(|(tile, bank, word)| BankLocation {
        tile: TileId(tile),
        bank: BankId(bank),
        word,
    })
}

fn access_kind_strategy() -> impl Strategy<Value = MemAccessKind> {
    let width = || {
        prop_oneof![
            Just(MemWidth::Byte),
            Just(MemWidth::Half),
            Just(MemWidth::Word)
        ]
    };
    let amo = prop_oneof![
        Just(AmoOp::Add),
        Just(AmoOp::Swap),
        Just(AmoOp::And),
        Just(AmoOp::Or),
        Just(AmoOp::Xor),
        Just(AmoOp::Max),
        Just(AmoOp::Min)
    ];
    prop_oneof![
        (width(), any::<bool>(), reg_strategy())
            .prop_map(|(width, signed, rd)| MemAccessKind::Load { width, signed, rd }),
        (width(), any::<u32>()).prop_map(|(width, value)| MemAccessKind::Store { width, value }),
        (amo, any::<u32>(), reg_strategy()).prop_map(|(op, value, rd)| MemAccessKind::Amo {
            op,
            value,
            rd
        }),
    ]
}

fn timed_fault_strategy() -> impl Strategy<Value = TimedFault> {
    (loc_strategy(), any::<u32>()).prop_map(|(loc, mask)| TimedFault::Flip { loc, mask })
}

/// A core whose scoreboard holds exactly the registers of `busy` (bit per
/// register number) and `outstanding` transactions.
fn core_with(busy: u32, outstanding: u32) -> Core {
    let mut core = Core::new();
    for reg in Reg::all().filter(|reg| busy >> reg.number() & 1 == 1) {
        core.mark_pending(Some(reg));
        // The transaction returns without a register: `reg` stays pending.
        core.complete(None, 0);
    }
    for _ in 0..outstanding {
        core.mark_pending(None);
    }
    core
}

/// The scoreboard check as the register lists define it.
fn issue_by_definition(
    instr: Instr,
    busy: u32,
    outstanding: u32,
    max_outstanding: u32,
) -> Result<(), Stall> {
    let pending = |reg: Reg| reg != Reg::ZERO && busy >> reg.number() & 1 == 1;
    let mut regs = instr
        .src_regs()
        .into_iter()
        .chain([instr.dst_reg(), instr.response_reg()])
        .flatten();
    if regs.any(pending) {
        Err(Stall::Scoreboard)
    } else if instr.is_mem() && outstanding >= max_outstanding {
        Err(Stall::Structural)
    } else {
        Ok(())
    }
}

proptest! {
    /// The scoreboard check (one mask per instruction, decoded when the
    /// program is installed) stalls exactly when the instruction's register
    /// lists say so: under a random scoreboard, and with each register
    /// pending alone, so that no register can be missing from a mask.
    #[test]
    fn scoreboard_check_matches_the_register_lists(
        instr in instr_strategy(),
        busy in any::<u32>(),
        outstanding in 0u32..9,
        max_outstanding in 1u32..9,
    ) {
        let alone = (0..32).map(|reg| 1u32 << reg);
        for busy in alone.chain([busy, 0]) {
            prop_assert_eq!(
                core_with(busy, outstanding).check_issue(instr, max_outstanding),
                issue_by_definition(instr, busy, outstanding, max_outstanding),
                "`{}` with pending mask {:#x}", instr, busy
            );
        }
    }

    /// Checkpoint words: a queued request, a response, an access kind and
    /// a timed fault — the records with tags, options and nesting — each
    /// unpack from the words they packed to an equal value, and leave no
    /// word behind.
    #[test]
    fn checkpoint_records_round_trip_through_their_words(
        times in (any::<u64>(), any::<u64>()),
        numbers in (any::<u32>(), any::<u32>(), any::<u32>(), any::<u32>()),
        loc in loc_strategy(),
        kind in access_kind_strategy(),
        fault in timed_fault_strategy(),
    ) {
        prop_assert!(
            records_round_trip(times.into(), numbers.into(), loc, kind, fault),
            "a record did not come back from its words"
        );
    }

    /// Binary round trip: decode(encode(i)) == i for every instruction.
    #[test]
    fn encode_decode_round_trip(instr in instr_strategy()) {
        let word = instr.encode();
        let back = decode(word).expect("decodes");
        prop_assert_eq!(back, instr);
    }

    /// Textual round trip: the disassembly re-assembles to the same
    /// instruction (CSR reads excluded — they print the raw address).
    #[test]
    fn display_assemble_round_trip(instr in instr_strategy()) {
        let text = instr.to_string();
        let parsed: Instr = text.parse().unwrap_or_else(|e| {
            panic!("`{text}` did not re-assemble: {e}")
        });
        prop_assert_eq!(parsed, instr);
    }

    /// Address interleaving is a bijection between word addresses and bank
    /// locations.
    #[test]
    fn address_map_round_trip(word_index in 0u64..262_144) {
        let cfg = ClusterConfig::with_capacity(SpmCapacity::MiB1);
        let map = AddressMap::new(&cfg);
        let addr = (word_index * 4) as u32;
        if (addr as u64) < map.spm_end() {
            match map.locate(addr) {
                MemoryRegion::Spm(loc) => {
                    prop_assert_eq!(map.encode(loc).expect("in range"), addr);
                }
                other => prop_assert!(false, "SPM address decoded as {:?}", other),
            }
        }
    }

    /// Consecutive interleaved words never collide on a bank (for any
    /// stride not a multiple of the bank count).
    #[test]
    fn interleaving_spreads_small_strides(start in 0u64..10_000, stride in 1u64..63) {
        let cfg = ClusterConfig::with_capacity(SpmCapacity::MiB1);
        let map = AddressMap::new(&cfg);
        let banks = cfg.num_banks() as u64;
        prop_assume!(stride % banks != 0);
        let a = map.locate(map.interleaved_addr(start));
        let b = map.locate(map.interleaved_addr(start + stride));
        let (MemoryRegion::Spm(la), MemoryRegion::Spm(lb)) = (a, b) else {
            return Err(TestCaseError::fail("not SPM"));
        };
        prop_assert_ne!(la.global_bank(&cfg), lb.global_bank(&cfg));
    }

    /// The decoder never panics on arbitrary words, and whatever it
    /// accepts is stable: re-encoding and re-decoding yields the same
    /// instruction (don't-care bits are canonicalized, never semantic).
    #[test]
    fn decode_is_total_and_idempotent(word in any::<u32>()) {
        if let Ok(instr) = decode(word) {
            let canonical = instr.encode();
            prop_assert_eq!(decode(canonical).expect("canonical decodes"), instr);
        }
    }

    /// Any program assembled from random arithmetic lines re-assembles
    /// from its own Display output with identical instructions.
    #[test]
    fn program_display_round_trip(seed in 0u32..1000) {
        let src = format!(
            "li a0, {}\nli a1, {}\nadd a2, a0, a1\nmul a3, a2, a0\nwfi",
            seed, seed.wrapping_mul(37)
        );
        let program = Program::assemble(&src).expect("assembles");
        let listing = program.to_string();
        let again = Program::assemble(&listing).expect("listing re-assembles");
        prop_assert_eq!(again.instrs(), program.instrs());
    }
}

/// The stats digest is FNV-1a over this word order and no other: cycles,
/// the core count, each core's counters in struct order, the bank count,
/// each bank's counters, the DMA totals. Written out literally, so that
/// reordering a field list fails here and not only against the pins.
#[test]
fn stats_digest_is_fnv1a_over_the_literal_word_list() {
    let core = |base: u64| CoreStats {
        retired: base,
        stall_scoreboard: base + 1,
        stall_structural: base + 2,
        stall_icache: base + 3,
        icache_misses: base + 4,
        stall_branch: base + 5,
        stall_fault_retry: base + 6,
        stall_ecc: base + 7,
        halted_cycles: base + 8,
        accesses: [base + 9, base + 10, base + 11],
        network_accesses: [base + 12, base + 13, base + 14, base + 15],
    };
    let bank = |base: u64| BankStats {
        served: base,
        conflicts: base + 1,
        max_queue_depth: base + 2,
    };
    let stats = ClusterStats {
        cycles: 1000,
        cores: vec![core(100), core(200)],
        banks: vec![bank(300), bank(400)],
        dma_bytes: 500,
        dma_cycles: 501,
    };
    #[rustfmt::skip]
    let words: [u64; 43] = [
        1000,
        2,
        100, 101, 102, 103, 104, 105, 106, 107, 108, 109, 110, 111, 112, 113, 114, 115,
        200, 201, 202, 203, 204, 205, 206, 207, 208, 209, 210, 211, 212, 213, 214, 215,
        2,
        300, 301, 302,
        400, 401, 402,
        500, 501,
    ];
    let expected = words
        .iter()
        .fold(FNV_OFFSET, |hash, word| fnv1a(hash, &word.to_le_bytes()));
    assert_eq!(stats.digest(), expected);
}
