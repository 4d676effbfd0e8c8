//! Property tests: binary encode/decode is a lossless roundtrip for every
//! instruction the model can represent, and neither the decoder (on
//! arbitrary 32-bit words) nor the assembler (on arbitrary token strings)
//! ever panics.

use proptest::prelude::*;
use sc_isa::{
    decode, encode, parse_asm, AluOp, BranchOp, CsrOp, CsrSrc, FmaOp, FpBinOp, FpCmpOp, FpCvtOp,
    FpFormat, FpReg, Instruction, IntReg, LoadOp, MulDivOp, StoreOp,
};

fn int_reg() -> impl Strategy<Value = IntReg> {
    (0u8..32).prop_map(IntReg::new)
}

fn fp_reg() -> impl Strategy<Value = FpReg> {
    (0u8..32).prop_map(FpReg::new)
}

fn imm12() -> impl Strategy<Value = i32> {
    -2048i32..2048
}

fn branch_offset() -> impl Strategy<Value = i32> {
    (-2048i32..2048).prop_map(|x| x * 2)
}

fn jal_offset() -> impl Strategy<Value = i32> {
    (-(1i32 << 19)..(1 << 19)).prop_map(|x| x * 2)
}

fn fmt() -> impl Strategy<Value = FpFormat> {
    prop_oneof![Just(FpFormat::Single), Just(FpFormat::Double)]
}

fn alu_op_imm() -> impl Strategy<Value = AluOp> {
    prop_oneof![
        Just(AluOp::Add),
        Just(AluOp::Slt),
        Just(AluOp::Sltu),
        Just(AluOp::Xor),
        Just(AluOp::Or),
        Just(AluOp::And),
    ]
}

fn alu_op() -> impl Strategy<Value = AluOp> {
    prop_oneof![
        alu_op_imm(),
        Just(AluOp::Sub),
        Just(AluOp::Sll),
        Just(AluOp::Srl),
        Just(AluOp::Sra),
    ]
}

fn instruction() -> impl Strategy<Value = Instruction> {
    prop_oneof![
        (int_reg(), any::<u32>()).prop_map(|(rd, v)| Instruction::Lui {
            rd,
            imm: v & 0xFFFF_F000
        }),
        (int_reg(), any::<u32>()).prop_map(|(rd, v)| Instruction::Auipc {
            rd,
            imm: v & 0xFFFF_F000
        }),
        (int_reg(), jal_offset()).prop_map(|(rd, offset)| Instruction::Jal { rd, offset }),
        (int_reg(), int_reg(), imm12()).prop_map(|(rd, rs1, offset)| Instruction::Jalr {
            rd,
            rs1,
            offset
        }),
        (
            prop_oneof![
                Just(BranchOp::Eq),
                Just(BranchOp::Ne),
                Just(BranchOp::Lt),
                Just(BranchOp::Ge),
                Just(BranchOp::Ltu),
                Just(BranchOp::Geu)
            ],
            int_reg(),
            int_reg(),
            branch_offset()
        )
            .prop_map(|(op, rs1, rs2, offset)| Instruction::Branch {
                op,
                rs1,
                rs2,
                offset
            }),
        (
            prop_oneof![
                Just(LoadOp::Lb),
                Just(LoadOp::Lh),
                Just(LoadOp::Lw),
                Just(LoadOp::Lbu),
                Just(LoadOp::Lhu)
            ],
            int_reg(),
            int_reg(),
            imm12()
        )
            .prop_map(|(op, rd, rs1, offset)| Instruction::Load {
                op,
                rd,
                rs1,
                offset
            }),
        (
            prop_oneof![Just(StoreOp::Sb), Just(StoreOp::Sh), Just(StoreOp::Sw)],
            int_reg(),
            int_reg(),
            imm12()
        )
            .prop_map(|(op, rs2, rs1, offset)| Instruction::Store {
                op,
                rs2,
                rs1,
                offset
            }),
        (alu_op_imm(), int_reg(), int_reg(), imm12())
            .prop_map(|(op, rd, rs1, imm)| Instruction::OpImm { op, rd, rs1, imm }),
        (
            prop_oneof![Just(AluOp::Sll), Just(AluOp::Srl), Just(AluOp::Sra)],
            int_reg(),
            int_reg(),
            0i32..32
        )
            .prop_map(|(op, rd, rs1, imm)| Instruction::OpImm { op, rd, rs1, imm }),
        (alu_op(), int_reg(), int_reg(), int_reg())
            .prop_map(|(op, rd, rs1, rs2)| Instruction::Op { op, rd, rs1, rs2 }),
        (
            prop_oneof![
                Just(MulDivOp::Mul),
                Just(MulDivOp::Mulh),
                Just(MulDivOp::Mulhsu),
                Just(MulDivOp::Mulhu),
                Just(MulDivOp::Div),
                Just(MulDivOp::Divu),
                Just(MulDivOp::Rem),
                Just(MulDivOp::Remu)
            ],
            int_reg(),
            int_reg(),
            int_reg()
        )
            .prop_map(|(op, rd, rs1, rs2)| Instruction::MulDiv { op, rd, rs1, rs2 }),
        Just(Instruction::Fence),
        Just(Instruction::Ecall),
        Just(Instruction::Ebreak),
        (
            prop_oneof![
                Just(CsrOp::ReadWrite),
                Just(CsrOp::ReadSet),
                Just(CsrOp::ReadClear)
            ],
            int_reg(),
            any::<u16>().prop_map(|c| c & 0xFFF),
            prop_oneof![
                int_reg().prop_map(CsrSrc::Reg),
                (0u8..32).prop_map(CsrSrc::Imm)
            ]
        )
            .prop_map(|(op, rd, csr, src)| Instruction::Csr { op, rd, csr, src }),
        (fmt(), fp_reg(), int_reg(), imm12()).prop_map(|(fmt, frd, rs1, offset)| {
            Instruction::FpLoad {
                fmt,
                frd,
                rs1,
                offset,
            }
        }),
        (fmt(), fp_reg(), int_reg(), imm12()).prop_map(|(fmt, frs2, rs1, offset)| {
            Instruction::FpStore {
                fmt,
                frs2,
                rs1,
                offset,
            }
        }),
        (
            prop_oneof![
                Just(FpBinOp::Add),
                Just(FpBinOp::Sub),
                Just(FpBinOp::Mul),
                Just(FpBinOp::Div),
                Just(FpBinOp::Sgnj),
                Just(FpBinOp::Sgnjn),
                Just(FpBinOp::Sgnjx),
                Just(FpBinOp::Min),
                Just(FpBinOp::Max)
            ],
            fmt(),
            fp_reg(),
            fp_reg(),
            fp_reg()
        )
            .prop_map(|(op, fmt, frd, frs1, frs2)| Instruction::FpBin {
                op,
                fmt,
                frd,
                frs1,
                frs2
            }),
        (
            prop_oneof![
                Just(FmaOp::Madd),
                Just(FmaOp::Msub),
                Just(FmaOp::Nmsub),
                Just(FmaOp::Nmadd)
            ],
            fmt(),
            fp_reg(),
            fp_reg(),
            fp_reg(),
            fp_reg()
        )
            .prop_map(|(op, fmt, frd, frs1, frs2, frs3)| Instruction::FpFma {
                op,
                fmt,
                frd,
                frs1,
                frs2,
                frs3
            }),
        (fmt(), fp_reg(), fp_reg()).prop_map(|(fmt, frd, frs1)| Instruction::FpSqrt {
            fmt,
            frd,
            frs1
        }),
        (
            prop_oneof![Just(FpCmpOp::Eq), Just(FpCmpOp::Lt), Just(FpCmpOp::Le)],
            fmt(),
            int_reg(),
            fp_reg(),
            fp_reg()
        )
            .prop_map(|(op, fmt, rd, frs1, frs2)| Instruction::FpCmp {
                op,
                fmt,
                rd,
                frs1,
                frs2
            }),
        fp_cvt(),
        (int_reg(), 1u16..256, 0u8..8, 0u8..16).prop_map(
            |(max_rpt, n_instr, stagger_max, stagger_mask)| Instruction::Frep {
                is_outer: (n_instr & 1) == 1,
                max_rpt,
                n_instr,
                stagger_max,
                stagger_mask
            }
        ),
        (int_reg(), 0u16..0x1000).prop_map(|(rs1, imm)| Instruction::Scfgwi { rs1, imm }),
        (int_reg(), 0u16..0x1000).prop_map(|(rd, imm)| Instruction::Scfgri { rd, imm }),
    ]
}

fn fp_cvt() -> impl Strategy<Value = Instruction> {
    let op = prop_oneof![
        Just(FpCvtOp::DFromW),
        Just(FpCvtOp::DFromWu),
        Just(FpCvtOp::WFromD),
        Just(FpCvtOp::WuFromD),
        Just(FpCvtOp::DFromS),
        Just(FpCvtOp::SFromD),
        Just(FpCvtOp::MvXW),
        Just(FpCvtOp::MvWX),
    ];
    (op, int_reg(), fp_reg()).prop_map(|(op, ir, fr)| {
        let (z, fz) = (IntReg::ZERO, FpReg::new(0));
        if op.writes_int() {
            Instruction::FpCvt {
                op,
                rd: ir,
                frd: fz,
                rs1: z,
                frs1: fr,
            }
        } else if op.reads_int() {
            Instruction::FpCvt {
                op,
                rd: z,
                frd: fr,
                rs1: ir,
                frs1: fz,
            }
        } else {
            Instruction::FpCvt {
                op,
                rd: z,
                frd: fr,
                rs1: z,
                frs1: FpReg::new(ir.index()),
            }
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn encode_decode_roundtrip(inst in instruction()) {
        let word = encode(&inst);
        let back = decode(word).expect("every encoded instruction decodes");
        prop_assert_eq!(back, inst);
    }

    #[test]
    fn decode_never_panics(word in any::<u32>()) {
        // Either decodes or errors; must not panic.
        let _ = decode(word);
    }

    #[test]
    fn decode_reencodes_identically(word in any::<u32>()) {
        // Any word that decodes must re-encode to a word that decodes to the
        // same instruction (encodings may canonicalise don't-care bits).
        if let Ok(inst) = decode(word) {
            let word2 = encode(&inst);
            prop_assert_eq!(decode(word2).expect("canonical word decodes"), inst);
        }
    }
}

/// Assembler tokens: mnemonics (real, misspelled and pseudo), register
/// names (ABI, numeric and out of range), immediates at and past every
/// field's limits, labels, memory operands and separators.
#[rustfmt::skip]
const ASM_TOKENS: &[&str] = &[
    "addi", "add", "sub", "slli", "mul", "divu", "lui", "auipc", "lw", "lbu", "sw", "sb", "fld",
    "flw", "fsd", "fsw", "beq", "bne", "bltu", "bneq", "jal", "jalr", "j", "fadd.d", "fmul.s",
    "fsgnjx.d", "fmin.d", "fmadd.d", "fnmadd.s", "fsqrt.d", "feq.d", "fle.s", "fcvt.d.w",
    "fcvt.w.d", "fmv.d", "fmv.x.w", "csrrw", "csrrsi", "csrw", "csrs", "csrr", "frep.o", "frep.i",
    "scfgwi", "scfgri", "li", "mv", "nop", "ecall", "ebreak", "fence", "fadd", "frep", "x0", "x31",
    "x32", "zero", "ra", "sp", "t0", "a0", "s11", "ft0", "ft11", "fa0", "fs11", "f31", "f32", "0",
    "1", "-1", "7", "2047", "2048", "-2049", "4095", "0x7C3", "0x7d9", "0xFFFFFFFF", "0x100000000",
    "-2147483648", "99999999999999999999", "0x", "-", "8(a0)", "-8(sp)", "(t0)", "4096(x1)", "8(",
    ")", "loop", "loop:", "end", "end:", ":", "::", "1:", ",", ",", ",", " ", " ", "\n", "\n", "#",
    "//", ".", "\t", "é",
];

fn asm_text() -> impl Strategy<Value = String> {
    proptest::collection::vec(0..ASM_TOKENS.len(), 0..48).prop_map(|picks| {
        picks
            .into_iter()
            .map(|i| ASM_TOKENS[i])
            .collect::<Vec<_>>()
            .join(" ")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn parse_asm_never_panics(src in asm_text()) {
        // Either assembles or errors; must not panic.
        let _ = parse_asm(&src);
    }
}
