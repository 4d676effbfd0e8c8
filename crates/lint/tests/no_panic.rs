//! The verifier runs on programs from outside the library (`sc-lint`'s
//! own binary lints assembly files), so it must report, never panic, on
//! any program the assembler accepts — however meaningless.

use proptest::prelude::*;
use sc_isa::parse_asm;
use sc_lint::{lint_harts, lint_program, LintConfig};

/// Line templates over the protocol surface the verifier models: the
/// chaining, SSR, DMA and barrier CSRs, `frep`, loops through labels,
/// and FP traffic on chained and stream registers. `{x}`, `{f}`, `{i}`,
/// `{c}` and `{l}` take a random integer register, FP register,
/// immediate, CSR and label; each label is defined once, before a
/// random line.
const LINES: &[&str] = &[
    "li {x}, {i}",
    "addi {x}, {x}, {i}",
    "add {x}, {x}, {x}",
    "sub {x}, {x}, {x}",
    "slli {x}, {x}, 3",
    "mul {x}, {x}, {x}",
    "lw {x}, {i}({x})",
    "sw {x}, {i}({x})",
    "fld {f}, {i}({x})",
    "fsd {f}, {i}({x})",
    "fadd.d {f}, {f}, {f}",
    "fmul.d {f}, {f}, {f}",
    "fmadd.d {f}, {f}, {f}, {f}",
    "fsqrt.d {f}, {f}",
    "fle.d {x}, {f}, {f}",
    "fcvt.d.w {f}, {x}",
    "fmv.d {f}, {f}",
    "bne {x}, {x}, {l}",
    "blt {x}, {x}, {l}",
    "bge {x}, {x}, {l}",
    "j {l}",
    "csrw {c}, {x}",
    "csrs {c}, {x}",
    "csrr {x}, {c}",
    "csrrwi x0, {c}, 1",
    "frep.o {x}, {i}, 0, 0",
    "frep.i {x}, {i}, 1, 3",
    "scfgwi {x}, {i}",
    "scfgri {x}, {i}",
    "nop",
    "ecall",
];
const XREGS: &[&str] = &["x0", "t0", "t1", "a0", "a1", "sp"];
const FREGS: &[&str] = &["ft0", "ft1", "ft2", "ft3", "ft4", "f8", "f31"];
const IMMS: &[&str] = &[
    "0", "1", "2", "3", "8", "-8", "64", "2047", "-2048", "0x7C3",
];
const CSRS: &[&str] = &[
    "0x7C0", "0x7C3", "0x7C5", "0x7C6", "0x7D0", "0x7D1", "0x7D2", "0x7D5", "0x7D6", "0x7D7",
    "0x7D8", "0x7D9", "0xF14",
];
const LABELS: &[&str] = &["top", "body", "out"];

/// One program: each line is a template with its holes filled from a
/// stream of random picks.
fn asm_program() -> impl Strategy<Value = String> {
    (
        proptest::collection::vec(
            (
                0..LINES.len(),
                proptest::collection::vec(any::<u32>(), 4..5),
            ),
            1..32,
        ),
        proptest::collection::vec(any::<u32>(), 3..4),
    )
        .prop_map(|(lines, label_at)| {
            let mut src = String::new();
            for (n, (template, picks)) in lines.iter().enumerate() {
                for (label, at) in LABELS.iter().zip(&label_at) {
                    if *at as usize % lines.len() == n {
                        src.push_str(label);
                        src.push_str(":\n");
                    }
                }
                let mut rest = LINES[*template];
                for pick in picks.iter().cycle() {
                    let Some(open) = rest.find('{') else { break };
                    src.push_str(&rest[..open]);
                    let pool = match &rest[open + 1..open + 2] {
                        "x" => XREGS,
                        "f" => FREGS,
                        "i" => IMMS,
                        "c" => CSRS,
                        _ => LABELS,
                    };
                    src.push_str(pool[*pick as usize % pool.len()]);
                    rest = &rest[open + 3..];
                }
                src.push_str(rest);
                src.push('\n');
            }
            src
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn lint_never_panics_on_parsable_programs(src in asm_program()) {
        // Out-of-range immediates fail to assemble; everything that
        // assembles must lint, alone and as a two-hart cluster.
        if let Ok(program) = parse_asm(&src) {
            let cfg = LintConfig::new();
            let _ = lint_program(&program, &cfg);
            let _ = lint_harts(&[program.clone(), program], &cfg);
        }
    }
}
