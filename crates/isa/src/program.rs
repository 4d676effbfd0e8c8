//! Finished instruction sequences ready for execution.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::inst::Instruction;

/// An assembled program: a flat instruction sequence plus symbols.
///
/// Instruction addresses are byte addresses starting at 0; every
/// instruction is 4 bytes (no compressed encodings in this model).
///
/// A program is immutable once built, and its code and symbol table sit
/// behind one shared reference: a clone is a reference-count bump, so
/// handing the same program to many cores, stages or runs copies
/// nothing.
///
/// # Examples
///
/// ```
/// use sc_isa::{Program, Instruction};
/// let prog = Program::new(vec![Instruction::Ecall], Default::default());
/// assert_eq!(prog.fetch(0), Some(Instruction::Ecall));
/// assert_eq!(prog.fetch(4), None);
/// ```
#[derive(Clone, Default, PartialEq)]
pub struct Program(Arc<Body>);

/// What a [`Program`] shares between its clones.
#[derive(Default, PartialEq)]
struct Body {
    code: Vec<Instruction>,
    symbols: BTreeMap<String, u32>,
}

impl fmt::Debug for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Program")
            .field("code", &self.0.code)
            .field("symbols", &self.0.symbols)
            .finish()
    }
}

impl Program {
    /// Creates a program from instructions and a symbol table
    /// (label → byte address).
    #[must_use]
    pub fn new(code: Vec<Instruction>, symbols: BTreeMap<String, u32>) -> Self {
        Program(Arc::new(Body { code, symbols }))
    }

    /// Number of instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.code.len()
    }

    /// Whether the program contains no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.code.is_empty()
    }

    /// Fetches the instruction at byte address `pc`, if in range.
    ///
    /// Misaligned addresses return `None`.
    #[must_use]
    pub fn fetch(&self, pc: u32) -> Option<Instruction> {
        if !pc.is_multiple_of(4) {
            return None;
        }
        self.0.code.get((pc / 4) as usize).copied()
    }

    /// The instructions as a slice.
    #[must_use]
    pub fn code(&self) -> &[Instruction] {
        &self.0.code
    }

    /// Looks up a label's byte address.
    #[must_use]
    pub fn symbol(&self, name: &str) -> Option<u32> {
        self.0.symbols.get(name).copied()
    }

    /// Iterates over `(name, byte address)` symbol pairs.
    pub fn symbols(&self) -> impl Iterator<Item = (&str, u32)> {
        self.0.symbols.iter().map(|(k, v)| (k.as_str(), *v))
    }

    /// Encodes the program to its 32-bit binary words (little-endian
    /// machine code, as a linker would emit it).
    #[must_use]
    pub fn to_words(&self) -> Vec<u32> {
        self.0.code.iter().map(crate::encode).collect()
    }

    /// Decodes a program from binary words (symbols are not recoverable).
    ///
    /// # Errors
    ///
    /// Returns the first [`crate::DecodeError`] encountered.
    pub fn from_words(words: &[u32]) -> Result<Self, crate::DecodeError> {
        let code = words
            .iter()
            .map(|w| crate::decode(*w))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Program::new(code, BTreeMap::new()))
    }

    /// Renders a disassembly listing with addresses and labels.
    #[must_use]
    pub fn disassemble(&self) -> String {
        let mut by_addr: BTreeMap<u32, Vec<&str>> = BTreeMap::new();
        for (name, addr) in self.symbols() {
            by_addr.entry(addr).or_default().push(name);
        }
        let mut out = String::new();
        for (i, inst) in self.0.code.iter().enumerate() {
            let addr = (i * 4) as u32;
            if let Some(labels) = by_addr.get(&addr) {
                for l in labels {
                    out.push_str(l);
                    out.push_str(":\n");
                }
            }
            out.push_str(&format!("  {addr:#06x}: {inst}\n"));
        }
        out
    }
}

impl fmt::Display for Program {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.disassemble())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::ProgramBuilder;
    use crate::reg::IntReg;

    #[test]
    fn fetch_rejects_misaligned() {
        let prog = Program::new(
            vec![Instruction::NOP, Instruction::Ecall],
            Default::default(),
        );
        assert!(prog.fetch(2).is_none());
        assert_eq!(prog.fetch(4), Some(Instruction::Ecall));
    }

    #[test]
    fn clones_share_one_body() {
        let prog = Program::new(vec![Instruction::Ecall], Default::default());
        let copy = prog.clone();
        assert!(Arc::ptr_eq(&prog.0, &copy.0));
        assert_eq!(copy, prog);
    }

    #[test]
    fn disassembly_includes_labels() {
        let mut b = ProgramBuilder::new();
        b.label("start");
        b.addi(IntReg::new(1), IntReg::ZERO, 42);
        b.ecall();
        let prog = b.build().unwrap();
        let text = prog.disassemble();
        assert!(text.contains("start:"));
        assert!(text.contains("addi ra, zero, 42"));
        assert_eq!(prog.symbol("start"), Some(0));
    }
}
