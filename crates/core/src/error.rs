//! Simulation errors.
//!
//! The core turns software bugs (stream misuse, chaining misuse) into
//! descriptive errors instead of undefined data — the model's equivalent
//! of an RTL assertion.

use std::fmt;

use sc_isa::{DecodeError, FpReg};
use sc_mem::MemError;
use sc_ssr::SsrError;

use crate::chain::ChainError;
use crate::sequencer::SeqError;

/// Any error the simulator can report.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// Functional memory access failed (program bug or bad stream config).
    Mem(MemError),
    /// Stream misuse.
    Ssr(SsrError),
    /// Chaining misuse.
    Chain(ChainError),
    /// FREP misuse.
    Seq(SeqError),
    /// Instruction word failed to decode (when running encoded programs).
    Decode(DecodeError),
    /// PC left the program.
    FetchOutOfProgram {
        /// The faulting PC.
        pc: u32,
    },
    /// `ebreak` executed.
    Ebreak {
        /// PC of the `ebreak`.
        pc: u32,
    },
    /// The cycle budget ran out before `ecall`.
    MaxCyclesExceeded {
        /// The budget that was exceeded.
        max_cycles: u64,
    },
    /// A stream register was read but its stream has delivered everything.
    StreamReadExhausted {
        /// Data mover index.
        dm: u8,
    },
    /// `ecall` reached while a read stream still held undelivered elements.
    EcallWithActiveStream {
        /// Data mover index.
        dm: u8,
    },
    /// FP load targeting a stream-mapped register.
    LoadIntoStreamRegister {
        /// The destination register.
        reg: FpReg,
    },
    /// A program used the chaining CSR on a core built without the
    /// extension.
    ChainingAbsent,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Mem(e) => write!(f, "memory error: {e}"),
            SimError::Ssr(e) => write!(f, "stream error: {e}"),
            SimError::Chain(e) => write!(f, "chaining error: {e}"),
            SimError::Seq(e) => write!(f, "sequencer error: {e}"),
            SimError::Decode(e) => write!(f, "decode error: {e}"),
            SimError::FetchOutOfProgram { pc } => {
                write!(f, "instruction fetch outside program at pc {pc:#010x}")
            }
            SimError::Ebreak { pc } => write!(f, "ebreak at pc {pc:#010x}"),
            SimError::MaxCyclesExceeded { max_cycles } => {
                write!(f, "simulation exceeded {max_cycles} cycles without ecall")
            }
            SimError::StreamReadExhausted { dm } => {
                write!(
                    f,
                    "read of stream register ft{dm} after its stream completed"
                )
            }
            SimError::EcallWithActiveStream { dm } => {
                write!(f, "ecall with undelivered elements in stream {dm}")
            }
            SimError::LoadIntoStreamRegister { reg } => {
                write!(f, "fp load into stream-mapped register {reg}")
            }
            SimError::ChainingAbsent => {
                write!(f, "chaining CSR used but the extension is not configured")
            }
        }
    }
}

impl std::error::Error for SimError {}

impl From<MemError> for SimError {
    fn from(e: MemError) -> Self {
        SimError::Mem(e)
    }
}

impl From<SsrError> for SimError {
    fn from(e: SsrError) -> Self {
        SimError::Ssr(e)
    }
}

impl From<ChainError> for SimError {
    fn from(e: ChainError) -> Self {
        SimError::Chain(e)
    }
}

impl From<SeqError> for SimError {
    fn from(e: SeqError) -> Self {
        SimError::Seq(e)
    }
}

impl From<DecodeError> for SimError {
    fn from(e: DecodeError) -> Self {
        SimError::Decode(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SimError::StreamReadExhausted { dm: 1 };
        assert!(e.to_string().contains("ft1"));
        let e = SimError::MaxCyclesExceeded { max_cycles: 100 };
        assert!(e.to_string().contains("100"));
    }

    #[test]
    fn conversions_compose_with_question_mark() {
        fn inner() -> Result<(), SimError> {
            Err(MemError::Misaligned { addr: 3, width: 8 })?;
            Ok(())
        }
        assert!(matches!(inner(), Err(SimError::Mem(_))));
    }
}
