//! The chaining unit — the paper's hardware contribution.
//!
//! One 32-bit mask CSR (0x7C3) selects which architectural FP registers
//! have *FIFO semantics*, plus one **valid bit** per register:
//!
//! * a **read** of a chaining-enabled register *pops*: it requires the
//!   valid bit to be set, returns the register value, and clears the bit;
//! * a **write** (at instruction completion) *pushes*: it requires the
//!   valid bit to be clear, stores the value, and sets the bit. If the bit
//!   is still set, the completing instruction **holds in the functional
//!   unit's final pipeline stage** — the unit's pipeline registers behave
//!   as the tail of the logical FIFO, exactly the paper's Fig. 2 dataflow;
//! * successive writes carry **no WAW dependency**: each is simply the
//!   next push, so a 4-deep software pipeline needs one architectural
//!   register instead of four.
//!
//! The unit stores only the mask and the valid bits; values live in the
//! ordinary FP register file (the architectural register *is* the FIFO
//! head) and in the in-flight pipeline slots (the tail). Total logical
//! FIFO capacity is therefore `1 + pipeline depth`, matching the paper's
//! observation that chaining benefits grow with pipeline depth.

use std::fmt;

use sc_isa::FpReg;

/// Error conditions surfaced by the chaining-CSR checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChainError {
    /// Chaining was disabled on a register that still had in-flight
    /// producers; their later pushes would silently become plain writes.
    DisableWithInflight {
        /// The offending register.
        reg: FpReg,
        /// In-flight producer count at the time of the CSR write.
        inflight: u32,
    },
}

impl fmt::Display for ChainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ChainError::DisableWithInflight { reg, inflight } => write!(
                f,
                "chaining disabled on {reg} with {inflight} in-flight producer(s)"
            ),
        }
    }
}

impl std::error::Error for ChainError {}

/// Chaining mask + valid bits (the extension's entire architectural state:
/// 64 bits — the basis of the paper's <2 % area claim).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChainUnit {
    mask: u32,
    valid: u32,
}

impl ChainUnit {
    /// Creates a unit with chaining disabled on all registers.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The current mask CSR value.
    #[must_use]
    pub fn mask(&self) -> u32 {
        self.mask
    }

    /// The valid bits (diagnostic view).
    #[must_use]
    pub fn valid_bits(&self) -> u32 {
        self.valid
    }

    /// Whether `reg` currently has FIFO semantics.
    #[must_use]
    pub fn is_chained(&self, reg: FpReg) -> bool {
        self.mask & reg.chain_mask_bit() != 0
    }

    /// Whether `reg` holds an unconsumed value (valid bit set).
    #[must_use]
    pub fn is_valid(&self, reg: FpReg) -> bool {
        self.valid & reg.chain_mask_bit() != 0
    }

    /// Updates the mask from a CSR write.
    ///
    /// Newly-enabled registers start empty (valid bit cleared): the FIFO
    /// begins in the "no element" state regardless of the stale register
    /// value. Disabling a register leaves its last value readable as a
    /// plain register — the idiom the paper's Fig. 1c epilogue uses.
    ///
    /// `inflight` reports, per register index, how many producers are
    /// still in the FU pipelines; disabling a register that still has
    /// some is rejected.
    ///
    /// # Errors
    ///
    /// [`ChainError::DisableWithInflight`] when a disabled register still
    /// has in-flight producers.
    pub fn set_mask(&mut self, new_mask: u32, inflight: &[u32; 32]) -> Result<(), ChainError> {
        let disabled = self.mask & !new_mask;
        if disabled != 0 {
            for idx in 0..32u8 {
                if disabled & (1 << idx) != 0 && inflight[idx as usize] > 0 {
                    return Err(ChainError::DisableWithInflight {
                        reg: FpReg::new(idx),
                        inflight: inflight[idx as usize],
                    });
                }
            }
        }
        let newly_enabled = new_mask & !self.mask;
        self.valid &= !newly_enabled;
        self.mask = new_mask;
        Ok(())
    }

    /// Whether a pop (read) of `reg` can proceed this cycle.
    ///
    /// Only meaningful for chained registers; plain registers are governed
    /// by the scoreboard instead.
    #[must_use]
    pub fn can_pop(&self, reg: FpReg) -> bool {
        self.is_valid(reg)
    }

    /// Performs the pop side effect (clears the valid bit). The caller
    /// reads the value from the register file.
    ///
    /// # Panics
    ///
    /// Panics if the register is not poppable — gate with
    /// [`ChainUnit::can_pop`]; the issue stage must have stalled instead.
    pub fn pop(&mut self, reg: FpReg) {
        assert!(self.can_pop(reg), "pop of empty chained register {reg}");
        self.valid &= !reg.chain_mask_bit();
    }

    /// Whether a push (completing write) to `reg` can proceed this cycle.
    /// A false result is the backpressure signal: the producer holds in
    /// the final pipeline stage.
    #[must_use]
    pub fn can_push(&self, reg: FpReg) -> bool {
        !self.is_valid(reg)
    }

    /// Performs the push side effect (sets the valid bit). The caller
    /// writes the value into the register file.
    ///
    /// # Panics
    ///
    /// Panics if the register is still valid — gate with
    /// [`ChainUnit::can_push`]; the producer must have held instead.
    pub fn push(&mut self, reg: FpReg) {
        assert!(
            self.can_push(reg),
            "push overwriting unconsumed chained register {reg}"
        );
        self.valid |= reg.chain_mask_bit();
    }

    /// Extension state-bit count (for the area proxy): mask + valid bits.
    #[must_use]
    pub fn state_bits() -> u32 {
        64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NO_INFLIGHT: [u32; 32] = [0; 32];

    #[test]
    fn paper_mask_example_enables_ft3() {
        let mut u = ChainUnit::new();
        u.set_mask(8, &NO_INFLIGHT).unwrap();
        assert!(u.is_chained(FpReg::FT3));
        assert!(!u.is_chained(FpReg::new(4)));
    }

    #[test]
    fn push_pop_cycle() {
        let mut u = ChainUnit::new();
        u.set_mask(FpReg::FT3.chain_mask_bit(), &NO_INFLIGHT)
            .unwrap();
        assert!(
            !u.can_pop(FpReg::FT3),
            "empty register must not be poppable"
        );
        assert!(u.can_push(FpReg::FT3));
        u.push(FpReg::FT3);
        assert!(u.can_pop(FpReg::FT3));
        assert!(
            !u.can_push(FpReg::FT3),
            "occupied register must backpressure"
        );
        u.pop(FpReg::FT3);
        assert!(u.can_push(FpReg::FT3));
    }

    #[test]
    #[should_panic(expected = "pop of empty chained register")]
    fn pop_empty_panics() {
        let mut u = ChainUnit::new();
        u.set_mask(8, &NO_INFLIGHT).unwrap();
        u.pop(FpReg::FT3);
    }

    #[test]
    #[should_panic(expected = "unconsumed chained register")]
    fn push_full_panics() {
        let mut u = ChainUnit::new();
        u.set_mask(8, &NO_INFLIGHT).unwrap();
        u.push(FpReg::FT3);
        u.push(FpReg::FT3);
    }

    #[test]
    fn enable_clears_stale_valid() {
        let mut u = ChainUnit::new();
        u.set_mask(8, &NO_INFLIGHT).unwrap();
        u.push(FpReg::FT3);
        // Disable then re-enable: the FIFO must restart empty.
        u.set_mask(0, &NO_INFLIGHT).unwrap();
        u.set_mask(8, &NO_INFLIGHT).unwrap();
        assert!(!u.can_pop(FpReg::FT3));
    }

    #[test]
    fn strict_disable_with_inflight_is_error() {
        let mut u = ChainUnit::new();
        u.set_mask(8, &NO_INFLIGHT).unwrap();
        let mut inflight = NO_INFLIGHT;
        inflight[3] = 2;
        let err = u.set_mask(0, &inflight).unwrap_err();
        assert_eq!(
            err,
            ChainError::DisableWithInflight {
                reg: FpReg::FT3,
                inflight: 2
            }
        );
        assert_eq!(u.mask(), 8, "a refused write leaves the mask unchanged");
    }

    #[test]
    fn state_is_exactly_64_bits() {
        assert_eq!(ChainUnit::state_bits(), 64);
    }
}
