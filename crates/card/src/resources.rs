//! Secure stable-storage (EEPROM) budget.
//!
//! The e-gate card of the demo offers "only 1 KB of RAM available for on-board
//! applications" (§3) and a few tens of KB of EEPROM. The RAM constraint is
//! enforced where the working set is built: `sdds-core`'s evaluation session
//! counts its secure-RAM footprint after every event and fails a session that
//! exceeds its budget (`EngineConfig::ram_budget`, reported as
//! `SessionStats::peak_ram_bytes`, experiment E4). [`EepromBudget`] accounts
//! what the applet stores persistently: its installed rules.

use crate::error::CardError;

/// Secure stable storage budget (keys, persistent rules, applet state).
#[derive(Debug, Clone)]
pub struct EepromBudget {
    budget: usize,
    in_use: usize,
}

impl EepromBudget {
    /// Creates a budget of `budget` bytes.
    pub fn new(budget: usize) -> Self {
        EepromBudget { budget, in_use: 0 }
    }

    /// Total budget in bytes.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Bytes currently stored.
    pub fn in_use(&self) -> usize {
        self.in_use
    }

    /// Stores `bytes`.
    pub fn store(&mut self, bytes: usize) -> Result<(), CardError> {
        if self.in_use + bytes > self.budget {
            return Err(CardError::EepromExceeded {
                requested: bytes,
                in_use: self.in_use,
                budget: self.budget,
            });
        }
        self.in_use += bytes;
        Ok(())
    }

    /// Frees `bytes`.
    pub fn free(&mut self, bytes: usize) {
        self.in_use = self.in_use.saturating_sub(bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eeprom_budget_enforced() {
        let mut rom = EepromBudget::new(64);
        rom.store(32).unwrap();
        rom.store(32).unwrap();
        assert!(rom.store(1).is_err());
        rom.free(10);
        assert_eq!(rom.in_use(), 54);
        rom.store(10).unwrap();
        assert_eq!(rom.budget(), 64);
    }
}
