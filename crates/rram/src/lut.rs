//! The per-cluster look-up table.
//!
//! The LUT is a small SRAM (512 entries × 8 bits) shared by the arrays of a
//! cluster. It provides initial seeds for the iterative algorithms the
//! compiler uses to lower division, square root and transcendental
//! functions (§5.1), and direct approximations for non-linear functions
//! such as sigmoid. Its contents are initialized by the host at kernel
//! launch.

use imp_isa::{LUT_ENTRIES, LUT_ENTRY_BITS};
use std::fmt;

/// A 512-entry × 8-bit look-up table.
///
/// The `lut` instruction uses the low 9 bits of each source lane as the
/// index and writes the zero-extended 8-bit entry to the destination lane;
/// any scaling of the index or the result is done by the compiler with
/// `shift`/`mask` instructions.
#[derive(Clone, PartialEq, Eq)]
pub struct Lut {
    entries: Box<[u8; LUT_ENTRIES]>,
    kind: LutKind,
}

/// What a LUT instance currently holds, for diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LutKind {
    /// All-zero contents (host has not loaded anything).
    #[default]
    Empty,
    /// Reciprocal seeds for Newton–Raphson division.
    ReciprocalSeed,
    /// Reciprocal-square-root seeds for Newton–Raphson sqrt.
    RsqrtSeed,
    /// Direct exponential approximation over a kernel-declared range.
    Exp,
    /// Direct sigmoid approximation.
    Sigmoid,
    /// Anything else loaded by the host.
    Custom,
}

impl Lut {
    /// Creates an all-zero LUT.
    pub fn new() -> Self {
        Lut {
            entries: Box::new([0; LUT_ENTRIES]),
            kind: LutKind::Empty,
        }
    }

    /// Builds a LUT by evaluating `f` at every index.
    pub fn from_fn(kind: LutKind, f: impl Fn(usize) -> u8) -> Self {
        let mut entries = Box::new([0; LUT_ENTRIES]);
        for (index, entry) in entries.iter_mut().enumerate() {
            *entry = f(index);
        }
        Lut { entries, kind }
    }

    /// Looks up the entry for a lane value: index is the low 9 bits.
    pub fn lookup(&self, lane_value: i32) -> u8 {
        self.entries[(lane_value as u32 as usize) % LUT_ENTRIES]
    }

    /// Raw entry at `index`.
    ///
    /// # Panics
    /// Panics if `index >= LUT_ENTRIES`.
    pub fn entry(&self, index: usize) -> u8 {
        self.entries[index]
    }

    /// What the LUT holds.
    pub fn kind(&self) -> LutKind {
        self.kind
    }

    /// Total storage in bits (512 × 8 = 4096).
    pub const STORAGE_BITS: usize = LUT_ENTRIES * LUT_ENTRY_BITS;
}

impl Default for Lut {
    fn default() -> Self {
        Lut::new()
    }
}

impl fmt::Debug for Lut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Lut")
            .field("kind", &self.kind)
            .field(
                "nonzero_entries",
                &self.entries.iter().filter(|&&e| e != 0).count(),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_by_default() {
        let lut = Lut::new();
        assert_eq!(lut.kind(), LutKind::Empty);
        for i in 0..LUT_ENTRIES {
            assert_eq!(lut.entry(i), 0);
        }
    }

    #[test]
    fn from_fn_and_lookup() {
        let lut = Lut::from_fn(LutKind::Custom, |i| (i % 256) as u8);
        assert_eq!(lut.entry(10), 10);
        assert_eq!(lut.entry(300), 44);
        // lookup uses low 9 bits of the lane value.
        assert_eq!(lut.lookup(10), 10);
        assert_eq!(lut.lookup(512 + 10), 10);
        assert_eq!(lut.lookup(-1), lut.entry(511));
    }

    #[test]
    fn storage_matches_paper() {
        // "The LUT has 512 entries of 8-bit numbers."
        assert_eq!(Lut::STORAGE_BITS, 4096);
    }
}
