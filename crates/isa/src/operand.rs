//! Operand types: local addresses, global addresses, row masks, lane masks
//! and immediates.

use crate::{IsaError, ARRAY_ROWS, NUM_REGISTERS};
use std::fmt;

/// A local operand address inside one cluster: either a memory row of the
/// ReRAM array or a register in the cluster register file.
///
/// Encoded in 8 bits: the top bit selects memory (`0`) or register (`1`),
/// the low 7 bits hold the row / register number — exactly the `<src>` /
/// `<dst>` format of the paper's Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Addr {
    /// A row of the local ReRAM array.
    Mem(u8),
    /// A register in the cluster register file.
    Reg(u8),
}

impl Addr {
    /// Creates a memory-row address.
    ///
    /// # Panics
    /// Panics if `row >= ARRAY_ROWS`. Use [`Addr::try_mem`] for a fallible
    /// constructor.
    pub fn mem(row: usize) -> Self {
        Self::try_mem(row).expect("row index in range")
    }

    /// Creates a register address.
    ///
    /// # Panics
    /// Panics if `reg >= NUM_REGISTERS`. Use [`Addr::try_reg`] for a fallible
    /// constructor.
    pub fn reg(reg: usize) -> Self {
        Self::try_reg(reg).expect("register index in range")
    }

    /// Fallible memory-row constructor.
    ///
    /// # Errors
    /// Returns [`IsaError::RowOutOfRange`] if `row >= ARRAY_ROWS`.
    pub fn try_mem(row: usize) -> Result<Self, IsaError> {
        if row < ARRAY_ROWS {
            Ok(Addr::Mem(row as u8))
        } else {
            Err(IsaError::RowOutOfRange(row))
        }
    }

    /// Fallible register constructor.
    ///
    /// # Errors
    /// Returns [`IsaError::RegisterOutOfRange`] if `reg >= NUM_REGISTERS`.
    pub fn try_reg(reg: usize) -> Result<Self, IsaError> {
        if reg < NUM_REGISTERS {
            Ok(Addr::Reg(reg as u8))
        } else {
            Err(IsaError::RegisterOutOfRange(reg))
        }
    }

    /// Returns `true` if this address names a memory row.
    pub fn is_mem(self) -> bool {
        matches!(self, Addr::Mem(_))
    }

    /// Returns `true` if this address names a register.
    pub fn is_reg(self) -> bool {
        matches!(self, Addr::Reg(_))
    }

    /// The raw row / register number.
    pub fn index(self) -> usize {
        match self {
            Addr::Mem(row) => row as usize,
            Addr::Reg(reg) => reg as usize,
        }
    }

    /// Packs the address into its 8-bit wire format.
    pub fn to_byte(self) -> u8 {
        match self {
            Addr::Mem(row) => row & 0x7f,
            Addr::Reg(reg) => 0x80 | (reg & 0x7f),
        }
    }

    /// Unpacks an address from its 8-bit wire format.
    pub fn from_byte(byte: u8) -> Self {
        if byte & 0x80 != 0 {
            Addr::Reg(byte & 0x7f)
        } else {
            Addr::Mem(byte & 0x7f)
        }
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Addr::Mem(row) => write!(f, "m{row}"),
            Addr::Reg(reg) => write!(f, "r{reg}"),
        }
    }
}

/// A chip-global address: tile number, array number within the tile, and row
/// number within the array.
///
/// Encoded in 4 bytes as in the paper: 12-bit tile # + 6-bit array # +
/// 7-bit row # + reserved bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct GlobalAddr {
    /// Tile number (12 bits: 0..4096).
    pub tile: u16,
    /// Array number within the tile (6 bits: 0..64).
    pub array: u8,
    /// Row number within the array (7 bits: 0..128).
    pub row: u8,
}

impl GlobalAddr {
    /// Creates a global address.
    ///
    /// # Panics
    /// Panics if any field is out of its encoded range (tile ≥ 4096,
    /// array ≥ 64, row ≥ 128).
    pub fn new(tile: usize, array: usize, row: usize) -> Self {
        assert!(tile < 4096, "tile {tile} out of 12-bit range");
        assert!(array < 64, "array {array} out of 6-bit range");
        assert!(row < ARRAY_ROWS, "row {row} out of 7-bit range");
        GlobalAddr {
            tile: tile as u16,
            array: array as u8,
            row: row as u8,
        }
    }

    /// Packs into the 4-byte wire format.
    pub fn to_bytes(self) -> [u8; 4] {
        let word: u32 =
            ((self.tile as u32) << 20) | ((self.array as u32) << 14) | ((self.row as u32) << 7);
        word.to_le_bytes()
    }

    /// Unpacks from the 4-byte wire format.
    pub fn from_bytes(bytes: [u8; 4]) -> Self {
        let word = u32::from_le_bytes(bytes);
        GlobalAddr {
            tile: ((word >> 20) & 0xfff) as u16,
            array: ((word >> 14) & 0x3f) as u8,
            row: ((word >> 7) & 0x7f) as u8,
        }
    }
}

impl fmt::Display for GlobalAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g{}.{}.{}", self.tile, self.array, self.row)
    }
}

/// A 128-bit mask selecting rows of the array, used by the n-ary in-situ
/// instructions (`add`, `dot`, `sub`). Bit *i* selects row *i*.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct RowMask(u128);

impl RowMask {
    /// The empty mask (no rows selected).
    pub const EMPTY: RowMask = RowMask(0);

    /// Creates a mask from the raw 128-bit value.
    pub fn from_bits(bits: u128) -> Self {
        RowMask(bits)
    }

    /// Raw 128-bit value.
    pub fn bits(self) -> u128 {
        self.0
    }

    /// Creates a mask with the given rows set.
    ///
    /// # Panics
    /// Panics if any row is `>= ARRAY_ROWS`.
    pub fn from_rows<I: IntoIterator<Item = usize>>(rows: I) -> Self {
        let mut bits = 0u128;
        for row in rows {
            assert!(row < ARRAY_ROWS, "row {row} out of range");
            bits |= 1u128 << row;
        }
        RowMask(bits)
    }

    /// Returns `true` if row `row` is selected.
    pub fn contains(self, row: usize) -> bool {
        row < ARRAY_ROWS && (self.0 >> row) & 1 == 1
    }

    /// Number of selected rows.
    pub fn count(self) -> usize {
        self.0.count_ones() as usize
    }

    /// Returns `true` if no rows are selected.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Iterates over the selected row indices in ascending order.
    pub fn rows(self) -> impl Iterator<Item = usize> {
        let mut bits = self.0;
        std::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let row = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            Some(row)
        })
    }

    /// Packs into the 16-byte wire format.
    pub fn to_bytes(self) -> [u8; 16] {
        self.0.to_le_bytes()
    }

    /// Unpacks from the 16-byte wire format.
    pub fn from_bytes(bytes: [u8; 16]) -> Self {
        RowMask(u128::from_le_bytes(bytes))
    }
}

impl FromIterator<usize> for RowMask {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        RowMask::from_rows(iter)
    }
}

impl fmt::Display for RowMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        let mut first = true;
        for row in self.rows() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, "{row}")?;
            first = false;
        }
        write!(f, "}}")
    }
}

/// An 8-bit mask selecting SIMD lanes within a row, used by the selective
/// move (`movs`) to implement predicated execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct LaneMask(u8);

impl LaneMask {
    /// Mask selecting every lane.
    pub const ALL: LaneMask = LaneMask(0xff);
    /// Mask selecting no lanes.
    pub const NONE: LaneMask = LaneMask(0);
    /// Sentinel encoding for *dynamic* predication: a `movs` carrying this
    /// mask takes its per-lane write enables from the mask register
    /// ([`crate::MASK_REGISTER`]), which latches "lane is non-zero" bits
    /// whenever it is written. This is how the compiler lowers `Select`
    /// nodes — "the Condition variable is precomputed and used to generate
    /// the mask for the selective moves" (§3). A statically all-zero mask
    /// would make the `movs` a no-op, so the encoding is unambiguous.
    pub const DYNAMIC: LaneMask = LaneMask(0);

    /// Creates a lane mask from its raw 8-bit value.
    pub fn from_bits(bits: u8) -> Self {
        LaneMask(bits)
    }

    /// Raw 8-bit value.
    pub fn bits(self) -> u8 {
        self.0
    }

    /// Creates a mask with the given lanes set.
    ///
    /// # Panics
    /// Panics if any lane is `>= LANES`.
    pub fn from_lanes<I: IntoIterator<Item = usize>>(lanes: I) -> Self {
        let mut bits = 0u8;
        for lane in lanes {
            assert!(lane < crate::LANES, "lane {lane} out of range");
            bits |= 1 << lane;
        }
        LaneMask(bits)
    }

    /// Returns `true` if lane `lane` is selected.
    pub fn contains(self, lane: usize) -> bool {
        lane < crate::LANES && (self.0 >> lane) & 1 == 1
    }

    /// Number of selected lanes.
    pub fn count(self) -> usize {
        self.0.count_ones() as usize
    }
}

impl fmt::Display for LaneMask {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{:#04x}", self.0)
    }
}

/// A 16-byte immediate field.
///
/// `movi` broadcasts a 32-bit scalar to all SIMD lanes of the destination
/// row; `shift`/`mask` use small scalar immediates. The wire format always
/// reserves 16 bytes as in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Imm([u8; 16]);

impl Imm {
    /// Creates an immediate that broadcasts a 32-bit word to every lane.
    pub fn broadcast(word: i32) -> Self {
        let mut bytes = [0u8; 16];
        bytes[..4].copy_from_slice(&word.to_le_bytes());
        bytes[4] = 1; // broadcast marker
        Imm(bytes)
    }

    /// Creates a small scalar immediate (shift amounts, AND masks).
    pub fn scalar(value: u32) -> Self {
        let mut bytes = [0u8; 16];
        bytes[..4].copy_from_slice(&value.to_le_bytes());
        Imm(bytes)
    }

    /// Reads the immediate as a 32-bit signed word (lanes 0..4 bytes).
    pub fn as_i32(self) -> i32 {
        i32::from_le_bytes([self.0[0], self.0[1], self.0[2], self.0[3]])
    }

    /// Raw 16-byte wire format.
    pub fn to_bytes(self) -> [u8; 16] {
        self.0
    }

    /// Unpacks from the 16-byte wire format.
    pub fn from_bytes(bytes: [u8; 16]) -> Self {
        Imm(bytes)
    }
}

impl From<i32> for Imm {
    fn from(word: i32) -> Self {
        Imm::broadcast(word)
    }
}

impl fmt::Display for Imm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.as_i32())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn addr_roundtrip() {
        for row in 0..ARRAY_ROWS {
            let addr = Addr::mem(row);
            assert_eq!(Addr::from_byte(addr.to_byte()), addr);
            assert!(addr.is_mem());
            assert_eq!(addr.index(), row);
        }
        for reg in 0..NUM_REGISTERS {
            let addr = Addr::reg(reg);
            assert_eq!(Addr::from_byte(addr.to_byte()), addr);
            assert!(addr.is_reg());
            assert_eq!(addr.index(), reg);
        }
    }

    #[test]
    fn addr_out_of_range() {
        assert_eq!(Addr::try_mem(128), Err(IsaError::RowOutOfRange(128)));
        assert_eq!(Addr::try_reg(128), Err(IsaError::RegisterOutOfRange(128)));
    }

    #[test]
    fn global_addr_roundtrip() {
        let addr = GlobalAddr::new(4095, 63, 127);
        assert_eq!(GlobalAddr::from_bytes(addr.to_bytes()), addr);
        let addr = GlobalAddr::new(0, 0, 0);
        assert_eq!(GlobalAddr::from_bytes(addr.to_bytes()), addr);
        let addr = GlobalAddr::new(1234, 17, 42);
        assert_eq!(GlobalAddr::from_bytes(addr.to_bytes()), addr);
    }

    #[test]
    #[should_panic(expected = "tile")]
    fn global_addr_tile_range() {
        let _ = GlobalAddr::new(4096, 0, 0);
    }

    #[test]
    fn row_mask_ops() {
        let mask = RowMask::from_rows([0, 5, 127]);
        assert!(mask.contains(0));
        assert!(mask.contains(5));
        assert!(mask.contains(127));
        assert!(!mask.contains(1));
        assert_eq!(mask.count(), 3);
        assert_eq!(mask.rows().collect::<Vec<_>>(), vec![0, 5, 127]);
        assert_eq!(RowMask::from_bytes(mask.to_bytes()), mask);
        assert!(RowMask::EMPTY.is_empty());
    }

    /// The row order the bit-scan iterator must reproduce.
    fn rows_by_bit_test(bits: u128) -> Vec<usize> {
        (0..ARRAY_ROWS)
            .filter(|row| (bits >> row) & 1 == 1)
            .collect()
    }

    #[test]
    fn row_mask_rows_edge_masks() {
        for bits in [0, u128::MAX, 1 << 127, 1, (1 << 127) | 1] {
            let rows: Vec<usize> = RowMask::from_bits(bits).rows().collect();
            assert_eq!(rows, rows_by_bit_test(bits), "mask {bits:#x}");
        }
    }

    proptest! {
        #[test]
        fn row_mask_rows_match_bit_test(bits in any::<u128>(), sparsify in any::<u128>()) {
            for mask in [bits, bits & sparsify, bits & sparsify & (sparsify >> 7)] {
                let rows: Vec<usize> = RowMask::from_bits(mask).rows().collect();
                prop_assert_eq!(rows, rows_by_bit_test(mask));
            }
        }
    }

    #[test]
    fn row_mask_collect() {
        let mask: RowMask = (0..8).collect();
        assert_eq!(mask.count(), 8);
    }

    #[test]
    fn lane_mask_ops() {
        let mask = LaneMask::from_lanes([0, 7]);
        assert!(mask.contains(0));
        assert!(mask.contains(7));
        assert!(!mask.contains(3));
        assert_eq!(mask.count(), 2);
        assert_eq!(LaneMask::ALL.count(), crate::LANES);
    }

    #[test]
    fn imm_roundtrip() {
        let imm = Imm::broadcast(-123456);
        assert_eq!(imm.as_i32(), -123456);
        assert_eq!(Imm::from_bytes(imm.to_bytes()), imm);
        assert_eq!(Imm::scalar(31).as_i32(), 31);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Addr::mem(3).to_string(), "m3");
        assert_eq!(Addr::reg(7).to_string(), "r7");
        assert_eq!(GlobalAddr::new(1, 2, 3).to_string(), "g1.2.3");
        assert_eq!(RowMask::from_rows([1, 2]).to_string(), "{1,2}");
        assert_eq!(Imm::broadcast(5).to_string(), "#5");
    }
}
