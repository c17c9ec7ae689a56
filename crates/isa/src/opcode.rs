//! Opcode enumeration and per-opcode metadata.

use crate::IsaError;
use std::fmt;
use std::str::FromStr;

/// The 13 opcodes of the in-memory compute ISA (Table 1 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum Opcode {
    /// n-ary in-situ addition over masked rows.
    Add = 0x01,
    /// n-ary in-situ dot product (rows × streamed register multiplicands).
    Dot = 0x02,
    /// element-wise in-situ multiplication of two rows.
    Mul = 0x03,
    /// element-wise in-situ subtraction (minuend rows − subtrahend rows).
    Sub = 0x04,
    /// logical left shift of each element (digital S+A periphery).
    ShiftL = 0x05,
    /// logical right shift of each element (digital S+A periphery).
    ShiftR = 0x06,
    /// bitwise AND of each element with an immediate.
    Mask = 0x07,
    /// local move between rows / registers.
    Mov = 0x08,
    /// selective (lane-predicated) local move.
    Movs = 0x09,
    /// store an immediate to a row / register.
    Movi = 0x0a,
    /// global move between arrays across the chip network.
    Movg = 0x0b,
    /// look-up-table read: value at `src` indexes the LUT, result to `dst`.
    Lut = 0x0c,
    /// cross-array reduction via the H-tree adder network.
    ReduceSum = 0x0d,
}

impl Opcode {
    /// All opcodes, in encoding order.
    pub const ALL: [Opcode; 13] = [
        Opcode::Add,
        Opcode::Dot,
        Opcode::Mul,
        Opcode::Sub,
        Opcode::ShiftL,
        Opcode::ShiftR,
        Opcode::Mask,
        Opcode::Mov,
        Opcode::Movs,
        Opcode::Movi,
        Opcode::Movg,
        Opcode::Lut,
        Opcode::ReduceSum,
    ];

    /// The assembler mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            Opcode::Add => "add",
            Opcode::Dot => "dot",
            Opcode::Mul => "mul",
            Opcode::Sub => "sub",
            Opcode::ShiftL => "shiftl",
            Opcode::ShiftR => "shiftr",
            Opcode::Mask => "mask",
            Opcode::Mov => "mov",
            Opcode::Movs => "movs",
            Opcode::Movi => "movi",
            Opcode::Movg => "movg",
            Opcode::Lut => "lut",
            Opcode::ReduceSum => "reduce_sum",
        }
    }

    /// Decodes an opcode from its wire byte.
    ///
    /// # Errors
    /// Returns [`IsaError::UnknownOpcode`] for bytes with no assigned opcode.
    pub fn from_byte(byte: u8) -> Result<Self, IsaError> {
        Opcode::ALL
            .iter()
            .copied()
            .find(|op| *op as u8 == byte)
            .ok_or(IsaError::UnknownOpcode(byte))
    }

    /// Returns `true` for opcodes whose latency depends on network state
    /// (`movg`, `reduce_sum`).
    pub fn has_variable_latency(self) -> bool {
        matches!(self, Opcode::Movg | Opcode::ReduceSum)
    }
}

impl fmt::Display for Opcode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

impl FromStr for Opcode {
    type Err = IsaError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        Opcode::ALL
            .iter()
            .copied()
            .find(|op| op.mnemonic() == s)
            .ok_or_else(|| IsaError::Parse {
                line: 0,
                message: format!("unknown mnemonic `{s}`"),
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_roundtrip() {
        for op in Opcode::ALL {
            assert_eq!(Opcode::from_byte(op as u8).unwrap(), op);
        }
    }

    #[test]
    fn unknown_byte() {
        assert_eq!(Opcode::from_byte(0x00), Err(IsaError::UnknownOpcode(0x00)));
        assert_eq!(Opcode::from_byte(0xff), Err(IsaError::UnknownOpcode(0xff)));
    }

    #[test]
    fn mnemonic_roundtrip() {
        for op in Opcode::ALL {
            assert_eq!(op.mnemonic().parse::<Opcode>().unwrap(), op);
        }
        assert!("bogus".parse::<Opcode>().is_err());
    }

    #[test]
    fn thirteen_instructions() {
        // The paper's headline: "The ISA consists of 13 instructions".
        assert_eq!(Opcode::ALL.len(), 13);
    }

    #[test]
    fn classification() {
        assert!(Opcode::Movg.has_variable_latency());
        assert!(Opcode::ReduceSum.has_variable_latency());
        assert!(!Opcode::Add.has_variable_latency());
    }
}
