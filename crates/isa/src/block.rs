//! Instruction blocks: the unit of sequential execution.
//!
//! An instruction block (IB) is a straight-line sequence of instructions
//! executed in order by one SIMD lane group. Modules (see `imp-compiler`)
//! are collections of IBs; at runtime every instance of a module executes
//! the same IBs in lock-step on different data.

use crate::{Instruction, IsaError};
use std::fmt;

/// A straight-line sequence of ISA instructions.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct InstructionBlock {
    name: String,
    instructions: Vec<Instruction>,
}

impl InstructionBlock {
    /// Creates an empty block with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        InstructionBlock {
            name: name.into(),
            instructions: Vec::new(),
        }
    }

    /// Creates a block from a list of instructions.
    pub fn from_instructions(name: impl Into<String>, instructions: Vec<Instruction>) -> Self {
        InstructionBlock {
            name: name.into(),
            instructions,
        }
    }

    /// The block's name (used in diagnostics and scheduling traces).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends one instruction.
    pub fn push(&mut self, inst: Instruction) {
        self.instructions.push(inst);
    }

    /// The instructions in execution order.
    pub fn instructions(&self) -> &[Instruction] {
        &self.instructions
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// Returns `true` if the block holds no instructions.
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    /// Iterates over the instructions.
    pub fn iter(&self) -> std::slice::Iter<'_, Instruction> {
        self.instructions.iter()
    }

    /// Encodes the whole block as a concatenated byte stream.
    pub fn encode(&self) -> Vec<u8> {
        let mut bytes = Vec::new();
        for inst in &self.instructions {
            bytes.extend(inst.encode());
        }
        bytes
    }

    /// Decodes a block from a concatenated byte stream.
    ///
    /// # Errors
    /// Propagates decode errors from [`Instruction::decode_stream`].
    pub fn decode(name: impl Into<String>, bytes: &[u8]) -> Result<Self, IsaError> {
        Ok(InstructionBlock {
            name: name.into(),
            instructions: Instruction::decode_stream(bytes)?,
        })
    }
}

impl FromIterator<Instruction> for InstructionBlock {
    fn from_iter<I: IntoIterator<Item = Instruction>>(iter: I) -> Self {
        InstructionBlock {
            name: String::new(),
            instructions: iter.into_iter().collect(),
        }
    }
}

impl Extend<Instruction> for InstructionBlock {
    fn extend<I: IntoIterator<Item = Instruction>>(&mut self, iter: I) {
        self.instructions.extend(iter);
    }
}

impl<'a> IntoIterator for &'a InstructionBlock {
    type Item = &'a Instruction;
    type IntoIter = std::slice::Iter<'a, Instruction>;

    fn into_iter(self) -> Self::IntoIter {
        self.instructions.iter()
    }
}

impl fmt::Display for InstructionBlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "; block {} ({} instructions)", self.name, self.len())?;
        for inst in &self.instructions {
            writeln!(f, "{inst}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Addr, Imm, RowMask};

    fn sample() -> InstructionBlock {
        InstructionBlock::from_instructions(
            "b0",
            vec![
                Instruction::Movi {
                    dst: Addr::mem(0),
                    imm: Imm::broadcast(1),
                },
                Instruction::Movi {
                    dst: Addr::mem(1),
                    imm: Imm::broadcast(2),
                },
                Instruction::Add {
                    mask: RowMask::from_rows([0, 1]),
                    dst: Addr::mem(2),
                },
                Instruction::Mul {
                    a: Addr::mem(2),
                    b: Addr::mem(2),
                    dst: Addr::mem(3),
                },
            ],
        )
    }

    #[test]
    fn encode_decode_roundtrip() {
        let block = sample();
        let decoded = InstructionBlock::decode("b0", &block.encode()).unwrap();
        assert_eq!(decoded, block);
    }

    #[test]
    fn display_lists_instructions() {
        let text = sample().to_string();
        assert!(text.contains("block b0"));
        assert!(text.contains("add"));
        assert_eq!(text.lines().count(), 5);
    }

    #[test]
    fn collect_and_extend() {
        let insts = sample().instructions().to_vec();
        let block: InstructionBlock = insts.iter().copied().collect();
        assert_eq!(block.len(), 4);
        let mut block2 = InstructionBlock::new("x");
        block2.extend(insts);
        assert_eq!(block2.len(), 4);
        assert!(!block2.is_empty());
    }
}
