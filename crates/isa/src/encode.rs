//! Binary encoding and decoding of instructions.
//!
//! Layout: 1 opcode byte followed by the operand fields in the order of
//! Table 1. Masks are 16 bytes, local addresses 1 byte, global addresses
//! 4 bytes, immediates 16 bytes. The longest instructions (`dot`, `sub`)
//! are exactly [`Instruction::MAX_ENCODED_LEN`] = 34 bytes.

use crate::{Addr, GlobalAddr, Imm, Instruction, IsaError, LaneMask, Opcode, RowMask};

impl Instruction {
    /// Encodes the instruction into its binary wire format.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::MAX_ENCODED_LEN);
        out.push(self.opcode() as u8);
        match *self {
            Instruction::Add { mask, dst } => {
                out.extend_from_slice(&mask.to_bytes());
                out.push(dst.to_byte());
            }
            Instruction::Dot {
                mask,
                reg_mask,
                dst,
            } => {
                out.extend_from_slice(&mask.to_bytes());
                out.extend_from_slice(&reg_mask.to_bytes());
                out.push(dst.to_byte());
            }
            Instruction::Mul { a, b, dst } => {
                out.push(a.to_byte());
                out.push(b.to_byte());
                out.push(dst.to_byte());
            }
            Instruction::Sub {
                minuend,
                subtrahend,
                dst,
            } => {
                out.extend_from_slice(&minuend.to_bytes());
                out.extend_from_slice(&subtrahend.to_bytes());
                out.push(dst.to_byte());
            }
            Instruction::ShiftL { src, dst, amount } | Instruction::ShiftR { src, dst, amount } => {
                out.push(src.to_byte());
                out.push(dst.to_byte());
                out.push(amount);
            }
            Instruction::Mask { src, dst, imm } => {
                out.push(src.to_byte());
                out.push(dst.to_byte());
                out.extend_from_slice(&imm.to_le_bytes());
            }
            Instruction::Mov { src, dst } => {
                out.push(src.to_byte());
                out.push(dst.to_byte());
            }
            Instruction::Movs {
                src,
                dst,
                lane_mask,
            } => {
                out.push(src.to_byte());
                out.push(dst.to_byte());
                out.push(lane_mask.bits());
            }
            Instruction::Movi { dst, imm } => {
                out.push(dst.to_byte());
                out.extend_from_slice(&imm.to_bytes());
            }
            Instruction::Movg { src, dst } => {
                out.extend_from_slice(&src.to_bytes());
                out.extend_from_slice(&dst.to_bytes());
            }
            Instruction::Lut { src, dst } => {
                out.push(src.to_byte());
                out.push(dst.to_byte());
            }
            Instruction::ReduceSum { src, dst } => {
                out.push(src.to_byte());
                out.extend_from_slice(&dst.to_bytes());
            }
        }
        debug_assert!(out.len() <= Self::MAX_ENCODED_LEN);
        out
    }

    /// Decodes one instruction from the front of `bytes`.
    ///
    /// Returns the instruction and the number of bytes consumed, so streams
    /// of concatenated instructions can be decoded in sequence.
    ///
    /// # Errors
    /// Returns [`IsaError::UnknownOpcode`] for an unassigned opcode byte,
    /// [`IsaError::TruncatedInstruction`] if `bytes` is too short, and
    /// [`Instruction::check_immediates`]' error for an illegal immediate.
    pub fn decode(bytes: &[u8]) -> Result<(Instruction, usize), IsaError> {
        let mut cursor = Cursor { bytes, pos: 0 };
        let opcode = Opcode::from_byte(cursor.u8()?)?;
        let inst = match opcode {
            Opcode::Add => Instruction::Add {
                mask: cursor.row_mask()?,
                dst: cursor.addr()?,
            },
            Opcode::Dot => Instruction::Dot {
                mask: cursor.row_mask()?,
                reg_mask: cursor.row_mask()?,
                dst: cursor.addr()?,
            },
            Opcode::Mul => Instruction::Mul {
                a: cursor.addr()?,
                b: cursor.addr()?,
                dst: cursor.addr()?,
            },
            Opcode::Sub => Instruction::Sub {
                minuend: cursor.row_mask()?,
                subtrahend: cursor.row_mask()?,
                dst: cursor.addr()?,
            },
            Opcode::ShiftL => Instruction::ShiftL {
                src: cursor.addr()?,
                dst: cursor.addr()?,
                amount: cursor.u8()?,
            },
            Opcode::ShiftR => Instruction::ShiftR {
                src: cursor.addr()?,
                dst: cursor.addr()?,
                amount: cursor.u8()?,
            },
            Opcode::Mask => Instruction::Mask {
                src: cursor.addr()?,
                dst: cursor.addr()?,
                imm: cursor.u32()?,
            },
            Opcode::Mov => Instruction::Mov {
                src: cursor.addr()?,
                dst: cursor.addr()?,
            },
            Opcode::Movs => Instruction::Movs {
                src: cursor.addr()?,
                dst: cursor.addr()?,
                lane_mask: LaneMask::from_bits(cursor.u8()?),
            },
            Opcode::Movi => Instruction::Movi {
                dst: cursor.addr()?,
                imm: cursor.imm()?,
            },
            Opcode::Movg => Instruction::Movg {
                src: cursor.global_addr()?,
                dst: cursor.global_addr()?,
            },
            Opcode::Lut => Instruction::Lut {
                src: cursor.addr()?,
                dst: cursor.addr()?,
            },
            Opcode::ReduceSum => Instruction::ReduceSum {
                src: cursor.addr()?,
                dst: cursor.global_addr()?,
            },
        };
        inst.check_immediates()?;
        Ok((inst, cursor.pos))
    }

    /// Decodes a stream of concatenated instructions.
    ///
    /// # Errors
    /// Propagates the first decode failure, identifying the byte offset via
    /// the truncation/opcode error variants.
    pub fn decode_stream(mut bytes: &[u8]) -> Result<Vec<Instruction>, IsaError> {
        let mut out = Vec::new();
        while !bytes.is_empty() {
            let (inst, used) = Instruction::decode(bytes)?;
            out.push(inst);
            bytes = &bytes[used..];
        }
        Ok(out)
    }
}

struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], IsaError> {
        if self.pos + n > self.bytes.len() {
            return Err(IsaError::TruncatedInstruction {
                available: self.bytes.len(),
                needed: self.pos + n,
            });
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, IsaError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, IsaError> {
        let bytes = self.take(4)?;
        Ok(u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]))
    }

    fn addr(&mut self) -> Result<Addr, IsaError> {
        Ok(Addr::from_byte(self.u8()?))
    }

    fn row_mask(&mut self) -> Result<RowMask, IsaError> {
        let bytes = self.take(16)?;
        let mut buf = [0u8; 16];
        buf.copy_from_slice(bytes);
        Ok(RowMask::from_bytes(buf))
    }

    fn imm(&mut self) -> Result<Imm, IsaError> {
        let bytes = self.take(16)?;
        let mut buf = [0u8; 16];
        buf.copy_from_slice(bytes);
        Ok(Imm::from_bytes(buf))
    }

    fn global_addr(&mut self) -> Result<GlobalAddr, IsaError> {
        let bytes = self.take(4)?;
        Ok(GlobalAddr::from_bytes([
            bytes[0], bytes[1], bytes[2], bytes[3],
        ]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_variants() -> Vec<Instruction> {
        vec![
            Instruction::Add {
                mask: RowMask::from_rows([0, 64, 127]),
                dst: Addr::reg(5),
            },
            Instruction::Dot {
                mask: RowMask::from_rows([1, 2, 3]),
                reg_mask: RowMask::from_rows([0, 1, 2]),
                dst: Addr::mem(100),
            },
            Instruction::Mul {
                a: Addr::mem(10),
                b: Addr::reg(3),
                dst: Addr::mem(11),
            },
            Instruction::Sub {
                minuend: RowMask::from_rows([0]),
                subtrahend: RowMask::from_rows([1]),
                dst: Addr::mem(2),
            },
            Instruction::ShiftL {
                src: Addr::mem(0),
                dst: Addr::mem(1),
                amount: 16,
            },
            Instruction::ShiftR {
                src: Addr::reg(0),
                dst: Addr::reg(1),
                amount: 31,
            },
            Instruction::Mask {
                src: Addr::mem(9),
                dst: Addr::mem(9),
                imm: 0xdead_beef,
            },
            Instruction::Mov {
                src: Addr::mem(5),
                dst: Addr::reg(6),
            },
            Instruction::Movs {
                src: Addr::mem(1),
                dst: Addr::mem(2),
                lane_mask: LaneMask::from_bits(0b1010_0101),
            },
            Instruction::Movi {
                dst: Addr::mem(3),
                imm: Imm::broadcast(-7),
            },
            Instruction::Movg {
                src: GlobalAddr::new(4095, 63, 127),
                dst: GlobalAddr::new(0, 0, 0),
            },
            Instruction::Lut {
                src: Addr::mem(4),
                dst: Addr::mem(5),
            },
            Instruction::ReduceSum {
                src: Addr::mem(7),
                dst: GlobalAddr::new(17, 3, 99),
            },
        ]
    }

    #[test]
    fn roundtrip_all_variants() {
        for inst in all_variants() {
            let bytes = inst.encode();
            assert!(
                bytes.len() <= Instruction::MAX_ENCODED_LEN,
                "{inst} too long"
            );
            let (decoded, used) = Instruction::decode(&bytes).unwrap();
            assert_eq!(decoded, inst);
            assert_eq!(used, bytes.len());
        }
    }

    #[test]
    fn dot_and_sub_are_exactly_34_bytes() {
        let dot = Instruction::Dot {
            mask: RowMask::EMPTY,
            reg_mask: RowMask::EMPTY,
            dst: Addr::mem(0),
        };
        assert_eq!(dot.encode().len(), 34);
        let sub = Instruction::Sub {
            minuend: RowMask::EMPTY,
            subtrahend: RowMask::EMPTY,
            dst: Addr::mem(0),
        };
        assert_eq!(sub.encode().len(), 34);
    }

    #[test]
    fn stream_roundtrip() {
        let insts = all_variants();
        let mut bytes = Vec::new();
        for inst in &insts {
            bytes.extend(inst.encode());
        }
        let decoded = Instruction::decode_stream(&bytes).unwrap();
        assert_eq!(decoded, insts);
    }

    #[test]
    fn truncated_fails() {
        let inst = Instruction::Add {
            mask: RowMask::from_rows([0]),
            dst: Addr::mem(1),
        };
        let bytes = inst.encode();
        for cut in 0..bytes.len() {
            let result = Instruction::decode(&bytes[..cut]);
            assert!(result.is_err(), "decode of {cut}-byte prefix should fail");
        }
    }

    #[test]
    fn shift_of_a_word_or_more_fails() {
        for amount in [32u8, 33, 255] {
            for inst in [
                Instruction::ShiftL {
                    src: Addr::mem(0),
                    dst: Addr::mem(1),
                    amount,
                },
                Instruction::ShiftR {
                    src: Addr::reg(0),
                    dst: Addr::mem(1),
                    amount,
                },
            ] {
                assert_eq!(
                    Instruction::decode(&inst.encode()),
                    Err(IsaError::ShiftTooLarge(amount))
                );
                assert_eq!(
                    inst.check_immediates(),
                    Err(IsaError::ShiftTooLarge(amount))
                );
            }
        }
    }

    #[test]
    fn unknown_opcode_fails() {
        assert!(matches!(
            Instruction::decode(&[0x7f]),
            Err(IsaError::UnknownOpcode(0x7f))
        ));
    }
}
