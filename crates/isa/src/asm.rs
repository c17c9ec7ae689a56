//! Text assembler and disassembler.
//!
//! The text format is the one produced by [`Instruction`]'s `Display` impl:
//! one instruction per line, `;`-prefixed comments, operands separated by
//! spaces. Addresses are `m<row>` / `r<reg>`, global addresses
//! `g<tile>.<array>.<row>`, row masks `{1,2,3}`, lane masks `%0xff`,
//! immediates `#value`.
//!
//! ```
//! use imp_isa::{assemble, disassemble};
//!
//! let block = assemble("demo", "movi m0 #5\nmovi m1 #7\nadd {0,1} m2\n").unwrap();
//! assert_eq!(block.len(), 3);
//! let text = disassemble(&block);
//! assert!(text.contains("add {0,1} m2"));
//! ```

use crate::{
    Addr, GlobalAddr, Imm, Instruction, InstructionBlock, IsaError, LaneMask, Opcode, RowMask,
};

/// Assembles a text listing into an [`InstructionBlock`].
///
/// # Errors
/// Returns [`IsaError::Parse`] with a 1-based line number when a line cannot
/// be parsed.
pub fn assemble(name: impl Into<String>, text: &str) -> Result<InstructionBlock, IsaError> {
    let mut block = InstructionBlock::new(name);
    for (idx, raw_line) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw_line.split(';').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let inst = parse_line(line).and_then(|inst| {
            inst.check_immediates()
                .map(|()| inst)
                .map_err(|e| e.to_string())
        });
        block.push(inst.map_err(|message| IsaError::Parse {
            line: line_no,
            message,
        })?);
    }
    Ok(block)
}

/// Renders a block back to assembler text.
pub fn disassemble(block: &InstructionBlock) -> String {
    block.to_string()
}

fn parse_line(line: &str) -> Result<Instruction, String> {
    let mut parts = line.split_whitespace();
    let mnemonic = parts.next().ok_or("empty line")?;
    let opcode: Opcode = mnemonic
        .parse()
        .map_err(|_| format!("unknown mnemonic `{mnemonic}`"))?;
    let operands: Vec<&str> = parts.collect();
    let expect = |n: usize| -> Result<(), String> {
        if operands.len() == n {
            Ok(())
        } else {
            Err(format!(
                "{mnemonic} expects {n} operands, got {}",
                operands.len()
            ))
        }
    };
    match opcode {
        Opcode::Add => {
            expect(2)?;
            Ok(Instruction::Add {
                mask: parse_row_mask(operands[0])?,
                dst: parse_addr(operands[1])?,
            })
        }
        Opcode::Dot => {
            expect(3)?;
            Ok(Instruction::Dot {
                mask: parse_row_mask(operands[0])?,
                reg_mask: parse_row_mask(operands[1])?,
                dst: parse_addr(operands[2])?,
            })
        }
        Opcode::Mul => {
            expect(3)?;
            Ok(Instruction::Mul {
                a: parse_addr(operands[0])?,
                b: parse_addr(operands[1])?,
                dst: parse_addr(operands[2])?,
            })
        }
        Opcode::Sub => {
            expect(3)?;
            Ok(Instruction::Sub {
                minuend: parse_row_mask(operands[0])?,
                subtrahend: parse_row_mask(operands[1])?,
                dst: parse_addr(operands[2])?,
            })
        }
        Opcode::ShiftL | Opcode::ShiftR => {
            expect(3)?;
            let src = parse_addr(operands[0])?;
            let dst = parse_addr(operands[1])?;
            let amount = parse_imm_u32(operands[2])?;
            let amount = u8::try_from(amount)
                .map_err(|_| format!("shift amount {amount} exceeds word width 32"))?;
            Ok(if opcode == Opcode::ShiftL {
                Instruction::ShiftL { src, dst, amount }
            } else {
                Instruction::ShiftR { src, dst, amount }
            })
        }
        Opcode::Mask => {
            expect(3)?;
            Ok(Instruction::Mask {
                src: parse_addr(operands[0])?,
                dst: parse_addr(operands[1])?,
                imm: parse_imm_u32(operands[2])?,
            })
        }
        Opcode::Mov => {
            expect(2)?;
            Ok(Instruction::Mov {
                src: parse_addr(operands[0])?,
                dst: parse_addr(operands[1])?,
            })
        }
        Opcode::Movs => {
            expect(3)?;
            Ok(Instruction::Movs {
                src: parse_addr(operands[0])?,
                dst: parse_addr(operands[1])?,
                lane_mask: parse_lane_mask(operands[2])?,
            })
        }
        Opcode::Movi => {
            expect(2)?;
            Ok(Instruction::Movi {
                dst: parse_addr(operands[0])?,
                imm: Imm::broadcast(parse_imm_i32(operands[1])?),
            })
        }
        Opcode::Movg => {
            expect(2)?;
            Ok(Instruction::Movg {
                src: parse_global(operands[0])?,
                dst: parse_global(operands[1])?,
            })
        }
        Opcode::Lut => {
            expect(2)?;
            Ok(Instruction::Lut {
                src: parse_addr(operands[0])?,
                dst: parse_addr(operands[1])?,
            })
        }
        Opcode::ReduceSum => {
            expect(2)?;
            Ok(Instruction::ReduceSum {
                src: parse_addr(operands[0])?,
                dst: parse_global(operands[1])?,
            })
        }
    }
}

fn parse_addr(token: &str) -> Result<Addr, String> {
    let (kind, rest) = token.split_at(1);
    let index: usize = rest.parse().map_err(|_| format!("bad address `{token}`"))?;
    match kind {
        "m" => Addr::try_mem(index).map_err(|e| e.to_string()),
        "r" => Addr::try_reg(index).map_err(|e| e.to_string()),
        _ => Err(format!("bad address `{token}`: expected m<row> or r<reg>")),
    }
}

fn parse_global(token: &str) -> Result<GlobalAddr, String> {
    let rest = token
        .strip_prefix('g')
        .ok_or_else(|| format!("bad global address `{token}`"))?;
    let fields: Vec<&str> = rest.split('.').collect();
    if fields.len() != 3 {
        return Err(format!(
            "bad global address `{token}`: expected g<tile>.<array>.<row>"
        ));
    }
    let parse = |s: &str| {
        s.parse::<usize>()
            .map_err(|_| format!("bad global address `{token}`"))
    };
    let (tile, array, row) = (parse(fields[0])?, parse(fields[1])?, parse(fields[2])?);
    if tile >= 4096 || array >= 64 || row >= crate::ARRAY_ROWS {
        return Err(format!("global address `{token}` field out of range"));
    }
    Ok(GlobalAddr::new(tile, array, row))
}

fn parse_row_mask(token: &str) -> Result<RowMask, String> {
    let inner = token
        .strip_prefix('{')
        .and_then(|s| s.strip_suffix('}'))
        .ok_or_else(|| format!("bad row mask `{token}`"))?;
    if inner.is_empty() {
        return Ok(RowMask::EMPTY);
    }
    let mut rows = Vec::new();
    for part in inner.split(',') {
        let row: usize = part
            .trim()
            .parse()
            .map_err(|_| format!("bad row mask `{token}`"))?;
        if row >= crate::ARRAY_ROWS {
            return Err(format!("row {row} out of range in mask `{token}`"));
        }
        rows.push(row);
    }
    Ok(RowMask::from_rows(rows))
}

fn parse_lane_mask(token: &str) -> Result<LaneMask, String> {
    let rest = token
        .strip_prefix('%')
        .ok_or_else(|| format!("bad lane mask `{token}`"))?;
    let bits = parse_u32_literal(rest).ok_or_else(|| format!("bad lane mask `{token}`"))?;
    if bits > 0xff {
        return Err(format!("lane mask `{token}` exceeds 8 bits"));
    }
    Ok(LaneMask::from_bits(bits as u8))
}

fn parse_imm_i32(token: &str) -> Result<i32, String> {
    let rest = token
        .strip_prefix('#')
        .ok_or_else(|| format!("bad immediate `{token}`"))?;
    rest.parse::<i32>()
        .map_err(|_| format!("bad immediate `{token}`"))
}

fn parse_imm_u32(token: &str) -> Result<u32, String> {
    let rest = token
        .strip_prefix('#')
        .ok_or_else(|| format!("bad immediate `{token}`"))?;
    parse_u32_literal(rest).ok_or_else(|| format!("bad immediate `{token}`"))
}

fn parse_u32_literal(s: &str) -> Option<u32> {
    if let Some(hex) = s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        u32::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn assemble_simple_program() {
        let text = "
            ; compute (a + b) * a
            movi m0 #3
            movi m1 #4
            add {0,1} m2
            mul m2 m0 m3
        ";
        let block = assemble("t", text).unwrap();
        assert_eq!(block.len(), 4);
        assert_eq!(
            block.instructions()[2],
            Instruction::Add {
                mask: RowMask::from_rows([0, 1]),
                dst: Addr::mem(2)
            }
        );
    }

    #[test]
    fn roundtrip_through_text() {
        let text = "
            movi m0 #3
            dot {0,1} {0,1} m2
            sub {2} {0} m4
            shiftl m4 m5 #2
            shiftr m5 m6 #1
            mask m6 m7 #0xff00
            mov m7 r1
            movs r1 m8 %0x0f
            movg g0.0.8 g1.2.3
            lut m8 m9
            reduce_sum m9 g0.0.10
        ";
        let block = assemble("t", text).unwrap();
        let text2 = disassemble(&block);
        let block2 = assemble("t", &text2).unwrap();
        assert_eq!(block, block2);
    }

    #[test]
    fn parse_errors_carry_line_numbers() {
        let err = assemble("t", "movi m0 #1\nbogus m0 m1\n").unwrap_err();
        match err {
            IsaError::Parse { line, message } => {
                assert_eq!(line, 2);
                assert!(message.contains("bogus"));
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn operand_count_checked() {
        assert!(assemble("t", "add {0}").is_err());
        assert!(assemble("t", "mov m0 m1 m2").is_err());
    }

    #[test]
    fn range_errors() {
        assert!(assemble("t", "mov m128 m0").is_err());
        assert!(assemble("t", "add {200} m0").is_err());
        assert!(assemble("t", "shiftl m0 m1 #32").is_err());
        // An amount past a byte must not wrap into range (256 → 0).
        assert!(assemble("t", "shiftr m0 m1 #256").is_err());
        assert!(assemble("t", "shiftl m0 m1 #287").is_err());
        assert!(assemble("t", "shiftl m0 m1 #31").is_ok());
        assert!(assemble("t", "movs m0 m1 %0x100").is_err());
        assert!(assemble("t", "movg g5000.0.0 g0.0.0").is_err());
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let block = assemble("t", "\n; nothing\n   \nmovi m0 #1 ; trailing\n").unwrap();
        assert_eq!(block.len(), 1);
    }
}
