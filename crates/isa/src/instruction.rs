//! Typed instructions and their latencies (Table 1 of the paper).

use crate::{Addr, GlobalAddr, Imm, IsaError, LaneMask, Opcode, RowMask};
use std::fmt;

/// Latency of an instruction in array clock cycles.
///
/// The in-array pipeline is XB → ADC → S+A, one cycle each; `mul`/`dot`
/// stream the 32-bit multiplicand 2 bits per cycle through that pipeline
/// (16 chunks + 2 drain = 18 cycles). Network instructions (`movg`,
/// `reduce_sum`) have latency determined by the interconnect simulator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Latency {
    /// A deterministic latency in array cycles.
    Fixed(u32),
    /// Latency decided by the network simulator at execution time.
    Variable,
}

impl Latency {
    /// The fixed cycle count, if deterministic.
    pub fn cycles(self) -> Option<u32> {
        match self {
            Latency::Fixed(cycles) => Some(cycles),
            Latency::Variable => None,
        }
    }
}

impl fmt::Display for Latency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Latency::Fixed(cycles) => write!(f, "{cycles}"),
            Latency::Variable => f.write_str("variable"),
        }
    }
}

/// One instruction of the in-memory compute ISA.
///
/// Field names follow the operand format column of Table 1. Every variant is
/// a pure value; execution semantics live in `imp-rram` (array-local
/// behaviour) and `imp-sim` (chip-level behaviour).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instruction {
    /// `add <mask><dst>` — n-ary addition of the rows selected by `mask`,
    /// result written to `dst`. 3 cycles (XB, ADC, S+A).
    Add {
        /// Rows participating in the addition.
        mask: RowMask,
        /// Destination row or register.
        dst: Addr,
    },
    /// `dot <mask><reg_mask><dst>` — dot product: each row selected by
    /// `mask` is multiplied by a register multiplicand (the i-th selected
    /// row pairs with the i-th selected register of `reg_mask`), products
    /// summed over the bit-lines. 18 cycles.
    Dot {
        /// Rows holding the multiplier vectors.
        mask: RowMask,
        /// Registers holding the streamed multiplicands.
        reg_mask: RowMask,
        /// Destination row or register.
        dst: Addr,
    },
    /// `mul <src><src><dst>` — element-wise multiplication of two rows.
    /// The second operand is streamed through the bit-line DACs 2 bits per
    /// cycle. 18 cycles.
    Mul {
        /// First source row (resident in the array).
        a: Addr,
        /// Second source row (streamed via bit-line DACs).
        b: Addr,
        /// Destination row or register.
        dst: Addr,
    },
    /// `sub <mask><mask><dst>` — element-wise subtraction: the summed
    /// minuend rows minus the summed subtrahend rows (current drained via
    /// the subtrahend word-lines). 3 cycles.
    Sub {
        /// Minuend rows.
        minuend: RowMask,
        /// Subtrahend rows (their word-line DACs drain current).
        subtrahend: RowMask,
        /// Destination row or register.
        dst: Addr,
    },
    /// `shiftl <src><dst><imm>` — logical left shift of every element by
    /// `amount` bits, in the digital shift-and-add periphery. 3 cycles.
    ShiftL {
        /// Source row or register.
        src: Addr,
        /// Destination row or register.
        dst: Addr,
        /// Shift amount in bits (< 32).
        amount: u8,
    },
    /// `shiftr <src><dst><imm>` — arithmetic right shift of every element.
    /// 3 cycles.
    ShiftR {
        /// Source row or register.
        src: Addr,
        /// Destination row or register.
        dst: Addr,
        /// Shift amount in bits (< 32).
        amount: u8,
    },
    /// `mask <src><dst><imm>` — bitwise AND of every element with `imm`.
    /// 3 cycles.
    Mask {
        /// Source row or register.
        src: Addr,
        /// Destination row or register.
        dst: Addr,
        /// AND mask applied to each 32-bit element.
        imm: u32,
    },
    /// `mov <src><dst>` — local move between rows / registers. 3 cycles.
    Mov {
        /// Source row or register.
        src: Addr,
        /// Destination row or register.
        dst: Addr,
    },
    /// `movs <src><dst><mask>` — selective move: only lanes set in
    /// `lane_mask` are written (compiled control flow). 3 cycles.
    Movs {
        /// Source row or register.
        src: Addr,
        /// Destination row or register.
        dst: Addr,
        /// Lanes to write.
        lane_mask: LaneMask,
    },
    /// `movi <dst><imm>` — broadcast an immediate to every lane of `dst`.
    /// 1 cycle.
    Movi {
        /// Destination row or register.
        dst: Addr,
        /// Immediate value.
        imm: Imm,
    },
    /// `movg <gaddr><gaddr>` — global move across arrays via the H-tree
    /// network. Variable latency.
    Movg {
        /// Global source address.
        src: GlobalAddr,
        /// Global destination address.
        dst: GlobalAddr,
    },
    /// `lut <src><dst>` — use the element value in `src` as an index into
    /// the cluster look-up table, write the fetched entry to `dst`.
    /// 4 cycles (adds one LUT cycle to the XB/ADC/S+A pipeline).
    Lut {
        /// Source row or register holding LUT indices.
        src: Addr,
        /// Destination row or register.
        dst: Addr,
    },
    /// `reduce_sum <src><gaddr>` — sum the `src` rows of all arrays running
    /// this instruction block, using the adders in the H-tree routers;
    /// result delivered to `dst`. Variable latency.
    ReduceSum {
        /// Local source row.
        src: Addr,
        /// Global destination address.
        dst: GlobalAddr,
    },
}

impl Instruction {
    /// Upper bound on the encoded size of any instruction, in bytes.
    ///
    /// The paper states instructions are up to 34 bytes; `dot` and `sub`
    /// reach exactly that (1 opcode + 16 mask + 16 mask + 1 dst).
    pub const MAX_ENCODED_LEN: usize = 34;

    /// The opcode of this instruction.
    pub fn opcode(&self) -> Opcode {
        match self {
            Instruction::Add { .. } => Opcode::Add,
            Instruction::Dot { .. } => Opcode::Dot,
            Instruction::Mul { .. } => Opcode::Mul,
            Instruction::Sub { .. } => Opcode::Sub,
            Instruction::ShiftL { .. } => Opcode::ShiftL,
            Instruction::ShiftR { .. } => Opcode::ShiftR,
            Instruction::Mask { .. } => Opcode::Mask,
            Instruction::Mov { .. } => Opcode::Mov,
            Instruction::Movs { .. } => Opcode::Movs,
            Instruction::Movi { .. } => Opcode::Movi,
            Instruction::Movg { .. } => Opcode::Movg,
            Instruction::Lut { .. } => Opcode::Lut,
            Instruction::ReduceSum { .. } => Opcode::ReduceSum,
        }
    }

    /// Instruction latency per Table 1 of the paper.
    pub fn latency(&self) -> Latency {
        match self.opcode() {
            Opcode::Add | Opcode::Sub => Latency::Fixed(3),
            Opcode::Dot | Opcode::Mul => Latency::Fixed(18),
            Opcode::ShiftL | Opcode::ShiftR | Opcode::Mask => Latency::Fixed(3),
            Opcode::Mov | Opcode::Movs => Latency::Fixed(3),
            Opcode::Movi => Latency::Fixed(1),
            Opcode::Lut => Latency::Fixed(4),
            Opcode::Movg | Opcode::ReduceSum => Latency::Variable,
        }
    }

    /// Checks the immediates no operand type bounds: a `shiftl`/`shiftr`
    /// amount must be below the 32-bit word width. This is the one
    /// legality rule for immediates; [`assemble`](crate::assemble),
    /// [`Instruction::decode`] and the verifier's structural pass all
    /// apply it.
    ///
    /// # Errors
    /// [`IsaError::ShiftTooLarge`] for a shift of 32 bits or more.
    pub fn check_immediates(&self) -> Result<(), IsaError> {
        match *self {
            Instruction::ShiftL { amount, .. } | Instruction::ShiftR { amount, .. }
                if usize::from(amount) >= crate::WORD_BITS =>
            {
                Err(IsaError::ShiftTooLarge(amount))
            }
            _ => Ok(()),
        }
    }

    /// The destination of the instruction, if it writes a local address.
    pub fn local_dst(&self) -> Option<Addr> {
        match *self {
            Instruction::Add { dst, .. }
            | Instruction::Dot { dst, .. }
            | Instruction::Mul { dst, .. }
            | Instruction::Sub { dst, .. }
            | Instruction::ShiftL { dst, .. }
            | Instruction::ShiftR { dst, .. }
            | Instruction::Mask { dst, .. }
            | Instruction::Mov { dst, .. }
            | Instruction::Movs { dst, .. }
            | Instruction::Movi { dst, .. }
            | Instruction::Lut { dst, .. } => Some(dst),
            Instruction::Movg { .. } | Instruction::ReduceSum { .. } => None,
        }
    }

    /// Local addresses read by this instruction.
    pub fn local_srcs(&self) -> Vec<Addr> {
        match *self {
            Instruction::Add { mask, .. } => mask.rows().map(Addr::mem).collect(),
            Instruction::Dot { mask, reg_mask, .. } => mask
                .rows()
                .map(Addr::mem)
                .chain(reg_mask.rows().map(Addr::reg))
                .collect(),
            Instruction::Mul { a, b, .. } => vec![a, b],
            Instruction::Sub {
                minuend,
                subtrahend,
                ..
            } => minuend
                .rows()
                .chain(subtrahend.rows())
                .map(Addr::mem)
                .collect(),
            Instruction::ShiftL { src, .. }
            | Instruction::ShiftR { src, .. }
            | Instruction::Mask { src, .. }
            | Instruction::Mov { src, .. }
            | Instruction::Movs { src, .. }
            | Instruction::Lut { src, .. }
            | Instruction::ReduceSum { src, .. } => vec![src],
            Instruction::Movi { .. } | Instruction::Movg { .. } => Vec::new(),
        }
    }

    /// Number of operands summed on the bit-lines, for ADC-resolution
    /// accounting (n-ary `add`/`dot` activate `n` rows simultaneously).
    pub fn nary_operands(&self) -> usize {
        match *self {
            Instruction::Add { mask, .. } => mask.count(),
            Instruction::Dot { mask, .. } => mask.count(),
            Instruction::Sub {
                minuend,
                subtrahend,
                ..
            } => minuend.count() + subtrahend.count(),
            Instruction::Mul { .. } => 1,
            _ => 0,
        }
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Instruction::Add { mask, dst } => write!(f, "add {mask} {dst}"),
            Instruction::Dot {
                mask,
                reg_mask,
                dst,
            } => {
                write!(f, "dot {mask} {reg_mask} {dst}")
            }
            Instruction::Mul { a, b, dst } => write!(f, "mul {a} {b} {dst}"),
            Instruction::Sub {
                minuend,
                subtrahend,
                dst,
            } => {
                write!(f, "sub {minuend} {subtrahend} {dst}")
            }
            Instruction::ShiftL { src, dst, amount } => write!(f, "shiftl {src} {dst} #{amount}"),
            Instruction::ShiftR { src, dst, amount } => write!(f, "shiftr {src} {dst} #{amount}"),
            Instruction::Mask { src, dst, imm } => write!(f, "mask {src} {dst} #{imm:#010x}"),
            Instruction::Mov { src, dst } => write!(f, "mov {src} {dst}"),
            Instruction::Movs {
                src,
                dst,
                lane_mask,
            } => write!(f, "movs {src} {dst} {lane_mask}"),
            Instruction::Movi { dst, imm } => write!(f, "movi {dst} {imm}"),
            Instruction::Movg { src, dst } => write!(f, "movg {src} {dst}"),
            Instruction::Lut { src, dst } => write!(f, "lut {src} {dst}"),
            Instruction::ReduceSum { src, dst } => write!(f, "reduce_sum {src} {dst}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_instructions() -> Vec<Instruction> {
        vec![
            Instruction::Add {
                mask: RowMask::from_rows([0, 1]),
                dst: Addr::mem(2),
            },
            Instruction::Dot {
                mask: RowMask::from_rows([0, 1]),
                reg_mask: RowMask::from_rows([0, 1]),
                dst: Addr::mem(2),
            },
            Instruction::Mul {
                a: Addr::mem(0),
                b: Addr::mem(1),
                dst: Addr::mem(2),
            },
            Instruction::Sub {
                minuend: RowMask::from_rows([0]),
                subtrahend: RowMask::from_rows([1]),
                dst: Addr::mem(2),
            },
            Instruction::ShiftL {
                src: Addr::mem(0),
                dst: Addr::mem(1),
                amount: 4,
            },
            Instruction::ShiftR {
                src: Addr::mem(0),
                dst: Addr::mem(1),
                amount: 4,
            },
            Instruction::Mask {
                src: Addr::mem(0),
                dst: Addr::mem(1),
                imm: 0xffff,
            },
            Instruction::Mov {
                src: Addr::mem(0),
                dst: Addr::reg(1),
            },
            Instruction::Movs {
                src: Addr::mem(0),
                dst: Addr::mem(1),
                lane_mask: LaneMask::ALL,
            },
            Instruction::Movi {
                dst: Addr::mem(0),
                imm: Imm::broadcast(42),
            },
            Instruction::Movg {
                src: GlobalAddr::new(0, 0, 0),
                dst: GlobalAddr::new(1, 2, 3),
            },
            Instruction::Lut {
                src: Addr::mem(0),
                dst: Addr::mem(1),
            },
            Instruction::ReduceSum {
                src: Addr::mem(0),
                dst: GlobalAddr::new(0, 0, 5),
            },
        ]
    }

    #[test]
    fn table1_latencies() {
        // Exact Table 1 reproduction.
        let expect = [
            (Opcode::Add, Latency::Fixed(3)),
            (Opcode::Dot, Latency::Fixed(18)),
            (Opcode::Mul, Latency::Fixed(18)),
            (Opcode::Sub, Latency::Fixed(3)),
            (Opcode::ShiftL, Latency::Fixed(3)),
            (Opcode::ShiftR, Latency::Fixed(3)),
            (Opcode::Mask, Latency::Fixed(3)),
            (Opcode::Mov, Latency::Fixed(3)),
            (Opcode::Movs, Latency::Fixed(3)),
            (Opcode::Movi, Latency::Fixed(1)),
            (Opcode::Movg, Latency::Variable),
            (Opcode::Lut, Latency::Fixed(4)),
            (Opcode::ReduceSum, Latency::Variable),
        ];
        for inst in sample_instructions() {
            let want = expect
                .iter()
                .find(|(op, _)| *op == inst.opcode())
                .unwrap()
                .1;
            assert_eq!(inst.latency(), want, "latency of {}", inst.opcode());
        }
    }

    #[test]
    fn opcode_coverage() {
        let insts = sample_instructions();
        assert_eq!(insts.len(), 13);
        let mut opcodes: Vec<_> = insts.iter().map(|i| i.opcode()).collect();
        opcodes.sort();
        opcodes.dedup();
        assert_eq!(opcodes.len(), 13);
    }

    #[test]
    fn dst_and_srcs() {
        let add = Instruction::Add {
            mask: RowMask::from_rows([3, 7]),
            dst: Addr::mem(9),
        };
        assert_eq!(add.local_dst(), Some(Addr::mem(9)));
        assert_eq!(add.local_srcs(), vec![Addr::mem(3), Addr::mem(7)]);
        assert_eq!(add.nary_operands(), 2);

        let movg = Instruction::Movg {
            src: GlobalAddr::new(0, 0, 0),
            dst: GlobalAddr::new(0, 0, 1),
        };
        assert_eq!(movg.local_dst(), None);
        assert!(movg.local_srcs().is_empty());
    }

    #[test]
    fn display_is_parseable_text() {
        for inst in sample_instructions() {
            let text = inst.to_string();
            assert!(text.starts_with(inst.opcode().mnemonic()));
        }
    }
}
