//! The analog compute model: DAC/ADC specifications, the n-ary operand
//! bound imposed by ADC resolution, and per-operation activity traces for
//! the energy model.

use crate::digits::{ColumnSums, CELL_BITS, DAC_BITS, DIGITS_PER_WORD};
use crate::RramError;
use imp_isa::{Addr, Instruction, Latency, LANES};

/// Analog periphery configuration of one array.
///
/// The prototype chip uses 2-bit cells, 2-bit DACs and 5-bit ADCs (§2.1).
/// Cell and DAC resolution are fixed ([`CELL_BITS`], [`DAC_BITS`]); ADC
/// resolution bounds how many rows an n-ary `add`/`dot` may activate at
/// once, which in turn bounds the compiler's node-merging pass (§5.2) and
/// sets ADC energy (ADCs dominate chip power, §7.3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalogSpec {
    /// ADC resolution in bits.
    pub adc_bits: u8,
    /// If `true`, an operation with a bit-line partial sum past the ADC
    /// range fails with [`RramError::AdcOverrange`]. If `false`, it
    /// completes and reports the ADC bits it needed: `add` and `sub`
    /// saturate each partial at the range (physical clipping), while
    /// `dot` and `mul` return the exact product.
    pub strict_adc: bool,
    /// Fraction bits of the chip-wide fixed-point format: `mul`/`dot`
    /// results are the wide product arithmetic-shifted right by this
    /// amount (the S+A unit selects the aligned 32-bit window).
    pub frac_bits: u8,
    /// Probability that one ADC conversion reads off by ±1 LSB — the
    /// process-variation noise §6 cites as the reason for limiting cells
    /// to two levels. 0 (the default) is the paper's conservative
    /// operating point *after* that mitigation.
    pub noise_prob: f64,
}

impl AnalogSpec {
    /// The paper's prototype configuration: 2-bit cells, 2-bit DACs,
    /// 5-bit ADCs, strict range checking, Q16.16 arithmetic, no residual
    /// analog noise.
    pub fn prototype() -> Self {
        AnalogSpec {
            adc_bits: 5,
            strict_adc: true,
            frac_bits: 16,
            noise_prob: 0.0,
        }
    }

    /// Prototype configuration with integer (Q0) arithmetic.
    pub fn integer() -> Self {
        AnalogSpec {
            frac_bits: 0,
            ..Self::prototype()
        }
    }

    /// Largest value one cell can store.
    pub fn max_digit(&self) -> i64 {
        (1i64 << CELL_BITS) - 1
    }

    /// Largest partial sum the ADC can convert without clipping.
    pub fn adc_max(&self) -> i64 {
        (1i64 << self.adc_bits) - 1
    }

    /// Maximum number of rows an n-ary `add` may activate: the worst-case
    /// bit-line partial sum is `n · max_digit`, which must stay within the
    /// ADC range.
    pub fn max_add_operands(&self) -> usize {
        (self.adc_max() / self.max_digit()) as usize
    }

    /// Maximum number of rows a `dot` may activate: the worst-case bit-line
    /// partial sum is `n · max_digit · max_dac`, with the multiplicand
    /// streamed at DAC resolution.
    pub fn max_dot_operands(&self) -> usize {
        let per_row = self.max_digit() * ((1i64 << DAC_BITS) - 1);
        (self.adc_max() / per_row).max(1) as usize
    }

    /// ADC resolution (bits) required to convert partial sums up to
    /// `max_partial` without clipping.
    pub fn required_adc_bits(max_partial: i64) -> u8 {
        let mut bits = 1u8;
        while ((1i64 << bits) - 1) < max_partial {
            bits += 1;
        }
        bits
    }

    /// Validates (or clips) one partial sum against the ADC range.
    ///
    /// # Errors
    /// In strict mode, returns [`RramError::AdcOverrange`] if `partial`
    /// exceeds the convertible range (negative partials from subtraction
    /// are allowed down to `-adc_max`, the reverse-current sensing case).
    pub fn convert(&self, partial: i64) -> Result<i64, RramError> {
        let limit = self.adc_max();
        if partial > limit || partial < -limit {
            if self.strict_adc {
                return Err(RramError::AdcOverrange {
                    partial_sum: partial,
                    limit,
                });
            }
            return Ok(partial.clamp(-limit, limit));
        }
        Ok(partial)
    }
}

impl Default for AnalogSpec {
    fn default() -> Self {
        AnalogSpec::prototype()
    }
}

/// The word-line DAC vectors of a `dot`, analysed for the exact-conversion
/// fast path: which of them can drive its largest bit-line partial.
///
/// Chunk `c` of the streamed multiplicands drives every selected row's
/// word-line with the same vector `(chunk_c(m₀), chunk_c(m₁), …)`.
/// Sign-extended high chunks repeat, so few vectors are distinct, and
/// since cells are non-negative a vector that another bounds field by
/// field cannot hold the largest partial. What is kept is one chunk per
/// distinct, non-zero, non-dominated vector, as a 16-bit set. It is a pure
/// function of the multiplicands, so a caller that knows them before the
/// `dot` runs may analyse them once and replay the result in every
/// [`MicroOp::Dot`](crate::MicroOp::Dot) it executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DacVectors {
    /// Bit `c` is set when chunk `c`'s vector is kept.
    chunks: u16,
}

impl DacVectors {
    /// The most pairs the fast path takes: a pair adds at most 3 to a
    /// column's weight, so a packed column sum holds
    /// `ColumnSums::MAX_WEIGHT / 3` of them (and their vectors fit a
    /// `u64`).
    pub const MAX_PAIRS: usize = ColumnSums::MAX_WEIGHT as usize / 3;

    /// Analyses the DAC vectors streamed for `scalars`, the multiplicands
    /// of a `dot`'s row/register pairs in pair order. `None` when there
    /// are more than [`DacVectors::MAX_PAIRS`] pairs; the `dot` then takes
    /// the ordered loop.
    pub fn analyse(scalars: impl IntoIterator<Item = i32>) -> Option<DacVectors> {
        // Chunk c's vector packs chunk c of every pair's scalar, 2 bits
        // per pair.
        let mut vectors = [0u64; DIGITS_PER_WORD];
        for (pair, m) in scalars.into_iter().enumerate() {
            if pair == Self::MAX_PAIRS {
                return None;
            }
            for (chunk, vector) in vectors.iter_mut().enumerate() {
                *vector |= u64::from(Self::level(m, chunk)) << (2 * pair);
            }
        }
        // Whether some 2-bit field of `a` exceeds the same field of `b`:
        // its high bit does, or the high bits tie and its low bit does.
        const LOW: u64 = 0x5555_5555_5555_5555;
        let exceeds = |a: u64, b: u64| {
            let (a_hi, a_lo, b_hi, b_lo) = (a >> 1 & LOW, a & LOW, b >> 1 & LOW, b & LOW);
            (a_hi & !b_hi) | (!(a_hi ^ b_hi) & a_lo & !b_lo) != 0
        };
        // A vector is kept at its first chunk when no other vector bounds
        // it field by field (a zero vector bounds only itself).
        let mut chunks = 0;
        for (chunk, &vector) in vectors.iter().enumerate() {
            if vector != 0
                && !vectors[..chunk].contains(&vector)
                && vectors
                    .iter()
                    .all(|&other| other == vector || exceeds(vector, other))
            {
                chunks |= 1 << chunk;
            }
        }
        Some(DacVectors { chunks })
    }

    /// The chunks whose vectors are kept, ascending.
    pub(crate) fn chunks(self) -> impl Iterator<Item = usize> {
        let mut rest = self.chunks;
        std::iter::from_fn(move || {
            let chunk = rest.trailing_zeros() as usize;
            rest &= rest.wrapping_sub(1);
            (chunk < DIGITS_PER_WORD).then_some(chunk)
        })
    }

    /// The word-line DAC level chunk `chunk` of multiplicand `m` drives.
    pub(crate) fn level(m: i32, chunk: usize) -> u32 {
        (m as u32 >> (2 * chunk)) & 0b11
    }
}

/// Activity trace of one executed instruction, consumed by the energy and
/// performance models.
///
/// [`OpTrace::of`] is the one definition of an op's activity: every field
/// but [`OpTrace::adc_bits_used`] is fixed by the instruction alone, so a
/// caller running one instruction over many arrays may cost them once.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpTrace {
    /// Cycles the instruction occupied the array pipeline.
    pub cycles: u32,
    /// Number of ADC conversions performed (bit-lines × streaming steps).
    pub adc_conversions: u32,
    /// ADC resolution (bits) the conversions actually required — average
    /// ADC power scales with this (the paper reports a 2.07-bit average).
    pub adc_bits_used: u8,
    /// Whether the crossbar was activated (in-situ compute or read).
    pub crossbar_active: bool,
    /// Row write-back pulses performed.
    pub row_writes: u32,
    /// Register-file accesses (reads + writes).
    pub regfile_accesses: u32,
    /// LUT reads performed.
    pub lut_reads: u32,
}

impl OpTrace {
    /// The activity of `inst` on one array, with `adc_bits_used` 0.
    ///
    /// `add`/`sub` convert each bit-line once, `dot`/`mul` once per
    /// streamed 2-bit chunk; a periphery op (`mov`, `movs`, `shiftl`,
    /// `shiftr`, `mask`, `lut`) converts like an `add` of one row when its
    /// source is a memory row. Exactly the converting ops activate the
    /// crossbar. Each register operand and register destination is one
    /// register-file access, a memory destination one row write, and `lut`
    /// reads the LUT once per lane. `movg` and `reduce_sum` occupy the
    /// network, so their array activity is empty.
    pub fn of(inst: &Instruction) -> OpTrace {
        let Latency::Fixed(cycles) = inst.latency() else {
            return OpTrace::default();
        };
        let bit_lines = (LANES * DIGITS_PER_WORD) as u32;
        let streamed = bit_lines * DIGITS_PER_WORD as u32;
        let (adc_conversions, reg_reads) = match *inst {
            Instruction::Add { .. } | Instruction::Sub { .. } => (bit_lines, 0),
            Instruction::Dot { reg_mask, .. } => (streamed, reg_mask.count() as u32),
            Instruction::Mul { a, b, .. } => {
                (streamed, u32::from(a.is_reg()) + u32::from(b.is_reg()))
            }
            Instruction::ShiftL { src, .. }
            | Instruction::ShiftR { src, .. }
            | Instruction::Mask { src, .. }
            | Instruction::Mov { src, .. }
            | Instruction::Movs { src, .. }
            | Instruction::Lut { src, .. } => {
                (bit_lines * u32::from(src.is_mem()), u32::from(src.is_reg()))
            }
            Instruction::Movi { .. } | Instruction::Movg { .. } | Instruction::ReduceSum { .. } => {
                (0, 0)
            }
        };
        let dst = inst.local_dst();
        OpTrace {
            cycles,
            adc_conversions,
            adc_bits_used: 0,
            // Exactly the ops that convert read through the crossbar.
            crossbar_active: adc_conversions > 0,
            row_writes: u32::from(dst.is_some_and(Addr::is_mem)),
            regfile_accesses: reg_reads + u32::from(dst.is_some_and(Addr::is_reg)),
            lut_reads: LANES as u32 * u32::from(matches!(inst, Instruction::Lut { .. })),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn prototype_matches_paper() {
        let spec = AnalogSpec::prototype();
        assert_eq!(CELL_BITS, 2);
        assert_eq!(DAC_BITS, 2);
        assert_eq!(spec.adc_bits, 5);
        assert_eq!(spec.max_digit(), 3);
        assert_eq!(spec.adc_max(), 31);
    }

    #[test]
    fn nary_bounds() {
        let spec = AnalogSpec::prototype();
        // 31 / 3 = 10 rows for add.
        assert_eq!(spec.max_add_operands(), 10);
        // 31 / 9 = 3 rows for dot.
        assert_eq!(spec.max_dot_operands(), 3);
    }

    #[test]
    fn required_bits() {
        assert_eq!(AnalogSpec::required_adc_bits(1), 1);
        assert_eq!(AnalogSpec::required_adc_bits(3), 2);
        assert_eq!(AnalogSpec::required_adc_bits(6), 3);
        assert_eq!(AnalogSpec::required_adc_bits(9), 4);
        assert_eq!(AnalogSpec::required_adc_bits(31), 5);
    }

    #[test]
    fn required_adc_bits_is_the_bit_length() {
        // The fast paths resolve an op's ADC bits as the bit length of its
        // partials' OR, which stands in for the largest partial's.
        let bit_length = |m: i64| (i64::BITS - m.leading_zeros()) as u8;
        let edges = (1..=40).flat_map(|k| {
            let p = 1i64 << k;
            [p - 1, p, p + 1]
        });
        for m in (1..=1 << 16).chain(edges) {
            assert_eq!(AnalogSpec::required_adc_bits(m), bit_length(m), "{m}");
        }
    }

    #[test]
    fn strict_conversion() {
        let spec = AnalogSpec::prototype();
        assert_eq!(spec.convert(31).unwrap(), 31);
        assert_eq!(spec.convert(-31).unwrap(), -31);
        assert!(matches!(
            spec.convert(32),
            Err(RramError::AdcOverrange { .. })
        ));
    }

    #[test]
    fn clipping_conversion() {
        let spec = AnalogSpec {
            strict_adc: false,
            ..AnalogSpec::prototype()
        };
        assert_eq!(spec.convert(100).unwrap(), 31);
        assert_eq!(spec.convert(-100).unwrap(), -31);
    }

    proptest! {
        #[test]
        fn kept_dac_vectors_hold_every_chunks_largest_partial(
            scalars in prop::collection::vec(any::<i32>(), 0..8),
            thin in any::<i32>(),
            digits in prop::collection::vec(0u32..4, 8),
        ) {
            // For any column of cell digits, the largest chunk partial
            // Σ level(mₚ, c)·dₚ over the kept chunks is the largest over all
            // sixteen. Thinned scalars repeat and dominate more often.
            for scalars in [scalars.clone(), scalars.iter().map(|&m| m & thin).collect()] {
                let dac = DacVectors::analyse(scalars.iter().copied()).expect("few pairs");
                let partial = |chunk: usize| -> u32 {
                    scalars
                        .iter()
                        .zip(&digits)
                        .map(|(&m, &d)| DacVectors::level(m, chunk) * d)
                        .sum()
                };
                let all = (0..DIGITS_PER_WORD).map(partial).max().unwrap_or(0);
                let kept = dac.chunks().map(partial).max().unwrap_or(0);
                prop_assert_eq!(kept, all);
                // Kept chunks drive distinct vectors.
                let kept_vectors: Vec<Vec<u32>> = dac
                    .chunks()
                    .map(|c| scalars.iter().map(|&m| DacVectors::level(m, c)).collect())
                    .collect();
                for (i, v) in kept_vectors.iter().enumerate() {
                    prop_assert!(!kept_vectors[..i].contains(v));
                }
            }
        }
    }
}
