//! 32-bit fixed-point arithmetic with a configurable binary point.
//!
//! The paper adopts fixed point for in-memory computation because floating
//! point would require exponent normalization inside the array (§2.3). The
//! position of the binary point is a kernel-level choice trading precision
//! against range; preventing overflow is the programmer's responsibility,
//! aided by the dynamic-range analysis tool in `imp-dfg`.

use crate::RramError;
use std::fmt;

/// A fixed-point format: the number of fraction bits in a 32-bit word.
///
/// `QFormat(16)` is the default Q16.16: 15 integer bits, 16 fraction bits
/// and a sign bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QFormat(pub u8);

impl QFormat {
    /// The default Q16.16 format used by the evaluated kernels.
    pub const Q16_16: QFormat = QFormat(16);
    /// Pure integer format (no fraction bits).
    pub const INTEGER: QFormat = QFormat(0);

    /// The most fraction bits a supported format has: Q2.30 (a sign bit,
    /// one integer bit) still holds 1.0, `1 << 30`, as a positive word.
    /// Lowering materializes 1.0 and shifts words by up to `frac_bits`, so
    /// a wider fraction has no meaning on the chip.
    pub const MAX_FRAC_BITS: u8 = 30;

    /// Whether the compiler and simulator support this format:
    /// `frac_bits` in `0..=30` ([`QFormat::MAX_FRAC_BITS`]).
    pub fn is_supported(self) -> bool {
        self.0 <= Self::MAX_FRAC_BITS
    }

    /// Number of fraction bits.
    pub fn frac_bits(self) -> u8 {
        self.0
    }

    /// `2^frac_bits`: a real value times this is its raw word before
    /// rounding.
    pub fn scale(self) -> f64 {
        // The exponent field alone: exact, and cheaper than `powi`.
        f64::from_bits((1023 + u64::from(self.0)) << 52)
    }

    /// Smallest representable increment: `2^-frac_bits`.
    pub fn epsilon(self) -> f64 {
        // The exponent field alone, as in `scale`: exact for every `u8`
        // (2^-255 is still a normal `f64`), and cheaper than `powi`.
        f64::from_bits((1023 - u64::from(self.0)) << 52)
    }

    /// Largest representable value.
    pub fn max_value(self) -> f64 {
        (i32::MAX as f64) * self.epsilon()
    }

    /// Smallest (most negative) representable value.
    pub fn min_value(self) -> f64 {
        (i32::MIN as f64) * self.epsilon()
    }
}

impl Default for QFormat {
    fn default() -> Self {
        QFormat::Q16_16
    }
}

impl fmt::Display for QFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q{}.{}", 32 - i32::from(self.0), self.0)
    }
}

/// A 32-bit fixed-point value.
///
/// Arithmetic wraps modulo 2³² exactly like the hardware: the in-situ
/// adders produce the low 32 bits of the true sum, and multiplication
/// produces the 64-bit product right-shifted by the fraction-bit count
/// (the shift-and-add periphery selects the aligned 32-bit window).
///
/// ```
/// use imp_rram::{Fixed, QFormat};
///
/// let q = QFormat::Q16_16;
/// let a = Fixed::from_f64(1.5, q).unwrap();
/// let b = Fixed::from_f64(2.25, q).unwrap();
/// assert_eq!((a * b).to_f64(), 3.375);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fixed {
    raw: i32,
    format: QFormat,
}

impl Fixed {
    /// Zero in the given format.
    pub fn zero(format: QFormat) -> Self {
        Fixed { raw: 0, format }
    }

    /// One in the given format.
    pub fn one(format: QFormat) -> Self {
        Fixed {
            raw: 1i32 << format.frac_bits(),
            format,
        }
    }

    /// Builds a value from its raw 32-bit word.
    pub fn from_raw(raw: i32, format: QFormat) -> Self {
        Fixed { raw, format }
    }

    /// Converts from `f64`, rounding to the nearest representable value.
    ///
    /// # Errors
    /// Returns [`RramError::FixedOverflow`] if the value is outside the
    /// representable range (including NaN).
    pub fn from_f64(value: f64, format: QFormat) -> Result<Self, RramError> {
        let scaled = value * (2.0f64).powi(i32::from(format.frac_bits()));
        let rounded = scaled.round();
        if !rounded.is_finite() || rounded > i32::MAX as f64 || rounded < i32::MIN as f64 {
            return Err(RramError::FixedOverflow(value));
        }
        Ok(Fixed {
            raw: rounded as i32,
            format,
        })
    }

    /// Converts from `f64`, rounding to the nearest representable value
    /// (ties away from zero) and saturating at the representable range
    /// instead of failing. NaN saturates to zero.
    ///
    /// A caller quantizing many values at one format may hoist
    /// [`QFormat::scale`] and call
    /// [`Fixed::from_scaled_saturating`] itself, which is this function.
    pub fn from_f64_saturating(value: f64, format: QFormat) -> Self {
        Self::from_scaled_saturating(value * format.scale(), format)
    }

    /// [`Fixed::from_f64_saturating`] of a value already multiplied by
    /// `format.scale()`, in compare-selects and float adds only, so a loop
    /// over a slice packs two values per SSE2 instruction (a float-to-int
    /// cast would not: Rust's `as i32` saturates, which compiles to a
    /// scalar `cvttsd2si` with fix-ups).
    ///
    /// NaN selects 0, then the value is clamped to the `i32` rails. Adding
    /// `1.5·2^52` rounds it to the nearest integer, ties to even, and
    /// leaves that integer in the low 32 bits of the sum's mantissa (the
    /// sum stays in `[2^52, 2^53)`, where the spacing of `f64` is 1).
    /// An exact tie `y − r = ±0.5` that went toward zero then steps one
    /// away from it. Bit-identical to `f64::round` followed by a saturating
    /// cast: `y − r` is exact, and the step cannot leave `i32`, since a
    /// value clamped to a rail is an integer. Inline across crates, so the
    /// caller's loop is the one that packs.
    #[inline]
    pub fn from_scaled_saturating(scaled: f64, format: QFormat) -> Self {
        /// `1.5·2^52`: even, so adding it keeps round-half-to-even.
        const ROUND: f64 = 6_755_399_441_055_744.0;
        let (min, max) = (f64::from(i32::MIN), f64::from(i32::MAX));
        let y = if scaled.is_nan() { 0.0 } else { scaled };
        let y = if y < min { min } else { y };
        let y = if y > max { max } else { y };
        let shifted = y + ROUND;
        let even = shifted.to_bits() as i32;
        let tie = y - (shifted - ROUND);
        let raw = even + i32::from(tie == 0.5 && y > 0.0) - i32::from(tie == -0.5 && y < 0.0);
        Fixed { raw, format }
    }

    /// Converts to `f64`.
    pub fn to_f64(self) -> f64 {
        (self.raw as f64) * self.format.epsilon()
    }

    /// The raw 32-bit word.
    pub fn raw(self) -> i32 {
        self.raw
    }

    /// The value's format.
    pub fn format(self) -> QFormat {
        self.format
    }

    /// Wrapping addition (the hardware behaviour).
    pub fn wrapping_add(self, rhs: Fixed) -> Fixed {
        debug_assert_eq!(self.format, rhs.format);
        Fixed {
            raw: self.raw.wrapping_add(rhs.raw),
            format: self.format,
        }
    }

    /// Wrapping subtraction.
    pub fn wrapping_sub(self, rhs: Fixed) -> Fixed {
        debug_assert_eq!(self.format, rhs.format);
        Fixed {
            raw: self.raw.wrapping_sub(rhs.raw),
            format: self.format,
        }
    }

    /// Fixed-point multiplication: the 64-bit product arithmetic-shifted
    /// right by the fraction-bit count, truncated to 32 bits (wrapping).
    pub fn wrapping_mul(self, rhs: Fixed) -> Fixed {
        debug_assert_eq!(self.format, rhs.format);
        let product = i64::from(self.raw) * i64::from(rhs.raw);
        Fixed {
            raw: (product >> self.format.frac_bits()) as i32,
            format: self.format,
        }
    }

    /// Checked addition: `None` on signed overflow.
    pub fn checked_add(self, rhs: Fixed) -> Option<Fixed> {
        if self.format != rhs.format {
            return None;
        }
        self.raw.checked_add(rhs.raw).map(|raw| Fixed {
            raw,
            format: self.format,
        })
    }

    /// Checked multiplication: `None` if the shifted product overflows.
    pub fn checked_mul(self, rhs: Fixed) -> Option<Fixed> {
        if self.format != rhs.format {
            return None;
        }
        let product = i64::from(self.raw) * i64::from(rhs.raw);
        let shifted = product >> self.format.frac_bits();
        i32::try_from(shifted).ok().map(|raw| Fixed {
            raw,
            format: self.format,
        })
    }

    /// Absolute error of this value versus a reference `f64`.
    pub fn abs_error(self, reference: f64) -> f64 {
        (self.to_f64() - reference).abs()
    }
}

impl std::ops::Add for Fixed {
    type Output = Fixed;
    fn add(self, rhs: Fixed) -> Fixed {
        self.wrapping_add(rhs)
    }
}

impl std::ops::Sub for Fixed {
    type Output = Fixed;
    fn sub(self, rhs: Fixed) -> Fixed {
        self.wrapping_sub(rhs)
    }
}

impl std::ops::Mul for Fixed {
    type Output = Fixed;
    fn mul(self, rhs: Fixed) -> Fixed {
        self.wrapping_mul(rhs)
    }
}

impl std::ops::Neg for Fixed {
    type Output = Fixed;
    fn neg(self) -> Fixed {
        Fixed {
            raw: self.raw.wrapping_neg(),
            format: self.format,
        }
    }
}

impl fmt::Display for Fixed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn conversions() {
        let q = QFormat::Q16_16;
        assert_eq!(Fixed::from_f64(1.0, q).unwrap().raw(), 1 << 16);
        assert_eq!(Fixed::from_f64(-1.0, q).unwrap().raw(), -(1 << 16));
        assert_eq!(Fixed::from_f64(0.5, q).unwrap().to_f64(), 0.5);
        assert!(Fixed::from_f64(40000.0, q).is_err());
        assert!(Fixed::from_f64(f64::NAN, q).is_err());
    }

    #[test]
    fn epsilon_and_scale_are_the_exact_powers_of_two() {
        // Every supported format (0..=30 fraction bits) and every other
        // `u8` a hand-built `QFormat` may hold.
        for frac_bits in 0..=u8::MAX {
            let format = QFormat(frac_bits);
            let exp = i32::from(frac_bits);
            assert_eq!(
                format.epsilon().to_bits(),
                2f64.powi(-exp).to_bits(),
                "{frac_bits}"
            );
            assert_eq!(
                format.scale().to_bits(),
                2f64.powi(exp).to_bits(),
                "{frac_bits}"
            );
        }
    }

    /// The rounding `from_f64_saturating` had before it went branchless:
    /// `f64::round`, then a saturating cast with NaN at zero.
    fn round_then_saturate(value: f64, format: QFormat) -> i32 {
        let rounded = (value * (2.0f64).powi(i32::from(format.frac_bits()))).round();
        if rounded.is_nan() {
            0
        } else if rounded > i32::MAX as f64 {
            i32::MAX
        } else if rounded < i32::MIN as f64 {
            i32::MIN
        } else {
            rounded as i32
        }
    }

    fn assert_rounds_like_reference(value: f64, format: QFormat) {
        assert_eq!(
            Fixed::from_f64_saturating(value, format).raw(),
            round_then_saturate(value, format),
            "{value:e} ({:#x}) at {format}",
            value.to_bits()
        );
    }

    /// Moves `value` `ulps` units in the last place away from zero (toward
    /// zero for negative `ulps`), whatever its sign.
    fn nudge(value: f64, ulps: i64) -> f64 {
        f64::from_bits(value.to_bits().wrapping_add_signed(ulps))
    }

    #[test]
    fn branchless_rounding_matches_reference_at_the_edges() {
        let rail = 2f64.powi(31);
        let specials = [
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            -f64::MIN_POSITIVE,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            -f64::NAN,
            f64::MAX,
            f64::MIN,
            2f64.powi(32),
            -(2f64.powi(32)),
            2f64.powi(63),
            -(2f64.powi(63)),
            1.0e300,
            -1.0e300,
            rail,
            -rail,
            rail - 1.0,
            -rail + 1.0,
            rail - 0.5,
            -rail - 0.5,
            -rail + 0.5,
            0.5,
            -0.5,
            1.5,
            -1.5,
            0.499_999_999_999_999_94,
            -0.499_999_999_999_999_94,
        ];
        for format in [QFormat::INTEGER, QFormat(8), QFormat::Q16_16, QFormat(30)] {
            let scale = format.scale();
            for &special in &specials {
                for ulps in -2..=2 {
                    let value = nudge(special, ulps);
                    assert_rounds_like_reference(value, format);
                    assert_rounds_like_reference(value / scale, format);
                }
            }
        }
    }

    /// Every boundary of the rounding, exhaustively, in raw units (so the
    /// scale is 1): ±3 ulp around each half-integer `k + 0.5` for
    /// |k| ≤ 2^17 and around ±(2^e + 0.5) for e = 0..30, ±0.5 and ±1
    /// around both rails, signed zeros, subnormals and infinities. NaNs
    /// whose payload reaches the low word give 0, not their payload bits.
    #[test]
    fn rounding_boundary_table_matches_reference() {
        let check = |scaled: f64| {
            assert_eq!(
                Fixed::from_scaled_saturating(scaled, QFormat::INTEGER).raw(),
                round_then_saturate(scaled, QFormat::INTEGER),
                "{scaled:e} ({:#x})",
                scaled.to_bits()
            );
        };
        let around = |centre: f64| (-3..=3).for_each(|ulps| check(nudge(centre, ulps)));
        for k in -(1i32 << 17)..=(1 << 17) {
            around(f64::from(k) + 0.5);
        }
        for e in 0..=30 {
            let half = 2f64.powi(e) + 0.5;
            around(half);
            around(-half);
        }
        for rail in [f64::from(i32::MAX), f64::from(i32::MIN)] {
            for offset in [-1.0, -0.5, 0.0, 0.5, 1.0] {
                around(rail + offset);
            }
        }
        let subnormal = f64::from_bits(0x000F_FFFF_FFFF_FFFF);
        for special in [0.0, 1e-310, subnormal, f64::from_bits(1), f64::INFINITY] {
            around(special);
            around(-special);
        }
        let nans = [
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7FF0_0000_0000_0001),
            f64::from_bits(0xFFF8_0000_0000_0001),
            f64::from_bits(0x7FF8_0000_FFFF_FFFF),
        ];
        for nan in nans {
            assert!(nan.is_nan());
            assert_eq!(Fixed::from_scaled_saturating(nan, QFormat::Q16_16).raw(), 0);
            check(nan);
        }
    }

    #[test]
    fn saturating_conversion() {
        let q = QFormat::Q16_16;
        assert_eq!(Fixed::from_f64_saturating(1.0e9, q).raw(), i32::MAX);
        assert_eq!(Fixed::from_f64_saturating(-1.0e9, q).raw(), i32::MIN);
        assert_eq!(Fixed::from_f64_saturating(f64::NAN, q).raw(), 0);
    }

    #[test]
    fn arithmetic() {
        let q = QFormat::Q16_16;
        let a = Fixed::from_f64(3.25, q).unwrap();
        let b = Fixed::from_f64(0.75, q).unwrap();
        assert_eq!((a + b).to_f64(), 4.0);
        assert_eq!((a - b).to_f64(), 2.5);
        assert_eq!((a * b).to_f64(), 2.4375);
        assert_eq!((-a).to_f64(), -3.25);
    }

    #[test]
    fn integer_format() {
        let q = QFormat::INTEGER;
        let a = Fixed::from_f64(100.0, q).unwrap();
        let b = Fixed::from_f64(7.0, q).unwrap();
        assert_eq!((a * b).raw(), 700);
        assert_eq!(q.epsilon(), 1.0);
    }

    #[test]
    fn checked_ops() {
        let q = QFormat::Q16_16;
        let big = Fixed::from_raw(i32::MAX, q);
        assert!(big.checked_add(Fixed::one(q)).is_none());
        assert!(big.checked_mul(big).is_none());
        let a = Fixed::from_f64(2.0, q).unwrap();
        assert_eq!(a.checked_mul(a).unwrap().to_f64(), 4.0);
        let other = Fixed::one(QFormat(8));
        assert!(a.checked_add(other).is_none());
    }

    #[test]
    fn format_metadata() {
        assert_eq!(QFormat::Q16_16.to_string(), "Q16.16");
        assert!(QFormat::Q16_16.max_value() > 32767.0);
        assert!(QFormat::Q16_16.min_value() <= -32768.0);
        assert_eq!(QFormat::default(), QFormat::Q16_16);
    }

    proptest! {
        // Cheap cases: many of them.
        #![proptest_config(ProptestConfig::with_cases(20_000))]

        #[test]
        fn branchless_rounding_matches_reference(
            half in -(1i64 << 33)..(1i64 << 33),
            ulps in -1i64..2,
            bits in any::<u64>(),
            frac_bits in 0u8..QFormat::MAX_FRAC_BITS + 1,
        ) {
            let format = QFormat(frac_bits);
            // Half-integers ±1 ulp in raw units, across and past both
            // rails, then the same points in real units.
            let raw = nudge(half as f64 + 0.5, ulps);
            for value in [raw, raw / format.scale(), -raw / format.scale()] {
                assert_rounds_like_reference(value, format);
            }
            // Any bit pattern: subnormals, huge magnitudes, NaNs, infinities.
            assert_rounds_like_reference(f64::from_bits(bits), format);
        }
    }

    proptest! {
        #[test]
        fn roundtrip_within_epsilon(value in -30000.0f64..30000.0) {
            let q = QFormat::Q16_16;
            let fixed = Fixed::from_f64(value, q).unwrap();
            prop_assert!(fixed.abs_error(value) <= q.epsilon() / 2.0 + 1e-12);
        }

        #[test]
        fn mul_matches_f64_within_tolerance(a in -100.0f64..100.0, b in -100.0f64..100.0) {
            let q = QFormat::Q16_16;
            let fa = Fixed::from_f64(a, q).unwrap();
            let fb = Fixed::from_f64(b, q).unwrap();
            let product = fa.wrapping_mul(fb);
            // Error bound: input quantization (|b|+|a|)·ε/2 plus truncation ε.
            let bound = (a.abs() + b.abs() + 2.0) * q.epsilon();
            prop_assert!(product.abs_error(a * b) <= bound);
        }

        #[test]
        fn add_matches_integer_add(a in any::<i32>(), b in any::<i32>()) {
            let q = QFormat::Q16_16;
            let sum = Fixed::from_raw(a, q) + Fixed::from_raw(b, q);
            prop_assert_eq!(sum.raw(), a.wrapping_add(b));
        }
    }
}
