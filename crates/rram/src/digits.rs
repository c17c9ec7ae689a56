//! Base-4 digit codec: how 32-bit words live in 2-bit resistive cells.
//!
//! A 32-bit word is stored as sixteen base-4 digits, least-significant digit
//! first, one digit per bit-line. Negative numbers are stored in
//! 4's-complement — which, as §2.3 of the paper observes, *is* the base-4
//! rendering of the two's-complement bit pattern, so no format conversion is
//! ever needed: summing digit columns with shift-and-add recombination
//! yields correct signed results modulo 2³². The crossbar therefore stores
//! words, and the analog model derives digits from them where it senses
//! cells, including whole-row column sums for the fast paths.

use imp_isa::LANES;

/// Number of base-4 digits in a 32-bit word.
pub const DIGITS_PER_WORD: usize = 16;

/// Bits per resistive cell, the ISA's [`imp_isa::CELL_BITS`]: one cell
/// holds one base-4 digit, which this codec and the fault masks assume.
pub const CELL_BITS: u8 = imp_isa::CELL_BITS as u8;

/// DAC resolution in bits. It equals [`CELL_BITS`], so signed
/// multiplication is closed under 4's complement (§2.3), and a `dot`
/// streams one base-4 chunk of its multiplicand per step.
pub const DAC_BITS: u8 = CELL_BITS;

/// Radix of a digit (2-bit cells → 4 resistance levels).
pub const RADIX: u32 = 4;

/// Base-4 digit `digit_pos` (0 = least significant) of `word`, as its
/// two's-complement bit pattern: bits `2·digit_pos` and `2·digit_pos + 1`.
pub(crate) fn digit(word: i32, digit_pos: usize) -> u8 {
    ((word as u32 >> (2 * digit_pos)) & 0b11) as u8
}

/// The 128 bit-line partial sums of a weighted set of rows, computed from
/// the stored words four columns per word operation: byte `j` of
/// `fields[k * LANES + lane]` sums digit `4j + k` of that lane's words,
/// each times its row weight. Adding a row masks every fourth digit in
/// place rather than extracting sixteen digits one by one. Exact while
/// every byte stays within 255, i.e. for a total row weight of at most
/// [`ColumnSums::MAX_WEIGHT`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct ColumnSums {
    fields: [u32; 4 * LANES],
}

impl ColumnSums {
    /// The largest total row weight whose column sums fit a byte: 255
    /// over the largest digit, 3.
    pub(crate) const MAX_WEIGHT: u32 = 85;

    /// No rows: every column sum is zero.
    pub(crate) fn new() -> Self {
        ColumnSums {
            fields: [0; 4 * LANES],
        }
    }

    /// Adds `weight` × the digits of `words` to their columns.
    #[inline]
    pub(crate) fn add(&mut self, words: &[i32; LANES], weight: u32) {
        for (k, fields) in self.fields.chunks_exact_mut(LANES).enumerate() {
            for (field, &word) in fields.iter_mut().zip(words) {
                *field += ((word as u32 >> (2 * k)) & 0x0303_0303) * weight;
            }
        }
    }

    /// The column sums of the one row `words` at weight 1, whose fields
    /// hold its digits one per byte: the operand of
    /// [`ColumnSums::add_level`].
    #[inline]
    pub(crate) fn of_row(words: &[i32; LANES]) -> Self {
        let mut sums = ColumnSums::new();
        sums.add(words, 1);
        sums
    }

    /// Adds the row whose digits `row` holds ([`ColumnSums::of_row`]) at
    /// weight `level`, a DAC level in `0..4`: [`ColumnSums::add`] without
    /// re-extracting the digits or multiplying, for a row streamed at
    /// several levels.
    #[inline]
    pub(crate) fn add_level(&mut self, row: &ColumnSums, level: u32) {
        debug_assert!(level < 4, "a DAC level is 2 bits");
        let once = 0u32.wrapping_sub(level & 1);
        let twice = 0u32.wrapping_sub(level >> 1);
        for (field, &digits) in self.fields.iter_mut().zip(&row.fields) {
            *field += (digits & once) + ((digits << 1) & twice);
        }
    }

    /// The OR of the 128 column sums. Its bit length is the largest sum's,
    /// and it exceeds `2^b − 1` exactly when the largest sum does, so it
    /// stands in for the maximum in an ADC range test and resolution.
    #[inline]
    pub(crate) fn or_columns(&self) -> u32 {
        let or = self.fields.iter().fold(0, |acc, &field| acc | field);
        (or | or >> 8 | or >> 16 | or >> 24) & 0xFF
    }

    /// The OR of the 128 magnitudes `|self − minus|`, column by column:
    /// [`ColumnSums::or_columns`] of a signed (`sub`) sum.
    #[inline]
    pub(crate) fn or_abs_diff(&self, minus: &ColumnSums) -> u32 {
        let (plus, minus) = (self.columns(), minus.columns());
        plus.as_flattened()
            .iter()
            .zip(minus.as_flattened())
            .fold(0, |acc, (&p, &n)| acc | p.abs_diff(n))
            .into()
    }

    /// The 128 column sums, four per field, in an order that is the same
    /// for every `ColumnSums` but is not bit-line order.
    #[inline]
    pub(crate) fn columns(&self) -> [[u8; 4]; 4 * LANES] {
        self.fields.map(u32::to_le_bytes)
    }
}

/// The digit-wise sum mod 4 of the base-4 digits of `a` and `b`, with no
/// carry from one digit into the next: `a ^ b` adds each digit's bits
/// mod 2, and the carry out of its low bit lands in its own high bit.
#[inline]
pub(crate) fn add_mod4(a: u32, b: u32) -> u32 {
    a ^ b ^ ((a & b & 0x5555_5555) << 1)
}

/// Splits a word (as its two's-complement bit pattern) into base-4 digits,
/// least significant first. Every digit is in `0..4`.
pub fn word_to_digits(word: i32) -> [u8; DIGITS_PER_WORD] {
    let mut bits = word as u32;
    let mut digits = [0u8; DIGITS_PER_WORD];
    for digit in &mut digits {
        *digit = (bits & 0b11) as u8;
        bits >>= 2;
    }
    digits
}

/// The largest base-4 digit of `word` (as its two's-complement bit
/// pattern): `word_to_digits(word).max()` in a few bit operations.
pub(crate) fn max_digit(word: i32) -> u8 {
    const LOW_BITS: u32 = 0x5555_5555;
    // A digit 3 implies a digit of at least 2, which implies a non-zero
    // digit, so the three tests add up to the largest digit, without a
    // branch.
    let bits = word as u32;
    u8::from(bits != 0)
        + u8::from(bits & !LOW_BITS != 0)
        + u8::from(bits & (bits >> 1) & LOW_BITS != 0)
}

/// Recombines base-4 digits into a word: `Σ dᵢ·4ⁱ mod 2³²`, reinterpreted
/// as two's complement.
pub fn digits_to_word(digits: &[u8; DIGITS_PER_WORD]) -> i32 {
    let mut bits: u32 = 0;
    for (i, &digit) in digits.iter().enumerate() {
        debug_assert!(digit < 4, "digit out of range");
        bits |= u32::from(digit) << (2 * i);
    }
    bits as i32
}

/// Recombines *unbounded* per-digit partial sums into a word via the
/// shift-and-add datapath: `Σ pᵢ·4ⁱ mod 2³²`.
///
/// This is the digital model of the S+A unit: each bit-line delivers a
/// partial sum `pᵢ` (possibly larger than one digit, possibly negative for
/// subtraction) and the shift-and-add unit accumulates them with the proper
/// power-of-four weight. Working modulo 2³² makes n-ary addition of
/// 4's-complement values produce exactly the two's-complement result.
pub fn combine_partial_sums(partials: &[i64]) -> i32 {
    let mut acc: u64 = 0;
    for (i, &partial) in partials.iter().enumerate() {
        let weighted = (partial as u64).wrapping_shl((2 * i) as u32);
        acc = acc.wrapping_add(weighted);
    }
    (acc as u32) as i32
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn known_words() {
        assert_eq!(word_to_digits(0), [0; DIGITS_PER_WORD]);
        let digits = word_to_digits(0b11_10_01);
        assert_eq!(&digits[..3], &[1, 2, 3]);
        assert_eq!(digits_to_word(&digits), 0b11_10_01);
    }

    #[test]
    fn negative_is_fours_complement() {
        // -1 in two's complement is all ones; in base 4 that is all 3s —
        // exactly the 4's complement of 1. §2.3's equivalence claim.
        assert_eq!(word_to_digits(-1), [3; DIGITS_PER_WORD]);
        assert_eq!(digits_to_word(&[3; DIGITS_PER_WORD]), -1);
    }

    #[test]
    fn column_sum_equals_word_sum() {
        // Summing digit columns of several words and recombining equals the
        // wrapping sum of the words — the in-situ add correctness argument.
        let words = [17, -250, 1_000_000, -7, i32::MAX, i32::MIN + 3];
        let mut partials = [0i64; DIGITS_PER_WORD];
        for &word in &words {
            let digits = word_to_digits(word);
            for (partial, digit) in partials.iter_mut().zip(digits) {
                *partial += i64::from(digit);
            }
        }
        let expect = words.iter().fold(0i32, |acc, &w| acc.wrapping_add(w));
        assert_eq!(combine_partial_sums(&partials), expect);
    }

    #[test]
    fn column_sums_hold_max_weight_of_threes() {
        let mut sums = ColumnSums::new();
        for _ in 0..ColumnSums::MAX_WEIGHT {
            sums.add(&[-1; LANES], 1);
        }
        assert!(sums.columns().as_flattened().iter().all(|&c| c == 255));
    }

    proptest! {
        #[test]
        fn column_sums_match_digit_columns(
            rows in prop::collection::vec((prop::array::uniform8(any::<i32>()), 0u32..4), 0..28),
        ) {
            let mut sums = ColumnSums::new();
            let mut reference = [[0u32; DIGITS_PER_WORD]; LANES];
            for (words, weight) in &rows {
                sums.add(words, *weight);
                for (lane, &word) in words.iter().enumerate() {
                    for (digit_pos, d) in word_to_digits(word).into_iter().enumerate() {
                        reference[lane][digit_pos] += u32::from(d) * weight;
                    }
                }
            }
            let columns = sums.columns();
            for k in 0..4 {
                for lane in 0..LANES {
                    for j in 0..4 {
                        let got = u32::from(columns[k * LANES + lane][j]);
                        prop_assert_eq!(got, reference[lane][4 * j + k]);
                    }
                }
            }
        }

        #[test]
        fn add_level_adds_the_row_at_its_weight(
            rows in prop::collection::vec((prop::array::uniform8(any::<i32>()), 0u32..4), 0..28),
        ) {
            let (mut added, mut leveled) = (ColumnSums::new(), ColumnSums::new());
            for (words, level) in &rows {
                added.add(words, *level);
                leveled.add_level(&ColumnSums::of_row(words), *level);
            }
            prop_assert_eq!(added.columns(), leveled.columns());
        }

        #[test]
        fn or_folds_have_the_bit_length_of_the_largest_column(
            plus in prop::collection::vec((prop::array::uniform8(any::<i32>()), 0u32..4), 0..28),
            minus in prop::collection::vec(prop::array::uniform8(any::<i32>()), 0..28),
            bits in 1u32..9,
        ) {
            let (mut p, mut n) = (ColumnSums::new(), ColumnSums::new());
            for (words, weight) in &plus {
                p.add(words, *weight);
            }
            for words in &minus {
                n.add(words, 1);
            }
            let max = p.columns().as_flattened().iter().fold(0u32, |m, &c| m.max(c.into()));
            let max_abs = p
                .columns()
                .as_flattened()
                .iter()
                .zip(n.columns().as_flattened())
                .fold(0u32, |m, (&a, &b)| m.max(a.abs_diff(b).into()));
            let limit = (1u32 << bits) - 1;
            for (or, max) in [(p.or_columns(), max), (p.or_abs_diff(&n), max_abs)] {
                prop_assert_eq!(u32::BITS - or.leading_zeros(), u32::BITS - max.leading_zeros());
                prop_assert_eq!(or > limit, max > limit);
            }
        }

        #[test]
        fn add_mod4_adds_each_digit_mod_4(a in any::<i32>(), b in any::<i32>()) {
            let sum = word_to_digits(add_mod4(a as u32, b as u32) as i32);
            for ((s, x), y) in sum.into_iter().zip(word_to_digits(a)).zip(word_to_digits(b)) {
                prop_assert_eq!(s, (x + y) % 4);
            }
        }

        #[test]
        fn roundtrip(word in any::<i32>()) {
            prop_assert_eq!(digits_to_word(&word_to_digits(word)), word);
        }

        #[test]
        fn max_digit_matches_digit_scan(word in any::<i32>(), sparsify in any::<i32>()) {
            // Masks thin the word out so digits 0, 1 and 2 lead too.
            for w in [word, word & sparsify, word & sparsify & 0x2222_2222, word & 0x1111_1111] {
                let scanned = word_to_digits(w).into_iter().max().unwrap_or(0);
                prop_assert_eq!(max_digit(w), scanned);
            }
        }

        #[test]
        fn nary_column_addition_matches_wrapping_sum(words in prop::collection::vec(any::<i32>(), 1..32)) {
            let mut partials = [0i64; DIGITS_PER_WORD];
            for &word in &words {
                let digits = word_to_digits(word);
                for (partial, digit) in partials.iter_mut().zip(digits) {
                    *partial += i64::from(digit);
                }
            }
            let expect = words.iter().fold(0i32, |acc, &w| acc.wrapping_add(w));
            prop_assert_eq!(combine_partial_sums(&partials), expect);
        }

        #[test]
        fn column_subtraction_matches_wrapping_sub(a in any::<i32>(), b in any::<i32>()) {
            // Subtrahend digits drain current: partial = digit(a) - digit(b).
            let da = word_to_digits(a);
            let db = word_to_digits(b);
            let partials: Vec<i64> =
                da.iter().zip(db).map(|(&x, y)| i64::from(x) - i64::from(y)).collect();
            prop_assert_eq!(combine_partial_sums(&partials), a.wrapping_sub(b));
        }

        #[test]
        fn digit_products_match_multiplication(a in any::<i32>(), b in -65536i32..65536) {
            // Streaming multiplicand chunks: Σᵢⱼ dᵢ(a)·dⱼ(b)·4^(i+j) = a·b.
            // Model per bit-line i the partial Σⱼ dᵢ(a)·dⱼ(b)·4ʲ.
            let da = word_to_digits(a);
            let db = word_to_digits(b);
            let partials: Vec<i64> = da
                .iter()
                .map(|&x| {
                    db.iter()
                        .enumerate()
                        .map(|(j, &y)| i64::from(x) * i64::from(y) * (1i64 << (2 * j)))
                        .sum()
                })
                .collect();
            let wide = i64::from(a).wrapping_mul(i64::from(b));
            prop_assert_eq!(combine_partial_sums(&partials), wide as u32 as i32);
        }
    }
}
