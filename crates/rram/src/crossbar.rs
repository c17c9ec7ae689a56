//! The 128×128 crossbar of 2-bit resistive cells, stored as the words it
//! holds.
//!
//! §2.3's 4's-complement digits *are* the base-4 rendering of the
//! two's-complement bit pattern, so a row of eight 32-bit words already is
//! its 128 cell levels: cell `(row, col)` is bits `2·(col % 16)` and
//! `2·(col % 16) + 1` of word `col / 16`. The crossbar stores only the
//! programmed words and derives a cell's digit where the analog model
//! senses it.

use crate::digits::{self, DIGITS_PER_WORD};
use crate::fault::FaultMap;
use imp_isa::{ARRAY_COLS, ARRAY_ROWS, LANES};
use std::sync::Arc;

/// One ReRAM crossbar: 128 word-lines × 128 bit-lines of 2-bit cells.
///
/// A row stores eight 32-bit words (SIMD lanes); lane `l` occupies bit-lines
/// `l*16 .. (l+1)*16`, one base-4 digit per bit-line, least-significant
/// digit on the lowest-numbered bit-line.
///
/// The crossbar tracks per-row write counts for the §7.5 lifetime study.
///
/// A shared [`FaultMap`] may be installed to model broken cells and
/// lines: writes then record the *intended* words (a stuck cell
/// physically ignores programming pulses), reads return what the faulty
/// bit-lines actually sense, digit by digit, and
/// [`Crossbar::integrity_scan`] performs the spare-checksum-row residue
/// check described in [`crate::fault`]. Without a fault map a read
/// returns the stored words.
#[derive(Debug, Clone)]
pub struct Crossbar {
    /// `words[row][lane]` is the *programmed* word. With a fault map
    /// installed this is the intent; reads apply the faults.
    words: Vec<[i32; LANES]>,
    /// Writes performed to each row since construction.
    writes: Vec<u64>,
    /// Installed fault population, if any, shared with every array on the
    /// same physical slot (the clean path pays one pointer test).
    faults: Option<Arc<FaultMap>>,
}

impl Crossbar {
    /// Creates a zeroed crossbar.
    pub fn new() -> Self {
        Crossbar {
            words: vec![[0; LANES]; ARRAY_ROWS],
            writes: vec![0; ARRAY_ROWS],
            faults: None,
        }
    }

    /// Installs a fault population. Reads from here on return what the
    /// broken array senses; the programmed contents are untouched.
    pub fn install_faults(&mut self, map: Arc<FaultMap>) {
        self.faults = Some(map);
    }

    /// The installed fault map, if any.
    pub fn fault_map(&self) -> Option<&FaultMap> {
        self.faults.as_deref()
    }

    /// Restores the crossbar to the all-zero freshly-constructed state by
    /// zeroing only the rows that have been written, and drops any
    /// installed fault map. Reuses the existing allocations — this is the
    /// array-pool reset path, equivalent to (but much cheaper than)
    /// `*self = Crossbar::new()` because kernels touch a handful of rows
    /// out of 128.
    pub fn reset_dirty(&mut self) {
        for (row, writes) in self.writes.iter_mut().enumerate() {
            if *writes > 0 {
                self.words[row] = [0; LANES];
                *writes = 0;
            }
        }
        self.faults = None;
    }

    /// Direct view of the *programmed* words of `row`, bypassing fault
    /// sensing. Only equivalent to [`Crossbar::read_row`] when no fault
    /// map is installed — the fault-free fast path's precondition.
    pub fn programmed_words(&self, row: usize) -> &[i32; LANES] {
        &self.words[row]
    }

    /// Reads the 2-bit digit at (`row`, `col`) as the bit-line senses it
    /// (faults applied).
    ///
    /// # Panics
    /// Panics if `row` or `col` is out of range.
    pub fn digit(&self, row: usize, col: usize) -> u8 {
        let stored = digits::digit(
            self.words[row][col / DIGITS_PER_WORD],
            col % DIGITS_PER_WORD,
        );
        match &self.faults {
            None => stored,
            Some(map) => map.effective_digit(row, col, stored, self.writes[row]),
        }
    }

    /// Reads the word stored in `lane` of `row`: the programmed word when
    /// no fault map is installed, otherwise the digits the faulty
    /// bit-lines sense.
    ///
    /// # Panics
    /// Panics if `row >= ARRAY_ROWS` or `lane >= LANES`.
    pub fn read_word(&self, row: usize, lane: usize) -> i32 {
        let word = self.words[row][lane];
        let Some(map) = self.faults.as_deref() else {
            return word;
        };
        let base = lane * DIGITS_PER_WORD;
        let mut bits: u32 = 0;
        for digit_pos in 0..DIGITS_PER_WORD {
            let stored = digits::digit(word, digit_pos);
            let sensed = map.effective_digit(row, base + digit_pos, stored, self.writes[row]);
            bits |= u32::from(sensed) << (2 * digit_pos);
        }
        bits as i32
    }

    /// The spare-checksum-row integrity check: per column, the residue
    /// (mod 4) of the digits the bit-line reads back is compared against
    /// the residue of the programmed digits (which the write datapath
    /// accumulated into the spare row). Returns the mismatching columns —
    /// empty means no detectable corruption. Corruptions that cancel
    /// mod 4 within a column alias to "clean"; that is inherent to
    /// residue checks.
    ///
    /// Without a fault map the scan is trivially clean and free.
    pub fn integrity_scan(&self) -> Vec<usize> {
        let Some(map) = self.faults.as_deref() else {
            return Vec::new();
        };
        let mut intended = [0u32; ARRAY_COLS];
        let mut sensed = [0u32; ARRAY_COLS];
        for (row, words) in self.words.iter().enumerate() {
            for col in 0..ARRAY_COLS {
                let stored = digits::digit(words[col / DIGITS_PER_WORD], col % DIGITS_PER_WORD);
                intended[col] += u32::from(stored);
                sensed[col] += u32::from(map.effective_digit(row, col, stored, self.writes[row]));
            }
        }
        (0..ARRAY_COLS)
            .filter(|&col| intended[col] % 4 != sensed[col] % 4)
            .collect()
    }

    /// Reads all eight lanes of `row`.
    pub fn read_row(&self, row: usize) -> [i32; LANES] {
        if self.faults.is_none() {
            return self.words[row];
        }
        std::array::from_fn(|lane| self.read_word(row, lane))
    }

    /// Writes one word to `lane` of `row`, counting a row write.
    ///
    /// # Panics
    /// Panics if `row` or `lane` is out of range.
    pub fn write_word(&mut self, row: usize, lane: usize, word: i32) {
        self.words[row][lane] = word;
        self.writes[row] += 1;
    }

    /// Writes all eight lanes of `row` as a single row write.
    pub fn write_row(&mut self, row: usize, words: &[i32; LANES]) {
        self.words[row] = *words;
        // One write pulse programs the whole row.
        self.writes[row] += 1;
    }

    /// Writes selected lanes of `row` (selective move), a single row write.
    pub fn write_row_masked(&mut self, row: usize, words: &[i32; LANES], lane_mask: u8) {
        let stored = &mut self.words[row];
        for (lane, &word) in words.iter().enumerate() {
            if (lane_mask >> lane) & 1 == 1 {
                stored[lane] = word;
            }
        }
        self.writes[row] += 1;
    }

    /// Number of write pulses row `row` has received.
    pub fn row_writes(&self, row: usize) -> u64 {
        self.writes[row]
    }

    /// Total write pulses across all rows.
    pub fn total_writes(&self) -> u64 {
        self.writes.iter().sum()
    }
}

impl Default for Crossbar {
    fn default() -> Self {
        Crossbar::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn zeroed_on_construction() {
        let xb = Crossbar::new();
        for row in 0..ARRAY_ROWS {
            assert_eq!(xb.read_row(row), [0; LANES]);
        }
        assert_eq!(xb.total_writes(), 0);
    }

    #[test]
    fn word_roundtrip() {
        let mut xb = Crossbar::new();
        xb.write_word(5, 3, -123_456);
        assert_eq!(xb.read_word(5, 3), -123_456);
        // Neighbouring lanes untouched.
        assert_eq!(xb.read_word(5, 2), 0);
        assert_eq!(xb.read_word(5, 4), 0);
    }

    #[test]
    fn row_roundtrip_counts_one_write() {
        let mut xb = Crossbar::new();
        let words = [1, -2, 3, -4, 5, -6, 7, -8];
        xb.write_row(9, &words);
        assert_eq!(xb.read_row(9), words);
        assert_eq!(xb.row_writes(9), 1);
    }

    #[test]
    fn masked_write() {
        let mut xb = Crossbar::new();
        xb.write_row(0, &[9; LANES]);
        xb.write_row_masked(0, &[7; LANES], 0b0000_0101);
        assert_eq!(xb.read_row(0), [7, 9, 7, 9, 9, 9, 9, 9]);
        assert_eq!(xb.row_writes(0), 2);
    }

    #[test]
    fn digits_are_two_bit() {
        let mut xb = Crossbar::new();
        xb.write_word(0, 0, i32::MIN);
        xb.write_word(0, 7, i32::MAX);
        for col in 0..ARRAY_COLS {
            assert!(xb.digit(0, col) < 4);
        }
    }

    #[test]
    fn wear_statistics() {
        let mut xb = Crossbar::new();
        for _ in 0..5 {
            xb.write_row(1, &[0; LANES]);
        }
        xb.write_row(2, &[0; LANES]);
        assert_eq!(xb.total_writes(), 6);
    }

    #[test]
    fn clean_fault_map_changes_nothing() {
        use crate::fault::{FaultMap, FaultRates};
        let mut xb = Crossbar::new();
        xb.write_row(3, &[1, -2, 3, -4, 5, -6, 7, -8]);
        let plain = xb.read_row(3);
        xb.install_faults(Arc::new(FaultMap::generate(11, &FaultRates::none())));
        assert_eq!(xb.read_row(3), plain);
        assert!(xb.integrity_scan().is_empty());
    }

    #[test]
    fn stuck_cells_corrupt_reads_and_fail_the_scan() {
        use crate::fault::{FaultMap, FaultRates};
        let mut xb = Crossbar::new();
        xb.install_faults(Arc::new(FaultMap::generate(
            11,
            &FaultRates {
                stuck_at_max: 0.02,
                ..FaultRates::none()
            },
        )));
        // All-zero programmed data: any stuck-at-max cell shows.
        let corrupted = (0..ARRAY_ROWS).any(|r| xb.read_row(r) != [0; LANES]);
        assert!(corrupted, "2% stuck-at-max cells must corrupt some word");
        let bad = xb.integrity_scan();
        assert!(!bad.is_empty(), "residue scan must flag the stuck columns");
        assert!(bad.iter().all(|&c| c < ARRAY_COLS));
    }

    #[test]
    fn scan_misses_nothing_it_could_see() {
        // A fault that never changes a read never fails the scan:
        // stuck-at-0 over all-zero data.
        use crate::fault::{FaultMap, FaultRates};
        let mut xb = Crossbar::new();
        xb.install_faults(Arc::new(FaultMap::generate(
            5,
            &FaultRates {
                stuck_at_zero: 0.05,
                ..FaultRates::none()
            },
        )));
        assert!(xb.integrity_scan().is_empty());
        for r in 0..ARRAY_ROWS {
            assert_eq!(xb.read_row(r), [0; LANES]);
        }
    }

    #[test]
    fn endurance_death_via_write_counters() {
        use crate::fault::{FaultMap, FaultRates};
        let mut xb = Crossbar::new();
        xb.install_faults(Arc::new(FaultMap::generate(
            1,
            &FaultRates {
                endurance_limit: Some(3),
                ..FaultRates::none()
            },
        )));
        for _ in 0..3 {
            xb.write_row(7, &[42; LANES]);
        }
        assert_eq!(xb.read_row(7), [42; LANES], "row healthy at the limit");
        assert!(xb.integrity_scan().is_empty());
        xb.write_row(7, &[42; LANES]);
        assert_eq!(xb.read_row(7), [0; LANES], "fourth write kills the row");
        assert!(
            !xb.integrity_scan().is_empty(),
            "worn row must fail the residue check"
        );
    }

    #[test]
    fn reset_dirty_restores_fresh_state() {
        use crate::fault::{FaultMap, FaultRates};
        let mut xb = Crossbar::new();
        xb.write_row(3, &[1, -2, 3, -4, 5, -6, 7, -8]);
        xb.write_word(100, 2, 77);
        xb.install_faults(Arc::new(FaultMap::generate(9, &FaultRates::none())));
        xb.reset_dirty();
        for row in 0..ARRAY_ROWS {
            assert_eq!(xb.read_row(row), [0; LANES]);
            assert_eq!(xb.row_writes(row), 0);
        }
        assert_eq!(xb.total_writes(), 0);
        assert!(xb.fault_map().is_none());
    }

    proptest! {
        #[test]
        fn any_row_roundtrips(words in prop::array::uniform8(any::<i32>()), row in 0usize..ARRAY_ROWS) {
            let mut xb = Crossbar::new();
            xb.write_row(row, &words);
            prop_assert_eq!(xb.read_row(row), words);
        }

        #[test]
        fn clean_digits_are_the_word_digits(seed in any::<u64>()) {
            let xb = random_crossbar(seed, 40);
            for row in 0..ARRAY_ROWS {
                for col in 0..ARRAY_COLS {
                    let word = xb.read_word(row, col / DIGITS_PER_WORD);
                    prop_assert_eq!(
                        xb.digit(row, col),
                        digits::word_to_digits(word)[col % DIGITS_PER_WORD]
                    );
                }
            }
        }

        #[test]
        fn faulty_reads_and_scan_match_per_digit_reference(
            seed in any::<u64>(),
            map_seed in any::<u64>(),
            endurance in 1u64..4,
        ) {
            let programmed = random_crossbar(seed, 60);
            let mut xb = programmed.clone();
            use crate::fault::FaultRates;
            let map = FaultMap::generate(
                map_seed,
                &FaultRates {
                    stuck_at_zero: 0.01,
                    stuck_at_max: 0.01,
                    dead_row: 0.02,
                    dead_col: 0.02,
                    endurance_limit: Some(endurance),
                    ..FaultRates::none()
                },
            );
            xb.install_faults(Arc::new(map.clone()));
            // Reference: sense every digit of the programmed word through
            // the map, then recombine.
            let sensed = |row: usize, lane: usize| -> [u8; DIGITS_PER_WORD] {
                let stored = digits::word_to_digits(programmed.read_word(row, lane));
                std::array::from_fn(|i| {
                    let col = lane * DIGITS_PER_WORD + i;
                    map.effective_digit(row, col, stored[i], xb.row_writes(row))
                })
            };
            let mut intended = [0u32; ARRAY_COLS];
            let mut read_back = [0u32; ARRAY_COLS];
            for row in 0..ARRAY_ROWS {
                for lane in 0..LANES {
                    let digits_sensed = sensed(row, lane);
                    prop_assert_eq!(
                        xb.read_word(row, lane),
                        digits::digits_to_word(&digits_sensed)
                    );
                    let stored = digits::word_to_digits(programmed.read_word(row, lane));
                    for i in 0..DIGITS_PER_WORD {
                        intended[lane * DIGITS_PER_WORD + i] += u32::from(stored[i]);
                        read_back[lane * DIGITS_PER_WORD + i] += u32::from(digits_sensed[i]);
                    }
                }
                prop_assert_eq!(xb.read_row(row), std::array::from_fn(|l| xb.read_word(row, l)));
            }
            let expect: Vec<usize> = (0..ARRAY_COLS)
                .filter(|&col| intended[col] % 4 != read_back[col] % 4)
                .collect();
            prop_assert_eq!(xb.integrity_scan(), expect);
        }

        #[test]
        fn masked_writes_and_reset_round_trip(
            seed in any::<u64>(),
            words in prop::array::uniform8(any::<i32>()),
            row in 0usize..ARRAY_ROWS,
            lane_mask in any::<u8>(),
        ) {
            let mut xb = random_crossbar(seed, 30);
            let before = xb.read_row(row);
            let writes = xb.row_writes(row);
            xb.write_row_masked(row, &words, lane_mask);
            let expect: [i32; LANES] = std::array::from_fn(|lane| {
                if (lane_mask >> lane) & 1 == 1 { words[lane] } else { before[lane] }
            });
            prop_assert_eq!(xb.read_row(row), expect);
            prop_assert_eq!(xb.row_writes(row), writes + 1);
            xb.reset_dirty();
            for r in 0..ARRAY_ROWS {
                prop_assert_eq!(xb.read_row(r), [0; LANES]);
                prop_assert_eq!(xb.row_writes(r), 0);
            }
        }
    }

    /// A crossbar with `writes` random row, word and masked writes (rows
    /// may be written more than once, for endurance wear-out).
    fn random_crossbar(seed: u64, writes: usize) -> Crossbar {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut xb = Crossbar::new();
        for _ in 0..writes {
            let row = rng.gen_range(0..ARRAY_ROWS);
            let words: [i32; LANES] = std::array::from_fn(|_| rng.gen::<u32>() as i32);
            match rng.gen_range(0..3) {
                0 => xb.write_row(row, &words),
                1 => xb.write_word(row, rng.gen_range(0..LANES), words[0]),
                _ => xb.write_row_masked(row, &words, rng.gen::<u32>() as u8),
            }
        }
        xb
    }
}
