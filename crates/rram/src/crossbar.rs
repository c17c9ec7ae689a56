//! The 128×128 crossbar of 2-bit resistive cells, stored as the words it
//! holds.
//!
//! §2.3's 4's-complement digits *are* the base-4 rendering of the
//! two's-complement bit pattern, so a row of eight 32-bit words already is
//! its 128 cell levels: cell `(row, col)` is bits `2·(col % 16)` and
//! `2·(col % 16) + 1` of word `col / 16`. The crossbar stores only the
//! programmed words; a read senses them whole, applying cell and line
//! faults as word masks, and the analog model derives digits from what
//! it read.

use crate::digits::{self, DIGITS_PER_WORD};
use crate::fault::FaultMap;
use imp_isa::{RowMask, ARRAY_COLS, ARRAY_ROWS, LANES};
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
/// physically ignores programming pulses), [`Crossbar::read_row`] returns
/// what the faulty bit-lines sense, a row at a time through the map's
/// word masks, and [`Crossbar::integrity_scan`] performs the
/// spare-checksum-row residue check described in [`crate::fault`].
/// Without a fault map a read returns the stored words.
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

    /// Reads all eight lanes of `row` as its bit-lines sense them: the
    /// programmed words, or [`FaultMap::sense`] of them when a fault map
    /// is installed. [`Crossbar::for_each_read`] is the same read over a
    /// row mask; nothing else reads the programmed words.
    #[inline]
    pub fn read_row(&self, row: usize) -> [i32; LANES] {
        match self.faults.as_deref() {
            None => self.words[row],
            Some(map) => map.sense(row, &self.words[row], self.writes[row]),
        }
    }

    /// Calls `f` with each row of `rows`, in ascending order, as
    /// [`Crossbar::read_row`] reads it. The fault-map test is made once
    /// per call, not once per row, which keeps the `add`/`sub` and `dot`
    /// fast paths' reads as fast as a direct word read.
    #[inline]
    pub fn for_each_read(&self, rows: RowMask, mut f: impl FnMut(&[i32; LANES])) {
        match self.faults.as_deref() {
            None => rows.rows().for_each(|row| f(&self.words[row])),
            Some(map) => rows
                .rows()
                .for_each(|row| f(&map.sense(row, &self.words[row], self.writes[row]))),
        }
    }

    /// The spare-checksum-row integrity check: per column, the residue
    /// (mod 4) of the digits the bit-line reads back is compared against
    /// the residue of the programmed digits (which the write datapath
    /// accumulated into the spare row). Returns the mismatching columns —
    /// empty means no detectable corruption. Corruptions that cancel
    /// mod 4 within a column alias to "clean"; that is inherent to
    /// residue checks. Both residues accumulate a word at a time, sixteen
    /// columns per digit-wise add.
    ///
    /// Without a fault map the scan is trivially clean and free.
    pub fn integrity_scan(&self) -> Vec<usize> {
        let Some(map) = self.faults.as_deref() else {
            return Vec::new();
        };
        let mut intended = [0u32; LANES];
        let mut sensed = [0u32; LANES];
        for (row, words) in self.words.iter().enumerate() {
            let read = map.sense(row, words, self.writes[row]);
            for lane in 0..LANES {
                intended[lane] = digits::add_mod4(intended[lane], words[lane] as u32);
                sensed[lane] = digits::add_mod4(sensed[lane], read[lane] as u32);
            }
        }
        let diff: [i32; LANES] = std::array::from_fn(|l| (intended[l] ^ sensed[l]) as i32);
        (0..ARRAY_COLS)
            .filter(|&col| digits::digit(diff[col / DIGITS_PER_WORD], col % DIGITS_PER_WORD) != 0)
            .collect()
    }

    /// Writes all eight lanes of `row` as a single row write.
    pub fn write_row(&mut self, row: usize, words: &[i32; LANES]) {
        self.words[row] = *words;
        // One write pulse programs the whole row.
        self.writes[row] += 1;
    }

    /// Writes selected lanes of `row` (selective move), a single row write.
    pub fn write_row_masked(&mut self, row: usize, words: &[i32; LANES], lane_mask: u8) {
        self.words[row] = crate::select_lanes(&self.words[row], words, lane_mask);
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
        xb.write_row_masked(5, &[-123_456; LANES], 1 << 3);
        assert_eq!(xb.read_row(5)[3], -123_456);
        // Neighbouring lanes untouched.
        assert_eq!(xb.read_row(5)[2], 0);
        assert_eq!(xb.read_row(5)[4], 0);
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
        xb.write_row(0, &[i32::MIN, 0, 0, 0, 0, 0, 0, i32::MAX]);
        for word in xb.read_row(0) {
            assert!(digits::word_to_digits(word).iter().all(|&d| d < 4));
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
        xb.write_row_masked(100, &[77; LANES], 1 << 2);
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
            // A clean read returns the last words programmed per lane, so
            // every cell senses its programmed digit.
            let (xb, programmed) = random_crossbar(seed, 40);
            for (row, words) in programmed.iter().enumerate() {
                let read = xb.read_row(row);
                for col in 0..ARRAY_COLS {
                    let lane = col / DIGITS_PER_WORD;
                    prop_assert_eq!(
                        digits::digit(read[lane], col % DIGITS_PER_WORD),
                        digits::word_to_digits(words[lane])[col % DIGITS_PER_WORD]
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
            let (mut xb, programmed) = random_crossbar(seed, 60);
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
            // Reference: classify each cell from the map alone. At the
            // row's write count, a cell that reads the same digit from
            // all-zero and all-ones rows is faulty with that digit; any
            // other cell reads its programmed digit. Recompute every read
            // and both column residues digit by digit from that.
            let mut intended = [0u32; ARRAY_COLS];
            let mut read_back = [0u32; ARRAY_COLS];
            for (row, words) in programmed.iter().enumerate() {
                let writes = xb.row_writes(row);
                let zeros = map.sense(row, &[0; LANES], writes);
                let ones = map.sense(row, &[-1; LANES], writes);
                for lane in 0..LANES {
                    let stored = digits::word_to_digits(words[lane]);
                    let (z, o) = (digits::word_to_digits(zeros[lane]), digits::word_to_digits(ones[lane]));
                    let sensed: [u8; DIGITS_PER_WORD] =
                        std::array::from_fn(|i| if z[i] == o[i] { z[i] } else { stored[i] });
                    prop_assert_eq!(xb.read_row(row)[lane], digits::digits_to_word(&sensed));
                    for i in 0..DIGITS_PER_WORD {
                        intended[lane * DIGITS_PER_WORD + i] += u32::from(stored[i]);
                        read_back[lane * DIGITS_PER_WORD + i] += u32::from(sensed[i]);
                    }
                }
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
            let (mut xb, _) = random_crossbar(seed, 30);
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

    /// A crossbar with `writes` random row and masked writes (rows may be
    /// written more than once, for endurance wear-out), and the words it
    /// was programmed with, tracked lane by lane.
    fn random_crossbar(seed: u64, writes: usize) -> (Crossbar, Vec<[i32; LANES]>) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut xb = Crossbar::new();
        let mut programmed = vec![[0; LANES]; ARRAY_ROWS];
        for _ in 0..writes {
            let row = rng.gen_range(0..ARRAY_ROWS);
            let words: [i32; LANES] = std::array::from_fn(|_| rng.gen::<u32>() as i32);
            let lane_mask = match rng.gen_range(0..3) {
                0 => u8::MAX,
                1 => 1 << rng.gen_range(0..LANES),
                _ => rng.gen::<u32>() as u8,
            };
            if lane_mask == u8::MAX {
                xb.write_row(row, &words);
            } else {
                xb.write_row_masked(row, &words, lane_mask);
            }
            for lane in (0..LANES).filter(|lane| (lane_mask >> lane) & 1 == 1) {
                programmed[row][lane] = words[lane];
            }
        }
        (xb, programmed)
    }
}
