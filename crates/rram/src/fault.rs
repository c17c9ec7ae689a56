//! Structured ReRAM fault model: stuck cells, dead rows/bit-lines, ADC
//! faults, and endurance-driven wear-out.
//!
//! The paper operates its arrays at a conservative 2-level cell precisely
//! because ReRAM suffers "strong non-uniform analog resistance due to
//! process variation" (§6) and bounded write endurance (~10¹¹ writes,
//! §7.5). This module gives those failure modes a concrete, seedable
//! shape so the simulator can study detection and recovery:
//!
//! * **Stuck-at cells** — a cell frozen in its highest-resistance state
//!   reads digit 0 ("stuck-at-0"); one frozen in its lowest-resistance
//!   state reads the maximum digit ("stuck-at-1" in memory-test jargon,
//!   digit 3 for 2-bit cells).
//! * **Dead rows / dead bit-lines** — a broken word-line driver or
//!   bit-line contact takes out the whole line; reads along it return 0.
//! * **ADC offset** — a miscalibrated converter that biases *every*
//!   conversion of the array by ±1 LSB (a permanent peripheral fault).
//! * **Transient ADC glitches** — individual conversions misread by
//!   ±1 LSB with some probability; unlike the calibrated-out
//!   [`AnalogSpec::noise_prob`](crate::AnalogSpec) operating noise, these
//!   are treated as *faults*: the periphery detects them (see below) and
//!   the runtime may retry.
//! * **Endurance wear-out** — a row whose write count exceeds the
//!   configured endurance limit stops accepting programming pulses and
//!   reads as a dead row thereafter. Driven by the crossbar's per-row
//!   write counters, the same ones behind the §7.5 lifetime model.
//!
//! Stuck cells, dead lines and wear act on reads alone, and each either
//! passes a cell's programmed digit or replaces it with a constant. So a
//! [`FaultMap`] holds them as two word masks per row, and
//! [`FaultMap::sense`] applies them to a whole row in a few word
//! operations. The ADC faults act on conversions, one at a time.
//!
//! Detection model: each array keeps one *spare checksum row* holding the
//! per-column sum (mod 4) of the programmed digits, updated by the write
//! datapath from the data being written — so the checksum always encodes
//! the *intended* contents. An integrity scan re-derives the column sums
//! from what the bit-lines actually read back and flags any column whose
//! residue disagrees. ADC faults never corrupt stored data, so they are
//! detected differently: conversions are duplicated on the checksum
//! column, and a disagreement latches a sticky fault flag on the array.
//! Both mechanisms are residue checks, with the usual aliasing caveat:
//! two corruptions in one column that cancel mod 4 go unnoticed.
//!
//! Everything is generated deterministically from a seed, so a given
//! (seed, rates) pair names one reproducible broken chip.

use crate::digits::DIGITS_PER_WORD;
use imp_isa::{ARRAY_COLS, ARRAY_ROWS, LANES};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Per-category fault probabilities used to generate a [`FaultMap`].
///
/// All rates are probabilities per *site* (cell, row, column, or array as
/// noted). [`FaultRates::none`] disables everything.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRates {
    /// Per-cell probability of being stuck at digit 0 (highest-resistance
    /// state, cell never forms).
    pub stuck_at_zero: f64,
    /// Per-cell probability of being stuck at the maximum digit (lowest
    /// resistance, cell never resets).
    pub stuck_at_max: f64,
    /// Per-row probability that the word line is dead (reads as 0).
    pub dead_row: f64,
    /// Per-column probability that the bit line is dead (reads as 0).
    pub dead_col: f64,
    /// Per-array probability of a permanent ±1 LSB ADC offset.
    pub adc_offset: f64,
    /// Per-conversion probability of a transient ±1 LSB ADC glitch.
    pub transient_adc: f64,
    /// Write-endurance limit per row; a row written more times than this
    /// dies. `None` disables endurance wear-out (the
    /// [`CELL_ENDURANCE_WRITES`](crate::CELL_ENDURANCE_WRITES) figure is
    /// ~10¹¹ — far beyond any single simulated run — so tests set small
    /// values to exercise the mechanism).
    pub endurance_limit: Option<u64>,
}

impl FaultRates {
    /// No faults of any kind.
    pub fn none() -> Self {
        FaultRates {
            stuck_at_zero: 0.0,
            stuck_at_max: 0.0,
            dead_row: 0.0,
            dead_col: 0.0,
            adc_offset: 0.0,
            transient_adc: 0.0,
            endurance_limit: None,
        }
    }

    /// A uniform cell-fault profile: probability `p` per cell, split
    /// evenly between stuck-at-0 and stuck-at-max. Convenient for sweeps.
    pub fn cells(p: f64) -> Self {
        FaultRates {
            stuck_at_zero: p / 2.0,
            stuck_at_max: p / 2.0,
            ..FaultRates::none()
        }
    }
}

impl Default for FaultRates {
    fn default() -> Self {
        FaultRates::none()
    }
}

/// The concrete fault population of one physical array, generated
/// deterministically from a seed.
///
/// Stuck cells and dead lines are held as what they do to a read: per
/// row and lane, a `keep` mask of the bits the cells still pass through
/// and a `force` mask of the bits stuck cells drive high. A healthy cell
/// keeps both of its bits, a stuck-at-0 cell keeps none, a stuck-at-max
/// cell keeps none and forces both, and a cell on a dead line keeps and
/// forces nothing (a dead line beats a stuck cell on it).
#[derive(Debug, Clone, PartialEq)]
pub struct FaultMap {
    /// Per row and lane, the programmed bits a read passes through.
    keep: Vec<[u32; LANES]>,
    /// Per row and lane, the bits stuck-at-max cells read as 1.
    force: Vec<[u32; LANES]>,
    /// Permanent ADC conversion offset in LSBs (0 = calibrated).
    adc_offset: i64,
    /// Per-conversion transient glitch probability.
    transient_adc: f64,
    /// Row write-endurance limit, if wear-out is modeled.
    endurance_limit: Option<u64>,
    /// The generation seed (re-used to derive per-attempt transient
    /// streams).
    seed: u64,
}

/// The lane of bit-line `col` and the two bits its cells occupy there.
fn cell_bits(col: usize) -> (usize, u32) {
    let shift = 2 * (col % DIGITS_PER_WORD);
    (col / DIGITS_PER_WORD, 0b11 << shift)
}

impl FaultMap {
    /// Samples a fault population from `rates`, fully determined by
    /// `seed`.
    pub fn generate(seed: u64, rates: &FaultRates) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
        let mut keep = vec![[u32::MAX; LANES]; ARRAY_ROWS];
        let mut force = vec![[0; LANES]; ARRAY_ROWS];
        let cell_rate = rates.stuck_at_zero + rates.stuck_at_max;
        if cell_rate > 0.0 {
            for (keep, force) in keep.iter_mut().zip(&mut force) {
                for col in 0..ARRAY_COLS {
                    let draw: f64 = rng.gen();
                    if draw < cell_rate {
                        let (lane, bits) = cell_bits(col);
                        keep[lane] &= !bits;
                        if draw >= rates.stuck_at_zero {
                            force[lane] |= bits; // max digit for 2-bit cells
                        }
                    }
                }
            }
        }
        for (keep, force) in keep.iter_mut().zip(&mut force) {
            if rates.dead_row > 0.0 && rng.gen::<f64>() < rates.dead_row {
                *keep = [0; LANES];
                *force = [0; LANES];
            }
        }
        if rates.dead_col > 0.0 {
            for col in 0..ARRAY_COLS {
                if rng.gen::<f64>() < rates.dead_col {
                    let (lane, bits) = cell_bits(col);
                    for (keep, force) in keep.iter_mut().zip(&mut force) {
                        keep[lane] &= !bits;
                        force[lane] &= !bits;
                    }
                }
            }
        }
        let adc_offset = if rates.adc_offset > 0.0 && rng.gen::<f64>() < rates.adc_offset {
            if rng.gen::<bool>() {
                1
            } else {
                -1
            }
        } else {
            0
        };
        FaultMap {
            keep,
            force,
            adc_offset,
            transient_adc: rates.transient_adc,
            endurance_limit: rates.endurance_limit,
            seed,
        }
    }

    /// `true` when the map contains no fault of any kind (transient
    /// probability 0 and no endurance limit included). Installing it
    /// would change nothing, so the simulator keeps no clean map: a
    /// fault-free array is one without a map.
    pub fn is_clean(&self) -> bool {
        self.adc_offset == 0
            && self.transient_adc == 0.0
            && self.endurance_limit.is_none()
            && self
                .keep
                .iter()
                .all(|row| row.iter().all(|&k| k == u32::MAX))
            && self.force.iter().all(|row| row.iter().all(|&f| f == 0))
    }

    /// The permanent ADC offset in LSBs (0 when calibrated).
    pub fn adc_offset(&self) -> i64 {
        self.adc_offset
    }

    /// Per-conversion transient ADC glitch probability.
    pub fn transient_adc(&self) -> f64 {
        self.transient_adc
    }

    /// The generation seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The words `row` reads back when `words` are programmed into it and
    /// it has seen `row_writes` write pulses: `(word & keep) | force` per
    /// lane, or all zero once the row is worn out. Kept out of line:
    /// inlined into every [`Crossbar::read_row`](crate::Crossbar::read_row)
    /// caller, it slowed the clean `dot` fast path by ≈10%.
    #[inline(never)]
    pub fn sense(&self, row: usize, words: &[i32; LANES], row_writes: u64) -> [i32; LANES] {
        if self.endurance_limit.is_some_and(|limit| row_writes > limit) {
            return [0; LANES]; // a worn-out row no longer holds programmed data
        }
        let (keep, force) = (&self.keep[row], &self.force[row]);
        std::array::from_fn(|lane| ((words[lane] as u32 & keep[lane]) | force[lane]) as i32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The digit `row` reads at bit-line `col` when every cell of the row
    /// is programmed to `digit`, after `row_writes` write pulses.
    fn sensed_digit(map: &FaultMap, row: usize, col: usize, digit: u8, row_writes: u64) -> u8 {
        let word = i32::from_ne_bytes([0x55 * digit; 4]);
        let sensed = map.sense(row, &[word; LANES], row_writes);
        crate::digits::digit(sensed[col / DIGITS_PER_WORD], col % DIGITS_PER_WORD)
    }

    /// Cells that read the same digit whatever is programmed into them,
    /// found by sensing all-zero and all-ones rows.
    fn faulty_cells(map: &FaultMap) -> usize {
        (0..ARRAY_ROWS)
            .map(|row| {
                let zeros = map.sense(row, &[0; LANES], 0);
                let ones = map.sense(row, &[-1; LANES], 0);
                zeros
                    .iter()
                    .zip(&ones)
                    .map(|(&z, &o)| {
                        let same = !(z ^ o) as u32;
                        (same & (same >> 1) & 0x5555_5555).count_ones() as usize
                    })
                    .sum::<usize>()
            })
            .sum()
    }

    #[test]
    fn none_generates_clean_map() {
        let map = FaultMap::generate(7, &FaultRates::none());
        assert!(map.is_clean());
        assert_eq!(faulty_cells(&map), 0);
        assert_eq!(map.adc_offset(), 0);
    }

    #[test]
    fn generation_is_deterministic() {
        let rates = FaultRates {
            stuck_at_zero: 0.01,
            stuck_at_max: 0.01,
            ..FaultRates::none()
        };
        let a = FaultMap::generate(42, &rates);
        let b = FaultMap::generate(42, &rates);
        assert_eq!(a, b);
        let c = FaultMap::generate(43, &rates);
        assert_ne!(a, c, "different seeds must draw different populations");
    }

    #[test]
    fn cell_rate_lands_near_expectation() {
        let map = FaultMap::generate(1, &FaultRates::cells(0.01));
        let n = faulty_cells(&map);
        let expect = (ARRAY_ROWS * ARRAY_COLS) as f64 * 0.01;
        assert!(
            (n as f64) > expect * 0.5 && (n as f64) < expect * 2.0,
            "{n} stuck cells vs expectation {expect}"
        );
    }

    #[test]
    fn dead_lines_read_zero() {
        let rates = FaultRates {
            dead_row: 1.0,
            ..FaultRates::none()
        };
        let map = FaultMap::generate(5, &rates);
        assert_eq!(sensed_digit(&map, 17, 3, 2, 0), 0);
    }

    #[test]
    fn endurance_kills_overwritten_rows() {
        let rates = FaultRates {
            endurance_limit: Some(10),
            ..FaultRates::none()
        };
        let map = FaultMap::generate(5, &rates);
        assert_eq!(
            sensed_digit(&map, 0, 0, 3, 10),
            3,
            "at the limit the row still works"
        );
        assert_eq!(
            sensed_digit(&map, 0, 0, 3, 11),
            0,
            "beyond the limit it is dead"
        );
    }

    #[test]
    fn stuck_cells_override_stored_digits() {
        let rates = FaultRates {
            stuck_at_max: 1.0,
            ..FaultRates::none()
        };
        let map = FaultMap::generate(9, &rates);
        assert_eq!(sensed_digit(&map, 0, 0, 1, 0), 3);
    }

    #[test]
    fn masks_hold_the_drawn_population() {
        // Redraw each population cell by cell, in generation order, into
        // a dense table (dead lines over stuck cells), and check every
        // cell senses as the table says for every programmed digit.
        let rates = FaultRates {
            stuck_at_zero: 0.02,
            stuck_at_max: 0.03,
            dead_row: 0.05,
            dead_col: 0.05,
            ..FaultRates::none()
        };
        for seed in 0..4 {
            let map = FaultMap::generate(seed, &rates);
            let mut rng = StdRng::seed_from_u64(seed ^ 0x9E37_79B9_7F4A_7C15);
            let mut table = [[None; ARRAY_COLS]; ARRAY_ROWS];
            for row in table.iter_mut() {
                for cell in row.iter_mut() {
                    let draw: f64 = rng.gen();
                    if draw < rates.stuck_at_zero {
                        *cell = Some(0);
                    } else if draw < rates.stuck_at_zero + rates.stuck_at_max {
                        *cell = Some(3);
                    }
                }
            }
            for row in table.iter_mut() {
                if rng.gen::<f64>() < rates.dead_row {
                    *row = [Some(0); ARRAY_COLS];
                }
            }
            for col in 0..ARRAY_COLS {
                if rng.gen::<f64>() < rates.dead_col {
                    table.iter_mut().for_each(|row| row[col] = Some(0));
                }
            }
            for (row, cells) in table.iter().enumerate() {
                for (col, &cell) in cells.iter().enumerate() {
                    for digit in 0..4 {
                        let expect = cell.unwrap_or(digit);
                        assert_eq!(sensed_digit(&map, row, col, digit, 0), expect);
                    }
                }
            }
        }
    }
}
