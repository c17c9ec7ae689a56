//! LUT table construction for the iterative-algorithm seeds (§5.1).
//!
//! The cluster LUT has 512 entries of 8 bits. The compiler carves it into
//! variable-size tables (64 entries for Newton–Raphson seeds, whose error
//! is squared away by the iterations; 128 for direct approximations) so a
//! single IB can lower several distinct complex operations — Black–Scholes
//! needs two reciprocal tables, an rsqrt table and two exponential tables.
//! Each table approximates a function over the operand's *declared
//! dynamic range* — this is where §2.3's range-analysis requirement pays
//! off: a tighter declared range yields a more accurate seed.

use crate::CompileError;
use imp_dfg::range::Interval;
use imp_rram::{Lut, LutKind};

/// Total LUT entries available per IB.
pub const LUT_CAPACITY: usize = 512;

/// Entries for Newton–Raphson seed tables (iterations square the seed
/// error away, so a coarse table suffices).
pub const SEED_TABLE_ENTRIES: usize = 64;

/// Entries for direct-approximation tables (exp, sigmoid).
pub const APPROX_TABLE_ENTRIES: usize = 128;

/// The function a table approximates.
#[derive(Debug, Clone, PartialEq)]
pub enum TableFn {
    /// Reciprocal seed `≈ 1/v`, stored as `round((1/v)·2^es)`.
    Reciprocal {
        /// Power-of-two output scale exponent `es`.
        scale: i32,
    },
    /// Reciprocal-square-root seed `≈ 1/√v`, stored as `round((1/√v)·2^es)`.
    Rsqrt {
        /// Power-of-two output scale exponent `es`.
        scale: i32,
    },
    /// Exponential `≈ e^v`, stored as `round(e^v·2^es)`.
    Exp {
        /// Power-of-two output scale exponent `es`.
        scale: i32,
    },
    /// Sigmoid `≈ 1/(1+e^−v)`, stored as `round(σ(v)·255)`.
    Sigmoid,
}

/// One carved table: function, input range and index mapping.
#[derive(Debug, Clone, PartialEq)]
pub struct SeedTable {
    /// Base entry index within the 512-entry LUT.
    pub base: usize,
    /// Number of bucket entries.
    pub entries: usize,
    /// What the entries approximate and at what output scale.
    pub func: TableFn,
    /// Input interval the 128 buckets cover.
    pub range: Interval,
    /// Raw-word right-shift that maps `(x_raw − lo_raw)` to a bucket
    /// index in `0..128`.
    pub index_shift: u8,
    /// `lo` as a raw fixed-point word (subtracted before indexing).
    pub lo_raw: i32,
}

impl SeedTable {
    /// The bucket midpoint value for entry `i`, in real units.
    pub fn bucket_mid(&self, i: usize, frac_bits: u8) -> f64 {
        let step = (1i64 << self.index_shift) as f64 / (1i64 << frac_bits) as f64;
        let lo = self.lo_raw as f64 / (1i64 << frac_bits) as f64;
        lo + (i as f64 + 0.5) * step
    }
}

/// Allocates carved tables within one IB's LUT and renders the final
/// [`Lut`] contents.
#[derive(Debug, Default)]
pub struct LutAllocator {
    tables: Vec<SeedTable>,
    next_base: usize,
}

impl LutAllocator {
    /// Creates an empty allocator.
    pub fn new() -> Self {
        LutAllocator::default()
    }

    /// Allocates (or reuses) a table of `entries` buckets for `func` over
    /// `range`.
    ///
    /// # Errors
    /// Returns [`CompileError::Unsupported`] when the 512-entry LUT is
    /// exhausted, and [`CompileError::BadRange`] for an empty or
    /// non-finite range, or one too wide to index with 32-bit shifts.
    pub fn allocate(
        &mut self,
        func: TableFn,
        range: Interval,
        frac_bits: u8,
        entries: usize,
    ) -> Result<SeedTable, CompileError> {
        let scale = (1i64 << frac_bits) as f64;
        let lo_raw = (range.lo * scale).floor() as i64;
        let span = ((range.hi * scale).ceil() as i64)
            .checked_add(1)
            .and_then(|hi_raw| hi_raw.checked_sub(lo_raw))
            .filter(|_| range.lo.is_finite() && range.hi.is_finite() && range.lo <= range.hi)
            .map(|span| span.max(1) as u64);
        // Smallest shift so the span maps into the bucket count; lanes
        // shift 32-bit words, so a range needing 32 or more has no table.
        let index_shift =
            span.and_then(|span| (0u8..32).find(|&shift| span >> shift <= entries as u64));
        let Some(index_shift) = index_shift else {
            return Err(CompileError::BadRange(format!(
                "seed table range [{}, {}] is not usable",
                range.lo, range.hi
            )));
        };
        // Reuse an identical existing table.
        if let Some(existing) = self
            .tables
            .iter()
            .find(|t| t.func == func && t.range == range && t.entries == entries)
        {
            return Ok(existing.clone());
        }
        if self.next_base + entries > LUT_CAPACITY {
            return Err(CompileError::Unsupported(format!(
                "instruction block needs more than {LUT_CAPACITY} LUT entries of seed \
                 tables; split the kernel or raise the IB count"
            )));
        }
        let table = SeedTable {
            base: self.next_base,
            entries,
            func,
            range,
            index_shift,
            lo_raw: lo_raw as i32,
        };
        self.next_base += entries;
        self.tables.push(table.clone());
        Ok(table)
    }

    /// Renders the 512-entry LUT contents.
    pub fn render(&self, frac_bits: u8) -> Lut {
        let tables = self.tables.clone();
        let kind = match tables.first().map(|t| &t.func) {
            Some(TableFn::Reciprocal { .. }) => LutKind::ReciprocalSeed,
            Some(TableFn::Rsqrt { .. }) => LutKind::RsqrtSeed,
            Some(TableFn::Exp { .. }) => LutKind::Exp,
            Some(TableFn::Sigmoid) => LutKind::Sigmoid,
            None => LutKind::Empty,
        };
        Lut::from_fn(kind, move |index| {
            let Some(table) = tables
                .iter()
                .find(|t| index >= t.base && index < t.base + t.entries)
            else {
                return 0;
            };
            let bucket = index - table.base;
            let v = table.bucket_mid(bucket, frac_bits);
            let entry = match table.func {
                TableFn::Reciprocal { scale } => {
                    if v.abs() < 1e-12 {
                        255.0
                    } else {
                        (1.0 / v) * (2.0f64).powi(scale)
                    }
                }
                TableFn::Rsqrt { scale } => {
                    if v <= 1e-12 {
                        255.0
                    } else {
                        (1.0 / v.sqrt()) * (2.0f64).powi(scale)
                    }
                }
                TableFn::Exp { scale } => v.exp() * (2.0f64).powi(scale),
                TableFn::Sigmoid => (1.0 / (1.0 + (-v).exp())) * 255.0,
            };
            entry.round().clamp(0.0, 255.0) as u8
        })
    }
}

/// Picks the power-of-two output scale for a reciprocal table so the
/// largest seed (at the range's low end) fits in 8 bits.
pub fn reciprocal_scale(range: Interval) -> i32 {
    let max_seed = 1.0 / range.lo.abs().max(1e-9);
    (255.0 / max_seed).log2().floor() as i32
}

/// Output scale for an exp table.
///
/// # Errors
/// [`CompileError::BadRange`] when `e^hi` overflows `f64`.
pub fn exp_scale(range: Interval) -> Result<i32, CompileError> {
    let max_value = range.hi.exp();
    if !max_value.is_finite() {
        return Err(CompileError::BadRange(format!(
            "exp over {range} overflows"
        )));
    }
    Ok((255.0 / max_value).log2().floor() as i32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reciprocal_seed_accuracy() {
        let mut alloc = LutAllocator::new();
        let range = Interval::new(0.5, 2.0);
        let scale = reciprocal_scale(range);
        let table = alloc
            .allocate(
                TableFn::Reciprocal { scale },
                range,
                16,
                APPROX_TABLE_ENTRIES,
            )
            .unwrap();
        let lut = alloc.render(16);
        // Check every bucket's relative error against 1/v_mid.
        for bucket in 0..table.entries {
            let v = table.bucket_mid(bucket, 16);
            if v < range.lo || v > range.hi {
                continue;
            }
            let entry = f64::from(lut.entry(table.base + bucket));
            let seed = entry / (2.0f64).powi(scale);
            let rel = (seed - 1.0 / v).abs() * v;
            assert!(rel < 0.02, "bucket {bucket}: seed {seed} vs {}", 1.0 / v);
        }
    }

    #[test]
    fn capacity_enforced() {
        let mut alloc = LutAllocator::new();
        let r = Interval::new(1.0, 2.0);
        for i in 0..4 {
            let range = Interval::new(1.0, 2.0 + i as f64);
            alloc
                .allocate(TableFn::Exp { scale: 0 }, range, 16, APPROX_TABLE_ENTRIES)
                .unwrap();
        }
        // 4 × 128 = 512 entries used; anything more overflows.
        assert!(alloc
            .allocate(TableFn::Sigmoid, r, 16, SEED_TABLE_ENTRIES)
            .is_err());
        // But mixed sizes pack more tables: fresh allocator, 8 × 64.
        let mut alloc = LutAllocator::new();
        for i in 0..8 {
            let range = Interval::new(1.0, 2.0 + i as f64);
            alloc
                .allocate(
                    TableFn::Reciprocal { scale: 6 },
                    range,
                    16,
                    SEED_TABLE_ENTRIES,
                )
                .unwrap();
        }
        assert_eq!(alloc.tables.len(), 8);
    }

    #[test]
    fn identical_tables_reused() {
        let mut alloc = LutAllocator::new();
        let r = Interval::new(0.5, 2.0);
        let a = alloc
            .allocate(TableFn::Reciprocal { scale: 6 }, r, 16, SEED_TABLE_ENTRIES)
            .unwrap();
        let b = alloc
            .allocate(TableFn::Reciprocal { scale: 6 }, r, 16, SEED_TABLE_ENTRIES)
            .unwrap();
        assert_eq!(a, b);
        assert_eq!(alloc.tables.len(), 1);
    }

    #[test]
    fn index_shift_covers_range() {
        let mut alloc = LutAllocator::new();
        let r = Interval::new(0.0, 8.0);
        let t = alloc
            .allocate(
                TableFn::Exp {
                    scale: exp_scale(r).unwrap(),
                },
                r,
                16,
                APPROX_TABLE_ENTRIES,
            )
            .unwrap();
        // Span in raw words: 8·65536 = 524288 ⇒ shift so / 128 buckets.
        let span = 8.0 * 65536.0;
        assert!(span / (1u64 << t.index_shift) as f64 <= t.entries as f64 + 1.0);
        // Highest raw value maps inside the table.
        let idx = ((8 * 65536 - 1 - t.lo_raw as i64) >> t.index_shift) as usize;
        assert!(idx < t.entries, "index {idx}");
    }

    #[test]
    fn sigmoid_entries_monotone() {
        let mut alloc = LutAllocator::new();
        let r = Interval::new(-8.0, 8.0);
        let t = alloc
            .allocate(TableFn::Sigmoid, r, 16, APPROX_TABLE_ENTRIES)
            .unwrap();
        let lut = alloc.render(16);
        let mut prev = 0u8;
        for bucket in 0..t.entries {
            let e = lut.entry(t.base + bucket);
            assert!(e >= prev);
            prev = e;
        }
        assert!(lut.entry(t.base) <= 2);
        assert!(lut.entry(t.base + t.entries - 1) >= 253);
    }

    #[test]
    fn scales_keep_entries_in_range() {
        let r = Interval::new(0.25, 4.0);
        let s = reciprocal_scale(r);
        assert!((1.0 / 0.25) * (2.0f64).powi(s) <= 255.0);
        let s = exp_scale(Interval::new(-1.0, 3.0)).unwrap();
        assert!(3.0f64.exp() * (2.0f64).powi(s) <= 255.0);
    }
}
