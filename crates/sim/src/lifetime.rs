//! The memory-lifetime model (§7.5).
//!
//! ReRAM cells wear out after ~10¹¹ writes (reference 26 in the paper).
//! The compiler balances writes across rows by allocating them
//! round-robin;
//! the lifetime of the chip under continuous kernel execution is then
//! governed by the *most-written* row per module execution:
//!
//! `lifetime = endurance / (writes_per_exec / 128 × execs_per_second)`.
//!
//! The paper's Table 6 reports per-benchmark lifetimes from 5.88 years
//! (kmeans) to 250 years (hotspot), median 17.9 years.

use imp_isa::ARRAY_ROWS;
use imp_rram::{ARRAY_CYCLE_S, CELL_ENDURANCE_WRITES};

/// Seconds per year (365.25 days).
pub const SECONDS_PER_YEAR: f64 = 365.25 * 24.0 * 3600.0;

/// Expected lifetime in years for a kernel whose module execution writes
/// `writes_per_exec` rows in `module_latency` array cycles, running back
/// to back.
///
/// The compiler's round-robin row allocation rotates across invocations,
/// so wear levels over all 128 rows of the array: the per-row write rate
/// is `writes_per_exec / 128` per execution.
pub fn lifetime_years(writes_per_exec: u64, module_latency: u64) -> f64 {
    if writes_per_exec == 0 {
        return f64::INFINITY;
    }
    let exec_seconds = module_latency.max(1) as f64 * ARRAY_CYCLE_S;
    let per_row_writes_per_second = writes_per_exec as f64 / ARRAY_ROWS as f64 / exec_seconds;
    let seconds = CELL_ENDURANCE_WRITES as f64 / per_row_writes_per_second;
    seconds / SECONDS_PER_YEAR
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn longer_modules_live_longer() {
        // Same writes spread over a longer execution = lower intensity.
        let short = lifetime_years(10, 100);
        let long = lifetime_years(10, 1000);
        assert!(long > short);
    }

    #[test]
    fn more_writes_wear_faster() {
        assert!(lifetime_years(100, 500) < lifetime_years(10, 500));
    }

    #[test]
    fn zero_writes_is_immortal() {
        assert!(lifetime_years(0, 100).is_infinite());
    }

    #[test]
    fn magnitudes_match_table6() {
        // A module writing ~20 rows per ~2,000-cycle execution, leveled
        // over 128 rows, should land in the years band Table 6 reports
        // (5.88–250 years).
        let years = lifetime_years(20, 2000);
        assert!(
            (1.0..=500.0).contains(&years),
            "lifetime {years} years is outside the paper's magnitude band"
        );
    }
}
