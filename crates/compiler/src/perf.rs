//! The analytical performance model (§5.2).
//!
//! The number of module instances is only known at runtime, so the paper
//! compiles code for several IB budgets and picks the best at kernel
//! launch using a simple analytical model. Instances run in whole 8-lane
//! groups, each group taking one array per IB, so a round executes
//! `arrays / num_ibs` groups simultaneously ([`pack`], the same rule the
//! simulator places groups by); large inputs need multiple rounds, so
//! more intra-module parallelism (more IBs per module) can *lose* overall
//! — Amdahl in one direction, utilization in the other (§7.4's MaxDLP /
//! MaxILP / MaxArrayUtil study).

use crate::CompiledKernel;
use imp_isa::LANES;
use imp_rram::ARRAY_CYCLE_S;

/// Bytes one array stores: 128 rows × 8 words of 32 bits.
pub(crate) const ARRAY_BYTES: usize = 4096;

/// Chip capacity parameters (Table 5's IMP column).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChipCapacity {
    /// Number of tiles.
    pub tiles: usize,
    /// Clusters per tile.
    pub clusters_per_tile: usize,
    /// Arrays per cluster.
    pub arrays_per_cluster: usize,
}

impl ChipCapacity {
    /// The paper's chip: 4,096 tiles × 8 clusters × 8 arrays × 8 lanes =
    /// 2,097,152 SIMD slots, 1 GB of ReRAM.
    pub fn paper() -> Self {
        ChipCapacity {
            tiles: 4096,
            clusters_per_tile: 8,
            arrays_per_cluster: 8,
        }
    }

    /// A small configuration for functional tests (64 tiles).
    pub fn small() -> Self {
        ChipCapacity {
            tiles: 64,
            clusters_per_tile: 8,
            arrays_per_cluster: 8,
        }
    }

    /// Total arrays on the chip.
    pub fn arrays(&self) -> usize {
        self.tiles * self.clusters_per_tile * self.arrays_per_cluster
    }

    /// Total SIMD slots ([`LANES`] per array).
    pub fn simd_slots(&self) -> usize {
        self.arrays() * LANES
    }

    /// Aggregate memory capacity in bytes (each array stores 4 KB).
    pub fn memory_bytes(&self) -> usize {
        self.arrays() * ARRAY_BYTES
    }
}

impl Default for ChipCapacity {
    fn default() -> Self {
        ChipCapacity::paper()
    }
}

/// How a kernel's instances fill the chip's arrays, round by round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packing {
    /// 8-lane instance groups covering every instance (at least one).
    pub groups: usize,
    /// Groups executing concurrently per round.
    pub groups_per_round: usize,
    /// Rounds (kernel invocations) needed to run every group.
    pub rounds: u64,
}

/// The round-packing rule: `instances` run in whole [`LANES`]-wide groups,
/// each group occupying one of `arrays` arrays per IB, so a round holds
/// `arrays / num_ibs` groups (at least one, at most all of them).
///
/// The model ([`estimate`]), the compiler's `MaxArrayUtil` IB budget and
/// the simulator all pack with this function.
pub fn pack(instances: usize, num_ibs: usize, arrays: usize) -> Packing {
    let groups = instances.div_ceil(LANES).max(1);
    let groups_per_round = (arrays / num_ibs.max(1)).max(1).min(groups);
    Packing {
        groups,
        groups_per_round,
        rounds: groups.div_ceil(groups_per_round) as u64,
    }
}

/// The model's output for one kernel/input-size pairing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PerfEstimate {
    /// Kernel invocations needed to cover all instances.
    pub rounds: u64,
    /// Instances executing concurrently in the first (fullest) round.
    pub instances_per_round: usize,
    /// Total array cycles (rounds × module latency).
    pub total_cycles: u64,
    /// Wall-clock seconds at the 20 MHz array clock.
    pub seconds: f64,
    /// Fraction of SIMD slots doing useful work in the steady state.
    pub utilization: f64,
}

/// Estimates execution of `kernel` over `instances` data elements.
pub fn estimate(kernel: &CompiledKernel, instances: usize, capacity: ChipCapacity) -> PerfEstimate {
    let num_ibs = kernel.ibs.len().max(1);
    let packing = pack(instances, num_ibs, capacity.arrays());
    let instances_per_round = instances.min(packing.groups_per_round * LANES);
    let total_cycles = packing.rounds * kernel.module_latency().max(1);
    PerfEstimate {
        rounds: packing.rounds,
        instances_per_round,
        total_cycles,
        seconds: total_cycles as f64 * ARRAY_CYCLE_S,
        utilization: (instances_per_round * num_ibs) as f64 / capacity.simd_slots() as f64,
    }
}

/// Runtime code selection (§5.2): given kernels compiled at different IB
/// budgets, returns the index minimizing estimated total cycles for this
/// input size.
pub fn select_kernel(
    candidates: &[CompiledKernel],
    instances: usize,
    capacity: ChipCapacity,
) -> Option<usize> {
    (0..candidates.len())
        .min_by_key(|&i| estimate(&candidates[i], instances, capacity).total_cycles)
}

/// Estimated data-loading time in array cycles: `bytes` streamed through
/// external I/O at `bandwidth_bytes_per_s`.
pub fn load_cycles(bytes: usize, bandwidth_bytes_per_s: f64) -> u64 {
    let seconds = bytes as f64 / bandwidth_bytes_per_s;
    (seconds / ARRAY_CYCLE_S).ceil() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile, CompileOptions, OptPolicy};
    use imp_dfg::{GraphBuilder, Shape};

    fn kernel(policy: OptPolicy) -> CompiledKernel {
        let mut g = GraphBuilder::new();
        let x = g.placeholder("x", Shape::new(vec![8, 1000])).unwrap();
        let sq = g.square(x).unwrap();
        let s = g.sum(sq, 0).unwrap();
        g.fetch(s);
        let graph = g.finish();
        compile(
            &graph,
            &CompileOptions {
                policy,
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn capacity_matches_table5() {
        let cap = ChipCapacity::paper();
        assert_eq!(cap.simd_slots(), 2_097_152);
        assert_eq!(cap.arrays(), 262_144);
        assert_eq!(cap.memory_bytes(), 1 << 30); // 1 GB
    }

    #[test]
    fn small_inputs_fit_one_round() {
        let k = kernel(OptPolicy::MaxDlp);
        let est = estimate(&k, 1000, ChipCapacity::paper());
        assert_eq!(est.rounds, 1);
        assert_eq!(est.total_cycles, k.module_latency());
    }

    #[test]
    fn rounds_hold_whole_groups() {
        // 40,000 instances are 5,000 groups; a 27-IB kernel on 4,096
        // arrays fits 151 groups (1,208 instances, not 32,768 / 27 =
        // 1,213) per round.
        let p = pack(40_000, 27, ChipCapacity::small().arrays());
        assert_eq!((p.groups, p.groups_per_round, p.rounds), (5_000, 151, 34));
        // A partial group still takes a whole one; a round never holds
        // more groups than exist, nor fewer than one.
        assert_eq!(pack(9, 1, 4_096).groups, 2);
        assert_eq!(pack(9, 1, 4_096).groups_per_round, 2);
        assert_eq!(pack(0, 1, 4_096).rounds, 1);
        assert_eq!(pack(64, 100, 8).groups_per_round, 1);
    }

    #[test]
    fn huge_inputs_take_rounds() {
        let k = kernel(OptPolicy::MaxDlp);
        let est = estimate(&k, 10_000_000, ChipCapacity::paper());
        assert_eq!(est.rounds, 5); // 10M / 2M slots (1 IB per instance)
    }

    #[test]
    fn ilp_wins_small_dlp_wins_large() {
        // The §7.4 crossover: for small inputs the short-latency MaxILP
        // kernel wins; for oversubscribed inputs the 1-IB MaxDLP kernel
        // avoids extra rounds.
        let dlp = kernel(OptPolicy::MaxDlp);
        let ilp = kernel(OptPolicy::MaxIlp);
        assert!(ilp.ibs.len() > dlp.ibs.len());
        let candidates = vec![dlp, ilp];
        let cap = ChipCapacity::paper();
        let small = select_kernel(&candidates, 1_000, cap).unwrap();
        assert_eq!(small, 1, "small inputs should pick MaxILP");
        let huge = select_kernel(&candidates, 50_000_000, cap).unwrap();
        assert_eq!(huge, 0, "oversubscribed inputs should pick MaxDLP");
    }

    #[test]
    fn utilization_reflects_occupancy() {
        let k = kernel(OptPolicy::MaxDlp);
        let cap = ChipCapacity::paper();
        let full = estimate(&k, cap.simd_slots(), cap);
        assert!((full.utilization - 1.0).abs() < 1e-9);
        let half = estimate(&k, cap.simd_slots() / 2, cap);
        assert!((half.utilization - 0.5).abs() < 1e-9);
    }

    #[test]
    fn load_cycles_scale() {
        // 2³⁰ B at 100 GB/s ≈ 10.74 ms ≈ 214,748 array cycles.
        let cycles = load_cycles(1 << 30, 100.0e9);
        assert!((214_000..=215_500).contains(&cycles), "{cycles}");
    }
}
