//! Static scheduling and IB placement (the adapted Bottom-Up-Greedy pass
//! of §5.2).
//!
//! The ReRAM arrays execute in order with deterministic instruction
//! latencies, communication is rare, and the compiler accounts for
//! network delay statically — which is why the paper's performance
//! estimates are "highly accurate" (§6). This module computes the static
//! instruction timetable: every instruction of every IB gets a start
//! cycle honouring (a) program order within its IB, (b) cross-IB `movg`
//! arrival times given the IB placement, and (c) the compute/write-back
//! pipelining option (§5.2).

use crate::module::CompiledIb;
use crate::CompileError;
use imp_isa::{Instruction, Latency};
use std::collections::BTreeSet;

/// Relative placement of an IB within the chip's tile/cluster hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Cluster index (8 arrays per cluster).
    pub cluster: usize,
    /// Array within the cluster.
    pub array: usize,
}

impl Placement {
    /// The flat physical slot, `cluster * 8 + array`.
    pub fn slot(self) -> usize {
        self.cluster * 8 + self.array
    }

    /// The placement on flat physical slot `slot`.
    pub fn from_slot(slot: usize) -> Self {
        Placement {
            cluster: slot / 8,
            array: slot % 8,
        }
    }
}

/// Which physical arrays the scheduler may place IBs on: a chip-wide
/// array count minus a retired set.
///
/// Physical arrays are numbered by flat slot
/// (`cluster * 8 + array_within_cluster`, clusters numbered chip-wide).
/// The runtime retires slots whose arrays failed their integrity checks;
/// re-running placement with the avoid set routes every instance group
/// around the broken hardware at reduced parallelism.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrayAvailability {
    total: usize,
    retired: BTreeSet<usize>,
}

impl ArrayAvailability {
    /// Every one of `total` arrays is usable.
    pub fn all(total: usize) -> Self {
        ArrayAvailability {
            total,
            retired: BTreeSet::new(),
        }
    }

    /// Marks a physical slot as permanently unusable. Out-of-range slots
    /// are ignored.
    pub fn retire(&mut self, slot: usize) {
        if slot < self.total {
            self.retired.insert(slot);
        }
    }

    /// Whether `slot` has been retired.
    pub fn is_retired(&self, slot: usize) -> bool {
        self.retired.contains(&slot)
    }

    /// Total arrays on the chip, healthy or not.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Number of usable (non-retired) arrays.
    pub fn usable(&self) -> usize {
        self.total - self.retired.len()
    }

    /// Retired slots in ascending order.
    pub fn retired_slots(&self) -> impl Iterator<Item = usize> + '_ {
        self.retired.iter().copied()
    }

    /// Usable physical slots in ascending order.
    pub fn usable_slots(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.total).filter(move |s| !self.retired.contains(s))
    }
}

/// One timetable entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledInst {
    /// Instruction block.
    pub ib: usize,
    /// Instruction index within the block.
    pub index: usize,
    /// Issue cycle.
    pub start: u64,
    /// Completion cycle (results visible).
    pub end: u64,
}

/// The static schedule of one module execution.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Entries sorted by `(start, ib, index)`.
    pub entries: Vec<ScheduledInst>,
    /// Critical-path latency of the module, in array cycles.
    pub module_latency: u64,
    /// Completion time of each IB.
    pub ib_latencies: Vec<u64>,
    /// IB → (cluster, array) placement.
    pub placements: Vec<Placement>,
    /// Instruction-buffer refills per IB: code beyond the 2 KB buffer
    /// (Table 4) streams in from the tile's next level mid-execution.
    pub buffer_refills: Vec<u32>,
    /// Whether compute/write-back pipelining was assumed (recorded so the
    /// runtime can re-run scheduling after retiring arrays).
    pub pipelining: bool,
}

/// Capacity of one instruction buffer in bytes (Table 4: 8 × 2 KB per
/// tile).
pub const INSTRUCTION_BUFFER_BYTES: usize = 2048;

/// Stall cycles per instruction-buffer refill: 2 KB over 16-byte flits at
/// the 2 GHz network is ~128 network cycles ≈ 1.3 array cycles, plus the
/// router hop — two array cycles end to end.
pub const REFILL_STALL_CYCLES: u64 = 2;

/// Estimated `movg` delivery latency between two placed IBs, in array
/// cycles. The 2 GHz network is two orders of magnitude faster than the
/// 20 MHz arrays, so even cross-tile hops cost single-digit array cycles.
pub fn transfer_latency(a: Placement, b: Placement) -> u64 {
    if a.cluster == b.cluster {
        1 // shared intra-cluster bus
    } else if a.cluster / 8 == b.cluster / 8 {
        2 // same tile, via the tile router/crossbar
    } else {
        4 // H-tree hops (≤ 8 router traversals ≪ one array cycle each)
    }
}

/// Occupancy of one instruction in array cycles under the given
/// pipelining mode. Table 1 latencies assume the compute/write-back
/// pipelining of §5.2; without it, instructions that write a memory row
/// serialize an extra write cycle.
pub fn occupancy(inst: &Instruction, pipelining: bool) -> u64 {
    let base = match inst.latency() {
        Latency::Fixed(cycles) => u64::from(cycles),
        // The network instruction occupies the array for one issue cycle;
        // delivery happens in the network.
        Latency::Variable => 1,
    };
    let writes_mem = matches!(inst.local_dst(), Some(addr) if addr.is_mem());
    if !pipelining && writes_mem {
        base + 1
    } else {
        base
    }
}

/// Places IBs onto the first usable arrays: greedily filling clusters so
/// communicating blocks stay near each other (IBs are created in
/// dependence-affine order by the partitioner, so sequential filling
/// approximates BUG's locality goal). Retired slots in `avail` are
/// skipped, which may scatter the blocks across more clusters — the
/// timetable then absorbs the longer transfer latencies.
///
/// # Errors
/// Returns [`CompileError::OutOfArrays`] if fewer than `num_ibs` arrays
/// remain usable.
pub fn place(num_ibs: usize, avail: &ArrayAvailability) -> Result<Vec<Placement>, CompileError> {
    if avail.usable() < num_ibs {
        return Err(CompileError::OutOfArrays {
            needed: num_ibs,
            usable: avail.usable(),
        });
    }
    Ok(avail
        .usable_slots()
        .take(num_ibs)
        .map(Placement::from_slot)
        .collect())
}

/// Places the kernel's blocks on the usable arrays of `avail` and computes
/// their static timetable: list scheduling by longest path over the
/// program-order + cross-IB dependence DAG, with transfer latencies from
/// the placements. Compile schedules on a fully available chip; the
/// runtime's remap path re-runs this after retiring faulty arrays, from the
/// dependence lists each [`CompiledIb`] keeps, so no re-lowering is needed.
///
/// # Errors
/// Returns [`CompileError::OutOfArrays`] if fewer usable arrays remain
/// than there are blocks, and [`CompileError::Graph`] if the cross-IB
/// dependence graph is cyclic (a compiler invariant violation).
pub fn schedule(
    ibs: &[CompiledIb],
    pipelining: bool,
    avail: &ArrayAvailability,
) -> Result<Schedule, CompileError> {
    let placements = place(ibs.len(), avail)?;
    let num_nodes: usize = ibs.iter().map(|ib| ib.block.len()).sum();
    // Flatten (ib, idx) to node ids.
    let mut base = vec![0usize; ibs.len() + 1];
    for (i, ib) in ibs.iter().enumerate() {
        base[i + 1] = base[i] + ib.block.len();
    }
    let node = |ib: usize, idx: usize| base[ib] + idx;

    // Build edges: (pred, succ, extra_latency_after_pred_end).
    let mut preds: Vec<Vec<(usize, u64)>> = vec![Vec::new(); num_nodes];
    for (i, ib) in ibs.iter().enumerate() {
        for idx in 0..ib.block.len() {
            if idx > 0 {
                preds[node(i, idx)].push((node(i, idx - 1), 0));
            }
            for &(p_ib, p_idx) in &ib.deps[idx] {
                let lat = transfer_latency(placements[p_ib], placements[i]);
                preds[node(i, idx)].push((node(p_ib, p_idx), lat));
            }
        }
    }
    // Kahn topological order.
    let mut in_degree: Vec<usize> = preds.iter().map(|p| p.len()).collect();
    let mut ready: Vec<usize> = (0..num_nodes).filter(|&n| in_degree[n] == 0).collect();
    let mut order = Vec::with_capacity(num_nodes);
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); num_nodes];
    for (s, plist) in preds.iter().enumerate() {
        for &(p, _) in plist {
            succs[p].push(s);
        }
    }
    while let Some(n) = ready.pop() {
        order.push(n);
        for &s in &succs[n] {
            in_degree[s] -= 1;
            if in_degree[s] == 0 {
                ready.push(s);
            }
        }
    }
    if order.len() != num_nodes {
        return Err(CompileError::Graph(
            "cyclic cross-IB dependence graph".into(),
        ));
    }

    // Longest-path start times.
    let mut start = vec![0u64; num_nodes];
    let mut end = vec![0u64; num_nodes];
    let mut which: Vec<(usize, usize)> = vec![(0, 0); num_nodes];
    for (i, ib) in ibs.iter().enumerate() {
        for idx in 0..ib.block.len() {
            which[node(i, idx)] = (i, idx);
        }
    }
    for &n in &order {
        let (ib, idx) = which[n];
        let earliest = preds[n]
            .iter()
            .map(|&(p, lat)| end[p] + lat)
            .max()
            .unwrap_or(0);
        start[n] = earliest;
        end[n] = earliest + occupancy(&ibs[ib].block.instructions()[idx], pipelining);
    }

    let mut entries: Vec<ScheduledInst> = (0..num_nodes)
        .map(|n| {
            let (ib, index) = which[n];
            ScheduledInst {
                ib,
                index,
                start: start[n],
                end: end[n],
            }
        })
        .collect();
    entries.sort_by_key(|e| (e.start, e.ib, e.index));

    let mut ib_latencies = vec![0u64; ibs.len()];
    for e in &entries {
        ib_latencies[e.ib] = ib_latencies[e.ib].max(e.end);
    }
    // Instruction-supply stalls: code beyond one buffer refills from the
    // tile level while the array executes.
    let mut buffer_refills = Vec::with_capacity(ibs.len());
    for (i, ib) in ibs.iter().enumerate() {
        let code_bytes = ib.block.encode().len();
        let refills = (code_bytes.div_ceil(INSTRUCTION_BUFFER_BYTES).max(1) - 1) as u32;
        ib_latencies[i] += u64::from(refills) * REFILL_STALL_CYCLES;
        buffer_refills.push(refills);
    }
    let module_latency = ib_latencies.iter().copied().max().unwrap_or(0);

    Ok(Schedule {
        entries,
        module_latency,
        ib_latencies,
        placements,
        buffer_refills,
        pipelining,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compile, CompileOptions, OptPolicy};
    use imp_dfg::{GraphBuilder, Shape};

    fn simple_kernel(policy: OptPolicy, pipelining: bool) -> crate::CompiledKernel {
        let mut g = GraphBuilder::new();
        let x = g.placeholder("x", Shape::new(vec![4, 1000])).unwrap();
        let sq = g.square(x).unwrap();
        let s = g.sum(sq, 0).unwrap();
        g.fetch(s);
        let graph = g.finish();
        let options = CompileOptions {
            policy,
            pipelining,
            ..Default::default()
        };
        compile(&graph, &options).unwrap()
    }

    #[test]
    fn schedule_respects_program_order() {
        let kernel = simple_kernel(OptPolicy::MaxDlp, true);
        let entries = &kernel.schedule.entries;
        for pair in entries.windows(2) {
            if pair[0].ib == pair[1].ib && pair[0].index + 1 == pair[1].index {
                assert!(pair[1].start >= pair[0].end);
            }
        }
        assert!(kernel.schedule.module_latency > 0);
    }

    #[test]
    fn more_ibs_shorter_module() {
        let one = simple_kernel(OptPolicy::MaxDlp, true);
        let many = simple_kernel(OptPolicy::MaxIlp, true);
        assert!(many.ibs.len() > 1);
        assert!(
            many.schedule.module_latency <= one.schedule.module_latency,
            "ILP schedule {} should not exceed DLP schedule {}",
            many.schedule.module_latency,
            one.schedule.module_latency
        );
    }

    #[test]
    fn pipelining_shortens_module() {
        let with = simple_kernel(OptPolicy::MaxDlp, true);
        let without = simple_kernel(OptPolicy::MaxDlp, false);
        assert!(with.schedule.module_latency < without.schedule.module_latency);
    }

    #[test]
    fn placement_groups_by_cluster() {
        let p = place(20, &ArrayAvailability::all(64)).unwrap();
        assert_eq!(
            p[0],
            Placement {
                cluster: 0,
                array: 0
            }
        );
        assert_eq!(
            p[7],
            Placement {
                cluster: 0,
                array: 7
            }
        );
        assert_eq!(
            p[8],
            Placement {
                cluster: 1,
                array: 0
            }
        );
        assert_eq!(transfer_latency(p[0], p[7]), 1);
        assert_eq!(transfer_latency(p[0], p[8]), 2);
        let far = Placement {
            cluster: 9,
            array: 0,
        };
        assert_eq!(transfer_latency(p[0], far), 4);
    }

    #[test]
    fn placement_skips_retired_slots() {
        let mut avail = ArrayAvailability::all(64);
        avail.retire(0);
        avail.retire(3);
        avail.retire(999); // out of range: ignored
        assert_eq!(avail.usable(), 62);
        let p = place(4, &avail).unwrap();
        assert_eq!(
            p[0],
            Placement {
                cluster: 0,
                array: 1
            }
        );
        assert_eq!(
            p[1],
            Placement {
                cluster: 0,
                array: 2
            }
        );
        assert_eq!(
            p[2],
            Placement {
                cluster: 0,
                array: 4
            }
        );
        assert_eq!(
            p[3],
            Placement {
                cluster: 0,
                array: 5
            }
        );
    }

    #[test]
    fn placement_errors_when_arrays_run_out() {
        let mut avail = ArrayAvailability::all(8);
        for slot in 0..5 {
            avail.retire(slot);
        }
        let err = place(4, &avail).unwrap_err();
        assert_eq!(
            err,
            CompileError::OutOfArrays {
                needed: 4,
                usable: 3
            }
        );
    }

    #[test]
    fn reschedule_matches_original_on_full_availability() {
        let kernel = simple_kernel(OptPolicy::MaxIlp, true);
        let avail = ArrayAvailability::all(64);
        let re = schedule(&kernel.ibs, kernel.schedule.pipelining, &avail).unwrap();
        assert_eq!(re.module_latency, kernel.schedule.module_latency);
        assert_eq!(re.placements, kernel.schedule.placements);
        assert_eq!(re.entries, kernel.schedule.entries);
    }

    #[test]
    fn reschedule_around_retired_arrays_never_speeds_up() {
        let kernel = simple_kernel(OptPolicy::MaxIlp, true);
        assert!(kernel.ibs.len() > 1);
        let mut avail = ArrayAvailability::all(64);
        avail.retire(0); // force every IB off its original slot
        let re = schedule(&kernel.ibs, kernel.schedule.pipelining, &avail).unwrap();
        assert!(!re.placements.contains(&Placement {
            cluster: 0,
            array: 0
        }));
        assert!(re.module_latency >= kernel.schedule.module_latency);
    }

    #[test]
    fn long_code_pays_buffer_refills() {
        // A 40-element abs+sum module is several KB of code — multiple
        // instruction-buffer refills under MaxDLP.
        let mut g = GraphBuilder::new();
        let x = g.placeholder("x", Shape::new(vec![40, 100])).unwrap();
        let a = g.abs(x).unwrap();
        let s = g.sum(a, 0).unwrap();
        g.fetch(s);
        let graph = g.finish();
        let kernel = crate::compile(
            &graph,
            &CompileOptions {
                policy: OptPolicy::MaxDlp,
                ..Default::default()
            },
        )
        .unwrap();
        let code_bytes: usize = kernel.ibs[0]
            .block
            .instructions()
            .iter()
            .map(|i| i.encode().len())
            .sum();
        if code_bytes > INSTRUCTION_BUFFER_BYTES {
            assert!(kernel.schedule.buffer_refills[0] > 0);
        }
    }

    #[test]
    fn occupancy_models_writeback() {
        let add = imp_isa::Instruction::Add {
            mask: imp_isa::RowMask::from_rows([0, 1]),
            dst: imp_isa::Addr::mem(2),
        };
        assert_eq!(occupancy(&add, true), 3);
        assert_eq!(occupancy(&add, false), 4);
        let to_reg = imp_isa::Instruction::Add {
            mask: imp_isa::RowMask::from_rows([0, 1]),
            dst: imp_isa::Addr::reg(2),
        };
        assert_eq!(occupancy(&to_reg, false), 3);
    }
}
