//! Instruction-block partitioning: IB expansion and the parallelism
//! policies of §7.4.
//!
//! The module's scalar DFG is distributed over `num_ibs` instruction
//! blocks. More IBs expose more ILP (blocks execute on different arrays
//! concurrently) but consume more SIMD slots per module instance, which
//! can force extra kernel invocations when the data is large — the
//! inter- vs intra-module balance the paper's analytical model arbitrates
//! (§5.2 "Balancing Inter-Module and Intra-Module Parallelism").

use crate::scalar::{SOp, ScalarId, ScalarModule};
use crate::{perf, CompileOptions, OptPolicy};
use std::collections::{HashMap, HashSet};

/// Which IB each live, scheduled scalar op belongs to. Leaves and
/// constants are *replicated*: they get bindings in every IB that uses
/// them instead of a home IB.
#[derive(Debug, Clone)]
pub struct Partition {
    /// Number of instruction blocks.
    pub num_ibs: usize,
    /// Home IB of each scheduled (non-leaf, non-const) scalar.
    pub ib_of: HashMap<ScalarId, usize>,
    /// Scalars reachable from module outputs (dead ops excluded).
    pub live: HashSet<ScalarId>,
}

/// Live-set computation: scalars reachable from outputs.
pub fn live_set(module: &ScalarModule) -> HashSet<ScalarId> {
    let mut live = HashSet::new();
    let mut stack: Vec<ScalarId> = module
        .outputs
        .iter()
        .flat_map(|o| o.scalars.iter().copied())
        .collect();
    while let Some(id) = stack.pop() {
        if live.insert(id) {
            stack.extend(module.op(id).operands());
        }
    }
    live
}

fn is_scheduled(op: &SOp) -> bool {
    !matches!(op, SOp::Leaf(_) | SOp::Const(_))
}

/// Critical-path depth and op count of the live module, using rough
/// per-op latency weights (cycles).
fn ilp_metrics(module: &ScalarModule, live: &HashSet<ScalarId>) -> (u64, u64) {
    let mut depth = vec![0u64; module.ops.len()];
    let mut total = 0u64;
    let mut max_depth = 0u64;
    for idx in 0..module.ops.len() {
        let id = ScalarId(idx);
        if !live.contains(&id) || !is_scheduled(&module.ops[idx]) {
            continue;
        }
        let w = op_weight(&module.ops[idx]);
        total += w;
        let base = module.ops[idx]
            .operands()
            .iter()
            .map(|o| depth[o.0])
            .max()
            .unwrap_or(0);
        depth[idx] = base + w;
        max_depth = max_depth.max(depth[idx]);
    }
    (total, max_depth.max(1))
}

/// Approximate lowered latency of one scalar op, in array cycles.
pub fn op_weight(op: &SOp) -> u64 {
    match op {
        SOp::Leaf(_) | SOp::Const(_) => 0,
        SOp::AddN(_) | SOp::SubN { .. } => 3,
        SOp::Mul(_, _) => 18,
        SOp::DotShared { xs, .. } => 18 * xs.len().div_ceil(3) as u64 + 3,
        SOp::Div(_, _) => 62,
        SOp::Exp(_) => 58,
        SOp::Sqrt(_) => 88,
        SOp::Abs(_) => 15,
        SOp::Sigmoid(_) => 13,
        SOp::Less(_, _) => 9,
        SOp::Select { .. } => 9,
        SOp::FloorQ(_) => 6,
        SOp::ReduceAcross(_) => 10,
    }
}

/// Chooses the IB count for the configured policy and distributes the
/// live scalar ops over that many blocks with a communication-averse
/// greedy list pass: an op prefers the IB of its latest-finishing operand,
/// falling back to the least-loaded block.
pub fn partition(module: &ScalarModule, options: &CompileOptions) -> Partition {
    let live = live_set(module);
    let (total, depth) = ilp_metrics(module, &live);
    let ilp_width = (total.div_ceil(depth) as usize).max(1);
    let num_ibs = match options.policy {
        OptPolicy::MaxDlp => 1,
        OptPolicy::MaxIlp => ilp_width,
        OptPolicy::MaxArrayUtil => {
            // Use as many IBs as keep every array busy without forcing
            // extra rounds: the most that still pack into one round.
            let arrays = options.capacity.arrays();
            (1..=ilp_width)
                .rev()
                .find(|&ibs| perf::pack(options.expected_instances, ibs, arrays).rounds == 1)
                .unwrap_or(1)
        }
    };
    let mut ib_of: HashMap<ScalarId, usize> = HashMap::new();
    let mut load = vec![0u64; num_ibs];
    // Finish time of each scalar assuming its IB's current load.
    let mut finish: HashMap<ScalarId, u64> = HashMap::new();

    for idx in 0..module.ops.len() {
        let id = ScalarId(idx);
        if !live.contains(&id) || !is_scheduled(&module.ops[idx]) {
            continue;
        }
        let op = &module.ops[idx];
        let w = op_weight(op);
        // Prefer the home of the operand that finishes last (BUG's
        // operand-location heuristic).
        let preferred = op
            .operands()
            .iter()
            .filter_map(|o| {
                ib_of
                    .get(o)
                    .map(|&b| (finish.get(o).copied().unwrap_or(0), b))
            })
            .max()
            .map(|(_, b)| b);
        let least_loaded = (0..num_ibs)
            .min_by_key(|&b| load[b])
            .expect("at least one IB");
        let target = match preferred {
            Some(b) if load[b] <= load[least_loaded] + w * 4 => b,
            _ => least_loaded,
        };
        let ready = op
            .operands()
            .iter()
            .map(|o| finish.get(o).copied().unwrap_or(0))
            .max()
            .unwrap_or(0);
        let start = ready.max(load[target]);
        load[target] = start + w;
        finish.insert(id, start + w);
        ib_of.insert(id, target);
    }

    // Cross-instance reductions must sit with their operand (the value is
    // already in that IB's array).
    for idx in 0..module.ops.len() {
        let id = ScalarId(idx);
        if let SOp::ReduceAcross(src) = module.ops[idx] {
            if let Some(&home) = ib_of.get(&src) {
                ib_of.insert(id, home);
            }
        }
    }

    Partition {
        num_ibs,
        ib_of,
        live,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::scalarize;
    use imp_dfg::{GraphBuilder, Shape};

    fn wide_module() -> ScalarModule {
        // Eight independent chains: x_i² + x_i, summed pairwise at the end.
        let mut g = GraphBuilder::new();
        let x = g.placeholder("x", Shape::new(vec![8, 1000])).unwrap();
        let sq = g.square(x).unwrap();
        let y = g.add(sq, x).unwrap();
        let s = g.sum(y, 0).unwrap();
        g.fetch(s);
        let graph = g.finish();
        scalarize(&graph, &CompileOptions::default()).unwrap()
    }

    #[test]
    fn dead_code_excluded() {
        let mut g = GraphBuilder::new();
        let x = g.placeholder("x", Shape::vector(100)).unwrap();
        let _dead = g.square(x).unwrap();
        let live_out = g.add(x, x).unwrap();
        g.fetch(live_out);
        let graph = g.finish();
        let module = scalarize(&graph, &CompileOptions::default()).unwrap();
        let live = live_set(&module);
        let muls_live = module
            .ops
            .iter()
            .enumerate()
            .filter(|(i, op)| matches!(op, SOp::Mul(_, _)) && live.contains(&ScalarId(*i)))
            .count();
        assert_eq!(muls_live, 0);
    }

    #[test]
    fn max_dlp_is_one_ib() {
        let module = wide_module();
        let options = CompileOptions {
            policy: OptPolicy::MaxDlp,
            ..Default::default()
        };
        assert_eq!(partition(&module, &options).num_ibs, 1);
    }

    #[test]
    fn max_ilp_exceeds_one() {
        let module = wide_module();
        let options = CompileOptions {
            policy: OptPolicy::MaxIlp,
            ..Default::default()
        };
        assert!(partition(&module, &options).num_ibs > 1);
    }

    #[test]
    fn max_array_util_scales_with_input() {
        let module = wide_module();
        // Tiny input: plenty of slots per instance → many IBs allowed.
        let small = CompileOptions {
            policy: OptPolicy::MaxArrayUtil,
            expected_instances: 1,
            ..Default::default()
        };
        // Huge input: slots are precious → fewer IBs.
        let large = CompileOptions {
            policy: OptPolicy::MaxArrayUtil,
            expected_instances: usize::MAX / 2,
            ..Default::default()
        };
        let (small, large) = (
            partition(&module, &small).num_ibs,
            partition(&module, &large).num_ibs,
        );
        assert!(small >= large);
        assert_eq!(large, 1);
    }

    #[test]
    fn partition_covers_all_live_ops() {
        let module = wide_module();
        let options = CompileOptions {
            policy: OptPolicy::MaxIlp,
            ..Default::default()
        };
        let part = partition(&module, &options);
        for idx in 0..module.ops.len() {
            let id = ScalarId(idx);
            if part.live.contains(&id) && is_scheduled(&module.ops[idx]) {
                assert!(part.ib_of.contains_key(&id), "op {idx} unassigned");
            }
        }
        // Every IB should get work for an 8-wide module.
        let used: HashSet<usize> = part.ib_of.values().copied().collect();
        assert_eq!(used.len(), part.num_ibs);
    }

    #[test]
    fn single_ib_partition_has_no_crossings() {
        let module = wide_module();
        let options = CompileOptions {
            policy: OptPolicy::MaxDlp,
            ..Default::default()
        };
        let part = partition(&module, &options);
        for idx in 0..module.ops.len() {
            let id = ScalarId(idx);
            for op in module.op(id).operands() {
                if let (Some(a), Some(b)) = (part.ib_of.get(&op), part.ib_of.get(&id)) {
                    assert_eq!(a, b, "edge {op:?} -> {id:?} crosses IBs");
                }
            }
        }
    }
}
