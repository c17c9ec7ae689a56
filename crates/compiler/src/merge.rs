//! The node-merging pass (§5.2).
//!
//! The in-memory ISA supports n-ary `add`/`sub`: a chain of 2-operand adds
//! in the DFG can become a single in-situ operation activating n rows at
//! once. The maximum n is bounded by ADC resolution (the worst-case
//! bit-line partial sum must stay convertible), which is why the paper
//! notes "chip architects can choose a suitable n based on the power
//! budget". On the prototype's 5-bit ADCs and 2-bit cells, n ≤ 10.

use crate::scalar::{SOp, ScalarId, ScalarModule};
use crate::CompileOptions;

/// Statistics from the merging pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MergeStats {
    /// 2-ary adds folded into wider operations.
    pub adds_merged: usize,
    /// Subtract chains folded.
    pub subs_merged: usize,
    /// Add-chain links left unmerged at the fixed point (the intermediate
    /// has other consumers, or inlining would exceed the ADC-bounded
    /// n-ary cap).
    pub adds_rejected: usize,
    /// Subtract-chain links left unmerged at the fixed point.
    pub subs_rejected: usize,
}

/// Merges chains of additions/subtractions into n-ary operations, in
/// place. A chain link is only merged when the intermediate value has a
/// single consumer (otherwise the intermediate is still needed).
pub fn merge_nodes(module: &mut ScalarModule, options: &CompileOptions) -> MergeStats {
    let max_nary = options.analog.max_add_operands().max(2);
    let mut stats = MergeStats::default();
    let consumer_counts = count_consumers(module);

    // Iterate to a fixed point; each pass flattens one level of nesting.
    loop {
        let mut changed = false;
        for idx in 0..module.ops.len() {
            match &module.ops[idx] {
                SOp::AddN(xs) => {
                    let (merged, _, did) =
                        flatten(module, xs, &[], false, max_nary, &consumer_counts);
                    if did {
                        stats.adds_merged += 1;
                        module.ops[idx] = SOp::AddN(merged);
                        changed = true;
                    }
                }
                SOp::SubN { plus, minus } => {
                    let (new_plus, new_minus, did) =
                        flatten(module, plus, minus, true, max_nary, &consumer_counts);
                    if did {
                        stats.subs_merged += 1;
                        module.ops[idx] = SOp::SubN {
                            plus: new_plus,
                            minus: new_minus,
                        };
                        changed = true;
                    }
                }
                _ => {}
            }
        }
        if !changed {
            break;
        }
    }
    // Count the merge opportunities the fixed point left on the table:
    // chain links (an n-ary operand that is itself an n-ary op) that were
    // not inlined — either the intermediate value has more consumers or
    // the ADC-bounded operand cap refused the widening.
    for op in &module.ops {
        match op {
            SOp::AddN(xs) => {
                stats.adds_rejected += xs
                    .iter()
                    .filter(|x| matches!(module.ops[x.0], SOp::AddN(_) | SOp::SubN { .. }))
                    .count();
            }
            SOp::SubN { plus, minus } => {
                stats.subs_rejected += plus
                    .iter()
                    .chain(minus)
                    .filter(|x| matches!(module.ops[x.0], SOp::AddN(_) | SOp::SubN { .. }))
                    .count();
            }
            _ => {}
        }
    }
    stats
}

fn count_consumers(module: &ScalarModule) -> Vec<usize> {
    let mut counts = vec![0usize; module.ops.len()];
    for op in &module.ops {
        for operand in op.operands() {
            counts[operand.0] += 1;
        }
    }
    // Output scalars have an implicit consumer (the write-back).
    for output in &module.outputs {
        for &s in &output.scalars {
            counts[s.0] += 1;
        }
    }
    counts
}

/// Inlines single-consumer operands of an n-ary add or subtract,
/// respecting the n-ary cap: an AddN operand contributes its operands to
/// its own side, and, when `inline_subs` (the op is a SubN), a SubN operand
/// contributes its plus list to that side and its minus list to the other
/// (a minus-side SubN contributes inverted). An AddN has no minus list and
/// inlines only AddN operands.
fn flatten(
    module: &ScalarModule,
    plus: &[ScalarId],
    minus: &[ScalarId],
    inline_subs: bool,
    max_nary: usize,
    consumers: &[usize],
) -> (Vec<ScalarId>, Vec<ScalarId>, bool) {
    let mut new_plus: Vec<ScalarId> = Vec::new();
    let mut new_minus: Vec<ScalarId> = Vec::new();
    let mut did = false;
    // Remaining operands not yet placed, for the capacity check.
    let mut pending = plus.len() + minus.len();
    for (side, source) in [(true, plus), (false, minus)] {
        for &x in source {
            pending -= 1;
            let placed = new_plus.len() + new_minus.len();
            if consumers[x.0] == 1 {
                match &module.ops[x.0] {
                    SOp::AddN(inner) if placed + pending + inner.len() <= max_nary => {
                        if side {
                            new_plus.extend_from_slice(inner);
                        } else {
                            new_minus.extend_from_slice(inner);
                        }
                        did = true;
                        continue;
                    }
                    SOp::SubN {
                        plus: ip,
                        minus: im,
                    } if inline_subs && placed + pending + ip.len() + im.len() <= max_nary => {
                        // A subtracted SubN flips its sides.
                        if side {
                            new_plus.extend_from_slice(ip);
                            new_minus.extend_from_slice(im);
                        } else {
                            new_minus.extend_from_slice(ip);
                            new_plus.extend_from_slice(im);
                        }
                        did = true;
                        continue;
                    }
                    _ => {}
                }
            }
            if side {
                new_plus.push(x);
            } else {
                new_minus.push(x);
            }
        }
    }
    (new_plus, new_minus, did)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scalar::scalarize;
    use imp_dfg::{GraphBuilder, Shape};

    fn module_for_sum(width: usize) -> ScalarModule {
        let mut g = GraphBuilder::new();
        let x = g.placeholder("x", Shape::new(vec![width, 1000])).unwrap();
        let s = g.sum(x, 0).unwrap();
        g.fetch(s);
        let graph = g.finish();
        scalarize(&graph, &CompileOptions::default()).unwrap()
    }

    fn widest_add(module: &ScalarModule) -> usize {
        module
            .ops
            .iter()
            .filter_map(|op| match op {
                SOp::AddN(xs) => Some(xs.len()),
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }

    #[test]
    fn add_chain_merges_to_nary() {
        let mut module = module_for_sum(8);
        assert_eq!(widest_add(&module), 2);
        let stats = merge_nodes(&mut module, &CompileOptions::default());
        assert!(stats.adds_merged > 0);
        assert_eq!(widest_add(&module), 8);
    }

    #[test]
    fn merging_respects_adc_cap() {
        // 16-wide sum exceeds the 10-operand ADC bound.
        let mut module = module_for_sum(16);
        merge_nodes(&mut module, &CompileOptions::default());
        assert!(widest_add(&module) <= 10);
        assert!(widest_add(&module) > 2);
    }

    #[test]
    fn shared_intermediates_not_merged() {
        // y = (a+b); out = y + y*c — y has two consumers, so the add chain
        // must not swallow it.
        let mut g = GraphBuilder::new();
        let a = g.placeholder("a", Shape::vector(100)).unwrap();
        let b = g.placeholder("b", Shape::vector(100)).unwrap();
        let c = g.placeholder("c", Shape::vector(100)).unwrap();
        let y = g.add(a, b).unwrap();
        let yc = g.mul(y, c).unwrap();
        let out = g.add(y, yc).unwrap();
        g.fetch(out);
        let graph = g.finish();
        let mut module = scalarize(&graph, &CompileOptions::default()).unwrap();
        merge_nodes(&mut module, &CompileOptions::default());
        assert_eq!(widest_add(&module), 2);
    }

    #[test]
    fn sub_chains_merge() {
        // out = (a + b) - (c + d): one in-situ op with 2 plus and 2 minus
        // rows.
        let mut g = GraphBuilder::new();
        let a = g.placeholder("a", Shape::vector(100)).unwrap();
        let b = g.placeholder("b", Shape::vector(100)).unwrap();
        let c = g.placeholder("c", Shape::vector(100)).unwrap();
        let d = g.placeholder("d", Shape::vector(100)).unwrap();
        let ab = g.add(a, b).unwrap();
        let cd = g.add(c, d).unwrap();
        let out = g.sub(ab, cd).unwrap();
        g.fetch(out);
        let graph = g.finish();
        let mut module = scalarize(&graph, &CompileOptions::default()).unwrap();
        let stats = merge_nodes(&mut module, &CompileOptions::default());
        assert!(stats.subs_merged > 0);
        let merged = module.ops.iter().any(
            |op| matches!(op, SOp::SubN { plus, minus } if plus.len() == 2 && minus.len() == 2),
        );
        assert!(merged, "expected a merged 2+2 SubN");
    }

    #[test]
    fn disabled_merging_leaves_chains() {
        let mut module = module_for_sum(8);
        let options = CompileOptions {
            node_merging: false,
            ..Default::default()
        };
        // The pass is simply not called when disabled; emulate compile().
        if options.node_merging {
            merge_nodes(&mut module, &options);
        }
        assert_eq!(widest_add(&module), 2);
    }
}
