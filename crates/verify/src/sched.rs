//! Schedule legality: rules `SCH01`–`SCH03` (`SCH04` is structural).

use crate::{origin_node, Diagnostic, Severity};
use imp_compiler::schedule::{occupancy, transfer_latency, Schedule};
use imp_compiler::{ArrayAvailability, CompiledKernel};

pub(crate) fn check(
    kernel: &CompiledKernel,
    schedule: &Schedule,
    avail: &ArrayAvailability,
    out: &mut Vec<Diagnostic>,
) {
    // SCH01: placements pairwise disjoint, each IB reported against the
    // latest earlier IB on its slot.
    let mut by_slot: Vec<(usize, usize)> = schedule
        .placements
        .iter()
        .enumerate()
        .map(|(i, p)| (p.slot(), i))
        .collect();
    by_slot.sort_unstable();
    for pair in by_slot.windows(2) {
        let ((slot, prev), (next_slot, i)) = (pair[0], pair[1]);
        if slot == next_slot {
            let p = schedule.placements[i];
            out.push(Diagnostic {
                rule: "SCH01",
                severity: Severity::Error,
                ib: Some(i),
                pc: None,
                node: None,
                message: format!(
                    "ib{i} and ib{prev} are both placed on array slot {slot} (cluster {}, array {})",
                    p.cluster, p.array
                ),
                help: "every IB needs its own physical array".into(),
            });
        }
    }
    // SCH02: placements on live, existing arrays.
    for (i, p) in schedule.placements.iter().enumerate() {
        let slot = p.slot();
        if slot >= avail.total() || avail.is_retired(slot) {
            let why = if slot >= avail.total() {
                format!("beyond the {}-array chip", avail.total())
            } else {
                "retired after a fault".to_string()
            };
            out.push(Diagnostic {
                rule: "SCH02",
                severity: Severity::Error,
                ib: Some(i),
                pc: None,
                node: None,
                message: format!("ib{i} is placed on array slot {slot}, which is {why}"),
                help: "re-place the kernel against the current ArrayAvailability".into(),
            });
        }
    }

    // SCH03: issue times honour program order, producer completion plus
    // network transfer, and per-instruction occupancy. The structural pass
    // proved every instruction has exactly one entry.
    let mut end_of: Vec<Vec<u64>> = kernel
        .ibs
        .iter()
        .map(|ib| vec![0; ib.block.len()])
        .collect();
    for e in &schedule.entries {
        end_of[e.ib][e.index] = e.end;
    }
    for e in &schedule.entries {
        let inst = &kernel.ibs[e.ib].block.instructions()[e.index];
        let occ = occupancy(inst, schedule.pipelining);
        if e.end != e.start + occ {
            out.push(Diagnostic {
                rule: "SCH03",
                severity: Severity::Error,
                ib: Some(e.ib),
                pc: Some(e.index),
                node: origin_node(kernel, e.ib, e.index),
                message: format!(
                    "entry spans cycles {}..{} but `{inst}` occupies {occ} cycle(s)",
                    e.start, e.end
                ),
                help: "recompute the entry's end from occupancy()".into(),
            });
        }
        let prev_end = e.index.checked_sub(1).map_or(0, |prev| end_of[e.ib][prev]);
        if e.start < prev_end {
            out.push(Diagnostic {
                rule: "SCH03",
                severity: Severity::Error,
                ib: Some(e.ib),
                pc: Some(e.index),
                node: origin_node(kernel, e.ib, e.index),
                message: format!(
                    "starts at cycle {} before the previous instruction of the block completes at {prev_end}",
                    e.start
                ),
                help: "arrays execute their block in order; later instructions cannot overtake".into(),
            });
        }
        for &(p, pidx) in kernel.ibs[e.ib].deps.get(e.index).into_iter().flatten() {
            // A dependence on no instruction is DF03's finding.
            let Some(&producer_end) = end_of.get(p).and_then(|ends| ends.get(pidx)) else {
                continue;
            };
            let lat = transfer_latency(schedule.placements[p], schedule.placements[e.ib]);
            if e.start < producer_end + lat {
                out.push(Diagnostic {
                    rule: "SCH03",
                    severity: Severity::Error,
                    ib: Some(e.ib),
                    pc: Some(e.index),
                    node: origin_node(kernel, e.ib, e.index),
                    message: format!(
                        "starts at cycle {} before its operand from (ib{p}, pc{pidx}) can arrive at {}",
                        e.start,
                        producer_end + lat
                    ),
                    help: "the consumer must wait for producer completion plus transfer_latency".into(),
                });
            }
        }
    }
}
