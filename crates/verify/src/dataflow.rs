//! Dataflow soundness: rules `DF01`–`DF04`.

use crate::{origin_node, Diagnostic, Severity};
use imp_compiler::module::{vaddr, OutputLoc};
use imp_compiler::CompiledKernel;
use imp_isa::{Addr, Instruction, LaneMask, ARRAY_ROWS, MASK_REGISTER, NUM_REGISTERS};
use std::collections::{HashMap, HashSet};

/// One incoming `movg` delivery: producer IB, producer instruction
/// index, destination row in the consumer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Arrival {
    producer: usize,
    movg_idx: usize,
    row: u8,
}

pub(crate) fn check(kernel: &CompiledKernel, out: &mut Vec<Diagnostic>) {
    let num_ibs = kernel.ibs.len();

    // Incoming deliveries per consumer IB, discovered from producer code.
    let mut arrivals: Vec<Vec<Arrival>> = vec![Vec::new(); num_ibs];
    for (p, ib) in kernel.ibs.iter().enumerate() {
        for (m, inst) in ib.block.instructions().iter().enumerate() {
            if let Instruction::Movg { dst, .. } = inst {
                let (consumer, row) =
                    vaddr::as_cross_ib(*dst).expect("ISA02 checked movg destinations");
                arrivals[consumer].push(Arrival {
                    producer: p,
                    movg_idx: m,
                    row,
                });
            }
        }
    }

    for (i, incoming) in arrivals.iter().enumerate() {
        check_ib(kernel, i, incoming, out);
    }
}

fn check_ib(kernel: &CompiledKernel, i: usize, arrivals: &[Arrival], out: &mut Vec<Diagnostic>) {
    let ib = &kernel.ibs[i];
    let instructions = ib.block.instructions();
    let num_ibs = kernel.ibs.len();

    // DF03: every recorded dependence points at a real movg in the
    // producer that targets this IB.
    for (pc, deps) in ib.deps.iter().enumerate() {
        for &(p, pidx) in deps {
            let valid =
                p < num_ibs
                    && p != i
                    && kernel.ibs[p].block.instructions().get(pidx).is_some_and(
                        |inst| match inst {
                            Instruction::Movg { dst, .. } => {
                                matches!(vaddr::as_cross_ib(*dst), Some((c, _)) if c == i)
                            }
                            _ => false,
                        },
                    );
            if !valid {
                out.push(Diagnostic {
                    rule: "DF03",
                    severity: Severity::Error,
                    ib: Some(i),
                    pc: Some(pc),
                    node: origin_node(kernel, i, pc),
                    message: format!(
                        "dependence on (ib{p}, pc{pidx}) does not name a movg delivering into ib{i}"
                    ),
                    help: "cross-IB dependences must reference the producer's movg instruction"
                        .into(),
                });
            }
        }
    }

    // Rows delivered by more than one movg are skipped for DF04 — a
    // reused arrival row cannot be attributed statically.
    let mut by_row: HashMap<u8, Vec<Arrival>> = HashMap::new();
    for &a in arrivals {
        by_row.entry(a.row).or_default().push(a);
    }
    let mut pending_arrival: HashMap<u8, (Arrival, bool)> = by_row
        .iter()
        .filter(|(_, list)| list.len() == 1)
        .map(|(&row, list)| (row, (list[0], false)))
        .collect();

    // DF01 seeds: runtime-filled input rows and movg-delivered rows are
    // defined before the first instruction issues; every register starts
    // undefined.
    let mut row_def = [false; ARRAY_ROWS];
    let mut reg_def = [false; NUM_REGISTERS];
    for (row, _) in &ib.input_rows {
        row_def[usize::from(*row)] = true;
    }
    for a in arrivals {
        row_def[usize::from(a.row)] = true;
    }

    // Rows other parts of the system read after the block finishes.
    let live_out: HashSet<u8> = kernel
        .outputs
        .iter()
        .flat_map(|o| o.locs.iter())
        .filter_map(|loc| match *loc {
            OutputLoc::Row { ib: out_ib, row } if out_ib == i => Some(row),
            _ => None,
        })
        .collect();

    // DF02 state: last unread write per address.
    let mut pending_write: HashMap<Addr, usize> = HashMap::new();

    for (pc, inst) in instructions.iter().enumerate() {
        // The arrival dependence is attached to the consuming
        // instruction itself, so mark satisfaction before reads.
        if let Some(deps) = ib.deps.get(pc) {
            for &(p, pidx) in deps {
                for (arrival, satisfied) in pending_arrival.values_mut() {
                    if arrival.producer == p && arrival.movg_idx == pidx {
                        *satisfied = true;
                    }
                }
            }
        }

        let mut reads: Vec<Addr> = inst.local_srcs();
        if let Instruction::Movg { src, .. } = inst {
            let (_, row) = vaddr::as_cross_ib(*src).expect("ISA02 checked movg sources");
            reads.push(Addr::Mem(row));
        }
        if let Instruction::Movs { dst, lane_mask, .. } = inst {
            if *lane_mask == LaneMask::DYNAMIC {
                reads.push(Addr::Reg(MASK_REGISTER as u8));
            }
            // A selective move merges into prior contents: the
            // destination is read as well as written.
            reads.push(*dst);
        }

        for addr in &reads {
            let idx = addr.index();
            let defined = if addr.is_mem() {
                row_def[idx]
            } else {
                reg_def[idx]
            };
            if !defined {
                out.push(Diagnostic {
                    rule: "DF01",
                    severity: Severity::Error,
                    ib: Some(i),
                    pc: Some(pc),
                    node: origin_node(kernel, i, pc),
                    message: format!("{inst} reads {addr}, which is never written before this point"),
                    help: "every operand must be produced earlier in program order, filled from an input, or movg-delivered".into(),
                });
            }
            if addr.is_mem() {
                if let Some(&(arrival, satisfied)) = pending_arrival.get(&(idx as u8)) {
                    if !satisfied {
                        out.push(Diagnostic {
                            rule: "DF04",
                            severity: Severity::Error,
                            ib: Some(i),
                            pc: Some(pc),
                            node: origin_node(kernel, i, pc),
                            message: format!(
                                "{inst} reads movg-delivered row {idx} with no preceding dependence on (ib{}, pc{})",
                                arrival.producer, arrival.movg_idx
                            ),
                            help: "record the arrival in CompiledIb::deps at or before the first consuming instruction".into(),
                        });
                    }
                }
            }
            pending_write.remove(addr);
        }

        if let Some(dst) = inst.local_dst() {
            let idx = dst.index();
            if dst.is_mem() {
                row_def[idx] = true;
                // A local write retires the row's arrival identity.
                pending_arrival.remove(&(idx as u8));
            } else {
                reg_def[idx] = true;
            }
            if let Some(old_pc) = pending_write.insert(dst, pc) {
                out.push(Diagnostic {
                    rule: "DF02",
                    severity: Severity::Warning,
                    ib: Some(i),
                    pc: Some(old_pc),
                    node: origin_node(kernel, i, old_pc),
                    message: format!(
                        "write to {dst} is overwritten at pc{pc} without ever being read"
                    ),
                    help: "drop the dead write or read its value before the overwrite".into(),
                });
            }
        }
    }

    let mut leftovers: Vec<(Addr, usize)> = pending_write.into_iter().collect();
    leftovers.sort_by_key(|&(_, pc)| pc);
    for (addr, pc) in leftovers {
        let live = match addr {
            Addr::Mem(row) => live_out.contains(&row),
            // The mask register is architectural state; writes to it are
            // never dead.
            Addr::Reg(reg) => usize::from(reg) == MASK_REGISTER,
        };
        if !live {
            out.push(Diagnostic {
                rule: "DF02",
                severity: Severity::Warning,
                ib: Some(i),
                pc: Some(pc),
                node: origin_node(kernel, i, pc),
                message: format!("write to {addr} is never read and is not a kernel output"),
                help: "drop the dead write, or declare the location as an output".into(),
            });
        }
    }
}
