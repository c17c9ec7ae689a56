//! Structural legality: rules `ISA01`–`ISA03` and `SCH04`, the one
//! definition of a kernel that can execute. `Machine::run` runs this pass
//! alone; [`verify_with`](crate::verify_with) runs it first and the deeper
//! passes only when it finds nothing, so those may index by any operand,
//! `movg` endpoint, input row or schedule entry. A clean kernel costs this
//! pass no heap allocation and no hash lookup. `ISA04`, a warning, lives
//! here too but is not part of the pass.

use crate::{origin_node, Diagnostic, Severity};
use imp_compiler::module::{vaddr, InputBinding, OutputLoc};
use imp_compiler::schedule::{Schedule, ScheduledInst};
use imp_compiler::{CompiledKernel, ParallelSpec};
use imp_isa::{Instruction, ARRAY_ROWS, NUM_REGISTERS};

/// Runs the structural rules over `kernel` and its timetable `schedule`.
pub(crate) fn check(kernel: &CompiledKernel, schedule: &Schedule, out: &mut Vec<Diagnostic>) {
    for (i, ib) in kernel.ibs.iter().enumerate() {
        check_layout(kernel, i, out);
        for (pc, inst) in ib.block.instructions().iter().enumerate() {
            check_instruction(kernel, i, pc, inst, out);
        }
    }
    check_outputs(kernel, out);
    check_coverage(kernel, schedule, out);
}

/// `ISA04`: a `lut` instruction reads a programmed (non-zero) table.
pub(crate) fn check_lut_tables(kernel: &CompiledKernel, out: &mut Vec<Diagnostic>) {
    for (i, ib) in kernel.ibs.iter().enumerate() {
        let first_lut = ib
            .block
            .instructions()
            .iter()
            .position(|inst| matches!(inst, Instruction::Lut { .. }));
        if let Some(pc) = first_lut {
            if (0..512).all(|e| ib.lut.entry(e) == 0) {
                out.push(Diagnostic {
                    rule: "ISA04",
                    severity: Severity::Warning,
                    ib: Some(i),
                    pc: Some(pc),
                    node: origin_node(kernel, i, pc),
                    message: "lut instruction reads an unprogrammed (all-zero) table".into(),
                    help: "program the IB's LUT before emitting lut, or remove the instruction"
                        .into(),
                });
            }
        }
    }
}

/// An error at instruction `pc` of IB `ib`.
fn inst_error(
    kernel: &CompiledKernel,
    ib: usize,
    pc: usize,
    rule: &'static str,
    message: String,
    help: impl Into<String>,
) -> Diagnostic {
    Diagnostic {
        rule,
        severity: Severity::Error,
        ib: Some(ib),
        pc: Some(pc),
        node: origin_node(kernel, ib, pc),
        message,
        help: help.into(),
    }
}

/// An error about IB `ib` as a whole.
fn ib_error(ib: usize, rule: &'static str, message: String, help: impl Into<String>) -> Diagnostic {
    Diagnostic {
        rule,
        severity: Severity::Error,
        ib: Some(ib),
        pc: None,
        node: None,
        message,
        help: help.into(),
    }
}

/// `ISA01` over the operands one instruction addresses, and `ISA02` over
/// its `movg` endpoints or `reduce_sum` slot.
fn check_instruction(
    kernel: &CompiledKernel,
    i: usize,
    pc: usize,
    inst: &Instruction,
    out: &mut Vec<Diagnostic>,
) {
    // Row and register masks are 128 bits wide, so only sources named by
    // address can leave the array.
    let srcs = match *inst {
        Instruction::Mul { a, b, .. } => [Some(a), Some(b)],
        Instruction::ShiftL { src, .. }
        | Instruction::ShiftR { src, .. }
        | Instruction::Mask { src, .. }
        | Instruction::Mov { src, .. }
        | Instruction::Movs { src, .. }
        | Instruction::Lut { src, .. }
        | Instruction::ReduceSum { src, .. } => [Some(src), None],
        _ => [None, None],
    };
    for addr in srcs.into_iter().flatten().chain(inst.local_dst()) {
        let (limit, kind) = if addr.is_mem() {
            (ARRAY_ROWS, "row")
        } else {
            (NUM_REGISTERS, "register")
        };
        if addr.index() >= limit {
            out.push(inst_error(
                kernel,
                i,
                pc,
                "ISA01",
                format!("{kind} operand {addr} is out of range (limit {limit})"),
                format!("local {kind} indices must be below {limit}"),
            ));
        }
    }

    let num_ibs = kernel.ibs.len();
    let isa02 = |message: String, help: &str| inst_error(kernel, i, pc, "ISA02", message, help);
    match *inst {
        Instruction::Movg { src, dst } => {
            match vaddr::as_cross_ib(src) {
                Some((src_ib, row)) if src_ib == i && usize::from(row) < ARRAY_ROWS => {}
                Some((src_ib, _)) if src_ib != i => out.push(isa02(
                    format!("movg source {src} names ib{src_ib}, but the instruction executes in ib{i}"),
                    "a movg reads a row of its own IB; encode the source as vaddr::cross_ib(self, row)",
                )),
                Some((_, row)) => out.push(isa02(
                    format!("movg source {src} names row {row}, past the {ARRAY_ROWS}-row array"),
                    "a movg reads a row of its own array",
                )),
                None => out.push(isa02(
                    format!("movg source {src} is not a cross-IB virtual address"),
                    "encode the source as vaddr::cross_ib(self, row)",
                )),
            }
            match vaddr::as_cross_ib(dst) {
                Some((dst_ib, row))
                    if dst_ib < num_ibs && dst_ib != i && usize::from(row) < ARRAY_ROWS => {}
                Some((dst_ib, _)) if dst_ib == i => out.push(isa02(
                    format!("movg destination {dst} targets its own IB"),
                    "cross-IB moves must deliver to a different, existing IB",
                )),
                Some((dst_ib, _)) if dst_ib >= num_ibs => out.push(isa02(
                    format!("movg destination {dst} targets ib{dst_ib}, but the kernel has {num_ibs} IBs"),
                    "cross-IB moves must deliver to a different, existing IB",
                )),
                Some((_, row)) => out.push(isa02(
                    format!("movg destination {dst} names row {row}, past the {ARRAY_ROWS}-row array"),
                    "a movg delivers into a row of the destination array",
                )),
                None => out.push(isa02(
                    format!("movg destination {dst} is not a cross-IB address"),
                    "encode the destination with vaddr::cross_ib; reductions, not moves, deliver to output slots",
                )),
            }
        }
        Instruction::ReduceSum { dst, .. } => match vaddr::as_output_slot(dst) {
            Some(slot)
                if kernel
                    .outputs
                    .iter()
                    .any(|o| o.locs.contains(&OutputLoc::Reduced { slot })) => {}
            Some(slot) => out.push(isa02(
                format!("reduce_sum targets output slot {slot}, which no kernel output declares"),
                "every reduction slot must appear as an OutputLoc::Reduced in the kernel outputs",
            )),
            None => out.push(isa02(
                format!("reduce_sum destination {dst} is not an output-slot address"),
                "encode the destination with vaddr::output_slot",
            )),
        },
        _ => {}
    }
}

/// Layout legality for one IB (`ISA03`): resource pressure within the
/// array, input rows in range, unaliased and (for windows) over a stencil
/// grid, and register preloads in range.
fn check_layout(kernel: &CompiledKernel, i: usize, out: &mut Vec<Diagnostic>) {
    let ib = &kernel.ibs[i];
    if ib.peak_rows > ARRAY_ROWS {
        out.push(ib_error(
            i,
            "ISA03",
            format!(
                "peak row occupancy {} exceeds the {ARRAY_ROWS}-row array",
                ib.peak_rows
            ),
            "split the module into more IBs or free rows earlier",
        ));
    }
    if ib.peak_regs > NUM_REGISTERS {
        out.push(ib_error(
            i,
            "ISA03",
            format!(
                "peak register occupancy {} exceeds the {NUM_REGISTERS}-register file",
                ib.peak_regs
            ),
            "reduce simultaneously live register operands",
        ));
    }
    let mut loaded = [false; 1 << u8::BITS];
    for (idx, (row, binding)) in ib.input_rows.iter().enumerate() {
        if usize::from(*row) >= ARRAY_ROWS {
            out.push(ib_error(
                i,
                "ISA03",
                format!("input binding {binding:?} targets out-of-range row {row}"),
                format!("input rows must be below {ARRAY_ROWS}"),
            ));
        }
        if std::mem::replace(&mut loaded[usize::from(*row)], true) {
            let prev = ib
                .input_rows
                .iter()
                .position(|(r, _)| r == row)
                .expect("an earlier binding loads the row");
            out.push(ib_error(
                i,
                "ISA03",
                format!(
                    "input bindings {prev} and {idx} both load row {row}; the second overwrites the first"
                ),
                "each runtime-filled row must have exactly one binding",
            ));
        }
        if let InputBinding::Window { name, .. } = binding {
            if !matches!(kernel.parallel, ParallelSpec::Stencil { .. }) {
                out.push(ib_error(
                    i,
                    "ISA03",
                    format!(
                        "window input {name} in a {:?} kernel, which has no stencil grid",
                        kernel.parallel
                    ),
                    "window inputs slide over the grid of a ParallelSpec::Stencil kernel",
                ));
            }
        }
    }
    for (reg, binding) in &ib.reg_preloads {
        if usize::from(*reg) >= NUM_REGISTERS {
            out.push(ib_error(
                i,
                "ISA03",
                format!("register preload {binding:?} targets out-of-range register {reg}"),
                format!("registers must be below {NUM_REGISTERS}"),
            ));
        }
    }
}

/// `ISA03`: every per-instance output names an existing IB and an
/// in-range row.
fn check_outputs(kernel: &CompiledKernel, out: &mut Vec<Diagnostic>) {
    for output in &kernel.outputs {
        for loc in &output.locs {
            if let OutputLoc::Row { ib, row } = *loc {
                if ib >= kernel.ibs.len() || usize::from(row) >= ARRAY_ROWS {
                    out.push(Diagnostic {
                        node: Some(output.node),
                        ..ib_error(
                            ib,
                            "ISA03",
                            format!(
                                "output of {:?} claims ib{ib} row {row}, outside the kernel layout",
                                output.node
                            ),
                            "output locations must name an existing IB and an in-range row",
                        )
                    });
                }
            }
        }
    }
}

/// `SCH04`: the timetable places every IB and covers every instruction of
/// every IB exactly once.
fn check_coverage(kernel: &CompiledKernel, schedule: &Schedule, out: &mut Vec<Diagnostic>) {
    let num_ibs = kernel.ibs.len();
    if schedule.placements.len() != num_ibs {
        out.push(Diagnostic {
            rule: "SCH04",
            severity: Severity::Error,
            ib: None,
            pc: None,
            node: None,
            message: format!(
                "schedule places {} IBs but the kernel has {num_ibs}",
                schedule.placements.len()
            ),
            help: "re-run placement over every instruction block".into(),
        });
    }
    if in_program_order(kernel, &schedule.entries) {
        return;
    }
    let mut times: Vec<Vec<u32>> = kernel
        .ibs
        .iter()
        .map(|ib| vec![0; ib.block.len()])
        .collect();
    for e in &schedule.entries {
        match times.get_mut(e.ib).and_then(|ib| ib.get_mut(e.index)) {
            Some(n) => *n += 1,
            None => out.push(Diagnostic {
                rule: "SCH04",
                severity: Severity::Error,
                ib: Some(e.ib),
                pc: Some(e.index),
                node: None,
                message: "timetable entry does not correspond to any instruction".into(),
                help: "drop stale entries when editing the schedule".into(),
            }),
        }
    }
    let help = "every instruction must have exactly one schedule entry";
    for (i, counts) in times.iter().enumerate() {
        for (pc, &n) in counts.iter().enumerate() {
            match n {
                1 => {}
                0 => out.push(inst_error(
                    kernel,
                    i,
                    pc,
                    "SCH04",
                    "instruction is missing from the timetable".into(),
                    help,
                )),
                n => out.push(inst_error(
                    kernel,
                    i,
                    pc,
                    "SCH04",
                    format!("instruction is scheduled {n} times"),
                    help,
                )),
            }
        }
    }
}

/// Whether `entries` list each IB's instructions exactly once and in
/// program order, as the compiler's timetable (sorted by start cycle)
/// does. That proves `SCH04`'s coverage with one cursor per IB on the
/// stack, `CURSORS` IBs per pass over the entries; any other listing
/// takes the counting path.
fn in_program_order(kernel: &CompiledKernel, entries: &[ScheduledInst]) -> bool {
    const CURSORS: usize = 64;
    let num_ibs = kernel.ibs.len();
    entries.iter().all(|e| e.ib < num_ibs)
        && (0..num_ibs).step_by(CURSORS).all(|first| {
            let mut next = [0usize; CURSORS];
            for e in entries {
                if let Some(cursor) = e.ib.checked_sub(first).and_then(|k| next.get_mut(k)) {
                    if *cursor != e.index {
                        return false;
                    }
                    *cursor += 1;
                }
            }
            kernel.ibs[first..]
                .iter()
                .zip(next)
                .all(|(ib, n)| n == ib.block.len())
        })
}
