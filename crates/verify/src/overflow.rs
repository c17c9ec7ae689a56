//! Fixed-point overflow: rule `OVF01`.
//!
//! Extends the `dfg::range` interval analysis through lowering: every
//! instruction gets a transfer function over value intervals, seeded
//! from the declared input ranges the compiler recorded per scalar. The
//! LUT-seeded Newton–Raphson sequences (div, sqrt, exp, sigmoid) are
//! handled relationally — naive interval arithmetic through an NR
//! iteration loses the correlation between the operand and its
//! reciprocal estimate and diverges exponentially, so instructions
//! belonging to such a sequence are bounded by the *scalar-level* range
//! the dfg analysis certified for the sequence's result.

use crate::{origin_node, Diagnostic, Severity};
use imp_compiler::module::{vaddr, InputBinding};
use imp_compiler::scalar::SOp;
use imp_compiler::CompiledKernel;
use imp_dfg::range::Interval;
use imp_isa::{Addr, Instruction, ARRAY_ROWS, NUM_REGISTERS};
use std::collections::HashMap;

/// Known value interval per local address, indexed by `Addr::to_byte()`;
/// `None` is unknown.
type Env = [Option<Interval>; ARRAY_ROWS + NUM_REGISTERS];

pub(crate) fn check(kernel: &CompiledKernel, out: &mut Vec<Diagnostic>) {
    let format = kernel.format;
    let scale = f64::from(1u32 << format.frac_bits());
    let module = &kernel.module;

    // Declared range of every runtime input, keyed by its binding.
    let mut binding_range: HashMap<&InputBinding, Option<Interval>> = HashMap::new();
    for (idx, op) in module.ops.iter().enumerate() {
        if let SOp::Leaf(binding) = op {
            binding_range.insert(binding, module.range[idx]);
        }
    }

    // Ranges delivered into each IB by movg, one entry per destination
    // row: the last delivery in producer program order wins.
    let mut arrival_range: Vec<Vec<(u8, Option<Interval>)>> = vec![Vec::new(); kernel.ibs.len()];
    for ib in &kernel.ibs {
        for (m, inst) in ib.block.instructions().iter().enumerate() {
            if let Instruction::Movg { dst, .. } = inst {
                let (consumer, row) =
                    vaddr::as_cross_ib(*dst).expect("ISA02 checked movg destinations");
                let range = ib
                    .provenance
                    .get(m)
                    .copied()
                    .flatten()
                    .and_then(|s| module.range.get(s.0).copied().flatten());
                let delivered = &mut arrival_range[consumer];
                match delivered.iter_mut().find(|(r, _)| *r == row) {
                    Some(entry) => entry.1 = range,
                    None => delivered.push((row, range)),
                }
            }
        }
    }

    // The IB in which each LUT-seeded sequence was last reported, indexed
    // by its result scalar: one finding per sequence and IB.
    let mut reported_in: Vec<Option<usize>> = vec![None; module.ops.len()];

    for (i, ib) in kernel.ibs.iter().enumerate() {
        let mut env: Env = [None; ARRAY_ROWS + NUM_REGISTERS];
        for (row, binding) in &ib.input_rows {
            if let Some(Some(r)) = binding_range.get(binding).copied() {
                env[usize::from(Addr::Mem(*row).to_byte())] = Some(r);
            }
        }
        for &(row, range) in &arrival_range[i] {
            if let Some(r) = range {
                env[usize::from(Addr::Mem(row).to_byte())] = Some(r);
            }
        }
        // The interval of the IB's LUT entries, found at its first `lut`.
        let mut lut_range: Option<Interval> = None;

        for (pc, inst) in ib.block.instructions().iter().enumerate() {
            let Some(dst) = inst.local_dst() else {
                continue;
            };
            let dst_slot = usize::from(dst.to_byte());
            let provenance = ib.provenance.get(pc).copied().flatten();
            let sequence = provenance.filter(|s| {
                matches!(
                    module.ops.get(s.0),
                    Some(SOp::Div(..) | SOp::Sqrt(..) | SOp::Exp(..) | SOp::Sigmoid(..))
                )
            });

            if let Some(s) = sequence {
                // Relational bound: the whole LUT-seeded iterative run is
                // certified by the scalar-level range of its result.
                let result = module.range.get(s.0).copied().flatten();
                if let Some(r) = result {
                    if !r.fits(format) && reported_in[s.0] != Some(i) {
                        reported_in[s.0] = Some(i);
                        out.push(overflow_diag(kernel, i, pc, inst, r));
                    }
                }
                env[dst_slot] = result;
                continue;
            }

            let value = transfer(inst, &env, scale, &ib.lut, &mut lut_range);
            if let Some(v) = value {
                if !v.fits(format) {
                    out.push(overflow_diag(kernel, i, pc, inst, v));
                }
            }
            env[dst_slot] = value;
        }
    }
}

fn overflow_diag(
    kernel: &CompiledKernel,
    ib: usize,
    pc: usize,
    inst: &Instruction,
    value: Interval,
) -> Diagnostic {
    let format = kernel.format;
    Diagnostic {
        rule: "OVF01",
        severity: Severity::Warning,
        ib: Some(ib),
        pc: Some(pc),
        node: origin_node(kernel, ib, pc),
        message: format!(
            "`{inst}` produces values in {value}, outside the {format:?} range [{}, {}]",
            format.min_value(),
            format.max_value()
        ),
        help: "widen the fixed-point format (fewer fraction bits) or rescale the inputs".into(),
    }
}

/// The interval of every entry of `lut`, at the kernel's scale.
fn entry_range(lut: &imp_rram::Lut, scale: f64) -> Interval {
    let (mut lo, mut hi) = (u8::MAX, u8::MIN);
    for e in 0..512 {
        let v = lut.entry(e);
        lo = lo.min(v);
        hi = hi.max(v);
    }
    Interval::new(f64::from(lo) / scale, f64::from(hi) / scale)
}

/// Interval transfer function of one instruction. `None` means unknown.
/// `lut_range` caches the interval of `lut`'s entries for the IB.
fn transfer(
    inst: &Instruction,
    env: &Env,
    scale: f64,
    lut: &imp_rram::Lut,
    lut_range: &mut Option<Interval>,
) -> Option<Interval> {
    let get = |addr: Addr| env[usize::from(addr.to_byte())];
    let sum_rows = |rows: imp_isa::RowMask| -> Option<Interval> {
        let mut acc = Interval::point(0.0);
        for row in rows.rows() {
            acc = acc.add(get(Addr::Mem(row as u8))?);
        }
        Some(acc)
    };
    match *inst {
        Instruction::Add { mask, .. } => sum_rows(mask),
        Instruction::Dot { mask, reg_mask, .. } => {
            let mut acc = Interval::point(0.0);
            for (row, reg) in mask.rows().zip(reg_mask.rows()) {
                let term = get(Addr::Mem(row as u8))?.mul(get(Addr::Reg(reg as u8))?);
                acc = acc.add(term);
            }
            Some(acc)
        }
        Instruction::Mul { a, b, .. } => Some(get(a)?.mul(get(b)?)),
        Instruction::Sub {
            minuend,
            subtrahend,
            ..
        } => Some(sum_rows(minuend)?.sub(sum_rows(subtrahend)?)),
        Instruction::ShiftL { src, amount, .. } => Some(get(src)?.mul(Interval::point(f64::from(
            1u32 << u32::from(amount.min(31)),
        )))),
        Instruction::ShiftR { src, amount, .. } => Some(get(src)?.mul(Interval::point(
            1.0 / f64::from(1u32 << u32::from(amount.min(31))),
        ))),
        Instruction::Mask { imm: raw, .. } => {
            if raw & 0x8000_0000 == 0 {
                // AND with a sign-bit-clear mask yields a non-negative
                // word no larger than the mask.
                Some(Interval::new(0.0, f64::from(raw) / scale))
            } else {
                None
            }
        }
        Instruction::Mov { src, .. } => get(src),
        Instruction::Movs { src, dst, .. } => {
            // Per-lane select: lanes keep either the old or the new value.
            Some(get(src)?.union(get(dst)?))
        }
        Instruction::Movi { imm, .. } => Some(Interval::point(f64::from(imm.as_i32()) / scale)),
        Instruction::Lut { .. } => Some(*lut_range.get_or_insert_with(|| entry_range(lut, scale))),
        Instruction::Movg { .. } | Instruction::ReduceSum { .. } => None,
    }
}
