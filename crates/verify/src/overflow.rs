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
use imp_compiler::module::{vaddr, InputBinding, RegBinding};
use imp_compiler::scalar::{SOp, ScalarId};
use imp_compiler::CompiledKernel;
use imp_dfg::range::Interval;
use imp_isa::{Addr, Instruction};
use std::collections::{HashMap, HashSet};

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
    let shared_range = |name: &str, flat_idx: usize| -> Option<Interval> {
        let key = InputBinding::Shared {
            name: name.to_string(),
            flat_idx,
        };
        binding_range.get(&key).copied().flatten()
    };

    // Ranges delivered into each IB by movg, keyed by destination row.
    let mut arrival_range: Vec<HashMap<u8, Option<Interval>>> =
        vec![HashMap::new(); kernel.ibs.len()];
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
                arrival_range[consumer].insert(row, range);
            }
        }
    }

    let mut reported_sequences: HashSet<(usize, ScalarId)> = HashSet::new();

    for (i, ib) in kernel.ibs.iter().enumerate() {
        // Known value interval per local address; absent = unknown.
        let mut env: HashMap<Addr, Interval> = HashMap::new();
        for (row, binding) in &ib.input_rows {
            if let Some(Some(r)) = binding_range.get(binding).copied() {
                env.insert(Addr::Mem(*row), r);
            }
        }
        for (&row, &range) in &arrival_range[i] {
            if let Some(r) = range {
                env.insert(Addr::Mem(row), r);
            }
        }
        for (reg, binding) in &ib.reg_preloads {
            let r = match binding {
                RegBinding::Const(raw) => Some(Interval::point(f64::from(*raw) / scale)),
                RegBinding::Shared { name, flat_idx } => shared_range(name, *flat_idx),
            };
            if let Some(r) = r {
                env.insert(Addr::Reg(*reg), r);
            }
        }

        for (pc, inst) in ib.block.instructions().iter().enumerate() {
            let Some(dst) = inst.local_dst() else {
                continue;
            };
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
                match result {
                    Some(r) => {
                        if !r.fits(format) && reported_sequences.insert((i, s)) {
                            out.push(overflow_diag(kernel, i, pc, inst, r));
                        }
                        env.insert(dst, r);
                    }
                    None => {
                        env.remove(&dst);
                    }
                }
                continue;
            }

            let value = transfer(inst, &env, scale, &ib.lut);
            match value {
                Some(v) => {
                    if !v.fits(format) {
                        out.push(overflow_diag(kernel, i, pc, inst, v));
                    }
                    env.insert(dst, v);
                }
                None => {
                    env.remove(&dst);
                }
            }
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

/// Interval transfer function of one instruction. `None` means unknown.
fn transfer(
    inst: &Instruction,
    env: &HashMap<Addr, Interval>,
    scale: f64,
    lut: &imp_rram::Lut,
) -> Option<Interval> {
    let get = |addr: Addr| env.get(&addr).copied();
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
        Instruction::Lut { .. } => {
            let (mut lo, mut hi) = (u8::MAX, u8::MIN);
            for e in 0..512 {
                let v = lut.entry(e);
                lo = lo.min(v);
                hi = hi.max(v);
            }
            Some(Interval::new(f64::from(lo) / scale, f64::from(hi) / scale))
        }
        Instruction::Movg { .. } | Instruction::ReduceSum { .. } => None,
    }
}
