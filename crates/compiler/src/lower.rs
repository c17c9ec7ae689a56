//! Instruction lowering: scalar module ops → the 13-instruction ISA.
//!
//! Complex operations are lowered with the LUT-seeded iterative algorithms
//! of §5.1 (after the IA-64 division/transcendental algorithms the paper
//! cites): division and square root by Newton–Raphson from an 8-bit LUT
//! seed, exponential by bucketed LUT seed plus Maclaurin refinement of the
//! residual, sigmoid by direct LUT approximation. `Less`/`Select` become
//! sign extraction and mask-register-predicated selective moves. Rows are
//! allocated round-robin for wear leveling (§7.5) and freed by liveness
//! so modules fit the 128-row arrays.

use crate::luts::{self, LutAllocator, SeedTable, TableFn};
use crate::module::{vaddr, CompiledIb, InputBinding, ModuleOutput, OutputLoc};
use crate::partition::Partition;
use crate::scalar::{SOp, ScalarId, ScalarModule, VClass};
use crate::{CompileError, CompileOptions};
use imp_dfg::range::Interval;
use imp_isa::{Addr, Instruction, InstructionBlock, LaneMask, RowMask, ARRAY_ROWS, MASK_REGISTER};
use imp_rram::{Fixed, QFormat};
use std::collections::{HashMap, HashSet};

/// Where a scalar currently lives within one IB.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Loc {
    Row(u8),
    Reg(u8),
}

/// Round-robin row allocator (wear leveling, §7.5) with liveness reuse.
#[derive(Debug)]
struct RowAlloc {
    used: [bool; ARRAY_ROWS],
    cursor: usize,
    in_use: usize,
    peak: usize,
}

impl RowAlloc {
    fn new() -> Self {
        RowAlloc {
            used: [false; ARRAY_ROWS],
            cursor: 0,
            in_use: 0,
            peak: 0,
        }
    }

    fn alloc(&mut self) -> Option<u8> {
        for step in 0..ARRAY_ROWS {
            let row = (self.cursor + step) % ARRAY_ROWS;
            if !self.used[row] {
                self.used[row] = true;
                self.cursor = (row + 1) % ARRAY_ROWS;
                self.in_use += 1;
                self.peak = self.peak.max(self.in_use);
                return Some(row as u8);
            }
        }
        None
    }

    fn free(&mut self, row: u8) {
        if self.used[row as usize] {
            self.used[row as usize] = false;
            self.in_use -= 1;
        }
    }
}

/// Register allocator (register 127 is the architectural mask register).
#[derive(Debug)]
struct RegAlloc {
    used: [bool; 128],
    in_use: usize,
    peak: usize,
}

impl RegAlloc {
    fn new() -> Self {
        let mut used = [false; 128];
        used[MASK_REGISTER] = true;
        RegAlloc {
            used,
            in_use: 0,
            peak: 0,
        }
    }

    fn alloc(&mut self) -> Option<u8> {
        for reg in 0..MASK_REGISTER {
            if !self.used[reg] {
                self.used[reg] = true;
                self.in_use += 1;
                self.peak = self.peak.max(self.in_use);
                return Some(reg as u8);
            }
        }
        None
    }

    /// Allocates `k` registers in ascending index order (the `dot`
    /// row↔register pairing is positional over sorted indices).
    fn alloc_block(&mut self, k: usize) -> Option<Vec<u8>> {
        let mut block = Vec::with_capacity(k);
        for _ in 0..k {
            match self.alloc() {
                Some(reg) => block.push(reg),
                None => {
                    for reg in block {
                        self.free(reg);
                    }
                    return None;
                }
            }
        }
        block.sort_unstable();
        Some(block)
    }

    fn free(&mut self, reg: u8) {
        if self.used[reg as usize] {
            self.used[reg as usize] = false;
            self.in_use -= 1;
        }
    }
}

struct IbState {
    index: usize,
    instructions: Vec<Instruction>,
    deps: Vec<Vec<(usize, usize)>>,
    rows: RowAlloc,
    regs: RegAlloc,
    loc: HashMap<ScalarId, Loc>,
    /// Cross-IB arrival dependencies: scalar → (producer ib, movg index).
    arrival: HashMap<ScalarId, (usize, usize)>,
    /// Remaining uses of each scalar in this IB.
    remaining: HashMap<ScalarId, usize>,
    /// Scalars whose rows must survive to the end (module outputs).
    pinned: HashSet<ScalarId>,
    const_rows: HashMap<ConstKey, u8>,
    input_rows: Vec<(u8, InputBinding)>,
    lut_alloc: LutAllocator,
    /// Deps collected while preparing the current op's operands.
    pending_deps: Vec<(usize, usize)>,
    /// The scalar currently being lowered; stamped onto every emitted
    /// instruction as its provenance.
    current: Option<ScalarId>,
    /// Per-instruction originating scalar (parallel to `instructions`).
    provenance: Vec<Option<ScalarId>>,
}

/// A constant row's contents: a compile-time value, which `movi` writes
/// in the kernel's fixed-point format (keyed by its `f64` bits, so `-0.0`
/// and `0.0` keep separate rows), or a raw word not scaled to the format,
/// e.g. a LUT index base. The two never share a row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum ConstKey {
    Value(u64),
    Raw(i32),
}

impl ConstKey {
    fn value(value: f64) -> Self {
        ConstKey::Value(value.to_bits())
    }
}

impl IbState {
    fn new(index: usize) -> Self {
        IbState {
            index,
            instructions: Vec::new(),
            deps: Vec::new(),
            rows: RowAlloc::new(),
            regs: RegAlloc::new(),
            loc: HashMap::new(),
            arrival: HashMap::new(),
            remaining: HashMap::new(),
            pinned: HashSet::new(),
            const_rows: HashMap::new(),
            input_rows: Vec::new(),
            lut_alloc: LutAllocator::new(),
            pending_deps: Vec::new(),
            current: None,
            provenance: Vec::new(),
        }
    }

    fn emit(&mut self, inst: Instruction) -> usize {
        let idx = self.instructions.len();
        self.instructions.push(inst);
        self.deps.push(std::mem::take(&mut self.pending_deps));
        self.provenance.push(self.current);
        idx
    }

    fn alloc_row(&mut self) -> Result<u8, CompileError> {
        self.rows.alloc().ok_or(CompileError::OutOfRows {
            ib: self.index,
            needed: ARRAY_ROWS + 1,
        })
    }
}

/// Whether `operand` may live in a register for this consumer: true for
/// positions read through the digital periphery or the bit-line DACs
/// (`mul` multiplicand, floor shifts, select moves), false for in-situ
/// positions that must be resident array rows (n-ary masks, dot data
/// rows, the iterative div/sqrt/exp chains).
fn reg_capable_use(consumer: &SOp, operand: ScalarId) -> bool {
    match consumer {
        SOp::Mul(_, b) => *b == operand,
        SOp::FloorQ(_) => true,
        SOp::Select { .. } => true,
        _ => false,
    }
}

/// Quantizes a range outward onto a coarse grid so that near-identical
/// operand ranges share one LUT seed table (e.g. the two CNDF evaluations
/// in Black–Scholes produce slightly different propagated intervals that
/// must not cost two tables). A range with an infinite bound or span —
/// e.g. an `exp` result that overflowed `f64` — cannot seed a table.
fn quantize_range(r: Interval) -> Result<Interval, CompileError> {
    let span = (r.hi - r.lo).max(1e-6);
    if !(r.lo.is_finite() && r.hi.is_finite() && span.is_finite()) {
        return Err(CompileError::BadRange(format!(
            "operand range {r} is too wide to seed a LUT"
        )));
    }
    let grid = (2.0f64).powf(span.log2().round()) / 16.0;
    let lo = (r.lo / grid).floor() * grid;
    let hi = (r.hi / grid).ceil() * grid;
    Ok(Interval::new(lo, hi.max(lo + grid)))
}

/// Def-use index of a module: the consumers of every scalar, in ascending
/// order, each listed once however often it reads the producer. Stored as
/// CSR — `consumers[offsets[id]..offsets[id + 1]]` — and built per
/// [`lower`] call, since node merging rewrites ops.
struct ConsumerIndex {
    offsets: Vec<usize>,
    consumers: Vec<ScalarId>,
}

impl ConsumerIndex {
    fn new(module: &ScalarModule) -> Self {
        let mut edges: Vec<(ScalarId, ScalarId)> = Vec::new();
        for (idx, op) in module.ops.iter().enumerate() {
            let mut operands = op.operands();
            operands.sort_unstable();
            operands.dedup();
            edges.extend(
                operands
                    .into_iter()
                    .map(|producer| (producer, ScalarId(idx))),
            );
        }
        // Counting sort by producer; stable, so consumers stay ascending.
        let mut offsets = vec![0usize; module.ops.len() + 1];
        for &(producer, _) in &edges {
            offsets[producer.0 + 1] += 1;
        }
        for i in 1..offsets.len() {
            offsets[i] += offsets[i - 1];
        }
        let mut next = offsets.clone();
        let mut consumers = vec![ScalarId(0); edges.len()];
        for (producer, consumer) in edges {
            consumers[next[producer.0]] = consumer;
            next[producer.0] += 1;
        }
        ConsumerIndex { offsets, consumers }
    }

    fn of(&self, id: ScalarId) -> &[ScalarId] {
        &self.consumers[self.offsets[id.0]..self.offsets[id.0 + 1]]
    }
}

struct LowerCtx<'m> {
    module: &'m ScalarModule,
    partition: &'m Partition,
    options: &'m CompileOptions,
    format: QFormat,
    ibs: Vec<IbState>,
    consumers: ConsumerIndex,
    /// Consumers of each scalar in other IBs (for eager movg emission).
    remote_consumers: HashMap<ScalarId, Vec<usize>>,
    /// Reduction slot of each ReduceAcross scalar.
    reduce_slots: HashMap<ScalarId, usize>,
}

/// Lowers a partitioned module to the kernel's instruction blocks and
/// output locations.
///
/// # Errors
/// Row/register exhaustion, missing/invalid value ranges for the
/// LUT-seeded lowerings, and LUT table overflow.
pub fn lower(
    module: &ScalarModule,
    partition: &Partition,
    options: &CompileOptions,
) -> Result<(Vec<CompiledIb>, Vec<ModuleOutput>), CompileError> {
    let mut ctx = LowerCtx {
        module,
        partition,
        options,
        format: options.format,
        ibs: (0..partition.num_ibs).map(IbState::new).collect(),
        consumers: ConsumerIndex::new(module),
        remote_consumers: HashMap::new(),
        reduce_slots: HashMap::new(),
    };
    ctx.prepare_usage();
    ctx.preallocate_leaves()?;
    for idx in 0..module.ops.len() {
        let id = ScalarId(idx);
        if !partition.live.contains(&id) {
            continue;
        }
        if let Some(&home) = partition.ib_of.get(&id) {
            ctx.set_current(Some(id));
            ctx.lower_op(id, home)?;
            ctx.emit_remote_moves(id, home)?;
            ctx.release_operands(id, home);
        }
    }
    ctx.set_current(None);
    let outputs = ctx.assemble_outputs()?;
    let format = ctx.format;
    let ibs = ctx
        .ibs
        .into_iter()
        .map(|state| CompiledIb {
            block: InstructionBlock::from_instructions(
                format!("ib{}", state.index),
                state.instructions,
            ),
            deps: state.deps,
            input_rows: state.input_rows,
            lut: state.lut_alloc.render(format.frac_bits()),
            peak_rows: state.rows.peak,
            peak_regs: state.regs.peak,
            provenance: state.provenance,
        })
        .collect();
    Ok((ibs, outputs))
}

impl LowerCtx<'_> {
    fn raw(&self, value: f64) -> i32 {
        Fixed::from_f64_saturating(value, self.format).raw()
    }

    /// Sets the provenance scalar stamped onto instructions emitted from
    /// here on, in every IB (materialization may emit in remote IBs too).
    fn set_current(&mut self, id: Option<ScalarId>) {
        for state in &mut self.ibs {
            state.current = id;
        }
    }

    /// Counts per-IB uses and remote consumers, and pins output rows.
    fn prepare_usage(&mut self) {
        for idx in 0..self.module.ops.len() {
            let id = ScalarId(idx);
            if !self.partition.live.contains(&id) {
                continue;
            }
            let Some(&home) = self.partition.ib_of.get(&id) else {
                continue;
            };
            for operand in self.module.ops[idx].operands() {
                *self.ibs[home].remaining.entry(operand).or_insert(0) += 1;
                // A remote producer must movg into `home`.
                if let Some(&producer_home) = self.partition.ib_of.get(&operand) {
                    if producer_home != home {
                        let list = self.remote_consumers.entry(operand).or_default();
                        if !list.contains(&home) {
                            list.push(home);
                        }
                    }
                }
            }
        }
        for output in &self.module.outputs {
            for &s in &output.scalars {
                let home = self.home_of(s);
                self.ibs[home].pinned.insert(s);
            }
        }
    }

    /// Home IB of a scalar: its partition assignment, or IB 0 for leaves
    /// and constants referenced directly as outputs.
    fn home_of(&self, id: ScalarId) -> usize {
        self.partition.ib_of.get(&id).copied().unwrap_or(0)
    }

    /// Allocates every input-leaf row up front. The runtime fills input
    /// rows *before* execution starts, so their rows must be reserved
    /// before any temporary can claim the same row earlier in the
    /// execution order (they are still freed after their last use).
    fn preallocate_leaves(&mut self) -> Result<(), CompileError> {
        for idx in 0..self.module.ops.len() {
            let id = ScalarId(idx);
            if !self.partition.live.contains(&id) {
                continue;
            }
            if !matches!(self.module.ops[idx], SOp::Leaf(_)) {
                continue;
            }
            // Reserve in every IB that reads this leaf as a row operand.
            let mut homes: Vec<usize> = Vec::new();
            for consumer in self.consumers.of(id) {
                if !self.partition.live.contains(consumer) {
                    continue;
                }
                if let Some(&h) = self.partition.ib_of.get(consumer) {
                    if !homes.contains(&h) {
                        homes.push(h);
                    }
                }
            }
            // Output leaves need a row in their home IB too.
            if self
                .module
                .outputs
                .iter()
                .any(|o| o.scalars.contains(&id) && !o.reduced)
            {
                let h = self.home_of(id);
                if !homes.contains(&h) {
                    homes.push(h);
                }
            }
            for home in homes {
                self.set_current(Some(id));
                self.ensure_row(id, home)?;
            }
        }
        self.set_current(None);
        Ok(())
    }

    fn release_operands(&mut self, id: ScalarId, home: usize) {
        for operand in self.module.ops[id.0].operands() {
            // Constant rows are deduplicated for the IB's whole lifetime.
            if matches!(self.module.ops[operand.0], SOp::Const(_)) {
                continue;
            }
            let state = &mut self.ibs[home];
            if let Some(count) = state.remaining.get_mut(&operand) {
                *count = count.saturating_sub(1);
                if *count == 0 && !state.pinned.contains(&operand) {
                    if let Some(loc) = state.loc.remove(&operand) {
                        match loc {
                            Loc::Row(row) => state.rows.free(row),
                            Loc::Reg(reg) => state.regs.free(reg),
                        }
                    }
                }
            }
        }
    }

    /// Emits `movg`s delivering `id` to every remote consumer IB.
    fn emit_remote_moves(&mut self, id: ScalarId, home: usize) -> Result<(), CompileError> {
        let Some(consumers) = self.remote_consumers.get(&id).cloned() else {
            return Ok(());
        };
        let src_row = self.ensure_row(id, home)?;
        for consumer in consumers {
            let dst_row = self.ibs[consumer].alloc_row()?;
            let movg_idx = self.ibs[home].emit(Instruction::Movg {
                src: vaddr::cross_ib(home, src_row),
                dst: vaddr::cross_ib(consumer, dst_row),
            });
            let state = &mut self.ibs[consumer];
            state.loc.insert(id, Loc::Row(dst_row));
            state.arrival.insert(id, (home, movg_idx));
        }
        Ok(())
    }

    /// Materializes a leaf / constant in `ib` if absent, and returns the
    /// scalar's row (moving it out of a register if needed).
    fn ensure_row(&mut self, id: ScalarId, ib: usize) -> Result<u8, CompileError> {
        if let Some((producer, movg_idx)) = self.ibs[ib].arrival.get(&id).copied() {
            self.ibs[ib].pending_deps.push((producer, movg_idx));
        }
        match self.ibs[ib].loc.get(&id).copied() {
            Some(Loc::Row(row)) => Ok(row),
            Some(Loc::Reg(reg)) => {
                let row = self.ibs[ib].alloc_row()?;
                self.ibs[ib].emit(Instruction::Mov {
                    src: Addr::reg(reg as usize),
                    dst: Addr::mem(row as usize),
                });
                self.ibs[ib].loc.insert(id, Loc::Row(row));
                self.ibs[ib].regs.free(reg);
                Ok(row)
            }
            None => match &self.module.ops[id.0] {
                SOp::Leaf(binding) => {
                    let row = self.ibs[ib].alloc_row()?;
                    self.ibs[ib].input_rows.push((row, binding.clone()));
                    self.ibs[ib].loc.insert(id, Loc::Row(row));
                    Ok(row)
                }
                SOp::Const(value) => {
                    let row = self.const_row(ib, ConstKey::value(*value))?;
                    self.ibs[ib].loc.insert(id, Loc::Row(row));
                    Ok(row)
                }
                // Reduction results live in output slots, never in rows.
                SOp::ReduceAcross(_) => Err(CompileError::Unsupported(format!(
                    "ib{ib} consumes cross-instance reduction result {id:?}; reductions \
                     must be final outputs (compute on reduced values host-side)"
                ))),
                other => {
                    unreachable!("scalar {id:?} ({other:?}) used in ib{ib} before being produced")
                }
            },
        }
    }

    /// A row holding the constant `key` (deduplicated per IB;
    /// materialized with `movi`).
    fn const_row(&mut self, ib: usize, key: ConstKey) -> Result<u8, CompileError> {
        if let Some(&row) = self.ibs[ib].const_rows.get(&key) {
            return Ok(row);
        }
        let raw = match key {
            ConstKey::Value(bits) => self.raw(f64::from_bits(bits)),
            ConstKey::Raw(raw) => raw,
        };
        let row = self.ibs[ib].alloc_row()?;
        self.ibs[ib].emit(Instruction::Movi {
            dst: Addr::mem(row as usize),
            imm: imp_isa::Imm::broadcast(raw),
        });
        self.ibs[ib].const_rows.insert(key, row);
        Ok(row)
    }

    /// Rows for a set of operands, copying duplicates into scratch rows so
    /// the n-ary row mask stays a set.
    fn operand_rows(
        &mut self,
        ids: &[ScalarId],
        ib: usize,
        taken: &mut Vec<u8>,
    ) -> Result<(Vec<u8>, Vec<u8>), CompileError> {
        let mut rows = Vec::with_capacity(ids.len());
        let mut scratch = Vec::new();
        for &id in ids {
            let row = self.ensure_row(id, ib)?;
            if taken.contains(&row) {
                let copy = self.ibs[ib].alloc_row()?;
                self.ibs[ib].emit(Instruction::Mov {
                    src: Addr::mem(row as usize),
                    dst: Addr::mem(copy as usize),
                });
                scratch.push(copy);
                taken.push(copy);
                rows.push(copy);
            } else {
                taken.push(row);
                rows.push(row);
            }
        }
        Ok((rows, scratch))
    }

    fn free_scratch(&mut self, ib: usize, scratch: Vec<u8>) {
        for row in scratch {
            self.ibs[ib].rows.free(row);
        }
    }

    /// Whether this scalar should be produced straight into a register
    /// (§5.2: results feeding only multiplications skip the array
    /// write-back, since multiplicands stream from registers; the same
    /// write-avoidance extends to any consumer that reads its operand
    /// through the digital periphery — shifts, masks, moves, LUT
    /// lookups, selects — modeling the output-register path).
    fn prefers_register(&self, id: ScalarId, home: usize) -> bool {
        if self.ibs[home].pinned.contains(&id) || self.remote_consumers.contains_key(&id) {
            return false;
        }
        let consumers = self.consumers.of(id);
        !consumers.is_empty()
            && consumers.iter().all(|&c| {
                self.partition.ib_of.get(&c) == Some(&home)
                    && reg_capable_use(&self.module.ops[c.0], id)
            })
    }

    /// Allocates the destination for a produced scalar and records its
    /// location.
    fn dest_for(&mut self, id: ScalarId, home: usize) -> Result<Addr, CompileError> {
        if self.prefers_register(id, home) {
            // Registers are a bounded resource; spill to a row when the
            // file is full rather than failing the compile.
            if let Some(reg) = self.ibs[home].regs.alloc() {
                self.ibs[home].loc.insert(id, Loc::Reg(reg));
                return Ok(Addr::reg(reg as usize));
            }
        }
        {
            let row = self.ibs[home].alloc_row()?;
            self.ibs[home].loc.insert(id, Loc::Row(row));
            Ok(Addr::mem(row as usize))
        }
    }

    /// The operand address for a periphery-read position (a `mul`
    /// multiplicand, shift/mask/mov/lut source): wherever the value
    /// already lives — register or row.
    fn operand_addr(&mut self, id: ScalarId, ib: usize) -> Result<Addr, CompileError> {
        if let Some((producer, movg_idx)) = self.ibs[ib].arrival.get(&id).copied() {
            self.ibs[ib].pending_deps.push((producer, movg_idx));
        }
        match self.ibs[ib].loc.get(&id).copied() {
            Some(Loc::Reg(reg)) => Ok(Addr::reg(reg as usize)),
            _ => Ok(Addr::mem(self.ensure_row(id, ib)? as usize)),
        }
    }

    fn range_of(&self, id: ScalarId) -> Option<Interval> {
        self.module.range[id.0]
    }

    fn lower_op(&mut self, id: ScalarId, home: usize) -> Result<(), CompileError> {
        match self.module.ops[id.0].clone() {
            SOp::Leaf(_) | SOp::Const(_) => Ok(()), // materialized on use
            SOp::AddN(xs) => self.lower_addsub(id, home, &xs, &[]),
            SOp::SubN { plus, minus } => self.lower_addsub(id, home, &plus, &minus),
            SOp::Mul(a, b) => {
                let a_row = self.ensure_row(a, home)?;
                let b_addr = self.operand_addr(b, home)?;
                let dst = self.dest_for(id, home)?;
                self.ibs[home].emit(Instruction::Mul {
                    a: Addr::mem(a_row as usize),
                    b: b_addr,
                    dst,
                });
                Ok(())
            }
            SOp::DotShared { xs, ws } => self.lower_dot(id, home, &xs, &ws),
            SOp::Div(a, b) => self.lower_div(id, home, a, b),
            SOp::Exp(x) => self.lower_exp(id, home, x),
            SOp::Sqrt(x) => self.lower_sqrt(id, home, x),
            SOp::Abs(x) => self.lower_abs(id, home, x),
            SOp::Sigmoid(x) => self.lower_sigmoid(id, home, x),
            SOp::Less(a, b) => self.lower_less(id, home, a, b),
            SOp::Select { cond, a, b } => self.lower_select(id, home, cond, a, b),
            SOp::FloorQ(x) => self.lower_floor(id, home, x),
            SOp::ReduceAcross(x) => {
                let src = self.ensure_row(x, home)?;
                let slot = self.reduce_slots.len();
                self.reduce_slots.insert(id, slot);
                self.ibs[home].emit(Instruction::ReduceSum {
                    src: Addr::mem(src as usize),
                    dst: vaddr::output_slot(slot),
                });
                Ok(())
            }
        }
    }

    fn lower_addsub(
        &mut self,
        id: ScalarId,
        home: usize,
        plus: &[ScalarId],
        minus: &[ScalarId],
    ) -> Result<(), CompileError> {
        let mut taken = Vec::new();
        let (plus_rows, s1) = self.operand_rows(plus, home, &mut taken)?;
        let (minus_rows, s2) = self.operand_rows(minus, home, &mut taken)?;
        let dst = self.dest_for(id, home)?;
        if minus_rows.is_empty() {
            self.emit_nary_add(home, plus_rows, dst)?;
        } else {
            self.ibs[home].emit(Instruction::Sub {
                minuend: plus_rows.iter().map(|&r| r as usize).collect(),
                subtrahend: minus_rows.iter().map(|&r| r as usize).collect(),
                dst,
            });
        }
        self.free_scratch(home, s1);
        self.free_scratch(home, s2);
        Ok(())
    }

    /// n-ary add with the ADC operand cap, folding wide sums into a tree.
    fn emit_nary_add(
        &mut self,
        ib: usize,
        mut rows: Vec<u8>,
        dst: Addr,
    ) -> Result<(), CompileError> {
        let cap = self.options.analog.max_add_operands().max(2);
        if rows.len() == 1 {
            self.ibs[ib].emit(Instruction::Mov {
                src: Addr::mem(rows[0] as usize),
                dst,
            });
            return Ok(());
        }
        let mut scratch: Vec<u8> = Vec::new();
        while rows.len() > cap {
            let mut next: Vec<u8> = Vec::new();
            for chunk in rows.chunks(cap) {
                if chunk.len() == 1 {
                    next.push(chunk[0]);
                    continue;
                }
                let partial = self.ibs[ib].alloc_row()?;
                scratch.push(partial);
                self.ibs[ib].emit(Instruction::Add {
                    mask: chunk.iter().map(|&r| r as usize).collect(),
                    dst: Addr::mem(partial as usize),
                });
                next.push(partial);
            }
            rows = next;
        }
        self.ibs[ib].emit(Instruction::Add {
            mask: rows.iter().map(|&r| r as usize).collect(),
            dst,
        });
        self.free_scratch(ib, scratch);
        Ok(())
    }

    fn lower_dot(
        &mut self,
        id: ScalarId,
        home: usize,
        xs: &[ScalarId],
        ws: &[ScalarId],
    ) -> Result<(), CompileError> {
        let max_dot = self.options.analog.max_dot_operands().max(1);
        let mut partials: Vec<u8> = Vec::new();
        for (chunk_xs, chunk_ws) in xs.chunks(max_dot).zip(ws.chunks(max_dot)) {
            // Rows for the data operands (copies resolve duplicates).
            let mut taken = Vec::new();
            let (rows, scratch) = self.operand_rows(chunk_xs, home, &mut taken)?;
            // `dot` pairs the i-th lowest set row with the i-th lowest set
            // register, so sort pairs by row and load the weights into an
            // ascending register block in the same order.
            let mut pairs: Vec<(u8, ScalarId)> =
                rows.iter().copied().zip(chunk_ws.iter().copied()).collect();
            pairs.sort_by_key(|&(row, _)| row);
            let regs = self.ibs[home].regs.alloc_block(pairs.len()).ok_or(
                CompileError::OutOfRegisters {
                    ib: home,
                    needed: pairs.len(),
                },
            )?;
            for (&(_, w), &reg) in pairs.iter().zip(&regs) {
                self.bind_weight(home, w, reg)?;
            }
            let partial = self.ibs[home].alloc_row()?;
            partials.push(partial);
            self.ibs[home].emit(Instruction::Dot {
                mask: pairs.iter().map(|&(r, _)| r as usize).collect(),
                reg_mask: regs.iter().map(|&r| r as usize).collect(),
                dst: Addr::mem(partial as usize),
            });
            // Weight registers are loaded per chunk and recycled.
            for reg in regs {
                self.ibs[home].regs.free(reg);
            }
            self.free_scratch(home, scratch);
        }
        let dst = self.dest_for(id, home)?;
        if partials.len() == 1 {
            // Rewrite in place: replace the partial with the real dest.
            let last = self.ibs[home].instructions.len() - 1;
            if let Instruction::Dot { dst: ref mut d, .. } = self.ibs[home].instructions[last] {
                let partial_row = partials[0];
                *d = dst;
                self.ibs[home].rows.free(partial_row);
            }
        } else {
            let partial_rows = partials.clone();
            self.emit_nary_add(home, partials, dst)?;
            for row in partial_rows {
                self.ibs[home].rows.free(row);
            }
        }
        Ok(())
    }

    /// Loads a dot-product weight into its chunk register. Weights are
    /// loaded dynamically (constants with `movi`, runtime shared values
    /// with a row→register `mov`) so chunk registers can be recycled —
    /// a statically preloaded register file would cap a module at ~127
    /// distinct weights.
    fn bind_weight(&mut self, ib: usize, w: ScalarId, reg: u8) -> Result<(), CompileError> {
        match self.module.ops[w.0].clone() {
            SOp::Const(value) => {
                let raw = self.raw(value);
                self.ibs[ib].emit(Instruction::Movi {
                    dst: Addr::reg(reg as usize),
                    imm: imp_isa::Imm::broadcast(raw),
                });
                Ok(())
            }
            _ => {
                if self.module.class[w.0] == VClass::Parallel {
                    return Err(CompileError::Unsupported(
                        "dot-product multiplicands must be shared across instances (the \
                         word-line DAC streams one value per row)"
                            .into(),
                    ));
                }
                let row = self.ensure_row(w, ib)?;
                self.ibs[ib].emit(Instruction::Mov {
                    src: Addr::mem(row as usize),
                    dst: Addr::reg(reg as usize),
                });
                Ok(())
            }
        }
    }

    /// Computes the LUT bucket index of `x` for `table` into a fresh row.
    fn emit_index(&mut self, ib: usize, x_row: u8, table: &SeedTable) -> Result<u8, CompileError> {
        let mut cur = x_row;
        let mut scratch: Option<u8> = None;
        if table.lo_raw != 0 {
            let lo_row = self.const_row(ib, ConstKey::Raw(table.lo_raw))?;
            let t = self.ibs[ib].alloc_row()?;
            self.ibs[ib].emit(Instruction::Sub {
                minuend: RowMask::from_rows([cur as usize]),
                subtrahend: RowMask::from_rows([lo_row as usize]),
                dst: Addr::mem(t as usize),
            });
            cur = t;
            scratch = Some(t);
        }
        let idx = self.ibs[ib].alloc_row()?;
        self.ibs[ib].emit(Instruction::ShiftR {
            src: Addr::mem(cur as usize),
            dst: Addr::mem(idx as usize),
            amount: table.index_shift,
        });
        if let Some(t) = scratch {
            self.ibs[ib].rows.free(t);
        }
        if table.base != 0 {
            let base_row = self.const_row(ib, ConstKey::Raw(table.base as i32))?;
            self.ibs[ib].emit(Instruction::Add {
                mask: RowMask::from_rows([idx as usize, base_row as usize]),
                dst: Addr::mem(idx as usize),
            });
        }
        Ok(idx)
    }

    /// Looks up the seed for `idx` and scales it to Q format:
    /// `seed_raw = entry << (frac − scale)`.
    fn emit_seed(&mut self, ib: usize, idx_row: u8, scale: i32) -> Result<u8, CompileError> {
        let seed = self.ibs[ib].alloc_row()?;
        self.ibs[ib].emit(Instruction::Lut {
            src: Addr::mem(idx_row as usize),
            dst: Addr::mem(seed as usize),
        });
        let shift = i32::from(self.format.frac_bits()) - scale;
        if shift > 0 {
            self.ibs[ib].emit(Instruction::ShiftL {
                src: Addr::mem(seed as usize),
                dst: Addr::mem(seed as usize),
                amount: shift.min(31) as u8,
            });
        } else if shift < 0 {
            self.ibs[ib].emit(Instruction::ShiftR {
                src: Addr::mem(seed as usize),
                dst: Addr::mem(seed as usize),
                amount: (-shift).min(31) as u8,
            });
        }
        Ok(seed)
    }

    fn lower_div(
        &mut self,
        id: ScalarId,
        home: usize,
        a: ScalarId,
        b: ScalarId,
    ) -> Result<(), CompileError> {
        let range = self
            .range_of(b)
            .ok_or_else(|| CompileError::MissingRange(format!("divisor of scalar {}", id.0)))?;
        if range.lo <= 0.0 && range.hi >= 0.0 {
            return Err(CompileError::BadRange(format!(
                "divisor range [{}, {}] contains zero",
                range.lo, range.hi
            )));
        }
        let negative = range.hi < 0.0;
        let mut a_row = self.ensure_row(a, home)?;
        let mut b_row = self.ensure_row(b, home)?;
        if negative {
            // a/b = (−a)/(−b); negate both via current drain.
            for row in [&mut a_row, &mut b_row] {
                let neg = self.ibs[home].alloc_row()?;
                self.ibs[home].emit(Instruction::Sub {
                    minuend: RowMask::EMPTY,
                    subtrahend: RowMask::from_rows([*row as usize]),
                    dst: Addr::mem(neg as usize),
                });
                *row = neg;
            }
        }
        let abs_range = quantize_range(if negative {
            Interval::new(-range.hi, -range.lo)
        } else {
            range
        })?;
        if abs_range.lo <= 0.0 {
            return Err(CompileError::BadRange(format!(
                "divisor range [{}, {}] is too close to zero for seeding",
                range.lo, range.hi
            )));
        }
        let scale = luts::reciprocal_scale(abs_range);
        let table = self.ibs[home].lut_alloc.allocate(
            TableFn::Reciprocal { scale },
            abs_range,
            self.format.frac_bits(),
            luts::SEED_TABLE_ENTRIES,
        )?;
        let idx = self.emit_index(home, b_row, &table)?;
        let mut x = self.emit_seed(home, idx, scale)?;
        self.ibs[home].rows.free(idx);
        // Newton–Raphson: x ← x·(2 − b·x), quadratic convergence from the
        // 8-bit seed (one iteration ≈ 16 bits, two ≈ full width).
        let two_row = self.const_row(home, ConstKey::value(2.0))?;
        for _ in 0..self.options.div_iterations {
            let t1 = self.ibs[home].alloc_row()?;
            self.ibs[home].emit(Instruction::Mul {
                a: Addr::mem(b_row as usize),
                b: Addr::mem(x as usize),
                dst: Addr::mem(t1 as usize),
            });
            let t2 = self.ibs[home].alloc_row()?;
            self.ibs[home].emit(Instruction::Sub {
                minuend: RowMask::from_rows([two_row as usize]),
                subtrahend: RowMask::from_rows([t1 as usize]),
                dst: Addr::mem(t2 as usize),
            });
            let x_new = self.ibs[home].alloc_row()?;
            self.ibs[home].emit(Instruction::Mul {
                a: Addr::mem(x as usize),
                b: Addr::mem(t2 as usize),
                dst: Addr::mem(x_new as usize),
            });
            self.ibs[home].rows.free(t1);
            self.ibs[home].rows.free(t2);
            self.ibs[home].rows.free(x);
            x = x_new;
        }
        let dst = self.dest_for(id, home)?;
        self.ibs[home].emit(Instruction::Mul {
            a: Addr::mem(a_row as usize),
            b: Addr::mem(x as usize),
            dst,
        });
        self.ibs[home].rows.free(x);
        if negative {
            self.ibs[home].rows.free(a_row);
            self.ibs[home].rows.free(b_row);
        }
        Ok(())
    }

    fn lower_sqrt(&mut self, id: ScalarId, home: usize, x: ScalarId) -> Result<(), CompileError> {
        let range = self
            .range_of(x)
            .ok_or_else(|| CompileError::MissingRange(format!("sqrt operand of {}", id.0)))?;
        if range.hi < 0.0 {
            return Err(CompileError::BadRange("sqrt of a negative range".into()));
        }
        let hi = quantize_range(Interval::new(0.0, range.hi.max(1e-6)))?.hi;
        let table_range = Interval::new(0.0, hi);
        // Scale from the first bucket's midpoint (the largest seed).
        let step = hi / luts::SEED_TABLE_ENTRIES as f64;
        let mid0 = (step / 2.0).max(1e-9);
        let max_seed = 1.0 / mid0.sqrt();
        let scale = (255.0 / max_seed).log2().floor() as i32;
        let table = self.ibs[home].lut_alloc.allocate(
            TableFn::Rsqrt { scale },
            table_range,
            self.format.frac_bits(),
            luts::SEED_TABLE_ENTRIES,
        )?;
        let x_row = self.ensure_row(x, home)?;
        let idx = self.emit_index(home, x_row, &table)?;
        let mut y = self.emit_seed(home, idx, scale)?;
        self.ibs[home].rows.free(idx);
        // Newton–Raphson for 1/√x: y ← y·(3 − x·y²)/2.
        let three_row = self.const_row(home, ConstKey::value(3.0))?;
        for _ in 0..self.options.sqrt_iterations {
            let y2 = self.ibs[home].alloc_row()?;
            self.ibs[home].emit(Instruction::Mul {
                a: Addr::mem(y as usize),
                b: Addr::mem(y as usize),
                dst: Addr::mem(y2 as usize),
            });
            let xy2 = self.ibs[home].alloc_row()?;
            self.ibs[home].emit(Instruction::Mul {
                a: Addr::mem(x_row as usize),
                b: Addr::mem(y2 as usize),
                dst: Addr::mem(xy2 as usize),
            });
            let t = self.ibs[home].alloc_row()?;
            self.ibs[home].emit(Instruction::Sub {
                minuend: RowMask::from_rows([three_row as usize]),
                subtrahend: RowMask::from_rows([xy2 as usize]),
                dst: Addr::mem(t as usize),
            });
            let y_new = self.ibs[home].alloc_row()?;
            self.ibs[home].emit(Instruction::Mul {
                a: Addr::mem(y as usize),
                b: Addr::mem(t as usize),
                dst: Addr::mem(y_new as usize),
            });
            self.ibs[home].emit(Instruction::ShiftR {
                src: Addr::mem(y_new as usize),
                dst: Addr::mem(y_new as usize),
                amount: 1,
            });
            for row in [y2, xy2, t, y] {
                self.ibs[home].rows.free(row);
            }
            y = y_new;
        }
        // √x = x · (1/√x); exact at x = 0 regardless of the seed.
        let dst = self.dest_for(id, home)?;
        self.ibs[home].emit(Instruction::Mul {
            a: Addr::mem(x_row as usize),
            b: Addr::mem(y as usize),
            dst,
        });
        self.ibs[home].rows.free(y);
        Ok(())
    }

    fn lower_exp(&mut self, id: ScalarId, home: usize, x: ScalarId) -> Result<(), CompileError> {
        let range = quantize_range(
            self.range_of(x)
                .ok_or_else(|| CompileError::MissingRange(format!("exp operand of {}", id.0)))?,
        )?;
        let scale = luts::exp_scale(range)?;
        let table = self.ibs[home].lut_alloc.allocate(
            TableFn::Exp { scale },
            range,
            self.format.frac_bits(),
            luts::APPROX_TABLE_ENTRIES,
        )?;
        let x_row = self.ensure_row(x, home)?;
        let idx = self.emit_index(home, x_row, &table)?;
        let seed = self.emit_seed(home, idx, scale)?;
        self.ibs[home].rows.free(idx);
        // Residual d = (x − lo) mod bucket − bucket/2 ∈ [−step/2, step/2].
        let t = self.ibs[home].alloc_row()?;
        if table.lo_raw != 0 {
            let lo_row = self.const_row(home, ConstKey::Raw(table.lo_raw))?;
            self.ibs[home].emit(Instruction::Sub {
                minuend: RowMask::from_rows([x_row as usize]),
                subtrahend: RowMask::from_rows([lo_row as usize]),
                dst: Addr::mem(t as usize),
            });
        } else {
            self.ibs[home].emit(Instruction::Mov {
                src: Addr::mem(x_row as usize),
                dst: Addr::mem(t as usize),
            });
        }
        let bucket_mask = (1u32 << table.index_shift) - 1;
        self.ibs[home].emit(Instruction::Mask {
            src: Addr::mem(t as usize),
            dst: Addr::mem(t as usize),
            imm: bucket_mask,
        });
        let half_raw = 1i32 << table.index_shift.saturating_sub(1);
        let half_row = self.const_row(home, ConstKey::Raw(half_raw))?;
        let d = self.ibs[home].alloc_row()?;
        self.ibs[home].emit(Instruction::Sub {
            minuend: RowMask::from_rows([t as usize]),
            subtrahend: RowMask::from_rows([half_row as usize]),
            dst: Addr::mem(d as usize),
        });
        self.ibs[home].rows.free(t);
        // Maclaurin refinement: e^x ≈ seed · (1 + d + d²/2).
        let d2 = self.ibs[home].alloc_row()?;
        self.ibs[home].emit(Instruction::Mul {
            a: Addr::mem(d as usize),
            b: Addr::mem(d as usize),
            dst: Addr::mem(d2 as usize),
        });
        self.ibs[home].emit(Instruction::ShiftR {
            src: Addr::mem(d2 as usize),
            dst: Addr::mem(d2 as usize),
            amount: 1,
        });
        let one_row = self.const_row(home, ConstKey::value(1.0))?;
        let p = self.ibs[home].alloc_row()?;
        self.ibs[home].emit(Instruction::Add {
            mask: RowMask::from_rows([one_row as usize, d as usize, d2 as usize]),
            dst: Addr::mem(p as usize),
        });
        let dst = self.dest_for(id, home)?;
        self.ibs[home].emit(Instruction::Mul {
            a: Addr::mem(seed as usize),
            b: Addr::mem(p as usize),
            dst,
        });
        for row in [seed, d, d2, p] {
            self.ibs[home].rows.free(row);
        }
        Ok(())
    }

    fn lower_sigmoid(
        &mut self,
        id: ScalarId,
        home: usize,
        x: ScalarId,
    ) -> Result<(), CompileError> {
        let range = quantize_range(self.range_of(x).unwrap_or(Interval::new(-16.0, 16.0)))?;
        let table = self.ibs[home].lut_alloc.allocate(
            TableFn::Sigmoid,
            range,
            self.format.frac_bits(),
            luts::APPROX_TABLE_ENTRIES,
        )?;
        let x_row = self.ensure_row(x, home)?;
        let idx = self.emit_index(home, x_row, &table)?;
        // Entries are σ·255; out_raw = entry << (frac − 8) ≈ σ·2^frac.
        let dst = self.dest_for(id, home)?;
        let lut_dst = self.ibs[home].alloc_row()?;
        self.ibs[home].emit(Instruction::Lut {
            src: Addr::mem(idx as usize),
            dst: Addr::mem(lut_dst as usize),
        });
        let shift = i32::from(self.format.frac_bits()) - 8;
        if shift >= 0 {
            self.ibs[home].emit(Instruction::ShiftL {
                src: Addr::mem(lut_dst as usize),
                dst,
                amount: shift as u8,
            });
        } else {
            self.ibs[home].emit(Instruction::ShiftR {
                src: Addr::mem(lut_dst as usize),
                dst,
                amount: (-shift) as u8,
            });
        }
        self.ibs[home].rows.free(lut_dst);
        self.ibs[home].rows.free(idx);
        Ok(())
    }

    fn lower_abs(&mut self, id: ScalarId, home: usize, x: ScalarId) -> Result<(), CompileError> {
        let x_row = self.ensure_row(x, home)?;
        // Sign word: all-ones when negative.
        let sign = self.ibs[home].alloc_row()?;
        self.ibs[home].emit(Instruction::ShiftR {
            src: Addr::mem(x_row as usize),
            dst: Addr::mem(sign as usize),
            amount: 31,
        });
        self.ibs[home].emit(Instruction::Mov {
            src: Addr::mem(sign as usize),
            dst: Addr::reg(MASK_REGISTER),
        });
        let neg = self.ibs[home].alloc_row()?;
        self.ibs[home].emit(Instruction::Sub {
            minuend: RowMask::EMPTY,
            subtrahend: RowMask::from_rows([x_row as usize]),
            dst: Addr::mem(neg as usize),
        });
        let dst = self.dest_for(id, home)?;
        self.ibs[home].emit(Instruction::Mov {
            src: Addr::mem(x_row as usize),
            dst,
        });
        self.ibs[home].emit(Instruction::Movs {
            src: Addr::mem(neg as usize),
            dst,
            lane_mask: LaneMask::DYNAMIC,
        });
        self.ibs[home].rows.free(sign);
        self.ibs[home].rows.free(neg);
        Ok(())
    }

    fn lower_less(
        &mut self,
        id: ScalarId,
        home: usize,
        a: ScalarId,
        b: ScalarId,
    ) -> Result<(), CompileError> {
        let a_row = self.ensure_row(a, home)?;
        let b_row = self.ensure_row(b, home)?;
        let mut taken = vec![a_row];
        let b_eff = if a_row == b_row {
            let (rows, _) = self.operand_rows(&[b], home, &mut taken)?;
            rows[0]
        } else {
            b_row
        };
        let d = self.ibs[home].alloc_row()?;
        self.ibs[home].emit(Instruction::Sub {
            minuend: RowMask::from_rows([a_row as usize]),
            subtrahend: RowMask::from_rows([b_eff as usize]),
            dst: Addr::mem(d as usize),
        });
        self.ibs[home].emit(Instruction::ShiftR {
            src: Addr::mem(d as usize),
            dst: Addr::mem(d as usize),
            amount: 31,
        });
        // AND with fixed-point 1.0: true → 1.0, false → 0.0.
        let dst = self.dest_for(id, home)?;
        self.ibs[home].emit(Instruction::Mask {
            src: Addr::mem(d as usize),
            dst,
            imm: 1u32 << self.format.frac_bits(),
        });
        self.ibs[home].rows.free(d);
        if b_eff != b_row {
            self.ibs[home].rows.free(b_eff);
        }
        Ok(())
    }

    fn lower_select(
        &mut self,
        id: ScalarId,
        home: usize,
        cond: ScalarId,
        a: ScalarId,
        b: ScalarId,
    ) -> Result<(), CompileError> {
        let cond_addr = self.operand_addr(cond, home)?;
        let a_addr = self.operand_addr(a, home)?;
        let b_addr = self.operand_addr(b, home)?;
        self.ibs[home].emit(Instruction::Mov {
            src: cond_addr,
            dst: Addr::reg(MASK_REGISTER),
        });
        let dst = self.dest_for(id, home)?;
        self.ibs[home].emit(Instruction::Mov { src: b_addr, dst });
        self.ibs[home].emit(Instruction::Movs {
            src: a_addr,
            dst,
            lane_mask: LaneMask::DYNAMIC,
        });
        Ok(())
    }

    fn lower_floor(&mut self, id: ScalarId, home: usize, x: ScalarId) -> Result<(), CompileError> {
        let x_addr = self.operand_addr(x, home)?;
        let frac = self.format.frac_bits();
        let dst = self.dest_for(id, home)?;
        if frac == 0 {
            self.ibs[home].emit(Instruction::Mov { src: x_addr, dst });
            return Ok(());
        }
        self.ibs[home].emit(Instruction::ShiftR {
            src: x_addr,
            dst,
            amount: frac,
        });
        self.ibs[home].emit(Instruction::ShiftL {
            src: dst,
            dst,
            amount: frac,
        });
        Ok(())
    }

    /// Final output placement: every output scalar must sit in a row (or a
    /// reduction slot) the runtime can read back.
    fn assemble_outputs(&mut self) -> Result<Vec<ModuleOutput>, CompileError> {
        let mut outputs = Vec::new();
        for soutput in self.module.outputs.clone() {
            let mut locs = Vec::with_capacity(soutput.scalars.len());
            for &s in &soutput.scalars {
                if soutput.reduced {
                    let slot = *self.reduce_slots.get(&s).ok_or_else(|| {
                        CompileError::Graph(format!("reduction slot missing for {}", s.0))
                    })?;
                    locs.push(OutputLoc::Reduced { slot });
                } else {
                    let home = self.home_of(s);
                    self.set_current(Some(s));
                    let row = self.ensure_row(s, home)?;
                    self.set_current(None);
                    locs.push(OutputLoc::Row { ib: home, row });
                }
            }
            outputs.push(ModuleOutput {
                node: soutput.node,
                locs,
                assign_to: soutput.assign_to,
            });
        }
        Ok(outputs)
    }
}
