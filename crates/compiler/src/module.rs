//! Compiled-kernel containers: per-IB machine code plus the layout
//! metadata the runtime uses to place data and read back results.

use crate::scalar::{ParallelSpec, ScalarId, ScalarModule};
use crate::schedule::Schedule;
use imp_dfg::NodeId;
use imp_isa::{Instruction, InstructionBlock};
use imp_rram::{Lut, QFormat};

/// How one module-input scalar is sourced from host tensors at load time.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum InputBinding {
    /// Per-instance element: instance `i` reads element `intra_idx` of the
    /// `i`-th slice of the named tensor (the tensor's last axis is the
    /// parallel axis).
    Element {
        /// Placeholder / variable name.
        name: String,
        /// Flat index within the instance's intra-module slice.
        intra_idx: usize,
        /// Total intra elements of this tensor.
        intra_len: usize,
    },
    /// A value shared by all instances (flat element of the named tensor).
    Shared {
        /// Placeholder / variable name.
        name: String,
        /// Flat element index.
        flat_idx: usize,
    },
    /// Stencil window element: instance `(r, c)` reads `tensor[r+dr][c+dc]`
    /// (zero beyond the boundary — SAME padding).
    Window {
        /// Placeholder / variable name of the grid.
        name: String,
        /// Row offset.
        dr: isize,
        /// Column offset.
        dc: isize,
    },
}

/// One compiled instruction block and its data layout.
#[derive(Debug, Clone)]
pub struct CompiledIb {
    /// The machine code.
    pub block: InstructionBlock,
    /// Rows the runtime must fill from input tensors before execution.
    pub input_rows: Vec<(u8, InputBinding)>,
    /// LUT contents for this IB's arrays.
    pub lut: Lut,
    /// Peak simultaneous row occupancy (≤ 128).
    pub peak_rows: usize,
    /// Peak register occupancy (≤ 128).
    pub peak_regs: usize,
    /// Cross-IB dependencies: `deps[i]` lists `(ib, instruction_index)`
    /// pairs that must complete (including network delivery) before
    /// instruction `i` may issue.
    pub deps: Vec<Vec<(usize, usize)>>,
    /// Per-instruction originating scalar, where known (parallel to
    /// `block` instructions); diagnostics walk it back to the DFG node.
    pub provenance: Vec<Option<ScalarId>>,
}

/// Where a module output element lives after execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputLoc {
    /// A row of an IB's array (per-instance result).
    Row {
        /// Producing instruction block.
        ib: usize,
        /// Row within the array.
        row: u8,
    },
    /// A cross-instance reduction delivered to output slot `slot`.
    Reduced {
        /// Reduction output slot index.
        slot: usize,
    },
}

/// One kernel output: a fetched graph node and the locations of its
/// intra-module elements.
#[derive(Debug, Clone)]
pub struct ModuleOutput {
    /// The fetched node.
    pub node: NodeId,
    /// Per-element locations (row-major intra order).
    pub locs: Vec<OutputLoc>,
    /// Variable to write back, for `Assign`/`AssignAdd` outputs.
    pub assign_to: Option<String>,
}

/// Per-opcode instruction counts (§7.3 discusses the per-kernel mix:
/// e.g. Black–Scholes is 14% add, 21% mul, 58% local moves).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InstructionMix {
    counts: std::collections::BTreeMap<&'static str, usize>,
    total: usize,
}

impl InstructionMix {
    /// Counts the instructions of an iterator.
    pub fn from_instructions<'a>(
        instructions: impl IntoIterator<Item = &'a imp_isa::Instruction>,
    ) -> Self {
        let mut mix = InstructionMix::default();
        for inst in instructions {
            *mix.counts.entry(inst.opcode().mnemonic()).or_insert(0) += 1;
            mix.total += 1;
        }
        mix
    }

    /// Count of one mnemonic.
    pub fn count(&self, mnemonic: &str) -> usize {
        self.counts.get(mnemonic).copied().unwrap_or(0)
    }

    /// Fraction of the total for one mnemonic.
    pub fn fraction(&self, mnemonic: &str) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.count(mnemonic) as f64 / self.total as f64
        }
    }

    /// Total instructions counted.
    pub fn total(&self) -> usize {
        self.total
    }

    /// Iterates `(mnemonic, count)` in mnemonic order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, usize)> + '_ {
        self.counts.iter().map(|(&m, &c)| (m, c))
    }
}

/// Aggregate compile-time statistics (Table 3 reports the per-IB
/// instruction counts; Table 6 the IB latencies and counts).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KernelStats {
    /// Total instructions across all IBs.
    pub total_instructions: usize,
    /// Largest single-IB instruction count (the Table 3 "# IB insts"
    /// metric).
    pub max_ib_instructions: usize,
    /// Static module latency in array cycles (critical path through the
    /// scheduled IBs).
    pub module_latency: u64,
    /// Number of instruction blocks.
    pub num_ibs: usize,
    /// Cross-IB moves emitted.
    pub cross_ib_moves: usize,
}

/// A fully compiled kernel.
#[derive(Debug, Clone)]
pub struct CompiledKernel {
    /// Per-IB code and layout.
    pub ibs: Vec<CompiledIb>,
    /// Output locations.
    pub outputs: Vec<ModuleOutput>,
    /// Fixed-point format the code assumes.
    pub format: QFormat,
    /// Parallelization of the kernel.
    pub parallel: ParallelSpec,
    /// Static schedule (instruction timetable and IB placements).
    pub schedule: Schedule,
    /// The scalar module IR (for diagnostics and tests).
    pub module: ScalarModule,
}

impl CompiledKernel {
    /// Aggregate statistics, derived from the blocks and the schedule.
    pub fn stats(&self) -> KernelStats {
        let lens = self.ibs.iter().map(|ib| ib.block.len());
        KernelStats {
            total_instructions: lens.clone().sum(),
            max_ib_instructions: lens.max().unwrap_or(0),
            module_latency: self.schedule.module_latency,
            num_ibs: self.ibs.len(),
            cross_ib_moves: self
                .ibs
                .iter()
                .flat_map(|ib| ib.block.instructions())
                .filter(|inst| matches!(inst, Instruction::Movg { .. }))
                .count(),
        }
    }

    /// The kernel's per-opcode instruction mix across all IBs.
    pub fn instruction_mix(&self) -> InstructionMix {
        InstructionMix::from_instructions(self.ibs.iter().flat_map(|ib| ib.block.instructions()))
    }

    /// A human-readable listing of the whole kernel: per-IB assembly plus
    /// layout annotations (input rows, peak occupancy).
    pub fn disassemble(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "; kernel: {} IBs, {} instructions, module latency {} cycles",
            self.ibs.len(),
            self.stats().total_instructions,
            self.module_latency()
        );
        for (i, ib) in self.ibs.iter().enumerate() {
            let _ = writeln!(
                out,
                "
; ───── instruction block {i} ─────"
            );
            for (row, binding) in &ib.input_rows {
                let _ = writeln!(out, ";   load m{row} ← {binding:?}");
            }
            let _ = writeln!(
                out,
                ";   peak rows {} / 128, peak regs {} / 128",
                ib.peak_rows, ib.peak_regs
            );
            let _ = write!(out, "{}", ib.block);
        }
        out
    }

    /// Static latency of one module execution, in array cycles.
    pub fn module_latency(&self) -> u64 {
        self.schedule.module_latency
    }
}

/// Virtual-address conventions for pre-placement `movg`/`reduce_sum`
/// targets. The compiler does not know physical tiles; it encodes IB
/// indices and output slots, which the runtime rewrites at load time.
pub mod vaddr {
    use imp_isa::GlobalAddr;

    /// Array-field marker for a cross-IB row transfer.
    pub const CROSS_IB: u8 = 0;
    /// Array-field marker for a reduction output slot.
    pub const OUTPUT_SLOT: u8 = 63;
    /// Reduction output slots an address can encode: the slot is the
    /// 12-bit tile field.
    pub const OUTPUT_SLOTS: usize = 4096;

    /// Virtual address of row `row` in instruction block `ib`.
    pub fn cross_ib(ib: usize, row: u8) -> GlobalAddr {
        GlobalAddr::new(ib, CROSS_IB as usize, row as usize)
    }

    /// Virtual address of reduction output slot `slot`.
    pub fn output_slot(slot: usize) -> GlobalAddr {
        GlobalAddr::new(slot, OUTPUT_SLOT as usize, 0)
    }

    /// Decodes a virtual cross-IB address.
    pub fn as_cross_ib(addr: GlobalAddr) -> Option<(usize, u8)> {
        (addr.array == CROSS_IB).then_some((addr.tile as usize, addr.row))
    }

    /// Decodes a virtual output-slot address.
    pub fn as_output_slot(addr: GlobalAddr) -> Option<usize> {
        (addr.array == OUTPUT_SLOT).then_some(addr.tile as usize)
    }
}

#[cfg(test)]
mod tests {
    use crate::{compile, CompileOptions, OptPolicy};
    use imp_dfg::{GraphBuilder, Shape};

    fn kernel() -> crate::CompiledKernel {
        let mut g = GraphBuilder::new();
        let x = g.placeholder("x", Shape::new(vec![3, 64])).unwrap();
        let sq = g.square(x).unwrap();
        let s = g.sum(sq, 0).unwrap();
        g.fetch(s);
        compile(
            &g.finish(),
            &CompileOptions {
                policy: OptPolicy::MaxDlp,
                ..Default::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn instruction_mix_fractions_sum_to_one() {
        let mix = kernel().instruction_mix();
        assert!(mix.total() > 0);
        let sum: f64 = mix.iter().map(|(m, _)| mix.fraction(m)).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!(mix.count("mul") >= 3, "three squares expected");
        assert_eq!(mix.fraction("bogus"), 0.0);
    }

    #[test]
    fn disassembly_lists_everything() {
        let k = kernel();
        let text = k.disassemble();
        assert!(text.contains("instruction block 0"));
        assert!(text.contains("load m"), "input-row annotations expected");
        assert!(text.contains("peak rows"));
        // Every instruction appears (mnemonic spot checks).
        assert!(text.contains("mul "));
        assert!(text.contains("add "));
    }

    #[test]
    fn vaddr_roundtrips() {
        use super::vaddr;
        let a = vaddr::cross_ib(17, 42);
        assert_eq!(vaddr::as_cross_ib(a), Some((17, 42)));
        assert_eq!(vaddr::as_output_slot(a), None);
        let b = vaddr::output_slot(9);
        assert_eq!(vaddr::as_output_slot(b), Some(9));
        assert_eq!(vaddr::as_cross_ib(b), None);
    }
}
