//! # imp-compiler — the TensorFlow-DFG → in-memory-ISA compiler
//!
//! Reproduces the compilation framework of the ASPLOS'18 *In-Memory Data
//! Parallel Processor* (§5). The pipeline:
//!
//! 1. **Module formation** ([`scalar`]) — the input [`imp_dfg::Graph`] is
//!    analysed for its data-parallel dimension and turned into a *module*:
//!    the scalar program one instance executes on one element of the
//!    parallel dimension. Vector kernels parallelize over the last tensor
//!    axis; kernels containing `Conv2D` parallelize over grid elements
//!    with halo *window* inputs (the paper's convolution decomposition
//!    into simultaneous dot products on input slices, §5.1).
//! 2. **Node merging** ([`merge`]) — chains of 2-operand adds/subs are
//!    promoted to single n-ary in-situ operations, bounded by ADC
//!    resolution; nodes feeding multiplications keep results in registers
//!    to skip array write-backs (§5.2).
//! 3. **IB partitioning** ([`partition`]) — the module's scalar DFG is
//!    split into instruction blocks according to the optimization target
//!    (MaxDLP / MaxILP / MaxArrayUtil, §7.4), inserting cross-IB moves for
//!    cut edges (the pack/unpack of IB expansion).
//! 4. **Instruction lowering** ([`lower`]) — complex operations become
//!    LUT-seeded iterative sequences: Newton–Raphson division and rsqrt,
//!    range-reduced exponential, LUT sigmoid (§5.1, following the IA-64
//!    algorithms the paper cites); `Select` becomes mask-register +
//!    selective moves; rows are allocated round-robin for wear leveling
//!    (§7.5) with liveness-based reuse.
//! 5. **Scheduling** ([`schedule`]) — an adapted Bottom-Up-Greedy pass
//!    places IBs on nearby arrays and computes the static instruction
//!    timetable, accounting for operand location, network latency and
//!    read/write conflicts (§5.2).
//!
//! The result is a [`CompiledKernel`]: per-IB machine code in the 13-
//! instruction ISA plus the layout metadata the runtime (`imp-sim`) uses
//! to place data and instances. [`perf`] implements the analytical model
//! used to pick intra- vs inter-module parallelism at runtime (§5.2).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod error;
pub mod lower;
pub mod luts;
pub mod merge;
pub mod module;
pub mod partition;
pub mod perf;
pub mod scalar;
pub mod schedule;

pub use error::CompileError;
pub use module::{
    CompiledIb, CompiledKernel, InputBinding, InstructionMix, ModuleOutput, RegBinding,
};
pub use perf::{ChipCapacity, PerfEstimate};
pub use scalar::{ParallelSpec, ScalarModule};
pub use schedule::{reschedule, ArrayAvailability};

use imp_dfg::Graph;
use imp_rram::QFormat;
use std::collections::HashMap;

/// The compiler's optimization target for intra-module parallelism (§7.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum OptPolicy {
    /// One IB per module: maximize data-level parallelism. Best when the
    /// data is larger than the chip's SIMD slots.
    MaxDlp,
    /// As many IBs as the module's ILP allows: shortest single-module
    /// latency, lowest array utilization.
    MaxIlp,
    /// Balance IB count against the instance count so the arrays stay
    /// fully utilized without extra kernel invocations. Requires the
    /// expected input size ([`CompileOptions::expected_instances`]).
    #[default]
    MaxArrayUtil,
    /// A fixed IB budget per module.
    Fixed(usize),
}

/// Per-input value ranges, used to parameterize LUT-seeded lowering and
/// validate fixed-point fit (§2.3's dynamic-range tool).
pub type ValueRanges = HashMap<String, imp_dfg::range::Interval>;

/// Compilation options.
#[derive(Debug, Clone)]
pub struct CompileOptions {
    /// Fixed-point format of the kernel (position of the binary point).
    pub format: QFormat,
    /// Optimization target.
    pub policy: OptPolicy,
    /// Expected instance count, used by `MaxArrayUtil` and the analytical
    /// model.
    pub expected_instances: usize,
    /// Newton–Raphson iterations for division (2 reaches full Q16.16
    /// precision; 1 matches the paper's 62-cycle division budget).
    pub div_iterations: u32,
    /// Newton–Raphson iterations for square root (3 by default: rsqrt
    /// seeds from the low buckets of a wide range can start ~40% off and
    /// need the extra iteration to reach ~1% accuracy).
    pub sqrt_iterations: u32,
    /// Enable the node-merging pass (§5.2). On by default; the `fig15`
    /// ablation harness turns it off.
    pub node_merging: bool,
    /// Enable compute/write-back pipelining accounting (§5.2).
    pub pipelining: bool,
    /// Declared input value ranges (name → interval). Required for `Div`,
    /// `Exp`, `Sqrt` and `Sigmoid` lowering, which seed LUTs over the
    /// operand's dynamic range.
    pub ranges: ValueRanges,
    /// Chip capacity used for utilization balancing.
    pub capacity: ChipCapacity,
    /// Analog periphery parameters; the ADC resolution bounds n-ary
    /// operand counts for node merging.
    pub analog: imp_rram::AnalogSpec,
    /// Telemetry recorder for per-phase wall times and decision counts
    /// (modules formed, merge accept/reject, IBs after partition, BUG
    /// placement scan length). `None` (the default) disables compiler
    /// instrumentation at zero cost.
    pub telemetry: Option<imp_telemetry::Telemetry>,
}

impl Default for CompileOptions {
    fn default() -> Self {
        CompileOptions {
            format: QFormat::Q16_16,
            policy: OptPolicy::default(),
            expected_instances: 1 << 20,
            div_iterations: 2,
            sqrt_iterations: 3,
            node_merging: true,
            pipelining: true,
            ranges: HashMap::new(),
            capacity: ChipCapacity::default(),
            analog: imp_rram::AnalogSpec::prototype(),
            telemetry: None,
        }
    }
}

/// Rejects declared ranges with a non-finite or inverted bound (the
/// interval fields are public, so [`imp_dfg::range::Interval::new`]'s
/// checks can be bypassed). Every later range is derived from these.
fn check_ranges(ranges: &ValueRanges) -> Result<(), CompileError> {
    let bad = ranges
        .iter()
        .filter(|(_, r)| !(r.lo.is_finite() && r.hi.is_finite() && r.lo <= r.hi))
        .min_by_key(|&(name, _)| name);
    match bad {
        Some((name, r)) => Err(CompileError::BadRange(format!(
            "declared range of `{name}` is [{}, {}]; bounds must be finite and ordered",
            r.lo, r.hi
        ))),
        None => Ok(()),
    }
}

/// Rejects a chip the simulator cannot build: its H-tree needs a tile
/// count that is a positive power of 8, and the tile → array mapping needs
/// positive cluster and array counts whose memory size fits a `usize`.
fn check_capacity(capacity: ChipCapacity) -> Result<(), CompileError> {
    let ChipCapacity {
        tiles,
        clusters_per_tile,
        arrays_per_cluster,
    } = capacity;
    let tiles_ok = tiles.is_power_of_two() && tiles.trailing_zeros() % 3 == 0;
    let bytes = tiles
        .checked_mul(clusters_per_tile)
        .and_then(|n| n.checked_mul(arrays_per_cluster))
        .and_then(|n| n.checked_mul(perf::ARRAY_BYTES));
    if tiles_ok && bytes.is_some_and(|n| n > 0) {
        Ok(())
    } else {
        Err(CompileError::BadCapacity(capacity))
    }
}

/// Compiles a data-flow graph into an executable in-memory kernel.
///
/// # Errors
/// Returns a [`CompileError`] when the chip capacity is invalid, when the
/// graph uses unsupported forms (irregular gathers, oversized modules,
/// reductions feeding further compute), when required value ranges are
/// missing or non-finite, when a constant is non-finite, or when the
/// module exceeds array resources.
pub fn compile(graph: &Graph, options: &CompileOptions) -> Result<CompiledKernel, CompileError> {
    check_capacity(options.capacity)?;
    check_ranges(&options.ranges)?;
    let tel = options.telemetry.as_ref();
    let _compile_span = tel.map(|t| t.span("compile.total"));

    let mut module = {
        let _span = tel.map(|t| t.span("compile.scalarize"));
        scalar::scalarize(graph, options)?
    };
    if let Some(t) = tel {
        t.counter_add("compile.modules_formed", 1);
        t.counter_add("compile.scalar_ops", module.ops.len() as u64);
    }

    if options.node_merging {
        let _span = tel.map(|t| t.span("compile.merge"));
        let stats = merge::merge_nodes(&mut module, options);
        if let Some(t) = tel {
            t.counter_add(
                "compile.merge.accepted",
                (stats.adds_merged + stats.subs_merged) as u64,
            );
            t.counter_add(
                "compile.merge.rejected",
                (stats.adds_rejected + stats.subs_rejected) as u64,
            );
        }
    }

    let (num_ibs, partitioned) = {
        let _span = tel.map(|t| t.span("compile.partition"));
        let num_ibs = partition::choose_ib_count(&module, options);
        (num_ibs, partition::partition(&module, num_ibs)?)
    };
    if let Some(t) = tel {
        t.counter_add("compile.ibs_after_partition", num_ibs as u64);
    }

    let lowered = {
        let _span = tel.map(|t| t.span("compile.lower"));
        lower::lower(&module, &partitioned, options)?
    };
    if let Some(t) = tel {
        for ib in &lowered.ibs {
            t.record_value("compile.ib.instructions", ib.instructions.len() as f64);
        }
    }

    let avail = schedule::ArrayAvailability::all(options.capacity.arrays());
    let schedule = {
        let _span = tel.map(|t| t.span("compile.schedule"));
        schedule::schedule(&lowered, options, &avail)?
    };
    if let Some(t) = tel {
        // BUG placement scan length: slots examined until every IB found a
        // home (== highest placed slot + 1; > num_ibs once arrays retire).
        let scanned = schedule
            .placements
            .iter()
            .map(|p| p.slot() + 1)
            .max()
            .unwrap_or(0);
        t.counter_add("compile.place.slots_scanned", scanned as u64);
        t.counter_add("compile.schedule.entries", schedule.entries.len() as u64);
        t.record_value(
            "compile.module_latency_cycles",
            schedule.module_latency as f64,
        );
    }

    let _span = tel.map(|t| t.span("compile.assemble"));
    Ok(module::assemble_kernel(
        graph, module, lowered, schedule, options,
    ))
}
