//! # imp-verify — static analysis over compiled IMP kernels
//!
//! The paper's fixed-point pipeline is only correct "provided
//! overflow/underflow does not happen" (§2.3), and its BUG scheduler
//! assumes placements and cross-IB transfers are legal by construction.
//! This crate closes the gap: a post-assembly verification pass over
//! [`CompiledKernel`] that checks every invariant the simulator would
//! otherwise discover (or silently violate) at runtime, and reports
//! structured [`Diagnostic`]s with rule ids, `ib`/`pc` locations and
//! provenance back to the originating DFG node.
//!
//! ## Rule catalog
//!
//! | id | severity | invariant |
//! |---|---|---|
//! | `ISA01` | error | every local operand address is in range (rows < 128, registers < 128) and every immediate is legal (shift amounts < 32, [`Instruction::check_immediates`](imp_isa::Instruction::check_immediates)) |
//! | `ISA02` | error | every global address is well formed: `movg` src names a row below 128 of its own IB, dst a row below 128 of a different, existing IB; `reduce_sum` targets a slot some output declares `Reduced` |
//! | `ISA03` | error | layout fits the array: peak rows/registers ≤ 128, input rows in range and unaliased, window inputs only in a `ParallelSpec::Stencil` kernel, a stencil grid's `h × w` within `usize`, output rows and reduction slots in range, and the kernel's fixed-point format supported (at most 30 fraction bits) |
//! | `ISA04` | warning | a `lut` instruction reads a programmed (non-zero) table |
//! | `DF01` | error | def-before-use: every register read is written earlier in program order; every row read is too, or is filled from an input binding, or is delivered by an incoming `movg` |
//! | `DF02` | warning | no dead writes: every written slot is read before being overwritten, or is live-out |
//! | `DF03` | error | every recorded cross-IB dependence points at a real `movg` in the producer IB that targets this IB |
//! | `DF04` | error | every read of a `movg`-delivered row is preceded by an instruction carrying that arrival dependence |
//! | `SCH01` | error | IB placements are pairwise disjoint |
//! | `SCH02` | error | no IB is placed on a retired or out-of-range array |
//! | `SCH03` | error | the timetable respects program order, `transfer_latency` between producer and consumer, and per-instruction `occupancy` |
//! | `SCH04` | error | the timetable covers every instruction of every IB exactly once |
//! | `OVF01` | warning | interval analysis extended through lowering proves no intermediate value leaves the kernel's fixed-point format |
//!
//! `ISA01`–`ISA03` and `SCH04` form the structural pass, the one
//! definition of a kernel that can execute: the simulator refuses exactly
//! the kernels it reports. Every other rule assumes that structure, so
//! DF, SCH01–SCH03 and OVF01 run only when the structural pass finds
//! nothing.
//!
//! Entry points: [`verify_kernel`] for a freshly compiled kernel (checks
//! against its own schedule), [`verify_with`] for a re-scheduled kernel,
//! [`verify_structure`] for the structural pass alone (what `Machine::run`
//! calls before every run), and [`VerifyLevel::check`], the level-aware
//! gate that session construction and the runtime's fault-remap path both
//! go through.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod dataflow;
mod overflow;
mod sched;
mod structure;

use imp_compiler::schedule::Schedule;
use imp_compiler::{ArrayAvailability, CompiledKernel};
use imp_dfg::NodeId;
use imp_telemetry::Telemetry;
use std::fmt;

/// How strictly the pipeline treats verification findings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VerifyLevel {
    /// Skip verification entirely.
    Off,
    /// Run verification and record diagnostics (telemetry / logs), but
    /// never fail the pipeline.
    #[default]
    Warn,
    /// Fail the pipeline on any error-severity diagnostic.
    Deny,
}

impl VerifyLevel {
    /// The one verification gate, used by session construction and by
    /// the simulator's remap path. Verifies `kernel` as placed by
    /// `schedule` on `avail`; records `verify.runs`, the diagnostic and
    /// error counts and a per-rule hit counter into `telemetry`; and at
    /// `Deny` refuses a report with an error. `Off` skips the rules, and
    /// so does `Warn` without a telemetry handle, as nothing would
    /// observe the report.
    ///
    /// # Errors
    /// At `Deny`, the full report when it carries an error.
    pub fn check(
        self,
        kernel: &CompiledKernel,
        schedule: &Schedule,
        avail: &ArrayAvailability,
        telemetry: Option<&Telemetry>,
    ) -> Result<(), VerifyReport> {
        if self == VerifyLevel::Off || (self == VerifyLevel::Warn && telemetry.is_none()) {
            return Ok(());
        }
        let report = verify_with(kernel, schedule, avail);
        let errors = report.errors().count();
        if let Some(t) = telemetry {
            t.counter_add("verify.runs", 1);
            if !report.is_clean() {
                t.counter_add("verify.diagnostics", report.diagnostics.len() as u64);
            }
            if errors > 0 {
                t.counter_add("verify.errors", errors as u64);
            }
            for d in &report.diagnostics {
                t.counter_add(rule_counter_key(d.rule), 1);
            }
        }
        if self == VerifyLevel::Deny && errors > 0 {
            return Err(report);
        }
        Ok(())
    }
}

/// Diagnostic severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// A smell or precision risk; execution is still well defined.
    Warning,
    /// An invariant violation: executing the kernel is unsound.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// One verification finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Rule id from the catalog (`ISA01` … `OVF01`).
    pub rule: &'static str,
    /// Severity class.
    pub severity: Severity,
    /// Instruction block the finding is in, when localized.
    pub ib: Option<usize>,
    /// Instruction index within the block, when localized.
    pub pc: Option<usize>,
    /// Originating DFG node, when provenance reaches back that far.
    pub node: Option<NodeId>,
    /// What is wrong.
    pub message: String,
    /// Suggested fix or next step.
    pub help: String,
}

impl Diagnostic {
    /// Compact single-line location (`ib2/pc14` style).
    pub fn location(&self) -> String {
        match (self.ib, self.pc) {
            (Some(ib), Some(pc)) => format!("ib{ib}/pc{pc}"),
            (Some(ib), None) => format!("ib{ib}"),
            _ => "kernel".to_string(),
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] {}: {}",
            self.severity,
            self.rule,
            self.location(),
            self.message
        )?;
        if let Some(node) = self.node {
            write!(f, " (from {node:?})")?;
        }
        if !self.help.is_empty() {
            write!(f, "\n  help: {}", self.help)?;
        }
        Ok(())
    }
}

/// The result of one verification pass.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct VerifyReport {
    /// All findings, sorted by (ib, pc, rule).
    pub diagnostics: Vec<Diagnostic>,
}

impl VerifyReport {
    /// A report of `diagnostics` in (ib, pc, rule, severity) order.
    fn sorted(mut diagnostics: Vec<Diagnostic>) -> VerifyReport {
        diagnostics.sort_by_key(|d| (d.ib, d.pc, d.rule, d.severity));
        VerifyReport { diagnostics }
    }

    /// Whether no diagnostic of any severity was produced.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Error-severity diagnostics (the ones `VerifyLevel::Deny` rejects).
    pub fn errors(&self) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
    }

    /// Whether the kernel passes at `Deny` level (no errors; warnings
    /// are allowed).
    pub fn passes_deny(&self) -> bool {
        self.errors().next().is_none()
    }

    /// Renders every diagnostic, one block per finding.
    pub fn render(&self) -> String {
        use fmt::Write as _;
        let mut out = String::new();
        for d in &self.diagnostics {
            let _ = writeln!(out, "{d}");
        }
        out
    }
}

impl fmt::Display for VerifyReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return write!(f, "verify: clean");
        }
        let errors = self.errors().count();
        write!(
            f,
            "verify: {} diagnostic(s), {} error(s)",
            self.diagnostics.len(),
            errors
        )?;
        for d in &self.diagnostics {
            write!(f, "\n  {d}")?;
        }
        Ok(())
    }
}

impl std::error::Error for VerifyReport {}

/// The telemetry counter name for a rule id. Counter names must be
/// `&'static str`, so the mapping is a closed table over the catalog.
pub fn rule_counter_key(rule: &str) -> &'static str {
    match rule {
        "ISA01" => "verify.rule.ISA01",
        "ISA02" => "verify.rule.ISA02",
        "ISA03" => "verify.rule.ISA03",
        "ISA04" => "verify.rule.ISA04",
        "DF01" => "verify.rule.DF01",
        "DF02" => "verify.rule.DF02",
        "DF03" => "verify.rule.DF03",
        "DF04" => "verify.rule.DF04",
        "SCH01" => "verify.rule.SCH01",
        "SCH02" => "verify.rule.SCH02",
        "SCH03" => "verify.rule.SCH03",
        "SCH04" => "verify.rule.SCH04",
        "OVF01" => "verify.rule.OVF01",
        _ => "verify.rule.other",
    }
}

/// Verifies a kernel against its own compiled-in schedule.
///
/// Array availability is taken to be exactly the slots the schedule
/// placed onto (so retired-array checks are vacuous here; use
/// [`verify_with`] to check a re-scheduled kernel against the real chip
/// availability).
pub fn verify_kernel(kernel: &CompiledKernel) -> VerifyReport {
    let max_slot = kernel
        .schedule
        .placements
        .iter()
        .map(|p| p.slot() + 1)
        .max()
        .unwrap_or(0);
    let avail = ArrayAvailability::all(max_slot.max(kernel.ibs.len()));
    verify_with(kernel, &kernel.schedule, &avail)
}

/// Verifies a kernel against an explicit schedule and array
/// availability — the runtime's remap path, which re-runs `schedule`, or a
/// chip-capacity-aware front-end check.
pub fn verify_with(
    kernel: &CompiledKernel,
    schedule: &Schedule,
    avail: &ArrayAvailability,
) -> VerifyReport {
    let mut diagnostics = Vec::new();
    structure::check(kernel, schedule, &mut diagnostics);
    if diagnostics.is_empty() {
        dataflow::check(kernel, &mut diagnostics);
        sched::check(kernel, schedule, avail, &mut diagnostics);
        overflow::check(kernel, &mut diagnostics);
    }
    structure::check_lut_tables(kernel, &mut diagnostics);
    VerifyReport::sorted(diagnostics)
}

/// The structural pass alone: `ISA01`–`ISA03` over `kernel` and `SCH04`
/// over `schedule`, everything that decides whether the kernel can
/// execute. `Machine::run` calls it on every run and records nothing; it
/// allocates nothing for a clean kernel.
pub fn verify_structure(kernel: &CompiledKernel, schedule: &Schedule) -> VerifyReport {
    let mut diagnostics = Vec::new();
    structure::check(kernel, schedule, &mut diagnostics);
    VerifyReport::sorted(diagnostics)
}

/// Looks up the DFG node an instruction descends from, through the
/// per-instruction scalar provenance recorded by the lowering pass.
pub(crate) fn origin_node(kernel: &CompiledKernel, ib: usize, pc: usize) -> Option<NodeId> {
    let scalar = (*kernel.ibs.get(ib)?.provenance.get(pc)?)?;
    *kernel.module.origin.get(scalar.0)?
}
