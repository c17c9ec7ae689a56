//! # imp — the In-Memory Data Parallel Processor, end to end
//!
//! A full-system reproduction of Fujiki, Mahlke and Das, *In-Memory Data
//! Parallel Processor* (ASPLOS 2018): a general-purpose data-parallel
//! processor built from ReRAM crossbar arrays, its 13-instruction ISA, a
//! TensorFlow-style data-flow-graph front-end, the optimizing compiler
//! that maps DFGs onto the arrays, and a simulator with timing, energy,
//! network and lifetime models.
//!
//! This umbrella crate re-exports the component crates and adds
//! [`Session`] — the TensorFlow-like "build a graph, then run it" entry
//! point that compiles a graph once and executes it on the simulated
//! chip, managing persistent `Variable` state across invocations (§3's
//! persistent memory context).
//!
//! ```
//! use imp::{GraphBuilder, Session, Shape, Tensor};
//!
//! # fn main() -> Result<(), imp::Error> {
//! // y = x² + 1, data-parallel over a 64-element vector.
//! let mut g = GraphBuilder::new();
//! let x = g.placeholder("x", Shape::vector(64))?;
//! let sq = g.square(x)?;
//! let one = g.scalar(1.0);
//! let y = g.add(sq, one)?;
//! g.fetch(y);
//!
//! let mut session = Session::builder(g.finish()).build()?;
//! let data = Tensor::from_fn(Shape::vector(64), |i| i as f64 / 8.0);
//! let outputs = session.run(&[("x", data)])?;
//! let result = outputs.output(y).unwrap();
//! assert!((result.data()[8] - 2.0).abs() < 1e-3);
//! println!("module latency: {} cycles", session.kernel().module_latency());
//! # Ok(())
//! # }
//! ```
//!
//! ## Component crates
//!
//! | crate | contents |
//! |---|---|
//! | [`imp_isa`] | the 13-instruction ISA, encodings, assembler |
//! | [`imp_rram`] | crossbar arrays with the in-situ analog compute model |
//! | [`imp_noc`] | the H-tree network with in-router reduction |
//! | [`imp_dfg`] | tensors, graphs, reference interpreter, range analysis |
//! | [`imp_compiler`] | DFG → ISA: module formation, merging, lowering, BUG scheduling |
//! | [`imp_sim`] | chip simulator: timing, Table 4 energy, lifetime |
//! | [`imp_workloads`] | the eight Table 3 benchmark kernels |
//! | [`imp_baselines`] | Table 5 CPU/GPU roofline models + native kernels |

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod builder;
mod session;

pub use builder::SessionBuilder;
pub use session::{
    Error, FailureContext, OutputDivergence, Session, SessionOutputs, ShadowConfig, ShadowReport,
};

/// The one-line import for typical IMP programs:
/// `use imp::prelude::*;`
///
/// Brings in graph construction ([`GraphBuilder`], [`Shape`], [`Tensor`]),
/// the fluent session API ([`Session`], [`SessionBuilder`] and its
/// configuration types), error handling, and telemetry.
pub mod prelude {
    pub use crate::builder::SessionBuilder;
    pub use crate::session::{
        Error, FailureContext, OutputDivergence, Session, SessionOutputs, ShadowConfig,
        ShadowReport,
    };
    pub use imp_compiler::{CompileOptions, OptPolicy};
    pub use imp_dfg::range::Interval;
    pub use imp_dfg::{GraphBuilder, NodeId, Shape, Tensor};
    pub use imp_rram::QFormat;
    pub use imp_sim::{
        FaultConfig, FaultPolicy, Parallelism, SimConfig, Telemetry, TelemetryReport,
        TransportConfig, TransportPolicy, WatchdogConfig,
    };
    pub use imp_verify::{VerifyLevel, VerifyReport};
}

pub use imp_baselines as baselines;
pub use imp_compiler as compiler;
pub use imp_compiler::{
    compile, ChipCapacity, CompileError, CompileOptions, CompiledKernel, OptPolicy,
};
pub use imp_dfg::{
    interp::Interpreter, range, DfgError, Graph, GraphBuilder, NodeId, Shape, Tensor,
};
pub use imp_isa as isa;
pub use imp_noc as noc;
pub use imp_rram::{AnalogSpec, FaultMap, FaultRates, Fixed, QFormat};
pub use imp_sim::{
    EngineStats, FaultConfig, FaultEvent, FaultKind, FaultPolicy, FaultSite, IbProfile,
    LinkFaultRates, Machine, Parallelism, RunReport, SimConfig, SimError, Telemetry,
    TelemetryReport, TransportConfig, TransportEvent, TransportFaultKind, TransportPolicy,
    WatchdogConfig,
};
pub use imp_verify as verify;
pub use imp_verify::{verify_kernel, Diagnostic, Severity, VerifyLevel, VerifyReport};
pub use imp_workloads as workloads;
