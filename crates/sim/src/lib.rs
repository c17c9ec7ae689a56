//! # imp-sim — the chip-level simulator
//!
//! Executes kernels compiled by `imp-compiler` on a simulated IMP chip:
//! ReRAM arrays from `imp-rram`, the H-tree interconnect from `imp-noc`,
//! the SIMD multicast execution model of §4 (instances packed eight per
//! array, one lane each; identical IBs of different instances share an
//! array and an instruction buffer), and the Table 4 energy/area model.
//!
//! The paper's own methodology note (§6) holds here exactly: arrays
//! execute in order with deterministic latencies, communication is rare,
//! and the compiler schedules statically — so performance is the static
//! schedule replayed over the instance rounds, while *functional* results
//! come from digit-level execution of every instruction on live arrays.
//!
//! ## Example
//!
//! ```
//! use imp_dfg::{GraphBuilder, Shape, Tensor};
//! use imp_compiler::{compile, CompileOptions};
//! use imp_sim::{Machine, SimConfig};
//!
//! let mut g = GraphBuilder::new();
//! let x = g.placeholder("x", Shape::vector(16)).unwrap();
//! let y = g.square(x).unwrap();
//! g.fetch(y);
//! let graph = g.finish();
//! // Compile for the chip the machine simulates.
//! let config = SimConfig::functional();
//! let options = CompileOptions {
//!     capacity: config.capacity,
//!     ..CompileOptions::default()
//! };
//! let kernel = compile(&graph, &options).unwrap();
//!
//! let mut machine = Machine::new(config);
//! let data = Tensor::from_fn(Shape::vector(16), |i| i as f64);
//! let report = machine
//!     .run(&kernel, &[("x".to_string(), data)].into_iter().collect())
//!     .unwrap();
//! let out = &report.outputs[&y];
//! assert!((out.data()[3] - 9.0).abs() < 1e-3);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod energy;
mod error;
pub mod fault;
pub mod lifetime;
mod machine;

pub use error::SimError;
pub use fault::{FaultConfig, FaultEvent, FaultKind, FaultPolicy, FaultSite, WatchdogConfig};
pub use machine::{Machine, Parallelism, RunReport, SimConfig};

// Transport-reliability types, re-exported so simulator users configure
// the H-tree fault model without a direct `imp-noc` dependency.
pub use imp_noc::{
    LinkFaultRates, NocStats, TransportConfig, TransportEvent, TransportFaultKind, TransportPolicy,
};

// Telemetry types, re-exported so simulator users install and read
// recorders without a direct `imp-telemetry` dependency.
pub use imp_telemetry::{EngineStats, IbProfile, Telemetry, TelemetryReport, TimerStat, ValueStat};
