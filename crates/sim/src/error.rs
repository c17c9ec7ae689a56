use crate::fault::{FaultEvent, FaultSite};
use std::fmt;

/// Errors from simulated execution.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// A named input tensor was not supplied.
    MissingInput(String),
    /// An input tensor's element count disagrees with the compiled
    /// layout.
    InputShape {
        /// Input name.
        name: String,
        /// What the kernel expected.
        expect: String,
        /// What was provided.
        got: String,
    },
    /// An input tensor holds NaN or an infinity, which no fixed-point
    /// word represents.
    NonFiniteInput {
        /// Input name.
        name: String,
        /// Flat index of the first offending element.
        index: usize,
    },
    /// The kernel needs more arrays than the simulated chip provides in
    /// one round — either outright, or after the remap policy retired
    /// too many faulty arrays.
    OutOfArrays {
        /// Arrays required.
        needed: usize,
        /// Arrays available (usable, if arrays have been retired).
        available: usize,
    },
    /// An array-level execution fault surfaced (ADC over-range etc.),
    /// with the detecting array's location when known.
    Array {
        /// Where the fault occurred, if execution context was available.
        site: Option<FaultSite>,
        /// The underlying substrate error.
        source: imp_rram::RramError,
    },
    /// The run ended with detected-but-unrecovered faults: the fail-fast
    /// policy aborted, or the retry policy exhausted its attempt budget.
    /// Carries every detection from the final attempt.
    Faults(Vec<FaultEvent>),
    /// The watchdog fired: the run exceeded its cycle or attempt budget
    /// (e.g. a livelocked retransmit storm or an unproductive recovery
    /// loop) and was aborted instead of spinning.
    Timeout {
        /// The configured budget, in array cycles.
        limit_cycles: u64,
        /// Array cycles spent when the watchdog fired.
        spent_cycles: u64,
    },
    /// The static verifier rejected, at `Deny` level, a schedule the remap
    /// policy's reschedule produced (a session verifies its initial kernel
    /// when it is built). Carries the full report.
    Verify(imp_verify::VerifyReport),
    /// A hand-built kernel the engine cannot execute: the verifier's
    /// structural pass ([`imp_verify::verify_structure`], rules
    /// `ISA01`–`ISA03` and `SCH04`) reports an error, and the message
    /// names the first one's rule id and location; or the remap policy
    /// cannot reschedule the kernel.
    MalformedKernel(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::MissingInput(name) => write!(f, "input `{name}` was not supplied"),
            SimError::InputShape { name, expect, got } => {
                write!(f, "input `{name}`: expected {expect}, got {got}")
            }
            SimError::NonFiniteInput { name, index } => {
                write!(f, "input `{name}`: element {index} is not finite")
            }
            SimError::OutOfArrays { needed, available } => {
                write!(
                    f,
                    "kernel needs {needed} arrays; chip has {available} usable"
                )
            }
            SimError::Array {
                site: Some(site),
                source,
            } => {
                write!(f, "array fault at {site}: {source}")
            }
            SimError::Array { site: None, source } => write!(f, "array fault: {source}"),
            SimError::Faults(events) => {
                write!(f, "{} unrecovered fault(s)", events.len())?;
                if let Some(first) = events.first() {
                    write!(f, "; first: {first}")?;
                }
                Ok(())
            }
            SimError::Timeout {
                limit_cycles,
                spent_cycles,
            } => {
                write!(
                    f,
                    "watchdog timeout: {spent_cycles} array cycles spent against a budget of {limit_cycles}"
                )
            }
            SimError::Verify(report) => {
                write!(
                    f,
                    "kernel rejected by the static verifier: {} error(s)",
                    report.errors().count()
                )
            }
            SimError::MalformedKernel(what) => write!(f, "malformed kernel: {what}"),
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Array { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<imp_rram::RramError> for SimError {
    fn from(err: imp_rram::RramError) -> Self {
        SimError::Array {
            site: None,
            source: err,
        }
    }
}
