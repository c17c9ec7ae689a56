//! The fluent [`SessionBuilder`]: one chained expression from graph to
//! runnable [`Session`], and the only way to make one.

use crate::session::{Session, ShadowConfig};
use crate::Error;
use imp_compiler::{
    perf, ArrayAvailability, ChipCapacity, CompileOptions, CompiledKernel, OptPolicy,
};
use imp_dfg::range::Interval;
use imp_dfg::Graph;
use imp_rram::QFormat;
use imp_sim::{FaultConfig, Parallelism, SimConfig, Telemetry, TransportConfig, WatchdogConfig};
use imp_verify::VerifyLevel;

/// The one constructor for [`Session`], started with [`Session::builder`].
///
/// A session has one chip: the kernel is compiled, selected, verified
/// and simulated for the same [`ChipCapacity`], by default the simulated
/// chip of [`SimConfig::functional`]. Every other knob defaults to exactly
/// what [`CompileOptions::default`] and [`SimConfig::functional`] would
/// produce. Setters write into those two structs —
/// [`capacity`](Self::capacity) and [`telemetry`](Self::telemetry) into
/// both, so the compiler and the simulated chip cannot disagree about
/// them — except [`shadow`](Self::shadow) and
/// [`adaptive`](Self::adaptive), which configure the session itself.
/// [`build`](Self::build) compiles, verifies at the configured
/// [`VerifyLevel`], and binds the kernel to the chip.
///
/// ```
/// use imp::prelude::*;
///
/// # fn main() -> Result<(), imp::Error> {
/// let mut g = GraphBuilder::new();
/// let x = g.placeholder("x", Shape::vector(32))?;
/// let y = g.square(x)?;
/// g.fetch_as("y", y);
///
/// let mut session = Session::builder(g.finish())
///     .parallelism(Parallelism::Threads(2))
///     .shadow(ShadowConfig::default())
///     .build()?;
/// let out = session.run(&[("x", Tensor::from_fn(Shape::vector(32), |i| i as f64 / 8.0))])?;
/// assert!(out.by_name("y").is_ok());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SessionBuilder {
    graph: Graph,
    options: CompileOptions,
    config: SimConfig,
    shadow: Option<ShadowConfig>,
    adaptive: bool,
}

impl SessionBuilder {
    /// Starts a builder over `graph` with default compile options, both
    /// targeting the functional-test chip.
    pub(crate) fn new(graph: Graph) -> Self {
        let config = SimConfig::functional();
        SessionBuilder {
            graph,
            options: CompileOptions {
                capacity: config.capacity,
                ..CompileOptions::default()
            },
            config,
            shadow: None,
            adaptive: false,
        }
    }

    // --- compiler knobs ---------------------------------------------------

    /// Sets the compiler's optimization target.
    pub fn policy(mut self, policy: OptPolicy) -> Self {
        self.options.policy = policy;
        self
    }

    /// Sets the kernel's fixed-point format.
    pub fn format(mut self, format: QFormat) -> Self {
        self.options.format = format;
        self
    }

    /// Declares an input value range (required for `Div`/`Exp`/`Sqrt`/
    /// `Sigmoid` lowering).
    pub fn range(mut self, name: &str, interval: Interval) -> Self {
        self.options.ranges.insert(name.to_string(), interval);
        self
    }

    /// Sets the expected instance count used by `MaxArrayUtil` and the
    /// analytical model.
    pub fn expected_instances(mut self, instances: usize) -> Self {
        self.options.expected_instances = instances;
        self
    }

    /// Sets the session's one chip: the capacity the compiler balances
    /// utilization for, the analytical model selects and the verifier
    /// places against, and the simulated chip.
    pub fn capacity(mut self, capacity: ChipCapacity) -> Self {
        self.options.capacity = capacity;
        self.config.capacity = capacity;
        self
    }

    // --- simulator knobs --------------------------------------------------

    /// Sets host-thread scheduling of instance groups (never changes
    /// results; see [`Parallelism`]).
    pub fn parallelism(mut self, parallelism: Parallelism) -> Self {
        self.config.parallelism = parallelism;
        self
    }

    /// Sets the array-level fault rates and recovery policy.
    pub fn faults(mut self, faults: FaultConfig) -> Self {
        self.config.faults = faults;
        self
    }

    /// Sets the base seed for per-array noise and fault populations.
    pub fn fault_seed(mut self, seed: u64) -> Self {
        self.config.fault_seed = seed;
        self
    }

    /// Sets the transport-level (H-tree) fault rates and recovery policy.
    pub fn transport(mut self, transport: TransportConfig) -> Self {
        self.config.transport = transport;
        self
    }

    /// Sets the execution watchdog's cycle and attempt budgets.
    pub fn watchdog(mut self, watchdog: WatchdogConfig) -> Self {
        self.config.watchdog = watchdog;
        self
    }

    // --- cross-cutting ----------------------------------------------------

    /// Installs one [`Telemetry`] handle into *both* the compiler options
    /// and the simulator configuration, so compile-phase spans and run
    /// counters land in the same report.
    pub fn telemetry(mut self, telemetry: Telemetry) -> Self {
        self.options.telemetry = Some(telemetry.clone());
        self.config.telemetry = Some(telemetry);
        self
    }

    /// Enables end-to-end shadow validation: every [`Session::run`]
    /// replays the same feeds (and the pre-run variable state) through
    /// the golden interpreter and compares each fetched output
    /// element-wise. Divergence beyond the tolerance fails the run with
    /// [`Error::ShadowDivergence`] *before* variable write-back, so
    /// corrupted updates never poison session state.
    ///
    /// This is the only detector for faults the transport layer accepts
    /// silently — a `Silent` fault policy, or a bad in-tree reduction
    /// adder (which re-seals the CRC after corrupting the partial sum).
    pub fn shadow(mut self, shadow: ShadowConfig) -> Self {
        self.shadow = Some(shadow);
        self
    }

    /// Uses the §5.2 runtime code selection: compile under every
    /// optimization target (MaxDLP, MaxILP, MaxArrayUtil) and, at kernel
    /// launch, pick the candidate the analytical model predicts fastest
    /// for the input size on this chip ("the optimal code is chosen at
    /// runtime based on the analytical model and streamed in to the
    /// memory chip from host"). Overrides [`policy`](Self::policy).
    pub fn adaptive(mut self) -> Self {
        self.adaptive = true;
        self
    }

    /// Sets the static-verification level applied to the compiled kernel
    /// (and, inside the simulator, to every remap reschedule).
    ///
    /// [`VerifyLevel::Warn`] (the default) records findings in telemetry
    /// and continues (without a telemetry handle there is nothing to
    /// record, so it skips the rules); [`VerifyLevel::Deny`] fails
    /// [`build`](Self::build) with [`Error::Verify`] when any
    /// error-severity diagnostic fires; [`VerifyLevel::Off`] skips
    /// verification entirely.
    pub fn verify(mut self, level: VerifyLevel) -> Self {
        self.config.verify = level;
        self
    }

    /// Compiles the graph, verifies the kernel, and binds it to the
    /// simulated chip.
    ///
    /// # Errors
    /// Propagates compile errors (from any candidate, under
    /// [`adaptive`](Self::adaptive)), among them an invalid
    /// [`capacity`](Self::capacity), which is rejected before any chip is
    /// built. At [`VerifyLevel::Deny`], fails with
    /// [`Error::Verify`] when the compiled kernel does not pass the
    /// static verifier's error-severity checks.
    pub fn build(mut self) -> Result<Session, Error> {
        let chip = self.config.capacity;
        let kernel = if self.adaptive {
            let mut candidates: Vec<CompiledKernel> = Vec::new();
            for policy in [
                OptPolicy::MaxDlp,
                OptPolicy::MaxIlp,
                OptPolicy::MaxArrayUtil,
            ] {
                self.options.policy = policy;
                let candidate = imp_compiler::compile(&self.graph, &self.options)?;
                // One candidate per IB count: the first policy to give it.
                if candidates
                    .iter()
                    .all(|k| k.ibs.len() != candidate.ibs.len())
                {
                    candidates.push(candidate);
                }
            }
            let instances = candidates[0].parallel.instances();
            let pick = perf::select_kernel(&candidates, instances, chip);
            candidates.swap_remove(pick.unwrap_or(0))
        } else {
            imp_compiler::compile(&self.graph, &self.options)?
        };
        let avail = ArrayAvailability::all(chip.arrays());
        let telemetry = self.config.telemetry.as_ref();
        (self.config.verify)
            .check(&kernel, &kernel.schedule, &avail, telemetry)
            .map_err(Error::Verify)?;
        Ok(Session::from_kernel(
            self.graph,
            kernel,
            self.config,
            self.shadow,
        ))
    }

    /// The compile options the builder would hand to [`imp_compiler::compile`].
    pub fn peek_compile_options(&self) -> &CompileOptions {
        &self.options
    }

    /// The simulator configuration the builder would construct the chip
    /// with.
    pub fn peek_sim_config(&self) -> &SimConfig {
        &self.config
    }
}
