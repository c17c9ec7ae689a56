//! The end-to-end session: graph → compiled kernel → simulated chip.

use imp_compiler::module::OutputLoc;
use imp_compiler::{CompileError, CompiledKernel};
use imp_dfg::interp::Interpreter;
use imp_dfg::{DfgError, Graph, NodeId, Op, Tensor};
use imp_sim::{Machine, RunReport, SimConfig, SimError};
use std::collections::HashMap;
use std::fmt;

/// Placement context for a simulator failure: which instruction block the
/// fault was localized to and — when the compiled layout records one —
/// which fetched graph node that block produces.
///
/// The [`Display`](fmt::Display) form names the block and, when known,
/// the fetched node it produces:
///
/// ```
/// use imp::FailureContext;
///
/// let ctx = FailureContext { ib: 2, node: None };
/// assert_eq!(ctx.to_string(), "instruction block 2");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FailureContext {
    /// Instruction block the failing site belongs to.
    pub ib: usize,
    /// Fetched node whose output rows live in that block, if any (interior
    /// blocks feed other blocks rather than fetched outputs).
    pub node: Option<NodeId>,
}

impl fmt::Display for FailureContext {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "instruction block {}", self.ib)?;
        if let Some(node) = self.node {
            write!(f, " (produces fetched node {node})")?;
        }
        Ok(())
    }
}

/// Unified error for session operations.
#[derive(Debug)]
#[non_exhaustive]
pub enum Error {
    /// Graph construction/validation failure.
    Dfg(DfgError),
    /// Compilation failure.
    Compile(CompileError),
    /// Simulated-execution failure, annotated with the failing graph
    /// node / instruction block when the simulator localized the fault.
    Sim {
        /// Where in the compiled kernel the failure was localized, when
        /// the underlying error carries a fault site.
        context: Option<FailureContext>,
        /// The underlying simulator error.
        source: SimError,
    },
    /// Shadow validation detected that the chip run diverged from the
    /// golden interpreter beyond the configured tolerance. The full
    /// [`ShadowReport`] is reachable through
    /// [`std::error::Error::source`]:
    ///
    /// ```
    /// use std::error::Error as _;
    ///
    /// let report = imp::ShadowReport { tolerance_ulps: 4.0, outputs: vec![] };
    /// let err = imp::Error::ShadowDivergence(report);
    /// assert!(err.source().unwrap().is::<imp::ShadowReport>());
    /// ```
    ShadowDivergence(ShadowReport),
    /// The static verifier rejected the compiled kernel at
    /// [`VerifyLevel::Deny`](imp_verify::VerifyLevel::Deny). The full
    /// report, with every diagnostic, is carried inline and reachable
    /// through [`std::error::Error::source`].
    Verify(imp_verify::VerifyReport),
    /// [`SessionOutputs::by_name`] found no fetched output answering to
    /// the name.
    UnknownOutput(String),
    /// [`SessionOutputs::by_name`] matched more than one fetched output;
    /// use [`SessionOutputs::output`] with one of the listed node ids.
    AmbiguousOutput {
        /// The name that was looked up.
        name: String,
        /// Every fetched node the name resolves to.
        nodes: Vec<NodeId>,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Dfg(e) => write!(f, "graph error: {e}"),
            Error::Compile(e) => write!(f, "compile error: {e}"),
            Error::Sim {
                context: Some(ctx),
                source,
            } => write!(f, "simulation error at {ctx}: {source}"),
            Error::Sim {
                context: None,
                source,
            } => write!(f, "simulation error: {source}"),
            Error::ShadowDivergence(report) => {
                write!(f, "shadow validation failed: {report}")
            }
            Error::Verify(report) => {
                write!(
                    f,
                    "kernel rejected by the static verifier: {} error(s)",
                    report.errors().count()
                )
            }
            Error::UnknownOutput(name) => {
                write!(f, "no fetched output named `{name}`")
            }
            Error::AmbiguousOutput { name, nodes } => {
                write!(f, "output name `{name}` is ambiguous: matches ")?;
                for (i, node) in nodes.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{node}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Error::Dfg(e) => Some(e),
            Error::Compile(e) => Some(e),
            Error::Sim { source, .. } => Some(source),
            Error::ShadowDivergence(report) => Some(report),
            Error::Verify(report) => Some(report),
            Error::UnknownOutput(_) | Error::AmbiguousOutput { .. } => None,
        }
    }
}

impl From<DfgError> for Error {
    fn from(e: DfgError) -> Self {
        Error::Dfg(e)
    }
}

impl From<CompileError> for Error {
    fn from(e: CompileError) -> Self {
        Error::Compile(e)
    }
}

impl From<SimError> for Error {
    fn from(e: SimError) -> Self {
        Error::Sim {
            context: None,
            source: e,
        }
    }
}

/// Configuration for the opt-in shadow-validation mode, installed with
/// [`SessionBuilder::shadow`](crate::SessionBuilder::shadow).
///
/// Tolerance is expressed in ULPs of the kernel's fixed-point format (one
/// ULP = [`QFormat::epsilon`]): fixed-point evaluation legitimately
/// diverges from the f64 golden interpreter by rounding per operation, so
/// the threshold must sit above the kernel's accumulated rounding error
/// while staying below the damage a silent fault does. The default of
/// 4096 ULPs (2⁻⁴ absolute in Q16.16) clears the worst legitimate error
/// of the LUT/Newton–Raphson transcendental kernels; short arithmetic
/// chains can use a far tighter bound (tens of ULPs).
///
/// [`QFormat::epsilon`]: imp_rram::QFormat::epsilon
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShadowConfig {
    /// Allowed per-element |chip − golden| divergence, in ULPs of the
    /// kernel's fixed-point format.
    pub tolerance_ulps: f64,
}

impl ShadowConfig {
    /// Tolerance of `tolerance_ulps` format ULPs per output element.
    pub fn with_tolerance_ulps(tolerance_ulps: f64) -> Self {
        ShadowConfig { tolerance_ulps }
    }
}

impl Default for ShadowConfig {
    fn default() -> Self {
        ShadowConfig {
            tolerance_ulps: 4096.0,
        }
    }
}

/// Divergence of one fetched output between the chip run and the golden
/// interpreter.
#[derive(Debug, Clone, PartialEq)]
pub struct OutputDivergence {
    /// The fetched node.
    pub node: NodeId,
    /// Total elements compared.
    pub elements: usize,
    /// Elements whose divergence exceeded the tolerance.
    pub diverging: usize,
    /// Largest per-element divergence observed, in format ULPs.
    pub max_ulps: f64,
    /// Index of the worst element.
    pub worst_index: usize,
    /// Chip value at the worst element.
    pub got: f64,
    /// Golden-interpreter value at the worst element.
    pub expected: f64,
}

impl fmt::Display for OutputDivergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "node {}: {}/{} element(s) beyond tolerance, worst at [{}]: chip {} vs golden {} ({:.0} ULPs)",
            self.node, self.diverging, self.elements, self.worst_index, self.got, self.expected, self.max_ulps
        )
    }
}

/// Per-output comparison of a chip run against the golden interpreter.
///
/// Produced on every shadow-validated [`Session::run`]: attached to
/// [`SessionOutputs`] when all outputs agree within tolerance, carried by
/// [`Error::ShadowDivergence`] when any element is out of bounds.
#[derive(Debug, Clone, PartialEq)]
pub struct ShadowReport {
    /// Tolerance the comparison used, in format ULPs.
    pub tolerance_ulps: f64,
    /// One entry per fetched output, in kernel output order.
    pub outputs: Vec<OutputDivergence>,
}

impl ShadowReport {
    /// True when any output element diverged beyond the tolerance.
    pub fn diverged(&self) -> bool {
        self.outputs.iter().any(|o| o.diverging > 0)
    }

    /// Largest per-element divergence across all outputs, in format ULPs.
    pub fn worst_ulps(&self) -> f64 {
        self.outputs.iter().fold(0.0, |acc, o| acc.max(o.max_ulps))
    }
}

// A `ShadowReport` is the *cause* of an [`Error::ShadowDivergence`], so
// it participates in the standard error chain (`err.source()` yields the
// report rather than `None`).
impl std::error::Error for ShadowReport {}

impl fmt::Display for ShadowReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let diverging: Vec<&OutputDivergence> =
            self.outputs.iter().filter(|o| o.diverging > 0).collect();
        write!(
            f,
            "{} of {} output(s) diverged beyond {:.0} ULPs",
            diverging.len(),
            self.outputs.len(),
            self.tolerance_ulps
        )?;
        if let Some(worst) = diverging
            .iter()
            .max_by(|a, b| a.max_ulps.total_cmp(&b.max_ulps))
        {
            write!(f, "; worst: {worst}")?;
        }
        Ok(())
    }
}

/// Results of one [`Session::run`].
#[derive(Debug, Clone)]
pub struct SessionOutputs {
    report: RunReport,
    shadow: Option<ShadowReport>,
    /// Name → fetched nodes, resolved once at session construction
    /// (explicit [`fetch_as`] names, else the fetched
    /// `Placeholder`/`Variable`'s declared name).
    ///
    /// [`fetch_as`]: imp_dfg::GraphBuilder::fetch_as
    names: HashMap<String, Vec<NodeId>>,
}

impl SessionOutputs {
    /// The output tensor of a fetched node.
    pub fn output(&self, node: NodeId) -> Option<&Tensor> {
        self.report.outputs.get(&node)
    }

    /// Looks up a fetched output by name instead of [`NodeId`]: the
    /// explicit name attached with [`GraphBuilder::fetch_as`], or — for a
    /// directly fetched `Placeholder`/`Variable` node — its declared
    /// name.
    ///
    /// [`GraphBuilder::fetch_as`]: imp_dfg::GraphBuilder::fetch_as
    ///
    /// # Errors
    /// [`Error::UnknownOutput`] when no fetched output answers to the
    /// name; [`Error::AmbiguousOutput`] when more than one does.
    pub fn by_name(&self, name: &str) -> Result<&Tensor, Error> {
        match self.names.get(name).map(Vec::as_slice) {
            None | Some([]) => Err(Error::UnknownOutput(name.to_string())),
            Some([node]) => self
                .output(*node)
                .ok_or_else(|| Error::UnknownOutput(name.to_string())),
            Some(nodes) => Err(Error::AmbiguousOutput {
                name: name.to_string(),
                nodes: nodes.to_vec(),
            }),
        }
    }

    /// The full execution report (timing, energy, network, wear).
    pub fn report(&self) -> &RunReport {
        &self.report
    }

    /// The shadow-validation comparison, when the session was built with
    /// [`SessionBuilder::shadow`](crate::SessionBuilder::shadow). A
    /// present report implies the run passed (divergence is an error).
    pub fn shadow_report(&self) -> Option<&ShadowReport> {
        self.shadow.as_ref()
    }
}

/// A compiled graph bound to a simulated chip, with persistent variable
/// state across runs (TensorFlow's persistent memory context, §3).
#[derive(Debug)]
pub struct Session {
    graph: Graph,
    kernel: CompiledKernel,
    machine: Machine,
    variables: HashMap<String, Tensor>,
    shadow: Option<ShadowConfig>,
    output_names: HashMap<String, Vec<NodeId>>,
}

impl Session {
    /// Starts a fluent [`SessionBuilder`](crate::SessionBuilder) over
    /// `graph` — the only way to construct a session:
    ///
    /// ```
    /// use imp::prelude::*;
    ///
    /// # fn main() -> Result<(), imp::Error> {
    /// let mut g = GraphBuilder::new();
    /// let x = g.placeholder("x", Shape::vector(16))?;
    /// let y = g.square(x)?;
    /// g.fetch_as("y", y);
    /// let mut session = Session::builder(g.finish()).build()?;
    /// # Ok(())
    /// # }
    /// ```
    pub fn builder(graph: Graph) -> crate::SessionBuilder {
        crate::SessionBuilder::new(graph)
    }

    /// Binds a compiled, verified kernel to a chip built from `config`.
    pub(crate) fn from_kernel(
        graph: Graph,
        kernel: CompiledKernel,
        config: SimConfig,
        shadow: Option<ShadowConfig>,
    ) -> Self {
        let mut variables = HashMap::new();
        for node in graph.nodes() {
            if let Op::Variable { name, init } = node.op() {
                variables.insert(name.clone(), init.clone());
            }
        }
        let mut output_names: HashMap<String, Vec<NodeId>> = HashMap::new();
        for (idx, &id) in graph.outputs().iter().enumerate() {
            let name = match graph.output_name(idx) {
                Some(explicit) => Some(explicit.to_string()),
                None => match graph.node(id).map(|n| n.op()) {
                    Ok(Op::Placeholder { name } | Op::Variable { name, .. }) => Some(name.clone()),
                    _ => None,
                },
            };
            if let Some(name) = name {
                output_names.entry(name).or_default().push(id);
            }
        }
        Session {
            graph,
            kernel,
            machine: Machine::new(config),
            variables,
            shadow,
            output_names,
        }
    }

    /// The compiled kernel.
    pub fn kernel(&self) -> &CompiledKernel {
        &self.kernel
    }

    /// The source graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The simulated chip's configuration.
    pub fn sim_config(&self) -> &SimConfig {
        self.machine.config()
    }

    /// The active shadow-validation configuration, if enabled.
    pub fn shadow_config(&self) -> Option<&ShadowConfig> {
        self.shadow.as_ref()
    }

    /// Current value of a persistent variable.
    pub fn variable(&self, name: &str) -> Option<&Tensor> {
        self.variables.get(name)
    }

    /// Overwrites a variable's value host-side (e.g. to reload updated
    /// k-means centroids between invocations).
    pub fn set_variable(&mut self, name: &str, value: Tensor) {
        self.variables.insert(name.to_string(), value);
    }

    /// Executes the kernel with the given placeholder feeds; variables are
    /// supplied from (and written back to) the session's persistent state.
    ///
    /// # Errors
    /// Missing feeds, ill-shaped inputs, simulated-execution faults
    /// (annotated with the failing instruction block / graph node when the
    /// simulator localized them), or — with shadow validation enabled —
    /// divergence from the golden interpreter.
    pub fn run(&mut self, feeds: &[(&str, Tensor)]) -> Result<SessionOutputs, Error> {
        // Variables first: a feed of the same name overrides one.
        let variables = self.variables.iter().map(|(name, t)| (name.as_str(), t));
        let inputs = variables.chain(feeds.iter().map(|(name, t)| (*name, t)));
        let report = self
            .machine
            .run_inputs(&self.kernel, inputs)
            .map_err(|e| self.annotate_sim_error(e))?;
        let shadow = match self.shadow {
            Some(config) => {
                let report_card = self.shadow_check(config, feeds, &report)?;
                if report_card.diverged() {
                    return Err(Error::ShadowDivergence(report_card));
                }
                Some(report_card)
            }
            None => None,
        };
        // Write-back happens only after validation: a diverged run must
        // not advance the session's persistent variable state.
        for (name, value) in &report.variable_updates {
            self.variables.insert(name.clone(), value.clone());
        }
        Ok(SessionOutputs {
            report,
            shadow,
            names: self.output_names.clone(),
        })
    }

    /// Wraps a [`SimError`] with the failing instruction block and — via
    /// the compiled output layout — the fetched graph node it produces.
    fn annotate_sim_error(&self, source: SimError) -> Error {
        let ib = match &source {
            SimError::Array {
                site: Some(site), ..
            } => Some(site.ib),
            SimError::Faults(events) => events.first().map(|e| e.site.ib),
            _ => None,
        };
        let context = ib.map(|ib| FailureContext {
            ib,
            node: self.kernel.outputs.iter().find_map(|out| {
                out.locs
                    .iter()
                    .any(|loc| matches!(loc, OutputLoc::Row { ib: row_ib, .. } if *row_ib == ib))
                    .then_some(out.node)
            }),
        });
        Error::Sim { context, source }
    }

    /// Replays the run through the golden interpreter and compares every
    /// fetched output element-wise in format ULPs.
    fn shadow_check(
        &self,
        config: ShadowConfig,
        feeds: &[(&str, Tensor)],
        report: &RunReport,
    ) -> Result<ShadowReport, Error> {
        let mut interp = Interpreter::new(&self.graph);
        // The interpreter seeds variables at their *initial* values; sync
        // it to the session's evolved pre-run state instead.
        for (name, value) in &self.variables {
            interp.set_variable(name, value.clone());
        }
        for (name, tensor) in feeds {
            interp.feed(name, tensor.clone());
        }
        let golden = interp.run()?;
        let ulp = self.kernel.format.epsilon();
        let outputs = self
            .kernel
            .outputs
            .iter()
            .map(|out| {
                let node = out.node;
                let got = &report.outputs[&node];
                let want = &golden[&node];
                let mut divergence = OutputDivergence {
                    node,
                    elements: got.data().len(),
                    diverging: 0,
                    max_ulps: 0.0,
                    worst_index: 0,
                    got: f64::NAN,
                    expected: f64::NAN,
                };
                for (i, (&a, &b)) in got.data().iter().zip(want.data()).enumerate() {
                    let ulps = (a - b).abs() / ulp;
                    if ulps > config.tolerance_ulps {
                        divergence.diverging += 1;
                    }
                    if ulps > divergence.max_ulps || i == 0 {
                        divergence.max_ulps = ulps;
                        divergence.worst_index = i;
                        divergence.got = a;
                        divergence.expected = b;
                    }
                }
                divergence
            })
            .collect();
        Ok(ShadowReport {
            tolerance_ulps: config.tolerance_ulps,
            outputs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use imp_dfg::{GraphBuilder, Shape};

    #[test]
    fn session_runs_and_persists_variables() {
        let mut g = GraphBuilder::new();
        let acc = g.variable("acc", Tensor::zeros(Shape::vector(8))).unwrap();
        let x = g.placeholder("x", Shape::vector(8)).unwrap();
        let upd = g.assign_add(acc, x).unwrap();
        g.fetch(upd);
        let mut session = Session::builder(g.finish()).build().unwrap();
        let ones = Tensor::filled(1.0, Shape::vector(8));
        session.run(&[("x", ones.clone())]).unwrap();
        session.run(&[("x", ones)]).unwrap();
        let acc_value = session.variable("acc").unwrap();
        assert!(acc_value.data().iter().all(|&v| (v - 2.0).abs() < 1e-3));
    }

    #[test]
    fn missing_feed_surfaces_as_sim_error() {
        let mut g = GraphBuilder::new();
        let x = g.placeholder("x", Shape::vector(4)).unwrap();
        g.fetch(x);
        let mut session = Session::builder(g.finish()).build().unwrap();
        let err = session.run(&[]).unwrap_err();
        assert!(matches!(
            err,
            Error::Sim {
                context: None,
                source: SimError::MissingInput(_)
            }
        ));
    }

    #[test]
    fn shadow_validation_passes_a_clean_run_and_reports() {
        let mut g = GraphBuilder::new();
        let x = g.placeholder("x", Shape::vector(8)).unwrap();
        let sq = g.square(x).unwrap();
        let one = g.scalar(1.0);
        let y = g.add(sq, one).unwrap();
        g.fetch(y);
        let graph = g.finish();
        let mut session = Session::builder(graph.clone())
            .shadow(ShadowConfig::default())
            .build()
            .unwrap();
        let out = session
            .run(&[("x", Tensor::from_fn(Shape::vector(8), |i| i as f64 / 4.0))])
            .unwrap();
        let shadow = out.shadow_report().expect("shadow report attached");
        assert!(!shadow.diverged());
        assert_eq!(shadow.outputs.len(), 1);
        assert_eq!(shadow.outputs[0].node, y);
        // Fixed-point rounding on x² + 1 stays within a few ULPs.
        assert!(shadow.worst_ulps() < 64.0, "worst {}", shadow.worst_ulps());
        // A session built without `.shadow(..)` attaches no report.
        let mut session = Session::builder(graph).build().unwrap();
        let out = session
            .run(&[("x", Tensor::from_fn(Shape::vector(8), |i| i as f64 / 4.0))])
            .unwrap();
        assert!(out.shadow_report().is_none());
    }

    #[test]
    fn shadow_divergence_blocks_variable_writeback() {
        // An impossible tolerance turns legitimate fixed-point rounding
        // into "divergence" — good enough to observe the write-back gate.
        let mut g = GraphBuilder::new();
        let acc = g.variable("acc", Tensor::zeros(Shape::vector(8))).unwrap();
        let x = g.placeholder("x", Shape::vector(8)).unwrap();
        let upd = g.assign_add(acc, x).unwrap();
        g.fetch(upd);
        let mut session = Session::builder(g.finish())
            .shadow(ShadowConfig::with_tolerance_ulps(-1.0))
            .build()
            .unwrap();
        let feed = Tensor::from_fn(Shape::vector(8), |i| i as f64 / 8.0);
        let err = session.run(&[("x", feed)]).unwrap_err();
        assert!(matches!(err, Error::ShadowDivergence(ref r) if r.diverged()));
        let acc_value = session.variable("acc").unwrap();
        assert!(
            acc_value.data().iter().all(|&v| v == 0.0),
            "diverged run must not advance variables"
        );
    }

    #[test]
    fn adaptive_session_picks_the_model_optimum() {
        // A wide module on a tiny input: the adaptive session must pick a
        // multi-IB candidate (shorter latency, plenty of free slots).
        let mut g = GraphBuilder::new();
        let x = g.placeholder("x", Shape::new(vec![8, 16])).unwrap();
        let sq = g.square(x).unwrap();
        let s = g.sum(sq, 0).unwrap();
        g.fetch(s);
        let session = Session::builder(g.finish()).adaptive().build().unwrap();
        assert!(
            session.kernel().ibs.len() > 1,
            "tiny input should favour ILP"
        );
        // Functional check through the adaptive path.
        let mut session = session;
        let out = session
            .run(&[(
                "x",
                Tensor::from_fn(Shape::new(vec![8, 16]), |i| i as f64 / 8.0),
            )])
            .unwrap();
        assert!(out.report().cycles > 0);
    }

    #[test]
    fn set_variable_overrides_state() {
        let mut g = GraphBuilder::new();
        let w = g.variable("w", Tensor::zeros(Shape::vector(4))).unwrap();
        let x = g.placeholder("x", Shape::vector(4)).unwrap();
        let y = g.add(w, x).unwrap();
        g.fetch(y);
        let mut session = Session::builder(g.finish()).build().unwrap();
        session.set_variable("w", Tensor::filled(10.0, Shape::vector(4)));
        let out = session
            .run(&[("x", Tensor::filled(1.0, Shape::vector(4)))])
            .unwrap();
        assert!((out.output(y).unwrap().data()[0] - 11.0).abs() < 1e-3);
    }
}
