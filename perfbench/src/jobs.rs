//! The workloads, their set-up, and one compile -> verify -> simulate job
//! through the session front door.

use crate::host::cpu_ns;
use crate::trace::Recorder;
use imp::prelude::*;
use imp::{Interpreter, RunReport};
use imp_dfg::{Graph, NodeId, Op, ReduceOp};
use imp_noc::NocStats;
use std::collections::HashMap;
use std::time::Instant;

/// One benchmark workload: which kernels run, how, and at what size.
#[derive(Debug)]
pub struct Spec {
    pub name: &'static str,
    /// Module instances per job.
    pub instances: usize,
    /// Compiler policies; every kernel runs once under each.
    pub policies: &'static [OptPolicy],
}

pub const WORKLOADS: [Spec; 2] = [
    Spec {
        name: "sim_corpus",
        instances: 2048,
        policies: &[OptPolicy::MaxDlp],
    },
    Spec {
        name: "compile_sweep",
        instances: 8,
        policies: &[
            OptPolicy::MaxDlp,
            OptPolicy::MaxIlp,
            OptPolicy::MaxArrayUtil,
        ],
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

/// One (kernel, policy) combination with its inputs and the interpreter's
/// golden outputs.
#[derive(Debug)]
pub struct Row {
    pub kernel: &'static str,
    pub policy: OptPolicy,
    pub tolerance: f64,
    graph: Graph,
    ranges: Vec<(String, Interval)>,
    feeds: Vec<(String, Tensor)>,
    /// The feeds keyed by name, for direct `Machine::run`. The corpus
    /// kernels have no variables, so these are all the inputs.
    inputs: HashMap<String, Tensor>,
    golden: Vec<Golden>,
}

/// The interpreter's value of one fetched output and how a simulated
/// value is compared with it.
#[derive(Debug, Clone)]
struct Golden {
    node: NodeId,
    want: Tensor,
    /// For an `ArgMin` whose input is fetched too: that input and the
    /// reduced axis. Near-equidistant candidates legitimately swap under
    /// fixed-point rounding, so the chosen index is checked against the
    /// simulated input it selects from (which is itself checked against
    /// the interpreter) rather than against the interpreter's index.
    argmin_of: Option<(NodeId, usize)>,
}

impl Row {
    pub fn label(&self) -> String {
        format!("{}/{:?}", self.kernel, self.policy)
    }

    /// The session this row's jobs build: the benchmark's one front door.
    ///
    /// Jobs simulate on one thread. A job spread over both vCPUs of a
    /// small VM costs more CPU time whenever either vCPU's core is busy
    /// with another guest: over five 50-second sim_corpus runs on a 2-vCPU
    /// VM, `Parallelism::Auto` spread 0.09 of the median rate between
    /// runs and `Serial` 0.016. The traced run times `Auto` separately.
    pub fn builder(&self, spec: &Spec) -> SessionBuilder {
        let mut b = Session::builder(self.graph.clone())
            .policy(self.policy)
            .expected_instances(spec.instances)
            .parallelism(Parallelism::Serial)
            .verify(VerifyLevel::Deny);
        for (name, interval) in &self.ranges {
            b = b.range(name, *interval);
        }
        b
    }

    /// Feeds in the shape `Session::run` takes.
    pub fn feeds(&self) -> Vec<(&str, Tensor)> {
        self.feeds
            .iter()
            .map(|(n, t)| (n.as_str(), t.clone()))
            .collect()
    }

    pub fn inputs(&self) -> &HashMap<String, Tensor> {
        &self.inputs
    }
}

/// Builds every row of `spec`: graph, seeded inputs and golden outputs.
/// With a recorder, graph build and interpretation are timed as `imp-dfg`
/// spans.
///
/// # Errors
/// An interpreter failure on a corpus kernel.
pub fn setup(spec: &Spec, seed: u64, mut rec: Option<&mut Recorder>) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for w in imp_workloads::all_workloads() {
        let start = rec.as_ref().map(|r| r.now());
        let (graph, _, ranges) = w.build(spec.instances);
        if let (Some(r), Some(s)) = (rec.as_deref_mut(), start) {
            let end = r.now();
            r.push(
                format!("dfg.build.{}", w.name),
                "imp-dfg",
                (s, end),
                None,
                0,
            );
        }
        let mut feeds: Vec<(String, Tensor)> = w.inputs(spec.instances, seed).into_iter().collect();
        feeds.sort_by(|a, b| a.0.cmp(&b.0));
        let mut ranges: Vec<(String, Interval)> = ranges.into_iter().collect();
        ranges.sort_by(|a, b| a.0.cmp(&b.0));

        let start = rec.as_ref().map(|r| r.now());
        let mut interp = Interpreter::new(&graph);
        for (name, t) in &feeds {
            interp.feed(name, t.clone());
        }
        let mut golden_map = interp
            .run()
            .map_err(|e| format!("{}: interpreter: {e}", w.name))?;
        if let (Some(r), Some(s)) = (rec.as_deref_mut(), start) {
            let end = r.now();
            r.push(
                format!("dfg.interp.{}", w.name),
                "imp-dfg",
                (s, end),
                None,
                0,
            );
        }
        let fetched = graph.outputs();
        let mut golden = Vec::new();
        for &node in fetched {
            let want = golden_map
                .remove(&node)
                .ok_or_else(|| format!("{}: interpreter lacks output {node}", w.name))?;
            let n = graph.node(node).map_err(|e| format!("{}: {e}", w.name))?;
            let argmin_of = match n.op() {
                Op::Reduce {
                    op: ReduceOp::ArgMin,
                    axis,
                } if fetched.contains(&n.inputs()[0]) => Some((n.inputs()[0], *axis)),
                _ => None,
            };
            golden.push(Golden {
                node,
                want,
                argmin_of,
            });
        }

        let inputs: HashMap<String, Tensor> = feeds.iter().cloned().collect();
        for &policy in spec.policies {
            rows.push(Row {
                kernel: w.name,
                policy,
                tolerance: w.tolerance,
                graph: graph.clone(),
                ranges: ranges.clone(),
                feeds: feeds.clone(),
                inputs: inputs.clone(),
                golden: golden.clone(),
            });
        }
    }
    Ok(rows)
}

pub type JobResult = Result<(Session, SessionOutputs), imp::Error>;

/// Host cost of one job.
#[derive(Debug, Clone, Copy)]
pub struct JobTime {
    /// Process CPU time, every thread included.
    pub cpu_ns: u64,
    /// Wall-clock time.
    pub wall_ns: u64,
}

/// Runs one job untraced: build the session (compile + verify), run it.
/// Returns its host cost and the session with its outputs.
pub fn run_job(spec: &Spec, row: &Row, feeds: &[(&str, Tensor)]) -> (JobTime, JobResult) {
    let wall = Instant::now();
    let cpu = cpu_ns();
    let result = row.builder(spec).build().and_then(|mut session| {
        let out = session.run(feeds)?;
        Ok((session, out))
    });
    let time = JobTime {
        cpu_ns: cpu_ns() - cpu,
        wall_ns: wall.elapsed().as_nanos() as u64,
    };
    (time, result)
}

/// The largest error over every fetched output element, as a share of
/// the kernel's tolerance: |sim - interpreter| for values, and for an
/// `ArgMin` over a fetched input, how far the simulated input at the
/// chosen index lies above that input's minimum.
///
/// # Errors
/// A fetched output missing from the report, of the wrong length, or an
/// `ArgMin` index that names no candidate.
pub fn err_ratio(row: &Row, report: &RunReport) -> Result<f64, String> {
    let output = |node: &NodeId| {
        report
            .outputs
            .get(node)
            .ok_or_else(|| format!("{}: output {node} missing", row.label()))
    };
    let mut worst = 0.0f64;
    for g in &row.golden {
        let got = output(&g.node)?.data();
        if got.len() != g.want.data().len() {
            return Err(format!(
                "{}: output {} has {} elements, interpreter {}",
                row.label(),
                g.node,
                got.len(),
                g.want.data().len()
            ));
        }
        let Some((input, axis)) = g.argmin_of else {
            for (a, b) in got.iter().zip(g.want.data()) {
                worst = worst.max((a - b).abs() / row.tolerance);
            }
            continue;
        };
        let values = output(&input)?;
        let dims = values.shape().dims();
        let candidates = dims.get(axis).copied().unwrap_or(0);
        let inner: usize = dims.iter().skip(axis + 1).product();
        if candidates == 0 || got.len() * candidates != values.data().len() {
            return Err(format!(
                "{}: ArgMin input {input} has shape {dims:?}",
                row.label()
            ));
        }
        for (j, &index) in got.iter().enumerate() {
            let at = |k: usize| values.data()[(j / inner * candidates + k) * inner + j % inner];
            if index < 0.0 || index.fract() != 0.0 || index as usize >= candidates {
                return Err(format!(
                    "{}: ArgMin index {index} out of range",
                    row.label()
                ));
            }
            let min = (0..candidates).map(at).fold(f64::INFINITY, f64::min);
            worst = worst.max((at(index as usize) - min) / row.tolerance);
        }
    }
    Ok(worst)
}

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// A digest of every simulated result in a report: outputs and variable
/// updates bit for bit, cycles, energy, NoC counters, fault events and
/// recovery. Host-side telemetry is excluded.
pub fn fingerprint(r: &RunReport) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let mut nodes: Vec<&NodeId> = r.outputs.keys().collect();
    nodes.sort();
    for node in nodes {
        h.u64(node.index() as u64);
        for v in r.outputs[node].data() {
            h.u64(v.to_bits());
        }
    }
    let mut vars: Vec<&String> = r.variable_updates.keys().collect();
    vars.sort();
    for name in vars {
        h.bytes(name.as_bytes());
        for v in r.variable_updates[name].data() {
            h.u64(v.to_bits());
        }
    }
    h.bytes(
        format!(
            "{}|{}|{}|{}|{:?}|{:?}|{:?}|{}|{:?}|{}|{}|{}",
            r.instances,
            r.rounds,
            r.cycles,
            r.load_cycles,
            r.energy,
            r.noc,
            r.fault_events,
            r.retries,
            r.retired_arrays,
            r.fault_overhead_cycles,
            r.transport_overhead_cycles,
            r.instructions_executed,
        )
        .as_bytes(),
    );
    h.u64(r.avg_adc_bits.to_bits());
    h.u64(r.writes_per_exec);
    h.0
}

/// Deterministic simulated totals over one pass of a workload.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Model {
    pub jobs: u64,
    pub cycles: u64,
    pub energy_j: f64,
    pub instructions: u64,
    pub adc_bits_sum: f64,
    pub noc: NocStats,
}

impl Model {
    pub fn add(&mut self, r: &RunReport) {
        self.jobs += 1;
        self.cycles += r.cycles;
        self.energy_j += r.energy.total_j();
        self.instructions += r.instructions_executed;
        self.adc_bits_sum += r.avg_adc_bits;
        self.noc.merge(&r.noc);
    }
}
