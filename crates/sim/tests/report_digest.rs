//! `RunReport` bit-identity golden: every simulated result of a fixed
//! matrix of runs — the eight corpus kernels × two compile policies ×
//! seven analog/fault configurations and four H-tree transport-fault
//! configurations — is digested and compared against the checked-in
//! `tests/golden/report_digest.txt`.
//!
//! A second, wider matrix runs a few of those configurations at
//! [`WIDE_INSTANCES`], so each run spans several full batches of the
//! lane-batched engine, a partial batch and a last group with only three
//! valid lanes.
//!
//! A host-speed change to the simulator or the ReRAM substrate must leave
//! this file byte-identical: outputs, variable updates, cycles, energy,
//! NoC counters, fault events, recovery and ADC accounting are all in the
//! digest. Runs that end in an error digest the error instead.
//!
//! To regenerate after an *intentional* model change:
//! `RUN_DIGEST_GOLDEN_UPDATE=1 cargo test -p imp-sim --test report_digest`

use imp_compiler::{CompiledKernel, OptPolicy};
use imp_dfg::Tensor;
use imp_rram::FaultRates;
use imp_sim::{
    FaultConfig, FaultPolicy, LinkFaultRates, Machine, Parallelism, RunReport, SimConfig,
    TransportConfig, TransportPolicy,
};
use std::collections::HashMap;
use std::fmt::Write as _;

const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../tests/golden/report_digest.txt"
);

/// Module instances per run: eight instance groups.
const INSTANCES: usize = 64;

/// Module instances per wide run: 38 instance groups, the last holding
/// three valid lanes.
const WIDE_INSTANCES: usize = 299;

/// The configurations of the wide matrix, by name, with the policy each
/// runs under: the clean path under both policies, a clipping ADC that
/// sends groups back to the ordered loops, stuck cells that leave some
/// groups on faulty slots, and dead links that drop `movg` messages.
const WIDE_CONFIGS: [(&str, OptPolicy); 5] = [
    ("clean", OptPolicy::MaxDlp),
    ("clean", OptPolicy::MaxIlp),
    ("adc4_clipping", OptPolicy::MaxDlp),
    ("remap_stuck", OptPolicy::MaxDlp),
    ("transport_dead_silent", OptPolicy::MaxIlp),
];

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

/// A digest of every simulated result in `r`. Host-side telemetry is
/// excluded.
fn digest(r: &RunReport) -> u64 {
    let mut h = Fnv::new();
    let mut nodes: Vec<_> = r.outputs.keys().collect();
    nodes.sort();
    for node in nodes {
        h.u64(node.index() as u64);
        for &v in r.outputs[node].data() {
            h.f64(v);
        }
    }
    let mut vars: Vec<&String> = r.variable_updates.keys().collect();
    vars.sort();
    for name in vars {
        h.bytes(name.as_bytes());
        for &v in r.variable_updates[name].data() {
            h.f64(v);
        }
    }
    h.bytes(
        format!(
            "{}|{}|{}|{}|{:?}|{:?}|{:?}|{}|{:?}|{}|{}|{}|{}",
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
            r.writes_per_exec,
        )
        .as_bytes(),
    );
    for v in [r.seconds, r.avg_power_w, r.avg_adc_bits, r.lifetime_years] {
        h.f64(v);
    }
    h.0
}

/// The analog/fault and transport-fault configurations of the matrix, by
/// name. Fault rates are light so the whole matrix stays quick in a debug
/// build while still exercising every faulty read, scan and recovery
/// path. The transport rows cover CRC failures with retransmission, a
/// `FailFast` error, dropped messages and sibling detours.
fn configs() -> Vec<(&'static str, SimConfig)> {
    let base = || {
        let mut config = SimConfig::functional();
        config.parallelism = Parallelism::Serial;
        config.fault_seed = 11;
        config
    };
    let faulty = |rates: FaultRates, policy: FaultPolicy| {
        let mut config = base();
        config.faults = FaultConfig::new(rates, policy);
        config
    };
    let transport = |rates: LinkFaultRates, policy: TransportPolicy| {
        let mut config = base();
        config.transport = TransportConfig { rates, policy };
        config
    };
    let mut noisy = base();
    noisy.analog.noise_prob = 1e-3;
    let mut narrow = base();
    narrow.analog.adc_bits = 4;
    narrow.analog.strict_adc = false;
    vec![
        ("clean", base()),
        ("adc_noise", noisy),
        (
            "retry_transient",
            faulty(
                FaultRates {
                    transient_adc: 1e-6,
                    ..FaultRates::none()
                },
                FaultPolicy::Retry {
                    max: 1,
                    backoff_cycles: 8,
                },
            ),
        ),
        (
            "remap_stuck",
            faulty(FaultRates::cells(4e-6), FaultPolicy::Remap),
        ),
        (
            "silent_offset_deadcol_endurance",
            faulty(
                FaultRates {
                    adc_offset: 0.05,
                    dead_col: 2e-3,
                    endurance_limit: Some(6),
                    ..FaultRates::none()
                },
                FaultPolicy::Silent,
            ),
        ),
        (
            "silent_cells_deadlines_endurance",
            faulty(
                FaultRates {
                    stuck_at_zero: 1e-3,
                    stuck_at_max: 1e-3,
                    dead_row: 2e-3,
                    dead_col: 2e-3,
                    endurance_limit: Some(6),
                    ..FaultRates::none()
                },
                FaultPolicy::Silent,
            ),
        ),
        ("adc4_clipping", narrow),
        (
            "transport_flip_retransmit",
            transport(
                LinkFaultRates::flips(FLIP_RATE),
                TransportPolicy::AckRetransmit {
                    max: 8,
                    backoff: 16,
                },
            ),
        ),
        (
            "transport_flip_failfast",
            transport(LinkFaultRates::flips(FLIP_RATE), TransportPolicy::FailFast),
        ),
        (
            "transport_dead_silent",
            transport(
                LinkFaultRates::dead_links(DEAD_RATE),
                TransportPolicy::Silent,
            ),
        ),
        (
            "transport_dead_reroute",
            transport(
                LinkFaultRates::dead_links(DEAD_RATE),
                TransportPolicy::Reroute,
            ),
        ),
    ]
}

const FLIP_RATE: f64 = 0.02;
const DEAD_RATE: f64 = 0.2;

/// The digest of one run, or of the error it ends in.
fn run_digest(
    config: SimConfig,
    kernel: &CompiledKernel,
    inputs: &HashMap<String, Tensor>,
) -> String {
    match Machine::new(config).run(kernel, inputs) {
        Ok(report) => format!("ok {:016x}", digest(&report)),
        Err(err) => {
            let mut h = Fnv::new();
            h.bytes(err.to_string().as_bytes());
            format!("err {:016x}", h.0)
        }
    }
}

fn digest_lines() -> String {
    let mut out = String::new();
    for workload in imp_workloads::all_workloads() {
        let inputs = workload.inputs(INSTANCES, 1);
        for policy in [OptPolicy::MaxDlp, OptPolicy::MaxIlp] {
            let kernel = workload.compile(INSTANCES, policy).expect("compiles");
            for (name, config) in configs() {
                let result = run_digest(config, &kernel, &inputs);
                let _ = writeln!(out, "{} {policy:?} {name} {result}", workload.name);
            }
        }
    }
    let configs = configs();
    for workload in imp_workloads::all_workloads() {
        let inputs = workload.inputs(WIDE_INSTANCES, 1);
        for policy in [OptPolicy::MaxDlp, OptPolicy::MaxIlp] {
            let kernel = workload.compile(WIDE_INSTANCES, policy).expect("compiles");
            for (wide, _) in WIDE_CONFIGS.iter().filter(|(_, p)| *p == policy) {
                let (name, config) = configs
                    .iter()
                    .find(|(name, _)| name == wide)
                    .expect("wide configurations are in the matrix");
                let result = run_digest(config.clone(), &kernel, &inputs);
                let _ = writeln!(
                    out,
                    "{} {policy:?} {name}@{WIDE_INSTANCES} {result}",
                    workload.name
                );
            }
        }
    }
    out
}

#[test]
fn run_reports_match_digest_golden() {
    let lines = digest_lines();
    if std::env::var_os("RUN_DIGEST_GOLDEN_UPDATE").is_some() {
        std::fs::write(GOLDEN_PATH, &lines).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN_PATH)
        .expect("golden file missing — regenerate with RUN_DIGEST_GOLDEN_UPDATE=1");
    for (got, want) in lines.lines().zip(golden.lines()) {
        assert_eq!(got, want, "RunReport digest drifted");
    }
    assert_eq!(
        lines.lines().count(),
        golden.lines().count(),
        "digest matrix size changed"
    );
    assert!(
        golden.lines().any(|line| line.contains(" err ")),
        "the matrix must cover at least one failing run"
    );
}
