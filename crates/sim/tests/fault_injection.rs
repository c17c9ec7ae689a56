//! Analog-integrity integration tests: the compiler's operand caps keep
//! strict-mode ADCs in range for *any* data, and injected process
//! variation degrades results monotonically.

use imp_compiler::{compile, ChipCapacity, CompileOptions, CompiledKernel, OptPolicy};
use imp_dfg::{GraphBuilder, NodeId, Shape, Tensor};
use imp_rram::{AnalogSpec, FaultRates};
use imp_sim::{FaultConfig, FaultPolicy, Machine, SimConfig, SimError};
use std::collections::HashMap;

/// Worst-case digit patterns: raw words of all-3 base-4 digits (-1) in
/// every lane, through a 16-wide merged summation. The node-merging cap
/// (10 operands at 5-bit ADCs) must keep every bit-line partial at
/// 10 × 3 = 30 ≤ 31 even for this adversarial data.
#[test]
fn compiled_code_never_overranges_strict_adcs() {
    let mut g = GraphBuilder::new();
    let x = g.placeholder("x", Shape::new(vec![16, 24])).unwrap();
    let s = g.sum(x, 0).unwrap();
    g.fetch(s);
    let kernel = compile(
        &g.finish(),
        &CompileOptions {
            policy: OptPolicy::MaxDlp,
            ..Default::default()
        },
    )
    .unwrap();
    // -1/65536 quantizes to raw -1: all sixteen digits are 3.
    let adversarial = Tensor::filled(-1.0 / 65536.0, Shape::new(vec![16, 24]));
    let inputs: HashMap<String, Tensor> = [("x".to_string(), adversarial)].into_iter().collect();
    let mut machine = Machine::new(SimConfig::functional()); // strict ADCs
    let report = machine
        .run(&kernel, &inputs)
        .expect("strict mode must not over-range");
    let out = &report.outputs[&kernel.outputs[0].node];
    for &v in out.data() {
        assert!((v - (-16.0 / 65536.0)).abs() < 1e-9);
    }
}

#[test]
fn variation_noise_degrades_monotonically() {
    let mut g = GraphBuilder::new();
    let x = g.placeholder("x", Shape::vector(64)).unwrap();
    let sq = g.square(x).unwrap();
    let y = g.add(sq, x).unwrap();
    g.fetch(y);
    let graph = g.finish();
    let kernel = compile(&graph, &CompileOptions::default()).unwrap();
    let inputs: HashMap<String, Tensor> = [(
        "x".to_string(),
        Tensor::from_fn(Shape::vector(64), |i| (i as f64) / 8.0 - 4.0),
    )]
    .into_iter()
    .collect();

    let mut errors = Vec::new();
    let mut reference: Option<Tensor> = None;
    for &p in &[0.0, 1e-5, 1e-3, 1e-1] {
        let mut config = SimConfig::functional();
        config.analog = AnalogSpec {
            noise_prob: p,
            ..AnalogSpec::prototype()
        };
        let mut machine = Machine::new(config);
        let report = machine.run(&kernel, &inputs).unwrap();
        let out = report.outputs[&kernel.outputs[0].node].clone();
        match &reference {
            None => {
                reference = Some(out);
                errors.push(0.0);
            }
            Some(clean) => errors.push(clean.max_abs_diff(&out)),
        }
    }
    assert_eq!(errors[0], 0.0);
    assert!(
        errors[3] > errors[1],
        "heavy noise {} must beat light noise {}",
        errors[3],
        errors[1]
    );
    assert!(
        errors[3] > 0.0,
        "10% conversion noise must visibly corrupt results"
    );
}

#[test]
fn noise_is_deterministic_per_seed() {
    let mut g = GraphBuilder::new();
    let x = g.placeholder("x", Shape::vector(32)).unwrap();
    let y = g.square(x).unwrap();
    g.fetch(y);
    let kernel = compile(&g.finish(), &CompileOptions::default()).unwrap();
    let inputs: HashMap<String, Tensor> = [(
        "x".to_string(),
        Tensor::from_fn(Shape::vector(32), |i| i as f64 / 4.0),
    )]
    .into_iter()
    .collect();
    let run = || {
        let mut config = SimConfig::functional();
        config.analog = AnalogSpec {
            noise_prob: 0.05,
            ..AnalogSpec::prototype()
        };
        let mut machine = Machine::new(config);
        let report = machine.run(&kernel, &inputs).unwrap();
        report.outputs[&kernel.outputs[0].node].clone()
    };
    assert_eq!(run(), run(), "fault injection must be reproducible");
}

/// A quadratic over `n` instances plus its inputs and fetched node.
fn quadratic(
    n: usize,
    capacity: ChipCapacity,
) -> (CompiledKernel, HashMap<String, Tensor>, NodeId) {
    let mut g = GraphBuilder::new();
    let x = g.placeholder("x", Shape::vector(n)).unwrap();
    let sq = g.square(x).unwrap();
    let y = g.add(sq, x).unwrap();
    g.fetch(y);
    let options = CompileOptions {
        policy: OptPolicy::MaxDlp,
        capacity,
        ..Default::default()
    };
    let kernel = compile(&g.finish(), &options).unwrap();
    let inputs = [(
        "x".to_string(),
        Tensor::from_fn(Shape::vector(n), |i| ((i % 61) as f64) / 16.0 - 1.875),
    )]
    .into_iter()
    .collect();
    (kernel, inputs, y)
}

fn one_tile() -> ChipCapacity {
    ChipCapacity {
        tiles: 1,
        clusters_per_tile: 8,
        arrays_per_cluster: 8,
    }
}

fn faulty_config(seed: u64, rates: FaultRates, policy: FaultPolicy) -> SimConfig {
    let mut config = SimConfig::functional();
    config.capacity = one_tile();
    config.fault_seed = seed;
    config.faults = FaultConfig::new(rates, policy);
    config
}

#[test]
fn failfast_detects_what_silent_mode_corrupts() {
    let (kernel, inputs, y) = quadratic(2048, one_tile());
    let mut clean_config = SimConfig::functional();
    clean_config.capacity = one_tile();
    let golden = Machine::new(clean_config)
        .run(&kernel, &inputs)
        .unwrap()
        .outputs[&y]
        .clone();

    // Dense enough that stuck cells land in live data rows.
    let rates = FaultRates::cells(1e-3);
    let silent = Machine::new(faulty_config(7, rates, FaultPolicy::Silent))
        .run(&kernel, &inputs)
        .expect("silent mode always completes");
    let corrupted = &silent.outputs[&y];
    assert!(
        golden.max_abs_diff(corrupted) > 0.0,
        "0.1% stuck cells must corrupt some output in silent mode"
    );
    assert!(
        !silent.fault_events.is_empty(),
        "silent mode still records detections"
    );

    match Machine::new(faulty_config(7, rates, FaultPolicy::FailFast)).run(&kernel, &inputs) {
        Err(SimError::Faults(events)) => {
            assert!(!events.is_empty());
            assert!(events
                .iter()
                .all(|e| e.site.physical_slot < one_tile().arrays()));
        }
        other => panic!(
            "the same population silent mode corrupts must fail fast, got {:?}",
            other.map(|r| r.fault_events.len())
        ),
    }
}

#[test]
fn retry_converges_under_transient_adc_faults() {
    let (kernel, inputs, y) = quadratic(256, one_tile());
    let mut clean_config = SimConfig::functional();
    clean_config.capacity = one_tile();
    let clean = Machine::new(clean_config).run(&kernel, &inputs).unwrap();
    let golden = clean.outputs[&y].clone();

    // A multiply burns 8 lanes × 16 × 16 = 2,048 conversions per slot, so
    // even 2e-5 per conversion glitches most attempts on 32 active slots
    // while leaving a healthy chance of drawing a clean one.
    let rates = FaultRates {
        transient_adc: 2e-5,
        ..FaultRates::none()
    };
    let report = Machine::new(faulty_config(
        3,
        rates,
        FaultPolicy::Retry {
            max: 50,
            backoff_cycles: 8,
        },
    ))
    .run(&kernel, &inputs)
    .expect("transient glitches must eventually draw a clean attempt");
    assert_eq!(
        report.outputs[&y], golden,
        "a glitch-free attempt is bit-identical to the clean chip"
    );
    assert!(
        report.retries > 0,
        "1e-4 per-conversion glitches must spoil some attempt"
    );
    assert!(!report.fault_events.is_empty());
    assert!(
        report.fault_overhead_cycles > 0,
        "failed attempts are charged"
    );
    assert_eq!(report.cycles, clean.cycles + report.fault_overhead_cycles);
    assert!(
        report.retired_arrays.is_empty(),
        "retry never retires hardware"
    );
}

#[test]
fn remap_reproduces_golden_at_reduced_throughput() {
    let (kernel, inputs, y) = quadratic(2048, one_tile());
    let mut clean_config = SimConfig::functional();
    clean_config.capacity = one_tile();
    let clean = Machine::new(clean_config).run(&kernel, &inputs).unwrap();

    let rates = FaultRates::cells(1e-5);
    let report = Machine::new(faulty_config(2026, rates, FaultPolicy::Remap))
        .run(&kernel, &inputs)
        .expect("plenty of healthy arrays remain");
    assert_eq!(
        report.outputs[&y], clean.outputs[&y],
        "remap must reproduce golden outputs on the healthy arrays"
    );
    assert!(
        !report.retired_arrays.is_empty(),
        "this population has faulty arrays"
    );
    assert!(
        report.rounds > clean.rounds,
        "fewer usable arrays ⇒ more rounds ({} vs {})",
        report.rounds,
        clean.rounds
    );
    assert!(
        report.cycles > clean.cycles,
        "reduced parallelism costs cycles"
    );
    assert!(report.fault_overhead_cycles > 0);
}

/// The remap policy's reschedule is re-verified before it replaces the
/// schedule: at `Deny` level a valid reschedule must still pass (and the
/// run succeed), with the verifier's findings recorded in telemetry.
#[test]
fn remap_reschedule_passes_deny_verification() {
    let (kernel, inputs, y) = quadratic(2048, one_tile());
    let rates = FaultRates::cells(1e-5);
    let mut config = faulty_config(2026, rates, FaultPolicy::Remap);
    config.verify = imp_verify::VerifyLevel::Deny;
    config.telemetry = Some(imp_telemetry::Telemetry::new());
    let report = Machine::new(config)
        .run(&kernel, &inputs)
        .expect("a legal reschedule must pass Deny-level verification");
    assert!(
        !report.retired_arrays.is_empty(),
        "this population retires arrays, so at least one reschedule ran"
    );
    assert!(report.outputs.contains_key(&y));
    let tel = report.telemetry.expect("telemetry was installed");
    assert!(
        tel.counters["verify.runs"] >= 1,
        "each remap reschedule records one verifier run"
    );
}

proptest::proptest! {
    /// The zero-cost guarantee: with the fault model disabled, outputs are
    /// bit-identical regardless of the fault seed.
    #[test]
    fn fault_free_runs_are_bit_identical_across_seeds(seed in proptest::prelude::any::<u64>()) {
        let (kernel, inputs, y) = quadratic(64, ChipCapacity::small());
        let run = |fault_seed: u64| {
            let mut config = SimConfig::functional();
            config.fault_seed = fault_seed;
            Machine::new(config).run(&kernel, &inputs).unwrap().outputs[&y].clone()
        };
        proptest::prop_assert_eq!(run(0), run(seed));
    }
}
