//! Graceful-degradation study: accuracy and runtime versus ReRAM fault
//! rate under each recovery policy.
//!
//! A small chip (one tile, 64 arrays) runs a data-parallel quadratic over
//! 2,048 instances — 256 instance groups, four rounds at full health — so
//! retiring even a few arrays visibly stretches the round count. Two
//! sweeps:
//!
//! 1. **Permanent stuck cells** (split stuck-at-0 / stuck-at-max) at
//!    per-cell rates up to ~3×10⁻⁶ — about 5% of arrays carrying at least
//!    one bad cell. `Silent` keeps corrupted outputs, `FailFast` turns
//!    detections into structured errors, and `Remap` retires the broken
//!    arrays and re-runs around them: outputs stay at the golden values
//!    while runtime grows monotonically with the fault rate.
//! 2. **Transient ADC glitches** per conversion. `Retry` re-executes
//!    until an attempt draws no glitch; accuracy stays golden while the
//!    attempt count and charged cycles grow with the glitch rate.
//!
//! The assertions at the bottom are the acceptance criteria: remap stays
//! within golden tolerance with monotone runtime, and fail-fast never
//! returns silently corrupted data.
//!
//! The output is deterministic and CI diffs it against
//! `tests/golden/fault_sweep.txt`. After a change that means to move a
//! number, regenerate that file with
//! `cargo run --release -p imp-bench --bin fault_sweep > tests/golden/fault_sweep.txt`.

use imp_bench::{emit, emit_json, header};
use imp_compiler::{compile, ChipCapacity, CompileOptions, OptPolicy};
use imp_dfg::{GraphBuilder, NodeId, Shape, Tensor};
use imp_rram::FaultRates;
use imp_sim::{FaultConfig, FaultPolicy, Machine, RunReport, SimConfig, SimError};
use std::collections::HashMap;

const N: usize = 2048;
const SEED: u64 = 2026;

fn tiny_chip() -> ChipCapacity {
    ChipCapacity {
        tiles: 1,
        clusters_per_tile: 8,
        arrays_per_cluster: 8,
    }
}

fn config(faults: FaultConfig) -> SimConfig {
    let mut config = SimConfig::functional();
    config.capacity = tiny_chip();
    config.fault_seed = SEED;
    config.faults = faults;
    config
}

fn build() -> (
    imp_compiler::CompiledKernel,
    HashMap<String, Tensor>,
    NodeId,
) {
    let mut g = GraphBuilder::new();
    let x = g.placeholder("x", Shape::vector(N)).unwrap();
    let sq = g.square(x).unwrap();
    let y = g.add(sq, x).unwrap();
    g.fetch(y);
    let graph = g.finish();
    let options = CompileOptions {
        policy: OptPolicy::MaxDlp,
        capacity: tiny_chip(),
        ..Default::default()
    };
    let kernel = compile(&graph, &options).unwrap();
    let inputs = [(
        "x".to_string(),
        Tensor::from_fn(Shape::vector(N), |i| ((i % 61) as f64) / 16.0 - 1.875),
    )]
    .into_iter()
    .collect();
    (kernel, inputs, y)
}

fn mean_err(report: &RunReport, golden: &Tensor, node: NodeId) -> f64 {
    let out = &report.outputs[&node];
    out.data()
        .iter()
        .zip(golden.data())
        .map(|(&a, &b)| (a - b).abs())
        .sum::<f64>()
        / golden.data().len() as f64
}

fn main() {
    header("Fault-tolerance sweep — accuracy & runtime vs fault rate per policy");
    let (kernel, inputs, y) = build();

    // Golden: the fault model disabled entirely.
    let golden_report = Machine::new(config(FaultConfig::default()))
        .run(&kernel, &inputs)
        .expect("golden run");
    let golden = golden_report.outputs[&y].clone();
    let golden_cycles = golden_report.cycles;
    println!(
        "{} instances, {} groups/round at full health, {} golden cycles\n",
        N,
        tiny_chip().arrays(),
        golden_cycles
    );

    // Part 1: permanent stuck cells.
    println!(
        "{:<12} {:>14} {:>10} {:>14} {:>12} {:>8}",
        "cell rate", "silent err", "failfast", "remap err", "remap cyc", "retired"
    );
    // 16,384 cells per array: 3e-6 is the "≈5% of arrays faulty" point,
    // 1e-4 leaves barely a quarter of the chip healthy.
    let mut remap_cycles_series = Vec::new();
    for &rate in &[0.0f64, 1e-7, 1e-6, 3e-6, 1e-5, 1e-4] {
        let rates = FaultRates::cells(rate);

        let silent = Machine::new(config(FaultConfig::new(rates, FaultPolicy::Silent)))
            .run(&kernel, &inputs)
            .expect("silent runs always complete");
        let silent_err = mean_err(&silent, &golden, y);
        emit("fault_sweep", "silent_mean_err", rate, silent_err);
        emit_json("fault_sweep", "silent_cells", rate, &silent, silent_err);

        let failfast = Machine::new(config(FaultConfig::new(rates, FaultPolicy::FailFast)))
            .run(&kernel, &inputs);
        let failfast_label = match &failfast {
            Ok(report) => {
                // No detections ⇒ must be uncorrupted.
                let err = mean_err(report, &golden, y);
                assert!(
                    err < 1e-9,
                    "fail-fast returned Ok with corrupted outputs (mean err {err})"
                );
                "ok"
            }
            Err(SimError::Faults(events)) => {
                assert!(!events.is_empty());
                // The silent run under the same population must actually
                // be corrupted or at least detected — never the reverse.
                "faults"
            }
            Err(other) => panic!("fail-fast produced a non-fault error: {other}"),
        };
        emit(
            "fault_sweep",
            "failfast_completed",
            rate,
            f64::from(u8::from(failfast.is_ok())),
        );

        let remap = Machine::new(config(FaultConfig::new(rates, FaultPolicy::Remap)))
            .run(&kernel, &inputs)
            .expect("remap must complete at ≤5% faulty arrays");
        let remap_err = mean_err(&remap, &golden, y);
        emit("fault_sweep", "remap_mean_err", rate, remap_err);
        emit_json("fault_sweep", "remap_cells", rate, &remap, remap_err);
        emit("fault_sweep", "remap_cycles", rate, remap.cycles as f64);
        emit(
            "fault_sweep",
            "remap_retired_arrays",
            rate,
            remap.retired_arrays.len() as f64,
        );
        remap_cycles_series.push((rate, remap.cycles, remap_err, remap.retired_arrays.len()));

        println!(
            "{:<12.0e} {:>14.6} {:>10} {:>14.6} {:>12} {:>8}",
            rate,
            silent_err,
            failfast_label,
            remap_err,
            remap.cycles,
            remap.retired_arrays.len()
        );
    }

    // Part 2: transient ADC glitches under Retry.
    println!(
        "\n{:<12} {:>12} {:>10} {:>12}",
        "glitch rate", "retry err", "attempts", "cycles"
    );
    // A single in-situ multiply performs 8 lanes × 16 × 16 = 2,048 ADC
    // conversions, and every instance group draws its own independent
    // glitch stream (seeded per (slot, group, attempt)), so one attempt
    // on this kernel faces ~1e6 independent draws: per-conversion rates
    // beyond ~4e-6 leave no realistic chance of a glitch-free attempt.
    for &rate in &[0.0f64, 5e-7, 1e-6, 2e-6, 4e-6] {
        let rates = FaultRates {
            transient_adc: rate,
            ..FaultRates::none()
        };
        let retry = Machine::new(config(FaultConfig::new(
            rates,
            FaultPolicy::Retry {
                max: 100,
                backoff_cycles: 16,
            },
        )))
        .run(&kernel, &inputs)
        .expect("retry converges under transient faults");
        let err = mean_err(&retry, &golden, y);
        assert!(
            err < 1e-9,
            "a clean retry attempt must reproduce golden outputs (mean err {err})"
        );
        emit("fault_sweep", "retry_mean_err", rate, err);
        emit_json("fault_sweep", "retry_adc", rate, &retry, err);
        emit(
            "fault_sweep",
            "retry_attempts",
            rate,
            f64::from(retry.retries) + 1.0,
        );
        emit("fault_sweep", "retry_cycles", rate, retry.cycles as f64);
        println!(
            "{:<12.0e} {:>12.6} {:>10} {:>12}",
            rate,
            err,
            retry.retries + 1,
            retry.cycles
        );
    }

    // Acceptance: graceful degradation.
    for window in remap_cycles_series.windows(2) {
        assert!(
            window[1].1 >= window[0].1,
            "remap runtime must grow monotonically with the fault rate: \
             {:?} then {:?}",
            window[0],
            window[1]
        );
    }
    for &(rate, _, err, _) in &remap_cycles_series {
        assert!(
            err < 1e-3,
            "remap outputs must stay within golden tolerance at rate {rate} (err {err})"
        );
    }
    let worst = remap_cycles_series.last().unwrap();
    println!(
        "\nremap degrades gracefully: worst case {} cycles vs {} golden \
         ({} arrays retired at rate {:.0e}) with outputs at golden accuracy.",
        worst.1, golden_cycles, worst.3, worst.0
    );
}
