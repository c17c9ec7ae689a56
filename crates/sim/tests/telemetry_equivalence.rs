//! Telemetry acceptance gates:
//!
//! 1. **Zero-cost when disabled** — installing *no* telemetry must leave
//!    every [`RunReport`] field bit-identical to a run that recorded a
//!    full report. Instrumentation may observe the run, never steer it.
//! 2. **Deterministic when enabled** — everything in a
//!    [`TelemetryReport`] except wall-clock nanoseconds and the engine's
//!    worker topology is identical across `Parallelism::Serial` and any
//!    `Parallelism::Threads(n)`, and across repeated runs.

use imp_compiler::{compile, CompileOptions, CompiledKernel, OptPolicy};
use imp_dfg::{GraphBuilder, Shape, Tensor};
use imp_rram::FaultRates;
use imp_sim::{
    FaultConfig, FaultPolicy, Machine, Parallelism, RunReport, SimConfig, Telemetry,
    TelemetryReport,
};
use proptest::prelude::*;
use std::collections::HashMap;

/// Same kernel-shape menu as `engine_determinism.rs`: elementwise chain,
/// cross-tile reduction, or both output kinds at once.
fn build_kernel(kind: u8, n: usize) -> (CompiledKernel, HashMap<String, Tensor>) {
    let mut g = GraphBuilder::new();
    let x = g.placeholder("x", Shape::vector(n)).unwrap();
    let sq = g.square(x).unwrap();
    match kind % 3 {
        0 => {
            let y = g.add(sq, x).unwrap();
            g.fetch(y);
        }
        1 => {
            let s = g.sum(sq, 0).unwrap();
            g.fetch(s);
        }
        _ => {
            let s = g.sum(sq, 0).unwrap();
            g.fetch(sq);
            g.fetch(s);
        }
    }
    let kernel = compile(
        &g.finish(),
        &CompileOptions {
            policy: OptPolicy::MaxDlp,
            ..Default::default()
        },
    )
    .unwrap();
    let inputs = [(
        "x".to_string(),
        Tensor::from_fn(Shape::vector(n), |i| ((i % 53) as f64) / 16.0 - 1.5),
    )]
    .into_iter()
    .collect();
    (kernel, inputs)
}

/// Field-by-field equality over everything *but* the telemetry snapshot
/// itself. Floats compare by bit pattern: "close" is not the claim,
/// *identical* is.
fn assert_identical(a: &RunReport, b: &RunReport, tag: &str) {
    assert_eq!(a.outputs, b.outputs, "{tag}: outputs");
    assert_eq!(a.variable_updates, b.variable_updates, "{tag}: variables");
    assert_eq!(a.instances, b.instances, "{tag}: instances");
    assert_eq!(a.rounds, b.rounds, "{tag}: rounds");
    assert_eq!(a.cycles, b.cycles, "{tag}: cycles");
    assert_eq!(a.load_cycles, b.load_cycles, "{tag}: load_cycles");
    assert_eq!(a.seconds.to_bits(), b.seconds.to_bits(), "{tag}: seconds");
    assert_eq!(a.energy, b.energy, "{tag}: energy");
    assert_eq!(
        a.avg_power_w.to_bits(),
        b.avg_power_w.to_bits(),
        "{tag}: avg_power_w"
    );
    assert_eq!(
        a.avg_adc_bits.to_bits(),
        b.avg_adc_bits.to_bits(),
        "{tag}: avg_adc_bits"
    );
    assert_eq!(a.noc, b.noc, "{tag}: noc stats");
    assert_eq!(a.writes_per_exec, b.writes_per_exec, "{tag}: wear");
    assert_eq!(
        a.lifetime_years.to_bits(),
        b.lifetime_years.to_bits(),
        "{tag}: lifetime"
    );
    assert_eq!(
        a.instructions_executed, b.instructions_executed,
        "{tag}: instructions"
    );
    assert_eq!(a.fault_events, b.fault_events, "{tag}: fault events");
    assert_eq!(a.retries, b.retries, "{tag}: retries");
    assert_eq!(a.retired_arrays, b.retired_arrays, "{tag}: retired arrays");
    assert_eq!(
        a.fault_overhead_cycles, b.fault_overhead_cycles,
        "{tag}: fault overhead"
    );
    assert_eq!(
        a.transport_overhead_cycles, b.transport_overhead_cycles,
        "{tag}: transport overhead"
    );
}

/// Normalizes the non-deterministic / topology-dependent parts of a
/// report for cross-parallelism comparison: wall times (host clock) plus
/// the engine's worker count and shard occupancy (which legitimately
/// record the chosen `Parallelism`).
fn comparable(report: &TelemetryReport) -> TelemetryReport {
    let mut masked = report.without_wall_times();
    if let Some(engine) = masked.engine.as_mut() {
        engine.workers = 0;
        engine.groups_per_worker = Vec::new();
    }
    masked
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A telemetry recorder may observe the run, never steer it: every
    /// report field is bit-identical with the recorder installed vs not,
    /// fault-free and under Silent fault injection alike.
    #[test]
    fn telemetry_on_and_off_runs_are_bit_identical(
        kind in 0u8..3,
        scale in 1usize..4,
        seed in 0u64..1000,
        faulty in any::<bool>(),
    ) {
        let (kernel, inputs) = build_kernel(kind, 200 * scale);
        let base = SimConfig {
            fault_seed: seed,
            faults: if faulty {
                FaultConfig::new(
                    FaultRates {
                        transient_adc: 1e-4,
                        adc_offset: 0.05,
                        ..FaultRates::cells(1e-4)
                    },
                    FaultPolicy::Silent,
                )
            } else {
                FaultConfig::default()
            },
            ..SimConfig::functional()
        };
        let off = Machine::new(base.clone()).run(&kernel, &inputs).expect("off run");
        prop_assert!(off.telemetry.is_none());
        let on = Machine::new(SimConfig {
            telemetry: Some(Telemetry::new()),
            ..base
        })
        .run(&kernel, &inputs)
        .expect("on run");
        assert_identical(&off, &on, "telemetry on/off");
        prop_assert!(on.telemetry.is_some());
    }

    /// Counters, histograms, per-IB profiles and engine group/round/
    /// attempt figures are identical across `Serial` and `Threads(1|2|4)`
    /// (the ascending-group-order merge), and across repeated runs.
    #[test]
    fn telemetry_reports_deterministic_across_worker_counts(
        kind in 0u8..3,
        scale in 1usize..4,
        seed in 0u64..1000,
    ) {
        let (kernel, inputs) = build_kernel(kind, 200 * scale);
        let run = |parallelism: Parallelism| {
            let config = SimConfig {
                fault_seed: seed,
                parallelism,
                telemetry: Some(Telemetry::new()),
                ..SimConfig::functional()
            };
            Machine::new(config)
                .run(&kernel, &inputs)
                .expect("instrumented run")
                .telemetry
                .expect("telemetry attached")
        };
        let serial = run(Parallelism::Serial);
        let again = run(Parallelism::Serial);
        prop_assert_eq!(comparable(&serial), comparable(&again), "repeat");
        for workers in [1usize, 2, 4] {
            let par = run(Parallelism::Threads(workers));
            prop_assert_eq!(
                comparable(&serial),
                comparable(&par),
                "{} workers", workers
            );
            let engine = par.engine.as_ref().expect("engine stats");
            let groups: usize = engine.groups_per_worker.iter().sum();
            prop_assert_eq!(groups, engine.groups, "shard occupancy sums to groups");
        }
    }
}

/// The simulator's report carries the structured sections: one profile
/// per IB whose cycle classes sum to the module latency, and engine
/// stats whose shard occupancy covers every group.
#[test]
fn ib_profiles_partition_the_module_latency() {
    let (kernel, inputs) = build_kernel(2, 600);
    let report = Machine::new(SimConfig {
        telemetry: Some(Telemetry::new()),
        ..SimConfig::functional()
    })
    .run(&kernel, &inputs)
    .expect("run");
    let tel = report.telemetry.expect("telemetry");
    assert_eq!(tel.ib_profiles.len(), kernel.ibs.len());
    let latency = kernel.module_latency();
    for profile in &tel.ib_profiles {
        let total = profile.compute_cycles
            + profile.transfer_cycles
            + profile.reduction_cycles
            + profile.stall_cycles;
        assert_eq!(total, latency, "IB {} cycle classes", profile.ib);
    }
    assert!(tel.counters["sim.runs"] >= 1);
    assert!(tel.counters["sim.cycles"] > 0);
    let energy_total: f64 = tel.ib_profiles.iter().map(|p| p.energy_j).sum();
    assert!(energy_total > 0.0, "per-IB energy attribution is live");
}
