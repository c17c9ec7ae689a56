//! Engine-determinism properties: `Machine::run` under the parallel
//! group engine returns a [`RunReport`] that is bit- and cycle-identical
//! to serial execution for every worker count, across fault-free,
//! fault-injected, and transport-faulted configurations.
//!
//! This is the acceptance gate for [`Parallelism`]: sharding instance
//! groups over host threads may only change wall-clock time, never a
//! single field of the report.

use imp_compiler::{compile, CompileOptions, CompiledKernel, OptPolicy};
use imp_dfg::{GraphBuilder, Shape, Tensor};
use imp_rram::{FaultRates, RramError};
use imp_sim::{
    FaultConfig, FaultPolicy, FaultSite, LinkFaultRates, Machine, Parallelism, RunReport,
    SimConfig, SimError, TransportConfig, TransportPolicy,
};
use proptest::prelude::*;
use std::collections::HashMap;

/// One of three kernel shapes: an elementwise chain (per-instance
/// outputs only), a cross-tile reduction (rides the H-tree adder tree),
/// or both output kinds at once.
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

/// Field-by-field equality over the whole report. Floats compare by bit
/// pattern: "close" is not the claim, *identical* is.
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

/// Runs the same kernel under `Serial` and `Threads(1|2|4)`, demands
/// identical reports and returns the serial one.
fn check_all_parallelisms(
    config: &SimConfig,
    kernel: &CompiledKernel,
    inputs: &HashMap<String, Tensor>,
) -> RunReport {
    let mut serial_config = config.clone();
    serial_config.parallelism = Parallelism::Serial;
    let serial = Machine::new(serial_config)
        .run(kernel, inputs)
        .expect("serial run");
    for workers in [1usize, 2, 4] {
        let mut par_config = config.clone();
        par_config.parallelism = Parallelism::Threads(workers);
        let par = Machine::new(par_config)
            .run(kernel, inputs)
            .expect("parallel run");
        assert_identical(&serial, &par, &format!("{workers} workers"));
    }
    serial
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random kernel shape, scale, and seed; fault-free configuration
    /// (noise and fault models off). Serial and parallel reports must
    /// match bit for bit.
    #[test]
    fn fault_free_runs_identical_across_worker_counts(
        kind in 0u8..3,
        scale in 1usize..5,
        seed in 0u64..1000,
    ) {
        let (kernel, inputs) = build_kernel(kind, 200 * scale);
        let config = SimConfig {
            fault_seed: seed,
            ..SimConfig::functional()
        };
        check_all_parallelisms(&config, &kernel, &inputs);
    }

    /// Random kernels with cell faults, ADC transients, and an ADC
    /// offset population injected under the Silent policy (corrupted
    /// outputs are *kept*, so every corrupted bit must corrupt
    /// identically whatever the worker count).
    #[test]
    fn fault_injected_runs_identical_across_worker_counts(
        kind in 0u8..3,
        scale in 1usize..4,
        seed in 0u64..1000,
    ) {
        let (kernel, inputs) = build_kernel(kind, 200 * scale);
        let rates = FaultRates {
            transient_adc: 1e-4,
            adc_offset: 0.05,
            ..FaultRates::cells(1e-4)
        };
        let config = SimConfig {
            fault_seed: seed,
            faults: FaultConfig::new(rates, FaultPolicy::Silent),
            ..SimConfig::functional()
        };
        check_all_parallelisms(&config, &kernel, &inputs);
    }

    /// Random kernels over a flip-faulted H-tree: CRC-detected link
    /// corruption recovered by retransmission, plus silent corruption,
    /// must replay identically for every worker count.
    #[test]
    fn transport_faulted_runs_identical_across_worker_counts(
        kind in 0u8..3,
        scale in 1usize..4,
        seed in 0u64..1000,
        silent in proptest::prelude::any::<bool>(),
    ) {
        let (kernel, inputs) = build_kernel(kind, 200 * scale);
        let policy = if silent {
            TransportPolicy::Silent
        } else {
            TransportPolicy::AckRetransmit { max: 64, backoff: 8 }
        };
        let config = SimConfig {
            fault_seed: seed,
            transport: TransportConfig {
                rates: LinkFaultRates::flips(0.05),
                policy,
            },
            ..SimConfig::functional()
        };
        check_all_parallelisms(&config, &kernel, &inputs);
    }
}

/// The recovery loop too: a transient-glitch population under `Retry`
/// (multiple attempts, per-attempt RNG re-arming, backoff accounting)
/// must converge to the same report on every worker count.
#[test]
fn retry_recovery_identical_across_worker_counts() {
    let (kernel, inputs) = build_kernel(2, 600);
    let rates = FaultRates {
        transient_adc: 2e-5,
        ..FaultRates::none()
    };
    let config = SimConfig {
        fault_seed: 7,
        faults: FaultConfig::new(
            rates,
            FaultPolicy::Retry {
                max: 50,
                backoff_cycles: 8,
            },
        ),
        ..SimConfig::functional()
    };
    check_all_parallelisms(&config, &kernel, &inputs);
}

/// Lane batches of a multi-IB kernel, whose `movg`s run over each
/// worker's pooled network views: kmeans compiled MaxILP at 299 instances
/// (38 groups: full and partial batches, and a three-lane last group)
/// runs clean, over dead links that drop `movg`s under Silent, and with
/// stuck cells under Remap, identically on every worker count.
#[test]
fn multi_ib_lane_batches_identical_across_worker_counts() {
    const N: usize = 299;
    let w = imp_workloads::workload("kmeans").unwrap();
    let kernel = w.compile(N, OptPolicy::MaxIlp).unwrap();
    assert!(kernel.ibs.len() > 1, "MaxILP splits kmeans");
    let inputs = w.inputs(N, 1);
    let base = SimConfig {
        fault_seed: 11,
        ..SimConfig::functional()
    };
    let dead_links = TransportConfig {
        rates: LinkFaultRates::dead_links(0.2),
        policy: TransportPolicy::Silent,
    };
    let stuck = FaultConfig::new(FaultRates::cells(4e-6), FaultPolicy::Remap);
    let configs = [
        base.clone(),
        SimConfig {
            transport: dead_links,
            ..base.clone()
        },
        SimConfig {
            faults: stuck,
            ..base
        },
    ];
    let [clean, dropping, remapped] =
        configs.map(|config| check_all_parallelisms(&config, &kernel, &inputs));
    assert!(clean.noc.messages > 0, "the groups send movgs");
    assert!(dropping.noc.dropped_messages > 0, "dead links drop movgs");
    assert!(remapped.retries > 0, "a stuck cell is remapped around");
}

/// A clean run executed in lane batches equals the same run executed one
/// group at a time: every corpus kernel, compiled MaxDLP and MaxILP at
/// 299 instances (38 groups, the last holding three lanes; hotspot's
/// stencil grid holds 289, 37 groups), with telemetry installed.
/// `Serial` runs its one shard as batches of 16, 16 and 6 (or 5) groups;
/// `Threads(16)` cuts the groups into shards of at most
/// three, below the four-group batch crossover, so each of its groups
/// runs on its own arrays. The reports and the per-IB profile energies
/// must match bit for bit.
#[test]
fn clean_batches_match_per_group_runs() {
    const N: usize = 299;
    let run = |kernel: &CompiledKernel, inputs: &HashMap<String, Tensor>, parallelism| {
        let config = SimConfig {
            parallelism,
            telemetry: Some(imp_sim::Telemetry::new()),
            ..SimConfig::functional()
        };
        let report = Machine::new(config).run(kernel, inputs).expect("clean run");
        let telemetry = report.telemetry.clone().expect("telemetry installed");
        (report, telemetry)
    };
    for w in imp_workloads::all_workloads() {
        for policy in [OptPolicy::MaxDlp, OptPolicy::MaxIlp] {
            let tag = format!("{} {policy:?}", w.name);
            let kernel = w.compile(N, policy).unwrap();
            let inputs = w.inputs(N, 1);
            let (batched, batched_tel) = run(&kernel, &inputs, Parallelism::Serial);
            let (per_group, per_group_tel) = run(&kernel, &inputs, Parallelism::Threads(16));
            let shards = |tel: &imp_sim::TelemetryReport| {
                tel.engine
                    .as_ref()
                    .expect("engine stats")
                    .groups_per_worker
                    .clone()
            };
            let groups = batched.instances.div_ceil(8);
            assert_eq!(shards(&batched_tel), [groups], "{tag}: one serial shard");
            let per_group_shards = shards(&per_group_tel);
            assert!(
                per_group_shards.iter().all(|&groups| groups < 4),
                "{tag}: every shard below the crossover: {per_group_shards:?}"
            );
            assert_identical(&batched, &per_group, &tag);
            let energies = |tel: &imp_sim::TelemetryReport| -> Vec<u64> {
                tel.ib_profiles
                    .iter()
                    .map(|p| p.energy_j.to_bits())
                    .collect()
            };
            assert_eq!(
                energies(&batched_tel),
                energies(&per_group_tel),
                "{tag}: per-IB energies"
            );
        }
    }
}

/// `Auto` resolves to some worker count; whatever it is, the report must
/// equal the serial one (the user-facing guarantee of the default).
#[test]
fn auto_parallelism_matches_serial() {
    let (kernel, inputs) = build_kernel(1, 2000);
    let config = SimConfig {
        fault_seed: 11,
        parallelism: Parallelism::Auto,
        ..SimConfig::functional()
    };
    let auto = Machine::new(config.clone()).run(&kernel, &inputs).unwrap();
    let serial = Machine::new(SimConfig {
        parallelism: Parallelism::Serial,
        ..config
    })
    .run(&kernel, &inputs)
    .unwrap();
    assert_identical(&serial, &auto, "auto");
}

/// A strict-ADC over-range in the middle of a lane batch, in group 5 of
/// 38 and again in group 25, is the error of the lowest group, with its
/// site, however the groups are batched or sharded. Under a 3-bit ADC
/// (limit 7) a square over-ranges exactly when its operand holds a digit
/// 3 (3·3 = 9); every other instance's largest digit is at most 2.
#[test]
fn a_mid_batch_overrange_is_the_lowest_groups_error() {
    const N: usize = 299;
    let mut g = GraphBuilder::new();
    let x = g.placeholder("x", Shape::vector(N)).unwrap();
    let sq = g.square(x).unwrap();
    g.fetch(sq);
    let kernel = compile(&g.finish(), &CompileOptions::default()).unwrap();
    let feed = |hot: &[usize]| -> HashMap<String, Tensor> {
        let values = Tensor::from_fn(Shape::vector(N), |i| {
            if hot.contains(&i) {
                0.75 // Q16.16 0xC000: a digit 3.
            } else {
                [0.5, 1.0, 0.25][i % 3] // Q16.16 digits of at most 2.
            }
        });
        [("x".to_string(), values)].into_iter().collect()
    };
    let run = |parallelism, inputs: &HashMap<String, Tensor>| {
        let mut config = SimConfig::functional();
        config.analog.adc_bits = 3;
        config.analog.strict_adc = true;
        config.parallelism = parallelism;
        Machine::new(config).run(&kernel, inputs)
    };
    for parallelism in [Parallelism::Serial, Parallelism::Threads(2)] {
        assert!(run(parallelism, &feed(&[])).is_ok(), "{parallelism:?}");
        match run(parallelism, &feed(&[5 * 8 + 2, 25 * 8 + 6])) {
            Err(SimError::Array {
                site: Some(site),
                source: RramError::AdcOverrange { partial_sum, limit },
            }) => {
                let expect = FaultSite {
                    round: 0,
                    group: 5,
                    ib: 0,
                    physical_slot: 5,
                };
                assert_eq!(site, expect, "{parallelism:?}");
                assert_eq!((partial_sum, limit), (9, 7), "{parallelism:?}");
            }
            other => panic!("{parallelism:?}: expected group 5's over-range, got {other:?}"),
        }
    }
}
