//! One value for "off": a fault, transport or watchdog configuration that
//! injects nothing must be the fault-free chip of `SimConfig::functional()`.
//!
//! For every corpus kernel at 64 instances, under MaxDLP and MaxILP (whose
//! cross-IB `movg`s ride the H-tree), each `FaultPolicy` over
//! `FaultRates::none()` and over a cell rate so low that every generated
//! fault map is clean (a clean map is no map), each `TransportPolicy` over
//! `LinkFaultRates::none()` and an explicit `WatchdogConfig::default()`
//! must produce a `RunReport` equal field for field, and bit for bit, to
//! the default configuration's. Host-side telemetry is excluded.

use imp_compiler::OptPolicy;
use imp_dfg::Tensor;
use imp_rram::FaultRates;
use imp_sim::{
    FaultConfig, FaultPolicy, LinkFaultRates, Machine, RunReport, SimConfig, TransportConfig,
    TransportPolicy, WatchdogConfig,
};
use std::collections::HashMap;
use std::fmt::Debug;
use std::hash::Hash;

const INSTANCES: usize = 64;

/// A per-cell fault rate at which every generated map is clean: the
/// expected number of faulty cells over all 4,096 arrays' 16,384 cells
/// is below 1e-4.
const CLEAN_MAP_RATE: f64 = 1e-12;

/// Every configuration that spells "off" differently from the default.
fn off_configs() -> Vec<(String, SimConfig)> {
    let mut configs = Vec::new();
    for policy in [
        FaultPolicy::Silent,
        FaultPolicy::FailFast,
        FaultPolicy::Retry {
            max: 3,
            backoff_cycles: 16,
        },
        FaultPolicy::Remap,
    ] {
        for (rates, label) in [
            (FaultRates::none(), "none"),
            (FaultRates::cells(CLEAN_MAP_RATE), "clean maps"),
        ] {
            let config = SimConfig {
                faults: FaultConfig::new(rates, policy),
                ..SimConfig::functional()
            };
            configs.push((format!("faults {label} {policy:?}"), config));
        }
    }
    for policy in [
        TransportPolicy::Silent,
        TransportPolicy::FailFast,
        TransportPolicy::AckRetransmit {
            max: 8,
            backoff: 16,
        },
        TransportPolicy::Reroute,
    ] {
        let config = SimConfig {
            transport: TransportConfig {
                rates: LinkFaultRates::none(),
                policy,
            },
            ..SimConfig::functional()
        };
        configs.push((format!("transport {policy}"), config));
    }
    let watchdog = SimConfig {
        watchdog: WatchdogConfig::default(),
        ..SimConfig::functional()
    };
    configs.push(("watchdog default".to_string(), watchdog));
    configs
}

/// Asserts both maps hold the same keys with bit-identical tensors.
fn assert_same_tensors<K: Eq + Hash + Debug>(
    got: &HashMap<K, Tensor>,
    want: &HashMap<K, Tensor>,
    what: &str,
) {
    assert_eq!(got.len(), want.len(), "{what}: tensor count");
    for (key, tensor) in want {
        let other = &got[key];
        assert_eq!(other.shape(), tensor.shape(), "{what}: shape of {key:?}");
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(other), bits(tensor), "{what}: data of {key:?}");
    }
}

/// Asserts `got` equals `want` in every field but the telemetry snapshot.
/// The exhaustive destructuring makes a new `RunReport` field a compile
/// error here until it is compared.
fn assert_same_report(got: &RunReport, want: &RunReport, what: &str) {
    let RunReport {
        outputs,
        variable_updates,
        instances,
        rounds,
        cycles,
        load_cycles,
        seconds,
        energy,
        avg_power_w,
        avg_adc_bits,
        noc,
        writes_per_exec,
        lifetime_years,
        instructions_executed,
        fault_events,
        retries,
        retired_arrays,
        fault_overhead_cycles,
        transport_overhead_cycles,
        telemetry: _,
    } = want;
    assert_same_tensors(&got.outputs, outputs, &format!("{what}: outputs"));
    assert_same_tensors(
        &got.variable_updates,
        variable_updates,
        &format!("{what}: variable updates"),
    );
    assert_eq!(got.instances, *instances, "{what}: instances");
    assert_eq!(got.rounds, *rounds, "{what}: rounds");
    assert_eq!(got.cycles, *cycles, "{what}: cycles");
    assert_eq!(got.load_cycles, *load_cycles, "{what}: load cycles");
    assert_eq!(got.noc, *noc, "{what}: NoC statistics");
    assert_eq!(got.writes_per_exec, *writes_per_exec, "{what}: wear");
    assert_eq!(
        got.instructions_executed, *instructions_executed,
        "{what}: instructions"
    );
    assert_eq!(got.fault_events, *fault_events, "{what}: fault events");
    assert_eq!(got.retries, *retries, "{what}: retries");
    assert_eq!(
        got.retired_arrays, *retired_arrays,
        "{what}: retired arrays"
    );
    assert_eq!(
        got.fault_overhead_cycles, *fault_overhead_cycles,
        "{what}: fault overhead"
    );
    assert_eq!(
        got.transport_overhead_cycles, *transport_overhead_cycles,
        "{what}: transport overhead"
    );
    // `{:?}` of an f64 round-trips exactly, so these compare bit patterns.
    assert_eq!(
        format!("{:?}", got.energy),
        format!("{energy:?}"),
        "{what}: energy"
    );
    for (name, a, b) in [
        ("seconds", got.seconds, *seconds),
        ("average power", got.avg_power_w, *avg_power_w),
        ("average ADC bits", got.avg_adc_bits, *avg_adc_bits),
        ("lifetime", got.lifetime_years, *lifetime_years),
    ] {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: {name}");
    }
}

#[test]
fn every_off_value_runs_the_default_chip() {
    let configs = off_configs();
    for workload in imp_workloads::all_workloads() {
        let inputs = workload.inputs(INSTANCES, 1);
        for policy in [OptPolicy::MaxDlp, OptPolicy::MaxIlp] {
            let kernel = workload.compile(INSTANCES, policy).expect("compiles");
            let want = Machine::new(SimConfig::functional())
                .run(&kernel, &inputs)
                .expect("the default chip runs the corpus");
            for (name, config) in &configs {
                let what = format!("{} {policy:?} {name}", workload.name);
                let got = Machine::new(config.clone())
                    .run(&kernel, &inputs)
                    .unwrap_or_else(|err| panic!("{what}: {err}"));
                assert_same_report(&got, &want, &what);
            }
        }
    }
}
