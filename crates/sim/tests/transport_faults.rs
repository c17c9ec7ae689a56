//! Transport-reliability integration tests: the H-tree link fault model
//! wired through `Machine::run` — zero-cost when clean, recoverable under
//! `AckRetransmit`, structured under `FailFast`, and bounded by the
//! execution watchdog when recovery livelocks.

use imp_compiler::{compile, ChipCapacity, CompileOptions, CompiledKernel, OptPolicy};
use imp_dfg::{GraphBuilder, NodeId, Shape, Tensor};
use imp_rram::FaultRates;
use imp_sim::{
    FaultConfig, FaultPolicy, LinkFaultRates, Machine, SimConfig, SimError, TransportConfig,
    TransportPolicy, WatchdogConfig,
};
use proptest::prelude::*;
use std::collections::HashMap;

const SEED: u64 = 2026;

/// A cross-tile reduction kernel: sum of squares over `n` elements. With
/// enough instances the groups span many tiles, so the final sums ride
/// the H-tree reduction tree — the transport-faulted path.
fn reduction_kernel(n: usize) -> (CompiledKernel, HashMap<String, Tensor>, NodeId) {
    let mut g = GraphBuilder::new();
    let x = g.placeholder("x", Shape::vector(n)).unwrap();
    let sq = g.square(x).unwrap();
    let s = g.sum(sq, 0).unwrap();
    g.fetch(s);
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
        Tensor::from_fn(Shape::vector(n), |i| ((i % 37) as f64) / 16.0),
    )]
    .into_iter()
    .collect();
    (kernel, inputs, s)
}

fn config_with(transport: TransportConfig) -> SimConfig {
    SimConfig {
        fault_seed: SEED,
        transport,
        ..SimConfig::functional()
    }
}

#[test]
fn clean_transport_is_bit_and_cycle_identical() {
    let (kernel, inputs, s) = reduction_kernel(4000);
    let baseline = Machine::new(config_with(TransportConfig::default()))
        .run(&kernel, &inputs)
        .unwrap();
    for policy in [
        TransportPolicy::Silent,
        TransportPolicy::FailFast,
        TransportPolicy::AckRetransmit {
            max: 8,
            backoff: 16,
        },
        TransportPolicy::Reroute,
    ] {
        let transport = TransportConfig {
            rates: LinkFaultRates::none(),
            policy,
        };
        let report = Machine::new(config_with(transport))
            .run(&kernel, &inputs)
            .unwrap();
        assert_eq!(
            report.outputs[&s], baseline.outputs[&s],
            "{policy}: clean transport must not change outputs"
        );
        assert_eq!(report.cycles, baseline.cycles, "{policy}: cycles");
        assert_eq!(report.noc, baseline.noc, "{policy}: NoC stats");
        assert_eq!(report.transport_overhead_cycles, 0, "{policy}: overhead");
        assert!(report.fault_events.is_empty(), "{policy}: events");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The zero-cost-default regression property: attaching the transport
    /// layer with an all-zero fault population never perturbs outputs,
    /// timing or network statistics, for any seed and input scale.
    #[test]
    fn zero_rate_transport_never_perturbs_runs(seed in 0u64..1000, scale in 1usize..5) {
        let (kernel, inputs, s) = reduction_kernel(600 * scale);
        let mut plain = config_with(TransportConfig::default());
        plain.fault_seed = seed;
        let baseline = Machine::new(plain).run(&kernel, &inputs).unwrap();
        let mut faulted = config_with(TransportConfig {
            rates: LinkFaultRates::none(),
            policy: TransportPolicy::AckRetransmit { max: 8, backoff: 16 },
        });
        faulted.fault_seed = seed;
        let report = Machine::new(faulted).run(&kernel, &inputs).unwrap();
        prop_assert_eq!(&report.outputs[&s], &baseline.outputs[&s]);
        prop_assert_eq!(report.cycles, baseline.cycles);
        prop_assert_eq!(report.noc, baseline.noc);
    }
}

#[test]
fn silent_policy_records_crc_detections_without_recovery() {
    let (kernel, inputs, _) = reduction_kernel(4000);
    let transport = TransportConfig {
        rates: LinkFaultRates::flips(0.2),
        policy: TransportPolicy::Silent,
    };
    let report = Machine::new(config_with(transport))
        .run(&kernel, &inputs)
        .unwrap();
    assert!(
        report.noc.crc_failures > 0,
        "a 20% per-link flip rate must corrupt the reduction"
    );
    assert_eq!(report.noc.retransmissions, 0, "Silent never retransmits");
    assert_eq!(report.transport_overhead_cycles, 0);
    assert!(
        !report.fault_events.is_empty(),
        "detections surface as transport fault events"
    );
}

#[test]
fn ack_retransmit_restores_golden_outputs_at_a_cycle_cost() {
    let (kernel, inputs, s) = reduction_kernel(4000);
    let baseline = Machine::new(config_with(TransportConfig::default()))
        .run(&kernel, &inputs)
        .unwrap();
    let transport = TransportConfig {
        rates: LinkFaultRates::flips(0.2),
        policy: TransportPolicy::AckRetransmit {
            max: 64,
            backoff: 8,
        },
    };
    let report = Machine::new(config_with(transport))
        .run(&kernel, &inputs)
        .unwrap();
    assert_eq!(
        report.outputs[&s], baseline.outputs[&s],
        "retransmission must deliver the exact clean payload"
    );
    assert!(report.noc.retransmissions > 0);
    assert!(report.transport_overhead_cycles > 0);
    // Recovery costs at least the charged overhead; the final successful
    // attempt's delivery also lands later than the clean one, so the
    // reduction tail can add a few more cycles on top.
    assert!(
        report.cycles >= baseline.cycles + report.transport_overhead_cycles,
        "cycles {} must cover baseline {} + overhead {}",
        report.cycles,
        baseline.cycles,
        report.transport_overhead_cycles
    );
    assert!(
        report.fault_events.is_empty(),
        "recovered corruption is not an unhandled fault"
    );
}

#[test]
fn fail_fast_surfaces_a_structured_transport_fault() {
    let (kernel, inputs, _) = reduction_kernel(4000);
    let transport = TransportConfig {
        rates: LinkFaultRates::flips(0.2),
        policy: TransportPolicy::FailFast,
    };
    let err = Machine::new(config_with(transport))
        .run(&kernel, &inputs)
        .unwrap_err();
    match err {
        SimError::Faults(events) => {
            assert_eq!(events.len(), 1);
            assert!(
                matches!(events[0].kind, imp_sim::FaultKind::Transport(_)),
                "event must carry the transport kind: {}",
                events[0]
            );
        }
        other => panic!("expected SimError::Faults, got {other}"),
    }
}

#[test]
fn watchdog_converts_a_retransmit_storm_into_timeout() {
    let (kernel, inputs, _) = reduction_kernel(4000);
    // Half the links dead and an unbounded retransmission budget: without
    // the watchdog this storm would (deterministically) spin for ~2³²
    // attempts' worth of accounting.
    let transport = TransportConfig {
        rates: LinkFaultRates::dead_links(0.5),
        policy: TransportPolicy::AckRetransmit {
            max: u32::MAX,
            backoff: 0,
        },
    };
    let watchdog = WatchdogConfig::new(200_000, u32::MAX);
    let err = Machine::new(SimConfig {
        watchdog,
        ..config_with(transport)
    })
    .run(&kernel, &inputs)
    .unwrap_err();
    match err {
        SimError::Timeout { limit_cycles, .. } => assert_eq!(limit_cycles, 200_000),
        other => panic!("expected SimError::Timeout, got {other}"),
    }
}

#[test]
fn watchdog_attempt_ceiling_stops_an_unproductive_retry_loop() {
    let (kernel, inputs, _) = reduction_kernel(256);
    // Permanent cell faults re-detect identically on every retry: the
    // policy alone would burn all 1,000 attempts before erroring.
    let mut config = config_with(TransportConfig::default());
    config.watchdog = WatchdogConfig::new(u64::MAX, 3);
    config.faults = FaultConfig::new(
        FaultRates {
            stuck_at_max: 2e-4,
            ..FaultRates::none()
        },
        FaultPolicy::Retry {
            max: 1000,
            backoff_cycles: 0,
        },
    );
    let err = Machine::new(config).run(&kernel, &inputs).unwrap_err();
    assert!(
        matches!(err, SimError::Timeout { .. }),
        "expected watchdog timeout, got {err}"
    );
}

#[test]
fn movg_transfers_recover_on_a_multi_tile_chip() {
    // One array per tile: a multi-IB kernel's intra-module moves must
    // cross tiles, exercising the point-to-point (Movg) transport path.
    let capacity = ChipCapacity {
        tiles: 64,
        clusters_per_tile: 1,
        arrays_per_cluster: 1,
    };
    let mut g = GraphBuilder::new();
    let x = g.placeholder("x", Shape::new(vec![12, 16])).unwrap();
    let sq = g.square(x).unwrap();
    let s = g.sum(sq, 0).unwrap();
    g.fetch(s);
    let kernel = compile(
        &g.finish(),
        &CompileOptions {
            policy: OptPolicy::MaxIlp,
            ..Default::default()
        },
    )
    .unwrap();
    assert!(kernel.ibs.len() > 1, "kernel must straddle arrays");
    let inputs: HashMap<String, Tensor> = [(
        "x".to_string(),
        Tensor::from_fn(Shape::new(vec![12, 16]), |i| ((i % 29) as f64) / 8.0),
    )]
    .into_iter()
    .collect();

    let mut plain = config_with(TransportConfig::default());
    plain.capacity = capacity;
    let baseline = Machine::new(plain).run(&kernel, &inputs).unwrap();

    let mut faulted = config_with(TransportConfig {
        rates: LinkFaultRates::flips(0.05),
        policy: TransportPolicy::AckRetransmit {
            max: 64,
            backoff: 4,
        },
    });
    faulted.capacity = capacity;
    let report = Machine::new(faulted).run(&kernel, &inputs).unwrap();
    assert_eq!(
        report.outputs[&s], baseline.outputs[&s],
        "recovered Movg traffic must reproduce the clean outputs"
    );
    assert!(report.noc.crc_failures > 0, "flips must hit Movg messages");
}
