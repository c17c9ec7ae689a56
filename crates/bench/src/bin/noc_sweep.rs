//! NoC transport-reliability study: accuracy and runtime versus injected
//! H-tree link fault rate under each [`TransportPolicy`].
//!
//! A 64-tile chip runs a cross-tile sum-of-squares reduction, so the
//! result rides the in-network adder tree through faulted links. Three
//! demonstrations:
//!
//! 1. **Link flips** (per-traversal bit-flip probability, caught by the
//!    per-message CRC). `Silent` delivers the corruption; `AckRetransmit`
//!    and `Reroute` recover the exact golden payload at a monotonically
//!    growing cycle cost; `FailFast` converts the first CRC mismatch into
//!    a structured transport `FaultEvent`.
//! 2. **Dead links**. `Reroute` detours through sibling subtrees and
//!    keeps golden outputs; `Silent` drops the reduction entirely.
//! 3. **Watchdog**: a dead-link retransmit storm under an unbounded
//!    `AckRetransmit` budget is cut off as a structured
//!    `SimError::Timeout` instead of spinning.
//!
//! The assertions are the acceptance criteria: recovery policies preserve
//! golden outputs up to the sweep's maximum rate with monotone overhead;
//! fail-fast never returns corrupted data; the watchdog always fires.
//!
//! Pass `--smoke` for the CI configuration: a smaller input and fewer
//! sweep points, exercising every policy path in a few seconds.
//!
//! [`TransportPolicy`]: imp_sim::TransportPolicy

use imp_bench::{emit, emit_json, header};
use imp_compiler::{compile, CompileOptions, CompiledKernel, OptPolicy};
use imp_dfg::{GraphBuilder, NodeId, Shape, Tensor};
use imp_sim::{
    LinkFaultRates, Machine, RunReport, SimConfig, SimError, TransportConfig, TransportPolicy,
    WatchdogConfig,
};
use std::collections::HashMap;

const SEED: u64 = 2026;

fn config(rates: LinkFaultRates, policy: TransportPolicy) -> SimConfig {
    SimConfig {
        fault_seed: SEED,
        transport: TransportConfig { rates, policy },
        ..SimConfig::functional()
    }
}

fn build(n: usize) -> (CompiledKernel, HashMap<String, Tensor>, NodeId) {
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
    let smoke = std::env::args().any(|a| a == "--smoke");
    header(if smoke {
        "NoC transport sweep (smoke) — accuracy & cycles vs link fault rate"
    } else {
        "NoC transport sweep — accuracy & cycles vs link fault rate per policy"
    });

    // Instance count sets how many tiles the reduction spans (64 arrays
    // per tile, 8 lanes per array): 4,000 instances → 500 arrays → 8
    // tiles, enough reduction links for every sweep point to see faults.
    let n = 4000;
    let (kernel, inputs, s) = build(n);

    // Golden: the transport layer disabled entirely.
    let golden_report = Machine::new(SimConfig {
        fault_seed: SEED,
        ..SimConfig::functional()
    })
    .run(&kernel, &inputs)
    .expect("golden run");
    let golden = golden_report.outputs[&s].clone();
    println!(
        "{n} instances over {} tiles, {} golden cycles\n",
        SimConfig::functional().capacity.tiles,
        golden_report.cycles
    );

    // Part 1: link-flip sweep.
    let flip_rates: &[f64] = if smoke {
        &[0.0, 0.1, 0.2]
    } else {
        &[0.0, 0.01, 0.05, 0.1, 0.2]
    };
    println!(
        "{:<10} {:>12} {:>12} {:>10} {:>12} {:>10}",
        "flip rate", "silent err", "ack err", "ack cyc", "reroute err", "rr cyc"
    );
    let mut ack_cycles = Vec::new();
    let mut reroute_cycles = Vec::new();
    for &rate in flip_rates {
        let rates = LinkFaultRates::flips(rate);

        let silent = Machine::new(config(rates, TransportPolicy::Silent))
            .run(&kernel, &inputs)
            .expect("silent runs always complete");
        let silent_err = mean_err(&silent, &golden, s);
        emit("noc_sweep", "silent_mean_err", rate, silent_err);
        emit_json("noc_sweep", "silent_flip", rate, &silent, silent_err);

        let ack = Machine::new(config(
            rates,
            TransportPolicy::AckRetransmit {
                max: 64,
                backoff: 8,
            },
        ))
        .run(&kernel, &inputs)
        .expect("retransmission must recover every flip at these rates");
        let ack_err = mean_err(&ack, &golden, s);
        assert_eq!(
            ack.outputs[&s], golden,
            "AckRetransmit must preserve golden outputs at flip rate {rate}"
        );
        emit("noc_sweep", "ack_cycles", rate, ack.cycles as f64);
        emit_json("noc_sweep", "ack_flip", rate, &ack, ack_err);
        ack_cycles.push(ack.cycles);

        let reroute = Machine::new(config(rates, TransportPolicy::Reroute))
            .run(&kernel, &inputs)
            .expect("reroute retransmits flips with its internal budget");
        let reroute_err = mean_err(&reroute, &golden, s);
        assert_eq!(
            reroute.outputs[&s], golden,
            "Reroute must preserve golden outputs at flip rate {rate}"
        );
        emit_json("noc_sweep", "reroute_flip", rate, &reroute, reroute_err);
        reroute_cycles.push(reroute.cycles);

        println!(
            "{rate:<10} {silent_err:>12.3e} {ack_err:>12.3e} {:>10} {reroute_err:>12.3e} {:>10}",
            ack.cycles, reroute.cycles
        );
    }
    assert!(
        ack_cycles.windows(2).all(|w| w[0] <= w[1]),
        "AckRetransmit cycles must rise monotonically with flip rate: {ack_cycles:?}"
    );
    assert!(
        reroute_cycles.windows(2).all(|w| w[0] <= w[1]),
        "Reroute cycles must rise monotonically with flip rate: {reroute_cycles:?}"
    );
    assert!(
        ack_cycles[ack_cycles.len() - 1] > ack_cycles[0],
        "the top flip rate must cost retransmission cycles"
    );

    // FailFast: the first CRC mismatch is a structured event, never
    // silently corrupted data.
    let max_flip = *flip_rates.last().unwrap();
    match Machine::new(config(
        LinkFaultRates::flips(max_flip),
        TransportPolicy::FailFast,
    ))
    .run(&kernel, &inputs)
    {
        Err(SimError::Faults(events)) => {
            assert!(events
                .iter()
                .all(|e| matches!(e.kind, imp_sim::FaultKind::Transport(_))));
            println!(
                "\nfailfast @ flip rate {max_flip}: structured abort, first event: {}",
                events[0]
            );
        }
        Ok(_) => panic!("FailFast must abort at flip rate {max_flip}"),
        Err(other) => panic!("FailFast must surface SimError::Faults, got {other}"),
    }

    // Part 2: dead-link sweep.
    let dead_rates: &[f64] = if smoke {
        &[0.0, 0.05]
    } else {
        &[0.0, 0.02, 0.05]
    };
    println!(
        "\n{:<10} {:>12} {:>10} {:>10} {:>14}",
        "dead rate", "reroute err", "rr cyc", "detours", "silent drops"
    );
    let mut detour_counts = Vec::new();
    for &rate in dead_rates {
        let rates = LinkFaultRates::dead_links(rate);

        let reroute = Machine::new(config(rates, TransportPolicy::Reroute))
            .run(&kernel, &inputs)
            .expect("sibling detours must survive these dead-link rates");
        let reroute_err = mean_err(&reroute, &golden, s);
        assert_eq!(
            reroute.outputs[&s], golden,
            "Reroute must preserve golden outputs at dead-link rate {rate}"
        );
        emit_json("noc_sweep", "reroute_dead", rate, &reroute, reroute_err);
        detour_counts.push(reroute.noc.rerouted_messages);

        let silent = Machine::new(config(rates, TransportPolicy::Silent))
            .run(&kernel, &inputs)
            .expect("silent runs always complete");
        let silent_err = mean_err(&silent, &golden, s);
        emit_json("noc_sweep", "silent_dead", rate, &silent, silent_err);

        println!(
            "{rate:<10} {reroute_err:>12.3e} {:>10} {:>10} {:>14}",
            reroute.cycles, reroute.noc.rerouted_messages, silent.noc.dropped_messages
        );
    }
    assert!(
        detour_counts.windows(2).all(|w| w[0] <= w[1]),
        "detour counts must grow with the dead-link rate: {detour_counts:?}"
    );
    assert!(
        *detour_counts.last().unwrap() > 0,
        "the top dead-link rate must force detours"
    );

    // Part 3: watchdog. Unbounded retransmission over a heavily dead
    // fabric is a livelock; the cycle budget converts it into a timeout.
    let storm = SimConfig {
        watchdog: WatchdogConfig::new(200_000, u32::MAX),
        ..config(
            LinkFaultRates::dead_links(0.5),
            TransportPolicy::AckRetransmit {
                max: u32::MAX,
                backoff: 0,
            },
        )
    };
    match Machine::new(storm).run(&kernel, &inputs) {
        Err(SimError::Timeout {
            limit_cycles,
            spent_cycles,
        }) => println!(
            "\nwatchdog: retransmit storm stopped at {spent_cycles} of {limit_cycles} budget cycles"
        ),
        Ok(_) => panic!("a half-dead fabric with unbounded retransmit must not complete"),
        Err(other) => panic!("watchdog must fire SimError::Timeout, got {other}"),
    }

    println!("\nall graceful-degradation assertions passed");
}
