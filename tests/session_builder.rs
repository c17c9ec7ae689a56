//! Gates for the fluent session API, the only way to build a session:
//! builder defaults must be *exactly* `CompileOptions::default()` and
//! `SimConfig::functional()` apart from the one chip both target, the
//! knobs must land where they claim, and name-based output lookup must
//! resolve (and refuse) correctly.

use imp::prelude::*;
use imp::{ChipCapacity, CompileError, FaultRates, LinkFaultRates, RunReport, WatchdogConfig};

fn square_graph(n: usize) -> (imp::Graph, NodeId) {
    let mut g = GraphBuilder::new();
    let x = g.placeholder("x", Shape::vector(n)).unwrap();
    let y = g.square(x).unwrap();
    g.fetch_as("y", y);
    (g.finish(), y)
}

/// `Session::builder(g)` starts from `CompileOptions::default()` and
/// `SimConfig::functional()`: every compile option and every simulator
/// field at its historical default, except that the compiler targets the
/// simulated chip rather than the paper's.
#[test]
fn builder_defaults_match_default_configs_field_by_field() {
    let (graph, _) = square_graph(16);
    let builder = Session::builder(graph);

    let opts = builder.peek_compile_options();
    let defaults = CompileOptions::default();
    assert_eq!(opts.format, defaults.format);
    assert_eq!(opts.policy, defaults.policy);
    assert_eq!(opts.expected_instances, defaults.expected_instances);
    assert_eq!(opts.div_iterations, defaults.div_iterations);
    assert_eq!(opts.sqrt_iterations, defaults.sqrt_iterations);
    assert_eq!(opts.node_merging, defaults.node_merging);
    assert_eq!(opts.pipelining, defaults.pipelining);
    assert_eq!(opts.ranges, defaults.ranges);
    assert_eq!(opts.capacity, SimConfig::functional().capacity);
    assert_eq!(opts.analog, defaults.analog);
    assert!(opts.telemetry.is_none());

    let config = builder.peek_sim_config();
    let functional = SimConfig::functional();
    assert_eq!(config.capacity, functional.capacity);
    assert_eq!(config.analog, functional.analog);
    assert_eq!(config.fault_seed, functional.fault_seed);
    assert_eq!(config.faults, functional.faults);
    assert_eq!(config.transport, functional.transport);
    assert_eq!(config.watchdog, functional.watchdog);
    assert_eq!(config.parallelism, functional.parallelism);
    assert!(config.telemetry.is_none());
}

/// Every builder knob must land in the session's actual configuration.
#[test]
fn builder_round_trips_every_knob_into_the_session() {
    let (graph, _) = square_graph(16);
    let session = Session::builder(graph)
        .parallelism(Parallelism::Threads(3))
        .faults(FaultConfig::new(
            FaultRates::none(),
            FaultPolicy::Retry {
                max: 5,
                backoff_cycles: 16,
            },
        ))
        .fault_seed(42)
        .transport(TransportConfig {
            rates: LinkFaultRates::flips(0.0),
            policy: TransportPolicy::AckRetransmit { max: 8, backoff: 4 },
        })
        .watchdog(WatchdogConfig {
            max_cycles: 1 << 30,
            max_attempts: 9,
        })
        .shadow(ShadowConfig::with_tolerance_ulps(512.0))
        .telemetry(Telemetry::new())
        .build()
        .unwrap();

    let config = session.sim_config();
    assert_eq!(config.parallelism, Parallelism::Threads(3));
    assert_eq!(
        config.faults.policy,
        FaultPolicy::Retry {
            max: 5,
            backoff_cycles: 16
        }
    );
    assert_eq!(config.fault_seed, 42);
    assert!(matches!(
        config.transport.policy,
        TransportPolicy::AckRetransmit { max: 8, backoff: 4 }
    ));
    assert_eq!(config.watchdog.max_attempts, 9);
    assert!(config.telemetry.is_some());
    assert_eq!(session.shadow_config().unwrap().tolerance_ulps, 512.0);
}

/// A builder-constructed session with a shared telemetry handle collects
/// compile-phase timers *and* run counters into one report.
#[test]
fn builder_telemetry_unifies_compile_and_run_instrumentation() {
    let telemetry = Telemetry::new();
    let (graph, _) = square_graph(32);
    let mut session = Session::builder(graph)
        .parallelism(Parallelism::Serial)
        .telemetry(telemetry.clone())
        .build()
        .unwrap();
    let out = session
        .run(&[("x", Tensor::from_fn(Shape::vector(32), |i| i as f64 / 8.0))])
        .unwrap();
    let report = out.report().telemetry.as_ref().expect("telemetry snapshot");
    assert!(report.timers.contains_key("compile.total"));
    assert!(report.counters.contains_key("compile.modules_formed"));
    assert_eq!(report.counters["sim.runs"], 1);
    assert!(!report.ib_profiles.is_empty());
}

/// The builder verifies the compiled kernel at its configured level:
/// `Warn` (the default) records findings in telemetry and proceeds,
/// `Deny` must accept every kernel the compiler produces from a valid
/// graph, and `Off` skips the verifier entirely.
#[test]
fn builder_verification_levels() {
    // Default is Warn, and a telemetry-instrumented build records the
    // verifier's run.
    let telemetry = Telemetry::new();
    let (graph, _) = square_graph(16);
    let builder = Session::builder(graph).telemetry(telemetry.clone());
    assert_eq!(builder.peek_sim_config().verify, VerifyLevel::Warn);
    let _session = builder.build().unwrap();
    let report = telemetry.snapshot();
    assert_eq!(report.counters["verify.runs"], 1);
    assert!(!report.counters.contains_key("verify.errors"));

    // Deny accepts compiler-produced kernels.
    let (graph, _) = square_graph(16);
    Session::builder(graph)
        .verify(VerifyLevel::Deny)
        .build()
        .expect("compiled kernels pass Deny-level verification");

    // Off leaves no telemetry trace.
    let telemetry = Telemetry::new();
    let (graph, _) = square_graph(16);
    Session::builder(graph)
        .verify(VerifyLevel::Off)
        .telemetry(telemetry.clone())
        .build()
        .unwrap();
    assert!(!telemetry.snapshot().counters.contains_key("verify.runs"));
}

/// `by_name` resolves explicit `fetch_as` names and implicit
/// placeholder/variable names; unknown and ambiguous names are typed
/// errors.
#[test]
fn outputs_resolve_by_name() {
    let mut g = GraphBuilder::new();
    let x = g.placeholder("x", Shape::vector(8)).unwrap();
    let y = g.square(x).unwrap();
    g.fetch_as("y", y);
    g.fetch(x); // implicit name: the placeholder's own
    let mut session = Session::builder(g.finish()).build().unwrap();
    let out = session
        .run(&[("x", Tensor::from_fn(Shape::vector(8), |i| i as f64 / 4.0))])
        .unwrap();

    assert_eq!(out.by_name("y").unwrap(), out.output(y).unwrap());
    assert_eq!(out.by_name("x").unwrap(), out.output(x).unwrap());
    assert!(matches!(
        out.by_name("nope"),
        Err(imp::Error::UnknownOutput(name)) if name == "nope"
    ));
}

/// Two outputs answering to the same name must refuse the lookup with
/// the full candidate list rather than silently picking one.
#[test]
fn duplicate_output_names_are_ambiguous() {
    let mut g = GraphBuilder::new();
    let x = g.placeholder("x", Shape::vector(8)).unwrap();
    let y = g.square(x).unwrap();
    g.fetch(x); // answers to "x" implicitly
    g.fetch_as("x", y); // answers to "x" explicitly
    let mut session = Session::builder(g.finish()).build().unwrap();
    let out = session
        .run(&[("x", Tensor::from_fn(Shape::vector(8), |i| i as f64 / 4.0))])
        .unwrap();
    match out.by_name("x") {
        Err(imp::Error::AmbiguousOutput { name, nodes }) => {
            assert_eq!(name, "x");
            assert_eq!(nodes.len(), 2);
            assert!(nodes.contains(&x) && nodes.contains(&y));
        }
        other => panic!("expected AmbiguousOutput, got {other:?}"),
    }
}

/// `Error::ShadowDivergence` participates in the standard error chain:
/// `source()` yields the `ShadowReport` (previously `None`).
#[test]
fn shadow_divergence_source_is_the_report() {
    use std::error::Error as _;
    let (graph, _) = square_graph(8);
    let mut session = Session::builder(graph)
        .shadow(ShadowConfig::with_tolerance_ulps(-1.0)) // every rounding error "diverges"
        .build()
        .unwrap();
    let err = session
        .run(&[("x", Tensor::from_fn(Shape::vector(8), |i| i as f64 / 4.0))])
        .unwrap_err();
    let source = err.source().expect("divergence carries a source");
    let report = source
        .downcast_ref::<imp::ShadowReport>()
        .expect("source is the ShadowReport");
    assert!(report.diverged());
}

/// A serial builder for a corpus workload at `n` instances, with its
/// declared ranges, and seeded feeds for it.
fn corpus_session(name: &str, n: usize) -> (SessionBuilder, Vec<(String, Tensor)>) {
    let w = imp::workloads::workload(name).unwrap();
    let (graph, _, ranges) = w.build(n);
    let builder = ranges.iter().fold(
        Session::builder(graph)
            .expected_instances(n)
            .parallelism(Parallelism::Serial),
        |b, (name, &interval)| b.range(name, interval),
    );
    (builder, w.inputs(n, 11).into_iter().collect())
}

/// Builds and runs the session; returns its kernel's IB count and report.
fn build_and_run(builder: SessionBuilder, feeds: &[(String, Tensor)]) -> (usize, RunReport) {
    let mut session = builder.build().unwrap();
    let ibs = session.kernel().ibs.len();
    let feeds: Vec<(&str, Tensor)> = feeds.iter().map(|(n, t)| (n.as_str(), t.clone())).collect();
    let report = session.run(&feeds).unwrap().report().clone();
    (ibs, report)
}

/// A default builder compiles for the chip it simulates: MaxArrayUtil
/// sizes canneal's IB count so 2,048 instances fit the functional chip in
/// one round (compiled for the paper chip, it took three).
#[test]
fn default_builder_compiles_for_the_chip_it_simulates() {
    let (builder, feeds) = corpus_session("canneal", 2048);
    assert_eq!(
        builder.peek_compile_options().policy,
        OptPolicy::MaxArrayUtil
    );
    let (ibs, report) = build_and_run(builder, &feeds);
    assert_eq!(report.rounds, 1, "{ibs} IBs");
}

/// `.adaptive()` picks, among the three policies' kernels, one with the
/// fewest simulated cycles on the session's chip. On an 8-tile chip,
/// 2,400 streamcluster_gpu instances fit one MaxDLP round, while the
/// 27-IB MaxILP kernel packs 18 whole groups per round and needs 17
/// rounds; a model counting 4,096 slots / 27 = 151 instances per round
/// predicted 16 and picked MaxILP.
#[test]
fn adaptive_picks_the_fewest_simulated_cycles() {
    let n = 2400;
    let chip = ChipCapacity {
        tiles: 8,
        ..ChipCapacity::small()
    };
    let session = |policy: Option<OptPolicy>| {
        let (builder, feeds) = corpus_session("streamcluster_gpu", n);
        let builder = builder.capacity(chip);
        let builder = match policy {
            Some(policy) => builder.policy(policy),
            None => builder.adaptive(),
        };
        build_and_run(builder, &feeds)
    };
    let best = [
        OptPolicy::MaxDlp,
        OptPolicy::MaxIlp,
        OptPolicy::MaxArrayUtil,
    ]
    .map(|policy| session(Some(policy)).1.cycles);
    let (ibs, picked) = session(None);
    assert_eq!(
        picked.cycles,
        *best.iter().min().unwrap(),
        "adaptive picked {ibs} IBs; DLP/ILP/ArrayUtil cycles {best:?}"
    );
}

/// A chip the simulator cannot build is a typed compile error, returned
/// before `Machine::new` would panic on it.
#[test]
fn invalid_chip_is_a_compile_error() {
    let small = ChipCapacity::small();
    for chip in [
        ChipCapacity { tiles: 4, ..small },
        ChipCapacity { tiles: 0, ..small },
        ChipCapacity { tiles: 16, ..small },
        ChipCapacity {
            clusters_per_tile: 0,
            ..small
        },
        ChipCapacity {
            arrays_per_cluster: 0,
            ..small
        },
        ChipCapacity {
            tiles: 1 << 30,
            arrays_per_cluster: usize::MAX / 8,
            ..small
        },
    ] {
        let (graph, _) = square_graph(16);
        match Session::builder(graph).capacity(chip).build() {
            Err(imp::Error::Compile(CompileError::BadCapacity(c))) => assert_eq!(c, chip),
            other => panic!("{chip:?}: expected BadCapacity, got {other:?}"),
        }
    }
    let (graph, _) = square_graph(16);
    let one_tile = ChipCapacity { tiles: 1, ..small };
    assert!(Session::builder(graph).capacity(one_tile).build().is_ok());
}

/// A fixed-point format with more than 30 fraction bits is a typed
/// compile error, never a compile-time panic (a sigmoid's LUT seeding
/// shifted by the fraction width) or a meaningless `Ok`.
#[test]
fn invalid_format_is_a_compile_error() {
    let sigmoid_graph = || {
        let mut g = GraphBuilder::new();
        let x = g.placeholder("x", Shape::vector(16)).unwrap();
        let y = g.sigmoid(x).unwrap();
        g.fetch_as("y", y);
        g.finish()
    };
    for format in [QFormat(31), QFormat(32), QFormat(40), QFormat(255)] {
        let (square, _) = square_graph(16);
        let builders = [
            Session::builder(square),
            Session::builder(sigmoid_graph()).range("x", Interval::new(-4.0, 4.0)),
        ];
        for builder in builders {
            match builder.format(format).build() {
                Err(imp::Error::Compile(CompileError::BadFormat(f))) => assert_eq!(f, format),
                other => panic!("{format:?}: expected BadFormat, got {other:?}"),
            }
        }
    }
    let (graph, _) = square_graph(16);
    let mut session = Session::builder(graph).format(QFormat(30)).build().unwrap();
    let x = Tensor::filled(0.5, Shape::vector(16));
    let out = session.run(&[("x", x)]).unwrap();
    assert_eq!(out.by_name("y").unwrap().data(), &[0.25; 16]);
}
