//! End-to-end shadow validation: the opt-in golden cross-check is the
//! only detector for transport faults the network accepts silently — a
//! `Silent` fault policy delivering corrupted payloads, and bad in-tree
//! reduction adders (which re-seal the CRC after corrupting the partial
//! sums, so no link-level check can fire).

use imp::{
    Error, GraphBuilder, LinkFaultRates, NodeId, Session, SessionBuilder, ShadowConfig,
    TransportConfig, TransportPolicy,
};
use imp_dfg::{Graph, Shape, Tensor};
use imp_testutil::assert_all_close;

fn reduction_graph(n: usize) -> (Graph, NodeId) {
    let mut g = GraphBuilder::new();
    let x = g.placeholder("x", Shape::vector(n)).unwrap();
    let sq = g.square(x).unwrap();
    let s = g.sum(sq, 0).unwrap();
    g.fetch(s);
    (g.finish(), s)
}

fn faulted_session(graph: Graph, seed: u64, rates: LinkFaultRates) -> SessionBuilder {
    Session::builder(graph)
        .fault_seed(seed)
        .transport(TransportConfig {
            rates,
            policy: TransportPolicy::Silent,
        })
}

fn feed(n: usize) -> Tensor {
    Tensor::from_fn(Shape::vector(n), |i| ((i % 37) as f64) / 16.0)
}

/// Runs the reduction kernel under `rates` with shadow validation on,
/// returning whether validation flagged the run, and panicking if the run
/// failed any other way.
fn shadow_flags(seed: u64, rates: LinkFaultRates, tolerance_ulps: f64) -> bool {
    let n = 4000;
    let (graph, _) = reduction_graph(n);
    let mut session = faulted_session(graph, seed, rates)
        .shadow(ShadowConfig::with_tolerance_ulps(tolerance_ulps))
        .build()
        .unwrap();
    match session.run(&[("x", feed(n))]) {
        Ok(_) => false,
        Err(Error::ShadowDivergence(report)) => {
            assert!(report.diverged());
            assert!(report.worst_ulps() > tolerance_ulps);
            true
        }
        Err(other) => panic!("unexpected session error: {other}"),
    }
}

#[test]
fn shadow_validation_catches_silent_link_corruption() {
    // Silent policy: CRC mismatches are counted but corrupted payloads are
    // delivered anyway. The golden cross-check must catch the damage for
    // at least some seed — flips are seed-deterministic, so scan a few.
    let caught = (0..8).any(|seed| {
        shadow_flags(
            seed,
            LinkFaultRates::flips(0.2),
            ShadowConfig::default().tolerance_ulps,
        )
    });
    assert!(
        caught,
        "a 20% per-link flip rate must corrupt some run beyond tolerance"
    );
}

#[test]
fn shadow_validation_catches_bad_reduction_adders() {
    // Every reduction adder corrupts its merged sums and recomputes the
    // CRC: zero crc_failures, zero events — only end-to-end validation
    // can see it.
    let rates = LinkFaultRates {
        bad_reduce_adder: 1.0,
        ..LinkFaultRates::none()
    };
    let caught = (0..8).any(|seed| shadow_flags(seed, rates, 64.0));
    assert!(
        caught,
        "universally bad adders must corrupt some reduction beyond 64 ULPs"
    );
}

#[test]
fn shadow_validation_passes_fault_free_transport() {
    let n = 4000;
    let (graph, s) = reduction_graph(n);
    let mut session = faulted_session(graph, 7, LinkFaultRates::none())
        .shadow(ShadowConfig::default())
        .build()
        .unwrap();
    let out = session.run(&[("x", feed(n))]).unwrap();
    let shadow = out.shadow_report().expect("report attached on success");
    assert!(!shadow.diverged());
    // The chip's own output agrees with the golden value the report used.
    let golden_worst = shadow.outputs[0].max_ulps;
    assert!(golden_worst <= ShadowConfig::default().tolerance_ulps);
    assert_all_close(
        out.output(s).unwrap().data(),
        &[shadow.outputs[0].expected],
        ShadowConfig::default().tolerance_ulps * imp::QFormat::Q16_16.epsilon(),
        "reduced output",
    );
}
