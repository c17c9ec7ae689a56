//! Cross-crate integration tests: graphs built with `imp-dfg`, compiled
//! by `imp-compiler`, executed by `imp-sim` through the `imp::Session`
//! front-end, validated against the reference interpreter.

use imp::{GraphBuilder, Interpreter, OptPolicy, Session, SessionBuilder, Shape, Tensor};
use imp_testutil::assert_all_close;
use std::collections::HashMap;

/// Runs `g` through the interpreter and through a session that
/// `configure` sets up on top of the builder defaults.
fn run_both(
    g: GraphBuilder,
    feeds: Vec<(&str, Tensor)>,
    configure: impl FnOnce(SessionBuilder) -> SessionBuilder,
) -> (HashMap<imp::NodeId, Tensor>, imp::RunReport) {
    let graph = g.finish();
    let mut interp = Interpreter::new(&graph);
    for (name, tensor) in &feeds {
        interp.feed(name, tensor.clone());
    }
    let golden = interp.run().unwrap();
    let mut session = configure(Session::builder(graph)).build().unwrap();
    let outputs = session.run(&feeds).unwrap();
    (golden, outputs.report().clone())
}

#[test]
fn pipeline_of_every_op_class() {
    // One graph touching every lowering path: arithmetic, division,
    // sqrt, exp, sigmoid, abs, compare, select, floor-div, reductions.
    let n = 40;
    let mut g = GraphBuilder::new();
    let x = g.placeholder("x", Shape::vector(n)).unwrap();
    let y = g.placeholder("y", Shape::vector(n)).unwrap();

    let sum = g.add(x, y).unwrap();
    let diff = g.sub(x, y).unwrap();
    let prod = g.mul(sum, diff).unwrap(); // x² − y²
    let adiff = g.abs(diff).unwrap();
    let denom_c = g.scalar(1.0);
    let denom = g.add(adiff, denom_c).unwrap(); // ≥ 1
    let quot = g.div(prod, denom).unwrap();
    let root = g.sqrt(adiff).unwrap();
    let scale = g.scalar(-0.25);
    let e_arg = g.mul(adiff, scale).unwrap();
    let e = g.exp(e_arg).unwrap();
    let sig = g.sigmoid(diff).unwrap();
    let half = g.scalar(0.5);
    let cond = g.less(sig, half).unwrap();
    let sel = g.select(cond, quot, root).unwrap();
    let two = g.scalar(2.0);
    let fd = g.floordiv(x, two).unwrap();
    let partial = g.add(sel, e).unwrap();
    let out = g.add(partial, fd).unwrap();
    g.fetch(out);

    let ranges = |b: SessionBuilder| {
        b.range("x", imp::range::Interval::new(-3.0, 3.0))
            .range("y", imp::range::Interval::new(-3.0, 3.0))
    };

    let xs = Tensor::from_fn(Shape::vector(n), |i| ((i as f64) * 0.37).sin() * 3.0);
    let ys = Tensor::from_fn(Shape::vector(n), |i| ((i as f64) * 0.53).cos() * 3.0);
    let (golden, report) = run_both(g, vec![("x", xs), ("y", ys)], ranges);

    let want = &golden[&out];
    let got = &report.outputs[&out];
    assert_all_close(got.data(), want.data(), 0.08, "pipeline");
}

#[test]
fn multi_round_execution_is_seamless() {
    // More instances than the small chip's slots per round.
    let n = 40_000;
    let mut g = GraphBuilder::new();
    let x = g.placeholder("x", Shape::vector(n)).unwrap();
    let three = g.scalar(3.0);
    let y = g.mul(x, three).unwrap();
    g.fetch(y);
    let xs = Tensor::from_fn(Shape::vector(n), |i| (i % 1000) as f64 / 100.0);
    let (golden, report) = run_both(g, vec![("x", xs)], |b| b);
    assert!(
        report.rounds > 1,
        "expected multiple rounds, got {}",
        report.rounds
    );
    let want = &golden[&y];
    let got = &report.outputs[&y];
    // Spot-check across round boundaries.
    for i in [0usize, 4095, 4096, 32767, 32768, 39999] {
        assert!((got.data()[i] - want.data()[i]).abs() < 1e-3, "index {i}");
    }
}

#[test]
fn ilp_and_dlp_policies_agree_functionally() {
    let n = 64;
    let make = || {
        let mut g = GraphBuilder::new();
        let x = g.placeholder("x", Shape::new(vec![6, n])).unwrap();
        let sq = g.square(x).unwrap();
        let s = g.sum(sq, 0).unwrap();
        g.fetch(s);
        (g, s)
    };
    let xs = Tensor::from_fn(Shape::new(vec![6, n]), |i| ((i * 13) % 23) as f64 / 5.0);

    let (g1, s1) = make();
    let (_, dlp_report) = run_both(g1, vec![("x", xs.clone())], |b| b.policy(OptPolicy::MaxDlp));
    let (g2, s2) = make();
    let (_, ilp_report) = run_both(g2, vec![("x", xs)], |b| b.policy(OptPolicy::MaxIlp));
    let a = &dlp_report.outputs[&s1];
    let b = &ilp_report.outputs[&s2];
    assert_all_close(a.data(), b.data(), 1e-6, "policies diverge");
}

#[test]
fn reduction_pipeline_through_routers() {
    let n = 100;
    let mut g = GraphBuilder::new();
    let x = g.placeholder("x", Shape::vector(n)).unwrap();
    let sq = g.square(x).unwrap();
    let total = g.sum(sq, 0).unwrap();
    g.fetch(total);
    let xs = Tensor::from_fn(Shape::vector(n), |i| (i as f64) / 10.0);
    let (golden, report) = run_both(g, vec![("x", xs)], |b| b);
    let want = golden[&total].data()[0];
    let got = report.outputs[&total].data()[0];
    assert!((got - want).abs() < 0.5, "reduced {got} vs {want}");
}

#[test]
fn compile_errors_surface_cleanly() {
    // Division without a declared range is a compile-time error, not a
    // runtime surprise.
    let mut g = GraphBuilder::new();
    let a = g.placeholder("a", Shape::vector(8)).unwrap();
    let b = g.placeholder("b", Shape::vector(8)).unwrap();
    let q = g.div(a, b).unwrap();
    g.fetch(q);
    let err = Session::builder(g.finish()).build().unwrap_err();
    assert!(matches!(err, imp::Error::Compile(_)), "{err}");
}

#[test]
fn session_reports_architecture_counters() {
    let mut g = GraphBuilder::new();
    let x = g.placeholder("x", Shape::vector(32)).unwrap();
    let y = g.square(x).unwrap();
    g.fetch(y);
    let mut session = Session::builder(g.finish()).build().unwrap();
    let out = session
        .run(&[("x", Tensor::from_fn(Shape::vector(32), |i| i as f64 / 16.0))])
        .unwrap();
    let report = out.report();
    assert!(report.cycles > 0);
    assert!(report.seconds > 0.0);
    assert!(report.energy.total_j() > 0.0);
    assert!(report.avg_power_w > 0.0);
    assert!(report.avg_adc_bits > 0.0 && report.avg_adc_bits <= 5.0);
    assert!(report.instructions_executed > 0);
    assert!(report.writes_per_exec > 0);
    assert!(report.lifetime_years.is_finite());
}

#[test]
fn short_feeds_are_typed_errors() {
    // Every input binding is length-checked before any group executes,
    // so a stencil grid fed half its elements cannot index past the feed.
    let mut g = GraphBuilder::new();
    let temp = g.placeholder("temp", Shape::matrix(8, 8)).unwrap();
    let kern = g
        .constant(
            Tensor::from_vec(
                vec![0.0, 0.1, 0.0, 0.1, -0.4, 0.1, 0.0, 0.1, 0.0],
                Shape::matrix(3, 3),
            )
            .unwrap(),
        )
        .unwrap();
    let diffuse = g.conv2d(temp, kern).unwrap();
    g.fetch(diffuse);
    let mut session = Session::builder(g.finish()).build().unwrap();
    let half = Tensor::from_fn(Shape::vector(32), |i| i as f64);
    let err = session.run(&[("temp", half)]).unwrap_err();
    assert!(
        matches!(&err, imp::Error::Sim { source: imp::SimError::InputShape { name, .. }, .. } if name == "temp"),
        "{err}"
    );

    // Per-instance elements: a feed short of the last instance.
    let mut g = GraphBuilder::new();
    let x = g.placeholder("x", Shape::vector(20)).unwrap();
    let y = g.square(x).unwrap();
    g.fetch(y);
    let mut session = Session::builder(g.finish()).build().unwrap();
    let short = Tensor::from_fn(Shape::vector(19), |i| i as f64);
    let err = session.run(&[("x", short)]).unwrap_err();
    assert!(
        matches!(&err, imp::Error::Sim { source: imp::SimError::InputShape { name, .. }, .. } if name == "x"),
        "{err}"
    );
}

#[test]
fn non_finite_feeds_are_typed_errors() {
    // NaN and ±inf have no fixed-point value; quantizing them used to
    // turn NaN into 0 and infinities into the format's rails silently.
    for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        let mut g = GraphBuilder::new();
        let x = g.placeholder("x", Shape::vector(16)).unwrap();
        let y = g.square(x).unwrap();
        g.fetch(y);
        let mut session = Session::builder(g.finish()).build().unwrap();
        let feed = Tensor::from_fn(Shape::vector(16), |i| if i == 5 { bad } else { 1.0 });
        let err = session.run(&[("x", feed)]).unwrap_err();
        assert!(
            matches!(
                &err,
                imp::Error::Sim {
                    source: imp::SimError::NonFiniteInput { name, index: 5 },
                    ..
                } if name == "x"
            ),
            "{bad}: {err}"
        );
    }
}

#[test]
fn a_constant_never_shares_a_row_with_a_raw_word() {
    // The LUT index of `exp` subtracts the table's raw lower bound
    // (−16384 in Q16.16) held in a constant row. A negative constant whose
    // `f64` bits end in that word must get a row of its own: sharing the
    // raw word's row, the index read the constant's word (0) instead and
    // `exp` was off by up to 9.3. Its own error here is ≈0.12.
    let n = 16;
    for bits in [0x8000_0000_FFFF_C000u64, 0x8000_0000_0000_0001] {
        let mut g = GraphBuilder::new();
        let x = g.placeholder("x", Shape::vector(n)).unwrap();
        let c = g.scalar(f64::from_bits(bits));
        let arg = g.add(x, c).unwrap();
        let out = g.exp(arg).unwrap();
        g.fetch(out);
        let xs = Tensor::from_fn(Shape::vector(n), |i| i as f64 * 0.25);
        let (golden, report) = run_both(g, vec![("x", xs)], |b| {
            b.policy(OptPolicy::MaxDlp)
                .range("x", imp::range::Interval::new(0.0, 4.0))
        });
        let label = format!("exp(x + {:e})", f64::from_bits(bits));
        assert_all_close(
            report.outputs[&out].data(),
            golden[&out].data(),
            0.2,
            &label,
        );
    }
}
