//! Missing and short feeds are typed errors from `Machine::run` for every
//! way a kernel reads a feed: a per-instance `Element` row, a stencil
//! `Window` grid and a `Shared` input row. Each error names the feed at
//! fault; of several non-finite feeds, the first by name.

use imp_compiler::module::InputBinding;
use imp_compiler::{compile, CompileOptions, CompiledKernel};
use imp_dfg::{GraphBuilder, Shape, Tensor};
use imp_sim::{Machine, SimConfig, SimError};
use std::collections::HashMap;

/// One binding kind: a kernel that reads `feed` that way, and inputs
/// that make it run.
struct Case {
    what: &'static str,
    kernel: CompiledKernel,
    feed: &'static str,
    inputs: HashMap<String, Tensor>,
}

fn feeds(list: &[(&str, Tensor)]) -> HashMap<String, Tensor> {
    list.iter()
        .map(|(name, tensor)| (name.to_string(), tensor.clone()))
        .collect()
}

fn input_rows(kernel: &CompiledKernel) -> impl Iterator<Item = &InputBinding> {
    kernel
        .ibs
        .iter()
        .flat_map(|ib| ib.input_rows.iter().map(|(_, binding)| binding))
}

/// `x²` over 64 instances: `x` is read as `Element` rows.
fn element() -> Case {
    let mut g = GraphBuilder::new();
    let x = g.placeholder("x", Shape::vector(64)).unwrap();
    let y = g.square(x).unwrap();
    g.fetch(y);
    let kernel = compile(&g.finish(), &CompileOptions::default()).unwrap();
    assert!(input_rows(&kernel).all(|b| matches!(b, InputBinding::Element { .. })));
    let x = Tensor::from_fn(Shape::vector(64), |i| i as f64 / 16.0);
    Case {
        what: "element row",
        kernel,
        feed: "x",
        inputs: feeds(&[("x", x)]),
    }
}

/// A 3 × 3 convolution over an 8 × 8 grid: `temp` is read as `Window`
/// rows.
fn window() -> Case {
    let mut g = GraphBuilder::new();
    let temp = g.placeholder("temp", Shape::matrix(8, 8)).unwrap();
    let filter = Tensor::from_vec(
        vec![0.0, 0.1, 0.0, 0.1, -0.4, 0.1, 0.0, 0.1, 0.0],
        Shape::matrix(3, 3),
    )
    .unwrap();
    let filter = g.constant(filter).unwrap();
    let y = g.conv2d(temp, filter).unwrap();
    g.fetch(y);
    let kernel = compile(&g.finish(), &CompileOptions::default()).unwrap();
    assert!(input_rows(&kernel).any(|b| matches!(b, InputBinding::Window { .. })));
    let temp = Tensor::from_fn(Shape::matrix(8, 8), |i| (i % 5) as f64);
    Case {
        what: "window grid",
        kernel,
        feed: "temp",
        inputs: feeds(&[("temp", temp)]),
    }
}

/// `x · Σw` over 64 instances: the three elements of `w` are `Shared`
/// input rows.
fn shared_row() -> Case {
    let mut g = GraphBuilder::new();
    let x = g.placeholder("x", Shape::vector(64)).unwrap();
    let w = g.placeholder("w", Shape::vector(3)).unwrap();
    let s = g.sum(w, 0).unwrap();
    let y = g.mul(x, s).unwrap();
    g.fetch(y);
    let kernel = compile(&g.finish(), &CompileOptions::default()).unwrap();
    assert!(
        input_rows(&kernel).any(|b| matches!(b, InputBinding::Shared { name, .. } if name == "w"))
    );
    let x = Tensor::from_fn(Shape::vector(64), |i| i as f64 / 32.0);
    let w = Tensor::from_vec(vec![0.5, 0.25, -0.5], Shape::vector(3)).unwrap();
    Case {
        what: "shared row",
        kernel,
        feed: "w",
        inputs: feeds(&[("x", x), ("w", w)]),
    }
}

fn cases() -> Vec<Case> {
    vec![element(), window(), shared_row()]
}

fn run(kernel: &CompiledKernel, inputs: &HashMap<String, Tensor>) -> Result<(), SimError> {
    Machine::new(SimConfig::functional())
        .run(kernel, inputs)
        .map(drop)
}

#[test]
fn complete_feeds_run() {
    for case in cases() {
        run(&case.kernel, &case.inputs).unwrap_or_else(|e| panic!("{}: {e}", case.what));
    }
}

#[test]
fn a_missing_feed_is_named_for_every_binding_kind() {
    for mut case in cases() {
        case.inputs.remove(case.feed);
        match run(&case.kernel, &case.inputs) {
            Err(SimError::MissingInput(name)) => assert_eq!(name, case.feed, "{}", case.what),
            other => panic!(
                "{}: expected a missing-input error, got {other:?}",
                case.what
            ),
        }
    }
}

#[test]
fn a_short_feed_is_named_for_every_binding_kind() {
    for mut case in cases() {
        let full = &case.inputs[case.feed];
        let kept = full.data().len() - 1;
        let short = Tensor::from_vec(full.data()[..kept].to_vec(), Shape::vector(kept)).unwrap();
        case.inputs.insert(case.feed.to_string(), short);
        match run(&case.kernel, &case.inputs) {
            Err(SimError::InputShape { name, .. }) => assert_eq!(name, case.feed, "{}", case.what),
            other => panic!(
                "{}: expected an input-shape error, got {other:?}",
                case.what
            ),
        }
    }
}

#[test]
fn of_two_non_finite_feeds_the_first_by_name_is_named_on_every_run() {
    let mut g = GraphBuilder::new();
    let a = g.placeholder("a", Shape::vector(64)).unwrap();
    let b = g.placeholder("b", Shape::vector(64)).unwrap();
    let y = g.add(a, b).unwrap();
    g.fetch(y);
    let kernel = compile(&g.finish(), &CompileOptions::default()).unwrap();
    let nan_at =
        |at: usize| Tensor::from_fn(Shape::vector(64), |i| if i == at { f64::NAN } else { 1.0 });
    // Every `HashMap` iterates in its own random order, so a run that
    // quantized feeds in map order would name `b` about half the time.
    for _ in 0..64 {
        let inputs = feeds(&[("b", nan_at(3)), ("a", nan_at(5))]);
        match run(&kernel, &inputs) {
            Err(SimError::NonFiniteInput { name, index }) => {
                assert_eq!((name.as_str(), index), ("a", 5));
            }
            other => panic!("expected a non-finite-input error, got {other:?}"),
        }
    }
}
