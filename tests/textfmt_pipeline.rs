//! The full text front-end pipeline: parse a kernel from the textual
//! graph format (the protobuf-input analogue), compile it, execute it on
//! the simulated chip, and validate against the interpreter — covering
//! the sample kernels shipped in `examples/kernels/`.

use imp::{CompileOptions, Interpreter, Machine, Session, SimConfig, Tensor};
use std::collections::HashMap;

fn run_text_kernel(text: &str, feeds: &[(&str, Tensor)], tolerance: f64) -> imp::RunReport {
    let parsed = imp_dfg::textfmt::parse(text).expect("parses");
    let options = CompileOptions {
        ranges: parsed.ranges.clone(),
        ..Default::default()
    };
    let kernel = imp::compile(&parsed.graph, &options).expect("compiles");

    let inputs: HashMap<String, Tensor> = feeds
        .iter()
        .map(|(n, t)| ((*n).to_string(), t.clone()))
        .collect();
    let mut machine = Machine::new(SimConfig::functional());
    let report = machine.run(&kernel, &inputs).expect("runs");

    let mut interp = Interpreter::new(&parsed.graph);
    for (name, tensor) in feeds {
        interp.feed(name, tensor.clone());
    }
    let golden = interp.run().expect("interprets");
    for &out in parsed.graph.outputs() {
        let got = &report.outputs[&out];
        let want = &golden[&out];
        for (i, (&a, &b)) in got.data().iter().zip(want.data()).enumerate() {
            assert!(
                (a - b).abs() <= tolerance,
                "output {out}[{i}]: chip {a} vs reference {b}"
            );
        }
    }
    report
}

fn load(name: &str) -> String {
    let path = format!(
        "{}/../../examples/kernels/{name}",
        env!("CARGO_MANIFEST_DIR")
    );
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path}: {e}"))
}

#[test]
fn saxpy_kernel_file() {
    let text = load("saxpy.imp");
    // Shrink the vector for the functional run by rewriting the shapes.
    let text = text.replace("[4096]", "[64]");
    let x = Tensor::from_fn(imp::Shape::vector(64), |i| (i as f64) - 32.0);
    let y = Tensor::from_fn(imp::Shape::vector(64), |i| (i as f64) / 4.0);
    run_text_kernel(&text, &[("x", x), ("y", y)], 1e-3);
}

#[test]
fn softplus_kernel_file() {
    let text = load("softplus.imp").replace("[2048]", "[48]");
    let x = Tensor::from_fn(imp::Shape::vector(48), |i| (i as f64) / 3.0 - 8.0);
    run_text_kernel(&text, &[("x", x)], 0.1);
}

#[test]
fn l2norm_kernel_file() {
    let text = load("l2norm.imp").replace("[8, 1024]", "[8, 40]");
    let v = Tensor::from_fn(imp::Shape::new(vec![8, 40]), |i| {
        ((i % 9) as f64) / 8.0 - 0.5
    });
    let report = run_text_kernel(&text, &[("v", v)], 0.5);
    // The total is a cross-instance reduction through the router adders.
    assert!(report.noc.reduction_adds > 0 || report.rounds == 1);
}

#[test]
fn inline_kernel_with_variables() {
    let text = "
        variable acc [32] zeros
        placeholder x [32]
        assign_add u acc x
        fetch u
    ";
    let parsed = imp_dfg::textfmt::parse(text).unwrap();
    let kernel = imp::compile(&parsed.graph, &CompileOptions::default()).unwrap();
    let mut machine = Machine::new(SimConfig::functional());
    let mut inputs: HashMap<String, Tensor> = HashMap::new();
    inputs.insert("acc".into(), Tensor::zeros(imp::Shape::vector(32)));
    inputs.insert("x".into(), Tensor::filled(2.0, imp::Shape::vector(32)));
    let report = machine.run(&kernel, &inputs).unwrap();
    let updated = &report.variable_updates["acc"];
    assert!(updated.data().iter().all(|&v| (v - 2.0).abs() < 1e-3));
}

/// Builds a session over `.imp` text, returning the build error.
fn build_error(text: &str) -> imp::Error {
    let parsed = imp_dfg::textfmt::parse(text).expect("parses");
    Session::builder(parsed.graph).build().unwrap_err()
}

#[test]
fn reduction_of_a_reduction_is_a_compile_error() {
    // Summing a cross-instance reduction result again used to panic in
    // lowering instead of being refused.
    let err = build_error(
        "
        placeholder v [8,1024]
        square sq v
        sum per_dim sq axis=1
        sum total per_dim axis=0
        fetch per_dim
        fetch total
    ",
    );
    assert!(matches!(err, imp::Error::Compile(_)), "{err}");
}

#[test]
fn selecting_a_reduction_result_is_a_compile_error() {
    // A select branch that is a cross-instance reduction result reaches
    // lowering, which has no row holding it.
    let err = build_error(
        "
        placeholder v [1024]
        placeholder w [1024]
        sum total v axis=0
        const z = 0.0
        less c w z
        select s c w total
        fetch s
    ",
    );
    assert!(matches!(err, imp::Error::Compile(_)), "{err}");
}

#[test]
fn parse_errors_are_reported_with_lines() {
    let err = imp_dfg::textfmt::parse("placeholder x [8]\nfrobnicate y x\n").unwrap_err();
    let message = err.to_string();
    assert!(
        message.contains("line 2") && message.contains("frobnicate"),
        "{message}"
    );
}
