//! Graphs and options the compiler must reject with a typed
//! [`CompileError`] instead of panicking: non-finite constants and
//! declared ranges, LUT-seeded operands whose range overflows `f64` or
//! the fixed-point word, zero-element broadcasts, and gathers without a
//! row axis or with an out-of-range index.

use imp_compiler::{compile, CompileError, CompileOptions};
use imp_dfg::range::Interval;
use imp_dfg::{GraphBuilder, Shape};

/// Parses `.imp` text and compiles it with its declared ranges.
fn compile_text(text: &str) -> Result<imp_compiler::CompiledKernel, CompileError> {
    let parsed = imp_dfg::textfmt::parse(text).expect("parses");
    let options = CompileOptions {
        ranges: parsed.ranges,
        ..Default::default()
    };
    compile(&parsed.graph, &options)
}

#[test]
fn nan_constant_in_text_is_rejected() {
    let err = compile_text("placeholder x [64]\nconst c = nan\nadd y x c\nfetch y\n").unwrap_err();
    assert!(matches!(err, CompileError::NonFiniteConstant(_)), "{err}");
}

#[test]
fn nan_scalar_constant_is_rejected() {
    let mut g = GraphBuilder::new();
    let x = g.placeholder("x", Shape::vector(64)).unwrap();
    let c = g.scalar(f64::NAN);
    let y = g.add(x, c).unwrap();
    g.fetch(y);
    let err = compile(&g.finish(), &CompileOptions::default()).unwrap_err();
    assert!(matches!(err, CompileError::NonFiniteConstant(_)), "{err}");
}

#[test]
fn infinite_declared_range_is_rejected() {
    let mut g = GraphBuilder::new();
    let x = g.placeholder("x", Shape::vector(64)).unwrap();
    let y = g.exp(x).unwrap();
    g.fetch(y);
    let mut options = CompileOptions::default();
    options
        .ranges
        .insert("x".into(), Interval::new(f64::NEG_INFINITY, f64::INFINITY));
    let err = compile(&g.finish(), &options).unwrap_err();
    assert!(matches!(err, CompileError::BadRange(_)), "{err}");
}

#[test]
fn exp_overflowing_f64_is_rejected() {
    // e^1000 is infinite, so no output scale exists for the seed table.
    let err = compile_text("placeholder x [64]\nexp y x\nfetch y\nrange x 0 1000\n").unwrap_err();
    assert!(matches!(err, CompileError::BadRange(_)), "{err}");
}

#[test]
fn infinite_propagated_range_is_rejected() {
    // Squaring [1, 1e200] overflows to [0, inf]; the sqrt seed table
    // cannot be quantized over it.
    let err = compile_text("placeholder x [64]\nsquare s x\nsqrt r s\nfetch r\nrange x 1 1e200\n")
        .unwrap_err();
    assert!(matches!(err, CompileError::BadRange(_)), "{err}");
}

#[test]
fn seed_table_range_too_wide_to_index_is_rejected() {
    // Raw bounds past i64 overflow the bucket arithmetic.
    let err =
        compile_text("placeholder x [64]\nsigmoid y x\nfetch y\nrange x -1e20 1e20\n").unwrap_err();
    assert!(matches!(err, CompileError::BadRange(_)), "{err}");
}

#[test]
fn seed_table_needing_a_32_bit_shift_is_rejected() {
    // The exp table over ~[-1e9, -1e8] spans ~2^45 raw words: bucketing
    // it would shift 32-bit lanes by 38.
    let err =
        compile_text("placeholder x [64]\nexp y x\nfetch y\nrange x -1e9 -1e8\n").unwrap_err();
    assert!(matches!(err, CompileError::BadRange(_)), "{err}");
}

#[test]
fn zero_element_broadcast_is_rejected() {
    let err = compile_text("placeholder x [0]\nconst c = 1.0\nadd y x c\nfetch y\n").unwrap_err();
    assert!(matches!(err, CompileError::Unsupported(_)), "{err}");
}

#[test]
fn gather_without_row_axis_is_rejected() {
    let err = compile_text("placeholder x [64]\nconst i = 0\ngather g x i\nfetch g\n").unwrap_err();
    assert!(matches!(err, CompileError::Unsupported(_)), "{err}");
}

#[test]
fn negative_gather_index_is_rejected() {
    let err =
        compile_text("placeholder x [4, 64]\nconst i [1] -3\ngather g x i\nfetch g\n").unwrap_err();
    assert!(matches!(err, CompileError::Graph(_)), "{err}");
}
