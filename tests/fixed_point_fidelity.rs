//! Fixed-point fidelity properties (§2.3): the chip computes in 32-bit
//! Q-format with 4's-complement digit storage; these tests bound the
//! end-to-end error of compiled execution against f64 references across
//! randomized inputs, and check the claim that fixed point beats floating
//! point *given* the dynamic range holds.

use imp::{GraphBuilder, Interpreter, QFormat, Session, Shape, Tensor};
use imp_testutil::assert_all_close;
use proptest::prelude::*;

fn chip_vs_reference(
    data: Vec<f64>,
    build: impl Fn(&mut GraphBuilder, imp::NodeId) -> imp::NodeId,
    ranges: &[(&str, f64, f64)],
) -> (Vec<f64>, Vec<f64>) {
    let n = data.len();
    let mut g = GraphBuilder::new();
    let x = g.placeholder("x", Shape::vector(n)).unwrap();
    let y = build(&mut g, x);
    g.fetch(y);
    let graph = g.finish();
    let tensor = Tensor::from_vec(data, Shape::vector(n)).unwrap();

    let mut interp = Interpreter::new(&graph);
    interp.feed("x", tensor.clone());
    let golden = interp.run().unwrap();

    let builder = ranges
        .iter()
        .fold(Session::builder(graph), |b, &(name, lo, hi)| {
            b.range(name, imp::range::Interval::new(lo, hi))
        });
    let mut session = builder.build().unwrap();
    let outputs = session.run(&[("x", tensor)]).unwrap();
    (
        outputs.output(y).unwrap().data().to_vec(),
        golden[&y].data().to_vec(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn quadratic_error_is_quantization_bounded(values in prop::collection::vec(-10.0f64..10.0, 8..24)) {
        let (chip, reference) = chip_vs_reference(
            values,
            |g, x| {
                let sq = g.square(x).unwrap();
                g.add(sq, x).unwrap()
            },
            &[("x", -10.0, 10.0)],
        );
        for (a, b) in chip.iter().zip(&reference) {
            // One mul (truncation ε) + quantized inputs: error ≤ ~|2x|·ε.
            prop_assert!((a - b).abs() < 1e-2, "{a} vs {b}");
        }
    }

    #[test]
    fn division_converges_to_reference(values in prop::collection::vec(0.5f64..4.0, 8..24)) {
        let (chip, reference) = chip_vs_reference(
            values,
            |g, x| {
                let one = g.scalar(1.0);
                g.div(one, x).unwrap()
            },
            &[("x", 0.5, 4.0)],
        );
        for (a, b) in chip.iter().zip(&reference) {
            // Two Newton iterations from an 8-bit seed: ≲ 1e-3 absolute.
            prop_assert!((a - b).abs() < 2e-3, "1/x: {a} vs {b}");
        }
    }

    #[test]
    fn negative_divisors_supported(values in prop::collection::vec(-4.0f64..-0.5, 8..16)) {
        let (chip, reference) = chip_vs_reference(
            values,
            |g, x| {
                let one = g.scalar(1.0);
                g.div(one, x).unwrap()
            },
            &[("x", -4.0, -0.5)],
        );
        for (a, b) in chip.iter().zip(&reference) {
            prop_assert!((a - b).abs() < 2e-3, "1/x (x<0): {a} vs {b}");
        }
    }

    #[test]
    fn sqrt_relative_error_bounded(values in prop::collection::vec(1.0f64..100.0, 8..16)) {
        // Values far below the declared range's scale seed poorly (the
        // 64-bucket rsqrt table is linear in x), so the property covers
        // the top two decades; EXPERIMENTS.md documents the limitation.
        let (chip, reference) = chip_vs_reference(
            values,
            |g, x| g.sqrt(x).unwrap(),
            &[("x", 0.0, 100.0)],
        );
        for (a, b) in chip.iter().zip(&reference) {
            let tolerance = 2e-2 * b.max(1.0);
            prop_assert!((a - b).abs() < tolerance, "sqrt: {a} vs {b}");
        }
    }

    #[test]
    fn select_is_exact(values in prop::collection::vec(-8.0f64..8.0, 8..24)) {
        // Predication moves quantized values without further error.
        let (chip, reference) = chip_vs_reference(
            values,
            |g, x| {
                let zero = g.scalar(0.0);
                let c = g.less(x, zero).unwrap();
                let nx = g.neg(x).unwrap();
                g.select(c, nx, x).unwrap() // |x|
            },
            &[("x", -8.0, 8.0)],
        );
        for (a, b) in chip.iter().zip(&reference) {
            prop_assert!((a - b).abs() <= QFormat::Q16_16.epsilon(), "{a} vs {b}");
        }
    }
}

// Former proptest-regressions cases, promoted to explicit tests: the
// vendored proptest stub does not replay regression files, so the two
// recorded failures for `quadratic_error_is_quantization_bounded` are
// pinned here permanently.
#[test]
fn quadratic_regression_small_uniform_inputs() {
    let (chip, reference) = chip_vs_reference(
        vec![0.01; 8],
        |g, x| {
            let sq = g.square(x).unwrap();
            g.add(sq, x).unwrap()
        },
        &[("x", -10.0, 10.0)],
    );
    assert_all_close(&chip, &reference, 1e-2, "x²+x small uniform");
}

#[test]
fn quadratic_regression_mixed_inputs() {
    let (chip, reference) = chip_vs_reference(
        vec![1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.879_300_980_052_74],
        |g, x| {
            let sq = g.square(x).unwrap();
            g.add(sq, x).unwrap()
        },
        &[("x", -10.0, 10.0)],
    );
    assert_all_close(&chip, &reference, 1e-2, "x²+x mixed");
}

#[test]
fn fixed_point_beats_f32_for_small_magnitudes() {
    // §2.3: "under the condition that overflow/underflow does not happen,
    // fixed point representation gives better accuracy compared to
    // floating point". Q16.16 resolves 2⁻¹⁶ everywhere; f32's ulp is
    // 2⁻¹⁵ once |x| ≥ 256, so averaged over values near 300 the Q16.16
    // representation error must be strictly smaller.
    let mut f32_err = 0.0f64;
    let mut q16_err = 0.0f64;
    for i in 0..1000 {
        let value = 300.0 + (i as f64) * 0.000_137;
        f32_err += (value as f32 as f64 - value).abs();
        q16_err += (imp::Fixed::from_f64(value, QFormat::Q16_16)
            .unwrap()
            .to_f64()
            - value)
            .abs();
    }
    assert!(
        q16_err < f32_err,
        "Q16.16 total error {q16_err} should beat f32 total error {f32_err} near |x|≈300"
    );
}

#[test]
fn overflow_is_the_programmers_problem_but_detectable() {
    // The range-analysis tool flags the overflow the chip would hit.
    let mut g = GraphBuilder::new();
    let x = g.placeholder("x", Shape::vector(4)).unwrap();
    let sq = g.square(x).unwrap();
    let quad = g.square(sq).unwrap();
    g.fetch(quad);
    let graph = g.finish();
    let ranges = [("x".to_string(), imp::range::Interval::new(-50.0, 50.0))]
        .into_iter()
        .collect();
    let report = imp::range::analyze(&graph, &ranges, QFormat::Q16_16).unwrap();
    assert!(
        !report.overflows.is_empty(),
        "50⁴ = 6.25e6 must overflow Q16.16"
    );
    let recommended = report.recommended_format.unwrap();
    assert!(recommended.frac_bits() < 16);
}
