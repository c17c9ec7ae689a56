//! The execution tape analyses a `dot`'s DAC vectors once per run only
//! when lowering knows every multiplicand: a register last written by a
//! `movi`. A register a data-dependent `mov` overwrote must
//! never be folded, since its value differs from group to group.
//!
//! The kernels here are hand-built over a compiled `y = a + b` layout
//! (rows for `a`, `b` and `y`; 16 instances, so two instance groups):
//! four `dot` pairs stream `b` against multiplicands that are either
//! `movi` constants or lane 0 of `a`, moved into the registers after a
//! `movi` made them known.

use imp_compiler::module::{InputBinding, OutputLoc};
use imp_compiler::schedule::ScheduledInst;
use imp_compiler::{CompileOptions, CompiledKernel};
use imp_dfg::{GraphBuilder, NodeId, Shape, Tensor};
use imp_rram::{Fixed, QFormat, RramError};
use imp_sim::{Machine, Parallelism, SimConfig, SimError};
use std::collections::HashMap;

const N: usize = 16;
const Q: QFormat = QFormat::Q16_16;
/// Rows the copies of `b` go to, clear of the compiled layout.
const COPIES: [usize; 3] = [100, 101, 102];

/// The `y = a + b` layout: the compiled kernel, the rows `a` and `b`
/// load into, and `y`'s node and row.
struct Layout {
    kernel: CompiledKernel,
    a_row: usize,
    b_row: usize,
    y: NodeId,
    y_row: usize,
}

fn layout() -> Layout {
    let mut g = GraphBuilder::new();
    let a = g.placeholder("a", Shape::vector(N)).unwrap();
    let b = g.placeholder("b", Shape::vector(N)).unwrap();
    let y = g.add(a, b).unwrap();
    g.fetch(y);
    let kernel = imp_compiler::compile(&g.finish(), &CompileOptions::default()).unwrap();
    assert_eq!(kernel.ibs.len(), 1);
    let row_of = |input: &str| {
        kernel.ibs[0]
            .input_rows
            .iter()
            .find_map(|(row, binding)| match binding {
                InputBinding::Element { name, .. } if name == input => Some(usize::from(*row)),
                _ => None,
            })
            .expect("the input loads a row")
    };
    let (a_row, b_row) = (row_of("a"), row_of("b"));
    let OutputLoc::Row { row: y_row, .. } = kernel.outputs[0].locs[0] else {
        panic!("y is a per-instance output");
    };
    Layout {
        a_row,
        b_row,
        y,
        y_row: usize::from(y_row),
        kernel,
    }
}

/// Replaces the layout's code with `listing`, scheduled in program order.
fn with_code(mut layout: Layout, listing: &str) -> Layout {
    let block = imp_isa::assemble("tape", listing).unwrap();
    let ib = &mut layout.kernel.ibs[0];
    ib.peak_rows = ib.peak_rows.max(COPIES[2] + 1);
    ib.peak_regs = ib.peak_regs.max(4);
    ib.deps = vec![Vec::new(); block.len()];
    ib.provenance = vec![None; block.len()];
    let schedule = &mut layout.kernel.schedule;
    schedule.entries.clear();
    let mut now = 0;
    for (index, inst) in block.instructions().iter().enumerate() {
        let end = now + u64::from(inst.latency().cycles().expect("array-local"));
        schedule.entries.push(ScheduledInst {
            ib: 0,
            index,
            start: now,
            end,
        });
        now = end;
    }
    schedule.module_latency = now;
    schedule.ib_latencies = vec![now];
    ib.block = block;
    layout
}

/// Copies `b` into the three spare rows, then takes the `dot` of the
/// four copies of `b` with registers 0..4 into `y`'s row.
fn dot_of_b_copies(layout: &Layout) -> String {
    let (b, y) = (layout.b_row, layout.y_row);
    let [c1, c2, c3] = COPIES;
    format!(
        "mov m{b} m{c1}\nmov m{b} m{c2}\nmov m{b} m{c3}\ndot {{{b},{c1},{c2},{c3}}} {{0,1,2,3}} m{y}\n"
    )
}

/// Every multiplicand is a `movi` constant: known when lowered.
fn constant_multiplicands(raw: i32) -> Layout {
    let layout = layout();
    let loads: String = (0..4).map(|r| format!("movi r{r} #{raw}\n")).collect();
    let listing = loads + &dot_of_b_copies(&layout);
    with_code(layout, &listing)
}

/// Every multiplicand is first a known `movi` 0, then overwritten by a
/// `mov` from `a`'s row: lane 0 of `a`, which differs per group.
fn data_dependent_multiplicands() -> Layout {
    let layout = layout();
    let a = layout.a_row;
    let zeros: String = (0..4).map(|r| format!("movi r{r} #0\n")).collect();
    let moves: String = (0..4).map(|r| format!("mov m{a} r{r}\n")).collect();
    let listing = zeros + &moves + &dot_of_b_copies(&layout);
    with_code(layout, &listing)
}

fn feeds(a: &[f64], b: &[f64]) -> HashMap<String, Tensor> {
    HashMap::from([
        (
            "a".to_string(),
            Tensor::from_vec(a.to_vec(), Shape::vector(N)).unwrap(),
        ),
        (
            "b".to_string(),
            Tensor::from_vec(b.to_vec(), Shape::vector(N)).unwrap(),
        ),
    ])
}

fn raw(value: f64) -> i64 {
    i64::from(Fixed::from_f64(value, Q).unwrap().raw())
}

/// `Σ over 4 pairs of b·m`, at the format's window: the exact MAC.
fn mac(b: f64, m_raw: i64) -> f64 {
    let wide = 4 * raw(b) * m_raw;
    Fixed::from_raw((wide >> Q.frac_bits()) as i32, Q).to_f64()
}

fn run(layout: &Layout, inputs: &HashMap<String, Tensor>) -> Result<Vec<f64>, SimError> {
    let mut outputs = Vec::new();
    for parallelism in [Parallelism::Serial, Parallelism::Threads(2)] {
        let config = SimConfig {
            parallelism,
            ..SimConfig::functional()
        };
        let report = Machine::new(config).run(&layout.kernel, inputs)?;
        assert_eq!(report.instances, N);
        outputs.push(report.outputs[&layout.y].data().to_vec());
    }
    assert_eq!(outputs[0], outputs[1], "serial ≡ parallel");
    Ok(outputs.swap_remove(0))
}

/// `b` per instance: small positive values whose digits vary by lane.
fn b_values() -> Vec<f64> {
    (0..N).map(|i| 0.25 + 0.125 * i as f64).collect()
}

#[test]
fn constant_multiplicands_give_the_exact_mac() {
    let m = 1.5;
    let layout = constant_multiplicands(raw(m) as i32);
    let b = b_values();
    let y = run(&layout, &feeds(&[0.0; N], &b)).unwrap();
    let expect: Vec<f64> = b.iter().map(|&b| mac(b, raw(m))).collect();
    assert_eq!(y, expect);
}

#[test]
fn a_register_overwritten_by_data_gives_each_groups_exact_mac() {
    let layout = data_dependent_multiplicands();
    // Group 0 streams a[0] = 1.0, group 1 streams a[8] = 2.0; the other
    // lanes of `a` are never streamed.
    let a: Vec<f64> = (0..N)
        .map(|i| match i {
            0 => 1.0,
            8 => 2.0,
            _ => 7.0 + i as f64,
        })
        .collect();
    let b = b_values();
    let y = run(&layout, &feeds(&a, &b)).unwrap();
    let expect: Vec<f64> = b
        .iter()
        .enumerate()
        .map(|(i, &b)| mac(b, raw(a[i / 8 * 8])))
        .collect();
    assert_eq!(y, expect);
    // Group 1's product differs from a stale fold of the `movi` zeros.
    assert!(y[8..].iter().all(|&v| v != 0.0));
}

#[test]
fn a_register_overwritten_by_data_is_range_checked_per_group() {
    // Group 1 streams 3.0 against b = 3.0: each (bit-line, chunk)
    // partial of the four pairs is 4 · 3 · 3 = 36, past the 5-bit ADC's
    // 31. A fold of the `movi` zeros would see no partial at all.
    let layout = data_dependent_multiplicands();
    let mut a = vec![1.0; N];
    a[8] = 3.0;
    let mut b = b_values();
    b[8..].fill(3.0);
    match run(&layout, &feeds(&a, &b)) {
        Err(SimError::Array {
            site: Some(site),
            source: RramError::AdcOverrange { partial_sum, limit },
        }) => {
            assert_eq!((site.group, partial_sum, limit), (1, 36, 31));
        }
        other => panic!("expected group 1's ADC over-range, got {other:?}"),
    }
}
