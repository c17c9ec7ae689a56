//! Hand-built kernels whose instructions (scheduled or not), input rows,
//! outputs or schedule break the ISA's structural rules are typed errors from `Machine::run`, never panics. An operand
//! names an IB, row, register or reduction slot the kernel does not have;
//! a `movg` leaves some other IB or stays in its own; a `reduce_sum`
//! feeds a slot no output declares; two input bindings load one row; an
//! output reads a reduction slot no address can encode or mixes
//! reduction slots with per-instance rows; a window input
//! has no stencil grid; the schedule misses, repeats or
//! invents an instruction; a shift moves a word by 32 bits or more; the
//! fixed-point format has more than 30 fraction bits; or a stencil grid
//! has more instances than a `usize` counts. `Machine::run`
//! refuses them before any instance group executes, through the
//! verifier's structural pass (rules `ISA01`–`ISA03` and `SCH04`), so the
//! simulator and a `Deny` build agree on which kernels can execute.

use imp_compiler::module::{vaddr, OutputLoc};
use imp_compiler::{CompileOptions, CompiledKernel, OptPolicy, ParallelSpec};
use imp_dfg::{GraphBuilder, Shape, Tensor};
use imp_isa::{Addr, GlobalAddr, Instruction, InstructionBlock};
use imp_rram::QFormat;
use imp_sim::{Machine, SimConfig, SimError};
use std::collections::HashMap;

/// A kernel and inputs for it.
type Case = (CompiledKernel, HashMap<String, Tensor>);

/// A workload kernel with more than one IB, and inputs for it.
fn workload(name: &str) -> Case {
    let w = imp_workloads::workload(name).expect("known workload");
    let kernel = w.compile(64, OptPolicy::MaxIlp).expect("compiles");
    (kernel, w.inputs(64, 1))
}

fn kmeans() -> Case {
    workload("kmeans")
}

/// `sum(x)` over 64 instances: a kernel ending in a `reduce_sum`.
fn reduction() -> Case {
    let mut g = GraphBuilder::new();
    let x = g.placeholder("x", Shape::vector(64)).unwrap();
    let s = g.sum(x, 0).unwrap();
    g.fetch(s);
    let kernel = imp_compiler::compile(&g.finish(), &CompileOptions::default()).unwrap();
    let x = Tensor::filled(1.0, Shape::vector(64));
    (kernel, HashMap::from([("x".to_string(), x)]))
}

/// Rewrites the first instruction `rewrite` accepts, given the index of
/// its IB, leaving the schedule untouched.
fn mutate_first(
    kernel: &mut CompiledKernel,
    rewrite: impl Fn(usize, Instruction) -> Option<Instruction>,
) {
    for (i, ib) in kernel.ibs.iter_mut().enumerate() {
        let mut instructions = ib.block.instructions().to_vec();
        if let Some(pc) = instructions
            .iter()
            .position(|&inst| rewrite(i, inst).is_some())
        {
            instructions[pc] = rewrite(i, instructions[pc]).unwrap();
            ib.block = InstructionBlock::from_instructions(ib.block.name(), instructions);
            return;
        }
    }
    panic!("no instruction to mutate");
}

/// The first per-instance output location of `kernel`.
fn first_row_output(kernel: &mut CompiledKernel) -> &mut OutputLoc {
    kernel
        .outputs
        .iter_mut()
        .flat_map(|o| o.locs.iter_mut())
        .find(|loc| matches!(loc, OutputLoc::Row { .. }))
        .expect("the kernel has per-instance outputs")
}

fn movg_to_a_missing_ib() -> Case {
    let (mut kernel, inputs) = kmeans();
    let bad_ib = kernel.ibs.len() + 7;
    mutate_first(&mut kernel, |_, inst| match inst {
        Instruction::Movg { src, .. } => Some(Instruction::Movg {
            src,
            dst: vaddr::cross_ib(bad_ib, 0),
        }),
        _ => None,
    });
    (kernel, inputs)
}

fn movg_from_a_row_past_the_array() -> Case {
    let (mut kernel, inputs) = kmeans();
    mutate_first(&mut kernel, |_, inst| match inst {
        Instruction::Movg { src, dst } => Some(Instruction::Movg {
            src: GlobalAddr { row: 200, ..src },
            dst,
        }),
        _ => None,
    });
    (kernel, inputs)
}

fn movg_to_an_output_slot() -> Case {
    let (mut kernel, inputs) = kmeans();
    mutate_first(&mut kernel, |_, inst| match inst {
        Instruction::Movg { src, .. } => Some(Instruction::Movg {
            src,
            dst: vaddr::output_slot(0),
        }),
        _ => None,
    });
    (kernel, inputs)
}

fn movg_from_another_ib() -> Case {
    let (mut kernel, inputs) = kmeans();
    let num_ibs = kernel.ibs.len();
    mutate_first(&mut kernel, |ib, inst| match inst {
        Instruction::Movg { src, dst } => {
            let (_, row) = vaddr::as_cross_ib(src)?;
            Some(Instruction::Movg {
                src: vaddr::cross_ib((ib + 1) % num_ibs, row),
                dst,
            })
        }
        _ => None,
    });
    (kernel, inputs)
}

fn movg_to_its_own_ib() -> Case {
    let (mut kernel, inputs) = kmeans();
    mutate_first(&mut kernel, |ib, inst| match inst {
        Instruction::Movg { src, dst } => {
            let (_, row) = vaddr::as_cross_ib(dst)?;
            Some(Instruction::Movg {
                src,
                dst: vaddr::cross_ib(ib, row),
            })
        }
        _ => None,
    });
    (kernel, inputs)
}

fn reduce_to_a_missing_slot() -> Case {
    let (mut kernel, inputs) = reduction();
    mutate_first(&mut kernel, |_, inst| match inst {
        Instruction::ReduceSum { src, .. } => Some(Instruction::ReduceSum {
            src,
            dst: vaddr::output_slot(999),
        }),
        _ => None,
    });
    (kernel, inputs)
}

/// The output reads slot 1, so the `reduce_sum` into slot 0 feeds no
/// declared reduction.
fn reduce_to_an_undeclared_slot() -> Case {
    let (mut kernel, inputs) = reduction();
    let loc = kernel
        .outputs
        .iter_mut()
        .flat_map(|o| o.locs.iter_mut())
        .find(|loc| matches!(loc, OutputLoc::Reduced { slot: 0 }))
        .expect("the sum reads slot 0");
    *loc = OutputLoc::Reduced { slot: 1 };
    (kernel, inputs)
}

fn local_operand_row_past_the_array() -> Case {
    let (mut kernel, inputs) = kmeans();
    mutate_first(&mut kernel, |_, inst| match inst {
        Instruction::Mov { dst, .. } => Some(Instruction::Mov {
            src: Addr::Mem(200),
            dst,
        }),
        _ => None,
    });
    (kernel, inputs)
}

fn local_operand_register_past_the_file() -> Case {
    let (mut kernel, inputs) = kmeans();
    mutate_first(&mut kernel, |_, inst| match inst {
        Instruction::Mov { dst, .. } => Some(Instruction::Mov {
            src: Addr::Reg(200),
            dst,
        }),
        _ => None,
    });
    (kernel, inputs)
}

fn input_row_past_the_array() -> Case {
    let (mut kernel, inputs) = kmeans();
    let ib = kernel
        .ibs
        .iter_mut()
        .find(|ib| !ib.input_rows.is_empty())
        .expect("kmeans loads inputs");
    ib.input_rows[0].0 = 200;
    (kernel, inputs)
}

fn two_inputs_loading_one_row() -> Case {
    let (mut kernel, inputs) = kmeans();
    let ib = kernel
        .ibs
        .iter_mut()
        .find(|ib| ib.input_rows.len() >= 2)
        .expect("kmeans loads several inputs into one IB");
    ib.input_rows[1].0 = ib.input_rows[0].0;
    (kernel, inputs)
}

fn output_row_past_the_array() -> Case {
    let (mut kernel, inputs) = kmeans();
    let OutputLoc::Row { row, .. } = first_row_output(&mut kernel) else {
        unreachable!()
    };
    *row = 200;
    (kernel, inputs)
}

fn output_from_a_missing_ib() -> Case {
    let (mut kernel, inputs) = kmeans();
    let bad_ib = kernel.ibs.len() + 3;
    *first_row_output(&mut kernel) = OutputLoc::Row { ib: bad_ib, row: 0 };
    (kernel, inputs)
}

/// The sum gains a second output reading a reduction slot past the
/// 12-bit tile field `vaddr::output_slot` encodes.
fn output_slot_past_the_address_space() -> Case {
    let (mut kernel, inputs) = reduction();
    let mut extra = kernel.outputs[0].clone();
    extra.locs = vec![OutputLoc::Reduced { slot: usize::MAX }];
    kernel.outputs.push(extra);
    (kernel, inputs)
}

/// A 16-instance `square` whose output gains one reduction slot beside
/// its per-instance rows.
fn output_mixing_reduced_and_row_locs() -> Case {
    let mut g = GraphBuilder::new();
    let x = g.placeholder("x", Shape::vector(16)).unwrap();
    let y = g.square(x).unwrap();
    g.fetch(y);
    let mut kernel = imp_compiler::compile(&g.finish(), &CompileOptions::default()).unwrap();
    kernel.outputs[0].locs.push(OutputLoc::Reduced { slot: 0 });
    let x = Tensor::filled(1.5, Shape::vector(16));
    (kernel, HashMap::from([("x".to_string(), x)]))
}

fn schedule_entry_past_its_block() -> Case {
    let (mut kernel, inputs) = kmeans();
    let len = kernel.ibs[0].block.instructions().len();
    kernel.schedule.entries[0].ib = 0;
    kernel.schedule.entries[0].index = len + 5;
    (kernel, inputs)
}

fn instruction_missing_from_the_schedule() -> Case {
    let (mut kernel, inputs) = kmeans();
    kernel.schedule.entries.pop();
    (kernel, inputs)
}

fn instruction_scheduled_twice() -> Case {
    let (mut kernel, inputs) = kmeans();
    let last = *kernel.schedule.entries.last().expect("a scheduled kernel");
    kernel.schedule.entries.push(last);
    (kernel, inputs)
}

fn window_input_in_a_non_stencil_kernel() -> Case {
    let mut g = GraphBuilder::new();
    let grid = g.placeholder("grid", Shape::matrix(8, 8)).unwrap();
    let filter = Tensor::from_vec(vec![0.25; 9], Shape::matrix(3, 3)).unwrap();
    let filter = g.constant(filter).unwrap();
    let y = g.conv2d(grid, filter).unwrap();
    g.fetch(y);
    let mut kernel = imp_compiler::compile(&g.finish(), &CompileOptions::default()).unwrap();
    assert!(matches!(
        kernel.parallel,
        ParallelSpec::Stencil { h: 8, w: 8 }
    ));
    // Same instance count, but no grid to take the window's extent from.
    kernel.parallel = ParallelSpec::Vector { n: 64 };
    let grid = Tensor::filled(1.0, Shape::matrix(8, 8));
    (kernel, HashMap::from([("grid".to_string(), grid)]))
}

fn unscheduled_malformed_instruction() -> Case {
    let (mut kernel, inputs) = reduction();
    let ib = &mut kernel.ibs[0];
    let mut instructions = ib.block.instructions().to_vec();
    instructions.push(Instruction::ReduceSum {
        src: Addr::Mem(0),
        dst: vaddr::output_slot(999),
    });
    ib.block = InstructionBlock::from_instructions(ib.block.name(), instructions);
    (kernel, inputs)
}

fn shift_of_a_word_or_more() -> Case {
    let (mut kernel, inputs) = kmeans();
    mutate_first(&mut kernel, |_, inst| match inst {
        Instruction::Mov { src, dst } => Some(Instruction::ShiftR {
            src,
            dst,
            amount: 32,
        }),
        _ => None,
    });
    (kernel, inputs)
}

fn format_past_thirty_fraction_bits() -> Case {
    let (mut kernel, inputs) = kmeans();
    kernel.format = QFormat(31);
    (kernel, inputs)
}

/// Blackscholes, an element-wise kernel, declared a stencil whose
/// `h × w` grid overflows a `usize` (it would wrap to 0 instances).
fn stencil_grid_past_usize() -> Case {
    let w = imp_workloads::workload("blackscholes").expect("known workload");
    let mut kernel = w.compile(64, OptPolicy::MaxDlp).expect("compiles");
    let side = 1 << (usize::BITS / 2);
    kernel.parallel = ParallelSpec::Stencil { h: side, w: side };
    (kernel, w.inputs(64, 1))
}

/// A named way to build a case.
type Named = (&'static str, fn() -> Case);

/// Every mutation in this file.
const MUTATIONS: &[Named] = &[
    ("movg_to_a_missing_ib", movg_to_a_missing_ib),
    (
        "movg_from_a_row_past_the_array",
        movg_from_a_row_past_the_array,
    ),
    ("movg_to_an_output_slot", movg_to_an_output_slot),
    ("movg_from_another_ib", movg_from_another_ib),
    ("movg_to_its_own_ib", movg_to_its_own_ib),
    ("reduce_to_a_missing_slot", reduce_to_a_missing_slot),
    ("reduce_to_an_undeclared_slot", reduce_to_an_undeclared_slot),
    (
        "local_operand_row_past_the_array",
        local_operand_row_past_the_array,
    ),
    (
        "local_operand_register_past_the_file",
        local_operand_register_past_the_file,
    ),
    ("input_row_past_the_array", input_row_past_the_array),
    ("two_inputs_loading_one_row", two_inputs_loading_one_row),
    ("output_row_past_the_array", output_row_past_the_array),
    ("output_from_a_missing_ib", output_from_a_missing_ib),
    (
        "output_slot_past_the_address_space",
        output_slot_past_the_address_space,
    ),
    (
        "output_mixing_reduced_and_row_locs",
        output_mixing_reduced_and_row_locs,
    ),
    (
        "schedule_entry_past_its_block",
        schedule_entry_past_its_block,
    ),
    (
        "instruction_missing_from_the_schedule",
        instruction_missing_from_the_schedule,
    ),
    ("instruction_scheduled_twice", instruction_scheduled_twice),
    (
        "window_input_in_a_non_stencil_kernel",
        window_input_in_a_non_stencil_kernel,
    ),
    (
        "unscheduled_malformed_instruction",
        unscheduled_malformed_instruction,
    ),
    ("shift_of_a_word_or_more", shift_of_a_word_or_more),
    (
        "format_past_thirty_fraction_bits",
        format_past_thirty_fraction_bits,
    ),
    ("stencil_grid_past_usize", stencil_grid_past_usize),
];

fn run((kernel, inputs): &Case) -> Result<(), SimError> {
    Machine::new(SimConfig::functional())
        .run(kernel, inputs)
        .map(drop)
}

/// Asserts `run` refuses `case` as malformed, naming `rule`.
fn assert_malformed(case: Case, rule: &str) {
    match run(&case) {
        Err(SimError::MalformedKernel(msg)) => assert!(msg.contains(rule), "{msg}"),
        other => panic!("expected a malformed-kernel error, got {other:?}"),
    }
}

#[test]
fn unmutated_kernels_run() {
    run(&kmeans()).unwrap();
    run(&reduction()).unwrap();
}

#[test]
fn simulator_and_verifier_agree_on_every_mutation() {
    const STRUCTURAL: [&str; 4] = ["ISA01", "ISA02", "ISA03", "SCH04"];
    let unmutated: [Named; 2] = [("kmeans", kmeans), ("reduction", reduction)];
    for &(name, case) in MUTATIONS.iter().chain(&unmutated) {
        let case = case();
        let report = imp_verify::verify_kernel(&case.0);
        let structural = report.errors().find(|d| STRUCTURAL.contains(&d.rule));
        match (structural, run(&case)) {
            (Some(d), Err(SimError::MalformedKernel(msg))) => {
                assert!(msg.contains(d.rule), "{name}: `{msg}` does not name {d}")
            }
            (None, Ok(())) => {}
            (d, outcome) => panic!(
                "{name}: the verifier's first structural error is {d:?}, the simulator returns {outcome:?}"
            ),
        }
    }
}

#[test]
fn movg_to_a_missing_ib_is_a_typed_error() {
    assert_malformed(movg_to_a_missing_ib(), "ISA02");
}

#[test]
fn movg_from_a_row_past_the_array_is_a_typed_error() {
    assert_malformed(movg_from_a_row_past_the_array(), "ISA02");
}

#[test]
fn movg_to_an_output_slot_is_a_typed_error() {
    assert_malformed(movg_to_an_output_slot(), "ISA02");
}

#[test]
fn movg_from_another_ib_is_a_typed_error() {
    assert_malformed(movg_from_another_ib(), "ISA02");
}

#[test]
fn movg_to_its_own_ib_is_a_typed_error() {
    assert_malformed(movg_to_its_own_ib(), "ISA02");
}

#[test]
fn reduce_to_a_missing_slot_is_a_typed_error() {
    assert_malformed(reduce_to_a_missing_slot(), "ISA02");
}

#[test]
fn reduce_to_an_undeclared_slot_is_a_typed_error() {
    assert_malformed(reduce_to_an_undeclared_slot(), "ISA02");
}

#[test]
fn local_operand_row_past_the_array_is_a_typed_error() {
    assert_malformed(local_operand_row_past_the_array(), "ISA01");
}

#[test]
fn local_operand_register_past_the_file_is_a_typed_error() {
    assert_malformed(local_operand_register_past_the_file(), "ISA01");
}

#[test]
fn input_row_past_the_array_is_a_typed_error() {
    assert_malformed(input_row_past_the_array(), "ISA03");
}

#[test]
fn two_inputs_loading_one_row_is_a_typed_error() {
    assert_malformed(two_inputs_loading_one_row(), "ISA03");
}

#[test]
fn output_row_past_the_array_is_a_typed_error() {
    assert_malformed(output_row_past_the_array(), "ISA03");
}

#[test]
fn output_from_a_missing_ib_is_a_typed_error() {
    assert_malformed(output_from_a_missing_ib(), "ISA03");
}

#[test]
fn output_slot_past_the_address_space_is_a_typed_error() {
    assert_malformed(output_slot_past_the_address_space(), "ISA03");
}

#[test]
fn output_mixing_reduced_and_row_locs_is_a_typed_error() {
    assert_malformed(output_mixing_reduced_and_row_locs(), "ISA03");
}

#[test]
fn schedule_entry_past_its_block_is_a_typed_error() {
    assert_malformed(schedule_entry_past_its_block(), "SCH04");
}

#[test]
fn instruction_missing_from_the_schedule_is_a_typed_error() {
    assert_malformed(instruction_missing_from_the_schedule(), "SCH04");
}

#[test]
fn instruction_scheduled_twice_is_a_typed_error() {
    assert_malformed(instruction_scheduled_twice(), "SCH04");
}

#[test]
fn window_input_in_a_non_stencil_kernel_is_a_typed_error() {
    assert_malformed(window_input_in_a_non_stencil_kernel(), "ISA03");
}

#[test]
fn unscheduled_malformed_instruction_is_a_typed_error() {
    assert_malformed(unscheduled_malformed_instruction(), "ISA02");
}

#[test]
fn shift_of_a_word_or_more_is_a_typed_error() {
    assert_malformed(shift_of_a_word_or_more(), "ISA01");
}

#[test]
fn format_past_thirty_fraction_bits_is_a_typed_error() {
    assert_malformed(format_past_thirty_fraction_bits(), "ISA03");
}

#[test]
fn stencil_grid_past_usize_is_a_typed_error() {
    assert_malformed(stencil_grid_past_usize(), "ISA03");
}
