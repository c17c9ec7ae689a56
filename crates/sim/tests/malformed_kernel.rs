//! Hand-built kernels whose instructions (scheduled or not), input rows,
//! register preloads, outputs or schedule name an IB, row, register or
//! reduction slot the kernel does not have, or that read a window input
//! without a stencil grid, are typed errors from `Machine::run`, never
//! panics. `Machine::run` does not run the static verifier, so its one
//! pre-run pass refuses them before any instance group executes.

use imp_compiler::module::{vaddr, OutputLoc, RegBinding};
use imp_compiler::{CompileOptions, CompiledKernel, OptPolicy, ParallelSpec};
use imp_dfg::{GraphBuilder, Shape, Tensor};
use imp_isa::{Addr, GlobalAddr, Instruction, InstructionBlock};
use imp_sim::{Machine, SimConfig, SimError};
use std::collections::HashMap;

/// A workload kernel with more than one IB, and inputs for it.
fn workload(name: &str) -> (CompiledKernel, HashMap<String, Tensor>) {
    let w = imp_workloads::workload(name).expect("known workload");
    let kernel = w.compile(64, OptPolicy::MaxIlp).expect("compiles");
    (kernel, w.inputs(64, 1))
}

/// `sum(x)` over 64 instances: a kernel ending in a `reduce_sum`.
fn reduction() -> (CompiledKernel, HashMap<String, Tensor>) {
    let mut g = GraphBuilder::new();
    let x = g.placeholder("x", Shape::vector(64)).unwrap();
    let s = g.sum(x, 0).unwrap();
    g.fetch(s);
    let kernel = imp_compiler::compile(&g.finish(), &CompileOptions::default()).unwrap();
    let x = Tensor::filled(1.0, Shape::vector(64));
    (kernel, HashMap::from([("x".to_string(), x)]))
}

/// Rewrites the first instruction `rewrite` accepts, leaving the
/// schedule untouched.
fn mutate_first(kernel: &mut CompiledKernel, rewrite: impl Fn(Instruction) -> Option<Instruction>) {
    for ib in &mut kernel.ibs {
        let mut instructions = ib.block.instructions().to_vec();
        if let Some(pc) = instructions.iter().position(|&i| rewrite(i).is_some()) {
            instructions[pc] = rewrite(instructions[pc]).unwrap();
            ib.block = InstructionBlock::from_instructions(ib.block.name(), instructions);
            return;
        }
    }
    panic!("no instruction to mutate");
}

fn run(kernel: &CompiledKernel, inputs: &HashMap<String, Tensor>) -> Result<(), SimError> {
    Machine::new(SimConfig::functional())
        .run(kernel, inputs)
        .map(drop)
}

#[test]
fn unmutated_kernels_run() {
    let (kernel, inputs) = workload("kmeans");
    run(&kernel, &inputs).unwrap();
    let (kernel, inputs) = reduction();
    run(&kernel, &inputs).unwrap();
}

#[test]
fn movg_to_a_missing_ib_is_a_typed_error() {
    let (mut kernel, inputs) = workload("kmeans");
    let bad_ib = kernel.ibs.len() + 7;
    mutate_first(&mut kernel, |inst| match inst {
        Instruction::Movg { src, .. } => Some(Instruction::Movg {
            src,
            dst: vaddr::cross_ib(bad_ib, 0),
        }),
        _ => None,
    });
    let err = run(&kernel, &inputs).unwrap_err();
    assert!(matches!(err, SimError::MalformedKernel(_)), "{err}");
}

#[test]
fn movg_from_a_row_past_the_array_is_a_typed_error() {
    let (mut kernel, inputs) = workload("kmeans");
    mutate_first(&mut kernel, |inst| match inst {
        Instruction::Movg { src, dst } => Some(Instruction::Movg {
            src: GlobalAddr { row: 200, ..src },
            dst,
        }),
        _ => None,
    });
    let err = run(&kernel, &inputs).unwrap_err();
    assert!(matches!(err, SimError::MalformedKernel(_)), "{err}");
}

#[test]
fn movg_to_an_output_slot_is_a_typed_error() {
    let (mut kernel, inputs) = workload("kmeans");
    mutate_first(&mut kernel, |inst| match inst {
        Instruction::Movg { src, .. } => Some(Instruction::Movg {
            src,
            dst: vaddr::output_slot(0),
        }),
        _ => None,
    });
    let err = run(&kernel, &inputs).unwrap_err();
    assert!(matches!(err, SimError::MalformedKernel(_)), "{err}");
}

#[test]
fn reduce_to_a_missing_slot_is_a_typed_error() {
    let (mut kernel, inputs) = reduction();
    mutate_first(&mut kernel, |inst| match inst {
        Instruction::ReduceSum { src, .. } => Some(Instruction::ReduceSum {
            src,
            dst: vaddr::output_slot(999),
        }),
        _ => None,
    });
    let err = run(&kernel, &inputs).unwrap_err();
    assert!(matches!(err, SimError::MalformedKernel(_)), "{err}");
}

/// Asserts `run` refuses `kernel` as malformed, naming `what`.
fn assert_malformed(kernel: &CompiledKernel, inputs: &HashMap<String, Tensor>, what: &str) {
    match run(kernel, inputs) {
        Err(SimError::MalformedKernel(msg)) => assert!(msg.contains(what), "{msg}"),
        other => panic!("expected a malformed-kernel error, got {other:?}"),
    }
}

#[test]
fn local_operand_row_past_the_array_is_a_typed_error() {
    let (mut kernel, inputs) = workload("kmeans");
    mutate_first(&mut kernel, |inst| match inst {
        Instruction::Mov { dst, .. } => Some(Instruction::Mov {
            src: Addr::Mem(200),
            dst,
        }),
        _ => None,
    });
    assert_malformed(&kernel, &inputs, "operand m200");
}

#[test]
fn local_operand_register_past_the_file_is_a_typed_error() {
    let (mut kernel, inputs) = workload("kmeans");
    mutate_first(&mut kernel, |inst| match inst {
        Instruction::Mov { dst, .. } => Some(Instruction::Mov {
            src: Addr::Reg(200),
            dst,
        }),
        _ => None,
    });
    assert_malformed(&kernel, &inputs, "operand r200");
}

#[test]
fn input_row_past_the_array_is_a_typed_error() {
    let (mut kernel, inputs) = workload("kmeans");
    let ib = kernel
        .ibs
        .iter_mut()
        .find(|ib| !ib.input_rows.is_empty())
        .expect("kmeans loads inputs");
    ib.input_rows[0].0 = 200;
    assert_malformed(&kernel, &inputs, "input row m200");
}

#[test]
fn register_preload_past_the_file_is_a_typed_error() {
    let (mut kernel, inputs) = workload("kmeans");
    kernel.ibs[0].reg_preloads.push((200, RegBinding::Const(0)));
    assert_malformed(&kernel, &inputs, "register preload r200");
}

#[test]
fn output_row_past_the_array_is_a_typed_error() {
    let (mut kernel, inputs) = workload("kmeans");
    let loc = kernel
        .outputs
        .iter_mut()
        .flat_map(|o| o.locs.iter_mut())
        .find(|loc| matches!(loc, OutputLoc::Row { .. }))
        .expect("kmeans has per-instance outputs");
    let OutputLoc::Row { row, .. } = loc else {
        unreachable!()
    };
    *row = 200;
    assert_malformed(&kernel, &inputs, "names no IB row");
}

#[test]
fn output_from_a_missing_ib_is_a_typed_error() {
    let (mut kernel, inputs) = workload("kmeans");
    let bad_ib = kernel.ibs.len() + 3;
    let loc = kernel
        .outputs
        .iter_mut()
        .flat_map(|o| o.locs.iter_mut())
        .find(|loc| matches!(loc, OutputLoc::Row { .. }))
        .expect("kmeans has per-instance outputs");
    *loc = OutputLoc::Row { ib: bad_ib, row: 0 };
    assert_malformed(&kernel, &inputs, "names no IB row");
}

#[test]
fn schedule_entry_past_its_block_is_a_typed_error() {
    let (mut kernel, inputs) = workload("kmeans");
    let len = kernel.ibs[0].block.instructions().len();
    kernel.schedule.entries[0].ib = 0;
    kernel.schedule.entries[0].index = len + 5;
    assert_malformed(&kernel, &inputs, "scheduled instruction does not exist");
}

#[test]
fn window_input_in_a_non_stencil_kernel_is_a_typed_error() {
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
    let inputs = HashMap::from([("grid".to_string(), grid)]);
    assert_malformed(&kernel, &inputs, "window");
}

#[test]
fn unscheduled_malformed_instruction_is_a_typed_error() {
    let (mut kernel, inputs) = reduction();
    let ib = &mut kernel.ibs[0];
    let mut instructions = ib.block.instructions().to_vec();
    instructions.push(Instruction::ReduceSum {
        src: Addr::Mem(0),
        dst: vaddr::output_slot(999),
    });
    ib.block = InstructionBlock::from_instructions(ib.block.name(), instructions);
    assert_malformed(&kernel, &inputs, "names no reduction slot");
}
