//! Hand-built kernels whose instructions name an IB, row or reduction
//! slot the kernel does not have are typed errors from `Machine::run`,
//! never panics. Each mutation mirrors one the static verifier's `ISA02`
//! rule rejects; `Machine::run` does not verify, so it must refuse them
//! on its own.

use imp_compiler::module::vaddr;
use imp_compiler::{CompileOptions, CompiledKernel, OptPolicy};
use imp_dfg::{GraphBuilder, Shape, Tensor};
use imp_isa::{GlobalAddr, Instruction, InstructionBlock};
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
