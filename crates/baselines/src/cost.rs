//! Per-instance operation and byte counting over DFG kernels.

use imp_dfg::{BinaryOp, Graph, Op, UnaryOp};
use std::collections::HashMap;

/// Operation classes for the device models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpClass {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
    /// Division.
    Div,
    /// Square root.
    Sqrt,
    /// Exponential.
    Exp,
    /// Sigmoid.
    Sigmoid,
    /// Comparison.
    Compare,
    /// Predicated select.
    Select,
    /// Absolute value.
    Abs,
    /// Register/memory move.
    Move,
    /// Multiply-accumulate against shared weights (matmul/conv/dot).
    MacShared,
    /// Reduction element.
    Reduce,
}

/// Per-module-instance resource cost of a kernel.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct KernelCost {
    /// Operations per instance by class.
    pub ops: HashMap<OpClass, f64>,
    /// Input bytes per instance (f32 on the baselines).
    pub bytes_in: f64,
    /// Output bytes per instance.
    pub bytes_out: f64,
}

/// Counts per-instance work in `graph`, assuming the last axis of each
/// tensor is the data-parallel dimension (a grid for conv kernels).
pub fn analyze(graph: &Graph) -> KernelCost {
    // Parallel length: the largest trailing dim of any runtime input (or
    // grid element count for stencil kernels).
    let mut n = 1usize;
    let mut stencil = false;
    for node in graph.nodes() {
        if matches!(node.op(), Op::Conv2D) {
            let input = graph.node(node.inputs()[0]).expect("conv input");
            n = input.shape().elems();
            stencil = true;
        }
    }
    if !stencil {
        for node in graph.nodes() {
            if matches!(node.op(), Op::Placeholder { .. } | Op::Variable { .. })
                && node.shape().rank() >= 1
            {
                n = n.max(*node.shape().dims().last().expect("rank >= 1"));
            }
        }
    }
    let n = n.max(1);
    let per_instance = |elems: usize, shape_last_is_n: bool| -> f64 {
        if shape_last_is_n {
            elems as f64 / n as f64
        } else {
            // Shared work amortizes across instances.
            0.0
        }
    };

    let mut cost = KernelCost::default();
    let mut add = |class: OpClass, amount: f64| {
        *cost.ops.entry(class).or_insert(0.0) += amount;
    };

    for node in graph.nodes() {
        let elems = node.shape().elems();
        let parallel = if stencil {
            node.shape().elems() == n
        } else {
            node.shape().rank() >= 1 && *node.shape().dims().last().unwrap_or(&1) == n
        };
        let k = per_instance(elems, parallel);
        match node.op() {
            Op::Placeholder { .. } | Op::Variable { .. } if parallel => {
                cost.bytes_in += 4.0 * k;
            }
            Op::Unary(op) => {
                let class = match op {
                    UnaryOp::Abs => OpClass::Abs,
                    UnaryOp::Exp => OpClass::Exp,
                    UnaryOp::Sqrt => OpClass::Sqrt,
                    UnaryOp::Square => OpClass::Mul,
                    UnaryOp::Sigmoid => OpClass::Sigmoid,
                    UnaryOp::Identity => OpClass::Move,
                    UnaryOp::Neg => OpClass::Sub,
                };
                add(class, k);
            }
            Op::Binary(op) => {
                let class = match op {
                    BinaryOp::Add => OpClass::Add,
                    BinaryOp::Sub => OpClass::Sub,
                    BinaryOp::Mul => OpClass::Mul,
                    BinaryOp::Div | BinaryOp::RealDiv | BinaryOp::FloorDiv => OpClass::Div,
                    BinaryOp::Less => OpClass::Compare,
                };
                add(class, k);
            }
            Op::Select => add(OpClass::Select, k),
            Op::Reduce { .. } => {
                let input = graph.node(node.inputs()[0]).expect("reduce input");
                let in_parallel = if stencil {
                    input.shape().elems() == n
                } else {
                    input.shape().rank() >= 1 && *input.shape().dims().last().unwrap_or(&1) == n
                };
                add(
                    OpClass::Reduce,
                    per_instance(input.shape().elems(), in_parallel),
                );
            }
            Op::MatMul | Op::Tensordot => {
                let lhs = graph.node(node.inputs()[0]).expect("matmul lhs");
                let contraction = *lhs.shape().dims().last().unwrap_or(&1);
                add(OpClass::MacShared, k * contraction as f64);
            }
            Op::Conv2D => {
                let filter = graph.node(node.inputs()[1]).expect("conv filter");
                add(OpClass::MacShared, k * filter.shape().elems() as f64);
            }
            _ => {}
        }
    }
    // Outputs stream back.
    for &out in graph.outputs() {
        let node = graph.node(out).expect("output node");
        let parallel = if stencil {
            node.shape().elems() == n
        } else {
            node.shape().rank() >= 1 && *node.shape().dims().last().unwrap_or(&1) == n
        };
        cost.bytes_out += 4.0 * per_instance(node.shape().elems(), parallel);
    }
    cost
}

#[cfg(test)]
mod tests {
    use super::*;
    use imp_dfg::{GraphBuilder, Shape};

    #[test]
    fn counts_elementwise_kernel() {
        let mut g = GraphBuilder::new();
        let x = g.placeholder("x", Shape::new(vec![2, 1000])).unwrap();
        let sq = g.square(x).unwrap();
        let s = g.sum(sq, 0).unwrap();
        g.fetch(s);
        let graph = g.finish();
        let cost = analyze(&graph);
        assert_eq!(cost.ops[&OpClass::Mul], 2.0);
        assert_eq!(cost.ops[&OpClass::Reduce], 2.0);
        assert_eq!(cost.bytes_in, 8.0);
        assert_eq!(cost.bytes_out, 4.0);
    }

    #[test]
    fn counts_matmul_macs() {
        let mut g = GraphBuilder::new();
        let w = g
            .constant(imp_dfg::Tensor::zeros(Shape::matrix(8, 16)))
            .unwrap();
        let x = g.placeholder("x", Shape::matrix(16, 500)).unwrap();
        let y = g.matmul(w, x).unwrap();
        g.fetch(y);
        let cost = analyze(&g.finish());
        // 8 outputs × 16 MACs each per instance.
        assert_eq!(cost.ops[&OpClass::MacShared], 128.0);
        assert_eq!(cost.bytes_in, 64.0);
        assert_eq!(cost.bytes_out, 32.0);
    }

    #[test]
    fn stencil_kernels_count_per_pixel() {
        let mut g = GraphBuilder::new();
        let t = g.placeholder("t", Shape::matrix(32, 32)).unwrap();
        let f = g
            .constant(imp_dfg::Tensor::filled(1.0, Shape::matrix(3, 3)))
            .unwrap();
        let c = g.conv2d(t, f).unwrap();
        let out = g.add(c, t).unwrap();
        g.fetch(out);
        let cost = analyze(&g.finish());
        assert_eq!(cost.ops[&OpClass::MacShared], 9.0);
        assert_eq!(cost.ops[&OpClass::Add], 1.0);
        assert_eq!(cost.bytes_in, 4.0);
    }
}
