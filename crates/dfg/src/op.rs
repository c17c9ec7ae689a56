//! The node vocabulary: exactly the TensorFlow nodes of Table 2.

use crate::{Shape, Tensor};
use std::fmt;

/// Element-wise unary operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// `Abs` — absolute value.
    Abs,
    /// `Exp` — natural exponential.
    Exp,
    /// `Sqrt` — square root.
    Sqrt,
    /// `Square` — x².
    Square,
    /// `Sigmoid` — 1/(1+e⁻ˣ).
    Sigmoid,
    /// `Identity` — pass-through.
    Identity,
    /// `Neg` — negation (sugar for `0 - x`; lowered to `sub`).
    Neg,
}

impl UnaryOp {
    /// Reference (f64) semantics.
    pub fn apply(self, x: f64) -> f64 {
        match self {
            UnaryOp::Abs => x.abs(),
            UnaryOp::Exp => x.exp(),
            UnaryOp::Sqrt => x.sqrt(),
            UnaryOp::Square => x * x,
            UnaryOp::Sigmoid => 1.0 / (1.0 + (-x).exp()),
            UnaryOp::Identity => x,
            UnaryOp::Neg => -x,
        }
    }

    /// TensorFlow node name.
    pub fn name(self) -> &'static str {
        match self {
            UnaryOp::Abs => "Abs",
            UnaryOp::Exp => "Exp",
            UnaryOp::Sqrt => "Sqrt",
            UnaryOp::Square => "Square",
            UnaryOp::Sigmoid => "Sigmoid",
            UnaryOp::Identity => "Identity",
            UnaryOp::Neg => "Neg",
        }
    }
}

/// Element-wise binary operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    /// `Add`.
    Add,
    /// `Sub`.
    Sub,
    /// `Mul`.
    Mul,
    /// `Div` — true division.
    Div,
    /// `RealDiv` — TensorFlow's explicit real division (same reference
    /// semantics as `Div`).
    RealDiv,
    /// `FloorDiv` — division rounded toward negative infinity.
    FloorDiv,
    /// `Less` — 1.0 if `a < b` else 0.0 (condition values feed `Select`).
    Less,
}

impl BinaryOp {
    /// Reference (f64) semantics.
    pub fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            BinaryOp::Add => a + b,
            BinaryOp::Sub => a - b,
            BinaryOp::Mul => a * b,
            BinaryOp::Div | BinaryOp::RealDiv => a / b,
            BinaryOp::FloorDiv => (a / b).floor(),
            BinaryOp::Less => {
                if a < b {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }

    /// TensorFlow node name.
    pub fn name(self) -> &'static str {
        match self {
            BinaryOp::Add => "Add",
            BinaryOp::Sub => "Sub",
            BinaryOp::Mul => "Mul",
            BinaryOp::Div => "Div",
            BinaryOp::RealDiv => "RealDiv",
            BinaryOp::FloorDiv => "FloorDiv",
            BinaryOp::Less => "Less",
        }
    }
}

/// Axis reductions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReduceOp {
    /// `Sum` — sum along an axis.
    Sum,
    /// `ArgMin` — index of the minimum along an axis.
    ArgMin,
}

impl ReduceOp {
    /// TensorFlow node name.
    pub fn name(self) -> &'static str {
        match self {
            ReduceOp::Sum => "Sum",
            ReduceOp::ArgMin => "ArgMin",
        }
    }
}

/// A DFG node operation — the Table 2 vocabulary.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// `Const` — a compile-time constant.
    Const(Tensor),
    /// `Placeholder` — a non-persistent input fed at kernel launch.
    Placeholder {
        /// Feed name.
        name: String,
    },
    /// `Variable` — an input with persistent memory context, updatable
    /// across kernel invocations via `Assign`/`AssignAdd`.
    Variable {
        /// Variable name.
        name: String,
        /// Initial value (loaded at kernel launch).
        init: Tensor,
    },
    /// An element-wise unary node.
    Unary(UnaryOp),
    /// An element-wise binary node.
    Binary(BinaryOp),
    /// `Sum`/`ArgMin` along an axis.
    Reduce {
        /// The reduction.
        op: ReduceOp,
        /// Axis to reduce over.
        axis: usize,
    },
    /// `Select` — `cond[i] ? a[i] : b[i]` (compiled to selective moves).
    Select,
    /// `MatMul` — 2-D matrix product (restricted dimensionality, per the
    /// Table 2 footnote).
    MatMul,
    /// `Tensordot` — contraction of the last axis of the first operand
    /// with the first axis of the second (restricted form).
    Tensordot,
    /// `Conv2D` — 2-D convolution of a [H, W] input with a small filter,
    /// SAME zero padding (restricted form; filters are small for
    /// general-purpose kernels, §5.1).
    Conv2D,
    /// `ExpandDims` — insert a size-1 axis.
    ExpandDims {
        /// Insertion position.
        axis: usize,
    },
    /// `Reshape` — reinterpret with a new shape of equal element count.
    Reshape {
        /// Target shape.
        shape: Shape,
    },
    /// `Pack`/`Stack` — join n same-shaped tensors along a new axis.
    Pack {
        /// New axis position.
        axis: usize,
    },
    /// `Gather` — indexed read: `out[i] = params[indices[i]]` over the
    /// outermost axis.
    Gather,
    /// `Assign` — overwrite a `Variable`'s persistent value.
    Assign,
    /// `AssignAdd` — accumulate into a `Variable`'s persistent value.
    AssignAdd,
}

impl Op {
    /// The TensorFlow node name.
    pub fn name(&self) -> &'static str {
        match self {
            Op::Const(_) => "Const",
            Op::Placeholder { .. } => "Placeholder",
            Op::Variable { .. } => "Variable",
            Op::Unary(op) => op.name(),
            Op::Binary(op) => op.name(),
            Op::Reduce { op, .. } => op.name(),
            Op::Select => "Select",
            Op::MatMul => "MatMul",
            Op::Tensordot => "Tensordot",
            Op::Conv2D => "Conv2D",
            Op::ExpandDims { .. } => "ExpandDims",
            Op::Reshape { .. } => "Reshape",
            Op::Pack { .. } => "Pack",
            Op::Gather => "Gather",
            Op::Assign => "Assign",
            Op::AssignAdd => "AssignAdd",
        }
    }
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unary_semantics() {
        assert_eq!(UnaryOp::Abs.apply(-3.0), 3.0);
        assert_eq!(UnaryOp::Square.apply(-3.0), 9.0);
        assert_eq!(UnaryOp::Sqrt.apply(9.0), 3.0);
        assert!((UnaryOp::Sigmoid.apply(0.0) - 0.5).abs() < 1e-12);
        assert_eq!(UnaryOp::Identity.apply(7.0), 7.0);
        assert_eq!(UnaryOp::Neg.apply(7.0), -7.0);
        assert!((UnaryOp::Exp.apply(1.0) - std::f64::consts::E).abs() < 1e-12);
    }

    #[test]
    fn binary_semantics() {
        assert_eq!(BinaryOp::Add.apply(2.0, 3.0), 5.0);
        assert_eq!(BinaryOp::Sub.apply(2.0, 3.0), -1.0);
        assert_eq!(BinaryOp::Mul.apply(2.0, 3.0), 6.0);
        assert_eq!(BinaryOp::Div.apply(3.0, 2.0), 1.5);
        assert_eq!(BinaryOp::RealDiv.apply(3.0, 2.0), 1.5);
        assert_eq!(BinaryOp::FloorDiv.apply(7.0, 2.0), 3.0);
        assert_eq!(BinaryOp::FloorDiv.apply(-7.0, 2.0), -4.0);
        assert_eq!(BinaryOp::Less.apply(1.0, 2.0), 1.0);
        assert_eq!(BinaryOp::Less.apply(2.0, 1.0), 0.0);
    }

    #[test]
    fn names_match_table2() {
        assert_eq!(Op::Select.name(), "Select");
        assert_eq!(Op::Unary(UnaryOp::Sigmoid).name(), "Sigmoid");
        assert_eq!(Op::Binary(BinaryOp::FloorDiv).name(), "FloorDiv");
        assert_eq!(
            Op::Reduce {
                op: ReduceOp::ArgMin,
                axis: 0
            }
            .name(),
            "ArgMin"
        );
        assert_eq!(Op::Pack { axis: 0 }.name(), "Pack");
    }
}
