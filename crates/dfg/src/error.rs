use crate::{NodeId, Shape};
use std::fmt;

/// Errors from graph construction, interpretation or range analysis.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DfgError {
    /// Two operand shapes were incompatible for the given operation.
    ShapeMismatch {
        /// The operation being built.
        op: String,
        /// Left/first operand shape.
        lhs: Shape,
        /// Right/second operand shape.
        rhs: Shape,
    },
    /// An axis argument was out of range for the operand rank.
    AxisOutOfRange {
        /// The offending axis.
        axis: usize,
        /// The operand rank.
        rank: usize,
    },
    /// A tensor was constructed with data that does not match its shape.
    DataShapeMismatch {
        /// Number of elements provided.
        len: usize,
        /// Number of elements the shape requires.
        expect: usize,
    },
    /// A referenced node does not exist in the graph.
    UnknownNode(NodeId),
    /// A placeholder was not fed before interpretation.
    MissingFeed(String),
    /// Two inputs with the same name were declared.
    DuplicateName(String),
    /// A reshape changed the element count.
    BadReshape {
        /// Source shape.
        from: Shape,
        /// Requested shape.
        to: Shape,
    },
    /// An operation received an argument outside its domain (e.g. sqrt of
    /// a negative interval during range analysis).
    Domain(String),
    /// Range analysis hit a division (or reciprocal) whose divisor
    /// interval spans zero: the quotient is unbounded on both sides, so no
    /// fixed-point format can be certified. Structured so tooling can
    /// point at the offending node instead of parsing a message.
    ZeroSpanDivisor {
        /// The dividing node, when the analysis knows it (interval
        /// arithmetic performed outside a graph walk reports `None`).
        node: Option<NodeId>,
        /// Divisor interval lower bound.
        lo: f64,
        /// Divisor interval upper bound.
        hi: f64,
    },
    /// Range analysis needs an input range that was not provided.
    MissingRange(String),
    /// Range analysis met a constant holding a NaN, which lies in no
    /// interval.
    NanConstant(NodeId),
}

impl fmt::Display for DfgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DfgError::ShapeMismatch { op, lhs, rhs } => {
                write!(f, "shape mismatch in {op}: {lhs} vs {rhs}")
            }
            DfgError::AxisOutOfRange { axis, rank } => {
                write!(f, "axis {axis} out of range for rank {rank}")
            }
            DfgError::DataShapeMismatch { len, expect } => {
                write!(
                    f,
                    "data length {len} does not match shape element count {expect}"
                )
            }
            DfgError::UnknownNode(id) => write!(f, "unknown node {id:?}"),
            DfgError::MissingFeed(name) => write!(f, "placeholder `{name}` was not fed"),
            DfgError::DuplicateName(name) => write!(f, "duplicate input name `{name}`"),
            DfgError::BadReshape { from, to } => {
                write!(f, "reshape from {from} to {to} changes element count")
            }
            DfgError::Domain(message) => write!(f, "domain error: {message}"),
            DfgError::ZeroSpanDivisor { node, lo, hi } => {
                write!(f, "division by an interval containing zero: [{lo}, {hi}]")?;
                if let Some(node) = node {
                    write!(f, " at {node:?}")?;
                }
                Ok(())
            }
            DfgError::MissingRange(name) => {
                write!(f, "no value range declared for input `{name}`")
            }
            DfgError::NanConstant(node) => write!(f, "constant {node} holds a NaN"),
        }
    }
}

impl std::error::Error for DfgError {}
