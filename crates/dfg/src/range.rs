//! Dynamic-range analysis via interval arithmetic.
//!
//! §2.3 of the paper: fixed point gives better accuracy than floating
//! point *provided overflow/underflow does not happen*, and the authors
//! "developed a testing tool that can calculate the dynamic range of the
//! input that assures the required precision". This module is that tool:
//! given value intervals for every input, it propagates intervals through
//! the DFG, checks each node against a candidate Q format, and recommends
//! the smallest fraction-bit count whose integer range fits every
//! intermediate value.

use crate::{BinaryOp, DfgError, Graph, NodeId, Op, ReduceOp, UnaryOp};
use imp_rram::QFormat;
use std::collections::HashMap;
use std::fmt;

/// A closed value interval `[lo, hi]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
}

impl Interval {
    /// Creates an interval.
    ///
    /// # Panics
    /// Panics if `lo > hi` or either bound is NaN.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(lo <= hi, "interval bounds inverted: [{lo}, {hi}]");
        assert!(!lo.is_nan() && !hi.is_nan(), "NaN interval bound");
        Interval { lo, hi }
    }

    /// The degenerate interval of a single value.
    pub fn point(value: f64) -> Self {
        Interval::new(value, value)
    }

    /// Largest absolute value in the interval.
    pub fn max_abs(self) -> f64 {
        self.lo.abs().max(self.hi.abs())
    }

    /// Whether every value of the interval is representable in `format`.
    pub fn fits(self, format: QFormat) -> bool {
        self.lo >= format.min_value() && self.hi <= format.max_value()
    }

    /// Builds an interval from possibly-NaN bound candidates by widening
    /// each NaN to the corresponding infinity. Indeterminate forms of
    /// interval arithmetic over unbounded operands (`0 · ∞`, `∞ − ∞`)
    /// must degrade to "unknown in this direction", never poison every
    /// downstream interval with NaN (which [`Interval::new`] rejects).
    fn from_candidates(candidates: impl IntoIterator<Item = f64>) -> Interval {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        let mut any = false;
        for c in candidates {
            if c.is_nan() {
                continue;
            }
            lo = lo.min(c);
            hi = hi.max(c);
            any = true;
        }
        if !any {
            return Interval::new(f64::NEG_INFINITY, f64::INFINITY);
        }
        Interval::new(lo, hi)
    }

    /// Interval sum.
    ///
    /// Named methods rather than the `std::ops` traits: `div` is
    /// fallible (zero-spanning divisors are a domain error), so the
    /// operator traits cannot model the family uniformly.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: Interval) -> Interval {
        Interval::from_candidates([self.lo + other.lo, self.hi + other.hi])
    }

    /// Interval difference.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, other: Interval) -> Interval {
        Interval::from_candidates([self.lo - other.hi, self.hi - other.lo])
    }

    /// Interval product (NaN-safe: `0 · ∞` candidates widen to infinity
    /// instead of poisoning the result).
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, other: Interval) -> Interval {
        Interval::from_candidates([
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        ])
    }

    /// Interval quotient.
    ///
    /// # Errors
    /// Returns [`DfgError::ZeroSpanDivisor`] when `other` contains zero —
    /// the quotient interval would be unbounded on both sides, so range
    /// analysis cannot certify any fixed-point format. The caller (range
    /// analysis) fills in the offending node.
    #[allow(clippy::should_implement_trait)]
    pub fn div(self, other: Interval) -> Result<Interval, DfgError> {
        if other.lo <= 0.0 && other.hi >= 0.0 {
            return Err(DfgError::ZeroSpanDivisor {
                node: None,
                lo: other.lo,
                hi: other.hi,
            });
        }
        let inv = Interval::from_candidates([1.0 / other.hi, 1.0 / other.lo]);
        Ok(self.mul(inv))
    }

    /// Smallest interval containing both operands.
    pub fn union(self, other: Interval) -> Interval {
        Interval::new(self.lo.min(other.lo), self.hi.max(other.hi))
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.lo, self.hi)
    }
}

/// Result of analysing a graph against declared input ranges.
#[derive(Debug, Clone)]
pub struct RangeReport {
    /// Interval inferred for each node.
    pub node_ranges: HashMap<NodeId, Interval>,
    /// Smallest fraction-bit count (largest precision) whose integer range
    /// holds every intermediate value, or `None` if even Q0 overflows.
    pub recommended_format: Option<QFormat>,
    /// Nodes that overflow the queried format (empty when it fits).
    pub overflows: Vec<NodeId>,
}

/// Analyses `graph` given `input_ranges` (keyed by placeholder/variable
/// name) and a candidate `format`.
///
/// # Errors
/// * [`DfgError::MissingRange`] if an input has no declared range;
/// * [`DfgError::NanConstant`] for a constant holding a NaN, which has no
///   interval;
/// * [`DfgError::ZeroSpanDivisor`] for a division whose divisor interval
///   contains zero, tagged with the offending node;
/// * [`DfgError::Domain`] for other operations whose interval operand
///   leaves the domain (sqrt of a negative interval).
pub fn analyze(
    graph: &Graph,
    input_ranges: &HashMap<String, Interval>,
    format: QFormat,
) -> Result<RangeReport, DfgError> {
    let mut ranges: HashMap<NodeId, Interval> = HashMap::new();
    for node in graph.nodes() {
        let get = |i: usize| ranges[&node.inputs()[i]];
        let interval = match node.op() {
            Op::Const(value) => {
                if value.data().iter().any(|v| v.is_nan()) {
                    return Err(DfgError::NanConstant(node.id()));
                }
                let lo = value.data().iter().copied().fold(f64::INFINITY, f64::min);
                let hi = value
                    .data()
                    .iter()
                    .copied()
                    .fold(f64::NEG_INFINITY, f64::max);
                if value.data().is_empty() {
                    Interval::point(0.0)
                } else {
                    Interval::new(lo, hi)
                }
            }
            Op::Placeholder { name } | Op::Variable { name, .. } => *input_ranges
                .get(name)
                .ok_or_else(|| DfgError::MissingRange(name.clone()))?,
            Op::Unary(op) => unary_interval(*op, get(0)).map_err(|e| at_node(e, node.id()))?,
            Op::Binary(op) => {
                binary_interval(*op, get(0), get(1)).map_err(|e| at_node(e, node.id()))?
            }
            Op::Reduce { op, axis } => {
                let x = get(0);
                let n = graph.node(node.inputs()[0])?.shape().dim(*axis) as f64;
                match op {
                    ReduceOp::Sum => Interval::new(x.lo * n, x.hi * n),
                    ReduceOp::ArgMin => Interval::new(0.0, (n - 1.0).max(0.0)),
                }
            }
            Op::Select => get(1).union(get(2)),
            Op::MatMul | Op::Tensordot => {
                let k = contraction_len(graph, node.id())?;
                get(0).mul(get(1)).mul(Interval::point(k as f64))
            }
            Op::Conv2D => {
                let filter_elems = graph.node(node.inputs()[1])?.shape().elems();
                get(0).mul(get(1)).mul(Interval::point(filter_elems as f64))
            }
            Op::ExpandDims { .. } | Op::Reshape { .. } | Op::Gather => get(0),
            Op::Pack { .. } => {
                let mut acc = get(0);
                for i in 1..node.inputs().len() {
                    acc = acc.union(get(i));
                }
                acc
            }
            Op::Assign => get(1),
            Op::AssignAdd => get(0).add(get(1)),
        };
        ranges.insert(node.id(), interval);
    }

    let overflows: Vec<NodeId> = graph
        .nodes()
        .iter()
        .filter(|n| !ranges[&n.id()].fits(format))
        .map(|n| n.id())
        .collect();

    // Recommend the most precise format that still fits everything.
    let worst = ranges.values().fold(0.0f64, |acc, r| acc.max(r.max_abs()));
    let recommended_format = (0..=30u8)
        .rev()
        .map(QFormat)
        .find(|q| worst <= q.max_value());

    Ok(RangeReport {
        node_ranges: ranges,
        recommended_format,
        overflows,
    })
}

/// Attaches the node being analysed to location-aware diagnostics that
/// bubbled up from bare interval arithmetic.
fn at_node(err: DfgError, id: NodeId) -> DfgError {
    match err {
        DfgError::ZeroSpanDivisor { node: None, lo, hi } => DfgError::ZeroSpanDivisor {
            node: Some(id),
            lo,
            hi,
        },
        other => other,
    }
}

fn contraction_len(graph: &Graph, id: NodeId) -> Result<usize, DfgError> {
    let node = graph.node(id)?;
    let lhs = graph.node(node.inputs()[0])?;
    Ok(*lhs.shape().dims().last().unwrap_or(&1))
}

fn unary_interval(op: UnaryOp, x: Interval) -> Result<Interval, DfgError> {
    Ok(match op {
        UnaryOp::Abs => {
            if x.lo >= 0.0 {
                x
            } else if x.hi <= 0.0 {
                Interval::new(-x.hi, -x.lo)
            } else {
                Interval::new(0.0, x.max_abs())
            }
        }
        UnaryOp::Exp => Interval::new(x.lo.exp(), x.hi.exp()),
        UnaryOp::Sqrt => {
            if x.lo < 0.0 {
                return Err(DfgError::Domain(format!("sqrt of interval {x}")));
            }
            Interval::new(x.lo.sqrt(), x.hi.sqrt())
        }
        UnaryOp::Square => {
            let m = x.max_abs();
            let lo = if x.lo <= 0.0 && x.hi >= 0.0 {
                0.0
            } else {
                x.lo.abs().min(x.hi.abs())
            };
            Interval::new(lo * lo, m * m)
        }
        UnaryOp::Sigmoid => Interval::new(1.0 / (1.0 + (-x.lo).exp()), 1.0 / (1.0 + (-x.hi).exp())),
        UnaryOp::Identity => x,
        UnaryOp::Neg => Interval::new(-x.hi, -x.lo),
    })
}

fn binary_interval(op: BinaryOp, a: Interval, b: Interval) -> Result<Interval, DfgError> {
    Ok(match op {
        BinaryOp::Add => a.add(b),
        BinaryOp::Sub => a.sub(b),
        BinaryOp::Mul => a.mul(b),
        BinaryOp::Div | BinaryOp::RealDiv => a.div(b)?,
        BinaryOp::FloorDiv => {
            let d = a.div(b)?;
            Interval::new(d.lo.floor(), d.hi.floor())
        }
        BinaryOp::Less => Interval::new(0.0, 1.0),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{GraphBuilder, Shape};

    fn ranges(pairs: &[(&str, f64, f64)]) -> HashMap<String, Interval> {
        pairs
            .iter()
            .map(|&(name, lo, hi)| (name.to_string(), Interval::new(lo, hi)))
            .collect()
    }

    #[test]
    fn interval_arithmetic() {
        let a = Interval::new(-2.0, 3.0);
        let b = Interval::new(1.0, 4.0);
        assert_eq!(a.add(b), Interval::new(-1.0, 7.0));
        assert_eq!(a.sub(b), Interval::new(-6.0, 2.0));
        assert_eq!(a.mul(b), Interval::new(-8.0, 12.0));
        assert_eq!(a.div(b).unwrap(), Interval::new(-2.0, 3.0));
        assert!(a.div(Interval::new(-1.0, 1.0)).is_err());
        assert_eq!(a.union(b), Interval::new(-2.0, 4.0));
        assert_eq!(a.max_abs(), 3.0);
    }

    #[test]
    fn propagates_through_graph() {
        let mut g = GraphBuilder::new();
        let x = g.placeholder("x", Shape::vector(4)).unwrap();
        let sq = g.square(x).unwrap();
        let one = g.scalar(1.0);
        let y = g.add(sq, one).unwrap();
        g.fetch(y);
        let graph = g.finish();
        let report = analyze(&graph, &ranges(&[("x", -3.0, 3.0)]), QFormat::Q16_16).unwrap();
        let r = report.node_ranges[&y];
        assert_eq!(r.lo, 1.0);
        assert_eq!(r.hi, 10.0);
        assert!(report.overflows.is_empty());
    }

    #[test]
    fn detects_overflow() {
        let mut g = GraphBuilder::new();
        let x = g.placeholder("x", Shape::vector(4)).unwrap();
        let sq = g.square(x).unwrap();
        let sq2 = g.square(sq).unwrap();
        g.fetch(sq2);
        let graph = g.finish();
        // x up to 100 → x⁴ up to 1e8, far beyond Q16.16's 32767.
        let report = analyze(&graph, &ranges(&[("x", -100.0, 100.0)]), QFormat::Q16_16).unwrap();
        assert!(report.overflows.contains(&sq2));
        // The recommendation trades fraction bits for range.
        let rec = report.recommended_format.unwrap();
        assert!(rec.frac_bits() < 16);
        assert!(rec.max_value() >= 1.0e8);
    }

    #[test]
    fn missing_range_reported() {
        let mut g = GraphBuilder::new();
        let x = g.placeholder("x", Shape::vector(1)).unwrap();
        g.fetch(x);
        let graph = g.finish();
        assert!(matches!(
            analyze(&graph, &HashMap::new(), QFormat::Q16_16),
            Err(DfgError::MissingRange(_))
        ));
    }

    #[test]
    fn division_domain_checked() {
        let mut g = GraphBuilder::new();
        let a = g.placeholder("a", Shape::vector(1)).unwrap();
        let b = g.placeholder("b", Shape::vector(1)).unwrap();
        let d = g.div(a, b).unwrap();
        g.fetch(d);
        let graph = g.finish();
        let bad = analyze(
            &graph,
            &ranges(&[("a", 0.0, 1.0), ("b", -1.0, 1.0)]),
            QFormat::Q16_16,
        );
        match bad {
            Err(DfgError::ZeroSpanDivisor { node, lo, hi }) => {
                assert_eq!(node, Some(d));
                assert_eq!((lo, hi), (-1.0, 1.0));
            }
            other => panic!("expected ZeroSpanDivisor, got {other:?}"),
        }
        let good = analyze(
            &graph,
            &ranges(&[("a", 0.0, 1.0), ("b", 0.5, 2.0)]),
            QFormat::Q16_16,
        )
        .unwrap();
        assert_eq!(good.node_ranges[&d], Interval::new(0.0, 2.0));
    }

    #[test]
    fn sqrt_domain_checked() {
        let mut g = GraphBuilder::new();
        let x = g.placeholder("x", Shape::vector(1)).unwrap();
        let s = g.sqrt(x).unwrap();
        g.fetch(s);
        let graph = g.finish();
        assert!(analyze(&graph, &ranges(&[("x", -1.0, 1.0)]), QFormat::Q16_16).is_err());
        assert!(analyze(&graph, &ranges(&[("x", 0.0, 4.0)]), QFormat::Q16_16).is_ok());
    }

    #[test]
    fn select_unions_branches() {
        let mut g = GraphBuilder::new();
        let x = g.placeholder("x", Shape::vector(2)).unwrap();
        let zero = g.scalar(0.0);
        let cond = g.less(x, zero).unwrap();
        let hundred = g.scalar(100.0);
        let s = g.select(cond, hundred, x).unwrap();
        g.fetch(s);
        let graph = g.finish();
        let report = analyze(&graph, &ranges(&[("x", -5.0, 5.0)]), QFormat::Q16_16).unwrap();
        assert_eq!(report.node_ranges[&s], Interval::new(-5.0, 100.0));
    }

    #[test]
    fn sigmoid_bounded() {
        let mut g = GraphBuilder::new();
        let x = g.placeholder("x", Shape::vector(2)).unwrap();
        let s = g.sigmoid(x).unwrap();
        g.fetch(s);
        let graph = g.finish();
        let report = analyze(&graph, &ranges(&[("x", -100.0, 100.0)]), QFormat::Q16_16).unwrap();
        let r = report.node_ranges[&s];
        assert!(r.lo >= 0.0 && r.hi <= 1.0);
    }

    #[test]
    fn nan_constant_is_a_typed_error() {
        let mut g = GraphBuilder::new();
        let x = g.placeholder("x", Shape::vector(4)).unwrap();
        let nan = g.scalar(f64::NAN);
        let y = g.add(x, nan).unwrap();
        g.fetch(y);
        let graph = g.finish();
        let err = analyze(&graph, &ranges(&[("x", 0.0, 1.0)]), QFormat::Q16_16).unwrap_err();
        assert_eq!(err, DfgError::NanConstant(nan));
    }
}
