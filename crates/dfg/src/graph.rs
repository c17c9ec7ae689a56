//! Graph construction with eager shape inference.

use crate::{BinaryOp, DfgError, Op, ReduceOp, Shape, Tensor, UnaryOp};
use std::collections::HashSet;
use std::fmt;

/// Identifies a node within one [`Graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// The node's index in the graph's topological node list.
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// One DFG node: an operation, its operand nodes and its inferred shape.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    id: NodeId,
    op: Op,
    inputs: Vec<NodeId>,
    shape: Shape,
}

impl Node {
    /// The node's id.
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// The operation.
    pub fn op(&self) -> &Op {
        &self.op
    }

    /// Operand node ids, in operand order.
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// The inferred result shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }
}

/// An immutable data-flow graph. Nodes are stored in topological order
/// (construction order), as in a TensorFlow GraphDef.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Graph {
    nodes: Vec<Node>,
    outputs: Vec<NodeId>,
    /// Explicit fetch names, parallel to `outputs` (`None` = unnamed).
    output_names: Vec<Option<String>>,
}

impl Graph {
    /// All nodes in topological order.
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// Looks up a node.
    ///
    /// # Errors
    /// Returns [`DfgError::UnknownNode`] for a stale id.
    pub fn node(&self, id: NodeId) -> Result<&Node, DfgError> {
        self.nodes.get(id.0).ok_or(DfgError::UnknownNode(id))
    }

    /// The fetched output nodes.
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// The explicit name attached to the `idx`-th output by
    /// [`GraphBuilder::fetch_as`], if any.
    pub fn output_name(&self, idx: usize) -> Option<&str> {
        self.output_names.get(idx)?.as_deref()
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Ids of nodes that consume `id` as an operand.
    pub fn consumers(&self, id: NodeId) -> Vec<NodeId> {
        self.nodes
            .iter()
            .filter(|n| n.inputs.contains(&id))
            .map(|n| n.id)
            .collect()
    }

    /// All variable names in declaration order.
    pub fn variable_names(&self) -> Vec<&str> {
        self.nodes
            .iter()
            .filter_map(|n| match &n.op {
                Op::Variable { name, .. } => Some(name.as_str()),
                _ => None,
            })
            .collect()
    }
}

/// Builds a [`Graph`] node by node, inferring and validating shapes
/// eagerly (so shape errors surface at the construction site).
#[derive(Debug, Default)]
pub struct GraphBuilder {
    graph: Graph,
    names: HashSet<String>,
}

impl GraphBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        GraphBuilder::default()
    }

    fn push(&mut self, op: Op, inputs: Vec<NodeId>, shape: Shape) -> NodeId {
        let id = NodeId(self.graph.nodes.len());
        self.graph.nodes.push(Node {
            id,
            op,
            inputs,
            shape,
        });
        id
    }

    fn shape_of(&self, id: NodeId) -> Result<Shape, DfgError> {
        Ok(self.graph.node(id)?.shape.clone())
    }

    fn claim_name(&mut self, name: &str) -> Result<(), DfgError> {
        if !self.names.insert(name.to_string()) {
            return Err(DfgError::DuplicateName(name.to_string()));
        }
        Ok(())
    }

    /// Declares a `Placeholder` input.
    ///
    /// # Errors
    /// Returns [`DfgError::DuplicateName`] if the name is taken.
    pub fn placeholder(&mut self, name: &str, shape: Shape) -> Result<NodeId, DfgError> {
        self.claim_name(name)?;
        Ok(self.push(
            Op::Placeholder {
                name: name.to_string(),
            },
            vec![],
            shape,
        ))
    }

    /// Declares a `Const` node.
    ///
    /// # Errors
    /// Infallible today; returns `Result` for uniformity with the other
    /// constructors.
    pub fn constant(&mut self, value: Tensor) -> Result<NodeId, DfgError> {
        let shape = value.shape().clone();
        Ok(self.push(Op::Const(value), vec![], shape))
    }

    /// Convenience scalar constant.
    pub fn scalar(&mut self, value: f64) -> NodeId {
        self.constant(Tensor::scalar(value))
            .expect("scalar constants are valid")
    }

    /// Declares a `Variable` with persistent state.
    ///
    /// # Errors
    /// Returns [`DfgError::DuplicateName`] if the name is taken.
    pub fn variable(&mut self, name: &str, init: Tensor) -> Result<NodeId, DfgError> {
        self.claim_name(name)?;
        let shape = init.shape().clone();
        Ok(self.push(
            Op::Variable {
                name: name.to_string(),
                init,
            },
            vec![],
            shape,
        ))
    }

    fn unary(&mut self, op: UnaryOp, x: NodeId) -> Result<NodeId, DfgError> {
        let shape = self.shape_of(x)?;
        Ok(self.push(Op::Unary(op), vec![x], shape))
    }

    fn binary(&mut self, op: BinaryOp, a: NodeId, b: NodeId) -> Result<NodeId, DfgError> {
        let sa = self.shape_of(a)?;
        let sb = self.shape_of(b)?;
        let shape = sa.broadcast(&sb).ok_or_else(|| DfgError::ShapeMismatch {
            op: op.name().to_string(),
            lhs: sa,
            rhs: sb,
        })?;
        Ok(self.push(Op::Binary(op), vec![a, b], shape))
    }

    /// `Abs` node.
    ///
    /// # Errors
    /// Returns an error if `x` is stale.
    pub fn abs(&mut self, x: NodeId) -> Result<NodeId, DfgError> {
        self.unary(UnaryOp::Abs, x)
    }

    /// `Exp` node.
    ///
    /// # Errors
    /// Returns an error if `x` is stale.
    pub fn exp(&mut self, x: NodeId) -> Result<NodeId, DfgError> {
        self.unary(UnaryOp::Exp, x)
    }

    /// `Sqrt` node.
    ///
    /// # Errors
    /// Returns an error if `x` is stale.
    pub fn sqrt(&mut self, x: NodeId) -> Result<NodeId, DfgError> {
        self.unary(UnaryOp::Sqrt, x)
    }

    /// `Square` node.
    ///
    /// # Errors
    /// Returns an error if `x` is stale.
    pub fn square(&mut self, x: NodeId) -> Result<NodeId, DfgError> {
        self.unary(UnaryOp::Square, x)
    }

    /// `Sigmoid` node.
    ///
    /// # Errors
    /// Returns an error if `x` is stale.
    pub fn sigmoid(&mut self, x: NodeId) -> Result<NodeId, DfgError> {
        self.unary(UnaryOp::Sigmoid, x)
    }

    /// `Identity` node.
    ///
    /// # Errors
    /// Returns an error if `x` is stale.
    pub fn identity(&mut self, x: NodeId) -> Result<NodeId, DfgError> {
        self.unary(UnaryOp::Identity, x)
    }

    /// `Neg` node.
    ///
    /// # Errors
    /// Returns an error if `x` is stale.
    pub fn neg(&mut self, x: NodeId) -> Result<NodeId, DfgError> {
        self.unary(UnaryOp::Neg, x)
    }

    /// `Add` node.
    ///
    /// # Errors
    /// Returns [`DfgError::ShapeMismatch`] for incompatible operands.
    pub fn add(&mut self, a: NodeId, b: NodeId) -> Result<NodeId, DfgError> {
        self.binary(BinaryOp::Add, a, b)
    }

    /// `Sub` node.
    ///
    /// # Errors
    /// Returns [`DfgError::ShapeMismatch`] for incompatible operands.
    pub fn sub(&mut self, a: NodeId, b: NodeId) -> Result<NodeId, DfgError> {
        self.binary(BinaryOp::Sub, a, b)
    }

    /// `Mul` node.
    ///
    /// # Errors
    /// Returns [`DfgError::ShapeMismatch`] for incompatible operands.
    pub fn mul(&mut self, a: NodeId, b: NodeId) -> Result<NodeId, DfgError> {
        self.binary(BinaryOp::Mul, a, b)
    }

    /// `Div` node.
    ///
    /// # Errors
    /// Returns [`DfgError::ShapeMismatch`] for incompatible operands.
    pub fn div(&mut self, a: NodeId, b: NodeId) -> Result<NodeId, DfgError> {
        self.binary(BinaryOp::Div, a, b)
    }

    /// `FloorDiv` node.
    ///
    /// # Errors
    /// Returns [`DfgError::ShapeMismatch`] for incompatible operands.
    pub fn floordiv(&mut self, a: NodeId, b: NodeId) -> Result<NodeId, DfgError> {
        self.binary(BinaryOp::FloorDiv, a, b)
    }

    /// `Less` node — produces a 0/1 condition tensor for [`Self::select`].
    ///
    /// # Errors
    /// Returns [`DfgError::ShapeMismatch`] for incompatible operands.
    pub fn less(&mut self, a: NodeId, b: NodeId) -> Result<NodeId, DfgError> {
        self.binary(BinaryOp::Less, a, b)
    }

    /// `Select` node — `cond[i] ? a[i] : b[i]`.
    ///
    /// # Errors
    /// Returns [`DfgError::ShapeMismatch`] if the three operands are not
    /// mutually compatible.
    pub fn select(&mut self, cond: NodeId, a: NodeId, b: NodeId) -> Result<NodeId, DfgError> {
        let sc = self.shape_of(cond)?;
        let sa = self.shape_of(a)?;
        let sb = self.shape_of(b)?;
        let value_shape = sa.broadcast(&sb).ok_or_else(|| DfgError::ShapeMismatch {
            op: "Select".into(),
            lhs: sa.clone(),
            rhs: sb.clone(),
        })?;
        let shape = sc.broadcast(&value_shape).ok_or(DfgError::ShapeMismatch {
            op: "Select".into(),
            lhs: sc,
            rhs: value_shape,
        })?;
        Ok(self.push(Op::Select, vec![cond, a, b], shape))
    }

    fn reduce(&mut self, op: ReduceOp, x: NodeId, axis: usize) -> Result<NodeId, DfgError> {
        let shape = self.shape_of(x)?;
        if axis >= shape.rank() {
            return Err(DfgError::AxisOutOfRange {
                axis,
                rank: shape.rank(),
            });
        }
        Ok(self.push(Op::Reduce { op, axis }, vec![x], shape.without_axis(axis)))
    }

    /// `Sum` along `axis`.
    ///
    /// # Errors
    /// Returns [`DfgError::AxisOutOfRange`] for a bad axis.
    pub fn sum(&mut self, x: NodeId, axis: usize) -> Result<NodeId, DfgError> {
        self.reduce(ReduceOp::Sum, x, axis)
    }

    /// `ArgMin` along `axis`.
    ///
    /// # Errors
    /// Returns [`DfgError::AxisOutOfRange`] for a bad axis.
    pub fn argmin(&mut self, x: NodeId, axis: usize) -> Result<NodeId, DfgError> {
        self.reduce(ReduceOp::ArgMin, x, axis)
    }

    /// `MatMul` of `[m, k] × [k, n]`.
    ///
    /// # Errors
    /// Returns [`DfgError::ShapeMismatch`] unless both operands are rank 2
    /// with matching inner dimension.
    pub fn matmul(&mut self, a: NodeId, b: NodeId) -> Result<NodeId, DfgError> {
        let sa = self.shape_of(a)?;
        let sb = self.shape_of(b)?;
        if sa.rank() != 2 || sb.rank() != 2 || sa.dim(1) != sb.dim(0) {
            return Err(DfgError::ShapeMismatch {
                op: "MatMul".into(),
                lhs: sa,
                rhs: sb,
            });
        }
        let shape = Shape::matrix(sa.dim(0), sb.dim(1));
        Ok(self.push(Op::MatMul, vec![a, b], shape))
    }

    /// `Tensordot` contracting the last axis of `a` with the first of `b`.
    ///
    /// # Errors
    /// Returns [`DfgError::ShapeMismatch`] if the contracted axes differ or
    /// either operand is a scalar.
    pub fn tensordot(&mut self, a: NodeId, b: NodeId) -> Result<NodeId, DfgError> {
        let sa = self.shape_of(a)?;
        let sb = self.shape_of(b)?;
        if sa.rank() == 0 || sb.rank() == 0 || sa.dims().last() != sb.dims().first() {
            return Err(DfgError::ShapeMismatch {
                op: "Tensordot".into(),
                lhs: sa,
                rhs: sb,
            });
        }
        let mut dims = sa.dims()[..sa.rank() - 1].to_vec();
        dims.extend_from_slice(&sb.dims()[1..]);
        Ok(self.push(Op::Tensordot, vec![a, b], Shape::new(dims)))
    }

    /// `Conv2D` of a `[h, w]` input with a `[fh, fw]` filter, SAME zero
    /// padding, stride 1.
    ///
    /// # Errors
    /// Returns [`DfgError::ShapeMismatch`] unless both operands are rank 2.
    pub fn conv2d(&mut self, input: NodeId, filter: NodeId) -> Result<NodeId, DfgError> {
        let si = self.shape_of(input)?;
        let sf = self.shape_of(filter)?;
        if si.rank() != 2 || sf.rank() != 2 {
            return Err(DfgError::ShapeMismatch {
                op: "Conv2D".into(),
                lhs: si,
                rhs: sf,
            });
        }
        let shape = si.clone();
        Ok(self.push(Op::Conv2D, vec![input, filter], shape))
    }

    /// `ExpandDims` at `axis`.
    ///
    /// # Errors
    /// Returns [`DfgError::AxisOutOfRange`] if `axis > rank`.
    pub fn expand_dims(&mut self, x: NodeId, axis: usize) -> Result<NodeId, DfgError> {
        let shape = self.shape_of(x)?;
        if axis > shape.rank() {
            return Err(DfgError::AxisOutOfRange {
                axis,
                rank: shape.rank(),
            });
        }
        let out = shape.with_axis(axis, 1);
        Ok(self.push(Op::ExpandDims { axis }, vec![x], out))
    }

    /// `Reshape` to `shape`.
    ///
    /// # Errors
    /// Returns [`DfgError::BadReshape`] if element counts differ.
    pub fn reshape(&mut self, x: NodeId, shape: Shape) -> Result<NodeId, DfgError> {
        let from = self.shape_of(x)?;
        if from.elems() != shape.elems() {
            return Err(DfgError::BadReshape { from, to: shape });
        }
        Ok(self.push(
            Op::Reshape {
                shape: shape.clone(),
            },
            vec![x],
            shape,
        ))
    }

    /// `Pack`/`Stack`: joins same-shaped tensors along a new axis.
    ///
    /// # Errors
    /// Returns [`DfgError::ShapeMismatch`] if the operands differ in shape
    /// or the list is empty, [`DfgError::AxisOutOfRange`] for a bad axis.
    pub fn pack(&mut self, xs: &[NodeId], axis: usize) -> Result<NodeId, DfgError> {
        let first = xs.first().ok_or_else(|| DfgError::ShapeMismatch {
            op: "Pack".into(),
            lhs: Shape::scalar(),
            rhs: Shape::scalar(),
        })?;
        let shape = self.shape_of(*first)?;
        for &x in &xs[1..] {
            let s = self.shape_of(x)?;
            if s != shape {
                return Err(DfgError::ShapeMismatch {
                    op: "Pack".into(),
                    lhs: shape,
                    rhs: s,
                });
            }
        }
        if axis > shape.rank() {
            return Err(DfgError::AxisOutOfRange {
                axis,
                rank: shape.rank(),
            });
        }
        let out = shape.with_axis(axis, xs.len());
        Ok(self.push(Op::Pack { axis }, xs.to_vec(), out))
    }

    /// `Gather` over the outermost axis of `params`.
    ///
    /// # Errors
    /// Returns [`DfgError::ShapeMismatch`] if `params` is a scalar.
    pub fn gather(&mut self, params: NodeId, indices: NodeId) -> Result<NodeId, DfgError> {
        let sp = self.shape_of(params)?;
        let si = self.shape_of(indices)?;
        if sp.rank() == 0 {
            return Err(DfgError::ShapeMismatch {
                op: "Gather".into(),
                lhs: sp,
                rhs: si,
            });
        }
        let mut dims = si.dims().to_vec();
        dims.extend_from_slice(&sp.dims()[1..]);
        Ok(self.push(Op::Gather, vec![params, indices], Shape::new(dims)))
    }

    /// `Assign`: overwrite variable `var` with `value`.
    ///
    /// # Errors
    /// Returns [`DfgError::ShapeMismatch`] unless `var` is a `Variable`
    /// node of the same shape as `value`.
    pub fn assign(&mut self, var: NodeId, value: NodeId) -> Result<NodeId, DfgError> {
        self.assign_impl(Op::Assign, var, value)
    }

    /// `AssignAdd`: accumulate `value` into variable `var`.
    ///
    /// # Errors
    /// Returns [`DfgError::ShapeMismatch`] unless `var` is a `Variable`
    /// node of the same shape as `value`.
    pub fn assign_add(&mut self, var: NodeId, value: NodeId) -> Result<NodeId, DfgError> {
        self.assign_impl(Op::AssignAdd, var, value)
    }

    fn assign_impl(&mut self, op: Op, var: NodeId, value: NodeId) -> Result<NodeId, DfgError> {
        let var_node = self.graph.node(var)?;
        let is_variable = matches!(var_node.op, Op::Variable { .. });
        let sv = var_node.shape.clone();
        let sx = self.shape_of(value)?;
        if !is_variable || !sv.compatible(&sx) {
            return Err(DfgError::ShapeMismatch {
                op: op.name().into(),
                lhs: sv,
                rhs: sx,
            });
        }
        Ok(self.push(op, vec![var, value], sv))
    }

    /// Marks a node as a fetched output.
    pub fn fetch(&mut self, id: NodeId) {
        if !self.graph.outputs.contains(&id) {
            self.graph.outputs.push(id);
            self.graph.output_names.push(None);
        }
    }

    /// Marks a node as a fetched output addressable by `name` (see
    /// `SessionOutputs::by_name` in the `imp` crate). Re-fetching an
    /// already-fetched node attaches the name to the existing output
    /// slot. Names are not checked for uniqueness here — an ambiguous
    /// name surfaces as an error at lookup time.
    pub fn fetch_as(&mut self, name: &str, id: NodeId) {
        if let Some(idx) = self.graph.outputs.iter().position(|&o| o == id) {
            self.graph.output_names[idx] = Some(name.to_string());
        } else {
            self.graph.outputs.push(id);
            self.graph.output_names.push(Some(name.to_string()));
        }
    }

    /// Finishes construction.
    pub fn finish(self) -> Graph {
        self.graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_simple_graph() {
        let mut g = GraphBuilder::new();
        let x = g.placeholder("x", Shape::vector(8)).unwrap();
        let y = g.placeholder("y", Shape::vector(8)).unwrap();
        let s = g.add(x, y).unwrap();
        let two = g.scalar(2.0);
        let t = g.mul(s, two).unwrap();
        g.fetch(t);
        let graph = g.finish();
        assert_eq!(graph.len(), 5);
        assert_eq!(graph.outputs(), &[t]);
        assert_eq!(graph.node(t).unwrap().shape(), &Shape::vector(8));
        assert_eq!(graph.consumers(s), vec![t]);
    }

    #[test]
    fn shape_errors() {
        let mut g = GraphBuilder::new();
        let a = g.placeholder("a", Shape::vector(4)).unwrap();
        let b = g.placeholder("b", Shape::vector(5)).unwrap();
        assert!(matches!(g.add(a, b), Err(DfgError::ShapeMismatch { .. })));
        assert!(matches!(g.sum(a, 1), Err(DfgError::AxisOutOfRange { .. })));
        assert!(matches!(
            g.placeholder("a", Shape::scalar()),
            Err(DfgError::DuplicateName(_))
        ));
    }

    #[test]
    fn matmul_shapes() {
        let mut g = GraphBuilder::new();
        let a = g.placeholder("a", Shape::matrix(3, 4)).unwrap();
        let b = g.placeholder("b", Shape::matrix(4, 5)).unwrap();
        let c = g.matmul(a, b).unwrap();
        assert_eq!(g.finish().node(c).unwrap().shape(), &Shape::matrix(3, 5));
    }

    #[test]
    fn matmul_requires_inner_match() {
        let mut g = GraphBuilder::new();
        let a = g.placeholder("a", Shape::matrix(3, 4)).unwrap();
        let b = g.placeholder("b", Shape::matrix(5, 6)).unwrap();
        assert!(g.matmul(a, b).is_err());
    }

    #[test]
    fn reduction_shapes() {
        let mut g = GraphBuilder::new();
        let x = g.placeholder("x", Shape::new(vec![2, 3, 4])).unwrap();
        let s = g.sum(x, 1).unwrap();
        let m = g.argmin(x, 0).unwrap();
        let graph = g.finish();
        assert_eq!(graph.node(s).unwrap().shape(), &Shape::new(vec![2, 4]));
        assert_eq!(graph.node(m).unwrap().shape(), &Shape::new(vec![3, 4]));
    }

    #[test]
    fn select_and_less() {
        let mut g = GraphBuilder::new();
        let x = g.placeholder("x", Shape::vector(4)).unwrap();
        let zero = g.scalar(0.0);
        let cond = g.less(x, zero).unwrap();
        let nx = g.neg(x).unwrap();
        let abs = g.select(cond, nx, x).unwrap();
        assert_eq!(g.finish().node(abs).unwrap().shape(), &Shape::vector(4));
    }

    #[test]
    fn pack_gather_reshape() {
        let mut g = GraphBuilder::new();
        let a = g.placeholder("a", Shape::vector(4)).unwrap();
        let b = g.placeholder("b", Shape::vector(4)).unwrap();
        let p = g.pack(&[a, b], 0).unwrap();
        let r = g.reshape(p, Shape::vector(8)).unwrap();
        let idx = g
            .constant(Tensor::from_vec(vec![0.0, 3.0], Shape::vector(2)).unwrap())
            .unwrap();
        let got = g.gather(r, idx).unwrap();
        let graph = g.finish();
        assert_eq!(graph.node(p).unwrap().shape(), &Shape::matrix(2, 4));
        assert_eq!(graph.node(got).unwrap().shape(), &Shape::vector(2));
    }

    #[test]
    fn variables_and_assign() {
        let mut g = GraphBuilder::new();
        let v = g.variable("w", Tensor::zeros(Shape::vector(4))).unwrap();
        let x = g.placeholder("x", Shape::vector(4)).unwrap();
        let upd = g.assign_add(v, x).unwrap();
        g.fetch(upd);
        let graph = g.finish();
        assert_eq!(graph.variable_names(), vec!["w"]);
        // Assign to a non-variable is rejected.
        let mut g2 = GraphBuilder::new();
        let a = g2.placeholder("a", Shape::vector(4)).unwrap();
        let b = g2.placeholder("b", Shape::vector(4)).unwrap();
        let s = g2.add(a, b).unwrap();
        assert!(g2.assign(s, a).is_err());
    }

    #[test]
    fn tensordot_shapes() {
        let mut g = GraphBuilder::new();
        let a = g.placeholder("a", Shape::new(vec![2, 3])).unwrap();
        let b = g.placeholder("b", Shape::new(vec![3, 5])).unwrap();
        let t = g.tensordot(a, b).unwrap();
        assert_eq!(g.finish().node(t).unwrap().shape(), &Shape::new(vec![2, 5]));
    }

    #[test]
    fn conv2d_same_shape() {
        let mut g = GraphBuilder::new();
        let x = g.placeholder("x", Shape::matrix(8, 8)).unwrap();
        let f = g
            .constant(Tensor::filled(1.0 / 9.0, Shape::matrix(3, 3)))
            .unwrap();
        let y = g.conv2d(x, f).unwrap();
        assert_eq!(g.finish().node(y).unwrap().shape(), &Shape::matrix(8, 8));
    }

    #[test]
    fn fetch_deduplicates() {
        let mut g = GraphBuilder::new();
        let x = g.placeholder("x", Shape::vector(1)).unwrap();
        g.fetch(x);
        g.fetch(x);
        assert_eq!(g.finish().outputs().len(), 1);
    }
}
