//! Reference (host, f64) interpreter for data-flow graphs.
//!
//! The interpreter provides golden outputs against which the compiled
//! in-memory execution is validated, exactly as the paper validates kernels
//! against native TensorFlow execution (§3: "programmers can easily
//! validate the functionality of the kernel").

use crate::{BinaryOp, DfgError, Graph, Node, NodeId, Op, ReduceOp, Shape, Tensor};
use std::collections::HashMap;

/// Evaluates a [`Graph`] with TensorFlow reference semantics.
///
/// Feeds supply placeholder values; variables keep persistent state across
/// [`Interpreter::run`] calls (the persistent memory context of §3).
#[derive(Debug)]
pub struct Interpreter<'g> {
    graph: &'g Graph,
    feeds: HashMap<String, Tensor>,
    variables: HashMap<String, Tensor>,
}

impl<'g> Interpreter<'g> {
    /// Creates an interpreter with variables at their initial values.
    pub fn new(graph: &'g Graph) -> Self {
        let mut variables = HashMap::new();
        for node in graph.nodes() {
            if let Op::Variable { name, init } = node.op() {
                variables.insert(name.clone(), init.clone());
            }
        }
        Interpreter {
            graph,
            feeds: HashMap::new(),
            variables,
        }
    }

    /// Supplies a placeholder value.
    pub fn feed(&mut self, name: &str, value: Tensor) -> &mut Self {
        self.feeds.insert(name.to_string(), value);
        self
    }

    /// Current value of a variable.
    pub fn variable(&self, name: &str) -> Option<&Tensor> {
        self.variables.get(name)
    }

    /// Overwrites a variable's value, e.g. to mirror an external
    /// execution's evolved persistent state before a golden replay.
    pub fn set_variable(&mut self, name: &str, value: Tensor) -> &mut Self {
        self.variables.insert(name.to_string(), value);
        self
    }

    /// Evaluates the whole graph and returns the fetched outputs.
    ///
    /// # Errors
    /// Returns [`DfgError::MissingFeed`] for unfed placeholders and
    /// propagates shape errors from ill-formed constant tensors.
    pub fn run(&mut self) -> Result<HashMap<NodeId, Tensor>, DfgError> {
        let values = self.run_all()?;
        Ok(self
            .graph
            .outputs()
            .iter()
            .map(|&id| (id, values[&id].clone()))
            .collect())
    }

    /// Evaluates the whole graph and returns every node's value (useful
    /// for compiler debugging).
    ///
    /// # Errors
    /// Same as [`Interpreter::run`].
    pub fn run_all(&mut self) -> Result<HashMap<NodeId, Tensor>, DfgError> {
        let mut values: HashMap<NodeId, Tensor> = HashMap::new();
        for node in self.graph.nodes() {
            let value = self.eval(node, &values)?;
            values.insert(node.id(), value);
        }
        Ok(values)
    }

    fn eval(&mut self, node: &Node, values: &HashMap<NodeId, Tensor>) -> Result<Tensor, DfgError> {
        let input = |i: usize| -> &Tensor { &values[&node.inputs()[i]] };
        match node.op() {
            Op::Const(value) => Ok(value.clone()),
            Op::Placeholder { name } => self
                .feeds
                .get(name)
                .cloned()
                .ok_or_else(|| DfgError::MissingFeed(name.clone())),
            Op::Variable { name, .. } => Ok(self.variables[name].clone()),
            Op::Unary(op) => Ok(input(0).map(|x| op.apply(x))),
            Op::Binary(op) => apply_binary(*op, input(0), input(1)),
            Op::Reduce { op, axis } => Ok(reduce(*op, input(0), *axis)),
            Op::Select => {
                let cond = input(0);
                let a = input(1);
                let b = input(2);
                let picked = a.zip(b, |x, _| x)?; // shape carrier
                let shape = picked.shape().clone();
                let n = shape.elems();
                let pick = |t: &Tensor, i: usize| {
                    let len = t.data().len();
                    if len == n {
                        t.data()[i]
                    } else if len == 1 {
                        t.data()[0]
                    } else {
                        t.data()[i / (n / len)]
                    }
                };
                let data = (0..n)
                    .map(|i| {
                        if pick(cond, i) != 0.0 {
                            pick(a, i)
                        } else {
                            pick(b, i)
                        }
                    })
                    .collect();
                Tensor::from_vec(data, shape)
            }
            Op::MatMul => Ok(matmul(input(0), input(1))),
            Op::Tensordot => Ok(tensordot(input(0), input(1))),
            Op::Conv2D => Ok(conv2d_same(input(0), input(1))),
            Op::ExpandDims { axis } => {
                let x = input(0);
                x.reshape(x.shape().with_axis(*axis, 1))
            }
            Op::Reshape { shape } => input(0).reshape(shape.clone()),
            Op::Pack { axis } => pack(
                &node
                    .inputs()
                    .iter()
                    .map(|id| values[id].clone())
                    .collect::<Vec<_>>(),
                *axis,
            ),
            Op::Gather => gather(input(0), input(1)),
            Op::Assign => {
                let value = input(1).clone();
                let name = self.variable_name(node.inputs()[0])?;
                self.variables.insert(name, value.clone());
                Ok(value)
            }
            Op::AssignAdd => {
                let name = self.variable_name(node.inputs()[0])?;
                let current = self.variables[&name].clone();
                let updated = current.zip(input(1), |a, b| a + b)?;
                self.variables.insert(name, updated.clone());
                Ok(updated)
            }
        }
    }

    fn variable_name(&self, id: NodeId) -> Result<String, DfgError> {
        match self.graph.node(id)?.op() {
            Op::Variable { name, .. } => Ok(name.clone()),
            _ => Err(DfgError::UnknownNode(id)),
        }
    }
}

fn apply_binary(op: BinaryOp, a: &Tensor, b: &Tensor) -> Result<Tensor, DfgError> {
    a.zip(b, |x, y| op.apply(x, y))
}

#[allow(clippy::needless_range_loop)] // index couples three arrays
fn reduce(op: ReduceOp, x: &Tensor, axis: usize) -> Tensor {
    let shape = x.shape();
    let out_shape = shape.without_axis(axis);
    let axis_len = shape.dim(axis);
    let strides = shape.strides();
    let axis_stride = strides[axis];
    // Enumerate the output elements; for each, walk along the reduced axis.
    let out_elems = out_shape.elems();
    let data: Vec<f64> = (0..out_elems)
        .map(|out_linear| {
            // Decompose out_linear into the multi-index of out_shape, then
            // rebuild the base offset in the input.
            let mut rem = out_linear;
            let mut base = 0usize;
            let mut out_dim = 0usize;
            for in_dim in 0..shape.rank() {
                if in_dim == axis {
                    continue;
                }
                let out_stride: usize = out_shape.dims()[out_dim + 1..].iter().product();
                let coord = rem / out_stride;
                rem %= out_stride;
                base += coord * strides[in_dim];
                out_dim += 1;
            }
            match op {
                ReduceOp::Sum => (0..axis_len)
                    .map(|k| x.data()[base + k * axis_stride])
                    .sum(),
                ReduceOp::ArgMin => {
                    let mut best = 0usize;
                    let mut best_value = f64::INFINITY;
                    for k in 0..axis_len {
                        let value = x.data()[base + k * axis_stride];
                        if value < best_value {
                            best_value = value;
                            best = k;
                        }
                    }
                    best as f64
                }
            }
        })
        .collect();
    Tensor::from_vec(data, out_shape).expect("reduce preserves element count")
}

fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = (a.shape().dim(0), a.shape().dim(1));
    let n = b.shape().dim(1);
    let mut data = vec![0.0; m * n];
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0;
            for p in 0..k {
                acc += a.data()[i * k + p] * b.data()[p * n + j];
            }
            data[i * n + j] = acc;
        }
    }
    Tensor::from_vec(data, Shape::matrix(m, n)).expect("matmul shape")
}

fn tensordot(a: &Tensor, b: &Tensor) -> Tensor {
    let k = *a.shape().dims().last().expect("tensordot lhs rank >= 1");
    let rows = a.shape().elems() / k;
    let cols = b.shape().elems() / k;
    let mut data = vec![0.0; rows * cols];
    for i in 0..rows {
        for j in 0..cols {
            let mut acc = 0.0;
            for p in 0..k {
                acc += a.data()[i * k + p] * b.data()[p * cols + j];
            }
            data[i * cols + j] = acc;
        }
    }
    let mut dims = a.shape().dims()[..a.shape().rank() - 1].to_vec();
    dims.extend_from_slice(&b.shape().dims()[1..]);
    Tensor::from_vec(data, Shape::new(dims)).expect("tensordot shape")
}

fn conv2d_same(input: &Tensor, filter: &Tensor) -> Tensor {
    let (h, w) = (input.shape().dim(0), input.shape().dim(1));
    let (fh, fw) = (filter.shape().dim(0), filter.shape().dim(1));
    let (ph, pw) = (fh / 2, fw / 2);
    let mut data = vec![0.0; h * w];
    for i in 0..h {
        for j in 0..w {
            let mut acc = 0.0;
            for di in 0..fh {
                for dj in 0..fw {
                    let si = i as isize + di as isize - ph as isize;
                    let sj = j as isize + dj as isize - pw as isize;
                    if si >= 0 && (si as usize) < h && sj >= 0 && (sj as usize) < w {
                        acc += input.data()[si as usize * w + sj as usize]
                            * filter.data()[di * fw + dj];
                    }
                }
            }
            data[i * w + j] = acc;
        }
    }
    Tensor::from_vec(data, Shape::matrix(h, w)).expect("conv shape")
}

fn pack(parts: &[Tensor], axis: usize) -> Result<Tensor, DfgError> {
    let part_shape = parts[0].shape().clone();
    let out_shape = part_shape.with_axis(axis, parts.len());
    // Outer iteration covers the dims before `axis`; inner block is the
    // contiguous run after it.
    let outer: usize = part_shape.dims()[..axis].iter().product();
    let inner: usize = part_shape.dims()[axis..].iter().product();
    let mut data = Vec::with_capacity(out_shape.elems());
    for o in 0..outer {
        for part in parts {
            data.extend_from_slice(&part.data()[o * inner..(o + 1) * inner]);
        }
    }
    Tensor::from_vec(data, out_shape)
}

fn gather(params: &Tensor, indices: &Tensor) -> Result<Tensor, DfgError> {
    let row: usize = params.shape().dims()[1..].iter().product();
    let rows = params.shape().dim(0);
    let mut data = Vec::with_capacity(indices.shape().elems() * row);
    for &raw in indices.data() {
        let index = raw.round();
        if index < 0.0 || index as usize >= rows {
            return Err(DfgError::Domain(format!(
                "gather index {index} out of range 0..{rows}"
            )));
        }
        let index = index as usize;
        data.extend_from_slice(&params.data()[index * row..(index + 1) * row]);
    }
    let mut dims = indices.shape().dims().to_vec();
    dims.extend_from_slice(&params.shape().dims()[1..]);
    Tensor::from_vec(data, Shape::new(dims))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphBuilder;

    fn vec_tensor(data: &[f64]) -> Tensor {
        Tensor::from_vec(data.to_vec(), Shape::vector(data.len())).unwrap()
    }

    #[test]
    fn arithmetic_chain() {
        let mut g = GraphBuilder::new();
        let x = g.placeholder("x", Shape::vector(3)).unwrap();
        let sq = g.square(x).unwrap();
        let one = g.scalar(1.0);
        let y = g.add(sq, one).unwrap();
        let z = g.sqrt(y).unwrap();
        g.fetch(z);
        let graph = g.finish();
        let mut interp = Interpreter::new(&graph);
        interp.feed("x", vec_tensor(&[0.0, 1.0, 2.0]));
        let out = interp.run().unwrap();
        let expect: Vec<f64> = [0.0f64, 1.0, 2.0]
            .iter()
            .map(|x| (x * x + 1.0).sqrt())
            .collect();
        assert_eq!(out[&z].data(), expect.as_slice());
    }

    #[test]
    fn missing_feed_is_error() {
        let mut g = GraphBuilder::new();
        let x = g.placeholder("x", Shape::vector(1)).unwrap();
        g.fetch(x);
        let graph = g.finish();
        assert!(matches!(
            Interpreter::new(&graph).run(),
            Err(DfgError::MissingFeed(name)) if name == "x"
        ));
    }

    #[test]
    fn select_with_less() {
        // abs(x) = select(x < 0, -x, x)
        let mut g = GraphBuilder::new();
        let x = g.placeholder("x", Shape::vector(4)).unwrap();
        let zero = g.scalar(0.0);
        let cond = g.less(x, zero).unwrap();
        let nx = g.neg(x).unwrap();
        let out = g.select(cond, nx, x).unwrap();
        g.fetch(out);
        let graph = g.finish();
        let mut interp = Interpreter::new(&graph);
        interp.feed("x", vec_tensor(&[-3.0, 2.0, -1.0, 0.0]));
        let values = interp.run().unwrap();
        assert_eq!(values[&out].data(), &[3.0, 2.0, 1.0, 0.0]);
    }

    #[test]
    fn reductions() {
        let mut g = GraphBuilder::new();
        let x = g.placeholder("x", Shape::matrix(2, 3)).unwrap();
        let sum0 = g.sum(x, 0).unwrap();
        let sum1 = g.sum(x, 1).unwrap();
        let am = g.argmin(x, 1).unwrap();
        g.fetch(sum0);
        g.fetch(sum1);
        g.fetch(am);
        let graph = g.finish();
        let mut interp = Interpreter::new(&graph);
        interp.feed(
            "x",
            Tensor::from_vec(vec![1.0, 5.0, 3.0, 4.0, 2.0, 6.0], Shape::matrix(2, 3)).unwrap(),
        );
        let values = interp.run().unwrap();
        assert_eq!(values[&sum0].data(), &[5.0, 7.0, 9.0]);
        assert_eq!(values[&sum1].data(), &[9.0, 12.0]);
        assert_eq!(values[&am].data(), &[0.0, 1.0]);
    }

    #[test]
    fn matmul_small() {
        let mut g = GraphBuilder::new();
        let a = g
            .constant(Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], Shape::matrix(2, 2)).unwrap())
            .unwrap();
        let b = g
            .constant(Tensor::from_vec(vec![5.0, 6.0, 7.0, 8.0], Shape::matrix(2, 2)).unwrap())
            .unwrap();
        let c = g.matmul(a, b).unwrap();
        g.fetch(c);
        let graph = g.finish();
        let values = Interpreter::new(&graph).run().unwrap();
        assert_eq!(values[&c].data(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn conv2d_identity_filter() {
        let mut g = GraphBuilder::new();
        let x = g.placeholder("x", Shape::matrix(3, 3)).unwrap();
        let f = g
            .constant(
                Tensor::from_vec(
                    vec![0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0],
                    Shape::matrix(3, 3),
                )
                .unwrap(),
            )
            .unwrap();
        let y = g.conv2d(x, f).unwrap();
        g.fetch(y);
        let graph = g.finish();
        let mut interp = Interpreter::new(&graph);
        let input =
            Tensor::from_vec((1..=9).map(f64::from).collect(), Shape::matrix(3, 3)).unwrap();
        interp.feed("x", input.clone());
        let values = interp.run().unwrap();
        assert_eq!(values[&y], input);
    }

    #[test]
    fn conv2d_averaging_filter_with_padding() {
        let mut g = GraphBuilder::new();
        let x = g.placeholder("x", Shape::matrix(2, 2)).unwrap();
        let f = g
            .constant(Tensor::filled(1.0, Shape::matrix(3, 3)))
            .unwrap();
        let y = g.conv2d(x, f).unwrap();
        g.fetch(y);
        let graph = g.finish();
        let mut interp = Interpreter::new(&graph);
        interp.feed(
            "x",
            Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], Shape::matrix(2, 2)).unwrap(),
        );
        let values = interp.run().unwrap();
        // Every output sums all in-bounds neighbours = the whole 2×2 input.
        assert_eq!(values[&y].data(), &[10.0; 4]);
    }

    #[test]
    fn variables_persist_across_runs() {
        let mut g = GraphBuilder::new();
        let w = g.variable("w", vec_tensor(&[0.0, 0.0])).unwrap();
        let x = g.placeholder("x", Shape::vector(2)).unwrap();
        let upd = g.assign_add(w, x).unwrap();
        g.fetch(upd);
        let graph = g.finish();
        let mut interp = Interpreter::new(&graph);
        interp.feed("x", vec_tensor(&[1.0, 2.0]));
        interp.run().unwrap();
        interp.run().unwrap();
        assert_eq!(interp.variable("w").unwrap().data(), &[2.0, 4.0]);
    }

    #[test]
    fn assign_overwrites() {
        let mut g = GraphBuilder::new();
        let w = g.variable("w", vec_tensor(&[9.0])).unwrap();
        let x = g.placeholder("x", Shape::vector(1)).unwrap();
        let upd = g.assign(w, x).unwrap();
        g.fetch(upd);
        let graph = g.finish();
        let mut interp = Interpreter::new(&graph);
        interp.feed("x", vec_tensor(&[5.0]));
        interp.run().unwrap();
        assert_eq!(interp.variable("w").unwrap().data(), &[5.0]);
    }

    #[test]
    fn pack_and_gather() {
        let mut g = GraphBuilder::new();
        let a = g.constant(vec_tensor(&[1.0, 2.0])).unwrap();
        let b = g.constant(vec_tensor(&[3.0, 4.0])).unwrap();
        let p = g.pack(&[a, b], 0).unwrap();
        let idx = g.constant(vec_tensor(&[1.0, 0.0, 1.0])).unwrap();
        let got = g.gather(p, idx).unwrap();
        g.fetch(got);
        let graph = g.finish();
        let values = Interpreter::new(&graph).run().unwrap();
        assert_eq!(values[&got].data(), &[3.0, 4.0, 1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    fn pack_axis1() {
        let mut g = GraphBuilder::new();
        let a = g.constant(vec_tensor(&[1.0, 2.0])).unwrap();
        let b = g.constant(vec_tensor(&[3.0, 4.0])).unwrap();
        let p = g.pack(&[a, b], 1).unwrap();
        g.fetch(p);
        let graph = g.finish();
        let values = Interpreter::new(&graph).run().unwrap();
        // Shape [2, 2]: rows are (a[i], b[i]).
        assert_eq!(values[&p].data(), &[1.0, 3.0, 2.0, 4.0]);
    }

    #[test]
    fn gather_out_of_range_rejected() {
        let mut g = GraphBuilder::new();
        let a = g.constant(vec_tensor(&[1.0, 2.0])).unwrap();
        let idx = g.constant(vec_tensor(&[5.0])).unwrap();
        let got = g.gather(a, idx).unwrap();
        g.fetch(got);
        let graph = g.finish();
        assert!(matches!(
            Interpreter::new(&graph).run(),
            Err(DfgError::Domain(_))
        ));
    }

    #[test]
    fn tensordot_vector_dot() {
        let mut g = GraphBuilder::new();
        let a = g.constant(vec_tensor(&[1.0, 2.0, 3.0])).unwrap();
        let b = g.constant(vec_tensor(&[4.0, 5.0, 6.0])).unwrap();
        let d = g.tensordot(a, b).unwrap();
        g.fetch(d);
        let graph = g.finish();
        let values = Interpreter::new(&graph).run().unwrap();
        assert_eq!(values[&d].data(), &[32.0]);
        assert!(values[&d].shape().is_scalar());
    }

    #[test]
    fn reshape_and_expand_dims() {
        let mut g = GraphBuilder::new();
        let x = g.constant(vec_tensor(&[1.0, 2.0, 3.0, 4.0])).unwrap();
        let m = g.reshape(x, Shape::matrix(2, 2)).unwrap();
        let e = g.expand_dims(m, 0).unwrap();
        g.fetch(e);
        let graph = g.finish();
        let values = Interpreter::new(&graph).run().unwrap();
        assert_eq!(values[&e].shape(), &Shape::new(vec![1, 2, 2]));
        assert_eq!(values[&e].data(), &[1.0, 2.0, 3.0, 4.0]);
    }
}
