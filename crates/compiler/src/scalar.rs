//! Module formation: scalarizing the tensor DFG into the per-instance
//! scalar program (§4's *module*).
//!
//! A module is the computation one instance performs on one element of the
//! data-parallel dimension. Vector kernels parallelize over the **last**
//! tensor axis (the compiler "unrolls a single dimension of
//! multi-dimensional input vectors", §4); kernels containing `Conv2D`
//! parallelize over grid elements, with the stencil neighbourhood exposed
//! as *window* inputs that the runtime gathers when loading data (the
//! paper's decomposition of convolution into simultaneous dot products
//! over input slices, §5.1).

use crate::module::InputBinding;
use crate::{CompileError, CompileOptions};
use imp_dfg::range::Interval;
use imp_dfg::{BinaryOp, Graph, Node, NodeId, Op, ReduceOp, Shape, UnaryOp};
use std::collections::HashMap;

/// Identifies one scalar value within a module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ScalarId(pub usize);

/// Classification of a scalar value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VClass {
    /// Known at compile time.
    Const,
    /// Runtime value shared by every instance (loaded once per array).
    Shared,
    /// Per-instance value (one per SIMD lane).
    Parallel,
    /// Result of a cross-instance reduction; only valid as a module
    /// output.
    Reduced,
}

/// A scalar operation in the module IR.
#[derive(Debug, Clone, PartialEq)]
pub enum SOp {
    /// A runtime-supplied input element.
    Leaf(InputBinding),
    /// A compile-time constant.
    Const(f64),
    /// n-ary addition (2-ary until the node-merging pass widens it).
    AddN(Vec<ScalarId>),
    /// n-ary subtraction: `Σ plus − Σ minus` (an empty `plus` list is
    /// negation, implemented by current drain alone).
    SubN {
        /// Added operands.
        plus: Vec<ScalarId>,
        /// Subtracted operands.
        minus: Vec<ScalarId>,
    },
    /// Element-wise multiplication (bit-line-DAC streaming `mul`).
    Mul(ScalarId, ScalarId),
    /// Dot product of per-instance values with shared multiplicands
    /// (word-line-DAC streaming `dot`; the multiplicands are the same for
    /// every lane, so they can live in registers).
    DotShared {
        /// Per-instance operand values (array rows).
        xs: Vec<ScalarId>,
        /// Shared multiplicands (registers); same length as `xs`.
        ws: Vec<ScalarId>,
    },
    /// Division, lowered to LUT seed + Newton–Raphson.
    Div(ScalarId, ScalarId),
    /// Natural exponential, lowered to LUT seed + Maclaurin refinement.
    Exp(ScalarId),
    /// Square root, lowered to LUT rsqrt seed + Newton–Raphson.
    Sqrt(ScalarId),
    /// Absolute value, lowered to sign-predicated selective moves.
    Abs(ScalarId),
    /// Sigmoid, lowered to a direct LUT approximation.
    Sigmoid(ScalarId),
    /// Comparison producing fixed-point 0.0 / 1.0.
    Less(ScalarId, ScalarId),
    /// Predicated choice, lowered to mask-register + `movs`.
    Select {
        /// Condition (non-zero = take `a`).
        cond: ScalarId,
        /// Taken branch.
        a: ScalarId,
        /// Fallthrough branch.
        b: ScalarId,
    },
    /// Floor to an integral value (arithmetic shift right then left).
    FloorQ(ScalarId),
    /// Cross-instance summation (`reduce_sum` over the H-tree).
    ReduceAcross(ScalarId),
}

impl SOp {
    /// The operand scalars of this op.
    pub fn operands(&self) -> Vec<ScalarId> {
        match self {
            SOp::Leaf(_) | SOp::Const(_) => Vec::new(),
            SOp::AddN(xs) => xs.clone(),
            SOp::SubN { plus, minus } => plus.iter().chain(minus).copied().collect(),
            SOp::Mul(a, b) => vec![*a, *b],
            SOp::DotShared { xs, ws } => xs.iter().chain(ws).copied().collect(),
            SOp::Div(a, b) | SOp::Less(a, b) => vec![*a, *b],
            SOp::Exp(x)
            | SOp::Sqrt(x)
            | SOp::Abs(x)
            | SOp::Sigmoid(x)
            | SOp::FloorQ(x)
            | SOp::ReduceAcross(x) => vec![*x],
            SOp::Select { cond, a, b } => vec![*cond, *a, *b],
        }
    }
}

/// How the module parallelizes over the input data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ParallelSpec {
    /// No data-parallel dimension (a single instance).
    None,
    /// Instances index the last axis of the parallel tensors.
    Vector {
        /// Length of the parallel axis.
        n: usize,
    },
    /// Instances index elements of a 2-D grid (stencil kernels).
    Stencil {
        /// Grid height.
        h: usize,
        /// Grid width.
        w: usize,
    },
}

impl ParallelSpec {
    /// Number of module instances the data implies.
    pub fn instances(&self) -> usize {
        match *self {
            ParallelSpec::None => 1,
            ParallelSpec::Vector { n } => n,
            ParallelSpec::Stencil { h, w } => h * w,
        }
    }
}

/// One module output.
#[derive(Debug, Clone, PartialEq)]
pub struct SOutput {
    /// The graph node this output materializes.
    pub node: NodeId,
    /// The scalar values, in row-major intra-element order.
    pub scalars: Vec<ScalarId>,
    /// Whether the values are cross-instance reductions.
    pub reduced: bool,
    /// Variable name to write back (persistent `Assign`/`AssignAdd`).
    pub assign_to: Option<String>,
}

/// The scalar program of one module instance.
#[derive(Debug, Clone)]
pub struct ScalarModule {
    /// Scalar ops in topological (definition) order.
    pub ops: Vec<SOp>,
    /// Per-scalar classification.
    pub class: Vec<VClass>,
    /// Per-scalar value interval, where derivable from declared ranges.
    pub range: Vec<Option<Interval>>,
    /// Per-scalar originating DFG node, where known. Diagnostics use this
    /// to name the graph-level operation an instruction descends from.
    pub origin: Vec<Option<NodeId>>,
    /// Module outputs.
    pub outputs: Vec<SOutput>,
    /// The parallelization of the kernel.
    pub parallel: ParallelSpec,
}

impl ScalarModule {
    /// Number of scalar values.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the module is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The op defining `id`.
    pub fn op(&self, id: ScalarId) -> &SOp {
        &self.ops[id.0]
    }
}

struct Builder<'g> {
    graph: &'g Graph,
    ops: Vec<SOp>,
    class: Vec<VClass>,
    range: Vec<Option<Interval>>,
    origin: Vec<Option<NodeId>>,
    /// The graph node currently being scalarized; stamped onto every
    /// scalar pushed while lowering it.
    current_node: Option<NodeId>,
    const_cache: HashMap<u64, ScalarId>,
    /// Per graph node: scalar ids (row-major intra order) + intra shape.
    values: HashMap<NodeId, NodeVal>,
    parallel: ParallelSpec,
    ranges: HashMap<String, Interval>,
}

#[derive(Debug, Clone)]
struct NodeVal {
    scalars: Vec<ScalarId>,
    /// Intra-module shape (the tensor shape with the parallel axis
    /// removed; full shape for shared values).
    intra: Shape,
    class: VClass,
}

/// Scalarizes `graph` into a module.
///
/// # Errors
/// See [`CompileError`]; most failures are unsupported graph forms listed
/// in the Table 2 restrictions.
pub fn scalarize(graph: &Graph, options: &CompileOptions) -> Result<ScalarModule, CompileError> {
    let parallel = detect_parallelism(graph)?;
    let mut b = Builder {
        graph,
        ops: Vec::new(),
        class: Vec::new(),
        range: Vec::new(),
        origin: Vec::new(),
        current_node: None,
        const_cache: HashMap::new(),
        values: HashMap::new(),
        parallel,
        ranges: options.ranges.clone(),
    };
    for node in graph.nodes() {
        b.current_node = Some(node.id());
        let value = b.scalarize_node(node)?;
        b.values.insert(node.id(), value);
    }
    let mut outputs = Vec::new();
    for &out in graph.outputs() {
        let node = graph.node(out)?;
        let value = &b.values[&out];
        let assign_to = match node.op() {
            Op::Assign | Op::AssignAdd => match b.graph.node(node.inputs()[0])?.op() {
                Op::Variable { name, .. } => Some(name.clone()),
                _ => None,
            },
            _ => None,
        };
        outputs.push(SOutput {
            node: out,
            scalars: value.scalars.clone(),
            reduced: value.class == VClass::Reduced,
            assign_to,
        });
    }
    Ok(ScalarModule {
        ops: b.ops,
        class: b.class,
        range: b.range,
        origin: b.origin,
        outputs,
        parallel,
    })
}

/// Detects the kernel's parallel dimension.
fn detect_parallelism(graph: &Graph) -> Result<ParallelSpec, CompileError> {
    // Stencil mode: a Conv2D's input grid defines the parallel space.
    for node in graph.nodes() {
        if matches!(node.op(), Op::Conv2D) {
            let input = graph.node(node.inputs()[0])?;
            let shape = input.shape();
            return Ok(ParallelSpec::Stencil {
                h: shape.dim(0),
                w: shape.dim(1),
            });
        }
    }
    // Vector mode: the largest trailing dimension among runtime inputs.
    let mut n = 0usize;
    for node in graph.nodes() {
        let is_runtime_input = matches!(node.op(), Op::Placeholder { .. } | Op::Variable { .. });
        if is_runtime_input && node.shape().rank() >= 1 {
            n = n.max(*node.shape().dims().last().expect("rank >= 1"));
        }
    }
    if n <= 1 {
        return Ok(ParallelSpec::None);
    }
    Ok(ParallelSpec::Vector { n })
}

impl Builder<'_> {
    fn push(&mut self, op: SOp, class: VClass, range: Option<Interval>) -> ScalarId {
        let id = ScalarId(self.ops.len());
        self.ops.push(op);
        self.class.push(class);
        self.range.push(range);
        self.origin.push(self.current_node);
        id
    }

    fn constant(&mut self, value: f64) -> ScalarId {
        let key = value.to_bits();
        if let Some(&id) = self.const_cache.get(&key) {
            return id;
        }
        let id = self.push(
            SOp::Const(value),
            VClass::Const,
            Some(Interval::point(value)),
        );
        self.const_cache.insert(key, id);
        id
    }

    fn combine_class(&self, ids: &[ScalarId]) -> VClass {
        let mut class = VClass::Const;
        for &id in ids {
            class = match (class, self.class[id.0]) {
                (_, VClass::Parallel) | (VClass::Parallel, _) => VClass::Parallel,
                (_, VClass::Shared) | (VClass::Shared, _) => VClass::Shared,
                (c, VClass::Const) => c,
                (VClass::Const, c) => c,
                (VClass::Reduced, VClass::Reduced) => VClass::Reduced,
            };
        }
        class
    }

    fn check_not_reduced(&self, ids: &[ScalarId], what: &str) -> Result<(), CompileError> {
        if ids.iter().any(|&id| self.class[id.0] == VClass::Reduced) {
            return Err(CompileError::Unsupported(format!(
                "{what} consumes a cross-instance reduction result; reductions must be final \
                 outputs (compute on reduced values host-side)"
            )));
        }
        Ok(())
    }

    /// Whether `node`'s tensor carries the parallel axis.
    fn is_parallel_tensor(&self, shape: &Shape) -> bool {
        match self.parallel {
            ParallelSpec::None => false,
            ParallelSpec::Vector { n } => {
                shape.rank() >= 1 && *shape.dims().last().expect("rank >= 1") == n
            }
            ParallelSpec::Stencil { h, w } => {
                shape.rank() == 2 && shape.dim(0) == h && shape.dim(1) == w
            }
        }
    }

    /// Intra-module shape of a tensor (shape minus the parallel axis).
    fn intra_shape(&self, shape: &Shape) -> Shape {
        if !self.is_parallel_tensor(shape) {
            return shape.clone();
        }
        match self.parallel {
            ParallelSpec::Vector { .. } => Shape::new(shape.dims()[..shape.rank() - 1].to_vec()),
            ParallelSpec::Stencil { .. } => Shape::scalar(),
            ParallelSpec::None => shape.clone(),
        }
    }

    fn input_range(&self, name: &str) -> Option<Interval> {
        self.ranges.get(name).copied()
    }

    fn scalarize_node(&mut self, node: &Node) -> Result<NodeVal, CompileError> {
        match node.op() {
            Op::Placeholder { name } | Op::Variable { name, .. } => {
                self.scalarize_input(name.clone(), node)
            }
            Op::Const(tensor) => {
                if tensor.data().iter().any(|v| !v.is_finite()) {
                    return Err(CompileError::NonFiniteConstant(node.id()));
                }
                if self.is_parallel_tensor(tensor.shape()) {
                    return Err(CompileError::Unsupported(format!(
                        "constant `{}` spans the parallel dimension; pass it as a placeholder",
                        node.id()
                    )));
                }
                let scalars = tensor.data().iter().map(|&v| self.constant(v)).collect();
                Ok(NodeVal {
                    scalars,
                    intra: tensor.shape().clone(),
                    class: VClass::Const,
                })
            }
            Op::Unary(op) => self.scalarize_unary(*op, node),
            Op::Binary(op) => self.scalarize_binary(*op, node),
            Op::Select => self.scalarize_select(node),
            Op::Reduce { op, axis } => self.scalarize_reduce(*op, *axis, node),
            Op::MatMul => self.scalarize_matmul(node),
            Op::Tensordot => self.scalarize_tensordot(node),
            Op::Conv2D => self.scalarize_conv(node),
            Op::ExpandDims { axis } => {
                let input = self.values[&node.inputs()[0]].clone();
                // Inserting a size-1 axis into the intra shape preserves
                // row-major element order.
                let axis = (*axis).min(input.intra.rank());
                Ok(NodeVal {
                    scalars: input.scalars,
                    intra: input.intra.with_axis(axis, 1),
                    class: input.class,
                })
            }
            Op::Reshape { .. } => {
                let input = self.values[&node.inputs()[0]].clone();
                let intra = self.intra_shape(node.shape());
                if intra.elems() != input.intra.elems() {
                    return Err(CompileError::Unsupported(format!(
                        "reshape at {} crosses the parallel dimension",
                        node.id()
                    )));
                }
                Ok(NodeVal {
                    scalars: input.scalars,
                    intra,
                    class: input.class,
                })
            }
            Op::Pack { axis } => self.scalarize_pack(*axis, node),
            Op::Gather => self.scalarize_gather(node),
            Op::Assign => {
                let value = self.values[&node.inputs()[1]].clone();
                Ok(value)
            }
            Op::AssignAdd => {
                let var = self.values[&node.inputs()[0]].clone();
                let value = self.values[&node.inputs()[1]].clone();
                let scalars = self.zip_elementwise(&var, &value, |b, x, y| {
                    let range = b.range[x.0].zip(b.range[y.0]).map(|(x, y)| x.add(y));
                    let class = b.combine_class(&[x, y]);
                    b.push(SOp::AddN(vec![x, y]), class, range)
                })?;
                Ok(NodeVal {
                    scalars,
                    intra: var.intra,
                    class: VClass::Parallel,
                })
            }
        }
    }

    fn scalarize_input(&mut self, name: String, node: &Node) -> Result<NodeVal, CompileError> {
        let shape = node.shape().clone();
        let range = self.input_range(&name);
        if self.is_parallel_tensor(&shape) {
            let intra = self.intra_shape(&shape);
            let len = intra.elems();
            let scalars = (0..len)
                .map(|idx| {
                    self.push(
                        SOp::Leaf(InputBinding::Element {
                            name: name.clone(),
                            intra_idx: idx,
                            intra_len: len,
                        }),
                        VClass::Parallel,
                        range,
                    )
                })
                .collect();
            Ok(NodeVal {
                scalars,
                intra,
                class: VClass::Parallel,
            })
        } else {
            let scalars = (0..shape.elems())
                .map(|idx| {
                    self.push(
                        SOp::Leaf(InputBinding::Shared {
                            name: name.clone(),
                            flat_idx: idx,
                        }),
                        VClass::Shared,
                        range,
                    )
                })
                .collect();
            Ok(NodeVal {
                scalars,
                intra: shape,
                class: VClass::Shared,
            })
        }
    }

    fn zip_elementwise(
        &mut self,
        a: &NodeVal,
        b: &NodeVal,
        mut f: impl FnMut(&mut Self, ScalarId, ScalarId) -> ScalarId,
    ) -> Result<Vec<ScalarId>, CompileError> {
        let k = broadcast_len(&[a.scalars.len(), b.scalars.len()])?;
        let pick = |v: &NodeVal, i: usize| v.scalars[i / (k / v.scalars.len())];
        Ok((0..k)
            .map(|i| {
                let x = pick(a, i);
                let y = pick(b, i);
                f(self, x, y)
            })
            .collect())
    }

    fn scalarize_unary(&mut self, op: UnaryOp, node: &Node) -> Result<NodeVal, CompileError> {
        let input = self.values[&node.inputs()[0]].clone();
        self.check_not_reduced(&input.scalars, op.name())?;
        let scalars: Vec<ScalarId> = input
            .scalars
            .iter()
            .map(|&x| {
                let xr = self.range[x.0];
                match op {
                    UnaryOp::Identity => x,
                    UnaryOp::Neg => self.push(
                        SOp::SubN {
                            plus: vec![],
                            minus: vec![x],
                        },
                        self.class[x.0],
                        xr.map(|r| Interval::new(-r.hi, -r.lo)),
                    ),
                    UnaryOp::Square => self.push(
                        SOp::Mul(x, x),
                        self.class[x.0],
                        xr.map(|r| {
                            let m = r.max_abs();
                            Interval::new(0.0, m * m)
                        }),
                    ),
                    UnaryOp::Abs => self.push(
                        SOp::Abs(x),
                        self.class[x.0],
                        xr.map(|r| Interval::new(0.0, r.max_abs())),
                    ),
                    UnaryOp::Exp => self.push(
                        SOp::Exp(x),
                        self.class[x.0],
                        xr.map(|r| Interval::new(r.lo.exp(), r.hi.exp())),
                    ),
                    UnaryOp::Sqrt => self.push(
                        SOp::Sqrt(x),
                        self.class[x.0],
                        xr.map(|r| Interval::new(r.lo.max(0.0).sqrt(), r.hi.max(0.0).sqrt())),
                    ),
                    UnaryOp::Sigmoid => self.push(
                        SOp::Sigmoid(x),
                        self.class[x.0],
                        Some(Interval::new(0.0, 1.0)),
                    ),
                }
            })
            .collect();
        Ok(NodeVal {
            scalars,
            intra: input.intra,
            class: input.class,
        })
    }

    fn scalarize_binary(&mut self, op: BinaryOp, node: &Node) -> Result<NodeVal, CompileError> {
        let a = self.values[&node.inputs()[0]].clone();
        let b = self.values[&node.inputs()[1]].clone();
        self.check_not_reduced(&a.scalars, op.name())?;
        self.check_not_reduced(&b.scalars, op.name())?;
        let scalars = self.zip_elementwise(&a, &b, |builder, x, y| {
            let ranges = builder.range[x.0].zip(builder.range[y.0]);
            let class = builder.combine_class(&[x, y]);
            match op {
                BinaryOp::Add => {
                    builder.push(SOp::AddN(vec![x, y]), class, ranges.map(|(x, y)| x.add(y)))
                }
                BinaryOp::Sub => builder.push(
                    SOp::SubN {
                        plus: vec![x],
                        minus: vec![y],
                    },
                    class,
                    ranges.map(|(x, y)| x.sub(y)),
                ),
                BinaryOp::Mul => builder.push(SOp::Mul(x, y), class, ranges.map(|(x, y)| x.mul(y))),
                BinaryOp::Div | BinaryOp::RealDiv => {
                    let range = ranges.and_then(|(x, y)| x.div(y).ok());
                    builder.push(SOp::Div(x, y), class, range)
                }
                BinaryOp::FloorDiv => {
                    let range = ranges.and_then(|(x, y)| x.div(y).ok());
                    let q = builder.push(SOp::Div(x, y), class, range);
                    let qr = builder.range[q.0];
                    builder.push(
                        SOp::FloorQ(q),
                        class,
                        qr.map(|r| Interval::new(r.lo.floor(), r.hi.floor())),
                    )
                }
                BinaryOp::Less => {
                    builder.push(SOp::Less(x, y), class, Some(Interval::new(0.0, 1.0)))
                }
            }
        })?;
        let intra = if a.scalars.len() >= b.scalars.len() {
            a.intra
        } else {
            b.intra
        };
        let class = self.combine_class(&scalars);
        Ok(NodeVal {
            scalars,
            intra,
            class,
        })
    }

    fn scalarize_select(&mut self, node: &Node) -> Result<NodeVal, CompileError> {
        let cond = self.values[&node.inputs()[0]].clone();
        let a = self.values[&node.inputs()[1]].clone();
        let b = self.values[&node.inputs()[2]].clone();
        let k = broadcast_len(&[cond.scalars.len(), a.scalars.len(), b.scalars.len()])?;
        let pick = |v: &NodeVal, i: usize| v.scalars[i / (k / v.scalars.len())];
        let scalars: Vec<ScalarId> = (0..k)
            .map(|i| {
                let (c, x, y) = (pick(&cond, i), pick(&a, i), pick(&b, i));
                let range = self.range[x.0]
                    .zip(self.range[y.0])
                    .map(|(x, y)| x.union(y));
                let class = self.combine_class(&[c, x, y]);
                self.push(
                    SOp::Select {
                        cond: c,
                        a: x,
                        b: y,
                    },
                    class,
                    range,
                )
            })
            .collect();
        let intra = [&cond, &a, &b]
            .iter()
            .max_by_key(|v| v.scalars.len())
            .expect("nonempty")
            .intra
            .clone();
        let class = self.combine_class(&scalars);
        Ok(NodeVal {
            scalars,
            intra,
            class,
        })
    }

    fn scalarize_reduce(
        &mut self,
        op: ReduceOp,
        axis: usize,
        node: &Node,
    ) -> Result<NodeVal, CompileError> {
        let input = self.values[&node.inputs()[0]].clone();
        self.check_not_reduced(&input.scalars, op.name())?;
        let input_shape = self.graph.node(node.inputs()[0])?.shape().clone();
        let over_parallel = self.is_parallel_tensor(&input_shape)
            && matches!(self.parallel, ParallelSpec::Vector { .. })
            && axis == input_shape.rank() - 1;
        if over_parallel {
            if op == ReduceOp::ArgMin {
                return Err(CompileError::Unsupported(
                    "ArgMin over the parallel dimension; reduce host-side".into(),
                ));
            }
            let scalars: Vec<ScalarId> = input
                .scalars
                .iter()
                .map(|&x| self.push(SOp::ReduceAcross(x), VClass::Reduced, self.range[x.0]))
                .collect();
            return Ok(NodeVal {
                scalars,
                intra: input.intra,
                class: VClass::Reduced,
            });
        }
        // Intra-module reduction over `axis` of the intra shape.
        if axis >= input.intra.rank() {
            return Err(CompileError::Unsupported(format!(
                "reduction axis {axis} is outside the module (intra shape {})",
                input.intra
            )));
        }
        let groups = intra_axis_groups(&input.intra, axis);
        let out_intra = input.intra.without_axis(axis);
        let scalars: Vec<ScalarId> = match op {
            ReduceOp::Sum => groups
                .iter()
                .map(|group| self.fold_add_chain(group, &input.scalars))
                .collect(),
            ReduceOp::ArgMin => groups
                .iter()
                .map(|group| self.expand_argmin(group, &input.scalars))
                .collect(),
        };
        let class = self.combine_class(&scalars);
        Ok(NodeVal {
            scalars,
            intra: out_intra,
            class,
        })
    }

    /// Sequential 2-ary add chain (the node-merging pass widens it).
    fn fold_add_chain(&mut self, group: &[usize], scalars: &[ScalarId]) -> ScalarId {
        let mut acc = scalars[group[0]];
        for &idx in &group[1..] {
            let x = scalars[idx];
            let range = self.range[acc.0]
                .zip(self.range[x.0])
                .map(|(a, x)| a.add(x));
            let class = self.combine_class(&[acc, x]);
            acc = self.push(SOp::AddN(vec![acc, x]), class, range);
        }
        acc
    }

    /// ArgMin as a compare/select chain (control flow via predication,
    /// §2.2's discussion: no branches, only condition + selective moves).
    fn expand_argmin(&mut self, group: &[usize], scalars: &[ScalarId]) -> ScalarId {
        let mut best = scalars[group[0]];
        let mut best_idx = self.constant(0.0);
        for (j, &idx) in group.iter().enumerate().skip(1) {
            let x = scalars[idx];
            let class = self.combine_class(&[best, x]);
            let cond = self.push(SOp::Less(x, best), class, Some(Interval::new(0.0, 1.0)));
            let range = self.range[x.0]
                .zip(self.range[best.0])
                .map(|(x, b)| x.union(b));
            best = self.push(
                SOp::Select {
                    cond,
                    a: x,
                    b: best,
                },
                class,
                range,
            );
            let j_const = self.constant(j as f64);
            best_idx = self.push(
                SOp::Select {
                    cond,
                    a: j_const,
                    b: best_idx,
                },
                class,
                Some(Interval::new(0.0, (group.len() - 1) as f64)),
            );
        }
        best_idx
    }

    fn scalarize_matmul(&mut self, node: &Node) -> Result<NodeVal, CompileError> {
        let lhs = self.values[&node.inputs()[0]].clone();
        let rhs = self.values[&node.inputs()[1]].clone();
        let lhs_shape = self.graph.node(node.inputs()[0])?.shape().clone();
        // Supported restriction: shared [m, k] × parallel [k, N].
        if lhs.class == VClass::Parallel || rhs.class != VClass::Parallel {
            return Err(CompileError::Unsupported(
                "MatMul supports shared-weights × parallel-data ([m,k]×[k,N]) only".into(),
            ));
        }
        let (m, k) = (lhs_shape.dim(0), lhs_shape.dim(1));
        if rhs.scalars.len() != k {
            return Err(CompileError::Unsupported(format!(
                "MatMul inner dimension {k} does not match module element count {}",
                rhs.scalars.len()
            )));
        }
        let scalars: Vec<ScalarId> = (0..m)
            .map(|i| {
                let ws: Vec<ScalarId> = (0..k).map(|p| lhs.scalars[i * k + p]).collect();
                self.dot_shared(&rhs.scalars, &ws)
            })
            .collect();
        Ok(NodeVal {
            scalars,
            intra: Shape::vector(m),
            class: VClass::Parallel,
        })
    }

    fn dot_shared(&mut self, xs: &[ScalarId], ws: &[ScalarId]) -> ScalarId {
        let mut range: Option<Interval> = Some(Interval::point(0.0));
        for (&x, &w) in xs.iter().zip(ws) {
            let product = self.range[x.0].zip(self.range[w.0]).map(|(x, w)| x.mul(w));
            range = range.zip(product).map(|(r, p)| r.add(p));
        }
        self.push(
            SOp::DotShared {
                xs: xs.to_vec(),
                ws: ws.to_vec(),
            },
            VClass::Parallel,
            range,
        )
    }

    fn scalarize_tensordot(&mut self, node: &Node) -> Result<NodeVal, CompileError> {
        let a = self.values[&node.inputs()[0]].clone();
        let b = self.values[&node.inputs()[1]].clone();
        match (a.class, b.class) {
            // Shared vector · parallel vector → in-array dot.
            (VClass::Shared | VClass::Const, VClass::Parallel) => {
                if a.scalars.len() != b.scalars.len() {
                    return Err(CompileError::Unsupported(
                        "Tensordot operand lengths differ".into(),
                    ));
                }
                let d = self.dot_shared(&b.scalars, &a.scalars);
                Ok(NodeVal {
                    scalars: vec![d],
                    intra: Shape::scalar(),
                    class: VClass::Parallel,
                })
            }
            (VClass::Parallel, VClass::Shared | VClass::Const) => {
                if a.scalars.len() != b.scalars.len() {
                    return Err(CompileError::Unsupported(
                        "Tensordot operand lengths differ".into(),
                    ));
                }
                let d = self.dot_shared(&a.scalars, &b.scalars);
                Ok(NodeVal {
                    scalars: vec![d],
                    intra: Shape::scalar(),
                    class: VClass::Parallel,
                })
            }
            // Parallel · parallel → element-wise muls + add chain (the
            // word-line DAC cannot stream per-lane values, §2.2).
            (VClass::Parallel, VClass::Parallel) => {
                if a.scalars.len() != b.scalars.len() {
                    return Err(CompileError::Unsupported(
                        "Tensordot operand lengths differ".into(),
                    ));
                }
                let products: Vec<ScalarId> = a
                    .scalars
                    .iter()
                    .zip(&b.scalars)
                    .map(|(&x, &y)| {
                        let range = self.range[x.0].zip(self.range[y.0]).map(|(x, y)| x.mul(y));
                        self.push(SOp::Mul(x, y), VClass::Parallel, range)
                    })
                    .collect();
                let group: Vec<usize> = (0..products.len()).collect();
                let sum = self.fold_add_chain(&group, &products);
                Ok(NodeVal {
                    scalars: vec![sum],
                    intra: Shape::scalar(),
                    class: VClass::Parallel,
                })
            }
            _ => Err(CompileError::Unsupported(
                "Tensordot needs at least one runtime operand".into(),
            )),
        }
    }

    fn scalarize_conv(&mut self, node: &Node) -> Result<NodeVal, CompileError> {
        let input_node = self.graph.node(node.inputs()[0])?;
        let name = match input_node.op() {
            Op::Placeholder { name } | Op::Variable { name, .. } => name.clone(),
            _ => {
                return Err(CompileError::Unsupported(
                    "Conv2D input must be a placeholder or variable (stored grid)".into(),
                ))
            }
        };
        let filter = self.values[&node.inputs()[1]].clone();
        if filter.class == VClass::Parallel {
            return Err(CompileError::Unsupported(
                "Conv2D filter must be shared".into(),
            ));
        }
        let fshape = self.graph.node(node.inputs()[1])?.shape().clone();
        let (fh, fw) = (fshape.dim(0), fshape.dim(1));
        let range = self.input_range(&name);
        // Window leaves: the instance's stencil neighbourhood, gathered by
        // the runtime at load time (input slices of §5.1).
        let mut xs = Vec::with_capacity(fh * fw);
        for di in 0..fh {
            for dj in 0..fw {
                let dr = di as isize - (fh / 2) as isize;
                let dc = dj as isize - (fw / 2) as isize;
                xs.push(self.push(
                    SOp::Leaf(InputBinding::Window {
                        name: name.clone(),
                        dr,
                        dc,
                    }),
                    VClass::Parallel,
                    range.map(|r| Interval::new(r.lo.min(0.0), r.hi.max(0.0))),
                ));
            }
        }
        let d = self.dot_shared(&xs, &filter.scalars);
        Ok(NodeVal {
            scalars: vec![d],
            intra: Shape::scalar(),
            class: VClass::Parallel,
        })
    }

    fn scalarize_pack(&mut self, axis: usize, node: &Node) -> Result<NodeVal, CompileError> {
        let parts: Vec<NodeVal> = node
            .inputs()
            .iter()
            .map(|id| self.values[id].clone())
            .collect();
        let first = &parts[0];
        if parts.iter().any(|p| p.scalars.len() != first.scalars.len()) {
            return Err(CompileError::Unsupported(
                "Pack operands differ in element count".into(),
            ));
        }
        let intra = first.intra.clone();
        if axis > intra.rank() {
            return Err(CompileError::Unsupported(format!(
                "Pack axis {axis} crosses the parallel dimension"
            )));
        }
        let outer: usize = intra.dims()[..axis].iter().product();
        let inner: usize = intra.dims()[axis..].iter().product();
        let mut scalars = Vec::with_capacity(parts.len() * first.scalars.len());
        for o in 0..outer {
            for part in &parts {
                scalars.extend_from_slice(&part.scalars[o * inner..(o + 1) * inner]);
            }
        }
        let class = self.combine_class(&scalars);
        Ok(NodeVal {
            scalars,
            intra: intra.with_axis(axis, parts.len()),
            class,
        })
    }

    fn scalarize_gather(&mut self, node: &Node) -> Result<NodeVal, CompileError> {
        let params = self.values[&node.inputs()[0]].clone();
        let indices_node = self.graph.node(node.inputs()[1])?;
        let indices = match indices_node.op() {
            Op::Const(tensor) => tensor.clone(),
            _ => {
                return Err(CompileError::Unsupported(
                    "Gather with runtime indices generates irregular access; gather host-side \
                     before offload (§3)"
                        .into(),
                ))
            }
        };
        if params.intra.rank() == 0 {
            return Err(CompileError::Unsupported(
                "Gather params have no intra-module axis to index; gather host-side".into(),
            ));
        }
        let row: usize = params.intra.dims()[1..].iter().product();
        let rows = params.intra.dim(0);
        let mut scalars = Vec::new();
        for &raw in indices.data() {
            let index = raw.round();
            if !(index >= 0.0 && index < rows as f64) {
                return Err(CompileError::Graph(format!(
                    "gather index {raw} out of range 0..{rows}"
                )));
            }
            let index = index as usize;
            scalars.extend_from_slice(&params.scalars[index * row..(index + 1) * row]);
        }
        let mut dims = indices.shape().dims().to_vec();
        dims.extend_from_slice(&params.intra.dims()[1..]);
        let class = self.combine_class(&scalars);
        Ok(NodeVal {
            scalars,
            intra: Shape::new(dims),
            class,
        })
    }
}

/// Element count of an element-wise op over operands of `counts` elements:
/// the largest count, which every other count must divide, since a
/// lower-count operand broadcasts over trailing intra axes.
fn broadcast_len(counts: &[usize]) -> Result<usize, CompileError> {
    let k = counts.iter().copied().max().unwrap_or(0);
    if counts.iter().any(|&c| c != k && (c == 0 || k % c != 0)) {
        return Err(CompileError::Unsupported(format!(
            "operand element counts {counts:?} cannot broadcast"
        )));
    }
    Ok(k)
}

/// Index groups along `axis` of `intra`: one group per output element,
/// listing the flat input indices it reduces over.
#[allow(clippy::needless_range_loop)] // index couples strides and dims
fn intra_axis_groups(intra: &Shape, axis: usize) -> Vec<Vec<usize>> {
    let strides = intra.strides();
    let axis_len = intra.dim(axis);
    let out = intra.without_axis(axis);
    let out_elems = out.elems();
    (0..out_elems)
        .map(|out_linear| {
            let mut rem = out_linear;
            let mut base = 0usize;
            let mut out_dim = 0usize;
            for in_dim in 0..intra.rank() {
                if in_dim == axis {
                    continue;
                }
                let out_stride: usize = out.dims()[out_dim + 1..].iter().product();
                let coord = rem / out_stride;
                rem %= out_stride;
                base += coord * strides[in_dim];
                out_dim += 1;
            }
            (0..axis_len).map(|k| base + k * strides[axis]).collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use imp_dfg::{GraphBuilder, Tensor};

    fn opts() -> CompileOptions {
        CompileOptions::default()
    }

    #[test]
    fn vector_parallelism_detected() {
        let mut g = GraphBuilder::new();
        let x = g.placeholder("x", Shape::new(vec![4, 1000])).unwrap();
        let y = g.placeholder("y", Shape::vector(1000)).unwrap();
        let s = g.sum(x, 0).unwrap();
        let t = g.add(s, y).unwrap();
        g.fetch(t);
        let graph = g.finish();
        let module = scalarize(&graph, &opts()).unwrap();
        assert_eq!(module.parallel, ParallelSpec::Vector { n: 1000 });
        // x contributes 4 per-instance leaves, y one.
        let leaves = module
            .ops
            .iter()
            .filter(|op| matches!(op, SOp::Leaf(InputBinding::Element { .. })))
            .count();
        assert_eq!(leaves, 5);
        // Sum over the intra axis is a chain of three adds.
        let adds = module
            .ops
            .iter()
            .filter(|op| matches!(op, SOp::AddN(_)))
            .count();
        assert_eq!(adds, 4); // 3 for the chain + 1 for the final add
        assert_eq!(module.outputs.len(), 1);
        assert!(!module.outputs[0].reduced);
    }

    #[test]
    fn shared_inputs_classified() {
        let mut g = GraphBuilder::new();
        let x = g.placeholder("x", Shape::vector(1000)).unwrap();
        let w = g.placeholder("w", Shape::vector(3)).unwrap();
        // Use w via gather-free indexing: pack then elementwise is not
        // possible; just multiply x by the shared first element via
        // tensordot-style is overkill — multiply by a shared scalar slice:
        let s = g.sum(w, 0).unwrap(); // shared scalar
        let t = g.mul(x, s).unwrap();
        g.fetch(t);
        let graph = g.finish();
        let module = scalarize(&graph, &opts()).unwrap();
        let shared_leaves = module
            .ops
            .iter()
            .filter(|op| matches!(op, SOp::Leaf(InputBinding::Shared { .. })))
            .count();
        assert_eq!(shared_leaves, 3);
        assert_eq!(module.outputs[0].scalars.len(), 1);
    }

    #[test]
    fn reduce_across_parallel_axis() {
        let mut g = GraphBuilder::new();
        let x = g.placeholder("x", Shape::new(vec![2, 500])).unwrap();
        let r = g.sum(x, 1).unwrap();
        g.fetch(r);
        let graph = g.finish();
        let module = scalarize(&graph, &opts()).unwrap();
        assert!(module.outputs[0].reduced);
        assert_eq!(module.outputs[0].scalars.len(), 2);
        let reduces = module
            .ops
            .iter()
            .filter(|op| matches!(op, SOp::ReduceAcross(_)))
            .count();
        assert_eq!(reduces, 2);
    }

    #[test]
    fn compute_on_reduced_rejected() {
        let mut g = GraphBuilder::new();
        let x = g.placeholder("x", Shape::vector(100)).unwrap();
        let r = g.sum(x, 0).unwrap();
        let t = g.add(r, r).unwrap();
        g.fetch(t);
        let graph = g.finish();
        assert!(matches!(
            scalarize(&graph, &opts()),
            Err(CompileError::Unsupported(_))
        ));
    }

    #[test]
    fn select_and_less_scalarize() {
        let mut g = GraphBuilder::new();
        let x = g.placeholder("x", Shape::vector(100)).unwrap();
        let zero = g.scalar(0.0);
        let c = g.less(x, zero).unwrap();
        let nx = g.neg(x).unwrap();
        let a = g.select(c, nx, x).unwrap();
        g.fetch(a);
        let graph = g.finish();
        let module = scalarize(&graph, &opts()).unwrap();
        assert!(module.ops.iter().any(|op| matches!(op, SOp::Less(_, _))));
        assert!(module.ops.iter().any(|op| matches!(op, SOp::Select { .. })));
        assert!(module
            .ops
            .iter()
            .any(|op| matches!(op, SOp::SubN { plus, .. } if plus.is_empty())));
    }

    #[test]
    fn argmin_expands_to_compare_select() {
        let mut g = GraphBuilder::new();
        let x = g.placeholder("x", Shape::new(vec![4, 100])).unwrap();
        let m = g.argmin(x, 0).unwrap();
        g.fetch(m);
        let graph = g.finish();
        let module = scalarize(&graph, &opts()).unwrap();
        let less = module
            .ops
            .iter()
            .filter(|op| matches!(op, SOp::Less(_, _)))
            .count();
        let selects = module
            .ops
            .iter()
            .filter(|op| matches!(op, SOp::Select { .. }))
            .count();
        assert_eq!(less, 3);
        assert_eq!(selects, 6); // value + index select per step
    }

    #[test]
    fn matmul_becomes_dot_shared() {
        let mut g = GraphBuilder::new();
        let w = g.placeholder("w", Shape::matrix(2, 3)).unwrap();
        let x = g.placeholder("x", Shape::matrix(3, 1000)).unwrap();
        let y = g.matmul(w, x).unwrap();
        g.fetch(y);
        let graph = g.finish();
        let module = scalarize(&graph, &opts()).unwrap();
        let dots = module
            .ops
            .iter()
            .filter(|op| matches!(op, SOp::DotShared { .. }))
            .count();
        assert_eq!(dots, 2);
        assert_eq!(module.outputs[0].scalars.len(), 2);
    }

    #[test]
    fn conv_becomes_window_dot() {
        let mut g = GraphBuilder::new();
        let x = g.placeholder("x", Shape::matrix(64, 64)).unwrap();
        let f = g
            .constant(Tensor::filled(0.25, Shape::matrix(3, 3)))
            .unwrap();
        let y = g.conv2d(x, f).unwrap();
        g.fetch(y);
        let graph = g.finish();
        let module = scalarize(&graph, &opts()).unwrap();
        assert_eq!(module.parallel, ParallelSpec::Stencil { h: 64, w: 64 });
        let windows = module
            .ops
            .iter()
            .filter(|op| matches!(op, SOp::Leaf(InputBinding::Window { .. })))
            .count();
        assert_eq!(windows, 9);
        assert!(module
            .ops
            .iter()
            .any(|op| matches!(op, SOp::DotShared { xs, .. } if xs.len() == 9)));
    }

    #[test]
    fn gather_with_const_indices_is_static() {
        let mut g = GraphBuilder::new();
        let w = g.placeholder("w", Shape::vector(4)).unwrap();
        let idx = g
            .constant(Tensor::from_vec(vec![2.0, 0.0], Shape::vector(2)).unwrap())
            .unwrap();
        let got = g.gather(w, idx).unwrap();
        let s = g.sum(got, 0).unwrap(); // shared scalar from the gathered pair
        let x = g.placeholder("x", Shape::vector(100)).unwrap();
        let y = g.mul(x, s).unwrap();
        g.fetch(y);
        let graph = g.finish();
        let module = scalarize(&graph, &opts()).unwrap();
        assert_eq!(module.outputs[0].scalars.len(), 1);
        // The gather wired w[2] and w[0] statically: the shared sum chain
        // consumes exactly those two leaves.
        let shared_leaves = module
            .ops
            .iter()
            .filter(|op| matches!(op, SOp::Leaf(InputBinding::Shared { .. })))
            .count();
        assert_eq!(shared_leaves, 4);
    }

    #[test]
    fn gather_with_runtime_indices_rejected() {
        let mut g = GraphBuilder::new();
        let w = g.placeholder("w", Shape::vector(4)).unwrap();
        let idx = g.placeholder("idx", Shape::vector(2)).unwrap();
        let got = g.gather(w, idx).unwrap();
        g.fetch(got);
        let graph = g.finish();
        assert!(matches!(
            scalarize(&graph, &opts()),
            Err(CompileError::Unsupported(_))
        ));
    }

    #[test]
    fn constants_are_deduplicated() {
        let mut g = GraphBuilder::new();
        let x = g.placeholder("x", Shape::vector(10)).unwrap();
        let a = g.scalar(2.0);
        let b = g.scalar(2.0);
        let s = g.mul(x, a).unwrap();
        let t = g.mul(s, b).unwrap();
        g.fetch(t);
        let graph = g.finish();
        let module = scalarize(&graph, &opts()).unwrap();
        let consts = module
            .ops
            .iter()
            .filter(|op| matches!(op, SOp::Const(v) if *v == 2.0))
            .count();
        assert_eq!(consts, 1);
    }

    #[test]
    fn assign_add_accumulates_into_variable() {
        let mut g = GraphBuilder::new();
        let v = g
            .variable("acc", Tensor::zeros(Shape::vector(100)))
            .unwrap();
        let x = g.placeholder("x", Shape::vector(100)).unwrap();
        let u = g.assign_add(v, x).unwrap();
        g.fetch(u);
        let graph = g.finish();
        let module = scalarize(&graph, &opts()).unwrap();
        assert_eq!(module.outputs[0].assign_to.as_deref(), Some("acc"));
    }

    #[test]
    fn intra_axis_groups_math() {
        let shape = Shape::new(vec![2, 3]);
        // Reduce axis 0 → 3 groups of {i, i+3}.
        let groups = intra_axis_groups(&shape, 0);
        assert_eq!(groups, vec![vec![0, 3], vec![1, 4], vec![2, 5]]);
        // Reduce axis 1 → 2 groups of consecutive triples.
        let groups = intra_axis_groups(&shape, 1);
        assert_eq!(groups, vec![vec![0, 1, 2], vec![3, 4, 5]]);
    }

    #[test]
    fn pack_orders_row_major() {
        let mut g = GraphBuilder::new();
        let a = g.placeholder("a", Shape::vector(100)).unwrap();
        let b = g.placeholder("b", Shape::vector(100)).unwrap();
        let p = g.pack(&[a, b], 0).unwrap();
        let s = g.sum(p, 0).unwrap();
        g.fetch(s);
        let graph = g.finish();
        let module = scalarize(&graph, &opts()).unwrap();
        assert_eq!(module.outputs[0].scalars.len(), 1);
    }
}
