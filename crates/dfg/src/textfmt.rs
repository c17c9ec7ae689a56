//! A textual graph format — the reproduction's analogue of the paper's
//! protocol-buffer TensorFlow input (§5: "Our compiler takes Google's
//! TensorFlow DFG in the protocol buffer format as an input").
//!
//! The format is line-oriented; `#` starts a comment. Node names bind
//! results for later reference:
//!
//! ```text
//! # y = sigmoid(w·x + b), data-parallel over 1024 columns
//! placeholder x [4, 1024]
//! const w [4] 0.25 -0.5 1.0 0.125
//! const b = 0.1
//! tensordot t w x
//! add z t b
//! sigmoid y z
//! fetch y
//! range x -1.0 1.0
//! ```
//!
//! Supported statements:
//!
//! | statement | meaning |
//! |---|---|
//! | `placeholder NAME [d0, d1, …]` | runtime input |
//! | `variable NAME [dims] v…` / `zeros` | persistent input |
//! | `const NAME [dims] v…` / `const NAME = v` | compile-time constant |
//! | `OP OUT IN… [axis=k] [shape=[…]]` | operation node |
//! | `fetch NAME` | mark an output |
//! | `range NAME LO HI` | declared dynamic range (§2.3) |
//!
//! Operation names are the lower-case builder methods: `add sub mul div
//! floordiv less select abs neg exp sqrt square sigmoid identity sum
//! argmin matmul tensordot conv2d expand_dims reshape pack gather assign
//! assign_add`.

use crate::range::Interval;
use crate::{DfgError, Graph, GraphBuilder, NodeId, Op, Shape, Tensor};
use std::collections::HashMap;
use std::fmt::Write as _;

/// A parsed text-format kernel: the graph, its fetched nodes by name, and
/// the declared input ranges.
#[derive(Debug)]
pub struct ParsedGraph {
    /// The constructed graph.
    pub graph: Graph,
    /// Name → node bindings (every named statement).
    pub names: HashMap<String, NodeId>,
    /// Declared input value ranges.
    pub ranges: HashMap<String, Interval>,
}

/// Parses the text format.
///
/// # Errors
/// Returns [`DfgError::Domain`] with a line-numbered message for syntax
/// errors, and propagates graph-construction errors (shape mismatches,
/// duplicate names).
pub fn parse(text: &str) -> Result<ParsedGraph, DfgError> {
    let mut g = GraphBuilder::new();
    let mut names: HashMap<String, NodeId> = HashMap::new();
    let mut ranges = HashMap::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        parse_line(line, &mut g, &mut names, &mut ranges).map_err(|e| syntax(line_no, &e))?;
    }
    Ok(ParsedGraph {
        graph: g.finish(),
        names,
        ranges,
    })
}

/// Renders a graph back to the text format. Placeholders and variables
/// keep their names; other nodes get synthetic `nK` names. `ranges` are
/// appended as `range` statements.
pub fn render(graph: &Graph, ranges: &HashMap<String, Interval>) -> String {
    let mut out = String::new();
    let name_of = |id: NodeId| -> String {
        match graph.node(id).map(|n| n.op()) {
            Ok(Op::Placeholder { name }) | Ok(Op::Variable { name, .. }) => name.clone(),
            _ => format!("n{}", id.index()),
        }
    };
    let shape_str = |s: &Shape| -> String {
        let dims: Vec<String> = s.dims().iter().map(usize::to_string).collect();
        format!("[{}]", dims.join(", "))
    };
    for node in graph.nodes() {
        let out_name = name_of(node.id());
        let ins: Vec<String> = node.inputs().iter().map(|&i| name_of(i)).collect();
        match node.op() {
            Op::Placeholder { name } => {
                let _ = writeln!(out, "placeholder {name} {}", shape_str(node.shape()));
            }
            Op::Variable { name, init } => {
                let values: Vec<String> = init.data().iter().map(f64::to_string).collect();
                let _ = writeln!(
                    out,
                    "variable {name} {} {}",
                    shape_str(node.shape()),
                    values.join(" ")
                );
            }
            Op::Const(tensor) => {
                if tensor.shape().is_scalar() {
                    let _ = writeln!(out, "const {out_name} = {}", tensor.data()[0]);
                } else {
                    let values: Vec<String> = tensor.data().iter().map(f64::to_string).collect();
                    let _ = writeln!(
                        out,
                        "const {out_name} {} {}",
                        shape_str(tensor.shape()),
                        values.join(" ")
                    );
                }
            }
            Op::Unary(u) => {
                let _ = writeln!(out, "{} {out_name} {}", u.name().to_lowercase(), ins[0]);
            }
            Op::Binary(b) => {
                let keyword = match b.name() {
                    "RealDiv" => "div".to_string(),
                    other => other.to_lowercase(),
                };
                let _ = writeln!(out, "{keyword} {out_name} {} {}", ins[0], ins[1]);
            }
            Op::Select => {
                let _ = writeln!(out, "select {out_name} {} {} {}", ins[0], ins[1], ins[2]);
            }
            Op::Reduce { op, axis } => {
                let _ = writeln!(
                    out,
                    "{} {out_name} {} axis={axis}",
                    op.name().to_lowercase(),
                    ins[0]
                );
            }
            Op::MatMul => {
                let _ = writeln!(out, "matmul {out_name} {} {}", ins[0], ins[1]);
            }
            Op::Tensordot => {
                let _ = writeln!(out, "tensordot {out_name} {} {}", ins[0], ins[1]);
            }
            Op::Conv2D => {
                let _ = writeln!(out, "conv2d {out_name} {} {}", ins[0], ins[1]);
            }
            Op::ExpandDims { axis } => {
                let _ = writeln!(out, "expand_dims {out_name} {} axis={axis}", ins[0]);
            }
            Op::Reshape { shape } => {
                let dims: Vec<String> = shape.dims().iter().map(usize::to_string).collect();
                let _ = writeln!(
                    out,
                    "reshape {out_name} {} shape=[{}]",
                    ins[0],
                    dims.join(",")
                );
            }
            Op::Pack { axis } => {
                let _ = writeln!(out, "pack {out_name} {} axis={axis}", ins.join(" "));
            }
            Op::Gather => {
                let _ = writeln!(out, "gather {out_name} {} {}", ins[0], ins[1]);
            }
            Op::Assign => {
                let _ = writeln!(out, "assign {out_name} {} {}", ins[0], ins[1]);
            }
            Op::AssignAdd => {
                let _ = writeln!(out, "assign_add {out_name} {} {}", ins[0], ins[1]);
            }
        }
    }
    for &id in graph.outputs() {
        let _ = writeln!(out, "fetch {}", name_of(id));
    }
    let mut sorted: Vec<_> = ranges.iter().collect();
    sorted.sort_by_key(|&(name, _)| name.clone());
    for (name, interval) in sorted {
        let _ = writeln!(out, "range {name} {} {}", interval.lo, interval.hi);
    }
    out
}

fn syntax(line: usize, message: &str) -> DfgError {
    DfgError::Domain(format!("line {line}: {message}"))
}

fn parse_line(
    line: &str,
    g: &mut GraphBuilder,
    names: &mut HashMap<String, NodeId>,
    ranges: &mut HashMap<String, Interval>,
) -> Result<(), String> {
    let mut tokens = tokenize(line)?;
    let keyword = tokens.remove(0);
    match keyword.as_str() {
        "placeholder" => {
            let (name, shape) = name_and_shape(&tokens)?;
            let id = g.placeholder(&name, shape).map_err(|e| e.to_string())?;
            names.insert(name, id);
        }
        "variable" => {
            let (name, shape) = name_and_shape(&tokens)?;
            let init = parse_init(&tokens[2..], &shape)?;
            let id = g.variable(&name, init).map_err(|e| e.to_string())?;
            names.insert(name, id);
        }
        "const" => {
            if tokens.len() >= 3 && tokens[1] == "=" {
                let value: f64 = tokens[2]
                    .parse()
                    .map_err(|_| format!("bad number `{}`", tokens[2]))?;
                let id = g
                    .constant(Tensor::scalar(value))
                    .map_err(|e| e.to_string())?;
                names.insert(tokens[0].clone(), id);
            } else {
                let (name, shape) = name_and_shape(&tokens)?;
                let init = parse_init(&tokens[2..], &shape)?;
                let id = g.constant(init).map_err(|e| e.to_string())?;
                names.insert(name, id);
            }
        }
        "fetch" => {
            let id = lookup(names, tokens.first().ok_or("fetch needs a name")?)?;
            g.fetch(id);
        }
        "range" => {
            if tokens.len() != 3 {
                return Err("range NAME LO HI".into());
            }
            let lo: f64 = tokens[1].parse().map_err(|_| "bad lo")?;
            let hi: f64 = tokens[2].parse().map_err(|_| "bad hi")?;
            if !lo.is_finite() || !hi.is_finite() {
                return Err(format!("non-finite range [{lo}, {hi}]"));
            }
            if lo > hi {
                return Err(format!("inverted range [{lo}, {hi}]"));
            }
            ranges.insert(tokens[0].clone(), Interval::new(lo, hi));
        }
        op => {
            let out = tokens
                .first()
                .ok_or("operation needs an output name")?
                .clone();
            let (attrs, operands): (Vec<&String>, Vec<&String>) =
                tokens[1..].iter().partition(|t| t.contains('='));
            let inputs: Vec<NodeId> = operands
                .iter()
                .map(|n| lookup(names, n))
                .collect::<Result<_, _>>()?;
            let axis = attr_usize(&attrs, "axis")?;
            let id = build_op(g, op, &inputs, axis, &attrs)?;
            names.insert(out, id);
        }
    }
    Ok(())
}

fn build_op(
    g: &mut GraphBuilder,
    op: &str,
    inputs: &[NodeId],
    axis: Option<usize>,
    attrs: &[&String],
) -> Result<NodeId, String> {
    let need = |n: usize| -> Result<(), String> {
        if inputs.len() == n {
            Ok(())
        } else {
            Err(format!("{op} expects {n} operands, got {}", inputs.len()))
        }
    };
    let e = |err: DfgError| err.to_string();
    match op {
        "add" => {
            need(2)?;
            g.add(inputs[0], inputs[1]).map_err(e)
        }
        "sub" => {
            need(2)?;
            g.sub(inputs[0], inputs[1]).map_err(e)
        }
        "mul" => {
            need(2)?;
            g.mul(inputs[0], inputs[1]).map_err(e)
        }
        "div" => {
            need(2)?;
            g.div(inputs[0], inputs[1]).map_err(e)
        }
        "floordiv" => {
            need(2)?;
            g.floordiv(inputs[0], inputs[1]).map_err(e)
        }
        "less" => {
            need(2)?;
            g.less(inputs[0], inputs[1]).map_err(e)
        }
        "select" => {
            need(3)?;
            g.select(inputs[0], inputs[1], inputs[2]).map_err(e)
        }
        "abs" => {
            need(1)?;
            g.abs(inputs[0]).map_err(e)
        }
        "neg" => {
            need(1)?;
            g.neg(inputs[0]).map_err(e)
        }
        "exp" => {
            need(1)?;
            g.exp(inputs[0]).map_err(e)
        }
        "sqrt" => {
            need(1)?;
            g.sqrt(inputs[0]).map_err(e)
        }
        "square" => {
            need(1)?;
            g.square(inputs[0]).map_err(e)
        }
        "sigmoid" => {
            need(1)?;
            g.sigmoid(inputs[0]).map_err(e)
        }
        "identity" => {
            need(1)?;
            g.identity(inputs[0]).map_err(e)
        }
        "sum" => {
            need(1)?;
            g.sum(inputs[0], axis.ok_or("sum needs axis=")?).map_err(e)
        }
        "argmin" => {
            need(1)?;
            g.argmin(inputs[0], axis.ok_or("argmin needs axis=")?)
                .map_err(e)
        }
        "expand_dims" => {
            need(1)?;
            g.expand_dims(inputs[0], axis.ok_or("expand_dims needs axis=")?)
                .map_err(e)
        }
        "matmul" => {
            need(2)?;
            g.matmul(inputs[0], inputs[1]).map_err(e)
        }
        "tensordot" => {
            need(2)?;
            g.tensordot(inputs[0], inputs[1]).map_err(e)
        }
        "conv2d" => {
            need(2)?;
            g.conv2d(inputs[0], inputs[1]).map_err(e)
        }
        "gather" => {
            need(2)?;
            g.gather(inputs[0], inputs[1]).map_err(e)
        }
        "assign" => {
            need(2)?;
            g.assign(inputs[0], inputs[1]).map_err(e)
        }
        "assign_add" => {
            need(2)?;
            g.assign_add(inputs[0], inputs[1]).map_err(e)
        }
        "reshape" => {
            need(1)?;
            let shape = attr_shape(attrs, "shape")?.ok_or("reshape needs shape=[…]")?;
            g.reshape(inputs[0], shape).map_err(e)
        }
        "pack" => {
            if inputs.is_empty() {
                return Err("pack needs operands".into());
            }
            g.pack(inputs, axis.ok_or("pack needs axis=")?).map_err(e)
        }
        other => Err(format!("unknown operation `{other}`")),
    }
}

fn lookup(names: &HashMap<String, NodeId>, name: &str) -> Result<NodeId, String> {
    names
        .get(name)
        .copied()
        .ok_or_else(|| format!("unknown node `{name}`"))
}

/// Splits a line into tokens, keeping `[…]` groups together.
fn tokenize(line: &str) -> Result<Vec<String>, String> {
    let mut tokens = Vec::new();
    let mut depth = 0usize;
    let mut current = String::new();
    for ch in line.chars() {
        match ch {
            '[' => {
                depth += 1;
                current.push(ch);
            }
            ']' => {
                depth = depth.checked_sub(1).ok_or("unbalanced `]`")?;
                current.push(ch);
            }
            c if c.is_whitespace() && depth == 0 => {
                if !current.is_empty() {
                    tokens.push(std::mem::take(&mut current));
                }
            }
            c => current.push(c),
        }
    }
    if depth != 0 {
        return Err("unbalanced `[`".into());
    }
    if !current.is_empty() {
        tokens.push(current);
    }
    if tokens.is_empty() {
        return Err("empty statement".into());
    }
    Ok(tokens)
}

fn name_and_shape(tokens: &[String]) -> Result<(String, Shape), String> {
    let name = tokens.first().ok_or("missing name")?.clone();
    let shape_token = tokens.get(1).ok_or("missing shape")?;
    Ok((name, parse_shape(shape_token)?))
}

fn parse_shape(token: &str) -> Result<Shape, String> {
    let inner = token
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| format!("expected [dims], got `{token}`"))?;
    if inner.trim().is_empty() {
        return Ok(Shape::scalar());
    }
    let dims: Result<Vec<usize>, _> = inner
        .split(',')
        .map(|d| {
            d.trim()
                .parse::<usize>()
                .map_err(|_| format!("bad dim `{d}`"))
        })
        .collect();
    Ok(Shape::new(dims?))
}

fn parse_init(tokens: &[String], shape: &Shape) -> Result<Tensor, String> {
    if tokens.first().map(String::as_str) == Some("zeros") {
        return Ok(Tensor::zeros(shape.clone()));
    }
    let data: Result<Vec<f64>, _> = tokens
        .iter()
        .map(|t| t.parse::<f64>().map_err(|_| format!("bad number `{t}`")))
        .collect();
    Tensor::from_vec(data?, shape.clone()).map_err(|e| e.to_string())
}

fn attr_usize(attrs: &[&String], key: &str) -> Result<Option<usize>, String> {
    for attr in attrs {
        if let Some(value) = attr.strip_prefix(&format!("{key}=")) {
            return value
                .parse::<usize>()
                .map(Some)
                .map_err(|_| format!("bad {key} value `{value}`"));
        }
    }
    Ok(None)
}

fn attr_shape(attrs: &[&String], key: &str) -> Result<Option<Shape>, String> {
    for attr in attrs {
        if let Some(value) = attr.strip_prefix(&format!("{key}=")) {
            return parse_shape(value).map(Some);
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::Interpreter;

    #[test]
    fn parses_and_runs_a_kernel() {
        let text = "
            # y = sigmoid(w·x + b)
            placeholder x [4, 16]
            const w [4] 0.25 -0.5 1.0 0.125
            const b = 0.1
            tensordot t w x
            add z t b
            sigmoid y z
            fetch y
            range x -1.0 1.0
        ";
        let parsed = parse(text).unwrap();
        assert_eq!(parsed.graph.outputs().len(), 1);
        assert_eq!(parsed.ranges["x"], Interval::new(-1.0, 1.0));
        let mut interp = Interpreter::new(&parsed.graph);
        interp.feed(
            "x",
            Tensor::from_fn(Shape::new(vec![4, 16]), |i| (i % 5) as f64 / 5.0),
        );
        let out = interp.run().unwrap();
        let y = parsed.names["y"];
        assert!(out[&y].data().iter().all(|v| (0.0..=1.0).contains(v)));
    }

    #[test]
    fn control_flow_statements() {
        let text = "
            placeholder x [8]
            const zero = 0.0
            less c x zero
            neg nx x
            select y c nx x
            fetch y
        ";
        let parsed = parse(text).unwrap();
        let mut interp = Interpreter::new(&parsed.graph);
        interp.feed(
            "x",
            Tensor::from_vec(
                vec![-3.0, 2.0, -1.0, 0.0, 5.0, -5.0, 7.0, -0.5],
                Shape::vector(8),
            )
            .unwrap(),
        );
        let out = interp.run().unwrap();
        let y = parsed.names["y"];
        assert_eq!(out[&y].data(), &[3.0, 2.0, 1.0, 0.0, 5.0, 5.0, 7.0, 0.5]);
    }

    #[test]
    fn reductions_and_reshape() {
        let text = "
            placeholder x [2, 4, 32]
            sum s x axis=1
            reshape r s shape=[2, 32]
            sum t r axis=0
            fetch t
        ";
        let parsed = parse(text).unwrap();
        let t = parsed.names["t"];
        assert_eq!(parsed.graph.node(t).unwrap().shape(), &Shape::vector(32));
    }

    #[test]
    fn variables_and_assign() {
        let text = "
            variable acc [4] zeros
            placeholder x [4]
            assign_add u acc x
            fetch u
        ";
        let parsed = parse(text).unwrap();
        assert_eq!(parsed.graph.variable_names(), vec!["acc"]);
    }

    #[test]
    fn errors_carry_line_numbers() {
        let err = parse("placeholder x [4]\nbogus y x\n").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        let err = parse("fetch nope").unwrap_err();
        assert!(err.to_string().contains("unknown node"), "{err}");
        let err = parse("placeholder x [4\n").unwrap_err();
        assert!(err.to_string().contains("unbalanced"), "{err}");
        let err = parse("range x 2.0 1.0").unwrap_err();
        assert!(err.to_string().contains("inverted"), "{err}");
    }

    #[test]
    fn non_finite_range_bounds_are_syntax_errors() {
        for bounds in ["0 nan", "nan 0", "-inf inf", "0 inf"] {
            let err = parse(&format!("placeholder x [4]\nrange x {bounds}\n")).unwrap_err();
            assert!(err.to_string().contains("line 2"), "{bounds}: {err}");
            assert!(err.to_string().contains("non-finite"), "{bounds}: {err}");
        }
    }

    #[test]
    fn shape_sugar() {
        assert_eq!(parse_shape("[]").unwrap(), Shape::scalar());
        assert_eq!(parse_shape("[3]").unwrap(), Shape::vector(3));
        assert_eq!(parse_shape("[2,3]").unwrap(), Shape::matrix(2, 3));
        assert!(parse_shape("(3)").is_err());
    }

    #[test]
    fn render_parse_roundtrip() {
        let text = "
            placeholder x [4, 16]
            const w [4] 0.25 -0.5 1.0 0.125
            const b = 0.1
            tensordot t w x
            add z t b
            sigmoid y z
            sum r z axis=0
            fetch y
            fetch r
            range x -1.0 1.0
        ";
        let first = parse(text).unwrap();
        let rendered = render(&first.graph, &first.ranges);
        let second = parse(&rendered).unwrap();
        assert_eq!(first.graph.len(), second.graph.len());
        assert_eq!(first.graph.outputs().len(), second.graph.outputs().len());
        assert_eq!(first.ranges, second.ranges);
        // Functional equivalence.
        let feed = Tensor::from_fn(Shape::new(vec![4, 16]), |i| (i % 7) as f64 / 7.0);
        let run = |graph: &crate::Graph| {
            let mut interp = Interpreter::new(graph);
            interp.feed("x", feed.clone());
            let values = interp.run().unwrap();
            let mut data: Vec<Vec<f64>> = graph
                .outputs()
                .iter()
                .map(|id| values[id].data().to_vec())
                .collect();
            data.sort_by_key(|a| a.len());
            data
        };
        assert_eq!(run(&first.graph), run(&second.graph));
    }

    #[test]
    fn conv_and_pack() {
        let text = "
            placeholder t [8, 8]
            const k [3, 3] 0 0.1 0 0.1 0.6 0.1 0 0.1 0
            conv2d c t k
            fetch c
        ";
        let parsed = parse(text).unwrap();
        assert_eq!(parsed.graph.outputs().len(), 1);

        let text2 = "
            placeholder a [16]
            placeholder b [16]
            pack p a b axis=0
            sum s p axis=0
            fetch s
        ";
        let parsed2 = parse(text2).unwrap();
        let s = parsed2.names["s"];
        assert_eq!(parsed2.graph.node(s).unwrap().shape(), &Shape::vector(16));
    }
}
