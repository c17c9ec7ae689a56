//! Mutation fuzz over the `.imp` text front end: kernels derived from the
//! shipped `examples/kernels/*.imp` files and from the rendered corpus
//! graphs are mutated line- and token-wise, then parsed, range-analysed,
//! compiled and verified. The property is robustness, not success: `parse`
//! and `range::analyze` never panic, `compile` returns `Ok` or a
//! `CompileError`, and `verify_kernel` never panics on what compiles.
//!
//! Every panic the fuzzer has found is pinned as a fixed case.

use imp_compiler::{compile, CompileOptions, OptPolicy};
use imp_dfg::{range, textfmt};
use imp_rram::QFormat;
use proptest::prelude::*;
use std::sync::OnceLock;

/// Replacement tokens: degenerate numbers, shapes and attributes, plus
/// keywords and names that re-wire the statement.
const VOCAB: &[&str] = &[
    "nan",
    "inf",
    "-inf",
    "0",
    "-3",
    "1",
    "0.5",
    "1000",
    "1e9",
    "-1e9",
    "[0]",
    "[1]",
    "[]",
    "[64]",
    "[4,64]",
    "[2,2,64]",
    "axis=0",
    "axis=1",
    "axis=2",
    "shape=[2,32]",
    "=",
    "x",
    "v",
    "add",
    "sub",
    "mul",
    "div",
    "floordiv",
    "less",
    "select",
    "exp",
    "sqrt",
    "sigmoid",
    "abs",
    "neg",
    "square",
    "sum",
    "argmin",
    "matmul",
    "tensordot",
    "conv2d",
    "pack",
    "gather",
    "reshape",
    "expand_dims",
    "assign_add",
    "fetch",
    "range",
    "const",
    "placeholder",
];

/// Repros of panics found by this fuzzer and earlier probes; each must
/// now end in a typed error or a kernel.
const FIXED: &[&str] = &[
    "placeholder x [8]\nrange x 0 nan\n",
    "placeholder x [64]\nconst c = nan\nadd y x c\nfetch y\n",
    "placeholder x [64]\nrange x 0 1\nconst a = nan\nadd y x a\nfetch y\n",
    "placeholder x [64]\nexp y x\nfetch y\nrange x -inf inf\n",
    "placeholder x [64]\nexp y x\nfetch y\nrange x 0 1000\n",
    "placeholder x [64]\nsquare s x\nsqrt r s\nfetch r\nrange x 1 1e200\n",
    "placeholder x [64]\nsigmoid y x\nfetch y\nrange x -1e20 1e20\n",
    "placeholder x [64]\nexp y x\nfetch y\nrange x -1e9 -1e8\n",
    "placeholder x [0]\nconst c = 1.0\nadd y x c\nfetch y\n",
    "placeholder x [64]\nconst i = 0\ngather g x i\nfetch g\n",
    "placeholder x [4, 64]\nconst i [1] -3\ngather g x i\nfetch g\n",
    "placeholder v [8,1024]\nsquare sq v\nsum per_dim sq axis=1\nsum total per_dim axis=0\n\
     fetch per_dim\nfetch total\n",
    "placeholder x [64]\nexp a x\nexp b x\nsub y a b\nfetch y\nrange x 1000 1001\n",
    "placeholder x [64]\nexp a x\nconst z = 0.0\nmul y a z\nfetch y\nrange x 1000 1001\n",
];

const POLICIES: [OptPolicy; 3] = [
    OptPolicy::MaxDlp,
    OptPolicy::MaxIlp,
    OptPolicy::MaxArrayUtil,
];

/// Seed kernels: the shipped `.imp` files and the eight corpus graphs
/// rendered at 64 instances.
fn seeds() -> &'static [String] {
    static SEEDS: OnceLock<Vec<String>> = OnceLock::new();
    SEEDS.get_or_init(load_seeds)
}

fn load_seeds() -> Vec<String> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/kernels");
    let mut files: Vec<_> = std::fs::read_dir(dir)
        .expect("examples/kernels")
        .map(|entry| entry.expect("dir entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "imp"))
        .collect();
    files.sort();
    let mut seeds: Vec<String> = files
        .iter()
        .map(|path| std::fs::read_to_string(path).expect("read kernel"))
        .collect();
    for workload in imp_workloads::all_workloads() {
        let (graph, _, ranges) = workload.build(64);
        seeds.push(textfmt::render(&graph, &ranges));
    }
    seeds
}

/// One edit of a kernel's lines; indices wrap modulo the current length.
#[derive(Debug, Clone, Copy)]
enum Mutation {
    Delete(usize),
    Duplicate(usize),
    Swap(usize, usize),
    Replace {
        line: usize,
        token: usize,
        with: usize,
    },
}

fn mutation() -> impl Strategy<Value = Mutation> {
    (0usize..4, any::<usize>(), any::<usize>(), 0..VOCAB.len()).prop_map(|(kind, a, b, w)| {
        match kind {
            0 => Mutation::Delete(a),
            1 => Mutation::Duplicate(a),
            2 => Mutation::Swap(a, b),
            _ => Mutation::Replace {
                line: a,
                token: b,
                with: w,
            },
        }
    })
}

fn mutate(text: &str, mutations: &[Mutation]) -> String {
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    for &m in mutations {
        if lines.is_empty() {
            break;
        }
        let n = lines.len();
        match m {
            Mutation::Delete(i) => {
                lines.remove(i % n);
            }
            Mutation::Duplicate(i) => {
                let line = lines[i % n].clone();
                lines.insert(i % n, line);
            }
            Mutation::Swap(i, j) => lines.swap(i % n, j % n),
            Mutation::Replace { line, token, with } => {
                let mut tokens: Vec<&str> = lines[line % n].split_whitespace().collect();
                if !tokens.is_empty() {
                    let t = token % tokens.len();
                    tokens[t] = VOCAB[with];
                    lines[line % n] = tokens.join(" ");
                }
            }
        }
    }
    lines.join("\n")
}

/// Parses, range-analyses, compiles and verifies `text`; any panic fails
/// the caller.
fn exercise(text: &str, policy: OptPolicy) {
    let Ok(parsed) = textfmt::parse(text) else {
        return;
    };
    let _ = range::analyze(&parsed.graph, &parsed.ranges, QFormat::Q16_16);
    let options = CompileOptions {
        policy,
        ranges: parsed.ranges,
        ..Default::default()
    };
    if let Ok(kernel) = compile(&parsed.graph, &options) {
        let _ = imp_verify::verify_kernel(&kernel);
    }
}

#[test]
fn fixed_cases_do_not_panic() {
    for text in FIXED {
        for policy in POLICIES {
            exercise(text, policy);
        }
    }
}

#[test]
fn seeds_compile_and_verify() {
    for text in seeds() {
        let parsed = textfmt::parse(text).expect("seed parses");
        let options = CompileOptions {
            policy: OptPolicy::MaxDlp,
            ranges: parsed.ranges,
            ..Default::default()
        };
        let kernel = compile(&parsed.graph, &options).expect("seed compiles");
        assert!(imp_verify::verify_kernel(&kernel).is_clean());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn mutated_kernels_never_panic(
        seed in any::<usize>(),
        mutations in prop::collection::vec(mutation(), 1..4),
        policy in 0usize..3,
    ) {
        let seeds = seeds();
        let text = mutate(&seeds[seed % seeds.len()], &mutations);
        exercise(&text, POLICIES[policy]);
    }
}
