//! `impc` — the in-memory-processor compiler driver.
//!
//! Compiles a kernel written in the textual graph format (see
//! [`imp_dfg::textfmt`]) down to the 13-instruction ISA, and optionally
//! disassembles, range-checks or executes it on the simulated chip with
//! synthetic inputs.
//!
//! ```sh
//! impc kernel.imp                    # compile, print statistics
//! impc kernel.imp --disasm           # + full assembly listing
//! impc kernel.imp --policy ilp       # MaxILP instead of MaxArrayUtil
//! impc kernel.imp --run              # + execute with midpoint inputs
//! impc kernel.imp --rangecheck       # dynamic-range analysis only
//! ```

use imp::compiler::perf;
use imp::{Error, OptPolicy, QFormat, Session, Tensor, VerifyLevel};
use std::process::ExitCode;

const USAGE: &str =
    "usage: impc <kernel.imp> [--policy dlp|ilp|util] [--disasm] [--run] [--rangecheck]";

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let (mut path, mut policy_name) = (None, None);
    let (mut disasm, mut run, mut range_only) = (false, false, false);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--policy" => policy_name = args.next(),
            "--disasm" => disasm = true,
            "--run" => run = true,
            "--rangecheck" => range_only = true,
            _ if path.is_none() && !arg.starts_with("--") => path = Some(arg),
            _ => {
                eprintln!("impc: unknown argument `{arg}`\n{USAGE}");
                return ExitCode::FAILURE;
            }
        }
    }
    let Some(path) = path else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let policy = match policy_name.as_deref() {
        Some("dlp") => OptPolicy::MaxDlp,
        Some("ilp") => OptPolicy::MaxIlp,
        Some("util") | None => OptPolicy::MaxArrayUtil,
        Some(other) => {
            eprintln!("impc: unknown policy `{other}` (dlp|ilp|util)");
            return ExitCode::FAILURE;
        }
    };

    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("impc: cannot read `{path}`: {err}");
            return ExitCode::FAILURE;
        }
    };
    let parsed = match imp_dfg::textfmt::parse(&text) {
        Ok(parsed) => parsed,
        Err(err) => {
            eprintln!("impc: parse error: {err}");
            return ExitCode::FAILURE;
        }
    };

    if range_only {
        return rangecheck(&parsed);
    }

    let builder = parsed.ranges.iter().fold(
        Session::builder(parsed.graph.clone()).policy(policy),
        |b, (name, &interval)| b.range(name, interval),
    );
    let mut session = match builder.verify(VerifyLevel::Deny).build() {
        Ok(session) => session,
        Err(Error::Verify(report)) => {
            eprintln!("impc: kernel rejected by the static verifier:\n{report}");
            return ExitCode::FAILURE;
        }
        Err(err) => {
            eprintln!("impc: {err}");
            return ExitCode::FAILURE;
        }
    };
    let kernel = session.kernel();

    let stats = kernel.stats();
    println!("kernel `{path}` compiled:");
    println!("  parallelism        : {:?}", kernel.parallel);
    println!("  instruction blocks : {}", stats.num_ibs);
    println!("  total instructions : {}", stats.total_instructions);
    println!(
        "  module latency     : {} array cycles",
        stats.module_latency
    );
    println!("  cross-IB moves     : {}", stats.cross_ib_moves);
    let mix = kernel.instruction_mix();
    let mix_line: Vec<String> = mix.iter().map(|(m, c)| format!("{m}:{c}")).collect();
    println!("  instruction mix    : {}", mix_line.join(" "));
    let chip = session.sim_config().capacity;
    let est = perf::estimate(kernel, kernel.parallel.instances(), chip);
    println!(
        "  model estimate     : {} rounds, {:.3} µs on {} tiles",
        est.rounds,
        est.seconds * 1e6,
        chip.tiles
    );

    if disasm {
        println!("\n{}", kernel.disassemble());
    }

    if run {
        let mut inputs: Vec<(&str, Tensor)> = Vec::new();
        for node in parsed.graph.nodes() {
            if let imp_dfg::Op::Placeholder { name } = node.op() {
                let mid = parsed.ranges.get(name).map_or(1.0, |r| (r.lo + r.hi) / 2.0);
                inputs.push((name, Tensor::filled(mid, node.shape().clone())));
            }
        }
        match session.run(&inputs) {
            Ok(outputs) => {
                let report = outputs.report();
                println!("\nexecuted with range-midpoint inputs:");
                println!("  cycles  : {}", report.cycles);
                println!("  energy  : {:.3} µJ", report.energy.total_j() * 1e6);
                for &node in parsed.graph.outputs() {
                    let Some(tensor) = report.outputs.get(&node) else {
                        continue;
                    };
                    let name = parsed
                        .names
                        .iter()
                        .find(|(_, &id)| id == node)
                        .map_or_else(|| node.to_string(), |(n, _)| n.clone());
                    let preview: Vec<f64> = tensor.data().iter().take(4).copied().collect();
                    println!("  {name} = {preview:?}…");
                }
            }
            Err(err) => {
                eprintln!("impc: run error: {err}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn rangecheck(parsed: &imp_dfg::textfmt::ParsedGraph) -> ExitCode {
    match imp_dfg::range::analyze(&parsed.graph, &parsed.ranges, QFormat::Q16_16) {
        Ok(report) => {
            let worst = report
                .node_ranges
                .values()
                .fold(0.0f64, |acc, r| acc.max(r.max_abs()));
            println!("max |value| over all nodes: {worst}");
            println!("overflowing nodes at Q16.16: {}", report.overflows.len());
            if let Some(q) = report.recommended_format {
                println!("most precise fitting format: {q}");
            }
            if report.overflows.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(err) => {
            eprintln!("impc: range analysis failed: {err}");
            ExitCode::FAILURE
        }
    }
}
