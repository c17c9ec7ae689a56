//! Table 3: the evaluated workloads, their input shapes and per-IB
//! instruction counts (paper value vs this reproduction).

use imp_bench::{emit, header};
use imp_compiler::OptPolicy;
use imp_workloads::all_workloads;

fn main() {
    header("Table 3 — Evaluated workloads");
    println!(
        "{:<18} {:<8} {:<22} {:>12} {:>12} {:>8}",
        "benchmark", "suite", "paper shape", "paper #insts", "ours #insts", "#IBs"
    );
    for w in all_workloads() {
        let kernel = w
            .compile(w.paper_instances, OptPolicy::MaxDlp)
            .expect("workload compiles");
        let shape = format!("{:?}", w.paper_shape);
        println!(
            "{:<18} {:<8} {:<22} {:>12} {:>12} {:>8}",
            w.name,
            w.suite.name(),
            shape,
            w.paper_ib_insts,
            kernel.stats().max_ib_instructions,
            kernel.ibs.len()
        );
        emit("table3", w.name, "paper_ib_insts", w.paper_ib_insts as f64);
        emit(
            "table3",
            w.name,
            "our_ib_insts",
            kernel.stats().max_ib_instructions as f64,
        );
        emit(
            "table3",
            w.name,
            "module_latency",
            kernel.module_latency() as f64,
        );
    }

    // §7.3's instruction-mix observation, e.g. "a blackscholes kernel has
    // 14% add, 21% mul, and 58% local move instructions".
    println!(
        "
instruction mix (fractions of module code):"
    );
    println!(
        "{:<18} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7} {:>7}",
        "benchmark", "add", "sub", "mul", "dot", "mov*", "shift*", "lut"
    );
    for w in all_workloads() {
        let kernel = w
            .compile(w.paper_instances, OptPolicy::MaxDlp)
            .expect("workload compiles");
        let mix = kernel.instruction_mix();
        let pct = |names: &[&str]| names.iter().map(|m| mix.fraction(m)).sum::<f64>() * 100.0;
        println!(
            "{:<18} {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}%",
            w.name,
            pct(&["add"]),
            pct(&["sub"]),
            pct(&["mul"]),
            pct(&["dot"]),
            pct(&["mov", "movs", "movi", "movg"]),
            pct(&["shiftl", "shiftr", "mask"]),
            pct(&["lut"]),
        );
    }
    println!(
        "\nNote: canneal/streamcluster intra dimensions are scaled to fit one\n\
         128-row array per instance (see EXPERIMENTS.md); instruction counts\n\
         therefore differ from the paper's in proportion to the scaling."
    );
}
