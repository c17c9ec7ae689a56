//! K-means nearest-centroid assignment on the in-memory processor — the
//! Rodinia kernel the paper singles out in §7.3 (its distance
//! calculations are limited by SIMD-slot capacity).
//!
//! Demonstrates the architecture's natural mapping for distance
//! computation: the expanded form |c|² − 2c·x streams the centroid terms
//! from the cluster registers as `dot` multiplicands, and the argmin
//! compiles into compare + predicated-select chains (no branches!).
//!
//! ```sh
//! cargo run --release --example kmeans
//! ```

use imp::workloads::workload;
use imp::{Machine, OptPolicy, SimConfig, Telemetry};
use imp_isa::Opcode;

fn main() {
    let n = 320;
    let w = workload("kmeans").expect("registered workload");
    let kernel = w.compile(n, OptPolicy::MaxDlp).expect("compiles");

    // Instruction-mix tour of the compiled module.
    let mut counts = std::collections::BTreeMap::new();
    for ib in &kernel.ibs {
        for inst in ib.block.instructions() {
            *counts.entry(inst.opcode()).or_insert(0usize) += 1;
        }
    }
    println!(
        "kmeans compiled module ({} instructions):",
        kernel.stats().total_instructions
    );
    for (op, count) in &counts {
        println!("  {:<11} × {count}", op.mnemonic());
    }
    let dots = counts.get(&Opcode::Dot).copied().unwrap_or(0);
    println!("\n{dots} in-situ dot products stream centroid weights from registers;");
    println!(
        "the argmin is {} predicated moves (movs) — no branches in the ISA.\n",
        counts.get(&Opcode::Movs).copied().unwrap_or(0)
    );

    // Execute and summarize the clustering, with a telemetry recorder
    // installed to expose the per-IB execution profile.
    let inputs = w.inputs(n, 123);
    let mut machine = Machine::new(SimConfig {
        telemetry: Some(Telemetry::new()),
        ..SimConfig::functional()
    });
    let report = machine.run(&kernel, &inputs).expect("runs");
    let (_, outputs, _) = w.build(n);
    let assignments = &report.outputs[&outputs[1]];
    let mut histogram = [0usize; 5];
    for &a in assignments.data() {
        histogram[a as usize] += 1;
    }
    println!("assignment of {n} points over 5 centroids: {histogram:?}");
    println!(
        "executed in {} cycles, {:.2} µJ, avg ADC resolution {:.2} bits",
        report.cycles,
        report.energy.total_j() * 1e6,
        report.avg_adc_bits
    );

    // Where the module's cycle budget goes, per instruction block.
    let telemetry = report.telemetry.as_ref().expect("telemetry installed");
    println!("\nper-IB execution profile (cycles per module execution):");
    println!(
        "{:<4} {:>6} {:>9} {:>10} {:>11} {:>7} {:>11}",
        "ib", "insts", "compute", "transfer", "reduction", "stall", "energy nJ"
    );
    for p in &telemetry.ib_profiles {
        println!(
            "{:<4} {:>6} {:>9} {:>10} {:>11} {:>7} {:>11.2}",
            p.ib,
            p.instructions,
            p.compute_cycles,
            p.transfer_cycles,
            p.reduction_cycles,
            p.stall_cycles,
            p.energy_j * 1e9
        );
    }
}
