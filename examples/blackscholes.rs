//! Black–Scholes option pricing on the in-memory processor — the flagship
//! PARSEC kernel of the paper's evaluation (Table 3, Figures 11–14).
//!
//! Prices a batch of European call options on the simulated chip, checks
//! them against the native host implementation, and reports the paper's
//! key metrics: cycles, energy, average power and the estimated speedup
//! versus the Table 5 CPU baseline.
//!
//! ```sh
//! cargo run --release --example blackscholes
//! ```

use imp::baselines::{cost, device::DeviceModel, native};
use imp::compiler::perf;
use imp::workloads::workload;
use imp::{ChipCapacity, Machine, OptPolicy, SimConfig};

fn main() {
    let n = 512; // functional batch; scale the estimate below to 10M
    let w = workload("blackscholes").expect("registered workload");

    // Compile the TensorFlow-style kernel down to the 13-instruction ISA.
    let kernel = w.compile(n, OptPolicy::MaxDlp).expect("compiles");
    println!("blackscholes kernel:");
    println!(
        "  instructions per module: {}",
        kernel.stats().max_ib_instructions
    );
    println!(
        "  module latency         : {} cycles",
        kernel.module_latency()
    );

    // Execute on the simulated chip.
    let inputs = w.inputs(n, 42);
    let mut machine = Machine::new(SimConfig::functional());
    let report = machine.run(&kernel, &inputs).expect("runs");

    // Validate against the native host kernel.
    let native_prices = native::blackscholes(
        inputs["spot"].data(),
        inputs["strike"].data(),
        inputs["time"].data(),
        0.05,
        0.30,
    );
    let (graph, outputs, _) = w.build(n);
    let _ = graph;
    let chip_prices = &report.outputs[&outputs[0]];
    let mut worst = 0.0f64;
    for (&a, &b) in chip_prices.data().iter().zip(&native_prices) {
        worst = worst.max((a - b).abs());
    }
    println!("\nvalidation vs native implementation:");
    println!("  options priced   : {n}");
    println!("  worst abs error  : {worst:.4} (fixed point + LUT-seeded exp/div/sqrt)");
    assert!(worst < w.tolerance, "accuracy regression");

    // Paper-scale performance estimate (10M options, Table 3).
    let paper_n = w.paper_instances;
    let cpu = DeviceModel::cpu();
    let kernel_cost = cost::analyze(&w.build(8).0);
    let cpu_time = cpu.execute(&kernel_cost, paper_n);
    let imp_time = perf::estimate(&kernel, paper_n, ChipCapacity::paper()).seconds;
    println!("\npaper-scale estimate ({paper_n} options):");
    println!("  IMP kernel time : {:.3} ms", imp_time * 1e3);
    println!("  CPU kernel time : {:.3} ms", cpu_time.total_s * 1e3);
    println!("  kernel speedup  : {:.1}×", cpu_time.total_s / imp_time);

    println!("\nmeasured on the functional run:");
    println!("  energy     : {:.2} µJ", report.energy.total_j() * 1e6);
    println!(
        "  avg power  : {:.3} W (chip TDP is ~416 W)",
        report.avg_power_w
    );
    println!(
        "  lifetime   : {:.1} years at continuous execution",
        report.lifetime_years
    );
}
