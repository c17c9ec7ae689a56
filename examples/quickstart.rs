//! Quickstart: build a small data-parallel kernel, compile it for the
//! in-memory processor, run it on the simulated chip and inspect the
//! execution report.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use imp::prelude::*;

fn main() -> Result<(), imp::Error> {
    // --- 1. Express the kernel as a data-flow graph (the TensorFlow-style
    //        front-end of §3): y = (x − mean)² scaled by 1/n, i.e. the
    //        per-element contribution to a variance.
    let n = 256;
    let mut g = GraphBuilder::new();
    let x = g.placeholder("x", Shape::vector(n))?;
    let mean = g.placeholder("mean", Shape::scalar())?;
    let centered = g.sub(x, mean)?;
    let sq = g.square(centered)?;
    let scale = g.scalar(1.0 / n as f64);
    let contrib = g.mul(sq, scale)?;
    // Cross-instance reduction through the H-tree adder network.
    let variance = g.sum(contrib, 0)?;
    g.fetch(contrib);
    g.fetch_as("variance", variance);
    let graph = g.finish();

    // --- 2. Compile and load. Every step of §5's pipeline runs here:
    //        module formation, node merging, lowering, BUG scheduling.
    let mut session = Session::builder(graph).build()?;
    let kernel = session.kernel();
    println!("compiled kernel:");
    println!("  instruction blocks : {}", kernel.ibs.len());
    println!(
        "  total instructions : {}",
        kernel.stats().total_instructions
    );
    println!(
        "  module latency     : {} array cycles",
        kernel.module_latency()
    );

    // --- 3. Execute on the simulated chip.
    let data = Tensor::from_fn(Shape::vector(n), |i| (i as f64 * 0.71).sin() * 3.0);
    let mean_value = data.data().iter().sum::<f64>() / n as f64;
    let outputs = session.run(&[("x", data), ("mean", Tensor::scalar(mean_value))])?;

    let variance_value = outputs.by_name("variance")?.data()[0];
    println!("\nresult:");
    println!("  variance (in-memory chip) : {variance_value:.4}");

    let report = outputs.report();
    println!("\nexecution report:");
    println!("  instances        : {}", report.instances);
    println!("  rounds           : {}", report.rounds);
    println!("  cycles           : {}", report.cycles);
    println!(
        "  wall-clock       : {:.2} µs @ 20 MHz arrays",
        report.seconds * 1e6
    );
    println!(
        "  energy           : {:.2} nJ",
        report.energy.total_j() * 1e9
    );
    println!(
        "  avg ADC resolution: {:.2} bits (of 5)",
        report.avg_adc_bits
    );
    println!("  reduction adds in routers: {}", report.noc.reduction_adds);
    Ok(())
}
