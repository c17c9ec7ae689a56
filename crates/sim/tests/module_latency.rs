//! A kernel's module latency has one owner: `schedule.module_latency`.
//! A kernel whose schedule is edited after compile (as hand-built kernels
//! in `tape.rs` are) reports the edited latency from every reader: the
//! kernel's accessor and statistics, the analytical model, and a run's
//! cycles and lifetime.

use imp_compiler::{perf, CompileOptions};
use imp_dfg::{GraphBuilder, Shape, Tensor};
use imp_sim::{lifetime, Machine, SimConfig};
use std::collections::HashMap;

const N: usize = 16;

#[test]
fn an_edited_module_latency_is_read_by_every_consumer() {
    let mut g = GraphBuilder::new();
    let a = g.placeholder("a", Shape::vector(N)).unwrap();
    let b = g.placeholder("b", Shape::vector(N)).unwrap();
    let y = g.mul(a, b).unwrap();
    g.fetch(y);
    let options = CompileOptions::default();
    let mut kernel = imp_compiler::compile(&g.finish(), &options).unwrap();
    let edited = 3 * kernel.schedule.module_latency + 7;
    kernel.schedule.module_latency = edited;

    assert_eq!(kernel.module_latency(), edited);
    assert_eq!(kernel.stats().module_latency, edited);
    let estimate = perf::estimate(&kernel, N, options.capacity);
    assert_eq!(estimate.total_cycles, estimate.rounds * edited);

    let feed = |v: f64| Tensor::from_vec(vec![v; N], Shape::vector(N)).unwrap();
    let feeds = HashMap::from([("a".to_string(), feed(1.5)), ("b".to_string(), feed(2.0))]);
    let report = Machine::new(SimConfig::functional())
        .run(&kernel, &feeds)
        .unwrap();
    assert_eq!(report.outputs[&y].data(), &[3.0; N]);
    assert_eq!(report.cycles, report.rounds * edited);
    assert!(report.writes_per_exec > 0);
    assert_eq!(
        report.lifetime_years,
        lifetime::lifetime_years(report.writes_per_exec, edited)
    );
}
