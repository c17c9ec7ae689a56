//! # imp-bench — the evaluation harness
//!
//! One binary per table and figure of the paper's evaluation (§6–7), each
//! printing both a human-readable table and machine-readable
//! `name,series,x,y` rows.
//!
//! | binary | reproduces |
//! |---|---|
//! | `table1` | ISA instruction latencies |
//! | `table3` | workload shapes and per-IB instruction counts |
//! | `table4` | component power/area and tile/chip totals |
//! | `table5` | CPU/GPU/IMP system comparison |
//! | `table6` | IB latency & count per policy + lifetime |
//! | `fig7` | operation throughput (add/mul/div/sqrt/exp) |
//! | `fig8`/`fig9` | add/mul latency vs input size |
//! | `fig10` | per-operation energy |
//! | `fig11` | kernel speedups over CPU (PARSEC) and GPU (Rodinia) |
//! | `fig12` | whole-application PARSEC speedup + breakdown |
//! | `fig13` | application energy |
//! | `fig14` | average power |
//! | `fig15` | compiler policy comparison |
//! | `ablation` | node-merging & pipelining latency reductions (§7.4) |
//!
//! Run everything with `cargo run --release -p imp-bench --bin <name>`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use imp_baselines::device::DeviceModel;
use imp_baselines::{cost, KernelCost};
use imp_compiler::{perf, ChipCapacity, CompiledKernel, OptPolicy};
use imp_sim::{Machine, RunReport, SimConfig};
use imp_workloads::Workload;

/// Prints a section header.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// Emits one machine-readable data point (`experiment,series,x,y`).
pub fn emit(experiment: &str, series: &str, x: impl std::fmt::Display, y: f64) {
    println!("{experiment},{series},{x},{y:.6e}");
}

/// Emits one machine-readable JSON record for a simulated run: the sweep
/// coordinates plus the full [`imp_sim::NocStats`] counter set (including the
/// transport-reliability counters), so degradation curves can be consumed
/// without parsing the human-readable tables. One object per line
/// (JSON-lines); hand-rolled because the build environment is offline and
/// serde is not vendored.
pub fn emit_json(
    experiment: &str,
    series: &str,
    x: impl std::fmt::Display,
    report: &RunReport,
    mean_err: f64,
) {
    println!(
        "{}",
        emit_json_line(experiment, series, x, report, mean_err)
    );
}

/// [`emit_json`]'s record as a `String`, for harnesses that also write
/// the JSON-lines stream to a committed baseline file.
pub fn emit_json_line(
    experiment: &str,
    series: &str,
    x: impl std::fmt::Display,
    report: &RunReport,
    mean_err: f64,
) -> String {
    let noc = &report.noc;
    format!(
        concat!(
            "{{\"experiment\":\"{}\",\"series\":\"{}\",\"x\":{},",
            "\"cycles\":{},\"transport_overhead_cycles\":{},\"mean_err\":{:.6e},",
            "\"noc\":{{\"messages\":{},\"bytes\":{},\"flit_hops\":{},",
            "\"router_traversals\":{},\"reduction_adds\":{},\"contention_cycles\":{},",
            "\"crc_failures\":{},\"retransmissions\":{},\"rerouted_messages\":{},",
            "\"retransmit_cycles\":{},\"dropped_messages\":{}}}}}"
        ),
        experiment,
        series,
        x,
        report.cycles,
        report.transport_overhead_cycles,
        mean_err,
        noc.messages,
        noc.bytes,
        noc.flit_hops,
        noc.router_traversals,
        noc.reduction_adds,
        noc.contention_cycles,
        noc.crc_failures,
        noc.retransmissions,
        noc.rerouted_messages,
        noc.retransmit_cycles,
        noc.dropped_messages,
    )
}

/// IMP kernel wall-clock time at `instances` via the static model (§6's
/// note: latencies are deterministic and statically scheduled, so the
/// analytical replay is exact for the array pipeline).
pub fn imp_seconds(kernel: &CompiledKernel, instances: usize) -> f64 {
    perf::estimate(kernel, instances, ChipCapacity::paper()).seconds
}

/// A functional measurement of one workload at a sampling scale: energy
/// per instance plus the full report (energy integration needs real
/// data, so this executes on the simulated arrays).
pub fn measure(w: &Workload, n: usize, policy: OptPolicy) -> (f64, RunReport) {
    let kernel = w.compile(n, policy).expect("workload compiles");
    let inputs = w.inputs(n, 97);
    let mut machine = Machine::new(SimConfig::functional());
    let report = machine.run(&kernel, &inputs).expect("workload runs");
    let energy_per_instance = report.energy.total_j() / report.instances as f64;
    (energy_per_instance, report)
}

/// IMP average power when the chip is fully loaded with this kernel:
/// per-round energy over per-round time.
pub fn imp_avg_power_full_load(kernel: &CompiledKernel, energy_per_instance: f64) -> f64 {
    let cap = ChipCapacity::paper();
    // One instance per SIMD slot is enough to fill a round.
    let full_round = perf::pack(cap.simd_slots(), kernel.ibs.len(), cap.arrays());
    let instances_per_round = full_round.groups_per_round * imp_isa::LANES;
    let round_seconds = kernel.module_latency().max(1) as f64 * imp_rram::ARRAY_CYCLE_S;
    energy_per_instance * instances_per_round as f64 / round_seconds
}

/// The baseline device for a workload's suite: PARSEC kernels compare
/// against the CPU, Rodinia against the GPU (§7.3).
pub fn baseline_for(w: &Workload) -> DeviceModel {
    match w.suite.name() {
        "PARSEC" => DeviceModel::cpu(),
        _ => DeviceModel::gpu(),
    }
}

/// Per-instance cost of a workload on the baselines.
pub fn workload_cost(w: &Workload) -> KernelCost {
    let (graph, _, _) = w.build(64);
    cost::analyze(&graph)
}

/// Kernel-level speedup of IMP over the workload's suite baseline at
/// paper scale, plus the two absolute times `(imp_s, baseline_s)`.
pub fn kernel_speedup(w: &Workload, policy: OptPolicy) -> (f64, f64, f64) {
    let kernel = w.compile(w.paper_instances, policy).expect("compiles");
    let imp_s = imp_seconds(&kernel, w.paper_instances);
    let device = baseline_for(w);
    let base = device.execute(&workload_cost(w), w.paper_instances);
    (base.total_s / imp_s, imp_s, base.total_s)
}

/// Latency-vs-size sweep shared by Figures 8 and 9: single-threaded CPU,
/// multi-threaded CPU, GPU and IMP timings for one microbenchmark op.
pub fn latency_sweep(op: &'static str, figure: &'static str) {
    let cpu = DeviceModel::cpu();
    let gpu = DeviceModel::gpu();
    // Single-threaded CPU: one core's lanes and one channel's bandwidth.
    let cpu1 = DeviceModel {
        name: "CPU-1T",
        simd_slots: 16,
        mem_bw: 12.0e9,
        ..DeviceModel::cpu()
    };
    let (bytes_in, bytes_out) = microbench::bytes(op);
    let kernel_cost = KernelCost {
        ops: std::collections::HashMap::from([(microbench::op_class(op), 1.0)]),
        bytes_in,
        bytes_out,
    };

    println!(
        "{:<12} {:>12} {:>12} {:>12} {:>12}",
        "elements", "CPU-1T (s)", "CPU-OMP (s)", "GPU (s)", "IMP (s)"
    );
    for shift in [10usize, 14, 18, 22, 26] {
        let n = 1usize << shift;
        let kernel = microbench::kernel(op, n);
        let imp_s = imp_seconds(&kernel, n);
        let cpu1_s = cpu1.execute(&kernel_cost, n).total_s;
        let omp_s = cpu.execute(&kernel_cost, n).total_s;
        let gpu_s = gpu.execute(&kernel_cost, n).total_s;
        println!(
            "{:<12} {:>12.3e} {:>12.3e} {:>12.3e} {:>12.3e}",
            n, cpu1_s, omp_s, gpu_s, imp_s
        );
        emit(figure, "cpu1", n, cpu1_s);
        emit(figure, "cpu_omp", n, omp_s);
        emit(figure, "gpu", n, gpu_s);
        emit(figure, "imp", n, imp_s);
        assert!(
            imp_s <= cpu1_s && imp_s <= omp_s,
            "IMP must lead at n = {n}"
        );
    }
}

/// The five microbenchmark operations of Figures 7–10.
pub mod microbench {
    use imp_compiler::{compile, CompileOptions, CompiledKernel};
    use imp_dfg::range::Interval;
    use imp_dfg::{GraphBuilder, Shape};

    /// Builds the single-operation kernel `op` over `n` elements.
    ///
    /// # Panics
    /// Panics if compilation fails (the microbenchmarks are known-good).
    pub fn kernel(op: &str, n: usize) -> CompiledKernel {
        let mut g = GraphBuilder::new();
        let mut options = CompileOptions {
            expected_instances: n,
            ..Default::default()
        };
        let out = match op {
            "add" => {
                let x = g.placeholder("x", Shape::vector(n)).unwrap();
                let y = g.placeholder("y", Shape::vector(n)).unwrap();
                g.add(x, y).unwrap()
            }
            "mul" => {
                let x = g.placeholder("x", Shape::vector(n)).unwrap();
                let y = g.placeholder("y", Shape::vector(n)).unwrap();
                g.mul(x, y).unwrap()
            }
            "div" => {
                let x = g.placeholder("x", Shape::vector(n)).unwrap();
                let y = g.placeholder("y", Shape::vector(n)).unwrap();
                options.ranges.insert("y".into(), Interval::new(0.5, 2.0));
                g.div(x, y).unwrap()
            }
            "sqrt" => {
                let x = g.placeholder("x", Shape::vector(n)).unwrap();
                options.ranges.insert("x".into(), Interval::new(0.0, 100.0));
                g.sqrt(x).unwrap()
            }
            "exp" => {
                let x = g.placeholder("x", Shape::vector(n)).unwrap();
                options.ranges.insert("x".into(), Interval::new(-4.0, 4.0));
                g.exp(x).unwrap()
            }
            other => panic!("unknown microbenchmark op `{other}`"),
        };
        g.fetch(out);
        compile(&g.finish(), &options).expect("microbenchmark compiles")
    }

    /// Baseline bytes per element for the op (binary ops stream 3 words,
    /// unary ops 2 — the Fig. 7 GPU observation).
    pub fn bytes(op: &str) -> (f64, f64) {
        match op {
            "add" | "mul" | "div" => (8.0, 4.0),
            _ => (4.0, 4.0),
        }
    }

    /// The baseline op class for the microbenchmark.
    pub fn op_class(op: &str) -> imp_baselines::OpClass {
        match op {
            "add" => imp_baselines::OpClass::Add,
            "mul" => imp_baselines::OpClass::Mul,
            "div" => imp_baselines::OpClass::Div,
            "sqrt" => imp_baselines::OpClass::Sqrt,
            "exp" => imp_baselines::OpClass::Exp,
            other => panic!("unknown op `{other}`"),
        }
    }

    /// All five operations, in figure order.
    pub const OPS: [&str; 5] = ["add", "mul", "div", "sqrt", "exp"];
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn microbench_kernels_compile_with_expected_latencies() {
        let add = microbench::kernel("add", 1 << 20);
        assert_eq!(add.module_latency(), 3, "Table 1: add is 3 cycles");
        let mul = microbench::kernel("mul", 1 << 20);
        assert_eq!(mul.module_latency(), 18, "Table 1: mul is 18 cycles");
        let div = microbench::kernel("div", 1 << 20);
        // §7.2 reports 62 cycles for division (one NR iteration); the
        // default here runs two iterations for full precision.
        assert!(
            (60..=130).contains(&div.module_latency()),
            "division latency {}",
            div.module_latency()
        );
        let exp = microbench::kernel("exp", 1 << 20);
        assert!(
            (50..=130).contains(&exp.module_latency()),
            "exp latency {}",
            exp.module_latency()
        );
    }

    #[test]
    fn throughput_ordering_matches_fig7() {
        // IMP: add fastest, complex ops slower; all far above baselines.
        let cap = ChipCapacity::paper();
        let tp = |op: &str| {
            let k = microbench::kernel(op, 1 << 20);
            cap.simd_slots() as f64 / k.module_latency() as f64 * 20.0e6
        };
        let add = tp("add");
        let mul = tp("mul");
        let div = tp("div");
        assert!(add > mul && mul > div);
        // Add beats the memory-bound CPU roofline by three orders of
        // magnitude (paper: 2460×).
        let cpu = DeviceModel::cpu();
        let cpu_add = cpu.mem_bw / 12.0;
        let ratio = add / cpu_add;
        assert!(
            (1000.0..=4000.0).contains(&ratio),
            "IMP/CPU add ratio {ratio}"
        );
    }

    #[test]
    fn every_kernel_beats_its_baseline_at_paper_scale() {
        for w in imp_workloads::all_workloads() {
            let (speedup, imp_s, base_s) = kernel_speedup(&w, OptPolicy::MaxArrayUtil);
            assert!(
                speedup > 1.0,
                "{}: IMP {imp_s}s vs baseline {base_s}s",
                w.name
            );
        }
    }

    #[test]
    fn full_load_power_is_below_tdp() {
        let w = imp_workloads::workload("blackscholes").unwrap();
        let (energy_per_instance, _) = measure(&w, 256, OptPolicy::MaxDlp);
        let kernel = w.compile(w.paper_instances, OptPolicy::MaxDlp).unwrap();
        let power = imp_avg_power_full_load(&kernel, energy_per_instance);
        let tdp = imp_sim::energy::chip_tdp_w(4096);
        assert!(power < tdp, "full-load power {power} W vs TDP {tdp} W");
        assert!(power > 1.0, "full-load power {power} W suspiciously low");
    }
}
