//! Simulator-throughput study: serial versus parallel instance-group
//! execution of [`Machine::run`] across group counts.
//!
//! For each group count the same compiled kernel runs once under
//! [`Parallelism::Serial`] and once under [`Parallelism::Auto`], timed
//! wall-clock over several repetitions. Two kinds of assertion:
//!
//! 1. **Determinism**: the parallel report is bit-identical to the
//!    serial one at every sweep point (outputs, cycles, energy, NoC
//!    counters) — the engine's core guarantee, checked here end-to-end
//!    on a real workload kernel rather than a synthetic one.
//! 2. **Throughput**: on hosts with ≥ 2 workers, parallel execution at
//!    64+ groups must not fall below serial by more than a generous
//!    margin (it should be faster; the margin absorbs CI noise). On
//!    single-core hosts the gate is skipped — there is nothing to win.
//!
//! Output is human tables plus JSON-lines records in the
//! [`imp_bench::emit_json`] schema (report-level data) and a
//! `"series":"perf_*"` extension carrying wall-clock seconds and
//! speedup. Pass `--smoke` for the CI configuration (fewer points and
//! repetitions). The repository's benchmark of record is `perfbench/`
//! (see `BENCHMARK.json`); this sweep only checks the engine.
//!
//! Telemetry: after the sweep, the 64-group point reruns serially with a
//! recorder installed; the wall-clock ratio against the uninstrumented
//! run gates the *enabled*-path cost (the disabled path is what the
//! whole sweep measures — one `Option` check). Pass
//! `--telemetry-dump PATH` to write that instrumented run's
//! [`TelemetryReport`] JSON to `PATH`.
//!
//! [`TelemetryReport`]: imp_sim::TelemetryReport
//!
//! [`Machine::run`]: imp_sim::Machine::run
//! [`Parallelism::Serial`]: imp_sim::Parallelism::Serial
//! [`Parallelism::Auto`]: imp_sim::Parallelism::Auto

use imp::OptPolicy;
use imp_bench::{emit_json_line, header};
use imp_sim::{Machine, Parallelism, RunReport, SimConfig, Telemetry};
use imp_workloads::workload;
use std::time::Instant;

/// Times `reps` full runs and returns the best wall-clock seconds plus
/// the last report (best-of-n is the standard noise-resistant estimator
/// for short benches).
fn time_runs(
    parallelism: Parallelism,
    kernel: &imp::CompiledKernel,
    inputs: &std::collections::HashMap<String, imp::Tensor>,
    reps: usize,
) -> (f64, RunReport) {
    time_runs_with(parallelism, None, kernel, inputs, reps)
}

/// [`time_runs`] with an optional telemetry recorder installed (reset
/// between reps so the dumped report covers one run).
fn time_runs_with(
    parallelism: Parallelism,
    telemetry: Option<&Telemetry>,
    kernel: &imp::CompiledKernel,
    inputs: &std::collections::HashMap<String, imp::Tensor>,
    reps: usize,
) -> (f64, RunReport) {
    let mut best = f64::INFINITY;
    let mut last = None;
    for _ in 0..reps {
        if let Some(t) = telemetry {
            t.reset();
        }
        let mut machine = Machine::new(SimConfig {
            parallelism,
            telemetry: telemetry.cloned(),
            ..SimConfig::functional()
        });
        let t0 = Instant::now();
        let report = machine.run(kernel, inputs).expect("sweep run");
        best = best.min(t0.elapsed().as_secs_f64());
        last = Some(report);
    }
    (best, last.expect("at least one rep"))
}

/// Bit-identity of the result-bearing report fields (the full
/// field-by-field property lives in `crates/sim/tests/`).
fn assert_identical(serial: &RunReport, parallel: &RunReport, groups: usize) {
    assert_eq!(serial.outputs, parallel.outputs, "{groups} groups: outputs");
    assert_eq!(serial.cycles, parallel.cycles, "{groups} groups: cycles");
    assert_eq!(serial.energy, parallel.energy, "{groups} groups: energy");
    assert_eq!(serial.noc, parallel.noc, "{groups} groups: noc");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let telemetry_dump_path = args
        .iter()
        .position(|a| a == "--telemetry-dump")
        .and_then(|i| args.get(i + 1))
        .cloned();
    header(if smoke {
        "Engine throughput sweep (smoke) — serial vs parallel group execution"
    } else {
        "Engine throughput sweep — serial vs parallel group execution"
    });

    let workers = Parallelism::Auto.workers();
    let group_counts: &[usize] = if smoke { &[1, 64] } else { &[1, 8, 64, 512] };
    let reps = if smoke { 2 } else { 3 };
    println!("{workers} parallel worker(s) available\n");
    println!(
        "{:<8} {:>10} {:>12} {:>12} {:>9}",
        "groups", "instances", "serial s", "parallel s", "speedup"
    );

    let w = workload("blackscholes").expect("workload");
    let mut speedup_at_64 = None;
    let mut serial_s_at_64 = None;
    for &groups in group_counts {
        let n = groups * imp::isa::LANES;
        let kernel = w.compile(n, OptPolicy::MaxDlp).expect("compile");
        let inputs = w.inputs(n, 5);

        let (serial_s, serial) = time_runs(Parallelism::Serial, &kernel, &inputs, reps);
        let (parallel_s, parallel) = time_runs(Parallelism::Auto, &kernel, &inputs, reps);
        assert_identical(&serial, &parallel, groups);

        let speedup = serial_s / parallel_s;
        if groups == 64 {
            speedup_at_64 = Some(speedup);
            serial_s_at_64 = Some(serial_s);
        }
        println!("{groups:<8} {n:>10} {serial_s:>12.4} {parallel_s:>12.4} {speedup:>8.2}x");

        for (series, report, wall_s) in [
            ("serial", &serial, serial_s),
            ("parallel", &parallel, parallel_s),
        ] {
            let line = emit_json_line("engine_sweep", series, groups, report, 0.0);
            println!("{line}");
            let perf = format!(
                concat!(
                    "{{\"experiment\":\"engine_sweep\",\"series\":\"perf_{}\",\"x\":{},",
                    "\"wall_s\":{:.6e},\"runs_per_s\":{:.6e},\"speedup\":{:.4},",
                    "\"workers\":{}}}"
                ),
                series,
                groups,
                wall_s,
                1.0 / wall_s,
                speedup,
                if series == "serial" { 1 } else { workers },
            );
            println!("{perf}");
        }
    }

    // Throughput gate: only meaningful with real parallel hardware, and
    // generous (0.7×) so scheduler noise cannot flake CI. On multi-core
    // hosts the expectation is well above 1×.
    let speedup_at_64 = speedup_at_64.expect("64-group point always swept");
    if workers >= 2 {
        assert!(
            speedup_at_64 >= 0.7,
            "parallel execution at 64 groups fell to {speedup_at_64:.2}x of serial \
             with {workers} workers — the engine is losing more than scheduling noise"
        );
        println!("\nperf gate: {speedup_at_64:.2}x at 64 groups with {workers} workers — ok");
    } else {
        println!("\nperf gate skipped: single worker (serial and parallel are the same path)");
    }

    // Telemetry-enabled overhead at the 64-group point: rerun serially
    // with a recorder installed and compare wall clocks. The bound is
    // generous (2×) because the gate exists to catch instrumentation
    // creeping into the per-instruction hot loop, not to benchmark the
    // mutex; typical overhead is a few percent (one per-op f64 add plus
    // end-of-run snapshotting).
    {
        let groups = 64usize;
        let n = groups * imp::isa::LANES;
        let kernel = w.compile(n, OptPolicy::MaxDlp).expect("compile");
        let inputs = w.inputs(n, 5);
        let telemetry = Telemetry::new();
        let (telemetry_s, report) = time_runs_with(
            Parallelism::Serial,
            Some(&telemetry),
            &kernel,
            &inputs,
            reps,
        );
        let serial_s = serial_s_at_64.expect("64-group point always swept");
        let overhead = telemetry_s / serial_s;
        println!(
            "\ntelemetry-enabled overhead at 64 groups: {overhead:.2}x \
             ({telemetry_s:.4}s instrumented vs {serial_s:.4}s plain)"
        );
        let perf = format!(
            concat!(
                "{{\"experiment\":\"engine_sweep\",\"series\":\"perf_telemetry\",\"x\":{},",
                "\"wall_s\":{:.6e},\"overhead\":{:.4}}}"
            ),
            groups, telemetry_s, overhead,
        );
        println!("{perf}");
        assert!(
            overhead <= 2.0,
            "telemetry-enabled run at 64 groups cost {overhead:.2}x the plain run — \
             instrumentation has crept into the hot loop"
        );
        if let Some(path) = telemetry_dump_path {
            let snapshot = report
                .telemetry
                .expect("instrumented run carries telemetry");
            std::fs::write(&path, format!("{}\n", snapshot.to_json()))
                .expect("write telemetry dump");
            println!("telemetry report written to {path}");
        }
    }

    println!("\nall engine-sweep assertions passed");
}
