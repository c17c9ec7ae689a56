//! The repository benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload sim_corpus --seed 5 --seconds 50 --trace 0
//! ```
//!
//! One client runs closed-loop jobs. Each job compiles, verifies
//! (`VerifyLevel::Deny`) and simulates one corpus kernel through
//! `Session::builder(..).build()` and `Session::run`, and is checked
//! against the golden interpreter. Jobs and set-up are timed in process
//! CPU time (see [`host::cpu_ns`]). With `--trace 0` the end-to-end
//! metrics are printed; with `--trace 1` untraced and traced passes
//! alternate, and the per-layer metrics are printed. The last line of
//! standard output is the JSON result; `#` lines before it are for people.
//! Results and the Chrome trace are written under `perfbench/out/`.

mod host;
mod jobs;
mod micro;
mod report;
mod stats;
mod trace;

use host::Host;
use imp::prelude::*;
use imp::{Machine, RunReport};
use imp_compiler::ArrayAvailability;
use jobs::{Model, Row, Spec};
use report::Metric;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use trace::Recorder;

/// Percentile of a row's job times the rates are computed from.
const ROW_PERCENTILE: f64 = 2.0;

/// Set-ups before the first pass. One more follows every pass, so the
/// samples span the run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// The end-to-end metrics (`--trace 0`), with units.
const END_TO_END: [(&str, &str); 7] = [
    ("jobs_per_cpu_s", "1/s"),
    ("geomean_jobs_per_cpu_s", "1/s"),
    ("sim_minst_per_cpu_s", "Minst/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("model_cycles", "count"),
    ("model_energy_uj", "uJ"),
];

/// The compiler phases, in pipeline order, as named by the `compile.*`
/// telemetry spans.
const PHASES: [&str; 6] = [
    "scalarize",
    "merge",
    "partition",
    "lower",
    "schedule",
    "assemble",
];

/// Layers spans are attributed to: the benchmark's own job envelope, then
/// the crates whose public functions are timed.
const LAYERS: [&str; 8] = [
    "bench",
    "imp",
    "imp-compiler",
    "imp-verify",
    "imp-sim",
    "imp-rram",
    "imp-noc",
    "imp-dfg",
];

/// The per-layer metrics (`--trace 1`), with units.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = vec![
        ("job.cpu_p50_ms".into(), "ms"),
        ("job.cpu_tail_ms".into(), "ms"),
    ];
    for op in micro::OPS {
        m.push((format!("rram.{op}.fast_ns"), "ns"));
        m.push((format!("rram.{op}.slow_ns"), "ns"));
    }
    m.push(("rram.avg_adc_bits".into(), "bits"));
    for (name, unit) in [
        ("sim.machine_new_ms", "ms"),
        ("sim.run_ms", "ms"),
        ("sim.run_auto_ms", "ms"),
        ("sim.engine_speedup", "x"),
        ("sim.ns_per_inst", "ns"),
        ("sim.instructions", "count"),
    ] {
        m.push((name.into(), unit));
    }
    for w in imp_workloads::all_workloads() {
        m.push((format!("sim.run_ms.{}", w.name), "ms"));
    }
    m.push(("compiler.compile_ms".into(), "ms"));
    for phase in PHASES {
        m.push((format!("compiler.{phase}_ms"), "ms"));
    }
    for (name, unit) in [
        ("compiler.scalar_ops", "count"),
        ("compiler.ibs", "count"),
        ("compiler.ib_instructions", "count"),
        ("verify.verify_ms", "ms"),
        ("verify.diagnostics", "count"),
        ("session.build_ms", "ms"),
        ("session.run_ms", "ms"),
        ("session.overhead_ms", "ms"),
        ("noc.messages", "count"),
        ("noc.flit_hops", "count"),
        ("noc.contention_cycles", "cycles"),
        ("noc.transfer_ns", "ns"),
        ("dfg.build_ms", "ms"),
        ("dfg.interp_ms", "ms"),
    ] {
        m.push((name.into(), unit));
    }
    for layer in LAYERS {
        m.push((format!("layer.{layer}.self_ms"), "ms"));
    }
    for (name, unit) in [
        ("trace_overhead", "x"),
        ("trace.accounted_share", "x"),
        ("failed_share", "ratio"),
        ("worst_err_ratio", "ratio"),
    ] {
        m.push((name.into(), unit));
    }
    m
}

/// SplitMix64 of `a` and `b`: the benchmark's seed derivation.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a
        .wrapping_add(b.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

struct Args {
    workload: &'static Spec,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => {
                workload = Some(jobs::spec(value).ok_or_else(|| {
                    let names: Vec<&str> = jobs::WORKLOADS.iter().map(|s| s.name).collect();
                    bad(&format!("expected one of {}", names.join(", ")))
                })?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| bad("expected an integer"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0 && s.is_finite())
                        .ok_or_else(|| bad("expected a positive number"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(5),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Outcomes of untraced jobs: the end-to-end measurements and the
/// correctness gates.
struct Untraced {
    /// CPU milliseconds of every completed job.
    latency_ms: Vec<f64>,
    /// CPU seconds of each row's jobs.
    row_s: Vec<Vec<f64>>,
    /// Wall-clock nanoseconds of all completed jobs, which traced spans
    /// are compared with.
    wall_ns: u64,
    attempted: u64,
    failed: u64,
    worst_err: f64,
    /// Each row's result fingerprint, from its first job.
    reference: Vec<Option<u64>>,
    /// Simulated totals of the first pass.
    model: Option<Model>,
    passes: u64,
}

impl Untraced {
    fn new(rows: usize) -> Self {
        Untraced {
            latency_ms: Vec::new(),
            row_s: vec![Vec::new(); rows],
            wall_ns: 0,
            attempted: 0,
            failed: 0,
            worst_err: 0.0,
            reference: vec![None; rows],
            model: None,
            passes: 0,
        }
    }

    fn fail(&mut self, msg: String) {
        self.failed += 1;
        eprintln!("perfbench: job failed: {msg}");
    }

    /// Checks a report against the interpreter and the row's reference
    /// fingerprint. Returns false (and counts a failure) when it misses.
    fn accept(&mut self, i: usize, row: &Row, report: &RunReport) -> bool {
        match jobs::err_ratio(row, report) {
            Err(e) => {
                self.fail(e);
                return false;
            }
            Ok(r) if r > 1.0 => {
                self.fail(format!("{}: error {r:.3}x the tolerance", row.label()));
                return false;
            }
            Ok(r) => self.worst_err = self.worst_err.max(r),
        }
        let fp = jobs::fingerprint(report);
        match self.reference[i] {
            None => self.reference[i] = Some(fp),
            Some(want) if want != fp => {
                self.fail(format!(
                    "{}: result differs from the row's first run",
                    row.label()
                ));
                return false;
            }
            Some(_) => {}
        }
        true
    }

    /// One pass over every row.
    fn pass(&mut self, spec: &Spec, rows: &[Row], feeds: &[Vec<(&str, Tensor)>]) {
        let mut model = Model::default();
        for (i, row) in rows.iter().enumerate() {
            let (time, result) = jobs::run_job(spec, row, &feeds[i]);
            self.attempted += 1;
            let out = match result {
                Ok((_session, out)) => out,
                Err(e) => {
                    self.fail(format!("{}: {e}", row.label()));
                    continue;
                }
            };
            if !self.accept(i, row, out.report()) {
                continue;
            }
            self.latency_ms.push(ms(time.cpu_ns));
            self.row_s[i].push(time.cpu_ns as f64 / 1e9);
            self.wall_ns += time.wall_ns;
            model.add(out.report());
        }
        self.passes += 1;
        if self.model.is_none() {
            self.model = Some(model);
        }
    }

    fn cpu_s(&self) -> f64 {
        self.latency_ms.iter().sum::<f64>() / 1e3
    }

    /// Mean wall-clock milliseconds per completed job.
    fn wall_ms(&self) -> f64 {
        ms(self.wall_ns) / self.latency_ms.len() as f64
    }

    /// Each row's 2nd-percentile job, in CPU seconds. Even with steal
    /// left out, a vCPU shares its core with the host's other guests, and
    /// the same job costs 1.1–1.8x its least CPU time in the median of a
    /// ten-second stretch. Undisturbed jobs come up in every stretch: the
    /// least of each stretch stays within 1.1x of the least of a
    /// 150-second run (sim_corpus on a 2-vCPU VM). A low percentile reads
    /// that undisturbed cost; a median reads how busy the neighbours were.
    fn fast_row_s(&self) -> Vec<f64> {
        self.row_s
            .iter()
            .map(|s| stats::percentile(s, ROW_PERCENTILE))
            .collect()
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// Per-layer samples from traced jobs.
#[derive(Default)]
struct Layers {
    passes: u64,
    job_span_ns: u64,
    build_ms: Vec<f64>,
    run_ms: Vec<f64>,
    compile_ms: Vec<f64>,
    phase_ms: [Vec<f64>; 6],
    verify_ms: Vec<f64>,
    machine_new_ms: Vec<f64>,
    sim_run_ms: Vec<f64>,
    sim_auto_ms: Vec<f64>,
    overhead_ms: Vec<f64>,
    kernel_run_ms: BTreeMap<&'static str, Vec<f64>>,
    instructions: u64,
    scalar_ops: u64,
    ibs: u64,
    ib_instructions: u64,
    diagnostics: u64,
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// One traced job: the same session build and run as an untraced job,
/// with a telemetry handle installed so the compiler's phase spans and
/// the simulator's run span report their durations, followed by
/// out-of-job probes of `verify_with`, `Machine::new` and a
/// `Parallelism::Auto` `Machine::run`. Returns the fingerprint of the
/// session's report.
fn traced_job(
    spec: &Spec,
    row: &Row,
    feeds: &[(&str, Tensor)],
    job: u64,
    rec: &mut Recorder,
    acc: &mut Layers,
) -> Result<u64, String> {
    let label = row.label();
    let telemetry = Telemetry::new();
    let t0 = rec.now();
    let builder = row.builder(spec).telemetry(telemetry.clone());
    let b0 = rec.now();
    let built = builder.build();
    let b1 = rec.now();
    let mut session = built.map_err(|e| format!("{label}: {e}"))?;
    let out = session.run(feeds);
    let r1 = rec.now();
    let out = out.map_err(|e| format!("{label}: {e}"))?;

    let job_i = rec.push(format!("job {label}"), "bench", (t0, r1), None, job);
    let build_i = rec.push("session.build", "imp", (b0, b1), Some(job_i), job);
    let run_i = rec.push("session.run", "imp", (b1, r1), Some(job_i), job);
    let snap = telemetry.snapshot();
    let timer = |name: &str| snap.timers.get(name).map_or(0, |t| t.total_nanos as u64);
    let compile_ns = timer("compile.total");
    let compile_i = rec.push_placed(
        "compiler.compile",
        "imp-compiler",
        b0,
        compile_ns,
        build_i,
        job,
    );
    let mut at = b0;
    for (k, phase) in PHASES.iter().enumerate() {
        let ns = timer(&format!("compile.{phase}"));
        rec.push_placed(
            format!("compiler.{phase}"),
            "imp-compiler",
            at,
            ns,
            compile_i,
            job,
        );
        at += ns;
        acc.phase_ms[k].push(ms(ns));
    }
    let sim_ns = timer("sim.run");
    rec.push_placed("sim.run", "imp-sim", b1, sim_ns, run_i, job);

    let kernel = session.kernel();
    let mut config = session.sim_config().clone();
    config.telemetry = None;
    let avail = ArrayAvailability::all(config.capacity.arrays());
    let (verify, verify_i) = rec.time("verify.verify_with", "imp-verify", None, job, || {
        imp_verify::verify_with(kernel, &kernel.schedule, &avail)
    });
    let (_, new_i) = rec.time("sim.machine_new", "imp-sim", None, job, || {
        Machine::new(config.clone())
    });
    config.parallelism = Parallelism::Auto;
    let mut auto = Machine::new(config);
    let (auto_report, auto_i) = rec.time("sim.run_auto", "imp-sim", None, job, || {
        auto.run(kernel, row.inputs())
    });
    let auto_report = auto_report.map_err(|e| format!("{label}: Auto run: {e}"))?;
    let fp = jobs::fingerprint(out.report());
    if jobs::fingerprint(&auto_report) != fp {
        return Err(format!(
            "{label}: Parallelism::Auto result differs from Serial"
        ));
    }

    let span_ms = |i: usize| ms(rec.spans()[i].dur_ns());
    acc.job_span_ns += r1 - t0;
    acc.build_ms.push(ms(b1 - b0));
    acc.run_ms.push(ms(r1 - b1));
    acc.compile_ms.push(ms(compile_ns));
    acc.verify_ms.push(span_ms(verify_i));
    acc.machine_new_ms.push(span_ms(new_i));
    acc.sim_run_ms.push(ms(sim_ns));
    acc.sim_auto_ms.push(span_ms(auto_i));
    acc.overhead_ms.push(ms(r1 - b1) - ms(sim_ns));
    acc.kernel_run_ms
        .entry(row.kernel)
        .or_default()
        .push(ms(sim_ns));
    acc.instructions += out.report().instructions_executed;
    acc.scalar_ops += snap
        .counters
        .get("compile.scalar_ops")
        .copied()
        .unwrap_or(0);
    acc.ibs += kernel.ibs.len() as u64;
    acc.ib_instructions += kernel
        .ibs
        .iter()
        .map(|ib| ib.block.len() as u64)
        .sum::<u64>();
    acc.diagnostics += verify.diagnostics.len() as u64;
    Ok(fp)
}

fn out_dir() -> Result<std::path::PathBuf, String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

fn write_file(name: &str, contents: &str) -> Result<std::path::PathBuf, String> {
    let path = out_dir()?.join(name);
    std::fs::write(&path, contents).map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path)
}

/// End-to-end metrics from untraced passes.
fn end_to_end(u: &Untraced, setup_s: f64) -> Result<Vec<Metric>, String> {
    let typical = u.fast_row_s();
    let row_rates: Vec<f64> = typical.iter().map(|s| 1.0 / s).collect();
    let pass_s: f64 = typical.iter().sum();
    let model = u.model.clone().unwrap_or_default();
    let values = [
        model.jobs as f64 / pass_s,
        stats::geomean(&row_rates),
        model.instructions as f64 / pass_s / 1e6,
        setup_s,
        host::peak_rss_mb().ok_or("cannot read VmHWM from /proc/self/status")?,
        model.cycles as f64,
        model.energy_j * 1e6,
    ];
    Ok(END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| Metric::new(name, unit, v))
        .collect())
}

/// Per-layer metrics from a traced run.
fn layer_metrics(
    u: &Untraced,
    acc: &Layers,
    rec: &Recorder,
    rram: &[(&str, f64, f64)],
    transfer_ns: f64,
    dfg: (f64, f64),
) -> Vec<Metric> {
    let mut v: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |name: String, value: f64| {
        v.insert(name, value);
    };
    put("job.cpu_p50_ms".into(), stats::median(&u.latency_ms));
    match stats::tail(&u.latency_ms) {
        Some(t) => {
            println!(
                "# job.cpu_tail_ms is p{} of {} untraced jobs ({} beyond it)",
                t.percentile, t.samples, t.beyond
            );
            put("job.cpu_tail_ms".into(), t.value);
        }
        None => println!(
            "# {} untraced jobs are too few for a tail percentile; raise --seconds",
            u.latency_ms.len()
        ),
    }
    for &(op, fast, slow) in rram {
        put(format!("rram.{op}.fast_ns"), fast);
        put(format!("rram.{op}.slow_ns"), slow);
    }
    let model = u.model.clone().unwrap_or_default();
    let passes = acc.passes.max(1);
    put(
        "rram.avg_adc_bits".into(),
        model.adc_bits_sum / model.jobs.max(1) as f64,
    );
    put(
        "sim.machine_new_ms".into(),
        stats::mean(&acc.machine_new_ms),
    );
    put("sim.run_ms".into(), stats::mean(&acc.sim_run_ms));
    put("sim.run_auto_ms".into(), stats::mean(&acc.sim_auto_ms));
    put(
        "sim.engine_speedup".into(),
        acc.sim_run_ms.iter().sum::<f64>() / acc.sim_auto_ms.iter().sum::<f64>(),
    );
    put(
        "sim.ns_per_inst".into(),
        acc.sim_run_ms.iter().sum::<f64>() * 1e6 / acc.instructions as f64,
    );
    put("sim.instructions".into(), model.instructions as f64);
    for (kernel, samples) in &acc.kernel_run_ms {
        put(format!("sim.run_ms.{kernel}"), stats::mean(samples));
    }
    put("compiler.compile_ms".into(), stats::mean(&acc.compile_ms));
    for (phase, samples) in PHASES.iter().zip(&acc.phase_ms) {
        put(format!("compiler.{phase}_ms"), stats::mean(samples));
    }
    put(
        "compiler.scalar_ops".into(),
        (acc.scalar_ops / passes) as f64,
    );
    put("compiler.ibs".into(), (acc.ibs / passes) as f64);
    put(
        "compiler.ib_instructions".into(),
        (acc.ib_instructions / passes) as f64,
    );
    put("verify.verify_ms".into(), stats::mean(&acc.verify_ms));
    put(
        "verify.diagnostics".into(),
        (acc.diagnostics / passes) as f64,
    );
    put("session.build_ms".into(), stats::mean(&acc.build_ms));
    put("session.run_ms".into(), stats::mean(&acc.run_ms));
    put("session.overhead_ms".into(), stats::mean(&acc.overhead_ms));
    put("noc.messages".into(), model.noc.messages as f64);
    put("noc.flit_hops".into(), model.noc.flit_hops as f64);
    put(
        "noc.contention_cycles".into(),
        model.noc.contention_cycles as f64,
    );
    put("noc.transfer_ns".into(), transfer_ns);
    put("dfg.build_ms".into(), dfg.0);
    put("dfg.interp_ms".into(), dfg.1);
    let self_ns = trace::self_times(rec.spans());
    for layer in LAYERS {
        put(
            format!("layer.{layer}.self_ms"),
            ms(self_ns.get(layer).copied().unwrap_or(0)),
        );
    }
    let trace_overhead = acc.job_span_ns as f64 / u.wall_ns as f64;
    let accounted = stats::mean(&acc.compile_ms)
        + stats::mean(&acc.verify_ms)
        + stats::mean(&acc.machine_new_ms)
        + stats::mean(&acc.sim_run_ms)
        + stats::mean(&acc.overhead_ms);
    let share = accounted / u.wall_ms();
    println!(
        "# compile + verify + machine_new + run + session overhead = {accounted:.4} ms per job, \
         {share:.3} of the untraced job (trace_overhead {trace_overhead:.3})"
    );
    put("trace_overhead".into(), trace_overhead);
    put("trace.accounted_share".into(), share);
    put(
        "failed_share".into(),
        u.failed as f64 / u.attempted.max(1) as f64,
    );
    put("worst_err_ratio".into(), u.worst_err);
    per_layer()
        .into_iter()
        .map(|(name, unit)| {
            let value = v.get(&name).copied().unwrap_or(f64::NAN);
            Metric::new(name, unit, value)
        })
        .collect()
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let spec = args.workload;
    if !host::pin_allocator() {
        return Err("mallopt refused to fix the allocator thresholds".into());
    }
    let host = Host::probe();
    println!("# host {}", host.to_json());
    if host.workers > host.nproc {
        return Err(format!(
            "refusing to run {} simulator workers on {} cores; lower RAYON_NUM_THREADS",
            host.workers, host.nproc
        ));
    }
    let budget = Duration::from_secs_f64(args.seconds);
    let stem = format!(
        "{}-seed{}-trace{}",
        spec.name,
        args.seed,
        u8::from(args.trace)
    );

    let (correct, attempted, failed, metrics, extra) = if !args.trace {
        let timed_setup = || -> Result<(f64, Vec<Row>), String> {
            let t = host::cpu_ns();
            let rows = jobs::setup(spec, args.seed, None)?;
            Ok(((host::cpu_ns() - t) as f64 / 1e9, rows))
        };
        let mut setup_s = Vec::new();
        let mut rows = Vec::new();
        for _ in 0..SETUP_REPEATS {
            let (s, r) = timed_setup()?;
            setup_s.push(s);
            rows = r;
        }
        let feeds: Vec<Vec<(&str, Tensor)>> = rows.iter().map(Row::feeds).collect();
        let mut u = Untraced::new(rows.len());
        let ticks = host::cpu_ticks();
        let deadline = Instant::now() + budget;
        while u.passes == 0 || Instant::now() < deadline {
            u.pass(spec, &rows, &feeds);
            setup_s.push(timed_setup()?.0);
        }
        let steal = match (ticks, host::cpu_ticks()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
            _ => f64::NAN,
        };
        println!(
            "# {} passes of {} jobs: {:.3} CPU s, {:.3} wall s of job time; \
             steal took {:.3} of all CPU ticks",
            u.passes,
            rows.len(),
            u.cpu_s(),
            u.wall_ns as f64 / 1e9,
            steal,
        );
        let metrics = end_to_end(&u, stats::median(&setup_s))?;
        if u.correct() {
            report::check(&metrics, &END_TO_END.map(|(n, _)| n))?;
        }
        (
            u.correct(),
            u.attempted,
            u.failed,
            metrics,
            format!(
                ",\"steal_share\":{}",
                if steal.is_finite() {
                    report::json_number(steal)
                } else {
                    "null".to_string()
                }
            ),
        )
    } else {
        let mut rec = Recorder::new();
        let rows = jobs::setup(spec, args.seed, Some(&mut rec))?;
        let dfg_mean = |prefix: &str| {
            let samples: Vec<f64> = rec
                .spans()
                .iter()
                .filter(|s| s.name.starts_with(prefix))
                .map(|s| ms(s.dur_ns()))
                .collect();
            stats::mean(&samples)
        };
        let dfg = (dfg_mean("dfg.build."), dfg_mean("dfg.interp."));
        let feeds: Vec<Vec<(&str, Tensor)>> = rows.iter().map(Row::feeds).collect();
        let rram = micro::rram_opcodes(args.seed, &mut rec)?;
        let tiles = SimConfig::functional().capacity.tiles;
        let transfer_ns = micro::noc_transfer(args.seed, tiles, &mut rec);

        let mut u = Untraced::new(rows.len());
        let mut acc = Layers::default();
        let mut job = 0u64;
        let deadline = Instant::now() + budget;
        while acc.passes == 0 || Instant::now() < deadline {
            u.pass(spec, &rows, &feeds);
            for (i, row) in rows.iter().enumerate() {
                job += 1;
                u.attempted += 1;
                match traced_job(spec, row, &feeds[i], job, &mut rec, &mut acc) {
                    Ok(fp) if Some(fp) == u.reference[i] => {}
                    Ok(_) => u.fail(format!(
                        "{}: traced result differs from untraced",
                        row.label()
                    )),
                    Err(e) => u.fail(e),
                }
            }
            acc.passes += 1;
        }
        println!(
            "# {} untraced + {} traced passes of {} jobs",
            u.passes,
            acc.passes,
            rows.len()
        );
        let metrics = layer_metrics(&u, &acc, &rec, &rram, transfer_ns, dfg);
        let names: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        if u.correct() {
            report::check(&metrics, &names)?;
        }
        let metadata = format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"host\":{}}}",
            spec.name,
            args.seed,
            host.to_json()
        );
        let path = write_file(
            &format!("{stem}.trace.json"),
            &trace::chrome_json(rec.spans(), &metadata),
        )?;
        println!(
            "# {} spans written to {}",
            rec.spans().len(),
            path.display()
        );
        (u.correct(), u.attempted, u.failed, metrics, String::new())
    };

    // A failed run still reports what it measured; values a failure left
    // undefined are dropped.
    let metrics: Vec<Metric> = metrics
        .into_iter()
        .filter(|m| m.value.is_finite())
        .collect();
    for m in &metrics {
        println!("# {:<34} {:>18.6} {}", m.name, m.value, m.unit);
    }
    let line = report::result_line(correct, attempted, failed, &metrics);
    write_file(
        &format!("{stem}.json"),
        &format!(
            "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"host\":{}{extra},\"result\":{line}}}\n",
            spec.name,
            args.seed,
            args.seconds,
            host.to_json()
        ),
    )?;
    println!("{line}");
    Ok(correct)
}

fn main() {
    match run() {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Names listed under `section` in the repository's BENCHMARK.json.
    fn declared(section: &str) -> Vec<String> {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').expect("section is a list")];
        body.split("\"name\":")
            .skip(1)
            .map(|s| {
                s.trim()
                    .trim_start_matches('"')
                    .split('"')
                    .next()
                    .unwrap()
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_declares_exactly_the_reported_metrics() {
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(declared("end_to_end"), e2e);
        let layers: Vec<String> = per_layer().into_iter().map(|(n, _)| n).collect();
        assert_eq!(declared("per_layer"), layers);
        let workloads: Vec<String> = jobs::WORKLOADS.iter().map(|s| s.name.to_string()).collect();
        assert_eq!(declared("workloads"), workloads);
    }

    #[test]
    fn every_metric_name_and_unit_is_valid() {
        let mut names: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        for (name, unit) in per_layer() {
            assert!(report::valid_unit(unit), "{unit}");
            names.push(name);
        }
        for (_, unit) in END_TO_END {
            assert!(report::valid_unit(unit), "{unit}");
        }
        for (i, n) in names.iter().enumerate() {
            assert!(report::valid_name(n), "{n}");
            assert!(!names[..i].contains(n), "{n} declared twice");
        }
        assert!(names.len() <= 128 + END_TO_END.len());
    }

    #[test]
    fn mix_is_deterministic_and_spreads() {
        assert_eq!(mix(5, 1), mix(5, 1));
        assert_ne!(mix(5, 1), mix(5, 2));
        assert_ne!(mix(5, 1), mix(6, 1));
    }
}
