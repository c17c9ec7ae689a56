//! Integration coverage of the §7.4 compiler-policy machinery across the
//! real workloads: IB counts, latencies, the analytical model's runtime
//! code selection, and the ablation switches (node merging, pipelining).

use imp::compiler::perf;
use imp::workloads::all_workloads;
use imp::{ChipCapacity, CompileOptions, OptPolicy};

#[test]
fn maxilp_never_slower_per_module() {
    for w in all_workloads() {
        let dlp = w.compile(1 << 16, OptPolicy::MaxDlp).unwrap();
        let ilp = w.compile(1 << 16, OptPolicy::MaxIlp).unwrap();
        assert!(
            ilp.module_latency() <= dlp.module_latency(),
            "{}: ILP {} vs DLP {}",
            w.name,
            ilp.module_latency(),
            dlp.module_latency()
        );
        assert!(ilp.ibs.len() >= dlp.ibs.len(), "{}", w.name);
    }
}

#[test]
fn analytical_model_selects_by_input_size() {
    // §5.2's runtime code selection: for small inputs the short-latency
    // MaxILP code should win; for oversubscribed inputs the 1-IB MaxDLP
    // code wins *when the module has a serial component* (Amdahl inside
    // the module). Embarrassingly parallel modules (e.g. backprop's
    // independent dot cones) legitimately keep preferring ILP splits, so
    // the cross-over is asserted on the kernels with serial chains.
    let cap = ChipCapacity::paper();
    let mut dlp_wins_oversubscribed = 0usize;
    let mut ilp_wins_small = 0usize;
    let mut splittable = 0usize;
    for w in all_workloads() {
        let dlp = w.compile(1 << 30, OptPolicy::MaxDlp).unwrap();
        let ilp = w.compile(64, OptPolicy::MaxIlp).unwrap();
        if ilp.ibs.len() == dlp.ibs.len() {
            continue; // module has no exploitable ILP
        }
        splittable += 1;
        let candidates = vec![dlp, ilp];
        if perf::select_kernel(&candidates, 200_000_000, cap).unwrap() == 0 {
            dlp_wins_oversubscribed += 1;
        }
        if perf::select_kernel(&candidates, 64, cap).unwrap() == 1 {
            ilp_wins_small += 1;
        }
        // Sanity: the selector is a true argmin.
        let pick = perf::select_kernel(&candidates, 1 << 22, cap).unwrap();
        let chosen = perf::estimate(&candidates[pick], 1 << 22, cap).total_cycles;
        for k in &candidates {
            assert!(chosen <= perf::estimate(k, 1 << 22, cap).total_cycles);
        }
    }
    assert!(
        splittable >= 4,
        "expected several splittable kernels, got {splittable}"
    );
    assert!(
        ilp_wins_small * 2 >= splittable,
        "ILP should win small inputs on most splittable kernels ({ilp_wins_small}/{splittable})"
    );
    assert!(
        dlp_wins_oversubscribed >= 1,
        "at least one serial-chain kernel must flip to MaxDLP when oversubscribed"
    );
}

#[test]
fn node_merging_reduces_module_latency() {
    // §7.4 reports 13.8% average module-latency reduction from merging.
    let mut improved = 0usize;
    let mut total = 0usize;
    for w in all_workloads() {
        let n = 1 << 16;
        let (graph, _, ranges) = w.build(n);
        let base = CompileOptions {
            policy: OptPolicy::MaxDlp,
            expected_instances: n,
            ranges,
            ..Default::default()
        };
        let with = imp::compile(&graph, &base).unwrap();
        let without = imp::compile(
            &graph,
            &CompileOptions {
                node_merging: false,
                ..base.clone()
            },
        )
        .unwrap();
        assert!(
            with.module_latency() <= without.module_latency(),
            "{}: merging must not hurt",
            w.name
        );
        total += 1;
        if with.module_latency() < without.module_latency() {
            improved += 1;
        }
    }
    assert!(
        improved * 2 >= total,
        "merging should help at least half the kernels"
    );
}

#[test]
fn pipelining_reduces_module_latency_everywhere() {
    for w in all_workloads() {
        let n = 1 << 16;
        let (graph, _, ranges) = w.build(n);
        let base = CompileOptions {
            policy: OptPolicy::MaxDlp,
            expected_instances: n,
            ranges,
            ..Default::default()
        };
        let with = imp::compile(&graph, &base).unwrap();
        let without = imp::compile(
            &graph,
            &CompileOptions {
                pipelining: false,
                ..base.clone()
            },
        )
        .unwrap();
        assert!(
            with.module_latency() < without.module_latency(),
            "{}: pipelined {} vs serialized {}",
            w.name,
            with.module_latency(),
            without.module_latency()
        );
    }
}

#[test]
fn slots_per_instance_bound_array_usage() {
    let cap = ChipCapacity::paper();
    for w in all_workloads() {
        let kernel = w
            .compile(w.paper_instances, OptPolicy::MaxArrayUtil)
            .unwrap();
        let est = perf::estimate(&kernel, w.paper_instances, cap);
        // MaxArrayUtil must not blow past one round by more than the
        // instance count demands at 1 IB.
        let one_ib_rounds = perf::pack(w.paper_instances, 1, cap.arrays()).rounds;
        assert!(
            est.rounds <= one_ib_rounds.max(1) * 2,
            "{}: {} rounds vs {} at 1 IB",
            w.name,
            est.rounds,
            one_ib_rounds
        );
    }
}

#[test]
fn div_iteration_count_trades_cycles_for_precision() {
    let w = all_workloads()
        .into_iter()
        .find(|w| w.name == "blackscholes")
        .unwrap();
    let n = 1 << 12;
    let (graph, _, ranges) = w.build(n);
    let fast = CompileOptions {
        div_iterations: 1,
        expected_instances: n,
        ranges: ranges.clone(),
        ..Default::default()
    };
    let precise = CompileOptions {
        div_iterations: 3,
        expected_instances: n,
        ranges,
        ..Default::default()
    };
    let fast_kernel = imp::compile(&graph, &fast).unwrap();
    let precise_kernel = imp::compile(&graph, &precise).unwrap();
    assert!(fast_kernel.module_latency() < precise_kernel.module_latency());
}
