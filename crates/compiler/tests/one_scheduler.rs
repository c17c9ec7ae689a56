//! Compile and the runtime's remap share one scheduler: on a fully
//! available chip, `schedule` over a compiled kernel's own blocks — the
//! call the remap policy makes after retiring arrays — reproduces the
//! schedule `compile` stored, for every corpus kernel under every policy.

use imp_compiler::schedule::schedule;
use imp_compiler::{ArrayAvailability, OptPolicy};

const POLICIES: [OptPolicy; 3] = [
    OptPolicy::MaxDlp,
    OptPolicy::MaxIlp,
    OptPolicy::MaxArrayUtil,
];

#[test]
fn scheduling_a_compiled_kernel_on_its_full_chip_reproduces_its_schedule() {
    const N: usize = 8;
    let mut multi_ib = 0;
    for workload in imp_workloads::all_workloads() {
        for policy in POLICIES {
            let what = format!("{} {policy:?}", workload.name);
            let chip = workload.options(N, policy).capacity;
            let k = workload.compile(N, policy).expect(&what);
            let s = schedule(
                &k.ibs,
                k.schedule.pipelining,
                &ArrayAvailability::all(chip.arrays()),
            )
            .expect(&what);
            assert_eq!(s.entries, k.schedule.entries, "{what}");
            assert_eq!(s.module_latency, k.schedule.module_latency, "{what}");
            assert_eq!(s.ib_latencies, k.schedule.ib_latencies, "{what}");
            assert_eq!(s.placements, k.schedule.placements, "{what}");
            assert_eq!(s.buffer_refills, k.schedule.buffer_refills, "{what}");
            assert_eq!(s.pipelining, k.schedule.pipelining, "{what}");
            multi_ib += usize::from(k.ibs.len() > 1);
        }
    }
    assert!(multi_ib > 0, "some kernel must send cross-IB traffic");
}
