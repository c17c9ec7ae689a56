//! The §5.2 analytical model and the simulator agree on how a kernel's
//! instances pack into rounds: for every corpus kernel, policy and size,
//! on the functional-test chip and on an 8-tile chip, `perf::estimate`
//! predicts the simulated round count, and its `rounds × module latency`
//! is the simulated cycle count up to the cross-instance reduction tail.
//! The simulator is the reference for how groups are placed.

use imp_compiler::module::OutputLoc;
use imp_compiler::{perf, ChipCapacity, CompileOptions, OptPolicy};
use imp_sim::{Machine, Parallelism, SimConfig};

const POLICIES: [OptPolicy; 3] = [
    OptPolicy::MaxDlp,
    OptPolicy::MaxIlp,
    OptPolicy::MaxArrayUtil,
];

const SIZES: [usize; 3] = [8, 64, 2048];

fn check_chip(chip: ChipCapacity) {
    let mut machine = Machine::new(SimConfig {
        capacity: chip,
        parallelism: Parallelism::Serial,
        ..SimConfig::functional()
    });
    for w in imp_workloads::all_workloads() {
        for n in SIZES {
            let (graph, _, _) = w.build(n);
            let inputs = w.inputs(n, 7);
            for policy in POLICIES {
                let options = CompileOptions {
                    capacity: chip,
                    ..w.options(n, policy)
                };
                let kernel = imp_compiler::compile(&graph, &options).unwrap();
                let est = perf::estimate(&kernel, n, chip);
                let report = machine.run(&kernel, &inputs).unwrap();
                let case = format!(
                    "{} {policy:?} n={n} on {} tiles ({} IBs)",
                    w.name,
                    chip.tiles,
                    kernel.ibs.len()
                );
                assert_eq!(est.rounds, report.rounds, "rounds: {case}");
                let reduces = kernel
                    .outputs
                    .iter()
                    .flat_map(|o| &o.locs)
                    .any(|loc| matches!(loc, OutputLoc::Reduced { .. }));
                if reduces {
                    assert!(report.cycles > est.total_cycles, "cycles: {case}");
                } else {
                    assert_eq!(est.total_cycles, report.cycles, "cycles: {case}");
                }
            }
        }
    }
}

#[test]
fn estimate_matches_simulation_on_the_functional_chip() {
    check_chip(ChipCapacity::small());
}

/// With 512 arrays, multi-IB kernels at 2,048 instances take several
/// rounds, and IB counts that do not divide the array count leave arrays
/// idle in every round.
#[test]
fn estimate_matches_simulation_on_an_8_tile_chip() {
    check_chip(ChipCapacity {
        tiles: 8,
        ..ChipCapacity::small()
    });
}
