//! Chip-scaling study: how TDP, area, SIMD slots and paper-scale
//! Black–Scholes time scale with tile count. The paper evaluates one
//! design point (4,096 tiles); this sweep shows where that point sits on
//! the capacity/power curve.

use imp_bench::{emit, header};
use imp_compiler::{perf, ChipCapacity, OptPolicy};
use imp_sim::energy;
use imp_workloads::workload;

fn main() {
    header("Chip-scaling sweep — tiles vs power/area/slots/throughput");
    let w = workload("blackscholes").expect("registered workload");
    let n = w.paper_instances;
    let kernel = w.compile(n, OptPolicy::MaxDlp).expect("compiles");

    println!(
        "{:<8} {:>12} {:>10} {:>10} {:>10} {:>14}",
        "tiles", "SIMD slots", "TDP (W)", "area mm²", "mem (MB)", "10M opts (ms)"
    );
    for shift in [8u32, 9, 10, 11, 12, 13] {
        let tiles = 1usize << shift;
        let capacity = ChipCapacity {
            tiles,
            clusters_per_tile: 8,
            arrays_per_cluster: 8,
        };
        let est = perf::estimate(&kernel, n, capacity);
        let tdp = energy::chip_tdp_w(tiles);
        let area = energy::chip_area_mm2(tiles);
        println!(
            "{:<8} {:>12} {:>10.1} {:>10.1} {:>10} {:>14.3}",
            tiles,
            capacity.simd_slots(),
            tdp,
            area,
            capacity.memory_bytes() >> 20,
            est.seconds * 1e3
        );
        emit("scaling", "tdp_w", tiles, tdp);
        emit("scaling", "area_mm2", tiles, area);
        emit("scaling", "blackscholes_s", tiles, est.seconds);
    }
    println!(
        "\ntime scales inversely with tiles until one round covers the input;\n\
         power and area scale linearly — the 4,096-tile paper design point\n\
         is the knee where 10M options fit in five rounds at GPU-class area."
    );
}
