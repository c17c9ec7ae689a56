//! Microbenchmarks of the two layers the jobs only reach through the
//! simulator: `ReramArray::execute_local` for every array-local opcode,
//! and `Network::transfer` over the H-tree.

use crate::mix;
use crate::trace::Recorder;
use imp_isa::{Addr, Imm, Instruction, LaneMask, RowMask, LANES};
use imp_noc::{HTreeTopology, Network, NocConfig};
use imp_rram::{AnalogSpec, Lut, LutKind, ReramArray};
use std::hint::black_box;
use std::time::Instant;

/// The eleven array-local opcodes, in ISA order.
pub const OPS: [&str; 11] = [
    "add", "sub", "dot", "mul", "shiftl", "shiftr", "mask", "mov", "movs", "movi", "lut",
];

/// Timing rounds per measurement; the median round is reported.
const ROUNDS: usize = 7;

/// Minimum wall time of one round.
const ROUND_NS: u128 = 1_000_000;

/// Median nanoseconds per call of `f`: calibrates a call count that fills
/// [`ROUND_NS`], then times [`ROUNDS`] rounds of it.
fn ns_per_call(mut f: impl FnMut()) -> f64 {
    let mut calls = 16usize;
    loop {
        let t = Instant::now();
        for _ in 0..calls {
            f();
        }
        if t.elapsed().as_nanos() >= ROUND_NS || calls >= 1 << 24 {
            break;
        }
        calls *= 2;
    }
    let mut per_call: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..calls {
                f();
            }
            t.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    per_call.sort_by(f64::total_cmp);
    per_call[ROUNDS / 2]
}

/// The instruction timed for `op`. Sources are rows 0–3 and registers
/// 0–1; destinations are rows 32 and up, so every call sees the same
/// operands.
fn instruction(op: &str) -> Instruction {
    let dst = Addr::mem(32);
    match op {
        "add" => Instruction::Add {
            mask: RowMask::from_rows([0, 1, 2]),
            dst,
        },
        "sub" => Instruction::Sub {
            minuend: RowMask::from_rows([0, 1]),
            subtrahend: RowMask::from_rows([2]),
            dst,
        },
        "dot" => Instruction::Dot {
            mask: RowMask::from_rows([0, 1]),
            reg_mask: RowMask::from_rows([0, 1]),
            dst,
        },
        "mul" => Instruction::Mul {
            a: Addr::mem(0),
            b: Addr::mem(1),
            dst,
        },
        "shiftl" => Instruction::ShiftL {
            src: Addr::mem(0),
            dst,
            amount: 3,
        },
        "shiftr" => Instruction::ShiftR {
            src: Addr::mem(0),
            dst,
            amount: 3,
        },
        "mask" => Instruction::Mask {
            src: Addr::mem(0),
            dst,
            imm: 0x00ff_ff00,
        },
        "mov" => Instruction::Mov {
            src: Addr::mem(0),
            dst,
        },
        "movs" => Instruction::Movs {
            src: Addr::mem(0),
            dst,
            lane_mask: LaneMask::from_bits(0b0101_0101),
        },
        "movi" => Instruction::Movi {
            dst,
            imm: Imm::broadcast(0x0001_8000),
        },
        "lut" => Instruction::Lut {
            src: Addr::mem(3),
            dst,
        },
        other => unreachable!("unknown opcode `{other}`"),
    }
}

/// An array loaded with operands drawn from `seed`: Q16.16 words in
/// (-4, 4) on rows 0–2 and registers 0–1, LUT indices on row 3.
fn loaded_array(seed: u64, fast: bool) -> ReramArray {
    let mut array = ReramArray::new(AnalogSpec::prototype());
    let mut state = seed;
    let mut word = |modulus: u64| {
        state = mix(state, 0x9e37);
        (state % modulus) as i64
    };
    for row in 0..3 {
        let words: [i32; LANES] = std::array::from_fn(|_| (word(1 << 19) - (1 << 18)) as i32);
        array.write_row(row, &words);
    }
    let indices: [i32; LANES] = std::array::from_fn(|_| word(512) as i32);
    array.write_row(3, &indices);
    for reg in 0..2 {
        let words: [i32; LANES] = std::array::from_fn(|_| (word(1 << 19) - (1 << 18)) as i32);
        array.write_reg(reg, words);
    }
    array.set_lut(Lut::from_fn(LutKind::Custom, |i| (i * 7 % 256) as u8));
    array.set_fast_path_enabled(fast);
    array
}

/// `(op, fast_ns, slow_ns)` for every opcode: nanoseconds per
/// `execute_local` call with the fault-free fast path on, then off.
///
/// # Errors
/// An opcode that fails to execute (the operands are chosen so none can).
pub fn rram_opcodes(
    seed: u64,
    rec: &mut Recorder,
) -> Result<Vec<(&'static str, f64, f64)>, String> {
    let mut out = Vec::new();
    for op in OPS {
        let inst = instruction(op);
        let mut per_path = [0.0; 2];
        for (slot, fast) in [(0, true), (1, false)] {
            let mut array = loaded_array(seed, fast);
            array
                .execute_local(&inst)
                .map_err(|e| format!("rram microbench `{op}`: {e}"))?;
            let path = if fast { "fast" } else { "slow" };
            let (ns, _) = rec.time(format!("rram.{op}.{path}"), "imp-rram", None, 0, || {
                ns_per_call(|| {
                    let _ = black_box(array.execute_local(black_box(&inst)));
                })
            });
            per_path[slot] = ns;
        }
        out.push((op, per_path[0], per_path[1]));
    }
    Ok(out)
}

/// Nanoseconds per `Network::transfer` of one 8-word row between tiles
/// drawn from `seed`.
pub fn noc_transfer(seed: u64, tiles: usize, rec: &mut Recorder) -> f64 {
    let topology = HTreeTopology::new(tiles, 8);
    let mut network = Network::new(topology, NocConfig::default());
    let pairs: Vec<(usize, usize)> = (0..256u64)
        .map(|i| {
            let r = mix(seed, i);
            (
                (r % tiles as u64) as usize,
                ((r >> 32) % tiles as u64) as usize,
            )
        })
        .collect();
    let payload = [0x5a5a_i32; LANES];
    let mut k = 0usize;
    let mut now = 0u64;
    let (ns, _) = rec.time("noc.transfer", "imp-noc", None, 0, || {
        ns_per_call(|| {
            let (src, dst) = pairs[k % pairs.len()];
            k += 1;
            now += 64;
            let _ = black_box(network.transfer(src, dst, &payload, 32, now, None));
        })
    });
    ns
}
