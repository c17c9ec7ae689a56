//! # imp-rram — ReRAM crossbar substrate with in-situ analog compute
//!
//! This crate models the memory arrays of the ASPLOS'18 *In-Memory Data
//! Parallel Processor* at the digit level:
//!
//! * [`Fixed`] — 32-bit fixed-point values with a configurable binary point
//!   (the paper adopts fixed point because floating point would require
//!   exponent normalization inside the array, §2.3);
//! * [`digits`] — the base-4 codec: 32-bit words stored as sixteen 2-bit
//!   resistive cells, with 4's-complement signed representation proven
//!   equivalent to two's complement (§2.3);
//! * [`Crossbar`] — a 128×128 array of 2-bit cells with per-row wear
//!   tracking (§7.5 lifetime study). It stores each row's eight programmed
//!   words, which by §2.3 already are its 128 cell levels, and reads a
//!   row as words, applying cell and line faults as word masks;
//! * [`AnalogSpec`] — DAC/ADC resolutions and the bound they place on n-ary
//!   operand counts (§5.2 node merging is limited by ADC resolution);
//! * [`fault`] — the structured fault model (stuck cells, dead lines, ADC
//!   offset/transient faults, endurance wear-out) and its spare-checksum-row
//!   detection scheme;
//! * [`ReramArray`] — one "memory array / processing unit": crossbar +
//!   local execution of every array-local ISA instruction, returning cycle
//!   counts and activity traces for the energy model.
//!
//! The analog physics — current summation over bit-lines, sample-and-hold,
//! ADC conversion, shift-and-add merging of per-bit-line partial sums,
//! 2-bit/cycle operand streaming through the DACs — reduces digitally to
//! integer partial-sum arithmetic, which this crate reproduces exactly,
//! including ADC clipping when an operation exceeds the converter range.
//!
//! ## Example
//!
//! ```
//! use imp_rram::{AnalogSpec, MicroOp, OpTrace, ReramArray};
//! use imp_isa::{Addr, Instruction, RowMask};
//!
//! let mut array = ReramArray::new(AnalogSpec::default());
//! array.write_row_broadcast(0, 21);
//! array.write_row_broadcast(1, 21);
//! let add = Instruction::Add {
//!     mask: RowMask::from_rows([0, 1]),
//!     dst: Addr::mem(2),
//! };
//! let op = MicroOp::decode(&add).unwrap();
//! let adc_bits_used = array.execute_op(&op).unwrap();
//! let trace = OpTrace { adc_bits_used, ..OpTrace::of(&add) };
//! assert_eq!(array.read_word(2, 0), 42);
//! assert_eq!(trace.cycles, 3);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod analog;
mod array;
mod batch;
mod crossbar;
pub mod digits;
mod error;
pub mod fault;
mod fixed;
mod lut;
mod regfile;

pub use analog::{AnalogSpec, DacVectors, OpTrace};
pub use array::{MicroOp, ReramArray};
pub use batch::{ArrayBatch, BATCH};
pub use crossbar::Crossbar;
pub use error::RramError;
pub use fault::{FaultMap, FaultRates};
pub use fixed::{Fixed, QFormat};
pub use lut::{Lut, LutKind};
pub use regfile::RegisterFile;

use imp_isa::LANES;

/// The words of `new` in the lanes `lane_mask` selects and of `old`
/// elsewhere, without a branch per lane: a selective (`movs`) write.
pub(crate) fn select_lanes(old: &[i32; LANES], new: &[i32; LANES], lane_mask: u8) -> [i32; LANES] {
    std::array::from_fn(|lane| {
        let take = -i32::from((lane_mask >> lane) & 1);
        (new[lane] & take) | (old[lane] & !take)
    })
}

/// Clock frequency of the ReRAM arrays, in hertz (the paper runs the memory
/// at 20 MHz while the network runs at 2 GHz).
pub const ARRAY_CLOCK_HZ: f64 = 20.0e6;

/// Seconds per array clock cycle.
pub const ARRAY_CYCLE_S: f64 = 1.0 / ARRAY_CLOCK_HZ;

/// ReRAM cell write endurance assumed by the lifetime model (§7.5 cites
/// 10^11 writes before wear-out).
pub const CELL_ENDURANCE_WRITES: u64 = 100_000_000_000;
