//! One ReRAM processing unit: a crossbar plus its periphery, executing
//! array-local ISA instructions. This module holds what makes arrays
//! differ beyond their data: sensing through a fault map, noise, ADC
//! faults and the ordered loops that model them one conversion at a time.
//! An in-situ op whose conversions are all exact runs its clean body from
//! [`crate::batch`] on the sensed rows.

use crate::analog::{AnalogSpec, DacVectors, OpTrace};
use crate::batch::{self, Exact, Operands};
use crate::crossbar::Crossbar;
use crate::digits::{self, DIGITS_PER_WORD};
use crate::fault::FaultMap;
use crate::lut::Lut;
use crate::regfile::RegisterFile;
use crate::RramError;
use imp_isa::{Addr, Instruction, LaneMask, RowMask, LANES};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Salt separating an armed array's transient-glitch stream from its
/// fault map's generation stream.
const TRANSIENT_SALT: u64 = 0xADC0_FA17_ADC0_FA17;

/// One array-local instruction decoded for [`ReramArray::execute_op`]: its
/// op class and its operands, resolved to the row masks, addresses, lane
/// masks and words the class's primitive takes.
///
/// Decoding is a pure function of the instruction, so a caller that runs
/// one instruction block over many arrays (the simulator, over every
/// instance group) decodes each instruction once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MicroOp {
    /// `add` (`minus` empty) or `sub`: the rows of `plus` minus the rows of
    /// `minus`, summed on the bit-lines.
    AddSub {
        /// Rows whose word-lines source current.
        plus: RowMask,
        /// Rows whose word-lines drain current.
        minus: RowMask,
        /// Destination row or register.
        dst: Addr,
    },
    /// `dot`: the `rows`, paired in order with the lane-0 multiplicands of
    /// `regs`, multiplied and summed on the bit-lines.
    Dot {
        /// Rows holding the multiplier vectors.
        rows: RowMask,
        /// Registers holding the streamed multiplicands.
        regs: RowMask,
        /// [`DacVectors::analyse`] of the multiplicands `regs` will hold
        /// when the op runs, when the caller knows them ahead of time: the
        /// exact-conversion fast path then skips deriving them. The
        /// result, error and state are those of `None`.
        dac: Option<DacVectors>,
        /// Destination row or register.
        dst: Addr,
    },
    /// `mul`: `a` times `b`, lane by lane.
    Mul {
        /// Operand resident in the array.
        a: Addr,
        /// Operand streamed through the bit-line DACs.
        b: Addr,
        /// Destination row or register.
        dst: Addr,
    },
    /// `mov`, `shiftl`, `shiftr` and `mask`: every word of `src` shifted
    /// left by `shl`, arithmetic-shifted right by `shr` and ANDed with
    /// `and` in the digital periphery (a `mov` is `0`, `0`, all ones).
    Periphery {
        /// Source row or register.
        src: Addr,
        /// Destination row or register.
        dst: Addr,
        /// Left shift in bits (< 32).
        shl: u8,
        /// Arithmetic right shift in bits (< 32).
        shr: u8,
        /// AND mask.
        and: u32,
    },
    /// `movs`: the selected lanes of `src` written to `dst`.
    Movs {
        /// Source row or register.
        src: Addr,
        /// Destination row or register.
        dst: Addr,
        /// Lanes to write; [`LaneMask::DYNAMIC`] selects by the latched
        /// condition mask.
        lanes: LaneMask,
    },
    /// `lut`: each word of `src` looked up in the LUT.
    Lut {
        /// Source row or register holding LUT indices.
        src: Addr,
        /// Destination row or register.
        dst: Addr,
    },
    /// `movi`: `word` broadcast to every lane of `dst`.
    Movi {
        /// Destination row or register.
        dst: Addr,
        /// The immediate word.
        word: i32,
    },
}

impl MicroOp {
    /// Decodes an array-local instruction; `None` for `movg` and
    /// `reduce_sum`, whose semantics span arrays. A `dot` decodes with no
    /// analysed DAC vectors.
    pub fn decode(inst: &Instruction) -> Option<MicroOp> {
        let periphery = |src, dst, shl, shr, and| MicroOp::Periphery {
            src,
            dst,
            shl,
            shr,
            and,
        };
        Some(match *inst {
            Instruction::Add { mask, dst } => MicroOp::AddSub {
                plus: mask,
                minus: RowMask::EMPTY,
                dst,
            },
            Instruction::Sub {
                minuend,
                subtrahend,
                dst,
            } => MicroOp::AddSub {
                plus: minuend,
                minus: subtrahend,
                dst,
            },
            Instruction::Dot {
                mask,
                reg_mask,
                dst,
            } => MicroOp::Dot {
                rows: mask,
                regs: reg_mask,
                dac: None,
                dst,
            },
            Instruction::Mul { a, b, dst } => MicroOp::Mul { a, b, dst },
            Instruction::Mov { src, dst } => periphery(src, dst, 0, 0, u32::MAX),
            Instruction::ShiftL { src, dst, amount } => periphery(src, dst, amount, 0, u32::MAX),
            Instruction::ShiftR { src, dst, amount } => periphery(src, dst, 0, amount, u32::MAX),
            Instruction::Mask { src, dst, imm } => periphery(src, dst, 0, 0, imm),
            Instruction::Movs {
                src,
                dst,
                lane_mask,
            } => MicroOp::Movs {
                src,
                dst,
                lanes: lane_mask,
            },
            Instruction::Lut { src, dst } => MicroOp::Lut { src, dst },
            Instruction::Movi { dst, imm } => MicroOp::Movi {
                dst,
                word: imm.as_i32(),
            },
            Instruction::Movg { .. } | Instruction::ReduceSum { .. } => return None,
        })
    }
}

/// One memory array / processing unit (Figure 1(b) of the paper).
///
/// Owns the crossbar and — as a modeling simplification — a private copy of
/// the cluster register file and LUT. In hardware these are shared by the
/// eight arrays of a cluster; the compiler partitions register indices
/// between co-located instruction blocks and LUT contents are read-only
/// replicas, so private copies are behaviourally equivalent.
///
/// [`ReramArray::execute_local`] implements every instruction except
/// `movg` and `reduce_sum`, whose semantics span arrays and live in
/// `imp-sim`; [`ReramArray::execute_op`] runs the same instructions
/// decoded.
#[derive(Debug, Clone)]
pub struct ReramArray {
    crossbar: Crossbar,
    regfile: RegisterFile,
    lut: Lut,
    spec: AnalogSpec,
    /// Per-lane "non-zero" bits latched by writes to the mask register,
    /// consumed by dynamically-predicated `movs` (compiled `Select`).
    dynamic_mask: u8,
    /// Seeded source of process-variation noise (only consulted when
    /// `spec.noise_prob > 0`).
    fault_rng: StdRng,
    /// Transient-glitch stream, seeded by [`ReramArray::arm_faults`] and
    /// drawn only while the crossbar holds a fault map (whose ADC offset
    /// and glitch probability the conversions read).
    transient_rng: StdRng,
    /// Sticky detection flag: the duplicated conversion on the checksum
    /// column disagreed at least once since the array was armed.
    adc_fault_seen: bool,
    /// Whether the exact-conversion fast path may be taken (test hook; the
    /// fast path is semantically identical and on by default).
    fast_path_enabled: bool,
}

impl ReramArray {
    /// Creates a zeroed array with the given analog configuration.
    pub fn new(spec: AnalogSpec) -> Self {
        ReramArray {
            crossbar: Crossbar::new(),
            regfile: RegisterFile::new(),
            lut: Lut::new(),
            spec,
            dynamic_mask: 0,
            fault_rng: StdRng::seed_from_u64(0),
            transient_rng: StdRng::seed_from_u64(0),
            adc_fault_seen: false,
            fast_path_enabled: true,
        }
    }

    /// Enables or disables the exact-conversion fast path (see
    /// [`ReramArray::execute_local`]). The fast path is bit-identical to
    /// the general path; this hook exists so the equivalence property test
    /// can compare the two.
    pub fn set_fast_path_enabled(&mut self, enabled: bool) {
        self.fast_path_enabled = enabled;
    }

    /// True when every conversion is exact: no analog noise and no ADC
    /// offset or glitch. Then `sense_partial` returns its ideal partial
    /// without drawing or latching, so an op is a function of the sensed
    /// rows it reads, whatever cell and line faults shaped them.
    fn exact_conversions(&self) -> bool {
        self.spec.noise_prob <= 0.0 && self.adc_faults() == (0, 0.0)
    }

    /// Reseeds the process-variation noise source (for reproducible fault
    /// injection across arrays).
    pub fn set_fault_seed(&mut self, seed: u64) {
        self.fault_rng = StdRng::seed_from_u64(seed);
    }

    /// Arms this array with the fault population `map`, shared with every
    /// array on the same physical slot: the crossbar senses its cell and
    /// line faults, the conversions its ADC offset and transient glitches.
    /// The glitch stream is seeded from the map's seed and a caller-mixed
    /// `stream` id. The simulator derives the id from `(seed, slot, group,
    /// attempt)`, so every (array, instance group, recovery attempt)
    /// draws an independent stream: permanent faults persist across
    /// retries while transients are drawn fresh, and they cannot depend on
    /// the order in which groups execute, which is what lets the parallel
    /// engine reproduce serial results bit for bit. Clears the sticky
    /// detection flag.
    pub fn arm_faults(&mut self, map: Arc<FaultMap>, stream: u64) {
        self.transient_rng = StdRng::seed_from_u64(map.seed() ^ TRANSIENT_SALT ^ stream);
        self.adc_fault_seen = false;
        self.crossbar.install_faults(map);
    }

    /// Resets this pooled array to a blank one, reusing every allocation:
    /// dirtied crossbar rows and the registers are zeroed in place, the
    /// dynamic mask and detection flag cleared, both random streams
    /// reseeded and any fault map dropped. The analog spec, the LUT and the
    /// fast-path setting stay, so after this call the array equals
    /// [`ReramArray::new`] of its spec with its LUT set.
    pub fn reset(&mut self) {
        self.crossbar.reset_dirty();
        self.regfile.clear();
        self.dynamic_mask = 0;
        self.fault_rng = StdRng::seed_from_u64(0);
        self.transient_rng = StdRng::seed_from_u64(0);
        self.adc_fault_seen = false;
    }

    /// Whether the periphery latched an ADC fault (a conversion whose
    /// duplicate on the checksum column disagreed) since the array was
    /// armed.
    pub fn adc_fault_detected(&self) -> bool {
        self.adc_fault_seen
    }

    /// The ADC faults of the installed map: its permanent offset in LSBs
    /// and its per-conversion transient glitch probability, `(0, 0.0)`
    /// without a map. The ordered loops read them once per op and pass
    /// them to [`ReramArray::sense_partial`], so they are loop-invariant
    /// there (a read through the shared map per conversion is not).
    fn adc_faults(&self) -> (i64, f64) {
        self.crossbar
            .fault_map()
            .map_or((0, 0.0), |map| (map.adc_offset(), map.transient_adc()))
    }

    /// One ADC conversion of the ideal partial `base` on the ordered
    /// path, under the ADC faults `(offset, transient)` of
    /// [`ReramArray::adc_faults`]. The variation noise (±1 LSB with
    /// probability `spec.noise_prob`) is drawn first, then the fault
    /// error: the permanent offset plus a possible transient ±1 LSB
    /// glitch. A fault error latches the sticky detection flag (the
    /// duplicated checksum-column conversion disagrees), and as a faulty
    /// converter still emits an in-range code, only such a conversion is
    /// clamped. The strict range check is the caller's. Always inlined:
    /// a call per conversion made the ordered `mul` ≈1.6× slower.
    #[inline(always)]
    fn sense_partial(&mut self, base: i64, (offset, transient): (i64, f64)) -> i64 {
        let mut sensed = base;
        let noise = self.spec.noise_prob;
        if noise > 0.0 && self.fault_rng.gen::<f64>() < noise {
            sensed += if self.fault_rng.gen::<bool>() { 1 } else { -1 };
        }
        let mut fault = offset;
        if transient > 0.0 && self.transient_rng.gen::<f64>() < transient {
            fault += if self.transient_rng.gen::<bool>() {
                1
            } else {
                -1
            };
        }
        if fault == 0 {
            return sensed;
        }
        self.adc_fault_seen = true;
        let limit = self.spec.adc_max();
        (sensed + fault).clamp(-limit, limit)
    }

    /// The analog configuration.
    pub fn spec(&self) -> &AnalogSpec {
        &self.spec
    }

    /// The crossbar (for wear inspection).
    pub fn crossbar(&self) -> &Crossbar {
        &self.crossbar
    }

    /// Replaces the LUT contents (host-side initialization).
    pub fn set_lut(&mut self, lut: Lut) {
        self.lut = lut;
    }

    /// The current LUT.
    pub fn lut(&self) -> &Lut {
        &self.lut
    }

    /// Reads one word (no timing effect; host-side access).
    pub fn read_word(&self, row: usize, lane: usize) -> i32 {
        self.crossbar.read_row(row)[lane]
    }

    /// Reads a whole row (host-side access).
    pub fn read_row(&self, row: usize) -> [i32; LANES] {
        self.crossbar.read_row(row)
    }

    /// Writes a whole row (host-side data load; counts wear).
    pub fn write_row(&mut self, row: usize, words: &[i32; LANES]) {
        self.crossbar.write_row(row, words);
    }

    /// Writes the same word to every lane of `row` (host-side).
    pub fn write_row_broadcast(&mut self, row: usize, word: i32) {
        self.crossbar.write_row(row, &[word; LANES]);
    }

    /// Reads a register (host-side access).
    pub fn read_reg(&self, reg: usize) -> [i32; LANES] {
        self.regfile.read(reg)
    }

    /// Writes a register (host-side data load).
    pub fn write_reg(&mut self, reg: usize, value: [i32; LANES]) {
        self.write_addr(Addr::reg(reg), value);
    }

    /// The currently latched dynamic predication mask.
    pub fn dynamic_mask(&self) -> u8 {
        self.dynamic_mask
    }

    fn read_addr(&self, addr: Addr) -> [i32; LANES] {
        match addr {
            Addr::Mem(row) => self.crossbar.read_row(row as usize),
            Addr::Reg(reg) => self.regfile.read(reg as usize),
        }
    }

    /// Writes a value to a local address. The one place the dynamic mask
    /// is latched: on a write to the mask register.
    fn write_addr(&mut self, addr: Addr, value: [i32; LANES]) {
        match addr {
            Addr::Mem(row) => self.crossbar.write_row(row as usize, &value),
            Addr::Reg(reg) => {
                self.regfile.write(reg as usize, value);
                if usize::from(reg) == imp_isa::MASK_REGISTER {
                    self.dynamic_mask = batch::latched_mask(&value);
                }
            }
        }
    }

    /// Executes one array-local instruction, updating state and returning
    /// the activity trace used by the timing/energy models: the
    /// instruction's [`OpTrace::of`] with the ADC resolution its data
    /// needed. It decodes `inst` with [`MicroOp::decode`] and runs it
    /// through [`ReramArray::execute_op`], the simulator's own path.
    ///
    /// # Errors
    /// * [`RramError::NotArrayLocal`] for `movg`/`reduce_sum`;
    /// * [`RramError::AdcOverrange`] if an n-ary operation exceeds the ADC
    ///   range and the spec is strict.
    pub fn execute_local(&mut self, inst: &Instruction) -> Result<OpTrace, RramError> {
        let op = MicroOp::decode(inst)
            .ok_or_else(|| RramError::NotArrayLocal(inst.opcode().mnemonic()))?;
        let adc_bits_used = self.execute_op(&op)?;
        Ok(OpTrace {
            adc_bits_used,
            ..OpTrace::of(inst)
        })
    }

    /// Executes one decoded op in place and returns the ADC resolution
    /// (bits) its data needed, the only data-dependent field of its
    /// [`OpTrace`]: 0 for an op that converts nothing. Each op class has
    /// one primitive here, shared by [`ReramArray::execute_local`].
    ///
    /// # Errors
    /// [`RramError::AdcOverrange`] if an n-ary operation exceeds the ADC
    /// range and the spec is strict.
    pub fn execute_op(&mut self, op: &MicroOp) -> Result<u8, RramError> {
        match *op {
            MicroOp::AddSub { plus, minus, dst } => self.add_sub(plus, minus, dst),
            MicroOp::Dot {
                rows,
                regs,
                dac,
                dst,
            } => self.dot(rows, regs, dac, dst),
            MicroOp::Mul { a, b, dst } => self.mul(a, b, dst),
            MicroOp::Periphery {
                src,
                dst,
                shl,
                shr,
                and,
            } => Ok(self.periphery(src, dst, shl, shr, and)),
            MicroOp::Movs { src, dst, lanes } => Ok(self.movs(src, dst, lanes)),
            MicroOp::Lut { src, dst } => Ok(self.lookup(src, dst)),
            MicroOp::Movi { dst, word } => {
                self.write_addr(dst, [word; LANES]);
                Ok(0)
            }
        }
    }

    // Each in-situ primitive below runs its clean body from `batch` when
    // every conversion is exact (`exact`) and its ordered loop otherwise.
    // Each primitive writes its words back itself: returning them to one
    // shared write-back in `execute_op` ran ≈4% fewer `sim_corpus` jobs
    // per CPU second on a 2-vCPU VM.

    /// `add` (`minus` empty) or `sub`, n-ary over bit-line current
    /// summation, written to `dst`. Per bit-line, the partial sum is the
    /// sum of plus-row digits minus the sum of minus-row digits (current
    /// drained via the subtrahend word-lines). Each partial is validated
    /// against the ADC range, then the shift-and-add periphery recombines
    /// them modulo 2³².
    fn add_sub(&mut self, plus: RowMask, minus: RowMask, dst: Addr) -> Result<u8, RramError> {
        let (value, bits) = match self.exact(|ops| batch::add_sub(ops, plus, minus)) {
            Some(out) => out,
            None => {
                let (plus, minus) = (self.sense_rows(plus), self.sense_rows(minus));
                self.add_sub_ordered(&plus, &minus)?
            }
        };
        self.write_addr(dst, value);
        Ok(bits)
    }

    /// `dot`, written to `dst`: the `rows` multiplied by register
    /// multiplicands streamed 2 bits per cycle through the word-line DACs,
    /// products summed over the bit-lines.
    ///
    /// One word-line DAC serves one row, so the streamed multiplicand is a
    /// *single scalar per row shared by every lane* — lane 0 of the
    /// register is the architectural scalar. (This is why the paper adds
    /// the separate bit-line-DAC `mul` path: "dot product uses the same
    /// multiplicand for all elements stored in a row, it can not be
    /// utilized for element-by-element multiplication", §2.2.) Rows and
    /// registers pair in order; the longer list's extra entries are unused.
    ///
    /// `dac` is the streamed multiplicands' [`DacVectors`] when the caller
    /// analysed them ahead of time; the clean body derives them otherwise.
    fn dot(
        &mut self,
        rows: RowMask,
        regs: RowMask,
        dac: Option<DacVectors>,
        dst: Addr,
    ) -> Result<u8, RramError> {
        let frac = self.spec.frac_bits;
        let (value, bits) = match self.exact(|ops| batch::dot(ops, rows, regs, dac, frac)) {
            Some(out) => out,
            None => {
                let scalars: Vec<i32> = regs
                    .rows()
                    .map(|reg| self.regfile.read_lane(reg, 0))
                    .collect();
                let mut rows = self.sense_rows(rows);
                rows.truncate(scalars.len());
                self.mac_ordered(&rows, |p, _| scalars[p])?
            }
        };
        self.write_addr(dst, value);
        Ok(bits)
    }

    /// `mul`, written to `dst`: operand `a` resident in the array, operand
    /// `b` streamed 2 bits per cycle through the *bit-line* DACs (the new
    /// capability this architecture adds over ISAAC, §2.2), one
    /// multiplicand per element.
    fn mul(&mut self, a: Addr, b: Addr, dst: Addr) -> Result<u8, RramError> {
        let frac = self.spec.frac_bits;
        let (value, bits) =
            match self.exact(|ops| Some(batch::mul(&ops.read_addr(a), &ops.read_addr(b), frac))) {
                Some(out) => out,
                None => {
                    let (a, b) = (self.read_addr(a), self.read_addr(b));
                    self.mac_ordered(&[a], |_, lane| b[lane])?
                }
            };
        self.write_addr(dst, value);
        Ok(bits)
    }

    /// `mov`, `shiftl`, `shiftr` and `mask`: every word of `src` shifted
    /// left by `shl`, arithmetic-shifted right by `shr` and ANDed with `and`
    /// in the digital periphery, written to `dst`.
    fn periphery(&mut self, src: Addr, dst: Addr, shl: u8, shr: u8, and: u32) -> u8 {
        let (value, bits) = self.read_for_periphery(src);
        let out = value.map(|word| batch::shift_and(word, shl, shr, and));
        self.write_addr(dst, out);
        bits
    }

    /// `lut`: each word of `src` looked up in the LUT, written to `dst`.
    fn lookup(&mut self, src: Addr, dst: Addr) -> u8 {
        let (value, bits) = self.read_for_periphery(src);
        let looked = value.map(|word| i32::from(self.lut.lookup(word)));
        self.write_addr(dst, looked);
        bits
    }

    /// `movs`: the lanes of `src` that `lanes` selects written to `dst`.
    /// An all-zero mask is the dynamic-predication encoding: the latched
    /// condition mask selects. A memory row keeps the programmed words of
    /// its other lanes, not the words its bit-lines sense.
    fn movs(&mut self, src: Addr, dst: Addr, lanes: LaneMask) -> u8 {
        let (value, bits) = self.read_for_periphery(src);
        let lanes = batch::movs_lanes(lanes, self.dynamic_mask);
        match dst {
            Addr::Mem(row) => self.crossbar.write_row_masked(row as usize, &value, lanes),
            Addr::Reg(_) => {
                let merged = crate::select_lanes(&self.read_addr(dst), &value, lanes);
                self.write_addr(dst, merged);
            }
        }
        bits
    }

    /// The words of the rows in `mask` as the bit-lines sense them (faults
    /// applied), for the ordered loops.
    fn sense_rows(&self, mask: RowMask) -> Vec<[i32; LANES]> {
        mask.rows().map(|row| self.crossbar.read_row(row)).collect()
    }

    /// The ordered loop of `add`/`sub`: takes every digit as the faulty
    /// bit-lines sense it and converts the 128 bit-line partials in column
    /// order, so the first out-of-range partial is the one a strict ADC
    /// reports.
    fn add_sub_ordered(
        &mut self,
        plus_rows: &[[i32; LANES]],
        minus_rows: &[[i32; LANES]],
    ) -> Result<Converted, RramError> {
        let adc = self.adc_faults();
        let mut max_abs_partial: i64 = 0;
        let mut out = [0i32; LANES];
        for (lane, out_word) in out.iter_mut().enumerate() {
            let mut partials = [0i64; DIGITS_PER_WORD];
            for (digit_pos, partial) in partials.iter_mut().enumerate() {
                let mut sum: i64 = 0;
                for words in plus_rows {
                    sum += i64::from(digits::digit(words[lane], digit_pos));
                }
                for words in minus_rows {
                    sum -= i64::from(digits::digit(words[lane], digit_pos));
                }
                let sum = self.sense_partial(sum, adc);
                max_abs_partial = max_abs_partial.max(sum.abs());
                *partial = self.spec.convert(sum)?;
            }
            *out_word = digits::combine_partial_sums(&partials);
        }
        Ok((out, AnalogSpec::required_adc_bits(max_abs_partial.max(1))))
    }

    /// The ordered loop of `dot` and `mul`, one bit-serial
    /// multiply–accumulate: row `rows[p]` times the multiplicand
    /// `m(p, lane)`, streamed one 2-bit chunk at a time. Every
    /// (lane, digit, chunk) conversion runs in order, with noise and fault
    /// hooks, so the first out-of-range partial is the one a strict ADC
    /// reports. The per-conversion partial is `Σₚ digit(rowₚ)·chunk(mₚ)`.
    /// The value is the sign-corrected wide MAC plus each conversion's
    /// error at its weight 4^(digit+chunk), and the shift-and-add unit
    /// keeps the 32-bit window at `frac_bits` (see DESIGN.md on
    /// Baugh–Wooley correction in the S+A unit).
    fn mac_ordered(
        &mut self,
        rows: &[[i32; LANES]],
        m: impl Fn(usize, usize) -> i32,
    ) -> Result<Converted, RramError> {
        let adc = self.adc_faults();
        let mut max_partial: i64 = 0;
        let mut out = [0i32; LANES];
        for (lane, out_word) in out.iter_mut().enumerate() {
            let mut acc: i64 = 0;
            for digit_pos in 0..DIGITS_PER_WORD {
                for chunk in 0..DIGITS_PER_WORD {
                    let mut base: i64 = 0;
                    for (p, words) in rows.iter().enumerate() {
                        let cell = i64::from(digits::digit(words[lane], digit_pos));
                        base += cell * i64::from(digits::digit(m(p, lane), chunk));
                    }
                    let partial = self.sense_partial(base, adc);
                    let (err, weight_shift) = (partial - base, 2 * (digit_pos + chunk));
                    if err != 0 && weight_shift < 62 {
                        acc = acc.wrapping_add(err << weight_shift);
                    }
                    max_partial = max_partial.max(partial);
                    self.spec.convert(partial)?;
                }
            }
            for (p, words) in rows.iter().enumerate() {
                acc = acc.wrapping_add(i64::from(words[lane]).wrapping_mul(i64::from(m(p, lane))));
            }
            *out_word = (acc >> self.spec.frac_bits) as i32;
        }
        Ok((out, AnalogSpec::required_adc_bits(max_partial.max(1))))
    }

    /// The exact-conversion fast path of an in-situ op: its clean `body`
    /// run on the array's sensed rows, its partials' OR resolved against
    /// the ADC. Every conversion is then exact, so no conversion can fail
    /// or clip and the value is the body's. Returns `None`, touching
    /// nothing, when the fast path is disabled, analog noise or an ADC
    /// fault perturbs a conversion, the body declines or some partial is
    /// out of range; the caller then runs the ordered loop, which reports
    /// the same first error or clips the same way as always.
    fn exact(&self, body: impl FnOnce(&Self) -> Option<Exact>) -> Option<Converted> {
        if !(self.fast_path_enabled && self.exact_conversions()) {
            return None;
        }
        let (words, or) = body(self)?;
        Some((words, batch::resolve(&self.spec, or)?))
    }

    /// Reads a source for a digital-periphery op, with the ADC bits its
    /// read-out needs: a memory row is read through the ADCs one cell
    /// level per conversion, a register converts nothing.
    fn read_for_periphery(&self, src: Addr) -> Converted {
        (self.read_addr(src), batch::read_bits(src))
    }
}

/// The array's operands as its bit-lines sense them, for the clean bodies.
impl Operands for ReramArray {
    #[inline]
    fn for_each_row(&self, mask: RowMask, f: impl FnMut(&[i32; LANES])) {
        self.crossbar.for_each_read(mask, f);
    }

    #[inline]
    fn reg(&self, reg: usize) -> [i32; LANES] {
        self.regfile.read(reg)
    }
}

/// An op's words and the ADC bits its conversions needed.
type Converted = ([i32; LANES], u8);

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::LutKind;
    use imp_isa::{Imm, LaneMask, RowMask};
    use proptest::prelude::*;

    fn array() -> ReramArray {
        ReramArray::new(AnalogSpec::integer())
    }

    /// Whether the exact-conversion fast path would run `op` on the
    /// array's current state: `false` exactly when an in-situ op would
    /// take its ordered loop.
    pub(crate) fn fast_path_accepts(array: &ReramArray, op: &MicroOp) -> bool {
        let frac = array.spec.frac_bits;
        let exact = match *op {
            MicroOp::AddSub { plus, minus, .. } => {
                array.exact(|ops| batch::add_sub(ops, plus, minus))
            }
            MicroOp::Dot {
                rows, regs, dac, ..
            } => array.exact(|ops| batch::dot(ops, rows, regs, dac, frac)),
            MicroOp::Mul { a, b, .. } => {
                array.exact(|ops| Some(batch::mul(&ops.read_addr(a), &ops.read_addr(b), frac)))
            }
            MicroOp::Periphery { .. }
            | MicroOp::Movs { .. }
            | MicroOp::Lut { .. }
            | MicroOp::Movi { .. } => return true,
        };
        exact.is_some()
    }

    fn q16_array() -> ReramArray {
        ReramArray::new(AnalogSpec::prototype())
    }

    #[test]
    fn add_two_rows() {
        let mut a = array();
        a.write_row(0, &[1, 2, 3, 4, 5, 6, 7, 8]);
        a.write_row(1, &[10, 20, 30, 40, 50, 60, 70, 80]);
        let trace = a
            .execute_local(&Instruction::Add {
                mask: RowMask::from_rows([0, 1]),
                dst: Addr::mem(2),
            })
            .unwrap();
        assert_eq!(a.read_row(2), [11, 22, 33, 44, 55, 66, 77, 88]);
        assert_eq!(trace.cycles, 3);
        assert_eq!(trace.row_writes, 1);
        assert!(trace.crossbar_active);
        assert_eq!(trace.adc_conversions, 128);
    }

    #[test]
    fn add_negative_values_fours_complement() {
        let mut a = array();
        a.write_row_broadcast(0, -5);
        a.write_row_broadcast(1, 3);
        a.execute_local(&Instruction::Add {
            mask: RowMask::from_rows([0, 1]),
            dst: Addr::mem(2),
        })
        .unwrap();
        assert_eq!(a.read_word(2, 0), -2);
    }

    #[test]
    fn nary_add_up_to_adc_limit() {
        let mut a = array();
        for row in 0..10 {
            a.write_row_broadcast(row, (row + 1) as i32);
        }
        a.execute_local(&Instruction::Add {
            mask: (0..10).collect(),
            dst: Addr::mem(20),
        })
        .unwrap();
        assert_eq!(a.read_word(20, 0), 55);
    }

    #[test]
    fn adc_overrange_detected() {
        let mut a = array();
        // Eleven rows of worst-case digits (-1 has all-3 digits) exceed the
        // 5-bit ADC range (11 × 3 = 33 > 31).
        for row in 0..11 {
            a.write_row_broadcast(row, -1);
        }
        let result = a.execute_local(&Instruction::Add {
            mask: (0..11).collect(),
            dst: Addr::mem(20),
        });
        assert!(matches!(result, Err(RramError::AdcOverrange { .. })));
    }

    #[test]
    fn sub_via_current_drain() {
        let mut a = array();
        a.write_row(0, &[10, 0, -4, 100, 7, 7, 7, 7]);
        a.write_row(1, &[3, 5, -6, -100, 7, 8, 9, 10]);
        a.execute_local(&Instruction::Sub {
            minuend: RowMask::from_rows([0]),
            subtrahend: RowMask::from_rows([1]),
            dst: Addr::mem(2),
        })
        .unwrap();
        assert_eq!(a.read_row(2), [7, -5, 2, 200, 0, -1, -2, -3]);
    }

    #[test]
    fn mul_integer() {
        let mut a = array();
        a.write_row(0, &[2, -3, 4, -5, 6, 0, 1, -1]);
        a.write_row(1, &[3, 3, -3, -3, 0, 9, 1, 1]);
        let trace = a
            .execute_local(&Instruction::Mul {
                a: Addr::mem(0),
                b: Addr::mem(1),
                dst: Addr::mem(2),
            })
            .unwrap();
        assert_eq!(a.read_row(2), [6, -9, -12, 15, 0, 0, 1, -1]);
        assert_eq!(trace.cycles, 18);
    }

    #[test]
    fn mul_fixed_point_q16() {
        let mut a = q16_array();
        let half = 1 << 15; // 0.5 in Q16.16
        let three = 3 << 16;
        a.write_row_broadcast(0, three);
        a.write_row_broadcast(1, half);
        a.execute_local(&Instruction::Mul {
            a: Addr::mem(0),
            b: Addr::mem(1),
            dst: Addr::mem(2),
        })
        .unwrap();
        assert_eq!(a.read_word(2, 0), 3 << 15); // 1.5
    }

    #[test]
    fn mul_fixed_point_negative() {
        let mut a = q16_array();
        let minus_two = -(2 << 16);
        let q_1_5 = 3 << 15;
        a.write_row_broadcast(0, minus_two);
        a.write_row_broadcast(1, q_1_5);
        a.execute_local(&Instruction::Mul {
            a: Addr::mem(0),
            b: Addr::mem(1),
            dst: Addr::mem(2),
        })
        .unwrap();
        assert_eq!(a.read_word(2, 0), -(3 << 16)); // -3.0
    }

    #[test]
    fn dot_product_accumulates() {
        let mut a = array();
        a.write_row_broadcast(0, 2);
        a.write_row_broadcast(1, 3);
        a.write_row_broadcast(2, 1);
        a.write_reg(0, [5; LANES]);
        a.write_reg(1, [7; LANES]);
        a.write_reg(2, [2; LANES]);
        let trace = a
            .execute_local(&Instruction::Dot {
                mask: RowMask::from_rows([0, 1, 2]),
                reg_mask: RowMask::from_rows([0, 1, 2]),
                dst: Addr::mem(5),
            })
            .unwrap();
        // 2·5 + 3·7 + 1·2 = 33
        assert_eq!(a.read_word(5, 0), 33);
        assert_eq!(trace.cycles, 18);
        assert!(trace.regfile_accesses >= 3);
    }

    #[test]
    fn dot_multiplicand_is_per_row_scalar() {
        // The word-line DAC streams one value per row: lane 0 of the
        // register is broadcast to every lane (§2.2).
        let mut a = array();
        a.write_row(0, &[1, 2, 3, 4, 5, 6, 7, 8]);
        a.write_reg(0, [10, 99, 99, 99, 99, 99, 99, 99]);
        a.execute_local(&Instruction::Dot {
            mask: RowMask::from_rows([0]),
            reg_mask: RowMask::from_rows([0]),
            dst: Addr::mem(5),
        })
        .unwrap();
        assert_eq!(a.read_row(5), [10, 20, 30, 40, 50, 60, 70, 80]);
    }

    #[test]
    fn dynamic_predication_via_mask_register() {
        let mut a = array();
        a.write_row(0, &[5, 5, 5, 5, 5, 5, 5, 5]);
        a.write_row(1, &[0; LANES]);
        // Condition: lanes 0, 2, 4 true.
        a.write_row(2, &[1, 0, 65536, 0, -1, 0, 0, 0]);
        a.execute_local(&Instruction::Mov {
            src: Addr::mem(2),
            dst: Addr::reg(imp_isa::MASK_REGISTER),
        })
        .unwrap();
        assert_eq!(a.dynamic_mask(), 0b0001_0101);
        a.execute_local(&Instruction::Movs {
            src: Addr::mem(0),
            dst: Addr::mem(1),
            lane_mask: LaneMask::DYNAMIC,
        })
        .unwrap();
        assert_eq!(a.read_row(1), [5, 0, 5, 0, 5, 0, 0, 0]);
    }

    #[test]
    fn shift_and_mask() {
        let mut a = array();
        a.write_row_broadcast(0, 0b1011);
        a.execute_local(&Instruction::ShiftL {
            src: Addr::mem(0),
            dst: Addr::mem(1),
            amount: 4,
        })
        .unwrap();
        assert_eq!(a.read_word(1, 0), 0b1011_0000);
        a.execute_local(&Instruction::ShiftR {
            src: Addr::mem(1),
            dst: Addr::mem(2),
            amount: 2,
        })
        .unwrap();
        assert_eq!(a.read_word(2, 0), 0b10_1100);
        a.execute_local(&Instruction::Mask {
            src: Addr::mem(2),
            dst: Addr::mem(3),
            imm: 0b1111,
        })
        .unwrap();
        assert_eq!(a.read_word(3, 0), 0b1100);
    }

    #[test]
    fn arithmetic_right_shift_preserves_sign() {
        let mut a = array();
        a.write_row_broadcast(0, -16);
        a.execute_local(&Instruction::ShiftR {
            src: Addr::mem(0),
            dst: Addr::mem(1),
            amount: 2,
        })
        .unwrap();
        assert_eq!(a.read_word(1, 0), -4);
    }

    #[test]
    fn mov_between_spaces() {
        let mut a = array();
        a.write_row_broadcast(0, 42);
        a.execute_local(&Instruction::Mov {
            src: Addr::mem(0),
            dst: Addr::reg(3),
        })
        .unwrap();
        assert_eq!(a.read_reg(3), [42; LANES]);
        a.execute_local(&Instruction::Mov {
            src: Addr::reg(3),
            dst: Addr::mem(7),
        })
        .unwrap();
        assert_eq!(a.read_word(7, 0), 42);
    }

    #[test]
    fn movs_predication() {
        let mut a = array();
        a.write_row(0, &[1, 2, 3, 4, 5, 6, 7, 8]);
        a.write_row(1, &[0; LANES]);
        a.execute_local(&Instruction::Movs {
            src: Addr::mem(0),
            dst: Addr::mem(1),
            lane_mask: LaneMask::from_lanes([1, 3, 5]),
        })
        .unwrap();
        assert_eq!(a.read_row(1), [0, 2, 0, 4, 0, 6, 0, 0]);
    }

    #[test]
    fn movs_into_a_register_keeps_unselected_lanes() {
        let mut a = array();
        a.write_row_broadcast(0, 1);
        a.write_reg(0, [9; LANES]);
        let movs = |dst| Instruction::Movs {
            src: Addr::mem(0),
            dst,
            lane_mask: LaneMask::from_bits(0b1000_0001),
        };
        a.execute_local(&movs(Addr::reg(0))).unwrap();
        assert_eq!(a.read_reg(0), [1, 9, 9, 9, 9, 9, 9, 1]);
        // Into the mask register, the merged words latch the mask.
        a.write_row(0, &[0, 0, 0, 0, 0, 0, 0, 7]);
        a.write_reg(imp_isa::MASK_REGISTER, [0, 5, 0, 0, 0, 0, 0, 5]);
        assert_eq!(a.dynamic_mask(), 0b1000_0010);
        a.execute_local(&movs(Addr::reg(imp_isa::MASK_REGISTER)))
            .unwrap();
        assert_eq!(a.dynamic_mask(), 0b1000_0010);
        a.write_row(0, &[0; LANES]);
        a.execute_local(&movs(Addr::reg(imp_isa::MASK_REGISTER)))
            .unwrap();
        assert_eq!(a.read_reg(imp_isa::MASK_REGISTER), [0, 5, 0, 0, 0, 0, 0, 0]);
        assert_eq!(a.dynamic_mask(), 0b0000_0010);
    }

    #[test]
    fn movi_broadcasts() {
        let mut a = array();
        let trace = a
            .execute_local(&Instruction::Movi {
                dst: Addr::mem(0),
                imm: Imm::broadcast(-9),
            })
            .unwrap();
        assert_eq!(a.read_row(0), [-9; LANES]);
        assert_eq!(trace.cycles, 1);
    }

    #[test]
    fn lut_lookup() {
        let mut a = array();
        a.set_lut(Lut::from_fn(LutKind::Custom, |i| (i * 2 % 256) as u8));
        a.write_row(0, &[0, 1, 2, 100, 255, 256, 511, 512]);
        let trace = a
            .execute_local(&Instruction::Lut {
                src: Addr::mem(0),
                dst: Addr::mem(1),
            })
            .unwrap();
        assert_eq!(a.read_row(1), [0, 2, 4, 200, 254, 0, 254, 0]);
        assert_eq!(trace.cycles, 4);
        assert_eq!(trace.lut_reads, 8);
    }

    #[test]
    fn noise_injection_perturbs_results() {
        let noisy_spec = AnalogSpec {
            noise_prob: 0.2,
            ..AnalogSpec::integer()
        };
        let mut clean = array();
        let mut noisy = ReramArray::new(noisy_spec);
        noisy.set_fault_seed(7);
        for a in [&mut clean, &mut noisy] {
            a.write_row_broadcast(0, 1000);
            a.write_row_broadcast(1, 2345);
        }
        let add = Instruction::Add {
            mask: RowMask::from_rows([0, 1]),
            dst: Addr::mem(2),
        };
        clean.execute_local(&add).unwrap();
        noisy.execute_local(&add).unwrap();
        assert_eq!(clean.read_word(2, 0), 3345);
        // At 20% per-conversion flip probability some lane must deviate —
        // by a small amount (±1 LSB per bit-line, power-of-four weighted).
        let deviated = (0..LANES).any(|l| noisy.read_word(2, l) != 3345);
        assert!(deviated, "expected at least one noisy lane");
        // Determinism: same seed, same perturbation.
        let mut noisy2 = ReramArray::new(noisy_spec);
        noisy2.set_fault_seed(7);
        noisy2.write_row_broadcast(0, 1000);
        noisy2.write_row_broadcast(1, 2345);
        noisy2.execute_local(&add).unwrap();
        assert_eq!(noisy.read_row(2), noisy2.read_row(2));
    }

    #[test]
    fn zero_noise_is_exact_fast_path() {
        let mut a = array();
        a.write_row_broadcast(0, 123);
        a.write_row_broadcast(1, 456);
        a.execute_local(&Instruction::Mul {
            a: Addr::mem(0),
            b: Addr::mem(1),
            dst: Addr::mem(2),
        })
        .unwrap();
        assert_eq!(a.read_word(2, 0), 123 * 456);
    }

    #[test]
    fn adc_offset_fault_biases_and_latches_detection() {
        use crate::fault::{FaultMap, FaultRates};
        let mut a = array();
        // adc_offset rate 1.0 guarantees the permanent offset fires.
        let map = FaultMap::generate(
            3,
            &FaultRates {
                adc_offset: 1.0,
                ..FaultRates::none()
            },
        );
        assert_ne!(map.adc_offset(), 0);
        a.arm_faults(Arc::new(map), 0);
        assert!(!a.adc_fault_detected());
        a.write_row_broadcast(0, 100);
        a.write_row_broadcast(1, 200);
        a.execute_local(&Instruction::Add {
            mask: RowMask::from_rows([0, 1]),
            dst: Addr::mem(2),
        })
        .unwrap();
        assert_ne!(
            a.read_word(2, 0),
            300,
            "a permanent offset must corrupt the sum"
        );
        assert!(
            a.adc_fault_detected(),
            "the checksum-column duplicate must disagree"
        );
    }

    #[test]
    fn transient_glitches_rearm_per_attempt() {
        use crate::fault::{FaultMap, FaultRates};
        let map = Arc::new(FaultMap::generate(
            5,
            &FaultRates {
                transient_adc: 0.3,
                ..FaultRates::none()
            },
        ));
        let run = |attempt: u64| {
            let mut a = array();
            a.arm_faults(Arc::clone(&map), attempt);
            a.write_row_broadcast(0, 1000);
            a.write_row_broadcast(1, 2345);
            a.execute_local(&Instruction::Add {
                mask: RowMask::from_rows([0, 1]),
                dst: Addr::mem(2),
            })
            .unwrap();
            (a.read_row(2), a.adc_fault_detected())
        };
        // Same attempt → same glitches; the stream is deterministic.
        assert_eq!(run(1), run(1));
        // At 30% per conversion over 128 conversions, every attempt sees
        // glitches, and distinct attempts draw distinct error patterns.
        let (row1, seen1) = run(1);
        let (row2, seen2) = run(2);
        assert!(seen1 && seen2);
        assert_ne!(
            row1, row2,
            "re-armed transients must differ across attempts"
        );
    }

    #[test]
    fn stuck_source_row_corrupts_in_situ_math() {
        use crate::fault::{FaultMap, FaultRates};
        let mut a = array();
        a.arm_faults(
            Arc::new(FaultMap::generate(
                2,
                &FaultRates {
                    stuck_at_max: 0.05,
                    ..FaultRates::none()
                },
            )),
            0,
        );
        a.write_row_broadcast(0, 0);
        a.write_row_broadcast(1, 0);
        a.execute_local(&Instruction::Add {
            mask: RowMask::from_rows([0, 1]),
            dst: Addr::mem(2),
        })
        .unwrap();
        // 5% stuck-at-max over 256 source digits: some lane must deviate.
        let deviated = (0..LANES).any(|l| a.read_word(2, l) != 0);
        assert!(deviated, "stuck source cells must corrupt the in-situ sum");
        assert!(
            !a.crossbar().integrity_scan().is_empty(),
            "the residue scan must flag the stuck source rows"
        );
    }

    #[test]
    fn network_instructions_rejected() {
        let mut a = array();
        let movg = Instruction::Movg {
            src: imp_isa::GlobalAddr::new(0, 0, 0),
            dst: imp_isa::GlobalAddr::new(0, 0, 1),
        };
        assert!(matches!(
            a.execute_local(&movg),
            Err(RramError::NotArrayLocal(_))
        ));
    }

    #[test]
    fn adc_bits_scale_with_operands() {
        let mut a = array();
        a.write_row_broadcast(0, 1);
        a.write_row_broadcast(1, 1);
        let t2 = a
            .execute_local(&Instruction::Add {
                mask: RowMask::from_rows([0, 1]),
                dst: Addr::mem(9),
            })
            .unwrap();
        for row in 2..8 {
            a.write_row_broadcast(row, 1);
        }
        let t8 = a
            .execute_local(&Instruction::Add {
                mask: (0..8).collect(),
                dst: Addr::mem(9),
            })
            .unwrap();
        assert!(t8.adc_bits_used > t2.adc_bits_used);
    }

    #[test]
    fn reset_matches_a_fresh_array_with_the_same_lut() {
        let lut = Lut::from_fn(LutKind::Custom, |i| (i % 251) as u8);
        let mut pooled = array();
        pooled.set_lut(lut.clone());
        // Dirty the pooled array thoroughly.
        pooled.set_fault_seed(99);
        pooled.write_reg(1, [7; LANES]);
        pooled.write_row(0, &[1, 2, 3, 4, 5, 6, 7, 8]);
        pooled.write_row(90, &[-1; LANES]);
        pooled.write_reg(2, [3; LANES]);
        pooled.write_reg(imp_isa::MASK_REGISTER, [1; LANES]);
        {
            use crate::fault::{FaultMap, FaultRates};
            pooled.arm_faults(
                Arc::new(FaultMap::generate(
                    4,
                    &FaultRates {
                        stuck_at_max: 0.05,
                        adc_offset: 1.0,
                        transient_adc: 0.2,
                        ..FaultRates::none()
                    },
                )),
                0,
            );
        }
        pooled.reset();

        // Behaviourally identical to a fresh array: same reads, same regs,
        // same random streams, no faults, no wear.
        let mut fresh = array();
        fresh.set_lut(lut);
        for row in [0usize, 1, 90, 127] {
            assert_eq!(pooled.read_row(row), fresh.read_row(row));
            assert_eq!(pooled.crossbar().row_writes(row), 0);
        }
        for reg in (0..4).chain([imp_isa::MASK_REGISTER]) {
            assert_eq!(pooled.read_reg(reg), fresh.read_reg(reg));
        }
        assert_eq!(pooled.dynamic_mask(), fresh.dynamic_mask());
        assert_eq!(pooled.fault_rng.gen::<u64>(), fresh.fault_rng.gen::<u64>());
        assert_eq!(
            pooled.transient_rng.gen::<u64>(),
            fresh.transient_rng.gen::<u64>()
        );
        assert!(pooled.crossbar().fault_map().is_none());
        assert!(!pooled.adc_fault_detected());
        assert_eq!(pooled.lut(), fresh.lut());
    }

    /// Runs `inst` on fresh arrays with the fast path on and off and
    /// checks outputs, traces, errors, and post-state agree exactly.
    fn assert_fast_slow_equivalent(
        setup: &dyn Fn(&mut ReramArray),
        inst: &Instruction,
        spec: AnalogSpec,
    ) {
        assert_fast_slow_runs_equivalent(setup, spec, &|a| a.execute_local(inst));
    }

    /// Runs `run` on fresh arrays prepared by `setup`, with the fast path
    /// on and off, and checks outputs, traces, errors, post-state and both
    /// fault checks agree exactly.
    fn assert_fast_slow_runs_equivalent(
        setup: &dyn Fn(&mut ReramArray),
        spec: AnalogSpec,
        run: &dyn Fn(&mut ReramArray) -> Result<OpTrace, RramError>,
    ) {
        let mut fast = ReramArray::new(spec);
        let mut slow = ReramArray::new(spec);
        slow.set_fast_path_enabled(false);
        setup(&mut fast);
        setup(&mut slow);
        match (run(&mut fast), run(&mut slow)) {
            (Ok(tf), Ok(ts)) => {
                assert_eq!(tf, ts, "traces must match");
                for row in 0..imp_isa::ARRAY_ROWS {
                    assert_eq!(fast.read_row(row), slow.read_row(row), "row {row}");
                }
                for reg in 0..imp_isa::NUM_REGISTERS {
                    assert_eq!(fast.read_reg(reg), slow.read_reg(reg), "reg {reg}");
                }
            }
            (Err(ef), Err(es)) => assert_eq!(format!("{ef:?}"), format!("{es:?}")),
            (rf, rs) => panic!("fast {rf:?} disagrees with slow {rs:?}"),
        }
        assert_eq!(
            fast.crossbar().integrity_scan(),
            slow.crossbar().integrity_scan()
        );
        assert_eq!(fast.adc_fault_detected(), slow.adc_fault_detected());
    }

    /// Arms `a` with a random map of stuck cells, dead rows and columns
    /// and an endurance limit of `endurance` writes, plus a permanent ADC
    /// offset when `adc_offset` (which pins `a` to the ordered loops),
    /// then writes `rows[i]` into row `i`, `i % 3 + 1` times so that some
    /// rows wear out.
    fn arm_and_write(
        a: &mut ReramArray,
        map_seed: u64,
        endurance: u64,
        adc_offset: bool,
        rows: &[[i32; LANES]],
    ) {
        use crate::fault::FaultRates;
        let rates = FaultRates {
            stuck_at_zero: 0.02,
            stuck_at_max: 0.02,
            dead_row: 0.05,
            dead_col: 0.03,
            adc_offset: if adc_offset { 1.0 } else { 0.0 },
            endurance_limit: Some(endurance),
            ..FaultRates::none()
        };
        a.arm_faults(Arc::new(FaultMap::generate(map_seed, &rates)), map_seed);
        for (row, words) in rows.iter().enumerate() {
            for _ in 0..=row % 3 {
                a.write_row(row, words);
            }
        }
    }

    /// `dot` decoded with the DAC vectors of its multiplicands `scalars`
    /// analysed, as the simulator lowers a `dot` whose registers a `movi`
    /// loaded.
    fn analysed_dot(dot: &Instruction, scalars: &[i32]) -> MicroOp {
        let Some(MicroOp::Dot {
            rows, regs, dst, ..
        }) = MicroOp::decode(dot)
        else {
            panic!("{dot} is not a dot");
        };
        let dac = DacVectors::analyse(scalars.iter().copied());
        assert!(dac.is_some(), "few pairs");
        MicroOp::Dot {
            rows,
            regs,
            dac,
            dst,
        }
    }

    /// The activity of array-local `inst`, derived from its operand lists
    /// rather than by [`OpTrace::of`]: an in-situ op (`add`, `sub`, `dot`,
    /// `mul`) or a read of a memory row activates the crossbar; `dot` and
    /// `mul` convert each bit-line once per streamed chunk, any other op
    /// that activates it once; every register operand and a register
    /// destination is a register-file access, a memory destination a row
    /// write; `lut` reads the LUT once per lane.
    fn activity_from_operands(inst: &Instruction) -> OpTrace {
        let dst = inst.local_dst().expect("array-local");
        let streamed = matches!(inst, Instruction::Dot { .. } | Instruction::Mul { .. });
        let in_situ = streamed || matches!(inst, Instruction::Add { .. } | Instruction::Sub { .. });
        let crossbar_active = in_situ || inst.local_srcs().any(|src| src.is_mem());
        let bit_lines = LANES * DIGITS_PER_WORD;
        let adc_conversions = match (streamed, crossbar_active) {
            (true, _) => bit_lines * DIGITS_PER_WORD,
            (false, true) => bit_lines,
            (false, false) => 0,
        };
        let reg_operands = inst.local_srcs().filter(|src| src.is_reg()).count();
        OpTrace {
            cycles: inst.latency().cycles().expect("array-local"),
            adc_conversions: adc_conversions as u32,
            adc_bits_used: 0,
            crossbar_active,
            row_writes: u32::from(dst.is_mem()),
            regfile_accesses: (reg_operands + usize::from(dst.is_reg())) as u32,
            lut_reads: if matches!(inst, Instruction::Lut { .. }) {
                LANES as u32
            } else {
                0
            },
        }
    }

    /// Array-local instruction `opcode % 11` over rows `0..8`, registers
    /// `0..4` and the mask register. `masks` select rows (and a `dot`'s
    /// registers, from the low four bits of the second), `addrs` pick the
    /// operands, and `imm` is the shift amount (mod 32), the AND mask, the
    /// lane mask (low byte, 0 being dynamic) or the `movi` word.
    pub(crate) fn local_instruction(
        opcode: u8,
        masks: (u8, u8),
        addrs: [u8; 3],
        imm: u32,
    ) -> Instruction {
        let [src, dst, b] = addrs.map(|code| match code % 13 {
            row @ 0..=7 => Addr::mem(usize::from(row)),
            reg @ 8..=11 => Addr::reg(usize::from(reg - 8)),
            _ => Addr::reg(imp_isa::MASK_REGISTER),
        });
        let rows = |bits: u8| RowMask::from_bits(u128::from(bits));
        let amount = (imm % 32) as u8;
        match opcode % 11 {
            0 => Instruction::Add {
                mask: rows(masks.0),
                dst,
            },
            1 => Instruction::Sub {
                minuend: rows(masks.0),
                subtrahend: rows(masks.1),
                dst,
            },
            2 => Instruction::Dot {
                mask: rows(masks.0),
                reg_mask: rows(masks.1 & 0x0F),
                dst,
            },
            3 => Instruction::Mul { a: src, b, dst },
            4 => Instruction::ShiftL { src, dst, amount },
            5 => Instruction::ShiftR { src, dst, amount },
            6 => Instruction::Mask { src, dst, imm },
            7 => Instruction::Mov { src, dst },
            8 => Instruction::Movs {
                src,
                dst,
                lane_mask: LaneMask::from_bits(imm as u8),
            },
            9 => Instruction::Movi {
                dst,
                imm: imp_isa::Imm::broadcast(imm as i32),
            },
            _ => Instruction::Lut { src, dst },
        }
    }

    /// A 3-bit ADC (limit 7): `mul` overranges whenever both operands
    /// hold a digit 3 (3·3 = 9), so the fast path must fall back to the
    /// ordered loop.
    fn narrow_adc(strict: bool) -> AnalogSpec {
        AnalogSpec {
            adc_bits: 3,
            strict_adc: strict,
            ..AnalogSpec::integer()
        }
    }

    #[test]
    fn fast_path_fallback_reports_first_overrange() {
        let mul = Instruction::Mul {
            a: Addr::mem(0),
            b: Addr::mem(1),
            dst: Addr::mem(2),
        };
        for fast in [true, false] {
            let mut a = ReramArray::new(narrow_adc(true));
            a.set_fast_path_enabled(fast);
            // Lane 0 stays in range (2·2 = 4); lane 1's first conversion
            // with a 3 in both operands is the first overrange.
            a.write_row(0, &[2, 0b11_00, 0, 0, 0, 0, 0, 0]);
            a.write_row(1, &[2, 0b11, 0, 0, 0, 0, 0, 0]);
            match a.execute_local(&mul) {
                Err(RramError::AdcOverrange { partial_sum, limit }) => {
                    assert_eq!((partial_sum, limit), (9, 7), "fast path {fast}");
                }
                other => panic!("fast path {fast}: expected an overrange, got {other:?}"),
            }
            // Clipping mode keeps the exact product and reports the 4 ADC
            // bits the overrange needed.
            let mut clip = ReramArray::new(narrow_adc(false));
            clip.set_fast_path_enabled(fast);
            clip.write_row_broadcast(0, -1);
            clip.write_row_broadcast(1, 3);
            let trace = clip.execute_local(&mul).unwrap();
            assert_eq!(clip.read_word(2, 0), -3);
            assert_eq!(trace.adc_bits_used, 4);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(384))]

        #[test]
        fn only_the_adc_bits_of_a_trace_depend_on_data(
            opcode in any::<u8>(),
            masks in (any::<u8>(), any::<u8>()),
            addrs in prop::array::uniform8(any::<u8>()),
            imm in any::<u32>(),
            words in prop::collection::vec(any::<i32>(), 13),
            shift in 0u32..32,
            analog in (3u8..7, any::<bool>(), any::<bool>(), any::<bool>(), any::<bool>()),
            faults in (any::<bool>(), any::<bool>(), 0u64..4, any::<bool>(), any::<bool>()),
            map_seed in any::<u64>(),
        ) {
            let (adc_bits, strict, noise, q16, fast) = analog;
            let (cells, lines, wear, offset, glitch) = faults;
            // The energy model folds every field of an op's trace but
            // `adc_bits_used` once per run, so on any data, under any
            // faults, noise, ADC and path, `execute_local` must report
            // `OpTrace::of` plus the bits `execute_op` returns.
            let inst = local_instruction(opcode, masks, [addrs[0], addrs[1], addrs[2]], imm);
            let base = if q16 { AnalogSpec::prototype() } else { AnalogSpec::integer() };
            let spec = AnalogSpec {
                adc_bits,
                strict_adc: strict,
                noise_prob: if noise { 0.05 } else { 0.0 },
                ..base
            };
            let rates = crate::fault::FaultRates {
                stuck_at_zero: if cells { 0.02 } else { 0.0 },
                stuck_at_max: if cells { 0.02 } else { 0.0 },
                dead_row: if lines { 0.05 } else { 0.0 },
                dead_col: if lines { 0.03 } else { 0.0 },
                adc_offset: if offset { 1.0 } else { 0.0 },
                transient_adc: if glitch { 0.01 } else { 0.0 },
                endurance_limit: (wear > 0).then_some(wear),
            };
            let mut a = ReramArray::new(spec);
            a.set_fast_path_enabled(fast);
            a.set_fault_seed(map_seed);
            a.set_lut(Lut::from_fn(crate::LutKind::Custom, |i| (i * 7 % 256) as u8));
            let map = FaultMap::generate(map_seed, &rates);
            if !map.is_clean() {
                a.arm_faults(Arc::new(map), map_seed);
            }
            // Shifted-down words keep some sums within the ADC range.
            for (row, &v) in words[..8].iter().enumerate() {
                let value: [i32; LANES] = std::array::from_fn(|lane| v.rotate_left(lane as u32) >> shift);
                for _ in 0..=row % 3 {
                    a.write_row(row, &value);
                }
            }
            for (reg, &v) in words[8..12].iter().enumerate() {
                a.write_reg(reg, std::array::from_fn(|lane| (v >> shift).wrapping_add(lane as i32)));
            }
            a.write_reg(imp_isa::MASK_REGISTER, std::array::from_fn(|lane| words[12] >> lane & 1));

            prop_assert_eq!(OpTrace::of(&inst), activity_from_operands(&inst));
            let mut b = a.clone();
            let op = MicroOp::decode(&inst).expect("array-local");
            match (a.execute_local(&inst), b.execute_op(&op)) {
                (Ok(trace), Ok(bits)) => {
                    prop_assert_eq!(OpTrace { adc_bits_used: 0, ..trace }, OpTrace::of(&inst));
                    prop_assert_eq!(trace.adc_bits_used, bits);
                    prop_assert_eq!(bits > 0, trace.adc_conversions > 0, "{inst}: {bits} bits");
                }
                (Err(ea), Err(eb)) => prop_assert_eq!(ea, eb),
                (ra, rb) => prop_assert!(false, "{inst}: {ra:?} but {rb:?}"),
            }
            for row in 0..8 {
                prop_assert_eq!(a.read_row(row), b.read_row(row));
            }
            for reg in (0..4).chain([imp_isa::MASK_REGISTER]) {
                prop_assert_eq!(a.read_reg(reg), b.read_reg(reg));
            }
            prop_assert_eq!(a.dynamic_mask(), b.dynamic_mask());
            prop_assert_eq!(a.adc_fault_detected(), b.adc_fault_detected());
        }
    }

    /// The ordered `dot`/`mul` written out from the model (§2.2), apart
    /// from `mac_ordered`: lane by lane, digit by digit, chunk by chunk,
    /// the ideal bit-line partial `Σₚ digit(rowₚ)·chunk(mₚ)` of the
    /// `(row, multiplicand)` pairs takes one draw from `noise`, then the
    /// ADC fault: `offset` plus one `glitch` draw at probability
    /// `transient`, clamped to the ADC range. A strict ADC fails on the
    /// first partial out of range. Each lane's value is the signed
    /// `Σₚ rowₚ·mₚ` plus every partial's error at weight 4^(digit+chunk),
    /// windowed at `frac_bits`. Returns the words and ADC bits (or the
    /// error) and whether a fault error was seen.
    fn mac_reference(
        spec: &AnalogSpec,
        pairs: &[([i32; LANES], [i32; LANES])],
        mut noise: StdRng,
        (offset, transient, mut glitch): (i64, f64, StdRng),
    ) -> (Result<([i32; LANES], u8), RramError>, bool) {
        let limit = spec.adc_max();
        let digit = |word: i32, pos: usize| i64::from((word as u32 >> (2 * pos)) & 0b11);
        let mut fault_seen = false;
        let mut max_partial = 0;
        let mut out = [0i32; LANES];
        for (lane, word) in out.iter_mut().enumerate() {
            let mut value = pairs.iter().fold(0i64, |acc, (row, m)| {
                acc.wrapping_add(i64::from(row[lane]) * i64::from(m[lane]))
            });
            for d in 0..16 {
                for c in 0..16 {
                    let ideal: i64 = pairs
                        .iter()
                        .map(|(row, m)| digit(row[lane], d) * digit(m[lane], c))
                        .sum();
                    let mut sensed = ideal;
                    if spec.noise_prob > 0.0 && noise.gen::<f64>() < spec.noise_prob {
                        sensed += if noise.gen::<bool>() { 1 } else { -1 };
                    }
                    let mut fault = offset;
                    if transient > 0.0 && glitch.gen::<f64>() < transient {
                        fault += if glitch.gen::<bool>() { 1 } else { -1 };
                    }
                    if fault != 0 {
                        fault_seen = true;
                        sensed = (sensed + fault).clamp(-limit, limit);
                    }
                    if spec.strict_adc && sensed.abs() > limit {
                        let error = RramError::AdcOverrange {
                            partial_sum: sensed,
                            limit,
                        };
                        return (Err(error), fault_seen);
                    }
                    max_partial = max_partial.max(sensed);
                    value = value.wrapping_add((sensed - ideal) << (2 * (d + c)));
                }
            }
            *word = (value >> spec.frac_bits) as i32;
        }
        let bits = AnalogSpec::required_adc_bits(max_partial.max(1));
        (Ok((out, bits)), fault_seen)
    }

    proptest! {
        #[test]
        fn fast_path_add_equivalent(
            values in prop::collection::vec(any::<i32>(), 2..10),
            strict in any::<bool>(),
        ) {
            let spec = AnalogSpec { strict_adc: strict, ..AnalogSpec::integer() };
            let n = values.len();
            let vals = values.clone();
            assert_fast_slow_equivalent(
                &move |a| {
                    for (row, &v) in vals.iter().enumerate() {
                        a.write_row_broadcast(row, v);
                    }
                },
                &Instruction::Add { mask: (0..n).collect(), dst: Addr::mem(100) },
                spec,
            );
        }

        #[test]
        fn fast_path_wide_add_equivalent(
            values in prop::collection::vec(any::<i32>(), 60..110),
            threes in any::<i32>(),
            minus in 0usize..100,
        ) {
            // Up to 85 rows per sign the packed column sums hold the
            // all-threes worst case (255); past that the fast path declines.
            // `threes` forces digit 3 into the same columns of every row so
            // those sums reach the limit. A 9-bit ADC (limit 511) holds
            // every sum here.
            let spec = AnalogSpec { adc_bits: 9, ..AnalogSpec::integer() };
            let n = values.len();
            let split = minus.min(n);
            let vals: Vec<i32> = values.iter().map(|&v| v | threes).collect();
            assert_fast_slow_equivalent(
                &move |a| {
                    for (row, &v) in vals.iter().enumerate() {
                        a.write_row_broadcast(row, v);
                    }
                },
                &Instruction::Sub {
                    minuend: (split..n).collect(),
                    subtrahend: (0..split).collect(),
                    dst: Addr::mem(120),
                },
                spec,
            );
        }

        #[test]
        fn fast_path_sub_equivalent(x in any::<i32>(), y in any::<i32>()) {
            assert_fast_slow_equivalent(
                &move |a| {
                    a.write_row_broadcast(0, x);
                    a.write_row_broadcast(1, y);
                },
                &Instruction::Sub {
                    minuend: RowMask::from_rows([0]),
                    subtrahend: RowMask::from_rows([1]),
                    dst: Addr::mem(2),
                },
                AnalogSpec::integer(),
            );
        }

        #[test]
        fn fast_path_mul_equivalent(x in any::<i32>(), y in any::<i32>(), q16 in any::<bool>()) {
            let spec = if q16 { AnalogSpec::prototype() } else { AnalogSpec::integer() };
            assert_fast_slow_equivalent(
                &move |a| {
                    a.write_row_broadcast(0, x);
                    a.write_row_broadcast(1, y);
                },
                &Instruction::Mul { a: Addr::mem(0), b: Addr::mem(1), dst: Addr::mem(2) },
                spec,
            );
        }

        #[test]
        fn fast_path_dot_equivalent(
            rows in prop::collection::vec(any::<i32>(), 1..4),
            weights in prop::collection::vec(any::<i32>(), 4),
            strict in any::<bool>(),
        ) {
            let spec = AnalogSpec { strict_adc: strict, ..AnalogSpec::prototype() };
            let k = rows.len();
            let (r, w) = (rows.clone(), weights.clone());
            assert_fast_slow_equivalent(
                &move |a| {
                    for (i, &v) in r.iter().enumerate() {
                        a.write_row_broadcast(i, v);
                    }
                    for (i, &x) in w.iter().take(k).enumerate() {
                        a.write_reg(i, [x; LANES]);
                    }
                },
                &Instruction::Dot {
                    mask: (0..k).collect(),
                    reg_mask: (0..k).collect(),
                    dst: Addr::mem(100),
                },
                spec,
            );
        }

        #[test]
        fn fast_path_fallback_add_sub_equivalent(
            values in prop::collection::vec(any::<i32>(), 2..6),
            minus in 0usize..4,
            thin in any::<i32>(),
            strict in any::<bool>(),
        ) {
            // Thinned words keep some column sums within the 3-bit range.
            let minus = minus.min(values.len() - 1);
            let plus = values.len() - minus;
            for vals in [values.clone(), values.iter().map(|&v| v & thin).collect()] {
                assert_fast_slow_equivalent(
                    &move |a| {
                        for (row, &v) in vals.iter().enumerate() {
                            a.write_row_broadcast(row, v);
                        }
                    },
                    &Instruction::Sub {
                        minuend: (0..plus).collect(),
                        subtrahend: (plus..plus + minus).collect(),
                        dst: Addr::mem(100),
                    },
                    narrow_adc(strict),
                );
            }
        }

        #[test]
        fn fast_path_fallback_mul_equivalent(
            x in any::<i32>(),
            y in any::<i32>(),
            strict in any::<bool>(),
        ) {
            // Digits of `y & 0xAAAA_AAAA` are 0 or 2, so 2·3 = 6 fits and
            // the closed form stands; full words overrange at 3·3 = 9.
            for y in [y, y & 0xAAAA_AAAAu32 as i32] {
                assert_fast_slow_equivalent(
                    &move |a| {
                        a.write_row_broadcast(0, x);
                        a.write_row(1, &[y, y, 0, 1, 2, y, -1, y]);
                    },
                    &Instruction::Mul { a: Addr::mem(0), b: Addr::mem(1), dst: Addr::mem(2) },
                    narrow_adc(strict),
                );
            }
        }

        #[test]
        fn fast_path_fallback_dot_equivalent(
            rows in prop::collection::vec(any::<i32>(), 4..8),
            weights in prop::collection::vec(-(1i32 << 18)..(1 << 18), 8),
            strict in any::<bool>(),
        ) {
            // More pairs than `max_dot_operands()` (3 at 5 bits): some
            // operand sets overrange, small ones stay in range.
            let spec = AnalogSpec { strict_adc: strict, ..AnalogSpec::prototype() };
            prop_assert!(rows.len() > spec.max_dot_operands());
            let k = rows.len();
            for shift in [0u32, 20] {
                let (r, w) = (rows.clone(), weights.clone());
                assert_fast_slow_equivalent(
                    &move |a| {
                        for (i, &v) in r.iter().enumerate() {
                            a.write_row(i, &std::array::from_fn(|lane| (v >> shift) ^ lane as i32));
                        }
                        for (i, &x) in w.iter().take(k).enumerate() {
                            a.write_reg(i, [x >> shift; LANES]);
                        }
                    },
                    &Instruction::Dot {
                        mask: (0..k).collect(),
                        reg_mask: (0..k).collect(),
                        dst: Addr::mem(100),
                    },
                    spec,
                );
            }
        }

        #[test]
        fn fast_path_wide_dot_equivalent(
            rows in prop::collection::vec(any::<i32>(), 20..48),
            weights in prop::collection::vec(any::<i32>(), 48),
            adc_bits in 8u8..10,
        ) {
            // Up to 28 pairs the packed column sums hold the full-weight
            // worst case (28 · 9 = 252); past that the fast path declines.
            // A 9-bit ADC (limit 511) holds the 48 · 9 worst case, an 8-bit
            // one does not.
            let spec = AnalogSpec { adc_bits, ..AnalogSpec::prototype() };
            let k = rows.len();
            let (r, w) = (rows.clone(), weights.clone());
            assert_fast_slow_equivalent(
                &move |a| {
                    for (i, &v) in r.iter().enumerate() {
                        a.write_row_broadcast(i, v);
                    }
                    for (i, &x) in w.iter().take(k).enumerate() {
                        a.write_reg(i, [x; LANES]);
                    }
                },
                &Instruction::Dot {
                    mask: (0..k).collect(),
                    reg_mask: (0..k).collect(),
                    dst: Addr::mem(100),
                },
                spec,
            );
        }

        #[test]
        fn analysed_dot_equivalent(
            rows in prop::collection::vec(any::<i32>(), 1..6),
            weights in prop::collection::vec(any::<i32>(), 6),
            adc_bits in 3u8..10,
            strict in any::<bool>(),
            shift in 0u32..24,
            q16 in any::<bool>(),
        ) {
            // `dot` with its DAC vectors analysed ahead of time ≡ the
            // `dot` `execute_local` runs: value, ADC bits, error and state.
            // Narrow strict ADCs and wide operands overrange, so the
            // ordered fallback runs too; shifted-down operands stay in
            // range.
            let base = if q16 { AnalogSpec::prototype() } else { AnalogSpec::integer() };
            let spec = AnalogSpec { adc_bits, strict_adc: strict, ..base };
            let k = rows.len();
            let scalars: Vec<i32> = weights.iter().take(k).map(|&w| w >> shift).collect();
            let setup = |a: &mut ReramArray| {
                for (i, &v) in rows.iter().enumerate() {
                    a.write_row(i, &std::array::from_fn(|lane| (v >> shift) ^ lane as i32));
                }
                for (i, &x) in scalars.iter().enumerate() {
                    // Only lane 0 is streamed; the others must not matter.
                    a.write_reg(i, std::array::from_fn(|lane| x.wrapping_add(lane as i32)));
                }
            };
            let dot = Instruction::Dot {
                mask: (0..k).collect(),
                reg_mask: (0..k).collect(),
                dst: Addr::mem(100),
            };
            let mut local = ReramArray::new(spec);
            let mut analysed = ReramArray::new(spec);
            setup(&mut local);
            setup(&mut analysed);
            let expect = local.execute_local(&dot).map(|trace| trace.adc_bits_used);
            let got = analysed.execute_op(&analysed_dot(&dot, &scalars));
            prop_assert_eq!(format!("{got:?}"), format!("{expect:?}"));
            prop_assert_eq!(analysed.read_row(100), local.read_row(100));
        }

        #[test]
        fn dac_analysis_declines_past_max_pairs(extra in 1usize..4, m in any::<i32>()) {
            let fits = std::iter::repeat_n(m, DacVectors::MAX_PAIRS);
            prop_assert!(DacVectors::analyse(fits).is_some());
            let over = std::iter::repeat_n(m, DacVectors::MAX_PAIRS + extra);
            prop_assert!(DacVectors::analyse(over).is_none());
        }

        #[test]
        fn armed_add_sub_equivalent(
            values in prop::collection::vec(any::<i32>(), 2..10),
            minus in 0usize..4,
            thin in any::<i32>(),
            map_seed in any::<u64>(),
            endurance in 1u64..4,
            adc_offset in any::<bool>(),
            adc_bits in 3u8..7,
            strict in any::<bool>(),
        ) {
            // Cell, line and wear faults take the fast path on the sensed
            // rows; narrow ADCs overrange into the ordered fallback, and
            // thinned words keep some sums in range.
            let spec = AnalogSpec { adc_bits, strict_adc: strict, ..AnalogSpec::integer() };
            let minus = minus.min(values.len() - 1);
            let plus = values.len() - minus;
            let inst = if minus == 0 {
                Instruction::Add { mask: (0..plus).collect(), dst: Addr::mem(100) }
            } else {
                Instruction::Sub {
                    minuend: (0..plus).collect(),
                    subtrahend: (plus..plus + minus).collect(),
                    dst: Addr::mem(100),
                }
            };
            for vals in [values.clone(), values.iter().map(|&v| v & thin).collect()] {
                let rows: Vec<[i32; LANES]> = vals
                    .iter()
                    .map(|&v| std::array::from_fn(|lane| v.rotate_left(lane as u32)))
                    .collect();
                assert_fast_slow_equivalent(
                    &|a| arm_and_write(a, map_seed, endurance, adc_offset, &rows),
                    &inst,
                    spec,
                );
            }
        }

        #[test]
        fn armed_mul_equivalent(
            x in any::<i32>(),
            y in any::<i32>(),
            map_seed in any::<u64>(),
            endurance in 1u64..4,
            adc_offset in any::<bool>(),
            narrow in any::<bool>(),
            strict in any::<bool>(),
            b_reg in any::<bool>(),
        ) {
            // Operand `a` is always a (sensed) row; `b` a row or a register.
            let spec = if narrow { narrow_adc(strict) } else { AnalogSpec::prototype() };
            let b = if b_reg { Addr::reg(2) } else { Addr::mem(1) };
            let rows = [[x; LANES], [y, y, 0, 1, 2, y, -1, y & 0xAAAA_AAAAu32 as i32]];
            assert_fast_slow_equivalent(
                &|a| {
                    arm_and_write(a, map_seed, endurance, adc_offset, &rows);
                    a.write_reg(2, rows[1]);
                },
                &Instruction::Mul { a: Addr::mem(0), b, dst: Addr::mem(2) },
                spec,
            );
        }

        #[test]
        fn armed_dot_equivalent(
            rows in prop::collection::vec(any::<i32>(), 1..8),
            weights in prop::collection::vec(any::<i32>(), 8),
            shift in 0u32..24,
            map_seed in any::<u64>(),
            endurance in 1u64..4,
            adc_offset in any::<bool>(),
            adc_bits in 3u8..10,
            strict in any::<bool>(),
        ) {
            // `dot` through `execute_local` and decoded with its DAC
            // vectors analysed ahead of time; narrow strict ADCs and wide
            // operands overrange, shifted-down operands stay in range.
            let spec = AnalogSpec { adc_bits, strict_adc: strict, ..AnalogSpec::prototype() };
            let k = rows.len();
            let words: Vec<[i32; LANES]> = rows
                .iter()
                .map(|&v| std::array::from_fn(|lane| (v >> shift) ^ lane as i32))
                .collect();
            let scalars: Vec<i32> = weights.iter().take(k).map(|&w| w >> shift).collect();
            let setup = |a: &mut ReramArray| {
                arm_and_write(a, map_seed, endurance, adc_offset, &words);
                for (i, &x) in scalars.iter().enumerate() {
                    a.write_reg(i, [x; LANES]);
                }
            };
            let dot = Instruction::Dot {
                mask: (0..k).collect(),
                reg_mask: (0..k).collect(),
                dst: Addr::mem(100),
            };
            assert_fast_slow_equivalent(&setup, &dot, spec);
            let analysed = analysed_dot(&dot, &scalars);
            assert_fast_slow_runs_equivalent(&setup, spec, &|a| {
                a.execute_op(&analysed).map(|adc_bits_used| OpTrace {
                    adc_bits_used,
                    ..OpTrace::of(&dot)
                })
            });
        }

        #[test]
        fn ordered_mul_is_a_one_pair_dot(
            words in prop::array::uniform8(any::<i32>()),
            m in any::<i32>(),
            shift in 0u32..32,
            analog in (2u8..7, any::<bool>(), any::<bool>(), any::<bool>()),
            adc_faults in (any::<bool>(), any::<bool>()),
            seed in any::<u64>(),
        ) {
            // `mul` streams one multiplicand per element through the
            // bit-line DACs, `dot` one per row through the word-line DACs
            // (§2.2). With the multiplicand broadcast in a register,
            // `mul {a, reg}` is the one-pair `dot {a} {reg}` conversion for
            // conversion: the same words, ADC bits, first error, noise and
            // ADC-fault draws, on either path.
            let (adc_bits, strict, noise, q16) = analog;
            let (offset, glitch) = adc_faults;
            let base = if q16 { AnalogSpec::prototype() } else { AnalogSpec::integer() };
            let spec = AnalogSpec {
                adc_bits,
                strict_adc: strict,
                noise_prob: if noise { 0.05 } else { 0.0 },
                ..base
            };
            let rates = crate::fault::FaultRates {
                adc_offset: if offset { 1.0 } else { 0.0 },
                transient_adc: if glitch { 0.01 } else { 0.0 },
                ..crate::fault::FaultRates::none()
            };
            let run = |op: MicroOp, fast: bool| {
                let mut a = ReramArray::new(spec);
                a.set_fast_path_enabled(fast);
                a.set_fault_seed(seed);
                let map = FaultMap::generate(seed, &rates);
                if !map.is_clean() {
                    a.arm_faults(Arc::new(map), seed);
                }
                a.write_row(0, &words.map(|word| word >> shift));
                a.write_reg(0, [m >> shift; LANES]);
                let result = a.execute_op(&op);
                (result, a.read_row(2), a.adc_fault_detected())
            };
            let mul = MicroOp::Mul { a: Addr::mem(0), b: Addr::reg(0), dst: Addr::mem(2) };
            let dot = MicroOp::Dot {
                rows: RowMask::from_rows([0]),
                regs: RowMask::from_rows([0]),
                dac: None,
                dst: Addr::mem(2),
            };
            for fast in [true, false] {
                prop_assert_eq!(run(mul, fast), run(dot, fast), "fast path {}", fast);
            }
        }

        #[test]
        fn ordered_dot_and_mul_match_a_reference_under_noise_and_adc_faults(
            words in prop::array::uniform8(any::<i32>()),
            b in any::<i32>(),
            shift in 0u32..32,
            pairs in 1usize..5,
            analog in (2u8..7, any::<bool>(), any::<bool>(), any::<bool>()),
            adc_faults in (any::<bool>(), any::<bool>()),
            seed in any::<u64>(),
        ) {
            // `mac_reference` draws noise and glitches in (lane, digit,
            // chunk) order, so a loop order, a weight or an error term
            // that moves in `mac_ordered` shows here, on either path (the
            // fast path runs only without noise and ADC faults).
            let (adc_bits, strict, noise, q16) = analog;
            let (offset, glitch) = adc_faults;
            let base = if q16 { AnalogSpec::prototype() } else { AnalogSpec::integer() };
            let spec = AnalogSpec {
                adc_bits,
                strict_adc: strict,
                noise_prob: if noise { 0.3 } else { 0.0 },
                ..base
            };
            let rates = crate::fault::FaultRates {
                adc_offset: if offset { 1.0 } else { 0.0 },
                transient_adc: if glitch { 0.05 } else { 0.0 },
                ..crate::fault::FaultRates::none()
            };
            let map = FaultMap::generate(seed, &rates);
            let lanes = |v: i32| -> [i32; LANES] {
                std::array::from_fn(|lane| v.rotate_left(5 * lane as u32) >> shift)
            };
            let rows = words[..4].iter().map(|&v| lanes(v)).collect::<Vec<_>>();
            let regs = words[4..8].iter().map(|&v| lanes(v)).collect::<Vec<_>>();
            let b = lanes(b);
            let run = |op: MicroOp| {
                let mut a = ReramArray::new(spec);
                a.set_fault_seed(seed);
                if !map.is_clean() {
                    a.arm_faults(Arc::new(map.clone()), seed);
                }
                for (row, words) in rows.iter().enumerate() {
                    a.write_row(row, words);
                }
                for (reg, &words) in regs.iter().enumerate() {
                    a.write_reg(reg, words);
                }
                a.write_row(8, &b);
                let result = a.execute_op(&op).map(|bits| (a.read_row(10), bits));
                (result, a.adc_fault_detected())
            };
            let reference = |pairs: &[([i32; LANES], [i32; LANES])]| {
                let glitch = map.seed() ^ TRANSIENT_SALT ^ seed;
                let adc = (map.adc_offset(), map.transient_adc(), StdRng::seed_from_u64(glitch));
                mac_reference(&spec, pairs, StdRng::seed_from_u64(seed), adc)
            };
            // `dot` streams lane 0 of each register through the word-line
            // DACs; `mul` streams `b` lane by lane through the bit-lines.
            let dot = MicroOp::Dot {
                rows: (0..pairs).collect(),
                regs: (0..pairs).collect(),
                dac: None,
                dst: Addr::mem(10),
            };
            let dot_pairs: Vec<_> = (0..pairs).map(|p| (rows[p], [regs[p][0]; LANES])).collect();
            prop_assert_eq!(run(dot), reference(&dot_pairs), "dot");
            let mul = MicroOp::Mul { a: Addr::mem(0), b: Addr::mem(8), dst: Addr::mem(10) };
            prop_assert_eq!(run(mul), reference(&[(rows[0], b)]), "mul");
        }

        #[test]
        fn add_matches_wrapping_sum(values in prop::collection::vec(any::<i32>(), 2..8)) {
            let mut a = array();
            for (row, &value) in values.iter().enumerate() {
                a.write_row_broadcast(row, value);
            }
            let mask: RowMask = (0..values.len()).collect();
            // Worst-case digits may exceed strict ADC range for random data;
            // permit clipping off and verify only when within range.
            let result = a.execute_local(&Instruction::Add { mask, dst: Addr::mem(100) });
            if result.is_ok() {
                let expect = values.iter().fold(0i32, |acc, &v| acc.wrapping_add(v));
                prop_assert_eq!(a.read_word(100, 0), expect);
            }
        }

        #[test]
        fn mul_matches_i32_semantics(x in -46340i32..46340, y in -46340i32..46340) {
            let mut a = array();
            a.write_row_broadcast(0, x);
            a.write_row_broadcast(1, y);
            a.execute_local(&Instruction::Mul {
                a: Addr::mem(0), b: Addr::mem(1), dst: Addr::mem(2),
            }).unwrap();
            prop_assert_eq!(a.read_word(2, 0), x.wrapping_mul(y));
        }

        #[test]
        fn dot_matches_reference_mac(
            rows in prop::collection::vec(-1000i32..1000, 1..3),
            weights in prop::collection::vec(-1000i32..1000, 3),
        ) {
            let mut a = array();
            for (i, &v) in rows.iter().enumerate() {
                a.write_row_broadcast(i, v);
            }
            for (i, &w) in weights.iter().take(rows.len()).enumerate() {
                a.write_reg(i, [w; LANES]);
            }
            let k = rows.len();
            a.execute_local(&Instruction::Dot {
                mask: (0..k).collect(),
                reg_mask: (0..k).collect(),
                dst: Addr::mem(100),
            }).unwrap();
            let expect: i64 = rows
                .iter()
                .zip(&weights)
                .map(|(&r, &w)| i64::from(r) * i64::from(w))
                .sum();
            prop_assert_eq!(i64::from(a.read_word(100, 0)), expect);
        }

        #[test]
        fn fixed_point_dot_window(
            rows in prop::collection::vec(-60000i32..60000, 1..3),
            weights in prop::collection::vec(-60000i32..60000, 3),
        ) {
            // Q16.16 dot: the S+A selects the (Σ aᵢ·wᵢ) >> 16 window.
            let mut a = q16_array();
            for (i, &v) in rows.iter().enumerate() {
                a.write_row_broadcast(i, v);
            }
            for (i, &w) in weights.iter().take(rows.len()).enumerate() {
                a.write_reg(i, [w; LANES]);
            }
            let k = rows.len();
            a.execute_local(&Instruction::Dot {
                mask: (0..k).collect(),
                reg_mask: (0..k).collect(),
                dst: Addr::mem(100),
            }).unwrap();
            let wide: i64 = rows
                .iter()
                .zip(&weights)
                .map(|(&r, &w)| i64::from(r) * i64::from(w))
                .sum();
            prop_assert_eq!(i64::from(a.read_word(100, 0)), wide >> 16);
        }

        #[test]
        fn sub_matches_wrapping_sub(x in any::<i32>(), y in any::<i32>()) {
            let mut a = array();
            a.write_row_broadcast(0, x);
            a.write_row_broadcast(1, y);
            a.execute_local(&Instruction::Sub {
                minuend: RowMask::from_rows([0]),
                subtrahend: RowMask::from_rows([1]),
                dst: Addr::mem(2),
            }).unwrap();
            prop_assert_eq!(a.read_word(2, 0), x.wrapping_sub(y));
        }
    }
}
