//! One ReRAM processing unit: a crossbar plus its periphery, executing
//! array-local ISA instructions.

use crate::analog::{AnalogSpec, OpTrace};
use crate::crossbar::Crossbar;
use crate::digits::{self, DIGITS_PER_WORD};
use crate::fault::FaultMap;
use crate::lut::Lut;
use crate::regfile::RegisterFile;
use crate::RramError;
use imp_isa::{Addr, Instruction, Latency, RowMask, LANES};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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
/// `imp-sim`.
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
    /// Permanent ADC conversion offset, in LSBs, from an installed fault
    /// map (0 = calibrated converter).
    adc_offset: i64,
    /// Per-conversion transient ADC glitch probability from an installed
    /// fault map.
    transient_prob: f64,
    /// Transient-glitch stream (re-armed per recovery attempt so a retry
    /// draws fresh transients).
    transient_rng: StdRng,
    /// Sticky detection flag: the duplicated conversion on the checksum
    /// column disagreed at least once since the last (re)arm.
    adc_fault_seen: bool,
    /// Whether the fault-free fast path may be taken (test hook; the fast
    /// path is semantically identical and on by default).
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
            adc_offset: 0,
            transient_prob: 0.0,
            transient_rng: StdRng::seed_from_u64(0),
            adc_fault_seen: false,
            fast_path_enabled: true,
        }
    }

    /// Enables or disables the fault-free fast path (see
    /// [`ReramArray::execute_local`]). The fast path is bit-identical to
    /// the general path; this hook exists so the equivalence property test
    /// can compare the two.
    pub fn set_fast_path_enabled(&mut self, enabled: bool) {
        self.fast_path_enabled = enabled;
    }

    /// True when no fault or noise model can affect this array's
    /// conversions: no analog noise, no installed fault map, and a
    /// calibrated ADC. Under this precondition every `adc_noise` /
    /// `adc_fault_err` call returns 0 without consuming RNG state, and
    /// every crossbar read senses exactly the programmed digits — the
    /// invariants the fast paths rely on.
    fn fault_free(&self) -> bool {
        self.spec.noise_prob <= 0.0
            && self.adc_offset == 0
            && self.transient_prob <= 0.0
            && self.crossbar.fault_map().is_none()
    }

    /// Reseeds the process-variation noise source (for reproducible fault
    /// injection across arrays).
    pub fn set_fault_seed(&mut self, seed: u64) {
        self.fault_rng = StdRng::seed_from_u64(seed);
    }

    /// Installs a fault population on this array: cell/line faults go to
    /// the crossbar, ADC faults to the conversion periphery. Clears the
    /// sticky ADC-fault flag.
    pub fn install_faults(&mut self, map: &FaultMap) {
        self.adc_offset = map.adc_offset();
        self.transient_prob = map.transient_adc();
        self.transient_rng = StdRng::seed_from_u64(map.seed() ^ 0xADC0_FA17_ADC0_FA17);
        self.adc_fault_seen = false;
        self.crossbar.install_faults(map.clone());
    }

    /// Re-arms the transient-glitch stream from a caller-mixed stream id:
    /// permanent faults persist across retries, transients are drawn
    /// fresh. The simulator derives the id from `(seed, slot, group,
    /// attempt)` so every (array, instance group, recovery attempt) draws
    /// an independent stream — transients then cannot depend on the order
    /// in which groups execute, which is what lets the parallel engine
    /// reproduce serial results bit for bit. Clears the sticky detection
    /// flag.
    pub fn rearm_transients_stream(&mut self, stream: u64) {
        let base = self.crossbar.fault_map().map(|m| m.seed()).unwrap_or(0);
        self.transient_rng = StdRng::seed_from_u64(base ^ 0xADC0_FA17_ADC0_FA17 ^ stream);
        self.adc_fault_seen = false;
    }

    /// Resets this pooled array to the state of `template` (which must
    /// have a pristine, never-written crossbar), reusing every allocation:
    /// dirtied crossbar rows are zeroed in place, the register file and
    /// dynamic mask are copied back, any installed fault map is dropped,
    /// and the ADC periphery is restored to the template's calibration.
    /// After this call the array is indistinguishable from
    /// `template.clone()`.
    pub fn reset_from_template(&mut self, template: &ReramArray) {
        self.crossbar.reset_dirty();
        self.regfile.clone_from(&template.regfile);
        if self.lut != template.lut {
            self.lut = template.lut.clone();
        }
        self.spec = template.spec;
        self.dynamic_mask = template.dynamic_mask;
        self.fault_rng = template.fault_rng.clone();
        self.adc_offset = template.adc_offset;
        self.transient_prob = template.transient_prob;
        self.transient_rng = template.transient_rng.clone();
        self.adc_fault_seen = false;
        self.fast_path_enabled = template.fast_path_enabled;
    }

    /// Whether the periphery latched an ADC fault (a conversion whose
    /// duplicate on the checksum column disagreed) since the last
    /// (re)arm.
    pub fn adc_fault_detected(&self) -> bool {
        self.adc_fault_seen
    }

    /// One ADC conversion's variation error: ±1 LSB with probability
    /// `spec.noise_prob`.
    fn adc_noise(&mut self) -> i64 {
        if self.spec.noise_prob <= 0.0 {
            return 0;
        }
        if self.fault_rng.gen::<f64>() < self.spec.noise_prob {
            if self.fault_rng.gen::<bool>() {
                1
            } else {
                -1
            }
        } else {
            0
        }
    }

    /// One ADC conversion's *fault* error: the permanent offset plus a
    /// possible transient glitch. Any nonzero error latches the sticky
    /// detection flag (the duplicated checksum-column conversion
    /// disagrees). Zero-cost when no ADC faults are installed.
    fn adc_fault_err(&mut self) -> i64 {
        let mut err = self.adc_offset;
        if self.transient_prob > 0.0 && self.transient_rng.gen::<f64>() < self.transient_prob {
            err += if self.transient_rng.gen::<bool>() {
                1
            } else {
                -1
            };
        }
        if err != 0 {
            self.adc_fault_seen = true;
        }
        err
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
        self.crossbar.read_word(row, lane)
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
        self.regfile.write(reg, value);
        if reg == imp_isa::MASK_REGISTER {
            self.latch_dynamic_mask(&value);
        }
    }

    /// The currently latched dynamic predication mask.
    pub fn dynamic_mask(&self) -> u8 {
        self.dynamic_mask
    }

    fn latch_dynamic_mask(&mut self, value: &[i32; LANES]) {
        let mut mask = 0u8;
        for (lane, &word) in value.iter().enumerate() {
            if word != 0 {
                mask |= 1 << lane;
            }
        }
        self.dynamic_mask = mask;
    }

    fn read_addr(&self, addr: Addr) -> [i32; LANES] {
        match addr {
            Addr::Mem(row) => self.crossbar.read_row(row as usize),
            Addr::Reg(reg) => self.regfile.read(reg as usize),
        }
    }

    /// Writes a value to a local address, returning `(row_writes,
    /// regfile_accesses)` for the activity trace.
    fn write_addr(&mut self, addr: Addr, value: [i32; LANES]) -> (u32, u32) {
        match addr {
            Addr::Mem(row) => {
                self.crossbar.write_row(row as usize, &value);
                (1, 0)
            }
            Addr::Reg(reg) => {
                self.regfile.write(reg as usize, value);
                if usize::from(reg) == imp_isa::MASK_REGISTER {
                    self.latch_dynamic_mask(&value);
                }
                (0, 1)
            }
        }
    }

    /// Executes one array-local instruction, updating state and returning
    /// the activity trace used by the timing/energy models.
    ///
    /// # Errors
    /// * [`RramError::NotArrayLocal`] for `movg`/`reduce_sum`;
    /// * [`RramError::AdcOverrange`] if an n-ary operation exceeds the ADC
    ///   range and the spec is strict.
    pub fn execute_local(&mut self, inst: &Instruction) -> Result<OpTrace, RramError> {
        let cycles = match inst.latency() {
            Latency::Fixed(cycles) => cycles,
            Latency::Variable => {
                return Err(RramError::NotArrayLocal(inst.opcode().mnemonic()));
            }
        };
        let mut trace = OpTrace {
            cycles,
            ..OpTrace::default()
        };
        match *inst {
            Instruction::Add { mask, dst } => {
                let value = self.in_situ_add(mask, RowMask::EMPTY, &mut trace)?;
                self.finish_write(dst, value, &mut trace);
            }
            Instruction::Sub {
                minuend,
                subtrahend,
                dst,
            } => {
                let value = self.in_situ_add(minuend, subtrahend, &mut trace)?;
                self.finish_write(dst, value, &mut trace);
            }
            Instruction::Dot {
                mask,
                reg_mask,
                dst,
            } => {
                let value = self.in_situ_dot(mask, reg_mask, &mut trace)?;
                trace.regfile_accesses += reg_mask.count() as u32;
                self.finish_write(dst, value, &mut trace);
            }
            Instruction::Mul { a, b, dst } => {
                let value = self.in_situ_mul(a, b, &mut trace)?;
                self.finish_write(dst, value, &mut trace);
            }
            Instruction::ShiftL { src, dst, amount } => {
                let value = self.read_for_periphery(src, &mut trace);
                let shifted = value.map(|word| ((word as u32) << amount) as i32);
                self.finish_write(dst, shifted, &mut trace);
            }
            Instruction::ShiftR { src, dst, amount } => {
                let value = self.read_for_periphery(src, &mut trace);
                let shifted = value.map(|word| word >> amount);
                self.finish_write(dst, shifted, &mut trace);
            }
            Instruction::Mask { src, dst, imm } => {
                let value = self.read_for_periphery(src, &mut trace);
                let masked = value.map(|word| ((word as u32) & imm) as i32);
                self.finish_write(dst, masked, &mut trace);
            }
            Instruction::Mov { src, dst } => {
                let value = self.read_for_periphery(src, &mut trace);
                self.finish_write(dst, value, &mut trace);
            }
            Instruction::Movs {
                src,
                dst,
                lane_mask,
            } => {
                let value = self.read_for_periphery(src, &mut trace);
                // An all-zero static mask is the dynamic-predication
                // encoding: use the latched condition mask.
                let bits = if lane_mask.bits() == 0 {
                    self.dynamic_mask
                } else {
                    lane_mask.bits()
                };
                match dst {
                    Addr::Mem(row) => {
                        self.crossbar.write_row_masked(row as usize, &value, bits);
                        trace.row_writes += 1;
                    }
                    Addr::Reg(reg) => {
                        self.regfile.write_masked(reg as usize, value, bits);
                        if usize::from(reg) == imp_isa::MASK_REGISTER {
                            let latched = self.regfile.read(reg as usize);
                            self.latch_dynamic_mask(&latched);
                        }
                        trace.regfile_accesses += 1;
                    }
                }
            }
            Instruction::Movi { dst, imm } => {
                let value = [imm.as_i32(); LANES];
                self.finish_write(dst, value, &mut trace);
            }
            Instruction::Lut { src, dst } => {
                let value = self.read_for_periphery(src, &mut trace);
                let looked: [i32; LANES] = value.map(|word| i32::from(self.lut.lookup(word)));
                trace.lut_reads += LANES as u32;
                self.finish_write(dst, looked, &mut trace);
            }
            Instruction::Movg { .. } | Instruction::ReduceSum { .. } => {
                return Err(RramError::NotArrayLocal(inst.opcode().mnemonic()));
            }
        }
        Ok(trace)
    }

    /// n-ary in-situ addition/subtraction over bit-line current summation.
    ///
    /// Per bit-line, the partial sum is the sum of plus-row digits minus
    /// the sum of minus-row digits (current drained via the subtrahend
    /// word-lines). Each partial is validated against the ADC range, then
    /// the shift-and-add periphery recombines them modulo 2³².
    ///
    /// The fault-free fast path is tried first; the ordered general loop
    /// runs when it is disabled, when a fault or noise model is active, or
    /// when some partial leaves the ADC range.
    fn in_situ_add(
        &mut self,
        plus: RowMask,
        minus: RowMask,
        trace: &mut OpTrace,
    ) -> Result<[i32; LANES], RramError> {
        if self.fast_path_enabled && self.fault_free() {
            if let Some(out) = self.in_situ_add_fast(plus, minus, trace) {
                return Ok(out);
            }
        }
        let plus_rows = self.sense_rows(plus);
        let minus_rows = self.sense_rows(minus);
        self.in_situ_add_ordered(&plus_rows, &minus_rows, trace)
    }

    /// The words of the rows in `mask` as the bit-lines sense them (faults
    /// applied), for the ordered general loops.
    fn sense_rows(&self, mask: RowMask) -> Vec<[i32; LANES]> {
        mask.rows().map(|row| self.crossbar.read_row(row)).collect()
    }

    /// The general path of [`ReramArray::in_situ_add`]: takes every
    /// digit as the faulty bit-lines sense it and converts the 128
    /// bit-line partials in column order, so the first out-of-range
    /// partial is the one a strict ADC reports.
    fn in_situ_add_ordered(
        &mut self,
        plus_rows: &[[i32; LANES]],
        minus_rows: &[[i32; LANES]],
        trace: &mut OpTrace,
    ) -> Result<[i32; LANES], RramError> {
        trace.crossbar_active = true;
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
                sum += self.adc_noise();
                let fault = self.adc_fault_err();
                if fault != 0 {
                    // A faulty converter still emits an in-range code.
                    let limit = self.spec.adc_max();
                    sum = (sum + fault).clamp(-limit, limit);
                }
                max_abs_partial = max_abs_partial.max(sum.abs());
                *partial = self.spec.convert(sum)?;
            }
            *out_word = digits::combine_partial_sums(&partials);
        }
        trace.adc_conversions += (LANES * DIGITS_PER_WORD) as u32;
        trace.adc_bits_used = AnalogSpec::required_adc_bits(max_abs_partial.max(1));
        Ok(out)
    }

    /// Fault-free fast path of [`ReramArray::in_situ_add`]. By §2.3 the
    /// shift-and-add recombination of the column sums is the wrapping sum
    /// of the plus words minus the minus words, so that is the value. The
    /// exact column sums are still needed for the over-range test and
    /// `adc_bits_used`; they accumulate from the stored words as packed
    /// [`ColumnSums`](digits::ColumnSums), one per sign. When every
    /// partial fits the ADC, no conversion clips or fails. Returns `None`,
    /// touching nothing, when some partial is out of range or a sign has
    /// more rows than a packed sum holds; the caller then re-runs the
    /// ordered loop, which reports the same first error or clips the same
    /// way as always.
    fn in_situ_add_fast(
        &self,
        plus: RowMask,
        minus: RowMask,
        trace: &mut OpTrace,
    ) -> Option<[i32; LANES]> {
        let max_rows = digits::ColumnSums::MAX_WEIGHT as usize;
        if plus.count() > max_rows || minus.count() > max_rows {
            return None;
        }
        let mut out = [0i32; LANES];
        let mut plus_sums = digits::ColumnSums::new();
        for row in plus.rows() {
            let words = self.crossbar.programmed_words(row);
            for (acc, &word) in out.iter_mut().zip(words) {
                *acc = acc.wrapping_add(word);
            }
            plus_sums.add(words, 1);
        }
        let mut minus_sums = digits::ColumnSums::new();
        for row in minus.rows() {
            let words = self.crossbar.programmed_words(row);
            for (acc, &word) in out.iter_mut().zip(words) {
                *acc = acc.wrapping_sub(word);
            }
            minus_sums.add(words, 1);
        }
        let (plus_cols, minus_cols) = (plus_sums.columns(), minus_sums.columns());
        let max_abs = plus_cols
            .as_flattened()
            .iter()
            .zip(minus_cols.as_flattened())
            .fold(0, |m, (&p, &n)| m.max(p.abs_diff(n)));
        let max_abs = i64::from(max_abs);
        if max_abs > self.spec.adc_max() {
            return None;
        }
        trace.crossbar_active = true;
        trace.adc_conversions += (LANES * DIGITS_PER_WORD) as u32;
        trace.adc_bits_used = AnalogSpec::required_adc_bits(max_abs.max(1));
        Some(out)
    }

    /// In-situ dot product: selected rows multiplied by register
    /// multiplicands streamed 2 bits per cycle through the word-line DACs,
    /// products summed over the bit-lines.
    ///
    /// One word-line DAC serves one row, so the streamed multiplicand is a
    /// *single scalar per row shared by every lane* — lane 0 of the
    /// register is the architectural scalar. (This is why the paper adds
    /// the separate bit-line-DAC `mul` path: "dot product uses the same
    /// multiplicand for all elements stored in a row, it can not be
    /// utilized for element-by-element multiplication", §2.2.)
    ///
    /// The per-bit-line, per-chunk partial sum is `Σᵢ digit(rowᵢ)·chunk(mᵢ)`
    /// which must fit the ADC range; the shift-and-add unit accumulates the
    /// wide product with two's-complement sign correction and selects the
    /// window aligned to the fixed-point format.
    ///
    /// The fault-free fast path is tried first; the ordered general loop
    /// runs when it is disabled, when a fault or noise model is active, or
    /// when some partial leaves the ADC range.
    fn in_situ_dot(
        &mut self,
        rows: RowMask,
        regs: RowMask,
        trace: &mut OpTrace,
    ) -> Result<[i32; LANES], RramError> {
        if self.fast_path_enabled && self.fault_free() {
            if let Some(out) = self.in_situ_dot_fast(rows, regs, trace) {
                return Ok(out);
            }
        }
        let rows = self.sense_rows(rows);
        let scalars: Vec<i32> = regs
            .rows()
            .map(|reg| self.regfile.read_lane(reg, 0))
            .collect();
        self.in_situ_dot_ordered(&rows, &scalars, trace)
    }

    /// The general path of [`ReramArray::in_situ_dot`]: every (bit-line,
    /// chunk) conversion in order, with noise and fault hooks, so the
    /// first out-of-range partial is the one a strict ADC reports. `rows`
    /// are the sensed row words and `scalars` the streamed multiplicands,
    /// paired in order.
    fn in_situ_dot_ordered(
        &mut self,
        rows: &[[i32; LANES]],
        scalars: &[i32],
        trace: &mut OpTrace,
    ) -> Result<[i32; LANES], RramError> {
        trace.crossbar_active = true;
        let mut max_partial: i64 = 0;
        let mut out = [0i32; LANES];
        for (lane, out_word) in out.iter_mut().enumerate() {
            // ADC-range accounting (and noise collection) at digit
            // granularity: each (bit-line, chunk) conversion carries the
            // weight 4^(digit+chunk) into the accumulated product.
            let mut noise_acc: i64 = 0;
            for digit_pos in 0..DIGITS_PER_WORD {
                for chunk in 0..DIGITS_PER_WORD {
                    let mut base: i64 = 0;
                    for (words, &m) in rows.iter().zip(scalars) {
                        let cell = i64::from(digits::digit(words[lane], digit_pos));
                        let m_chunk = i64::from(digits::digit(m, chunk));
                        base += cell * m_chunk;
                    }
                    let mut err = self.adc_noise();
                    let fault = self.adc_fault_err();
                    if fault != 0 {
                        // A faulty converter still emits an in-range code;
                        // the effective error is whatever survives clamping.
                        let limit = self.spec.adc_max();
                        err = (base + err + fault).clamp(-limit, limit) - base;
                    }
                    let partial = base + err;
                    let weight_shift = 2 * (digit_pos + chunk);
                    if err != 0 && weight_shift < 62 {
                        noise_acc = noise_acc.wrapping_add(err << weight_shift);
                    }
                    max_partial = max_partial.max(partial);
                    self.spec.convert(partial)?;
                }
            }
            // Value semantics: sign-corrected wide MAC, then the aligned
            // 32-bit window (see DESIGN.md on Baugh–Wooley correction in
            // the S+A unit).
            let mut acc: i64 = noise_acc;
            for (words, &m) in rows.iter().zip(scalars) {
                acc = acc.wrapping_add(i64::from(words[lane]).wrapping_mul(i64::from(m)));
            }
            *out_word = (acc >> self.spec.frac_bits) as i32;
        }
        trace.adc_conversions += (LANES * DIGITS_PER_WORD * DIGITS_PER_WORD) as u32;
        trace.adc_bits_used = AnalogSpec::required_adc_bits(max_partial.max(1));
        Ok(out)
    }

    /// Fault-free fast path of [`ReramArray::in_situ_dot`]. Chunk `c`
    /// drives every selected row's word-line with the same DAC vector
    /// `(chunk_c(m₀), chunk_c(m₁), …)`, so the largest partial is the
    /// maximum, over the distinct non-zero vectors, of the column-wise
    /// weighted sum over all 128 bit-lines, accumulated from the stored
    /// words as packed [`ColumnSums`](digits::ColumnSums) that skip the
    /// rows a vector does not drive. Sign-extended high chunks repeat, so
    /// few vectors are distinct, and since cells are non-negative a vector
    /// that another bounds field by field cannot hold the maximum and is
    /// skipped. When the maximum fits the ADC, no conversion can fail and
    /// the value is the wide MAC. Returns `None`, touching nothing, when
    /// some partial is out of range or a vector's total weight exceeds
    /// what a packed sum holds; the caller then re-runs the ordered loop,
    /// which reports the same first error.
    fn in_situ_dot_fast(
        &self,
        rows: RowMask,
        regs: RowMask,
        trace: &mut OpTrace,
    ) -> Option<[i32; LANES]> {
        let n_pairs = rows.count().min(regs.count());
        // A pair adds at most 3 to a column's weight, so a packed sum holds
        // `MAX_WEIGHT / 3` pairs — and their DAC vectors fit a `u64`.
        if 3 * n_pairs > digits::ColumnSums::MAX_WEIGHT as usize {
            return None;
        }
        let pairs = || rows.rows().zip(regs.rows());
        let scalar = |reg: usize| self.regfile.read_lane(reg, 0);
        // Chunk c's DAC vector packs chunk c of every pair's scalar, 2 bits
        // per pair.
        let mut vectors = [0u64; DIGITS_PER_WORD];
        for (pair, (_, reg)) in pairs().enumerate() {
            let m = scalar(reg) as u32;
            for (chunk, vector) in vectors.iter_mut().enumerate() {
                *vector |= u64::from((m >> (2 * chunk)) & 0b11) << (2 * pair);
            }
        }
        let dac = |vector: u64, pair: usize| (vector >> (2 * pair)) & 0b11;
        let mut distinct = [0u64; DIGITS_PER_WORD];
        let mut n_distinct = 0;
        for &vector in &vectors {
            if vector != 0 && !distinct[..n_distinct].contains(&vector) {
                distinct[n_distinct] = vector;
                n_distinct += 1;
            }
        }
        let distinct = &distinct[..n_distinct];
        let limit = self.spec.adc_max();
        let mut max_partial: i64 = 0;
        for (i, &vector) in distinct.iter().enumerate() {
            let dominated = distinct.iter().enumerate().any(|(j, &other)| {
                j != i && (0..n_pairs).all(|pair| dac(vector, pair) <= dac(other, pair))
            });
            if dominated {
                continue;
            }
            let mut sums = digits::ColumnSums::new();
            for (pair, (row, _)) in pairs().enumerate() {
                let weight = dac(vector, pair) as u32;
                if weight != 0 {
                    sums.add(self.crossbar.programmed_words(row), weight);
                }
            }
            let vector_max = sums
                .columns()
                .as_flattened()
                .iter()
                .fold(0, |m, &s| m.max(s));
            max_partial = max_partial.max(i64::from(vector_max));
            if max_partial > limit {
                return None;
            }
        }
        let mut acc = [0i64; LANES];
        for (row, reg) in pairs() {
            let m = i64::from(scalar(reg));
            for (acc, &word) in acc.iter_mut().zip(self.crossbar.programmed_words(row)) {
                *acc = acc.wrapping_add(i64::from(word).wrapping_mul(m));
            }
        }
        trace.crossbar_active = true;
        trace.adc_conversions += (LANES * DIGITS_PER_WORD * DIGITS_PER_WORD) as u32;
        trace.adc_bits_used = AnalogSpec::required_adc_bits(max_partial.max(1));
        Some(acc.map(|acc| (acc >> self.spec.frac_bits) as i32))
    }

    /// In-situ element-wise multiply: operand `a` resident in the array,
    /// operand `b` streamed 2 bits per cycle through the *bit-line* DACs
    /// (the new capability this architecture adds over ISAAC, §2.2).
    ///
    /// The fault-free fast path is tried first; the ordered general loop
    /// runs when it is disabled, when a fault or noise model is active, or
    /// when some partial leaves the ADC range.
    fn in_situ_mul(
        &mut self,
        a: Addr,
        b: Addr,
        trace: &mut OpTrace,
    ) -> Result<[i32; LANES], RramError> {
        if self.fast_path_enabled && self.fault_free() {
            if let Some(out) = self.in_situ_mul_fast(a, b, trace) {
                return Ok(out);
            }
        }
        self.in_situ_mul_ordered(a, b, trace)
    }

    /// The general path of [`ReramArray::in_situ_mul`]: every
    /// (digit, chunk) conversion in order, with noise and fault hooks, so
    /// the first out-of-range partial is the one a strict ADC reports.
    fn in_situ_mul_ordered(
        &mut self,
        a: Addr,
        b: Addr,
        trace: &mut OpTrace,
    ) -> Result<[i32; LANES], RramError> {
        trace.crossbar_active = true;
        let a_value = self.read_addr(a);
        let b_value = self.read_addr(b);
        if a.is_reg() {
            trace.regfile_accesses += 1;
        }
        if b.is_reg() {
            trace.regfile_accesses += 1;
        }
        let mut max_partial: i64 = 0;
        let mut out = [0i32; LANES];
        for (lane, out_word) in out.iter_mut().enumerate() {
            let a_digits = digits::word_to_digits(a_value[lane]);
            let b_digits = digits::word_to_digits(b_value[lane]);
            // Per-cell current is digit(a)·chunk(b): at most 3·3 = 9,
            // within the 5-bit ADC range by construction.
            let mut noise_acc: i64 = 0;
            for (i, &da) in a_digits.iter().enumerate() {
                for (j, &db) in b_digits.iter().enumerate() {
                    let base = i64::from(da) * i64::from(db);
                    let mut err = self.adc_noise();
                    let fault = self.adc_fault_err();
                    if fault != 0 {
                        // Faulty converters emit in-range codes; keep the
                        // effective error consistent with the clamp.
                        let limit = self.spec.adc_max();
                        err = (base + err + fault).clamp(-limit, limit) - base;
                    }
                    let partial = base + err;
                    let weight_shift = 2 * (i + j);
                    if err != 0 && weight_shift < 62 {
                        noise_acc = noise_acc.wrapping_add(err << weight_shift);
                    }
                    max_partial = max_partial.max(partial);
                    self.spec.convert(partial)?;
                }
            }
            let wide = i64::from(a_value[lane])
                .wrapping_mul(i64::from(b_value[lane]))
                .wrapping_add(noise_acc);
            *out_word = (wide >> self.spec.frac_bits) as i32;
        }
        trace.adc_conversions += (LANES * DIGITS_PER_WORD * DIGITS_PER_WORD) as u32;
        trace.adc_bits_used = AnalogSpec::required_adc_bits(max_partial.max(1));
        Ok(out)
    }

    /// Fault-free fast path of [`ReramArray::in_situ_mul`]: a lane's
    /// partials are the products `digit(a)·chunk(b)`, so its largest is
    /// `max_digit(a)·max_digit(b)`. When that fits the ADC for every
    /// lane, no conversion can fail and the value is the wide product.
    /// Returns `None`, touching nothing, when some partial is out of
    /// range; the caller then re-runs the ordered loop, which reports the
    /// same first error.
    fn in_situ_mul_fast(&self, a: Addr, b: Addr, trace: &mut OpTrace) -> Option<[i32; LANES]> {
        let a_value = self.read_addr(a);
        let b_value = self.read_addr(b);
        let max_partial = a_value
            .iter()
            .zip(&b_value)
            .map(|(&x, &y)| i64::from(digits::max_digit(x) * digits::max_digit(y)))
            .max()
            .unwrap_or(0);
        if max_partial > self.spec.adc_max() {
            return None;
        }
        trace.crossbar_active = true;
        trace.regfile_accesses += u32::from(a.is_reg()) + u32::from(b.is_reg());
        trace.adc_conversions += (LANES * DIGITS_PER_WORD * DIGITS_PER_WORD) as u32;
        trace.adc_bits_used = AnalogSpec::required_adc_bits(max_partial.max(1));
        Some(std::array::from_fn(|lane| {
            let wide = i64::from(a_value[lane]).wrapping_mul(i64::from(b_value[lane]));
            (wide >> self.spec.frac_bits) as i32
        }))
    }

    /// Reads a source for a digital-periphery op, accounting for the
    /// read-out conversion if the source is a memory row.
    fn read_for_periphery(&self, src: Addr, trace: &mut OpTrace) -> [i32; LANES] {
        let value = self.read_addr(src);
        match src {
            Addr::Mem(_) => {
                trace.crossbar_active = true;
                trace.adc_conversions += (LANES * DIGITS_PER_WORD) as u32;
                trace.adc_bits_used = trace.adc_bits_used.max(self.spec.cell_bits);
            }
            Addr::Reg(_) => trace.regfile_accesses += 1,
        }
        value
    }

    fn finish_write(&mut self, dst: Addr, value: [i32; LANES], trace: &mut OpTrace) {
        let (row_writes, regfile_accesses) = self.write_addr(dst, value);
        trace.row_writes += row_writes;
        trace.regfile_accesses += regfile_accesses;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LutKind;
    use imp_isa::{Imm, LaneMask, RowMask};
    use proptest::prelude::*;

    fn array() -> ReramArray {
        ReramArray::new(AnalogSpec::integer())
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
        a.install_faults(&map);
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
        let map = FaultMap::generate(
            5,
            &FaultRates {
                transient_adc: 0.3,
                ..FaultRates::none()
            },
        );
        let run = |attempt: u64| {
            let mut a = array();
            a.install_faults(&map);
            a.rearm_transients_stream(attempt);
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
        a.install_faults(&FaultMap::generate(
            2,
            &FaultRates {
                stuck_at_max: 0.05,
                ..FaultRates::none()
            },
        ));
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
    fn reset_from_template_matches_fresh_clone() {
        let mut template = array();
        template.set_lut(Lut::from_fn(LutKind::Custom, |i| (i % 251) as u8));
        template.write_reg(1, [7; LANES]);
        template.set_fault_seed(99);

        let mut pooled = template.clone();
        // Dirty the pooled array thoroughly.
        pooled.write_row(0, &[1, 2, 3, 4, 5, 6, 7, 8]);
        pooled.write_row(90, &[-1; LANES]);
        pooled.write_reg(2, [3; LANES]);
        pooled.write_reg(imp_isa::MASK_REGISTER, [1; LANES]);
        {
            use crate::fault::{FaultMap, FaultRates};
            pooled.install_faults(&FaultMap::generate(
                4,
                &FaultRates {
                    stuck_at_max: 0.05,
                    adc_offset: 1.0,
                    transient_adc: 0.2,
                    ..FaultRates::none()
                },
            ));
        }
        pooled.reset_from_template(&template);

        // Behaviourally identical to a fresh clone: same reads, same regs,
        // same noise stream, no faults, no wear.
        let fresh = template.clone();
        for row in [0usize, 1, 90, 127] {
            assert_eq!(pooled.read_row(row), fresh.read_row(row));
            assert_eq!(pooled.crossbar().row_writes(row), 0);
        }
        for reg in 0..4 {
            assert_eq!(pooled.read_reg(reg), fresh.read_reg(reg));
        }
        assert_eq!(pooled.dynamic_mask(), fresh.dynamic_mask());
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
        let mut fast = ReramArray::new(spec);
        let mut slow = ReramArray::new(spec);
        slow.set_fast_path_enabled(false);
        setup(&mut fast);
        setup(&mut slow);
        let rf = fast.execute_local(inst);
        let rs = slow.execute_local(inst);
        match (rf, rs) {
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
