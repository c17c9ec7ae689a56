//! The clean semantics of every op, once, and lane-batched execution.
//!
//! Each in-situ op class (`add`/`sub`, `dot`, `mul`) has one clean body
//! here: a function of one group's [`Operands`] returning the op's words
//! and the OR of its partials, which [`resolve`] turns into "fits the ADC"
//! and the ADC bits. [`ReramArray`](crate::ReramArray) runs a body on its
//! sensed rows when every conversion is exact and falls back to its
//! ordered loops otherwise; [`ArrayBatch`] runs it on each of its groups.
//!
//! One instruction block drives every module instance in lock-step, and
//! only the data differs (§2, §4). An [`ArrayBatch`] holds the fault-free
//! state of up to [`BATCH`] groups of one block, each row and register as
//! `BATCH × 8` contiguous words (group `g`'s lanes at `8·g`), and runs each
//! op over all of them. [`ArrayBatch::execute_op`] declines an op some
//! group's array would run on its ordered loop; the caller then re-runs
//! the groups one array at a time, the one home of faults, noise, clipping
//! and errors.

use crate::analog::{AnalogSpec, DacVectors};
use crate::array::MicroOp;
use crate::digits::{self, ColumnSums};
use crate::lut::Lut;
use imp_isa::{Addr, LaneMask, RowMask, ARRAY_ROWS, LANES, MASK_REGISTER, NUM_REGISTERS};

/// Instance groups one [`ArrayBatch`] holds: 128 words in a row. A
/// serial corpus pass ran within noise at 8, 16 and 32 groups per batch;
/// the narrower width wastes less on a partial batch.
pub const BATCH: usize = 16;

/// One crossbar row or register of the batch: group `g`'s lanes are
/// `words[g]`.
type Words = [[i32; LANES]; BATCH];

const ZERO: Words = [[0; LANES]; BATCH];

/// The fault-free arrays of up to [`BATCH`] instance groups running one
/// instruction block, stored structure-of-arrays: each crossbar row and
/// each register is `BATCH × 8` contiguous words, group `g`'s lanes at
/// `8·g`, and one op body runs over all of them. Each group keeps its own
/// dynamic mask and write counts.
///
/// Only the groups of the last [`ArrayBatch::reset`] are live: ops read and
/// write their words alone. Only the clean fast paths run here;
/// [`ArrayBatch::execute_op`] declines an op some group's
/// [`ReramArray`](crate::ReramArray) would run on its ordered loop.
#[derive(Debug, Clone)]
pub struct ArrayBatch {
    spec: AnalogSpec,
    lut: Lut,
    /// Live groups, `1..=BATCH`.
    groups: usize,
    store: Store,
    /// Each group's latched dynamic predication mask.
    dynamic_masks: [u8; BATCH],
    /// The words an op computes, before [`ArrayBatch::commit`] writes
    /// them back (kept so that no op clears a fresh buffer).
    out: Words,
}

impl ArrayBatch {
    /// A batch of one blank group whose arrays have the analog
    /// configuration `spec` and hold `lut`.
    pub fn new(spec: AnalogSpec, lut: Lut) -> Self {
        ArrayBatch {
            spec,
            lut,
            groups: 1,
            store: Store {
                rows: Slots::new(),
                regs: Slots::new(),
            },
            dynamic_masks: [0; BATCH],
            out: ZERO,
        }
    }

    /// Resets the batch to `groups` blank groups, reusing every
    /// allocation: written rows and registers are dropped, dynamic masks
    /// cleared. Each group then equals a blank
    /// [`ReramArray`](crate::ReramArray) of the same spec and LUT.
    ///
    /// # Panics
    /// Panics unless `1 <= groups <= BATCH`.
    pub fn reset(&mut self, groups: usize) {
        assert!(
            (1..=BATCH).contains(&groups),
            "a batch holds 1..={BATCH} groups, not {groups}"
        );
        self.store.rows.clear();
        self.store.regs.clear();
        self.dynamic_masks = [0; BATCH];
        self.groups = groups;
    }

    /// Writes row `row` of every live group, group `g` receiving
    /// `words[g]` (host-side data load; counts one write per group).
    ///
    /// # Panics
    /// Panics unless `words` holds one row per live group.
    pub fn write_row(&mut self, row: usize, words: &[[i32; LANES]]) {
        let g = self.groups;
        let row = self.store.row_mut(row);
        row.words[..g].copy_from_slice(words);
        for count in &mut row.writes[..g] {
            *count += 1;
        }
    }

    /// Writes row `row` of group `group` alone (counts one write).
    pub fn write_group_row(&mut self, group: usize, row: usize, words: &[i32; LANES]) {
        assert!(group < self.groups, "group {group} is not live");
        let row = self.store.row_mut(row);
        row.words[group] = *words;
        row.writes[group] += 1;
    }

    /// Row `row` of group `group`.
    pub fn read_row(&self, group: usize, row: usize) -> [i32; LANES] {
        self.store.row(row)[group]
    }

    /// Register `reg` of group `group`.
    #[cfg(test)]
    pub(crate) fn read_reg(&self, group: usize, reg: usize) -> [i32; LANES] {
        self.store.reg(reg)[group]
    }

    /// The dynamic predication mask group `group` latched.
    #[cfg(test)]
    pub(crate) fn dynamic_mask(&self, group: usize) -> u8 {
        self.dynamic_masks[group]
    }

    /// Writes to row `row` of group `group` since the reset.
    #[cfg(test)]
    pub(crate) fn row_writes(&self, group: usize, row: usize) -> u64 {
        self.store.rows.get(row).map_or(0, |row| row.writes[group])
    }

    /// Writes to every row of group `group` since the reset.
    pub fn total_writes(&self, group: usize) -> u64 {
        self.store
            .rows
            .items
            .iter()
            .map(|row| row.writes[group])
            .sum()
    }

    /// Executes `op` on every live group, as
    /// [`ReramArray::execute_op`](crate::ReramArray::execute_op) would on
    /// each group's array, and stores each group's ADC resolution in
    /// `adc_bits[g]`.
    ///
    /// Returns `false`, touching no word, when some group's array would
    /// leave the exact-conversion fast path for its ordered loop: analog
    /// noise, a partial out of ADC range, or a `dot` with too many pairs
    /// to analyse. The batch is then stale and the caller re-runs its
    /// groups one array at a time.
    ///
    /// # Panics
    /// Panics if `adc_bits` holds fewer entries than there are live groups.
    pub fn execute_op(&mut self, op: &MicroOp, adc_bits: &mut [u8]) -> bool {
        let g = self.groups;
        let bits = &mut adc_bits[..g];
        let frac = self.spec.frac_bits;
        match *op {
            MicroOp::AddSub { plus, minus, dst } => {
                self.in_situ(dst, bits, |ops| add_sub(ops, plus, minus))
            }
            MicroOp::Dot {
                rows,
                regs,
                dac,
                dst,
            } => self.in_situ(dst, bits, |ops| dot(ops, rows, regs, dac, frac)),
            MicroOp::Mul { a, b, dst } => self.mul(a, b, dst, bits),
            MicroOp::Periphery {
                src,
                dst,
                shl,
                shr,
                and,
            } => {
                for (out, words) in self.out.iter_mut().zip(&self.store.slot(src)[..g]) {
                    *out = words.map(|word| shift_and(word, shl, shr, and));
                }
                bits.fill(read_bits(src));
                self.commit(dst)
            }
            MicroOp::Movs { src, dst, lanes } => {
                let (old, new) = (self.store.slot(dst), self.store.slot(src));
                let groups = self.out[..g].iter_mut().zip(old).zip(new);
                for (((out, old), new), &dynamic) in groups.zip(&self.dynamic_masks) {
                    *out = crate::select_lanes(old, new, movs_lanes(lanes, dynamic));
                }
                bits.fill(read_bits(src));
                self.commit(dst)
            }
            MicroOp::Lut { src, dst } => {
                for (out, words) in self.out.iter_mut().zip(&self.store.slot(src)[..g]) {
                    *out = words.map(|word| i32::from(self.lut.lookup(word)));
                }
                bits.fill(read_bits(src));
                self.commit(dst)
            }
            MicroOp::Movi { dst, word } => {
                self.out[..g].fill([word; LANES]);
                bits.fill(0);
                self.commit(dst)
            }
        }
    }

    /// Whether every conversion is exact, as
    /// [`ReramArray`](crate::ReramArray)'s fast paths require: no analog
    /// noise (a batch holds no fault map).
    fn exact_conversions(&self) -> bool {
        self.spec.noise_prob <= 0.0
    }

    /// An in-situ op: `body` run on each live group's operands and its OR
    /// resolved to the group's ADC bits, then the words committed to
    /// `dst`; `false`, touching no word, when some group's body declines
    /// or leaves the ADC range.
    fn in_situ(
        &mut self,
        dst: Addr,
        bits: &mut [u8],
        body: impl Fn(&Group) -> Option<Exact>,
    ) -> bool {
        if !self.exact_conversions() {
            return false;
        }
        for (group, (out, bits)) in self.out.iter_mut().zip(bits).enumerate() {
            let store = &self.store;
            let Some((words, or)) = body(&Group { store, group }) else {
                return false;
            };
            let Some(needed) = resolve(&self.spec, or) else {
                return false;
            };
            (*out, *bits) = (words, needed);
        }
        self.commit(dst)
    }

    /// `mul`, its two halves ([`mul_or`], [`mul_words`]) in separate loops
    /// over the groups: one loop of [`mul`] per group ran ≈30% slower.
    fn mul(&mut self, a: Addr, b: Addr, dst: Addr, bits: &mut [u8]) -> bool {
        if !self.exact_conversions() {
            return false;
        }
        let (a, b) = (self.store.slot(a), self.store.slot(b));
        for ((bits, a), b) in bits.iter_mut().zip(a).zip(b) {
            let Some(needed) = resolve(&self.spec, mul_or(a, b)) else {
                return false;
            };
            *bits = needed;
        }
        for ((out, a), b) in self.out[..bits.len()].iter_mut().zip(a).zip(b) {
            mul_words(a, b, self.spec.frac_bits, out);
        }
        self.commit(dst)
    }

    /// Writes the live groups' words of [`ArrayBatch::out`] to `dst`: a
    /// row write of every group, or a register, the mask register
    /// latching each group's mask. Returns `true`: the op ran.
    fn commit(&mut self, dst: Addr) -> bool {
        let g = self.groups;
        let out = &self.out[..g];
        match dst {
            Addr::Mem(row) => {
                let row = self.store.row_mut(usize::from(row));
                row.words[..g].copy_from_slice(out);
                for count in &mut row.writes[..g] {
                    *count += 1;
                }
            }
            Addr::Reg(reg) => {
                self.store.regs.get_mut(usize::from(reg), ZERO)[..g].copy_from_slice(out);
                if usize::from(reg) == MASK_REGISTER {
                    for (mask, words) in self.dynamic_masks.iter_mut().zip(out) {
                        *mask = latched_mask(words);
                    }
                }
            }
        }
        true
    }
}

/// A batch's written crossbar rows and registers.
#[derive(Debug, Clone)]
struct Store {
    rows: Slots<Row>,
    regs: Slots<Words>,
}

impl Store {
    fn slot(&self, addr: Addr) -> &Words {
        match addr {
            Addr::Mem(row) => self.row(usize::from(row)),
            Addr::Reg(reg) => self.reg(usize::from(reg)),
        }
    }

    /// Row `row`'s words; a row never written reads zero.
    fn row(&self, row: usize) -> &Words {
        self.rows.get(row).map_or(&ZERO, |row| &row.words)
    }

    fn row_mut(&mut self, row: usize) -> &mut Row {
        self.rows.get_mut(row, BLANK_ROW)
    }

    /// Register `reg`'s words; a register never written reads zero.
    fn reg(&self, reg: usize) -> &Words {
        self.regs.get(reg).unwrap_or(&ZERO)
    }
}

/// One written crossbar row of a batch.
#[derive(Debug, Clone, Copy)]
struct Row {
    words: Words,
    /// `writes[g]`: writes to the row of group `g` since the reset.
    writes: [u64; BATCH],
}

const BLANK_ROW: Row = Row {
    words: ZERO,
    writes: [0; BATCH],
};

/// Marks a row or register never written since the reset.
const UNWRITTEN: u8 = u8::MAX;

const _: () = assert!(NUM_REGISTERS == ARRAY_ROWS && ARRAY_ROWS < UNWRITTEN as usize);

/// The crossbar rows or registers of a batch, stored densely in the
/// order they are first written: a kernel touches a few of its 128 rows
/// and registers, so a batch allocates and resets only those.
#[derive(Debug, Clone)]
struct Slots<T> {
    /// `index[i]`: where row or register `i` is in `items`, or
    /// [`UNWRITTEN`].
    index: [u8; ARRAY_ROWS],
    items: Vec<T>,
}

impl<T> Slots<T> {
    fn new() -> Self {
        Slots {
            index: [UNWRITTEN; ARRAY_ROWS],
            items: Vec::new(),
        }
    }

    /// Slot `i`, if written since the reset.
    #[inline]
    fn get(&self, i: usize) -> Option<&T> {
        self.items.get(usize::from(self.index[i]))
    }

    /// Slot `i`, starting from `blank` if not written since the reset.
    #[inline]
    fn get_mut(&mut self, i: usize, blank: T) -> &mut T {
        if self.index[i] == UNWRITTEN {
            self.index[i] = self.items.len() as u8;
            self.items.push(blank);
        }
        &mut self.items[usize::from(self.index[i])]
    }

    fn clear(&mut self) {
        self.index = [UNWRITTEN; ARRAY_ROWS];
        self.items.clear();
    }
}

/// The ADC bits a digital-periphery read of `src` needs: one cell level
/// per conversion from a memory row, none from a register.
pub(crate) fn read_bits(src: Addr) -> u8 {
    match src {
        Addr::Mem(_) => digits::CELL_BITS,
        Addr::Reg(_) => 0,
    }
}

/// Where a clean body reads one group's operands: its crossbar rows as
/// the bit-lines sense them, and its registers.
pub(crate) trait Operands {
    /// Calls `f` with each row of `mask`, in ascending order.
    fn for_each_row(&self, mask: RowMask, f: impl FnMut(&[i32; LANES]));

    /// Register `reg`.
    fn reg(&self, reg: usize) -> [i32; LANES];
}

/// Group `group` of a batch's store.
struct Group<'a> {
    store: &'a Store,
    group: usize,
}

impl Operands for Group<'_> {
    #[inline]
    fn for_each_row(&self, mask: RowMask, mut f: impl FnMut(&[i32; LANES])) {
        for row in mask.rows() {
            // A copy: `f` on a reference into the store made a batch
            // `add` ≈3× slower.
            let words = self.store.row(row)[self.group];
            f(&words);
        }
    }

    #[inline]
    fn reg(&self, reg: usize) -> [i32; LANES] {
        self.store.reg(reg)[self.group]
    }
}

/// A clean body's result: the op's words and the OR of its bit-line
/// partials, which [`resolve`] tests against the ADC.
pub(crate) type Exact = ([i32; LANES], u32);

/// The ADC bits a clean body's partials need, the bit length of their OR
/// `or` (at least 1), or `None` when some partial exceeds the ADC's range.
/// As the ADC's limit is `2^adc_bits − 1`, the OR exceeds it exactly when
/// the largest partial does, and has the same bit length, which is
/// [`AnalogSpec::required_adc_bits`] of the largest partial.
#[inline]
pub(crate) fn resolve(spec: &AnalogSpec, or: u32) -> Option<u8> {
    (i64::from(or) <= spec.adc_max()).then(|| (u32::BITS - or.leading_zeros()).max(1) as u8)
}

/// The clean body of `add` (`minus` empty) or `sub`. By §2.3 the
/// shift-and-add recombination of the column sums is the wrapping sum of
/// the `plus` words minus the `minus` words, so that is the value. The
/// exact column sums, which the range test and the ADC bits need,
/// accumulate as packed [`ColumnSums`], one per sign. `None` when a sign
/// has more rows than a packed sum holds.
#[inline]
pub(crate) fn add_sub(ops: &impl Operands, plus: RowMask, minus: RowMask) -> Option<Exact> {
    let max_rows = ColumnSums::MAX_WEIGHT as usize;
    if plus.count() > max_rows || minus.count() > max_rows {
        return None;
    }
    let mut words = [0i32; LANES];
    let mut plus_sums = ColumnSums::new();
    ops.for_each_row(plus, |read| {
        for (acc, &word) in words.iter_mut().zip(read) {
            *acc = acc.wrapping_add(word);
        }
        plus_sums.add(read, 1);
    });
    if minus.is_empty() {
        return Some((words, plus_sums.or_columns()));
    }
    let mut minus_sums = ColumnSums::new();
    ops.for_each_row(minus, |read| {
        for (acc, &word) in words.iter_mut().zip(read) {
            *acc = acc.wrapping_sub(word);
        }
        minus_sums.add(read, 1);
    });
    Some((words, plus_sums.or_abs_diff(&minus_sums)))
}

/// The clean body of `dot`: the `rows`, paired in order with the lane-0
/// multiplicands of `regs`. Each pair's row is read once and its digits
/// extracted once, then streamed at the level of every DAC vector `dac`
/// keeps (analysed here from the multiplicands when `None`) without a
/// multiply; the partials' OR is over those vectors' column sums, and the
/// value is the wide MAC's window at `frac_bits`. `None` when there are
/// more than [`DacVectors::MAX_PAIRS`] pairs.
#[inline]
pub(crate) fn dot(
    ops: &impl Operands,
    rows: RowMask,
    regs: RowMask,
    dac: Option<DacVectors>,
    frac_bits: u8,
) -> Option<Exact> {
    // The pairs' digits live on the stack. Zeroing room for the most
    // pairs made a three-pair `dot` ≈40% slower, so a few pairs take a
    // small buffer.
    const FEW: usize = 4;
    let pairs = rows.count().min(regs.count());
    if pairs <= FEW {
        streamed::<FEW>(ops, rows, regs, dac, frac_bits)
    } else if pairs <= DacVectors::MAX_PAIRS {
        streamed::<{ DacVectors::MAX_PAIRS }>(ops, rows, regs, dac, frac_bits)
    } else {
        None
    }
}

/// [`dot`] of at most `N` pairs.
#[inline]
fn streamed<const N: usize>(
    ops: &impl Operands,
    rows: RowMask,
    regs: RowMask,
    dac: Option<DacVectors>,
    frac_bits: u8,
) -> Option<Exact> {
    // Each pair's digits, words and multiplicand. The MAC runs after the
    // range OR: accumulated while reading, it ran a batch `dot` ≈7% slower.
    let mut digits = [ColumnSums::new(); N];
    let mut pairs = [([0i32; LANES], 0i32); N];
    let (mut n, mut regs) = (0, regs.rows());
    ops.for_each_row(rows, |words| {
        let Some(reg) = regs.next() else {
            return;
        };
        (digits[n], pairs[n]) = (ColumnSums::of_row(words), (*words, ops.reg(reg)[0]));
        n += 1;
    });
    let (digits, pairs) = (&digits[..n], &pairs[..n]);
    let dac = dac.or_else(|| DacVectors::analyse(pairs.iter().map(|&(_, m)| m)))?;
    let or = dac.chunks().fold(0, |or, chunk| {
        let mut sums = ColumnSums::new();
        for (digits, &(_, m)) in digits.iter().zip(pairs) {
            sums.add_level(digits, DacVectors::level(m, chunk));
        }
        or | sums.or_columns()
    });
    let mut acc = [0i64; LANES];
    for (words, m) in pairs {
        for (acc, &word) in acc.iter_mut().zip(words) {
            *acc = acc.wrapping_add(i64::from(word).wrapping_mul(i64::from(*m)));
        }
    }
    Some((acc.map(|acc| (acc >> frac_bits) as i32), or))
}

/// The clean body of `mul`: the lane-wise wide products of `a` and `b` at
/// `frac_bits` ([`mul_words`]), whose largest partial per lane is the
/// product of the operands' largest digits ([`mul_or`]).
#[inline]
pub(crate) fn mul(a: &[i32; LANES], b: &[i32; LANES], frac_bits: u8) -> Exact {
    let mut words = [0; LANES];
    mul_words(a, b, frac_bits, &mut words);
    (words, mul_or(a, b))
}

/// The partials' OR of [`mul`].
#[inline]
pub(crate) fn mul_or(a: &[i32; LANES], b: &[i32; LANES]) -> u32 {
    a.iter().zip(b).fold(0, |or, (&x, &y)| {
        or | (u32::from(digits::max_digit(x)) * u32::from(digits::max_digit(y)))
    })
}

/// The words of [`mul`], written to `out`.
#[inline]
pub(crate) fn mul_words(a: &[i32; LANES], b: &[i32; LANES], frac_bits: u8, out: &mut [i32; LANES]) {
    for ((out, &x), &y) in out.iter_mut().zip(a).zip(b) {
        *out = ((i64::from(x) * i64::from(y)) >> frac_bits) as i32;
    }
}

/// The digital periphery's word op (`mov`, `shiftl`, `shiftr`, `mask`):
/// `word` shifted left by `shl`, arithmetic-shifted right by `shr` and
/// ANDed with `and`.
#[inline]
pub(crate) fn shift_and(word: i32, shl: u8, shr: u8, and: u32) -> i32 {
    ((((word as u32) << shl) as i32) >> shr) & and as i32
}

/// The lanes a `movs` with lane mask `lanes` writes: `lanes`, or the
/// latched `dynamic` mask for the all-zero dynamic-predication encoding.
#[inline]
pub(crate) fn movs_lanes(lanes: LaneMask, dynamic: u8) -> u8 {
    match lanes.bits() {
        0 => dynamic,
        bits => bits,
    }
}

/// The dynamic predication mask a write of `words` to the mask register
/// latches: lane `l`'s bit is set when its word is non-zero.
#[inline]
pub(crate) fn latched_mask(words: &[i32; LANES]) -> u8 {
    words
        .iter()
        .enumerate()
        .fold(0, |mask, (lane, &word)| mask | u8::from(word != 0) << lane)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::array::tests::{fast_path_accepts, local_instruction};
    use crate::{LutKind, ReramArray};
    use imp_isa::Instruction;
    use proptest::prelude::*;

    /// The LUT every test array holds.
    fn lut() -> Lut {
        Lut::from_fn(LutKind::Custom, |i| (i * 7 % 256) as u8)
    }

    /// Decodes `inst`. When `flag`, a `movs` selects by the dynamic mask,
    /// and a `dot` whose registers `known` all hold (lanes 0 loaded by
    /// `movi`) carries their analysed DAC vectors, as the simulator's
    /// lowering attaches them.
    fn micro_op(inst: &Instruction, known: &[Option<i32>; 5], flag: bool) -> MicroOp {
        let mut op = MicroOp::decode(inst).expect("array-local");
        if let MicroOp::Movs { lanes, .. } = &mut op {
            if flag {
                *lanes = LaneMask::DYNAMIC;
            }
        }
        if let MicroOp::Dot {
            rows, regs, dac, ..
        } = &mut op
        {
            let scalars: Vec<Option<i32>> = rows
                .rows()
                .zip(regs.rows())
                .map(|(_, reg)| known[reg])
                .collect();
            if flag && scalars.iter().all(Option::is_some) {
                *dac = DacVectors::analyse(scalars.into_iter().flatten());
            }
        }
        op
    }

    /// The register index `known` tracks for `reg` (0..4, then the mask
    /// register), if it tracks it.
    fn tracked(reg: usize) -> Option<usize> {
        match reg {
            0..4 => Some(reg),
            MASK_REGISTER => Some(4),
            _ => None,
        }
    }

    /// Loads `groups` groups of `rows`' words into a batch, dirtied by an
    /// earlier, wider use and reset, and into one array per group.
    fn load(spec: AnalogSpec, rows: &[Words; 8], groups: usize) -> (ArrayBatch, Vec<ReramArray>) {
        let mut batch = ArrayBatch::new(spec, lut());
        batch.write_row(0, &[[-1; LANES]]);
        batch.reset(BATCH);
        let mut bits = [0; BATCH];
        assert!(batch.execute_op(
            &MicroOp::Movi {
                dst: Addr::reg(2),
                word: 9
            },
            &mut bits
        ));
        assert!(batch.execute_op(
            &MicroOp::Movi {
                dst: Addr::mem(100),
                word: 9
            },
            &mut bits
        ));
        batch.write_group_row(BATCH - 1, 5, &[3; LANES]);
        batch.reset(groups);
        let mut arrays = vec![ReramArray::new(spec); groups];
        for (row, words) in rows.iter().enumerate() {
            batch.write_row(row, &words[..groups]);
            for (array, words) in arrays.iter_mut().zip(words) {
                array.set_lut(lut());
                array.write_row(row, words);
            }
        }
        (batch, arrays)
    }

    /// Asserts that every group of `batch` holds its array's state.
    fn assert_same_state(batch: &ArrayBatch, arrays: &[ReramArray]) -> Result<(), String> {
        for (g, array) in arrays.iter().enumerate() {
            for row in 0..ARRAY_ROWS {
                prop_assert_eq!(
                    batch.read_row(g, row),
                    array.read_row(row),
                    "group {} row {}",
                    g,
                    row
                );
                prop_assert_eq!(batch.row_writes(g, row), array.crossbar().row_writes(row));
            }
            for reg in 0..NUM_REGISTERS {
                prop_assert_eq!(
                    batch.read_reg(g, reg),
                    array.read_reg(reg),
                    "group {} reg {}",
                    g,
                    reg
                );
            }
            prop_assert_eq!(batch.dynamic_mask(g), array.dynamic_mask());
            prop_assert_eq!(batch.total_writes(g), array.crossbar().total_writes());
        }
        Ok(())
    }

    /// Runs `op` on `batch` and, when every array's fast path accepts it,
    /// on every array's ordered loops, the reference, asserting that the
    /// batch declines exactly when some array would leave its fast path
    /// and otherwise matches every array's ADC bits and state. Returns
    /// whether the batch ran `op`.
    fn step(
        batch: &mut ArrayBatch,
        arrays: &mut [ReramArray],
        op: &MicroOp,
    ) -> Result<bool, String> {
        let accepts = arrays.iter().all(|array| fast_path_accepts(array, op));
        let mut bits = [0u8; BATCH];
        let ran = batch.execute_op(op, &mut bits);
        prop_assert_eq!(ran, accepts, "{:?}", op);
        if ran {
            for (g, array) in arrays.iter_mut().enumerate() {
                array.set_fast_path_enabled(false);
                let array_bits = array
                    .execute_op(op)
                    .expect("an op the fast path accepts cannot fail");
                array.set_fast_path_enabled(true);
                prop_assert_eq!(bits[g], array_bits, "group {} {:?}", g, op);
            }
            assert_same_state(batch, arrays)?;
        }
        Ok(ran)
    }

    #[test]
    fn one_group_out_of_adc_range_declines_the_batch() {
        // A 3-bit ADC (limit 7): a product of two digits 3 needs 4 bits.
        let spec = AnalogSpec {
            adc_bits: 3,
            ..AnalogSpec::integer()
        };
        let mut rows = [ZERO; 8];
        rows[0] = [[2; LANES]; BATCH];
        rows[1] = [[0b10; LANES]; BATCH];
        rows[1][5][3] = 0b11;
        rows[0][5][3] = 0b11;
        let mul = MicroOp::Mul {
            a: Addr::mem(0),
            b: Addr::mem(1),
            dst: Addr::mem(2),
        };
        let mut bits = [0; BATCH];
        let (mut batch, arrays) = load(spec, &rows, BATCH);
        assert!(!fast_path_accepts(&arrays[5], &mul));
        assert!(
            !batch.execute_op(&mul, &mut bits),
            "group 5 needs the ordered loop"
        );
        assert_eq!(
            batch.read_row(0, 2),
            [0; LANES],
            "a declined op touches no word"
        );
        let (mut batch, _) = load(spec, &rows, 5);
        assert!(
            batch.execute_op(&mul, &mut bits),
            "groups 0..5 stay in range"
        );
        assert_eq!(bits[..5], [3; 5]);
        assert_eq!(batch.read_row(4, 2), [4; LANES]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn a_batch_runs_like_one_array_per_group(
            groups in 1usize..BATCH + 1,
            valid in 1usize..LANES + 1,
            seeds in prop::collection::vec(any::<u32>(), BATCH),
            hot in 0usize..2 * BATCH,
            loads in prop::array::uniform8(0u8..32),
            ops in prop::collection::vec(
                (any::<u8>(), (any::<u8>(), any::<u8>()), prop::array::uniform8(any::<u8>()), any::<u32>(), any::<bool>()),
                1..32,
            ),
            analog in (2u8..7, any::<bool>(), any::<bool>(), 0u8..8),
        ) {
            let (adc_bits, strict, q16, noisy) = analog;
            let base = if q16 { AnalogSpec::prototype() } else { AnalogSpec::integer() };
            let spec = AnalogSpec {
                adc_bits,
                strict_adc: strict,
                noise_prob: if noisy == 0 { 0.05 } else { 0.0 },
                ..base
            };
            // Group data: digits of at most 1, but the `hot` group's (when
            // live) are full words, which a narrow ADC cannot always
            // convert. The last live group's lanes past `valid` repeat its
            // last valid lane, as the simulator pads a short group.
            let rows: [Words; 8] = std::array::from_fn(|row| {
                std::array::from_fn(|g| {
                    std::array::from_fn(|lane| {
                        let lane = if g + 1 == groups { lane.min(valid - 1) } else { lane };
                        let word = seeds[g].rotate_left((5 * row + 3 * lane) as u32);
                        (if g == hot { word } else { word & 0x5555_5555 }) as i32
                    })
                })
            });
            let (mut batch, mut arrays) = load(spec, &rows, groups);
            // Registers 0..4 and the mask register take per-group data.
            for (reg, shr) in (0..4).chain([MASK_REGISTER]).zip(loads) {
                let load = MicroOp::Periphery {
                    src: Addr::mem(usize::from(shr) % 8),
                    dst: Addr::reg(reg),
                    shl: 0,
                    shr,
                    and: u32::MAX,
                };
                prop_assert!(step(&mut batch, &mut arrays, &load)?);
            }
            let mut known = [None; 5];
            for &(opcode, masks, addrs, imm, flag) in &ops {
                let inst = local_instruction(opcode, masks, [addrs[0], addrs[1], addrs[2]], imm);
                let op = micro_op(&inst, &known, flag);
                if !step(&mut batch, &mut arrays, &op)? {
                    break;
                }
                if let Some(Addr::Reg(reg)) = inst.local_dst() {
                    if let Some(slot) = tracked(usize::from(reg)) {
                        known[slot] = match op {
                            MicroOp::Movi { word, .. } => Some(word),
                            _ => None,
                        };
                    }
                }
            }
        }
    }
}
