//! The small per-cluster register file.

use imp_isa::{LANES, NUM_REGISTERS};

/// Register file shared by the arrays of one cluster.
///
/// Each register holds one row's worth of data: eight 32-bit lanes. The
/// register file is the source of streamed multiplicands for `dot` and a
/// write-back target for any instruction whose `<dst>` names a register.
#[derive(Debug, Clone)]
pub struct RegisterFile {
    regs: Vec<[i32; LANES]>,
}

impl RegisterFile {
    /// Creates a zeroed register file.
    pub fn new() -> Self {
        RegisterFile {
            regs: vec![[0; LANES]; NUM_REGISTERS],
        }
    }

    /// Zeroes every register.
    pub(crate) fn clear(&mut self) {
        self.regs.fill([0; LANES]);
    }

    /// Reads register `reg`.
    ///
    /// # Panics
    /// Panics if `reg >= NUM_REGISTERS`.
    pub fn read(&self, reg: usize) -> [i32; LANES] {
        self.regs[reg]
    }

    /// Reads one lane of register `reg`.
    pub fn read_lane(&self, reg: usize, lane: usize) -> i32 {
        self.regs[reg][lane]
    }

    /// Writes register `reg`.
    ///
    /// # Panics
    /// Panics if `reg >= NUM_REGISTERS`.
    pub fn write(&mut self, reg: usize, value: [i32; LANES]) {
        self.regs[reg] = value;
    }
}

impl Default for RegisterFile {
    fn default() -> Self {
        RegisterFile::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn read_write() {
        let mut rf = RegisterFile::new();
        assert_eq!(rf.read(0), [0; LANES]);
        rf.write(3, [1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(rf.read(3), [1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(rf.read_lane(3, 2), 3);
    }
}
