use std::fmt;

/// Errors produced while compiling a data-flow graph to the in-memory ISA.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CompileError {
    /// The graph mixes tensors whose parallel dimensions disagree.
    InconsistentParallelism(String),
    /// A node form is outside the supported restrictions (Table 2
    /// footnote: MatMul/Conv2D/Tensordot/Reshape have dimensional
    /// restrictions; runtime-indexed gathers should be resolved host-side,
    /// §3).
    Unsupported(String),
    /// A lowering needed a declared value range for an input and none was
    /// provided (division, sqrt, exp, sigmoid are LUT-seeded over the
    /// operand's dynamic range).
    MissingRange(String),
    /// The declared range is invalid for the operation (e.g. a divisor
    /// interval containing zero).
    BadRange(String),
    /// A constant node holds a NaN or infinite value, which no fixed-point
    /// word can represent.
    NonFiniteConstant(imp_dfg::NodeId),
    /// The chip capacity describes no buildable chip: the H-tree needs a
    /// tile count that is a positive power of 8, every tile needs at least
    /// one cluster and every cluster at least one array.
    BadCapacity(crate::ChipCapacity),
    /// The fixed-point format has more fraction bits than the chip
    /// supports ([`QFormat::MAX_FRAC_BITS`](imp_rram::QFormat::MAX_FRAC_BITS),
    /// 30): lowering materializes 1.0 and shifts words by the fraction
    /// width, neither of which a wider format can do.
    BadFormat(imp_rram::QFormat),
    /// The module needs more array rows than a 128-row array provides,
    /// even after liveness-based reuse.
    OutOfRows {
        /// Instruction block that overflowed.
        ib: usize,
        /// Rows the block needed at peak.
        needed: usize,
    },
    /// The module needs more registers than the cluster register file
    /// provides.
    OutOfRegisters {
        /// Instruction block that overflowed.
        ib: usize,
        /// Registers the block needed.
        needed: usize,
    },
    /// IB placement ran out of usable arrays (all remaining physical
    /// arrays are retired).
    OutOfArrays {
        /// Arrays the kernel needs for one instance group.
        needed: usize,
        /// Usable (non-retired) arrays available.
        usable: usize,
    },
    /// A graph error surfaced during compilation.
    Graph(String),
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::InconsistentParallelism(msg) => {
                write!(f, "inconsistent data-parallel dimensions: {msg}")
            }
            CompileError::Unsupported(msg) => write!(f, "unsupported graph form: {msg}"),
            CompileError::MissingRange(name) => {
                write!(f, "lowering requires a declared value range for `{name}`")
            }
            CompileError::BadRange(msg) => write!(f, "invalid value range: {msg}"),
            CompileError::NonFiniteConstant(node) => {
                write!(f, "constant {node} holds a non-finite value")
            }
            CompileError::BadCapacity(c) => write!(
                f,
                "invalid chip capacity: {} tiles × {} clusters × {} arrays \
                 (tiles must be a positive power of 8, the other counts positive)",
                c.tiles, c.clusters_per_tile, c.arrays_per_cluster
            ),
            CompileError::BadFormat(format) => write!(
                f,
                "invalid fixed-point format: {} fraction bits (at most {} are supported)",
                format.frac_bits(),
                imp_rram::QFormat::MAX_FRAC_BITS
            ),
            CompileError::OutOfRows { ib, needed } => {
                write!(
                    f,
                    "instruction block {ib} needs {needed} rows; arrays have 128"
                )
            }
            CompileError::OutOfRegisters { ib, needed } => {
                write!(
                    f,
                    "instruction block {ib} needs {needed} registers; clusters have 128"
                )
            }
            CompileError::OutOfArrays { needed, usable } => {
                write!(
                    f,
                    "placement needs {needed} arrays; only {usable} are usable"
                )
            }
            CompileError::Graph(msg) => write!(f, "graph error: {msg}"),
        }
    }
}

impl std::error::Error for CompileError {}

impl From<imp_dfg::DfgError> for CompileError {
    fn from(err: imp_dfg::DfgError) -> Self {
        CompileError::Graph(err.to_string())
    }
}
