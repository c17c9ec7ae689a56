//! Runtime fault detection and recovery policy.
//!
//! The substrate-level fault *model* lives in [`imp_rram::fault`]: which
//! cells are stuck, which lines are dead, how the ADCs misbehave. This
//! module is the chip-level *response*: every simulated array carries a
//! spare checksum row whose residue check ([`Crossbar::integrity_scan`])
//! runs at IB write-back boundaries, and ADC conversions on the checksum
//! column are duplicated so offset/transient converter faults latch a
//! detection flag. Detections become structured [`FaultEvent`]s, and the
//! machine reacts per the configured [`FaultPolicy`]:
//!
//! * [`FaultPolicy::Silent`] — record the events, keep the (possibly
//!   corrupted) outputs. The baseline an unprotected chip gives you.
//! * [`FaultPolicy::FailFast`] — abort with [`SimError::Faults`] the
//!   moment an attempt finishes with detections. Never returns silently
//!   corrupted data.
//! * [`FaultPolicy::Retry`] — re-execute the kernel, re-drawing transient
//!   faults each attempt, up to `max` extra attempts. Wasted attempts are
//!   charged to [`RunReport::fault_overhead_cycles`]. Converges when the
//!   faults are transient; permanent faults exhaust the budget.
//! * [`FaultPolicy::Remap`] — retire the physical arrays that failed
//!   their checks, re-run BUG placement/scheduling around them
//!   ([`imp_compiler::schedule::schedule`]) and execute again at reduced
//!   parallelism: graceful degradation instead of an error, as long as
//!   enough healthy arrays remain.
//!
//! Detection itself is modelled as free in cycles: the spare row is
//! programmed by the same write pulse as its column (the residue
//! accumulates in the write datapath) and the comparison overlaps the
//! write-back stage, so only *recovery* — repeated or rescheduled
//! attempts — costs time and energy.
//!
//! "No fault" is one value per array: no map. A slot keeps its generated
//! population only when it holds a fault ([`FaultMap::is_clean`] is
//! false), shared by every group on the slot. Only arrays armed with a
//! map run the two checks, and only those whose map holds an ADC offset
//! or transient glitches take the ordered conversion loops: stuck cells,
//! dead lines and wear are sensed as word masks on every read, and an
//! array with only those keeps the fast paths.
//!
//! [`Crossbar::integrity_scan`]: imp_rram::Crossbar::integrity_scan
//! [`FaultMap::is_clean`]: imp_rram::FaultMap::is_clean
//! [`SimError::Faults`]: crate::SimError::Faults
//! [`RunReport::fault_overhead_cycles`]: crate::RunReport::fault_overhead_cycles

use imp_noc::TransportFaultKind;
use imp_rram::FaultRates;
use std::fmt;

/// Where on the chip a fault was detected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSite {
    /// Kernel invocation round the detecting group belonged to.
    pub round: u64,
    /// Absolute instance-group index.
    pub group: usize,
    /// Instruction block (array within the group).
    pub ib: usize,
    /// Flat physical array slot (`cluster * 8 + array`, chip-wide) — the
    /// unit the remap policy retires.
    pub physical_slot: usize,
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "round {} group {} ib {} (array slot {})",
            self.round, self.group, self.ib, self.physical_slot
        )
    }
}

/// What kind of corruption the runtime detected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// The spare-checksum-row residue check flagged these bit-line
    /// columns (stuck cells, dead lines, or endurance wear-out).
    Cell {
        /// Mismatching column indices, ascending.
        corrupted_columns: Vec<usize>,
    },
    /// Duplicated conversions of the checksum column disagreed: an ADC
    /// offset or transient glitch corrupted at least one conversion.
    Adc,
    /// A transport-level fault on the H-tree (CRC mismatch, dead link,
    /// drop, exhausted retransmission). For fault events attached to a
    /// `Movg` the site names the *destination* IB; for reductions it
    /// names IB 0 of the round's first group.
    Transport(TransportFaultKind),
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultKind::Cell { corrupted_columns } => {
                write!(
                    f,
                    "cell corruption in {} column(s)",
                    corrupted_columns.len()
                )
            }
            FaultKind::Adc => write!(f, "ADC conversion fault"),
            FaultKind::Transport(kind) => write!(f, "transport fault: {kind}"),
        }
    }
}

/// One detected fault: where, when, what.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    /// Location of the detecting array.
    pub site: FaultSite,
    /// Array cycle (within the attempt) at which the detection fired —
    /// the write-back boundary ending the site's round.
    pub cycle: u64,
    /// What was detected.
    pub kind: FaultKind,
}

impl fmt::Display for FaultEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} at cycle {}: {}", self.site, self.cycle, self.kind)
    }
}

/// How the machine reacts to detected faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultPolicy {
    /// Inject faults but take no action: events are recorded in the
    /// report and outputs may be silently corrupted.
    #[default]
    Silent,
    /// Abort with [`crate::SimError::Faults`] if any attempt ends with
    /// detections.
    FailFast,
    /// Re-execute the kernel until an attempt completes clean.
    Retry {
        /// Maximum *extra* attempts after the first.
        max: u32,
        /// Idle cycles charged between attempts (drain + reload pacing).
        backoff_cycles: u64,
    },
    /// Retire the faulting physical arrays, reschedule around them, and
    /// re-execute at reduced parallelism. Errors only when fewer usable
    /// arrays remain than the kernel needs.
    Remap,
}

/// Fault-injection configuration for a simulation run. The default,
/// [`FaultRates::none`] under [`FaultPolicy::Silent`], injects nothing;
/// so does any policy over [`FaultRates::none`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultConfig {
    /// Physical fault population parameters, applied per array with a
    /// seed derived from [`crate::SimConfig::fault_seed`] and the array's
    /// physical slot.
    pub rates: FaultRates,
    /// Recovery policy.
    pub policy: FaultPolicy,
}

impl FaultConfig {
    /// Injects faults at the given rates with the given policy.
    pub fn new(rates: FaultRates, policy: FaultPolicy) -> Self {
        FaultConfig { rates, policy }
    }
}

/// Execution watchdog configuration.
///
/// Recovery policies can livelock: an `AckRetransmit` storm over a dead
/// link with an enormous budget, or a `Retry` loop re-drawing the same
/// permanent faults forever. The watchdog bounds both dimensions of that
/// spin — time and attempts — and converts an overrun into a structured
/// [`crate::SimError::Timeout`] instead of a hang:
///
/// * `max_cycles` is the total array-cycle budget across all attempts,
///   including recovery overhead. It is also handed to the network as a
///   transfer deadline (in network cycles), so a retransmit loop inside a
///   single transfer is cut off mid-storm.
/// * `max_attempts` is the progress check: each execution attempt must
///   either complete clean or hand a *new* fault population to the
///   recovery policy; a policy asking for more than `max_attempts`
///   attempts is judged stuck.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Total array-cycle budget across all execution attempts.
    pub max_cycles: u64,
    /// Maximum execution attempts (the initial one plus recoveries).
    pub max_attempts: u32,
}

impl WatchdogConfig {
    /// A budget of `max_cycles` array cycles with at most `max_attempts`
    /// attempts.
    pub fn new(max_cycles: u64, max_attempts: u32) -> Self {
        WatchdogConfig {
            max_cycles,
            max_attempts,
        }
    }
}

impl Default for WatchdogConfig {
    /// An effectively unlimited watchdog (never fires).
    fn default() -> Self {
        WatchdogConfig {
            max_cycles: u64::MAX,
            max_attempts: u32::MAX,
        }
    }
}

/// Derives a per-array seed from the run's fault seed and a physical
/// array slot (splitmix64 finalizer — changing either input decorrelates
/// the whole stream).
pub fn mix_seed(fault_seed: u64, salt: u64) -> u64 {
    let mut z = fault_seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Derives an RNG stream id from the run's fault seed, a physical array
/// slot, an instance group, and a recovery attempt, by chaining the
/// [`mix_seed`] finalizer. Every `(seed, slot, group, attempt)` tuple gets
/// an independent stream, so per-group random draws (ADC noise,
/// transient glitches) do not depend on how many draws *other* groups
/// made before — the property that makes parallel group execution
/// bit-identical to serial.
pub fn mix_seed4(fault_seed: u64, slot: u64, group: u64, attempt: u64) -> u64 {
    mix_seed(mix_seed(mix_seed(fault_seed, slot), group), attempt)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_seed_is_deterministic_and_decorrelated() {
        assert_eq!(mix_seed(1, 2), mix_seed(1, 2));
        assert_ne!(mix_seed(1, 2), mix_seed(1, 3));
        assert_ne!(mix_seed(1, 2), mix_seed(2, 2));
        // Adjacent slots under the same seed differ in many bits.
        let a = mix_seed(0, 0);
        let b = mix_seed(0, 1);
        assert!((a ^ b).count_ones() > 16);
    }

    #[test]
    fn display_formats() {
        let event = FaultEvent {
            site: FaultSite {
                round: 1,
                group: 9,
                ib: 2,
                physical_slot: 17,
            },
            cycle: 420,
            kind: FaultKind::Cell {
                corrupted_columns: vec![3, 64],
            },
        };
        let text = event.to_string();
        assert!(text.contains("group 9"));
        assert!(text.contains("slot 17"));
        assert!(text.contains("2 column(s)"));
        assert!(FaultKind::Adc.to_string().contains("ADC"));
    }
}
