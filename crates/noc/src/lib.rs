//! # imp-noc — the H-tree network-on-chip
//!
//! The IMP chip connects its 4,096 tiles with an H-tree router network
//! (§2.1). The H-tree suits the communication patterns of the programming
//! model — rare point-to-point `movg` transfers, tree reductions for
//! `reduce_sum` (the routers contain adders), and high-bandwidth external
//! I/O through the root.
//!
//! This crate provides:
//!
//! * [`HTreeTopology`] — an 8-ary tree over the tiles (radix 9 routers:
//!   eight children + one parent, matching Table 4), with path and
//!   common-ancestor queries;
//! * [`Network`] — an event-based contention model: every link tracks when
//!   it is next free, messages serialize into flits, and delivery times
//!   account for router pipeline, link traversal and queueing;
//! * two ways to move data, both through one delivery loop:
//!   [`Network::transfer`] for point-to-point `movg` traffic, and
//!   [`Network::reduce_transfer`] for in-network reduction, which models
//!   the adders in the routers summing partial values as they flow
//!   toward the root;
//! * a transport-reliability layer ([`LinkFaultMap`], [`TransportPolicy`])
//!   modeling flaky and dead links, stuck routers and faulty reduction
//!   adders, with per-message CRC detection and ack/retransmit or
//!   sibling-detour recovery. A network without a fault model runs the
//!   same loop with nothing to inject, so every message arrives on its
//!   first attempt.
//!
//! Times are in **network cycles** (2 GHz); helpers convert to the 20 MHz
//! array clock (100 network cycles per array cycle).
//!
//! ## Example
//!
//! ```
//! use imp_noc::{HTreeTopology, Network, NocConfig};
//!
//! let topo = HTreeTopology::new(4096, 8);
//! let mut net = Network::new(topo, NocConfig::default());
//! let payload = [7; 8];
//! let delivery = net.transfer(0, 4095, &payload, 32, 0, None).unwrap();
//! assert!(delivery.time > 0);
//! assert_eq!(delivery.payload.as_deref(), Some(&payload[..]));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod network;
mod topology;
mod transport;

pub use network::{Network, NocConfig, NocStats};
pub use topology::{HTreeTopology, LinkId};
pub use transport::{
    crc32, Delivery, LinkFaultMap, LinkFaultRates, TransportConfig, TransportEvent,
    TransportFaultKind, TransportPolicy, REROUTE_RETRANSMIT_MAX,
};

/// Network clock frequency in hertz.
pub const NETWORK_CLOCK_HZ: f64 = 2.0e9;

/// Network cycles per ReRAM-array cycle (2 GHz / 20 MHz).
pub const NET_CYCLES_PER_ARRAY_CYCLE: u64 = 100;

/// Converts network cycles to array cycles, rounding up (an array stalls
/// whole cycles while waiting on the network).
pub fn net_to_array_cycles(net_cycles: u64) -> u64 {
    net_cycles.div_ceil(NET_CYCLES_PER_ARRAY_CYCLE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_ratio() {
        assert_eq!(NET_CYCLES_PER_ARRAY_CYCLE, 100);
        assert_eq!(net_to_array_cycles(1), 1);
        assert_eq!(net_to_array_cycles(100), 1);
        assert_eq!(net_to_array_cycles(101), 2);
        assert_eq!(net_to_array_cycles(0), 0);
    }
}
