//! Contention-aware message delivery over the H-tree.
//!
//! Unicasts and reductions share one delivery loop: dead links on the
//! path resolve per the [`TransportPolicy`], then each attempt reserves
//! link occupancy, samples bit flips, and checks the per-message CRC at
//! the destination until an attempt arrives clean or the policy gives up.
//! Without a fault model nothing is dead and nothing flips, so the first
//! attempt delivers.

use crate::topology::{HTreeTopology, LinkId};
use crate::transport::{
    crc32, Delivery, LinkFaultMap, TransportEvent, TransportFaultKind, TransportPolicy,
    REROUTE_RETRANSMIT_MAX,
};
use std::borrow::Cow;
use std::collections::{BTreeSet, HashMap};

/// Network timing parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NocConfig {
    /// Flit payload in bytes (Table 4: flit size 16).
    pub flit_bytes: usize,
    /// Router pipeline latency per hop, in network cycles.
    pub router_latency: u64,
    /// Wire traversal latency per hop, in network cycles.
    pub link_latency: u64,
    /// Extra cycles for the in-router add during reductions.
    pub reduce_add_latency: u64,
}

impl Default for NocConfig {
    fn default() -> Self {
        NocConfig {
            flit_bytes: 16,
            router_latency: 2,
            link_latency: 1,
            reduce_add_latency: 1,
        }
    }
}

/// Aggregate network activity, consumed by the energy model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct NocStats {
    /// Point-to-point messages sent.
    pub messages: u64,
    /// Total payload bytes moved.
    pub bytes: u64,
    /// Total link traversals (flits × hops).
    pub flit_hops: u64,
    /// Router traversals.
    pub router_traversals: u64,
    /// In-network reduction additions performed.
    pub reduction_adds: u64,
    /// Total cycles messages spent queued behind busy links.
    pub contention_cycles: u64,
    /// Per-message CRC checks that failed at the destination.
    pub crc_failures: u64,
    /// Retransmissions issued (beyond each message's initial attempt).
    pub retransmissions: u64,
    /// Messages that detoured around a dead link via a sibling subtree.
    pub rerouted_messages: u64,
    /// Network cycles charged to transport recovery: retransmission
    /// serialization + backoff, and lateral detour hops. Deterministic
    /// (contention-independent) so degradation curves are monotone in the
    /// injected fault rate.
    pub retransmit_cycles: u64,
    /// Messages dropped on dead links under [`TransportPolicy::Silent`].
    pub dropped_messages: u64,
}

impl NocStats {
    /// Adds every counter of `other` into `self`.
    ///
    /// All fields are additive activity counts, so merging per-shard stats
    /// in any order yields the same totals as a single serial run; the
    /// parallel engine still merges in ascending group order so the whole
    /// report pipeline is order-deterministic.
    pub fn merge(&mut self, other: &NocStats) {
        self.messages += other.messages;
        self.bytes += other.bytes;
        self.flit_hops += other.flit_hops;
        self.router_traversals += other.router_traversals;
        self.reduction_adds += other.reduction_adds;
        self.contention_cycles += other.contention_cycles;
        self.crc_failures += other.crc_failures;
        self.retransmissions += other.retransmissions;
        self.rerouted_messages += other.rerouted_messages;
        self.retransmit_cycles += other.retransmit_cycles;
        self.dropped_messages += other.dropped_messages;
    }
}

/// The chip network: topology + per-link occupancy for contention modeling.
///
/// The model is conservative wormhole-style: a message occupies each link on
/// its route for its serialization time (flits × 1 cycle per flit), links
/// are granted in route order, and the head flit pays router + link latency
/// per hop.
#[derive(Debug, Clone)]
pub struct Network {
    topology: HTreeTopology,
    config: NocConfig,
    link_free: HashMap<LinkId, u64>,
    stats: NocStats,
    transport: TransportState,
}

/// The fault model every message is delivered through. A network without
/// an attached model holds a clean map: no link is dead and no traversal
/// flips, so every message is delivered on its first attempt.
#[derive(Debug, Clone)]
struct TransportState {
    map: LinkFaultMap,
    policy: TransportPolicy,
    /// Next message id; assigned once per transfer so retransmissions of
    /// the same message share fault-sampling identity.
    next_msg: u64,
}

/// A path's links after dead-link resolution plus its detour count, or
/// `None` when the message was dropped.
type Resolved<'r> = Option<(Cow<'r, [LinkId]>, u64)>;

/// What one message travels over.
#[derive(Debug, Clone, Copy)]
enum Path<'a> {
    /// A point-to-point route from `src` to `dst`.
    Unicast { src: usize, dst: usize },
    /// The reduction tree over `tiles`, whose sum is delivered to `dst`.
    Reduce { tiles: &'a [usize], dst: usize },
}

impl Network {
    /// Creates an idle network without a fault model.
    pub fn new(topology: HTreeTopology, config: NocConfig) -> Self {
        Network {
            topology,
            config,
            link_free: HashMap::new(),
            stats: NocStats::default(),
            transport: TransportState {
                map: LinkFaultMap::clean(),
                policy: TransportPolicy::Silent,
                next_msg: 0,
            },
        }
    }

    /// Attaches a transport fault model and its recovery policy.
    pub fn set_transport(&mut self, map: LinkFaultMap, policy: TransportPolicy) {
        self.transport = TransportState {
            map,
            policy,
            next_msg: 0,
        };
    }

    /// The topology.
    pub fn topology(&self) -> &HTreeTopology {
        &self.topology
    }

    /// The timing parameters.
    pub fn config(&self) -> &NocConfig {
        &self.config
    }

    /// Activity statistics so far.
    pub fn stats(&self) -> NocStats {
        self.stats
    }

    /// Resets occupancy and statistics.
    pub fn reset(&mut self) {
        self.link_free.clear();
        self.stats = NocStats::default();
    }

    /// Pins the message id the next [`Network::transfer`] (or
    /// [`Network::reduce_transfer`]) will use.
    ///
    /// Transport fault sampling is a pure function of `(message id,
    /// attempt, link)`, so giving every instance group a disjoint,
    /// group-derived id base makes fault draws independent of the order
    /// in which groups execute — the property the parallel engine needs
    /// for bit-identical results. Without a fault model nothing samples
    /// the id.
    pub fn set_next_msg_id(&mut self, id: u64) {
        self.transport.next_msg = id;
    }

    /// Sends `payload` from tile `src` to tile `dst`, injecting at `now`
    /// (network cycles).
    ///
    /// `bytes` is the modeled wire size (it may exceed `payload` — e.g.
    /// headers). A same-tile transfer costs one router traversal through
    /// the local router (the intra-tile path) and never meets a fault.
    /// Each attempt walks the route, and the destination re-checks the
    /// per-message CRC over what arrived; recovery follows the attached
    /// [`TransportPolicy`]. `deadline` bounds retransmission storms
    /// (network cycles).
    pub fn transfer(
        &mut self,
        src: usize,
        dst: usize,
        payload: &[i32],
        bytes: usize,
        now: u64,
        deadline: Option<u64>,
    ) -> Result<Delivery, TransportEvent> {
        self.deliver(Path::Unicast { src, dst }, payload, bytes, now, deadline)
    }

    /// In-network reduction of `payload` (the already-summed partials; the
    /// fabric is modeled as computing the same sums) over `tiles`,
    /// delivered to `dst_tile`. Each participating value is `bytes` wide.
    ///
    /// Values flow up the smallest covering subtree; each router sums its
    /// children's partial values with its shift-and-add unit, so the link
    /// traffic per level stays one value per subtree instead of one per
    /// tile. An empty `tiles` list is a no-op delivered at `now`.
    ///
    /// CRC failures on the tree's links recover like
    /// [`Network::transfer`]'s. Bad reduction adders corrupt the delivered
    /// sums **without** any CRC event — the adder recomputes the checksum
    /// after merging, so only end-to-end validation catches it.
    pub fn reduce_transfer(
        &mut self,
        tiles: &[usize],
        dst_tile: usize,
        payload: &[i32],
        bytes: usize,
        now: u64,
        deadline: Option<u64>,
    ) -> Result<Delivery, TransportEvent> {
        if tiles.is_empty() {
            return Ok(Delivery {
                time: now,
                payload: Some(payload.to_vec()),
                events: Vec::new(),
            });
        }
        let path = Path::Reduce {
            tiles,
            dst: dst_tile,
        };
        self.deliver(path, payload, bytes, now, deadline)
    }

    fn flits(&self, bytes: usize) -> u64 {
        (bytes.max(1)).div_ceil(self.config.flit_bytes) as u64
    }

    fn count_message(&mut self, bytes: usize) {
        self.stats.messages += 1;
        self.stats.bytes += bytes as u64;
    }

    /// The one delivery loop: resolves dead links per policy, then
    /// attempts the path until an attempt arrives clean or the policy
    /// gives up.
    fn deliver(
        &mut self,
        path: Path<'_>,
        payload: &[i32],
        bytes: usize,
        now: u64,
        deadline: Option<u64>,
    ) -> Result<Delivery, TransportEvent> {
        let flits = self.flits(bytes);
        self.count_message(bytes);
        let (src, dst, links) = match path {
            Path::Unicast { src, dst } => (src, dst, self.topology.route(src, dst)),
            Path::Reduce { tiles, dst } => (tiles[0], dst, self.topology.reduction_links(tiles)),
        };
        // A same-tile unicast never leaves its tile router and takes no
        // message id; every other message, a one-tile reduction included,
        // takes one.
        let msg = match path {
            Path::Unicast { .. } if links.is_empty() => 0,
            _ => {
                self.transport.next_msg += 1;
                self.transport.next_msg - 1
            }
        };
        let mut events = Vec::new();
        let Some((eff, detours)) =
            self.resolve_dead_links(&links, flits, src, dst, now, deadline, &mut events)?
        else {
            // A dropped unicast never arrives; a dropped reduction still
            // runs on its tree for timing, but the sum is lost.
            let time = match path {
                Path::Unicast { .. } => now,
                Path::Reduce { tiles, dst } => self.reduce_time(tiles, dst, &links, bytes, now),
            };
            return Ok(Delivery {
                time,
                payload: None,
                events,
            });
        };
        let hop = self.config.router_latency + self.config.link_latency;
        let lateral = detours * hop;
        let serialization = eff.len() as u64 * hop + flits;
        let mut start = now;
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let time = match path {
                Path::Unicast { .. } => self.unicast_time(&eff, flits, start),
                // The tree is timed over its own links; a detour adds
                // only its lateral hops.
                Path::Reduce { tiles, dst } => self.reduce_time(tiles, dst, &links, bytes, start),
            } + lateral;
            let map = &self.transport.map;
            let mut flipped = eff
                .iter()
                .copied()
                .filter(|&l| map.flips_message(msg, attempt, l));
            let first_fault = flipped.next();
            // One deterministic bit flip per faulty link.
            let mut data = payload.to_vec();
            for k in 0..first_fault.map_or(0, |_| 1 + flipped.count()) {
                map.corrupt_payload(&mut data, msg, (u64::from(attempt) << 8) | k as u64);
            }
            // The destination recomputes the CRC over what crossed the
            // wires. On a reduction tree two flips can hit the same bit
            // and cancel, so only a unicast asserts the mismatch.
            if first_fault.is_none() {
                debug_assert_eq!(crc32(&data), crc32(payload));
            } else if let Path::Unicast { .. } = path {
                debug_assert_ne!(crc32(&data), crc32(payload));
            }
            if let Path::Reduce { .. } = path {
                self.apply_bad_adders(&mut data, &eff, msg);
            }
            let Some(link) = first_fault else {
                return Ok(Delivery {
                    time,
                    payload: Some(data),
                    events,
                });
            };
            self.stats.crc_failures += 1;
            let event = TransportEvent {
                kind: TransportFaultKind::CrcMismatch { link },
                src,
                dst,
                net_time: time,
            };
            let (max, backoff) = match self.transport.policy {
                TransportPolicy::Silent => {
                    events.push(event);
                    return Ok(Delivery {
                        time,
                        payload: Some(data),
                        events,
                    });
                }
                TransportPolicy::FailFast => return Err(event),
                TransportPolicy::AckRetransmit { max, backoff } => (max, backoff),
                TransportPolicy::Reroute => (REROUTE_RETRANSMIT_MAX, 0),
            };
            if attempt > max {
                return Err(TransportEvent {
                    kind: TransportFaultKind::RetransmitExhausted { attempts: attempt },
                    src,
                    dst,
                    net_time: time,
                });
            }
            // Charge the deterministic recovery cost of the failed attempt
            // (re-serialization + backoff) so degradation curves stay
            // monotone in the injected rate regardless of contention noise.
            self.stats.retransmissions += 1;
            self.stats.retransmit_cycles = self
                .stats
                .retransmit_cycles
                .saturating_add(serialization + backoff);
            start = time + backoff;
            if deadline.is_some_and(|dl| start > dl) {
                return Err(TransportEvent {
                    kind: TransportFaultKind::DeadlineExceeded {
                        spent_net_cycles: start - now,
                    },
                    src,
                    dst,
                    net_time: start,
                });
            }
        }
    }

    /// Times one unicast attempt over `route`; an empty route is the
    /// local path through the tile router. Returns the tail arrival time.
    fn unicast_time(&mut self, route: &[LinkId], flits: u64, now: u64) -> u64 {
        if route.is_empty() {
            self.stats.router_traversals += 1;
            return now + self.config.router_latency + flits;
        }
        // Tail flit arrives `flits` cycles after the head.
        self.traverse(route, flits, now) + flits
    }

    /// Walks the head flit across `route`, reserving link occupancy and
    /// charging contention. Returns the head arrival time at the
    /// destination (tail arrives `flits` cycles later).
    fn traverse(&mut self, route: &[LinkId], flits: u64, now: u64) -> u64 {
        let mut head_time = now;
        for link in route {
            let free = self.link_free.get(link).copied().unwrap_or(0);
            let start = head_time.max(free);
            self.stats.contention_cycles += start - head_time;
            // The link is busy until the whole message has crossed it.
            let done = start + self.config.router_latency + self.config.link_latency + flits;
            self.link_free.insert(*link, done);
            head_time = start + self.config.router_latency + self.config.link_latency;
            self.stats.router_traversals += 1;
        }
        self.stats.flit_hops += flits * route.len() as u64;
        head_time
    }

    /// Times one reduction attempt over the tree `links` of `tiles` and
    /// the delivery of its sum to `dst_tile`. Returns the completion time.
    fn reduce_time(
        &mut self,
        tiles: &[usize],
        dst_tile: usize,
        links: &[LinkId],
        bytes: usize,
        now: u64,
    ) -> u64 {
        let flits = self.flits(bytes);
        let top_level = tiles.iter().skip(1).fold(0u8, |acc, &t| {
            acc.max(self.topology.common_ancestor_level(tiles[0], t))
        });
        // Per-level depth of the reduction tree: each level adds a router
        // hop plus the reduction add.
        let per_hop =
            self.config.router_latency + self.config.link_latency + self.config.reduce_add_latency;
        let up_time = now + u64::from(top_level) * per_hop + flits;
        // Occupancy: every participating link carries one value.
        let mut busiest = up_time;
        for link in links {
            let free = self.link_free.get(link).copied().unwrap_or(0);
            let start = now.max(free);
            self.stats.contention_cycles += start - now;
            let done = start + per_hop + flits;
            self.link_free.insert(*link, done);
            busiest = busiest.max(done);
        }
        self.stats.flit_hops += flits * links.len() as u64;
        self.stats.router_traversals += links.len() as u64;
        // One add per link that merges into a router.
        self.stats.reduction_adds += links.len() as u64;
        // Deliver the reduced value from the subtree root down to dst.
        let root_ancestor = self.topology.ancestor(tiles[0], top_level);
        let dst_ancestor = self.topology.ancestor(dst_tile, top_level);
        if root_ancestor != dst_ancestor {
            // Destination outside the reduction subtree: a fault-free
            // unicast, counted as its own message, from a representative
            // tile at the subtree root.
            self.count_message(bytes);
            let route = self.topology.route(tiles[0], dst_tile);
            return self.unicast_time(&route, flits, busiest);
        }
        let mut t = busiest;
        for level in (0..top_level).rev() {
            let link = LinkId {
                level,
                node: self.topology.ancestor(dst_tile, level),
                up: false,
            };
            let free = self.link_free.get(&link).copied().unwrap_or(0);
            let start = t.max(free);
            let done = start + self.config.router_latency + self.config.link_latency + flits;
            self.link_free.insert(link, done);
            self.stats.router_traversals += 1;
            t = start + self.config.router_latency + self.config.link_latency;
        }
        t + flits
    }

    /// A route over a dead link under AckRetransmit can never succeed:
    /// charge the whole budget (or run to the deadline) arithmetically and
    /// return the terminal event.
    #[allow(clippy::too_many_arguments)]
    fn exhaust_on_dead(
        &mut self,
        hops: u64,
        flits: u64,
        max: u32,
        backoff: u64,
        src: usize,
        dst: usize,
        now: u64,
        deadline: Option<u64>,
    ) -> TransportEvent {
        let per_attempt =
            (hops * (self.config.router_latency + self.config.link_latency) + flits + backoff)
                .max(1);
        if let Some(dl) = deadline {
            let budget = dl.saturating_sub(now) / per_attempt + 1;
            if budget < u64::from(max).saturating_add(1) {
                let spent = budget.saturating_mul(per_attempt);
                self.stats.retransmissions += budget;
                self.stats.retransmit_cycles = self.stats.retransmit_cycles.saturating_add(spent);
                return TransportEvent {
                    kind: TransportFaultKind::DeadlineExceeded {
                        spent_net_cycles: spent,
                    },
                    src,
                    dst,
                    net_time: now.saturating_add(spent),
                };
            }
        }
        let attempts = u64::from(max).saturating_add(1);
        let spent = attempts.saturating_mul(per_attempt);
        self.stats.retransmissions += u64::from(max);
        self.stats.retransmit_cycles = self.stats.retransmit_cycles.saturating_add(spent);
        TransportEvent {
            kind: TransportFaultKind::RetransmitExhausted {
                attempts: attempts.min(u64::from(u32::MAX)) as u32,
            },
            src,
            dst,
            net_time: now.saturating_add(spent),
        }
    }

    /// Resolves dead links on `route` per the active policy. On success
    /// returns the effective route (borrowed when no link is dead) plus
    /// the number of sibling detours taken; `Ok(None)` means the message
    /// was silently dropped (events already pushed); `Err` is fatal.
    #[allow(clippy::too_many_arguments)]
    fn resolve_dead_links<'r>(
        &mut self,
        route: &'r [LinkId],
        flits: u64,
        src: usize,
        dst: usize,
        now: u64,
        deadline: Option<u64>,
        events: &mut Vec<TransportEvent>,
    ) -> Result<Resolved<'r>, TransportEvent> {
        let Some(first_dead) = route.iter().position(|&l| self.transport.map.link_dead(l)) else {
            return Ok(Some((Cow::Borrowed(route), 0)));
        };
        let mut eff = route[..first_dead].to_vec();
        let mut detours = 0u64;
        for &link in &route[first_dead..] {
            if !self.transport.map.link_dead(link) {
                eff.push(link);
                continue;
            }
            match self.transport.policy {
                TransportPolicy::Silent => {
                    self.stats.dropped_messages += 1;
                    events.push(TransportEvent {
                        kind: TransportFaultKind::Dropped { link },
                        src,
                        dst,
                        net_time: now,
                    });
                    return Ok(None);
                }
                TransportPolicy::FailFast => {
                    return Err(TransportEvent {
                        kind: TransportFaultKind::DeadLink { link },
                        src,
                        dst,
                        net_time: now,
                    });
                }
                TransportPolicy::AckRetransmit { max, backoff } => {
                    return Err(self.exhaust_on_dead(
                        route.len() as u64,
                        flits,
                        max,
                        backoff,
                        src,
                        dst,
                        now,
                        deadline,
                    ));
                }
                TransportPolicy::Reroute => {
                    // Detour through the sibling node's subtree: one extra
                    // lateral hop, using the sibling's copy of the link.
                    let sibling = LinkId {
                        level: link.level,
                        node: link.node ^ 1,
                        up: link.up,
                    };
                    if self.transport.map.link_dead(sibling) {
                        return Err(TransportEvent {
                            kind: TransportFaultKind::DeadLink { link },
                            src,
                            dst,
                            net_time: now,
                        });
                    }
                    detours += 1;
                    eff.push(sibling);
                }
            }
        }
        // A dead link under Reroute is the only way past the loop.
        self.stats.rerouted_messages += 1;
        self.stats.retransmit_cycles = self
            .stats
            .retransmit_cycles
            .saturating_add(detours * (self.config.router_latency + self.config.link_latency));
        Ok(Some((Cow::Owned(eff), detours)))
    }

    /// Silently corrupts `data` once per bad reduction adder on the
    /// merge path (the routers one level above each up-link).
    fn apply_bad_adders(&self, data: &mut [i32], links: &[LinkId], msg: u64) {
        let map = &self.transport.map;
        let radix = self.topology.radix() as u32;
        let bad: BTreeSet<(u8, u32)> = links
            .iter()
            .filter(|link| link.up)
            .map(|link| (link.level + 1, link.node / radix))
            .filter(|&(level, node)| map.adder_corrupts(level, node))
            .collect();
        for (level, node) in bad {
            map.corrupt_payload(
                data,
                msg,
                0x5add_0000 ^ ((u64::from(level) << 32) | u64::from(node)),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net() -> Network {
        Network::new(HTreeTopology::new(64, 8), NocConfig::default())
    }

    fn send(n: &mut Network, src: usize, dst: usize, bytes: usize, now: u64) -> u64 {
        n.transfer(src, dst, &[0; 8], bytes, now, None)
            .unwrap()
            .time
    }

    fn reduce(n: &mut Network, tiles: &[usize], dst: usize, bytes: usize, now: u64) -> u64 {
        n.reduce_transfer(tiles, dst, &[0; 8], bytes, now, None)
            .unwrap()
            .time
    }

    #[test]
    fn local_send_is_cheap() {
        let mut n = net();
        let t = send(&mut n, 3, 3, 16, 0);
        assert_eq!(t, 2 + 1); // router latency + 1 flit
    }

    #[test]
    fn farther_is_slower() {
        let mut n = net();
        let near = send(&mut n, 0, 1, 16, 0);
        n.reset();
        let far = send(&mut n, 0, 63, 16, 0);
        assert!(far > near, "far {far} should exceed near {near}");
    }

    #[test]
    fn bigger_messages_serialize() {
        let mut n = net();
        let small = send(&mut n, 0, 1, 16, 0);
        n.reset();
        let big = send(&mut n, 0, 1, 160, 0);
        assert_eq!(big - small, 9); // 10 flits vs 1 flit
    }

    #[test]
    fn contention_queues() {
        let mut n = net();
        let first = send(&mut n, 0, 7, 64, 0);
        // Second message over the same links at the same time must queue.
        let second = send(&mut n, 0, 7, 64, 0);
        assert!(second > first);
        assert!(n.stats().contention_cycles > 0);
        // Disjoint route suffers no queueing.
        let mut n2 = net();
        let a = send(&mut n2, 0, 7, 64, 0);
        let b = send(&mut n2, 8, 15, 64, 0);
        assert_eq!(a, b);
        assert_eq!(n2.stats().contention_cycles, 0);
    }

    #[test]
    fn reduction_scales_with_depth() {
        let mut n = net();
        let shallow = reduce(&mut n, &[0, 1, 2, 3], 0, 32, 0);
        n.reset();
        let deep = reduce(&mut n, &[0, 8, 16, 56], 0, 32, 0);
        assert!(deep > shallow);
        assert!(n.stats().reduction_adds > 0);
    }

    #[test]
    fn reduction_beats_serial_sends() {
        // The efficient in-network reduction is why the paper finds NoC
        // time is not a bottleneck (§7.3).
        let tiles: Vec<usize> = (0..32).collect();
        let mut n = net();
        let reduce_done = reduce(&mut n, &tiles, 0, 32, 0);
        let mut n2 = net();
        let mut serial_done = 0;
        for &t in &tiles {
            serial_done = serial_done.max(send(&mut n2, t, 0, 32, 0));
        }
        assert!(reduce_done <= serial_done);
    }

    #[test]
    fn reduce_to_outside_tile() {
        let mut n = net();
        // Reduction over tiles 0..8 (subtree of leaf router 0), delivered
        // to tile 63 outside the subtree.
        let t = reduce(&mut n, &[0, 1, 2, 3, 4, 5, 6, 7], 63, 32, 0);
        assert!(t > 0);
    }

    #[test]
    fn empty_reduce_is_noop() {
        let mut n = net();
        assert_eq!(reduce(&mut n, &[], 0, 32, 7), 7);
    }

    #[test]
    fn stats_accumulate() {
        let mut n = net();
        send(&mut n, 0, 9, 32, 0);
        send(&mut n, 1, 2, 16, 5);
        let stats = n.stats();
        assert_eq!(stats.messages, 2);
        assert_eq!(stats.bytes, 48);
        assert!(stats.flit_hops >= 4);
        n.reset();
        assert_eq!(n.stats(), NocStats::default());
    }
}
