//! Exact delivery times and counters for a fixed traffic pattern, and the
//! message-id rules that keep transport fault sampling reproducible.
//!
//! The pattern runs on a network without a fault model and on a clean
//! fault map under every [`TransportPolicy`]; all five must produce the
//! same recorded `(time, NocStats)` sequence. These numbers are the
//! reference the zero-cost tests in `transport.rs` lean on.

use imp_noc::{
    Delivery, HTreeTopology, LinkFaultMap, LinkFaultRates, Network, NocConfig, NocStats,
    TransportPolicy,
};

const PAYLOAD: [i32; 8] = [1, -2, 3, -4, 5, -6, 7, -8];

const POLICIES: [TransportPolicy; 4] = [
    TransportPolicy::Silent,
    TransportPolicy::FailFast,
    TransportPolicy::AckRetransmit {
        max: 8,
        backoff: 16,
    },
    TransportPolicy::Reroute,
];

fn net() -> Network {
    Network::new(HTreeTopology::new(64, 8), NocConfig::default())
}

fn with_map(rates: LinkFaultRates, policy: TransportPolicy) -> Network {
    let mut n = net();
    let map = LinkFaultMap::generate(2026, &rates, n.topology());
    n.set_transport(map, policy);
    n
}

/// One step of the pattern: a unicast `(src, dst)` or a reduction over
/// `tiles` delivered to `dst`, injected at `now`.
enum Step {
    Unicast(usize, usize, u64),
    Reduce(&'static [usize], usize, u64),
}

const PATTERN: [Step; 9] = [
    // Local unicast: only the tile router.
    Step::Unicast(5, 5, 0),
    // Cross-tree unicast: up to the root and back down.
    Step::Unicast(0, 63, 10),
    // The same route at the same time queues behind the first message.
    Step::Unicast(0, 63, 10),
    // Shares tile 0's up-link with the queued messages.
    Step::Unicast(0, 7, 12),
    // Reduction over one leaf subtree, delivered outside it.
    Step::Reduce(&[0, 1, 2, 3, 4, 5, 6, 7], 63, 100),
    // Reduction across subtrees, delivered inside its own tree.
    Step::Reduce(&[0, 8, 16, 56], 0, 200),
    // One-tile reductions, delivered to that tile and to another one.
    Step::Reduce(&[9], 9, 300),
    Step::Reduce(&[9], 12, 300),
    // Empty reduction: a no-op delivered at `now`.
    Step::Reduce(&[], 0, 400),
];

/// Runs [`PATTERN`], returning each step's delivery time and the
/// counters after it.
fn run_pattern(n: &mut Network) -> Vec<(u64, NocStats)> {
    PATTERN
        .iter()
        .map(|step| {
            let delivery: Delivery = match *step {
                Step::Unicast(src, dst, now) => n.transfer(src, dst, &PAYLOAD, 32, now, None),
                Step::Reduce(tiles, dst, now) => {
                    n.reduce_transfer(tiles, dst, &PAYLOAD, 32, now, None)
                }
            }
            .expect("a clean fabric delivers");
            assert_eq!(delivery.payload.as_deref(), Some(&PAYLOAD[..]));
            assert!(delivery.events.is_empty());
            (delivery.time, n.stats())
        })
        .collect()
}

/// Cumulative counters on a fault-free fabric: messages, bytes,
/// flit-hops, router traversals, reduction adds, contention cycles.
fn stats(c: [u64; 6]) -> NocStats {
    NocStats {
        messages: c[0],
        bytes: c[1],
        flit_hops: c[2],
        router_traversals: c[3],
        reduction_adds: c[4],
        contention_cycles: c[5],
        ..NocStats::default()
    }
}

/// The recorded `(time, counters)` of every [`PATTERN`] step.
fn expected() -> Vec<(u64, NocStats)> {
    EXPECTED.iter().map(|&(t, c)| (t, stats(c))).collect()
}

const EXPECTED: [(u64, [u64; 6]); 9] = [
    (4, [1, 32, 0, 1, 0, 0]),
    (24, [2, 64, 8, 5, 0, 0]),
    (29, [3, 96, 16, 9, 0, 5]),
    (28, [4, 128, 20, 11, 0, 13]),
    // The outside leg is its own unicast message.
    (120, [6, 192, 44, 23, 8, 13]),
    (218, [7, 224, 60, 33, 16, 13]),
    (304, [8, 256, 60, 33, 16, 13]),
    (310, [10, 320, 64, 35, 16, 13]),
    // The empty reduction counts nothing.
    (400, [10, 320, 64, 35, 16, 13]),
];

#[test]
fn pattern_matches_recorded_values_without_a_fault_model() {
    let got = run_pattern(&mut net());
    assert_eq!(got, expected());
}

#[test]
fn pattern_matches_recorded_values_on_a_clean_map_under_every_policy() {
    for policy in POLICIES {
        let got = run_pattern(&mut with_map(LinkFaultRates::none(), policy));
        assert_eq!(got, expected(), "{policy}");
    }
}

/// The outcome of one cross-tree probe transfer sent with message id
/// `id` through a flaky fabric, optionally after `prefix`.
fn probe(id: u64, prefix: impl FnOnce(&mut Network)) -> (Delivery, NocStats) {
    let mut n = with_map(LinkFaultRates::flips(0.3), TransportPolicy::Silent);
    n.set_next_msg_id(id);
    prefix(&mut n);
    let before = n.stats();
    let delivery = n
        .transfer(0, 63, &PAYLOAD, 32, 1_000, None)
        .expect("silent delivers");
    let after = n.stats();
    (
        delivery,
        NocStats {
            crc_failures: after.crc_failures - before.crc_failures,
            ..NocStats::default()
        },
    )
}

#[test]
fn message_ids_are_consumed_only_by_fabric_traffic() {
    // The probe must tell ids apart, or the checks below prove nothing.
    assert!(
        (0..16).any(|id| probe(id, |_| {}) != probe(id + 1, |_| {})),
        "flip sampling must depend on the message id"
    );
    for id in 0..16 {
        let unshifted = probe(id, |_| {});
        let shifted = probe(id + 1, |_| {});
        // A same-tile unicast never reaches a link and takes no id.
        let local = probe(id, |n| {
            n.transfer(5, 5, &PAYLOAD, 32, 0, None).unwrap();
        });
        assert_eq!(local, unshifted, "same-tile unicast, id {id}");
        // An empty reduction is a no-op and takes no id.
        let empty = probe(id, |n| {
            n.reduce_transfer(&[], 0, &PAYLOAD, 32, 0, None).unwrap();
        });
        assert_eq!(empty, unshifted, "empty reduction, id {id}");
        // A one-tile reduction takes one id, like any reduction.
        let single = probe(id, |n| {
            n.reduce_transfer(&[9], 9, &PAYLOAD, 32, 0, None).unwrap();
        });
        assert_eq!(single, shifted, "one-tile reduction, id {id}");
    }
}

#[test]
fn dropped_unicast_lands_at_now_and_dropped_reduction_pays_its_timing() {
    let mut dead = with_map(LinkFaultRates::dead_links(1.0), TransportPolicy::Silent);
    let d = dead.transfer(0, 63, &PAYLOAD, 32, 40, None).unwrap();
    assert_eq!((d.time, d.payload), (40, None));
    let unicast = dead.stats();
    assert_eq!(unicast.dropped_messages, 1);
    assert_eq!((unicast.messages, unicast.flit_hops), (1, 0));

    let tiles = [0, 1, 2, 3, 4, 5, 6, 7];
    dead.reset();
    let d = dead
        .reduce_transfer(&tiles, 63, &PAYLOAD, 32, 40, None)
        .unwrap();
    assert_eq!(d.payload, None);
    let mut clean = net();
    let reference = clean
        .reduce_transfer(&tiles, 63, &PAYLOAD, 32, 40, None)
        .unwrap();
    assert_eq!(d.time, reference.time);
    assert_eq!(
        dead.stats(),
        NocStats {
            dropped_messages: 1,
            ..clean.stats()
        }
    );
}
