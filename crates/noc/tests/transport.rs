//! Behavior of the transport-reliability layer: zero-cost default,
//! CRC/retransmit recovery, dead-link policies, and monotone degradation.
//!
//! The zero-cost tests compare a clean fault map against a network
//! without a fault model, whose exact timing `delivery.rs` pins.

use imp_noc::{
    HTreeTopology, LinkFaultMap, LinkFaultRates, Network, NocConfig, NocStats, TransportFaultKind,
    TransportPolicy,
};
use proptest::prelude::*;

const SEED: u64 = 2026;

fn net() -> Network {
    Network::new(HTreeTopology::new(64, 8), NocConfig::default())
}

fn faulty_net(rates: LinkFaultRates, policy: TransportPolicy) -> Network {
    let mut n = net();
    let map = LinkFaultMap::generate(SEED, &rates, n.topology());
    n.set_transport(map, policy);
    n
}

/// Drives the same traffic pattern through a network and returns
/// (final time, clean deliveries, corrupted deliveries, dropped).
fn drive(n: &mut Network, messages: usize) -> (u64, usize, usize, usize) {
    let payload: Vec<i32> = (0..8).collect();
    let mut last = 0;
    let (mut clean, mut corrupted, mut dropped) = (0, 0, 0);
    for m in 0..messages {
        let (src, dst) = ((m * 7) % 64, (m * 13 + 1) % 64);
        if let Ok(d) = n.transfer(src, dst, &payload, 32, (m as u64) * 10, None) {
            match &d.payload {
                Some(p) if *p == payload => clean += 1,
                Some(_) => corrupted += 1,
                None => dropped += 1,
            }
        }
        last = last.max(n.stats().retransmit_cycles);
    }
    (last, clean, corrupted, dropped)
}

/// Recorded loss-free delivery times of the messages in
/// [`no_transport_matches_send_exactly`].
const SEND_TIMES: [u64; 50] = [
    4, 21, 28, 35, 42, 49, 56, 63, 60, 77, 84, 91, 98, 105, 112, 119, 116, 133, 140, 147, 154, 161,
    168, 175, 172, 189, 196, 203, 210, 217, 224, 231, 228, 245, 252, 259, 266, 273, 280, 287, 284,
    301, 308, 315, 322, 329, 336, 343, 340, 357,
];

#[test]
fn no_transport_matches_send_exactly() {
    // transfer() without a fault model must be cycle- and stats-identical
    // to the recorded loss-free send() timing.
    let mut n = net();
    let payload = [5i32; 8];
    for m in 0..50u64 {
        let (src, dst) = ((m as usize * 3) % 64, (m as usize * 11) % 64);
        let d = n.transfer(src, dst, &payload, 32, m * 7, None).unwrap();
        assert_eq!(SEND_TIMES[m as usize], d.time);
        assert_eq!(d.payload.as_deref(), Some(&payload[..]));
        assert!(d.events.is_empty());
    }
    assert_eq!(
        n.stats(),
        NocStats {
            messages: 50,
            bytes: 1600,
            flit_hops: 344,
            router_traversals: 179,
            ..NocStats::default()
        }
    );
}

#[test]
fn clean_map_under_any_policy_is_zero_cost() {
    for policy in [
        TransportPolicy::Silent,
        TransportPolicy::FailFast,
        TransportPolicy::AckRetransmit {
            max: 8,
            backoff: 16,
        },
        TransportPolicy::Reroute,
    ] {
        let mut a = net();
        let mut b = faulty_net(LinkFaultRates::none(), policy);
        let payload = [7i32; 8];
        for m in 0..40u64 {
            let (src, dst) = ((m as usize * 5) % 64, (m as usize * 9 + 2) % 64);
            let reference = a.transfer(src, dst, &payload, 32, m * 3, None).unwrap();
            let d = b.transfer(src, dst, &payload, 32, m * 3, None).unwrap();
            assert_eq!(
                reference.time, d.time,
                "policy {policy} must be free when clean"
            );
            assert!(d.events.is_empty());
        }
        let (sa, sb) = (a.stats(), b.stats());
        assert_eq!(sa, sb, "clean transport must not perturb stats");
        assert_eq!(sb.crc_failures, 0);
        assert_eq!(sb.retransmissions, 0);
        assert_eq!(sb.retransmit_cycles, 0);
    }
}

#[test]
fn clean_map_reduce_transfer_is_zero_cost() {
    let tiles: Vec<usize> = (0..16).collect();
    let payload = [3i32; 4];
    let mut a = net();
    let reference = a.reduce_transfer(&tiles, 0, &payload, 16, 0, None).unwrap();
    let mut b = faulty_net(LinkFaultRates::none(), TransportPolicy::Silent);
    let d = b.reduce_transfer(&tiles, 0, &payload, 16, 0, None).unwrap();
    assert_eq!(reference.time, d.time);
    assert_eq!(d.payload.as_deref(), Some(&payload[..]));
    assert_eq!(a.stats(), b.stats());
}

#[test]
fn silent_policy_delivers_corruption_and_counts_it() {
    let mut n = faulty_net(LinkFaultRates::flips(0.2), TransportPolicy::Silent);
    let (_, clean, corrupted, _) = drive(&mut n, 200);
    assert!(corrupted > 0, "expected corrupted deliveries at 20% flips");
    assert!(clean > 0, "some messages should still get through");
    let stats = n.stats();
    assert_eq!(stats.crc_failures as usize, corrupted);
    assert_eq!(stats.retransmissions, 0, "silent never retransmits");
}

#[test]
fn ack_retransmit_recovers_all_corruption() {
    let mut n = faulty_net(
        LinkFaultRates::flips(0.2),
        TransportPolicy::AckRetransmit {
            max: 40,
            backoff: 8,
        },
    );
    let (_, clean, corrupted, dropped) = drive(&mut n, 200);
    assert_eq!(corrupted, 0, "retransmit must deliver clean payloads");
    assert_eq!(dropped, 0);
    assert_eq!(clean, 200);
    let stats = n.stats();
    assert!(stats.crc_failures > 0);
    assert!(stats.retransmissions > 0);
    assert!(stats.retransmit_cycles > 0);
}

#[test]
fn retransmit_overhead_is_monotone_in_flip_rate() {
    let policy = TransportPolicy::AckRetransmit {
        max: 16,
        backoff: 8,
    };
    let mut prev = 0u64;
    for rate in [0.0, 0.01, 0.05, 0.1, 0.2] {
        let mut n = faulty_net(LinkFaultRates::flips(rate), policy);
        drive(&mut n, 200);
        let cost = n.stats().retransmit_cycles;
        assert!(
            cost >= prev,
            "retransmit cycles must not drop as rate rises: {cost} < {prev} at {rate}"
        );
        prev = cost;
    }
    assert!(prev > 0, "top rate must show real overhead");
}

#[test]
fn failfast_reports_structured_event() {
    let mut n = faulty_net(LinkFaultRates::flips(0.5), TransportPolicy::FailFast);
    let payload = [1i32; 8];
    let mut failed = false;
    for m in 0..50 {
        let (src, dst) = ((m * 7) % 64, (m * 13 + 1) % 64);
        if let Err(ev) = n.transfer(src, dst, &payload, 32, 0, None) {
            assert!(matches!(ev.kind, TransportFaultKind::CrcMismatch { .. }));
            failed = true;
            break;
        }
    }
    assert!(failed, "50% flips must trip FailFast within 50 messages");
}

#[test]
fn dead_link_policies() {
    let rates = LinkFaultRates::dead_links(0.15);
    let map = LinkFaultMap::generate(SEED, &rates, &HTreeTopology::new(64, 8));
    assert!(map.dead_link_count() > 0, "seed must kill some links");

    // Silent: drops.
    let mut n = faulty_net(rates, TransportPolicy::Silent);
    let (_, _, _, dropped) = drive(&mut n, 200);
    assert!(dropped > 0);
    assert_eq!(n.stats().dropped_messages as usize, dropped);

    // FailFast: structured dead-link error.
    let mut n = faulty_net(rates, TransportPolicy::FailFast);
    let payload = [1i32; 8];
    let mut saw_dead = false;
    for m in 0..200 {
        let (src, dst) = ((m * 7) % 64, (m * 13 + 1) % 64);
        if let Err(ev) = n.transfer(src, dst, &payload, 32, 0, None) {
            assert!(matches!(ev.kind, TransportFaultKind::DeadLink { .. }));
            saw_dead = true;
        }
    }
    assert!(saw_dead);

    // AckRetransmit: the budget exhausts (a dead link never recovers).
    let mut n = faulty_net(rates, TransportPolicy::AckRetransmit { max: 4, backoff: 2 });
    let mut exhausted = false;
    for m in 0..200 {
        let (src, dst) = ((m * 7) % 64, (m * 13 + 1) % 64);
        if let Err(ev) = n.transfer(src, dst, &payload, 32, 0, None) {
            assert!(matches!(
                ev.kind,
                TransportFaultKind::RetransmitExhausted { attempts: 5 }
            ));
            exhausted = true;
        }
    }
    assert!(exhausted);
    assert!(n.stats().retransmissions > 0);
}

#[test]
fn reroute_detours_survive_dead_links() {
    let rates = LinkFaultRates::dead_links(0.15);
    let mut n = faulty_net(rates, TransportPolicy::Reroute);
    let payload: Vec<i32> = (0..8).collect();
    let mut delivered_over_detour = 0;
    for m in 0..200 {
        let (src, dst) = ((m * 7) % 64, (m * 13 + 1) % 64);
        match n.transfer(src, dst, &payload, 32, 0, None) {
            Ok(d) => {
                // Reroute never delivers corrupted payloads.
                if let Some(p) = &d.payload {
                    assert_eq!(*p, payload);
                    delivered_over_detour += 1;
                }
            }
            Err(ev) => {
                // Only a dead sibling is fatal under Reroute.
                assert!(matches!(ev.kind, TransportFaultKind::DeadLink { .. }));
            }
        }
    }
    assert!(delivered_over_detour > 0);
    assert!(n.stats().rerouted_messages > 0, "detours must be counted");
    assert!(n.stats().retransmit_cycles > 0, "detours cost cycles");
}

#[test]
fn deadline_bounds_hopeless_retransmission() {
    // An effectively unbounded retransmit budget over a dead link must
    // terminate via the deadline instead of spinning.
    let rates = LinkFaultRates::dead_links(1.0);
    let mut n = faulty_net(
        rates,
        TransportPolicy::AckRetransmit {
            max: u32::MAX,
            backoff: 64,
        },
    );
    let payload = [1i32; 8];
    let err = n
        .transfer(0, 63, &payload, 32, 0, Some(100_000))
        .unwrap_err();
    assert!(matches!(
        err.kind,
        TransportFaultKind::DeadlineExceeded { .. }
    ));
    assert!(n.stats().retransmit_cycles >= 100_000 - 128);
}

#[test]
fn reduce_transfer_recovers_like_unicast() {
    let tiles: Vec<usize> = (0..32).collect();
    let payload: Vec<i32> = (0..4).map(|i| i * 100).collect();
    let mut n = faulty_net(
        LinkFaultRates::flips(0.05),
        TransportPolicy::AckRetransmit {
            max: 16,
            backoff: 8,
        },
    );
    for round in 0..20u64 {
        let d = n
            .reduce_transfer(&tiles, 0, &payload, 16, round * 1000, None)
            .unwrap();
        assert_eq!(d.payload.as_deref(), Some(&payload[..]));
    }
    assert!(n.stats().crc_failures > 0, "reduction links must flip too");
}

#[test]
fn bad_adders_corrupt_reductions_silently() {
    let rates = LinkFaultRates {
        bad_reduce_adder: 0.5,
        ..LinkFaultRates::none()
    };
    let mut n = faulty_net(rates, TransportPolicy::AckRetransmit { max: 8, backoff: 4 });
    let tiles: Vec<usize> = (0..64).collect();
    let payload: Vec<i32> = (0..8).collect();
    let d = n.reduce_transfer(&tiles, 0, &payload, 32, 0, None).unwrap();
    let delivered = d.payload.unwrap();
    assert_ne!(delivered, payload, "a bad adder must corrupt the sum");
    // The poison is silent: no CRC events, no error, nothing in `events`.
    assert!(d.events.is_empty());
    assert_eq!(n.stats().crc_failures, 0);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn transfer_without_faults_is_bit_identical_to_send(
        src in 0usize..64,
        dst in 0usize..64,
        bytes in 1usize..256,
        now in 0u64..10_000,
        seed in 0u64..1000,
    ) {
        let payload = [9i32; 8];
        let mut a = net();
        let t = a.transfer(src, dst, &payload, bytes, now, None).unwrap().time;
        let mut b = net();
        let map = LinkFaultMap::generate(seed, &LinkFaultRates::none(), b.topology());
        b.set_transport(map, TransportPolicy::Silent);
        let d = b.transfer(src, dst, &payload, bytes, now, None).unwrap();
        prop_assert_eq!(t, d.time);
        prop_assert_eq!(a.stats(), b.stats());
        prop_assert_eq!(d.payload.unwrap(), payload.to_vec());
    }
}
