//! Property tests over the H-tree network: routing sanity, contention
//! monotonicity, and reduction-vs-unicast dominance.

use imp_noc::{HTreeTopology, Network, NocConfig};
use proptest::prelude::*;

fn net() -> Network {
    Network::new(HTreeTopology::chip(), NocConfig::default())
}

/// Delivery time of a `bytes`-wide unicast on a fault-free fabric.
fn send(n: &mut Network, src: usize, dst: usize, bytes: usize, now: u64) -> u64 {
    n.transfer(src, dst, &[0; 8], bytes, now, None)
        .expect("a fault-free fabric delivers")
        .time
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn delivery_never_precedes_injection(
        src in 0usize..4096,
        dst in 0usize..4096,
        bytes in 1usize..512,
        now in 0u64..10_000,
    ) {
        let mut n = net();
        let t = send(&mut n, src, dst, bytes, now);
        prop_assert!(t > now);
    }

    #[test]
    fn latency_monotone_in_distance(a in 0usize..4096, b in 0usize..4096) {
        // A message crossing more tree levels takes at least as long as a
        // same-subtree message of equal size.
        let topo = HTreeTopology::chip();
        let near_dst = (a / 8) * 8 + (a + 1) % 8; // same leaf router
        let mut n1 = net();
        let near = send(&mut n1, a, near_dst, 64, 0);
        let mut n2 = net();
        let far = send(&mut n2, a, b, 64, 0);
        if topo.hops(a, b) > topo.hops(a, near_dst) {
            prop_assert!(far >= near);
        }
    }

    #[test]
    fn contention_only_delays(
        src in 0usize..4096,
        dst in 0usize..4096,
        k in 1usize..8,
    ) {
        // Re-sending the same message k times only ever pushes later.
        let mut n = net();
        let mut last = 0;
        for _ in 0..k {
            let t = send(&mut n, src, dst, 64, 0);
            prop_assert!(t >= last);
            last = t;
        }
        prop_assert!(n.stats().messages == k as u64);
    }

    #[test]
    fn reduction_beats_serial_unicast(
        seed_tiles in prop::collection::btree_set(0usize..4096, 2..32),
    ) {
        let tiles: Vec<usize> = seed_tiles.into_iter().collect();
        let dst = tiles[0];
        let mut reducing = net();
        let reduce_done = reducing
            .reduce_transfer(&tiles, dst, &[0; 8], 32, 0, None)
            .expect("a fault-free fabric delivers")
            .time;
        let mut serial = net();
        let mut serial_done = 0;
        for &t in &tiles {
            if t != dst {
                serial_done = serial_done.max(send(&mut serial, t, dst, 32, 0));
            }
        }
        // In-network adders merge flows, so tree reduction is never worse
        // than funneling every value through the destination's links.
        prop_assert!(
            reduce_done <= serial_done.max(1) * 2,
            "reduce {reduce_done} vs serial {serial_done}"
        );
    }

    #[test]
    fn routes_stay_inside_the_tree(a in 0usize..4096, b in 0usize..4096) {
        let topo = HTreeTopology::chip();
        for link in topo.route(a, b) {
            prop_assert!(link.level < topo.levels());
        }
        // Ancestors chain consistently.
        for level in 0..topo.levels() {
            let anc = topo.ancestor(a, level);
            let parent = topo.ancestor(a, level + 1);
            prop_assert_eq!(anc as usize / topo.radix(), parent as usize);
        }
    }

    #[test]
    fn route_is_reverse_of_opposite_route(a in 0usize..4096, b in 0usize..4096) {
        // route(a, b) must be route(b, a) walked backwards with every
        // link direction flipped.
        let topo = HTreeTopology::chip();
        let forward = topo.route(a, b);
        let mut backward: Vec<_> = topo.route(b, a);
        backward.reverse();
        for link in &mut backward {
            link.up = !link.up;
        }
        prop_assert_eq!(forward, backward);
    }

    #[test]
    fn hop_count_matches_ancestor_formula(a in 0usize..4096, b in 0usize..4096) {
        // The route climbs to the lowest common ancestor and back down, so
        // its length is twice the LCA level — equivalently
        // 2 * (levels - depth_from_root(LCA)).
        let topo = HTreeTopology::chip();
        let meet = topo.common_ancestor_level(a, b);
        prop_assert_eq!(topo.hops(a, b), 2 * usize::from(meet));
        prop_assert_eq!(topo.route(a, b).len(), 2 * usize::from(meet));
        prop_assert!(meet <= topo.levels());
    }

    #[test]
    fn reduction_links_cover_each_tile_exactly_once(
        seed_tiles in prop::collection::btree_set(0usize..4096, 2..48),
    ) {
        let topo = HTreeTopology::chip();
        let tiles: Vec<usize> = seed_tiles.into_iter().collect();
        let links = topo.reduction_links(&tiles);
        // All links point up and are unique (routers merge flows).
        for link in &links {
            prop_assert!(link.up);
        }
        let unique: std::collections::BTreeSet<_> = links.iter().collect();
        prop_assert_eq!(unique.len(), links.len(), "duplicate reduction link");
        // Every participating tile contributes its level-0 up-link exactly
        // once — unless all tiles share a leaf-level ancestor of level 0
        // (single tile), which the 2.. bound above excludes.
        let level0: Vec<_> = links.iter().filter(|l| l.level == 0).collect();
        prop_assert_eq!(level0.len(), tiles.len());
        for &tile in &tiles {
            let mine = level0
                .iter()
                .filter(|l| l.node as usize == tile)
                .count();
            prop_assert_eq!(mine, 1, "tile {} covered {} times", tile, mine);
        }
    }
}
