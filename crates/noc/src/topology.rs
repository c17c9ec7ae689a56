//! H-tree topology: an 8-ary tree of routers over the tiles.
//!
//! With 4,096 tiles and radix 8 there are three router levels —
//! 512 leaf routers, 64 mid-level routers and 8 top routers — 584 routers
//! in total, each with 9 ports (8 children + 1 parent), matching the
//! Table 4 inventory. The parent port of the top level reaches the
//! external-I/O root.

use std::fmt;

/// Identifies one upward link in the tree: the link from `node` at `level`
/// to its parent at `level + 1`. Level 0 nodes are tiles.
///
/// A physical H-tree link is bidirectional; the contention model tracks
/// up and down directions separately, by [`LinkId::up`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId {
    /// Tree level of the child endpoint (0 = tile).
    pub level: u8,
    /// Child node index within its level.
    pub node: u32,
    /// `true` for the upward direction (child → parent).
    pub up: bool,
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "L{}#{}{}",
            self.level,
            self.node,
            if self.up { "↑" } else { "↓" }
        )
    }
}

/// The H-tree topology over a power-of-radix number of tiles.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HTreeTopology {
    tiles: usize,
    radix: usize,
    levels: u8,
}

impl HTreeTopology {
    /// Builds the topology.
    ///
    /// # Panics
    /// Panics if `tiles` is not a positive power of `radix`, or if
    /// `radix < 2`.
    pub fn new(tiles: usize, radix: usize) -> Self {
        assert!(radix >= 2, "radix must be at least 2");
        assert!(tiles >= 1, "need at least one tile");
        let mut level_size = tiles;
        let mut levels = 0u8;
        while level_size > 1 {
            assert!(
                level_size.is_multiple_of(radix),
                "tile count {tiles} is not a power of radix {radix}"
            );
            level_size /= radix;
            levels += 1;
        }
        HTreeTopology {
            tiles,
            radix,
            levels,
        }
    }

    /// The paper's chip: 4,096 tiles, radix 8.
    pub fn chip() -> Self {
        HTreeTopology::new(4096, 8)
    }

    /// Number of tiles (leaves).
    pub fn tiles(&self) -> usize {
        self.tiles
    }

    /// Router radix (children per router).
    pub fn radix(&self) -> usize {
        self.radix
    }

    /// Number of router levels above the tiles.
    pub fn levels(&self) -> u8 {
        self.levels
    }

    /// Total number of routers (all nodes above tile level, including the
    /// root that doubles as the external-I/O port).
    ///
    /// For the 4,096-tile radix-8 chip: 512 + 64 + 8 + 1 = 585; Table 4
    /// counts the 584 inter-tile routers and treats the root as external
    /// I/O.
    pub fn router_count(&self) -> usize {
        let mut count = 0;
        let mut level_size = self.tiles;
        for _ in 0..self.levels {
            level_size /= self.radix;
            count += level_size;
        }
        count
    }

    /// The ancestor of `tile` at `level` (level 0 returns the tile itself).
    pub fn ancestor(&self, tile: usize, level: u8) -> u32 {
        (tile / self.radix.pow(u32::from(level))) as u32
    }

    /// Level of the lowest common ancestor of two tiles (0 means same
    /// tile).
    pub fn common_ancestor_level(&self, a: usize, b: usize) -> u8 {
        let mut level = 0u8;
        let mut x = a;
        let mut y = b;
        while x != y {
            x /= self.radix;
            y /= self.radix;
            level += 1;
        }
        level
    }

    /// Number of link traversals on the route from `a` to `b`
    /// (up to the common ancestor, then down).
    pub fn hops(&self, a: usize, b: usize) -> usize {
        2 * usize::from(self.common_ancestor_level(a, b))
    }

    /// The ordered list of directed links a message from `a` to `b`
    /// traverses.
    ///
    /// # Panics
    /// Panics if either tile index is out of range.
    pub fn route(&self, a: usize, b: usize) -> Vec<LinkId> {
        assert!(a < self.tiles && b < self.tiles, "tile out of range");
        let meet = self.common_ancestor_level(a, b);
        let mut links = Vec::with_capacity(2 * usize::from(meet));
        // Ascend from a.
        for level in 0..meet {
            links.push(LinkId {
                level,
                node: self.ancestor(a, level),
                up: true,
            });
        }
        // Descend to b (top-down).
        for level in (0..meet).rev() {
            links.push(LinkId {
                level,
                node: self.ancestor(b, level),
                up: false,
            });
        }
        links
    }

    /// Links used by a reduction over `tiles`: every upward link from each
    /// participating tile to the root of the smallest subtree covering all
    /// of them, deduplicated (the routers merge flows by adding).
    pub fn reduction_links(&self, tiles: &[usize]) -> Vec<LinkId> {
        if tiles.is_empty() {
            return Vec::new();
        }
        let top = tiles.iter().skip(1).fold(0u8, |acc, &t| {
            acc.max(self.common_ancestor_level(tiles[0], t))
        });
        let mut links: Vec<LinkId> = Vec::new();
        for &tile in tiles {
            for level in 0..top {
                let link = LinkId {
                    level,
                    node: self.ancestor(tile, level),
                    up: true,
                };
                if !links.contains(&link) {
                    links.push(link);
                }
            }
        }
        links
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn chip_matches_table4() {
        let topo = HTreeTopology::chip();
        assert_eq!(topo.tiles(), 4096);
        assert_eq!(topo.levels(), 4);
        // 512 + 64 + 8 + 1 routers above the tiles; Table 4 counts 584
        // inter-tile routers (the root is the external-I/O port).
        assert_eq!(topo.router_count(), 512 + 64 + 8 + 1);
    }

    #[test]
    fn ancestor_math() {
        let topo = HTreeTopology::new(64, 8);
        assert_eq!(topo.ancestor(63, 0), 63);
        assert_eq!(topo.ancestor(63, 1), 7);
        assert_eq!(topo.ancestor(63, 2), 0);
        assert_eq!(topo.common_ancestor_level(0, 0), 0);
        assert_eq!(topo.common_ancestor_level(0, 7), 1);
        assert_eq!(topo.common_ancestor_level(0, 8), 2);
        assert_eq!(topo.common_ancestor_level(0, 63), 2);
    }

    #[test]
    fn routes() {
        let topo = HTreeTopology::new(64, 8);
        assert!(topo.route(5, 5).is_empty());
        let route = topo.route(0, 7);
        assert_eq!(route.len(), 2);
        assert_eq!(
            route[0],
            LinkId {
                level: 0,
                node: 0,
                up: true
            }
        );
        assert_eq!(
            route[1],
            LinkId {
                level: 0,
                node: 7,
                up: false
            }
        );
        let route = topo.route(0, 63);
        assert_eq!(route.len(), 4);
        assert!(route[0].up && route[1].up);
        assert!(!route[2].up && !route[3].up);
    }

    #[test]
    fn hops_symmetry() {
        let topo = HTreeTopology::chip();
        assert_eq!(topo.hops(0, 4095), 8);
        assert_eq!(topo.hops(0, 1), 2);
        assert_eq!(topo.hops(123, 123), 0);
    }

    #[test]
    fn reduction_links_dedupe() {
        let topo = HTreeTopology::new(64, 8);
        // Tiles 0..8 share a leaf router; reduction stays below level 1.
        let links = topo.reduction_links(&[0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(links.len(), 8);
        assert!(links.iter().all(|l| l.level == 0 && l.up));
        // Adding tile 8 forces the reduction up one level.
        let links = topo.reduction_links(&[0, 1, 8]);
        assert_eq!(
            links.len(),
            3 /* level-0 ups */ + 2 /* level-1 ups from routers 0 and 1 */
        );
        assert!(topo.reduction_links(&[]).is_empty());
        assert!(topo.reduction_links(&[5]).is_empty());
    }

    #[test]
    #[should_panic(expected = "power of radix")]
    fn bad_tile_count() {
        let _ = HTreeTopology::new(100, 8);
    }

    proptest! {
        #[test]
        fn route_endpoints_consistent(a in 0usize..4096, b in 0usize..4096) {
            let topo = HTreeTopology::chip();
            let route = topo.route(a, b);
            prop_assert_eq!(route.len(), topo.hops(a, b));
            if a != b {
                prop_assert_eq!(route[0], LinkId { level: 0, node: a as u32, up: true });
                prop_assert_eq!(
                    *route.last().unwrap(),
                    LinkId { level: 0, node: b as u32, up: false }
                );
            }
        }

        #[test]
        fn hops_are_symmetric(a in 0usize..4096, b in 0usize..4096) {
            let topo = HTreeTopology::chip();
            prop_assert_eq!(topo.hops(a, b), topo.hops(b, a));
        }
    }
}
