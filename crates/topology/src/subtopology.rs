//! Link masks for the *dynamic topologies* extension (§5.2).
//!
//! "From a flattened butterfly, we can selectively disable links, thereby
//! changing the topology to a more conventional mesh or torus."

use crate::{FabricGraph, LinkId, PortTarget, RoutingTopology, SwitchId};
use serde::{Deserialize, Serialize};

/// A named subtopology obtained by disabling flattened-butterfly links.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SubtopologyKind {
    /// All links enabled: the full flattened butterfly.
    FlattenedButterfly,
    /// Only adjacent-digit links in each dimension: a multidimensional
    /// mesh (lowest power, lowest bisection).
    Mesh,
    /// Adjacent-digit links plus the wraparound link in each dimension:
    /// a torus ("as the offered demand increases, we can enable additional
    /// wrap-around links to create a torus with greater bisection
    /// bandwidth than the mesh", §5.2).
    Torus,
}

/// A per-link enable mask over a [`FabricGraph`].
///
/// Host links are always enabled — only inter-switch links participate in
/// dynamic topology changes.
///
/// ```
/// use epnet_topology::{FlattenedButterfly, LinkMask, SubtopologyKind};
/// let g = FlattenedButterfly::new(2, 4, 3)?.build_fabric();
/// let mesh = LinkMask::subtopology(&g, SubtopologyKind::Mesh);
/// let torus = LinkMask::subtopology(&g, SubtopologyKind::Torus);
/// assert!(mesh.enabled_links() < torus.enabled_links());
/// assert_eq!(
///     LinkMask::subtopology(&g, SubtopologyKind::FlattenedButterfly).enabled_links(),
///     g.num_links(),
/// );
/// # Ok::<(), epnet_topology::TopologyError>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LinkMask {
    enabled: Vec<bool>,
    /// Change stamp: bumped on every [`enable`](Self::enable) /
    /// [`disable`](Self::disable) so derived structures (e.g. a
    /// [`RouteTable`](crate::RouteTable)) can detect staleness without
    /// comparing the whole bit-vector. Not part of equality.
    generation: u64,
}

/// Equality compares the enabled bits only — two masks describing the
/// same subtopology are equal regardless of their edit histories.
impl PartialEq for LinkMask {
    fn eq(&self, other: &Self) -> bool {
        self.enabled == other.enabled
    }
}

impl Eq for LinkMask {}

impl LinkMask {
    /// A mask with every link enabled.
    pub fn all_enabled(graph: &FabricGraph) -> Self {
        Self {
            enabled: vec![true; graph.num_links()],
            generation: 0,
        }
    }

    /// Builds the mask realising a [`SubtopologyKind`] over `graph`.
    ///
    /// In `Mesh` mode a dimension link between digits `a` and `b` is kept
    /// when `|a − b| = 1`; `Torus` additionally keeps the `0 ↔ k−1`
    /// wraparound.
    ///
    /// # Panics
    ///
    /// Panics for non-butterfly fabrics (a Clos has no dimension rings
    /// to thin out) unless the requested kind keeps every link.
    pub fn subtopology(graph: &FabricGraph, kind: SubtopologyKind) -> Self {
        let mut mask = Self::all_enabled(graph);
        if kind == SubtopologyKind::FlattenedButterfly {
            return mask;
        }
        assert_eq!(
            graph.kind(),
            crate::FabricKind::FlattenedButterfly,
            "mesh/torus subtopologies are defined over flattened butterflies"
        );
        let k = graph.radix();
        for s in 0..graph.num_switches() {
            let sid = SwitchId::new(s as u32);
            let coord = graph.switch_coord(sid);
            for p in graph.concentration() as usize..graph.ports_per_switch() {
                let pid = crate::PortIndex::new(p as u16);
                let PortTarget::Switch { switch: peer, .. } = graph.port_target(sid, pid) else {
                    continue;
                };
                let peer_coord = graph.switch_coord(peer);
                // Exactly one dimension differs for a direct link.
                let dim = (0..graph.switch_dims())
                    .find(|&d| coord.digit(d) != peer_coord.digit(d))
                    .expect("inter-switch link differs in one dimension");
                let a = coord.digit(dim);
                let b = peer_coord.digit(dim);
                let adjacent = a.abs_diff(b) == 1;
                let wrap = a.abs_diff(b) == k - 1;
                let keep = match kind {
                    SubtopologyKind::FlattenedButterfly => true,
                    SubtopologyKind::Mesh => adjacent,
                    SubtopologyKind::Torus => adjacent || wrap,
                };
                if !keep {
                    let link = graph.link_of(graph.output_channel(sid, pid));
                    mask.disable(link);
                }
            }
        }
        mask
    }

    /// Whether a link is enabled.
    #[inline]
    pub fn is_enabled(&self, link: LinkId) -> bool {
        self.enabled[link.index()]
    }

    /// Enables a link, bumping the change [`generation`](Self::generation).
    pub fn enable(&mut self, link: LinkId) {
        self.enabled[link.index()] = true;
        self.generation += 1;
    }

    /// Disables a link, bumping the change [`generation`](Self::generation).
    pub fn disable(&mut self, link: LinkId) {
        self.enabled[link.index()] = false;
        self.generation += 1;
    }

    /// The change stamp — strictly increases across every mutation.
    ///
    /// Consumers that precompute over a mask (route tables) record the
    /// generation at build time and rebuild lazily when it moves.
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The per-link enabled bits, indexed by [`LinkId`].
    pub(crate) fn bits(&self) -> &[bool] {
        &self.enabled
    }

    /// Number of enabled links.
    pub fn enabled_links(&self) -> usize {
        self.enabled.iter().filter(|&&e| e).count()
    }

    /// Total links covered by the mask.
    pub fn len(&self) -> usize {
        self.enabled.len()
    }

    /// Whether the mask covers zero links (only for a degenerate graph).
    pub fn is_empty(&self) -> bool {
        self.enabled.is_empty()
    }

    /// Iterates over the enabled state of every link.
    pub fn iter(&self) -> impl Iterator<Item = (LinkId, bool)> + '_ {
        self.enabled
            .iter()
            .enumerate()
            .map(|(i, &e)| (LinkId::new(i as u32), e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FlattenedButterfly, HostId};

    fn graph() -> FabricGraph {
        FlattenedButterfly::new(2, 5, 3).unwrap().build_fabric()
    }

    #[test]
    fn mesh_keeps_adjacent_links_only() {
        let g = graph();
        let f = FlattenedButterfly::new(2, 5, 3).unwrap();
        let mesh = LinkMask::subtopology(&g, SubtopologyKind::Mesh);
        // Per dimension, a k-node line has k−1 links per group;
        // fully-connected has k(k−1)/2. Host links always stay.
        let k = 5usize;
        let groups = g.num_switches() / k * g.switch_dims();
        let expect = g.num_hosts() + groups * (k - 1);
        assert_eq!(mesh.enabled_links(), expect);
        assert!(mesh.enabled_links() < f.total_links());
    }

    #[test]
    fn torus_adds_one_wraparound_per_ring() {
        let g = graph();
        let mesh = LinkMask::subtopology(&g, SubtopologyKind::Mesh);
        let torus = LinkMask::subtopology(&g, SubtopologyKind::Torus);
        let k = 5usize;
        let rings = g.num_switches() / k * g.switch_dims();
        assert_eq!(torus.enabled_links(), mesh.enabled_links() + rings);
    }

    #[test]
    fn host_links_always_enabled() {
        let g = graph();
        let mesh = LinkMask::subtopology(&g, SubtopologyKind::Mesh);
        for h in 0..g.num_hosts() {
            let inj = g.injection_channel(HostId::new(h as u32));
            assert!(mesh.is_enabled(g.link_of(inj)));
        }
    }

    #[test]
    fn masked_routing_still_reaches_every_destination() {
        // Walk greedily from every switch to a fixed destination under the
        // mesh mask; must terminate at the destination switch.
        let g = graph();
        let mesh = LinkMask::subtopology(&g, SubtopologyKind::Mesh);
        let dest = HostId::new(37 % g.num_hosts() as u32);
        let dest_switch = g.host_switch(dest);
        let mut out = Vec::new();
        for s in 0..g.num_switches() {
            let mut at = SwitchId::new(s as u32);
            let mut steps = 0;
            while at != dest_switch {
                g.candidate_ports_masked(at, dest, Some(&mesh), &mut out);
                assert!(!out.is_empty(), "mesh mask stranded switch {at}");
                let PortTarget::Switch { switch, .. } = g.port_target(at, out[0]) else {
                    panic!("expected switch hop");
                };
                at = switch;
                steps += 1;
                assert!(
                    steps <= g.switch_dims() * g.radix() as usize,
                    "routing loop"
                );
            }
        }
    }

    #[test]
    fn torus_wrap_is_used_when_shorter() {
        // From digit 0 to digit k−1 under torus mask, the single wrap step
        // should be chosen over k−2 line steps.
        let g = graph();
        let torus = LinkMask::subtopology(&g, SubtopologyKind::Torus);
        // Switch (0,0) to a host on switch (4,0): differs in dim 0,
        // digits 0 -> 4 with k = 5, wrap distance 1.
        let dest = HostId::new(4 * g.concentration() as u32); // switch 4 = (4,0)
        let mut out = Vec::new();
        g.candidate_ports_masked(SwitchId::new(0), dest, Some(&torus), &mut out);
        assert_eq!(out.len(), 1);
        let PortTarget::Switch { switch, .. } = g.port_target(SwitchId::new(0), out[0]) else {
            panic!("expected switch hop");
        };
        assert_eq!(switch, SwitchId::new(4), "wraparound step taken");
    }

    #[test]
    fn enable_disable_round_trip() {
        let g = graph();
        let mut m = LinkMask::all_enabled(&g);
        let l = LinkId::new(3);
        assert!(m.is_enabled(l));
        m.disable(l);
        assert!(!m.is_enabled(l));
        assert_eq!(m.enabled_links(), g.num_links() - 1);
        m.enable(l);
        assert_eq!(m.enabled_links(), g.num_links());
        assert_eq!(m.iter().count(), g.num_links());
        assert!(!m.is_empty());
    }

    #[test]
    fn generation_tracks_mutations_but_not_equality() {
        let g = graph();
        let mut m = LinkMask::all_enabled(&g);
        assert_eq!(m.generation(), 0);
        m.disable(LinkId::new(3));
        m.enable(LinkId::new(3));
        assert_eq!(m.generation(), 2);
        // Content-equal to a fresh mask despite the edit history.
        assert_eq!(m, LinkMask::all_enabled(&g));
    }
}
