//! Precomputed forwarding tables: the per-hop fast path.
//!
//! Adaptive routing needs, at every hop, the set of *minimal candidate
//! ports* toward the destination and (under UGAL) the set of legal
//! *detour ports*. Both depend only on `(current switch, destination
//! switch, link mask)` — never on the individual packet — so they can be
//! computed once per fabric and indexed per hop instead of re-derived
//! from switch coordinates on the critical path.
//!
//! [`RouteTable`] stores the two sets in two flat `PortIndex` pools —
//! minimal-adaptive routing never reads the detours, so its pool stays
//! small and hot — and each `(switch, destination switch)` row holds
//! one start offset and two lengths, giving allocation-free
//! `&[PortIndex]` lookups. Row capacities come from the *unmasked*
//! fabric — a mask can only drop or substitute ports, never add them —
//! so the layout is fixed at [`RouteTable::build`] and every later
//! change rewrites rows in place.
//!
//! # Incremental refresh
//!
//! Dynamic topologies flip links at epoch boundaries, bumping the
//! [`LinkMask::generation`]. The owner notices the stale stamp on the
//! next lookup and calls [`RouteTable::refresh`], which diffs the mask
//! against a snapshot of the enabled bits the rows were computed from
//! and recomputes only the switches a flipped link can affect. A
//! flattened-butterfly switch's rows read two kinds of link: its own
//! output links, and the `0 ↔ k−1` wraparound link of each of its
//! dimension rings (the masked fallback step prefers the wrap only when
//! it is enabled). A flipped link between switches that differ in
//! dimension `d` therefore dirties exactly the `k` switches of that
//! dimension-`d` ring; host links feed no row. A Clos fabric, or a mask
//! whose length changed, recomputes every switch.
//!
//! Rows are assembled per dimension: row `(at, dst)` is the
//! dimension-ordered concatenation, over the dimensions where the two
//! switches differ, of one masked minimal port and one masked detour
//! list for `(at, dim, dst digit)`. Those pieces come from
//! [`FabricGraph::candidate_ports_masked`] /
//! [`FabricGraph::detour_ports_masked`] called with a probe switch that
//! differs from `at` only in that dimension, so a switch costs
//! `dims·(k−1)` probes rather than one per destination, and the
//! stored order is the per-hop enumeration's order by construction.

use crate::fabric::RoutingTopology;
use crate::{FabricGraph, FabricKind, HostId, LinkId, LinkMask, PortIndex, SwitchId};

/// One `(switch, destination switch)` row: its live minimal candidates
/// at `min_pool[start..][..min_len]`, its live detours at
/// `detour_pool[start * detour_stride..][..detour_len]`. `start`, and
/// the capacity up to the next row's `start`, are fixed by the unmasked
/// layout; the lengths follow the mask.
#[derive(Debug, Clone, Copy)]
struct Row {
    start: u32,
    min_len: u16,
    detour_len: u16,
}

/// Flat, destination-switch-indexed candidate-port sets for a
/// [`FabricGraph`], valid for one [`LinkMask`] generation.
///
/// Rows are indexed `at * num_switches + dst_switch`. The row for
/// `at == dst_switch` is empty: local delivery picks the destination
/// host's ejection port, which depends on the host rather than the
/// switch, and stays on the caller's slow (trivial) path.
///
/// ```
/// use epnet_topology::{FlattenedButterfly, HostId, RouteTable, RoutingTopology, SwitchId};
/// let g = FlattenedButterfly::new(2, 4, 2)?.build_fabric();
/// let table = RouteTable::build(&g, None);
/// let dest = HostId::new(7);
/// let mut dynamic = Vec::new();
/// g.candidate_ports_masked(SwitchId::new(0), dest, None, &mut dynamic);
/// assert_eq!(
///     table.candidates(SwitchId::new(0), g.host_switch(dest)),
///     &dynamic[..],
/// );
/// # Ok::<(), epnet_topology::TopologyError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RouteTable {
    num_switches: usize,
    generation: u64,
    rows: Vec<Row>,
    min_pool: Vec<PortIndex>,
    detour_pool: Vec<PortIndex>,
    /// Detour slots per minimal slot: every unresolved butterfly
    /// dimension has one minimal port and `k − 2` detours; a Clos has
    /// no detours.
    detour_stride: usize,
    /// Live entries: the sum of every row's two lengths.
    entries: usize,
    /// Refresh-only state, kept out of line so the lookup fields stay
    /// compact in their owner.
    work: Box<Refresh>,
}

/// A [`RouteTable`]'s refresh state, sized at build so that a refresh
/// allocates nothing.
#[derive(Debug, Clone)]
struct Refresh {
    /// Enabled bits the rows were computed against (empty: no mask).
    snapshot: Vec<bool>,
    /// Switches whose rows the next refresh recomputes.
    dirty: Vec<bool>,
    /// Per `(dim, digit)` piece: the masked minimal port, if any.
    piece_min: Vec<Option<PortIndex>>,
    /// Per `(dim, digit)` piece: `k − 2` detour slots...
    piece_detours: Vec<PortIndex>,
    /// ...of which this many are live.
    piece_detour_len: Vec<u16>,
    /// Oracle output buffer.
    scratch: Vec<PortIndex>,
}

impl RouteTable {
    /// Builds the table for `fabric` under `mask`: sizes the unmasked
    /// layout, then fills every switch through [`refresh`](Self::refresh).
    /// The table is *defined* as the memoization of
    /// [`FabricGraph::candidate_ports_masked`] and
    /// [`FabricGraph::detour_ports_masked`], so lookup order matches the
    /// on-the-fly path exactly.
    pub fn build(fabric: &FabricGraph, mask: Option<&LinkMask>) -> Self {
        let mut table = Self::layout(fabric);
        table.refresh(fabric, mask);
        table
    }

    /// Sizes every row for the unmasked fabric and marks every switch
    /// dirty; the rows themselves are still empty.
    fn layout(fabric: &FabricGraph) -> Self {
        let s = fabric.num_switches();
        let k = usize::from(fabric.radix());
        let mut rows = Vec::with_capacity(s * s);
        let mut len = 0usize;
        for at in 0..s {
            let here = fabric.switch_coord(SwitchId::new(at as u32));
            for dst in 0..s {
                rows.push(Row {
                    start: u32::try_from(len).expect("route table outgrew u32 offsets"),
                    min_len: 0,
                    detour_len: 0,
                });
                if at == dst {
                    continue;
                }
                len += match fabric.kind() {
                    // One minimal port per hop.
                    FabricKind::FlattenedButterfly => {
                        let there = fabric.switch_coord(SwitchId::new(dst as u32));
                        here.hop_distance(&there)
                    }
                    // A leaf offers every spine, a spine one port down;
                    // rows toward a spine (no hosts) stay empty.
                    FabricKind::TwoTierClos { leaves, .. } if dst as u32 >= leaves => 0,
                    FabricKind::TwoTierClos { leaves, spines } => {
                        if (at as u32) < leaves {
                            spines as usize
                        } else {
                            1
                        }
                    }
                };
            }
        }
        let pieces = fabric.switch_dims() * k;
        let detour_stride = match fabric.kind() {
            FabricKind::FlattenedButterfly => k - 2,
            FabricKind::TwoTierClos { .. } => 0,
        };
        Self {
            num_switches: s,
            generation: 0,
            rows,
            min_pool: vec![PortIndex::new(0); len],
            detour_pool: vec![PortIndex::new(0); len * detour_stride],
            detour_stride,
            entries: 0,
            work: Box::new(Refresh {
                snapshot: Vec::new(),
                dirty: vec![true; s],
                piece_min: vec![None; pieces],
                piece_detours: vec![PortIndex::new(0); pieces * detour_stride],
                piece_detour_len: vec![0; pieces],
                scratch: Vec::with_capacity(fabric.ports_per_switch()),
            }),
        }
    }

    /// Brings the table up to date with `mask` in place and returns how
    /// many switches' rows were recomputed.
    ///
    /// Only the switches a flipped link can affect are recomputed (see
    /// the module docs); a Clos fabric or a mask of a different length
    /// recomputes them all. A refresh allocates nothing unless the
    /// mask's length changed.
    pub fn refresh(&mut self, fabric: &FabricGraph, mask: Option<&LinkMask>) -> usize {
        let bits = mask.map_or(&[][..], LinkMask::bits);
        if fabric.kind() != FabricKind::FlattenedButterfly || bits.len() != self.work.snapshot.len()
        {
            self.work.dirty.fill(true);
        } else {
            self.mark_flipped_rings(fabric, bits);
        }
        self.work.snapshot.clear();
        self.work.snapshot.extend_from_slice(bits);
        self.generation = mask.map_or(0, LinkMask::generation);
        let mut recomputed = 0;
        for at in 0..self.num_switches {
            if !self.work.dirty[at] {
                continue;
            }
            self.work.dirty[at] = false;
            recomputed += 1;
            let at = SwitchId::new(at as u32);
            match fabric.kind() {
                FabricKind::FlattenedButterfly => self.fill_butterfly_switch(fabric, mask, at),
                FabricKind::TwoTierClos { .. } => self.fill_switch_per_row(fabric, mask, at),
            }
        }
        recomputed
    }

    /// Marks dirty the dimension ring of every inter-switch link whose
    /// bit differs between the snapshot and `bits`.
    fn mark_flipped_rings(&mut self, fabric: &FabricGraph, bits: &[bool]) {
        let k = fabric.radix();
        for (l, (&old, &new)) in self.work.snapshot.iter().zip(bits).enumerate() {
            if old == new {
                continue;
            }
            let (a, b) = fabric.link_channels(LinkId::new(l as u32));
            let (Some((u, _)), Some((v, _))) = (fabric.channel_source(a), fabric.channel_source(b))
            else {
                continue; // a host link feeds no row
            };
            let (cu, cv) = (fabric.switch_coord(u), fabric.switch_coord(v));
            let dim = (0..fabric.switch_dims())
                .find(|&d| cu.digit(d) != cv.digit(d))
                .expect("direct links differ in exactly one dimension");
            for digit in 0..k {
                self.work.dirty[cu.with_digit(dim, digit).to_switch_index(k)] = true;
            }
        }
    }

    /// Recomputes every row of butterfly switch `at` from its
    /// per-dimension pieces.
    fn fill_butterfly_switch(
        &mut self,
        fabric: &FabricGraph,
        mask: Option<&LinkMask>,
        at: SwitchId,
    ) {
        let k = usize::from(fabric.radix());
        let stride = self.detour_stride;
        let conc = u32::from(fabric.concentration());
        let here = fabric.switch_coord(at);
        for dim in 0..fabric.switch_dims() {
            for digit in 0..fabric.radix() {
                if digit == here.digit(dim) {
                    continue;
                }
                let piece = dim * k + usize::from(digit);
                let probe = here.with_digit(dim, digit).to_switch_id(fabric.radix());
                fabric.candidate_ports_masked(
                    at,
                    HostId::new(probe.raw() * conc),
                    mask,
                    &mut self.work.scratch,
                );
                debug_assert!(
                    self.work.scratch.len() <= 1,
                    "one minimal port per dimension"
                );
                self.work.piece_min[piece] = self.work.scratch.first().copied();
                fabric.detour_ports_masked(at, probe, mask, &mut self.work.scratch);
                let n = self.work.scratch.len();
                self.work.piece_detours[piece * stride..][..n].copy_from_slice(&self.work.scratch);
                self.work.piece_detour_len[piece] = n as u16;
            }
        }
        let base = at.index() * self.num_switches;
        for dst in 0..self.num_switches {
            if dst == at.index() {
                continue;
            }
            let there = fabric.switch_coord(SwitchId::new(dst as u32));
            let start = self.rows[base + dst].start as usize;
            let (mut min_len, mut detour_len) = (0, 0);
            for dim in 0..fabric.switch_dims() {
                let digit = there.digit(dim);
                if digit == here.digit(dim) {
                    continue;
                }
                let piece = dim * k + usize::from(digit);
                if let Some(port) = self.work.piece_min[piece] {
                    self.min_pool[start + min_len] = port;
                    min_len += 1;
                }
                let n = usize::from(self.work.piece_detour_len[piece]);
                self.detour_pool[start * stride + detour_len..][..n]
                    .copy_from_slice(&self.work.piece_detours[piece * stride..][..n]);
                detour_len += n;
            }
            self.set_lens(base + dst, min_len, detour_len);
        }
    }

    /// Recomputes every row of switch `at` with one oracle call per
    /// destination (Clos fabrics, which have no dimension rings). Rows
    /// toward switches without hosts stay empty.
    fn fill_switch_per_row(&mut self, fabric: &FabricGraph, mask: Option<&LinkMask>, at: SwitchId) {
        let conc = u32::from(fabric.concentration());
        let base = at.index() * self.num_switches;
        let host_switches = fabric.num_hosts() / usize::from(fabric.concentration());
        for dst in 0..host_switches {
            if dst == at.index() {
                continue;
            }
            let start = self.rows[base + dst].start as usize;
            // Any host of `dst` works: for a remote destination the
            // candidate set depends only on its switch.
            fabric.candidate_ports_masked(
                at,
                HostId::new(dst as u32 * conc),
                mask,
                &mut self.work.scratch,
            );
            let min_len = self.work.scratch.len();
            self.min_pool[start..][..min_len].copy_from_slice(&self.work.scratch);
            fabric.detour_ports_masked(at, SwitchId::new(dst as u32), mask, &mut self.work.scratch);
            debug_assert!(self.work.scratch.is_empty(), "a Clos has no detours");
            self.set_lens(base + dst, min_len, 0);
        }
    }

    fn set_lens(&mut self, row: usize, min_len: usize, detour_len: usize) {
        debug_assert!(
            self.rows.get(row + 1).map_or(true, |next| {
                let cap = (next.start - self.rows[row].start) as usize;
                min_len <= cap && detour_len <= cap * self.detour_stride
            }),
            "masked row outgrew its unmasked capacity"
        );
        let r = &mut self.rows[row];
        self.entries = self.entries + min_len + detour_len
            - usize::from(r.min_len)
            - usize::from(r.detour_len);
        r.min_len = min_len as u16;
        r.detour_len = detour_len as u16;
    }

    /// The [`LinkMask::generation`] this table was last refreshed
    /// against (0 when built without a mask).
    #[inline]
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Whether the table still matches `mask` (an unmasked fabric never
    /// goes stale).
    #[inline]
    pub fn is_current(&self, mask: Option<&LinkMask>) -> bool {
        mask.map_or(true, |m| m.generation() == self.generation)
    }

    /// Minimal candidate ports from `at` toward any host of
    /// `dst_switch`, in [`FabricGraph::candidate_ports_masked`] order.
    /// Empty for `at == dst_switch` (local delivery) and for switches
    /// stranded by the mask.
    #[inline]
    pub fn candidates(&self, at: SwitchId, dst_switch: SwitchId) -> &[PortIndex] {
        let r = self.rows[at.index() * self.num_switches + dst_switch.index()];
        &self.min_pool[r.start as usize..][..usize::from(r.min_len)]
    }

    /// UGAL detour ports from `at` toward `dst_switch`, in
    /// [`FabricGraph::detour_ports_masked`] order.
    #[inline]
    pub fn detours(&self, at: SwitchId, dst_switch: SwitchId) -> &[PortIndex] {
        let r = self.rows[at.index() * self.num_switches + dst_switch.index()];
        &self.detour_pool[r.start as usize * self.detour_stride..][..usize::from(r.detour_len)]
    }

    /// Number of switches the table covers.
    #[inline]
    pub fn num_switches(&self) -> usize {
        self.num_switches
    }

    /// Live port entries (minimal candidates plus detours under the
    /// current mask) — a size gauge reported in the `routes` trace
    /// records.
    #[inline]
    pub fn num_port_entries(&self) -> usize {
        self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FlattenedButterfly, LinkId, SubtopologyKind, TwoTierClos};

    fn assert_matches_dynamic(fabric: &FabricGraph, mask: Option<&LinkMask>) {
        assert_table_matches_dynamic(&RouteTable::build(fabric, mask), fabric, mask);
    }

    fn assert_table_matches_dynamic(
        table: &RouteTable,
        fabric: &FabricGraph,
        mask: Option<&LinkMask>,
    ) {
        let mut dynamic = Vec::new();
        for at in 0..fabric.num_switches() {
            let at = SwitchId::new(at as u32);
            for h in 0..fabric.num_hosts() {
                let dest = HostId::new(h as u32);
                let dst_switch = fabric.host_switch(dest);
                if at == dst_switch {
                    continue;
                }
                fabric.candidate_ports_masked(at, dest, mask, &mut dynamic);
                assert_eq!(table.candidates(at, dst_switch), &dynamic[..]);
                fabric.detour_ports_masked(at, dst_switch, mask, &mut dynamic);
                assert_eq!(table.detours(at, dst_switch), &dynamic[..]);
            }
        }
    }

    #[test]
    fn butterfly_table_matches_dynamic_routing() {
        let g = FlattenedButterfly::new(2, 4, 3).unwrap().build_fabric();
        assert_matches_dynamic(&g, None);
        let mesh = LinkMask::subtopology(&g, SubtopologyKind::Mesh);
        assert_matches_dynamic(&g, Some(&mesh));
        let torus = LinkMask::subtopology(&g, SubtopologyKind::Torus);
        assert_matches_dynamic(&g, Some(&torus));
    }

    #[test]
    fn clos_table_matches_dynamic_routing() {
        let g = TwoTierClos::new(4, 2, 6).unwrap().build_fabric();
        assert_matches_dynamic(&g, None);
    }

    #[test]
    fn local_rows_are_empty() {
        let g = FlattenedButterfly::new(2, 4, 2).unwrap().build_fabric();
        let table = RouteTable::build(&g, None);
        for s in 0..g.num_switches() {
            let s = SwitchId::new(s as u32);
            assert!(table.candidates(s, s).is_empty());
            assert!(table.detours(s, s).is_empty());
        }
    }

    #[test]
    fn port_entry_count_sums_both_kinds() {
        let g = FlattenedButterfly::new(2, 4, 2).unwrap().build_fabric();
        let table = RouteTable::build(&g, None);
        let mut expected = 0;
        for a in 0..g.num_switches() {
            let a = SwitchId::new(a as u32);
            for b in 0..g.num_switches() {
                let b = SwitchId::new(b as u32);
                expected += table.candidates(a, b).len() + table.detours(a, b).len();
            }
        }
        assert!(expected > 0);
        assert_eq!(table.num_port_entries(), expected);
    }

    #[test]
    fn staleness_follows_mask_generation() {
        let g = FlattenedButterfly::new(2, 4, 2).unwrap().build_fabric();
        let mut mask = LinkMask::all_enabled(&g);
        let mut table = RouteTable::build(&g, Some(&mask));
        assert!(table.is_current(Some(&mask)));
        assert!(table.is_current(None), "maskless lookups never go stale");
        let link = LinkId::new(g.num_links() as u32 - 1);
        mask.disable(link);
        assert!(!table.is_current(Some(&mask)));
        table.refresh(&g, Some(&mask));
        assert!(table.is_current(Some(&mask)));
        assert_eq!(table.generation(), mask.generation());
        assert_table_matches_dynamic(&table, &g, Some(&mask));
    }

    /// The inter-switch link between `u` and the switch whose digit in
    /// `dim` is `digit`.
    fn link_toward(g: &FabricGraph, u: SwitchId, dim: usize, digit: u16) -> LinkId {
        g.link_of(g.output_channel(u, g.port_toward(u, dim, digit)))
    }

    #[test]
    fn one_link_flip_recomputes_exactly_its_ring() {
        // k = 4, two switch dimensions: 16 switches, rings of 4.
        let g = FlattenedButterfly::new(2, 4, 3).unwrap().build_fabric();
        let mut mask = LinkMask::all_enabled(&g);
        let mut table = RouteTable::build(&g, Some(&mask));
        let u = SwitchId::new(5); // digits [1, 1]
        let cases = [
            (link_toward(&g, u, 1, 3), "chord in dimension 1"),
            (link_toward(&g, u, 0, 2), "adjacent link in dimension 0"),
            (
                link_toward(&g, SwitchId::new(4), 0, 3), // digits [0, 1] ↔ [3, 1]
                "wraparound link in dimension 0",
            ),
        ];
        for (link, what) in cases {
            mask.disable(link);
            assert_eq!(table.refresh(&g, Some(&mask)), 4, "{what}");
            assert_table_matches_dynamic(&table, &g, Some(&mask));
        }

        // Bits back where the snapshot has them: nothing to recompute,
        // though the generation moved.
        let link = cases[0].0;
        mask.enable(link);
        mask.disable(link);
        assert!(!table.is_current(Some(&mask)));
        assert_eq!(table.refresh(&g, Some(&mask)), 0);
        assert!(table.is_current(Some(&mask)));

        // Host links feed no row.
        mask.disable(LinkId::new(0));
        assert_eq!(table.refresh(&g, Some(&mask)), 0);
    }

    #[test]
    fn full_refresh_when_mask_shape_changes_or_fabric_is_clos() {
        let g = FlattenedButterfly::new(2, 3, 3).unwrap().build_fabric();
        let mut table = RouteTable::build(&g, None);
        let torus = LinkMask::subtopology(&g, SubtopologyKind::Torus);
        assert_eq!(table.refresh(&g, Some(&torus)), g.num_switches());
        assert_eq!(table.refresh(&g, None), g.num_switches());

        let clos = TwoTierClos::new(4, 2, 6).unwrap().build_fabric();
        let mut mask = LinkMask::all_enabled(&clos);
        let mut table = RouteTable::build(&clos, Some(&mask));
        mask.disable(LinkId::new(clos.num_links() as u32 - 1));
        assert_eq!(table.refresh(&clos, Some(&mask)), clos.num_switches());
        let fresh = RouteTable::build(&clos, Some(&mask));
        for a in 0..clos.num_switches() {
            let a = SwitchId::new(a as u32);
            for b in 0..clos.num_switches() {
                let b = SwitchId::new(b as u32);
                assert_eq!(table.candidates(a, b), fresh.candidates(a, b));
            }
        }
    }
}
