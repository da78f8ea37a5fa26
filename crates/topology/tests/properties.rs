//! Property-based tests over topology invariants.

use epnet_topology::{
    FabricGraph, FlattenedButterfly, HostId, LinkId, LinkMask, Medium, PortIndex, PortTarget,
    RouteTable, RoutingTopology, SubtopologyKind, SwitchId, TwoTierClos,
};
use proptest::prelude::*;

/// Strategy producing small but varied flattened butterflies.
fn fbfly_strategy() -> impl Strategy<Value = FlattenedButterfly> {
    (1u16..6, 2u16..7, 2usize..5)
        .prop_map(|(c, k, n)| FlattenedButterfly::new(c, k, n).expect("params in valid range"))
}

/// Deterministic SplitMix64 for seed-derived masks and destinations.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Disables ~1/4 of the links of `g`, derived from `seed`.
fn random_mask(g: &FabricGraph, seed: u64) -> LinkMask {
    let mut rng = seed;
    let mut mask = LinkMask::all_enabled(g);
    for l in 0..g.num_links() {
        if splitmix(&mut rng) % 4 == 0 {
            mask.disable(LinkId::new(l as u32));
        }
    }
    mask
}

/// Every `RouteTable` row must equal the on-the-fly enumeration for a
/// handful of seed-derived destinations, from every switch.
fn assert_table_matches(g: &FabricGraph, mask: Option<&LinkMask>, dst_seed: u64) {
    let table = RouteTable::build(g, mask);
    let mut rng = dst_seed;
    let mut dynamic = Vec::new();
    for _ in 0..8 {
        let dest = HostId::new((splitmix(&mut rng) % g.num_hosts() as u64) as u32);
        let dst_switch = g.host_switch(dest);
        for at in 0..g.num_switches() {
            let at = SwitchId::new(at as u32);
            if at == dst_switch {
                continue;
            }
            g.candidate_ports_masked(at, dest, mask, &mut dynamic);
            assert_eq!(
                table.candidates(at, dst_switch),
                &dynamic[..],
                "minimal candidates diverge at {at} toward {dst_switch}"
            );
            g.detour_ports_masked(at, dst_switch, mask, &mut dynamic);
            assert_eq!(
                table.detours(at, dst_switch),
                &dynamic[..],
                "detour candidates diverge at {at} toward {dst_switch}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn port_budget_is_exact(f in fbfly_strategy()) {
        // Every switch port is either a host port or one end of exactly one
        // inter-switch link.
        let total_ports = f.num_switches() * f.ports_per_switch() as usize;
        prop_assert_eq!(total_ports, f.num_hosts() + 2 * f.inter_switch_links());
    }

    #[test]
    fn link_media_partition_all_links(f in fbfly_strategy()) {
        prop_assert_eq!(
            f.link_count(Medium::Electrical) + f.link_count(Medium::Optical),
            f.total_links()
        );
    }

    #[test]
    fn fabric_matches_analytical_counts(f in fbfly_strategy()) {
        let g = f.build_fabric();
        prop_assert_eq!(g.num_hosts(), f.num_hosts());
        prop_assert_eq!(g.num_switches(), f.num_switches());
        prop_assert_eq!(g.num_links(), f.total_links());
        prop_assert_eq!(g.num_channels(), 2 * g.num_links());
    }

    #[test]
    fn links_are_involutions(f in fbfly_strategy()) {
        let g = f.build_fabric();
        for ch in 0..g.num_channels() {
            let ch = epnet_topology::ChannelId::new(ch as u32);
            prop_assert_eq!(g.reverse_channel(g.reverse_channel(ch)), ch);
            prop_assert_ne!(g.reverse_channel(ch), ch);
        }
    }

    #[test]
    fn greedy_routing_always_terminates(
        f in fbfly_strategy(),
        src_seed in any::<u32>(),
        dst_seed in any::<u32>(),
    ) {
        let g = f.build_fabric();
        let hosts = g.num_hosts() as u32;
        let src = HostId::new(src_seed % hosts);
        let dst = HostId::new(dst_seed % hosts);
        let mut at = g.host_switch(src);
        let mut out = Vec::new();
        let mut hops = 0usize;
        loop {
            g.candidate_ports(at, dst, &mut out);
            prop_assert!(!out.is_empty());
            let p = out[0];
            match g.port_target(at, p) {
                PortTarget::Host(h) => {
                    prop_assert_eq!(h, dst);
                    break;
                }
                PortTarget::Switch { switch, .. } => at = switch,
            }
            hops += 1;
            prop_assert!(hops <= f.switch_dims() + 1, "minimal routing exceeded dims");
        }
    }

    #[test]
    fn every_candidate_leads_minimal(f in fbfly_strategy(), seed in any::<u32>()) {
        let g = f.build_fabric();
        let dst = HostId::new(seed % g.num_hosts() as u32);
        let dst_switch = g.host_switch(dst);
        let mut out = Vec::new();
        for s in 0..g.num_switches() {
            let at = SwitchId::new(s as u32);
            g.candidate_ports(at, dst, &mut out);
            let d = f.hop_distance(at, dst_switch);
            if at == dst_switch {
                prop_assert_eq!(out.clone(), vec![g.host_port(dst)]);
            } else {
                prop_assert_eq!(out.len(), d);
                for &p in &out {
                    let PortTarget::Switch { switch, .. } = g.port_target(at, p) else {
                        panic!("expected switch hop")
                    };
                    prop_assert_eq!(f.hop_distance(switch, dst_switch), d - 1);
                }
            }
        }
    }

    #[test]
    fn mesh_mask_keeps_fabric_connected(f in fbfly_strategy(), seed in any::<u32>()) {
        let g = f.build_fabric();
        let mask = LinkMask::subtopology(&g, SubtopologyKind::Mesh);
        let dst = HostId::new(seed % g.num_hosts() as u32);
        let dst_switch = g.host_switch(dst);
        let mut out = Vec::new();
        for s in 0..g.num_switches() {
            let mut at = SwitchId::new(s as u32);
            let mut hops = 0usize;
            let bound = g.switch_dims() * f.radix() as usize + 1;
            while at != dst_switch {
                g.candidate_ports_masked(at, dst, Some(&mask), &mut out);
                prop_assert!(!out.is_empty(), "mesh stranded a switch");
                let PortTarget::Switch { switch, .. } = g.port_target(at, out[0]) else {
                    panic!("expected switch hop")
                };
                at = switch;
                hops += 1;
                prop_assert!(hops <= bound, "mesh routing cycled");
            }
        }
    }

    #[test]
    fn torus_routing_never_longer_than_mesh(f in fbfly_strategy(), seed in any::<u32>()) {
        let g = f.build_fabric();
        let mesh = LinkMask::subtopology(&g, SubtopologyKind::Mesh);
        let torus = LinkMask::subtopology(&g, SubtopologyKind::Torus);
        let dst = HostId::new(seed % g.num_hosts() as u32);
        let dst_switch = g.host_switch(dst);

        let walk = |mask: &LinkMask, from: SwitchId| -> usize {
            let mut at = from;
            let mut out = Vec::new();
            let mut hops = 0;
            while at != dst_switch {
                g.candidate_ports_masked(at, dst, Some(mask), &mut out);
                let PortTarget::Switch { switch, .. } = g.port_target(at, out[0]) else {
                    panic!("expected switch hop")
                };
                at = switch;
                hops += 1;
            }
            hops
        };
        for s in 0..g.num_switches().min(16) {
            let from = SwitchId::new(s as u32);
            prop_assert!(walk(&torus, from) <= walk(&mesh, from));
        }
    }

    #[test]
    fn host_attachment_is_a_bijection(f in fbfly_strategy()) {
        let g = f.build_fabric();
        let mut seen = vec![false; g.num_hosts()];
        for s in 0..g.num_switches() {
            for p in 0..f.concentration() as usize {
                let PortTarget::Host(h) =
                    g.port_target(SwitchId::new(s as u32), PortIndex::new(p as u16))
                else {
                    panic!("host port range must map to hosts")
                };
                prop_assert!(!seen[h.index()], "host attached twice");
                seen[h.index()] = true;
                prop_assert_eq!(g.host_switch(h).index(), s);
                prop_assert_eq!(g.host_port(h).index(), p);
            }
        }
        prop_assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn link_ids_are_dense_and_total(f in fbfly_strategy()) {
        let g = f.build_fabric();
        let mut counts = vec![0u8; g.num_links()];
        for ch in 0..g.num_channels() {
            let l = g.link_of(epnet_topology::ChannelId::new(ch as u32));
            counts[l.index()] += 1;
        }
        prop_assert!(counts.iter().all(|&c| c == 2), "each link owns exactly two channels");
        // Link channel table agrees with link_of.
        for l in 0..g.num_links() {
            let link = LinkId::new(l as u32);
            let (a, b) = g.link_channels(link);
            prop_assert_eq!(g.link_of(a), link);
            prop_assert_eq!(g.link_of(b), link);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn route_table_matches_dynamic_routing(
        f in fbfly_strategy(),
        mask_seed in any::<u64>(),
        dst_seed in any::<u64>(),
    ) {
        let g = f.build_fabric();
        // Maskless and randomly-degraded tables both agree with the
        // on-the-fly enumeration.
        assert_table_matches(&g, None, dst_seed);
        let mut mask = random_mask(&g, mask_seed);
        assert_table_matches(&g, Some(&mask), dst_seed);

        // Mutating the mask bumps its generation, staling any table
        // built against the old one; a rebuild must agree again.
        let table = RouteTable::build(&g, Some(&mask));
        prop_assert!(table.is_current(Some(&mask)));
        mask.enable(LinkId::new(0));
        prop_assert!(!table.is_current(Some(&mask)));
        assert_table_matches(&g, Some(&mask), dst_seed ^ 0xDEAD_BEEF);
    }

    #[test]
    fn clos_route_table_matches_dynamic_routing(
        c in 1u16..5,
        s in 1u32..5,
        dst_seed in any::<u64>(),
    ) {
        let clos = TwoTierClos::new(c, s, u32::from(c) + s).expect("leaves = conc + spines");
        let g = clos.build_fabric();
        assert_table_matches(&g, None, dst_seed);
    }
}

/// Every row of `table` — local, stranded and host-less ones included —
/// equals a fresh build under `mask`, and every row toward a switch
/// with hosts equals the per-hop enumeration.
fn assert_rows_match_fresh_build(g: &FabricGraph, table: &RouteTable, mask: &LinkMask) {
    let fresh = RouteTable::build(g, Some(mask));
    assert_eq!(table.num_port_entries(), fresh.num_port_entries());
    let conc = usize::from(g.concentration());
    let mut dynamic = Vec::new();
    for at in 0..g.num_switches() {
        let at = SwitchId::new(at as u32);
        for dst in 0..g.num_switches() {
            let dst = SwitchId::new(dst as u32);
            assert_eq!(table.candidates(at, dst), fresh.candidates(at, dst));
            assert_eq!(table.detours(at, dst), fresh.detours(at, dst));
            if at == dst || dst.index() * conc >= g.num_hosts() {
                continue;
            }
            let dest = HostId::new((dst.index() * conc) as u32);
            g.candidate_ports_masked(at, dest, Some(mask), &mut dynamic);
            assert_eq!(
                table.candidates(at, dst),
                &dynamic[..],
                "minimal candidates diverge at {at} toward {dst}"
            );
            g.detour_ports_masked(at, dst, Some(mask), &mut dynamic);
            assert_eq!(
                table.detours(at, dst),
                &dynamic[..],
                "detour candidates diverge at {at} toward {dst}"
            );
        }
    }
}

/// Inter-switch links, and the subset of them that are `0 ↔ k−1`
/// wraparounds of a butterfly ring (a Clos has none).
fn switch_and_wrap_links(g: &FabricGraph) -> (Vec<LinkId>, Vec<LinkId>) {
    let (mut switch_links, mut wraps) = (Vec::new(), Vec::new());
    for l in 0..g.num_links() {
        let link = LinkId::new(l as u32);
        let (a, b) = g.link_channels(link);
        let (Some((u, _)), Some((v, _))) = (g.channel_source(a), g.channel_source(b)) else {
            continue;
        };
        switch_links.push(link);
        let (cu, cv) = (g.switch_coord(u), g.switch_coord(v));
        if (0..g.switch_dims()).any(|d| cu.digit(d).abs_diff(cv.digit(d)) == g.radix() - 1) {
            wraps.push(link);
        }
    }
    (switch_links, wraps)
}

/// Applies seed-derived bursts of link flips to `mask`, refreshing one
/// table in place after each burst and checking it row by row. Flips
/// favour inter-switch links and, among them, ring wraparounds — the
/// links whose reach beyond their own endpoints the refresh must
/// honour — with an occasional host link. Returns the number of
/// switches each refresh recomputed.
fn refresh_through_random_flips(g: &FabricGraph, mut mask: LinkMask, seed: u64) -> Vec<usize> {
    let (switch_links, wraps) = switch_and_wrap_links(g);
    let mut table = RouteTable::build(g, Some(&mask));
    let mut rng = seed;
    let pick = |rng: &mut u64, from: &[LinkId]| from[(splitmix(rng) % from.len() as u64) as usize];
    let mut recomputed = Vec::new();
    for _ in 0..6 {
        for _ in 0..1 + splitmix(&mut rng) % 3 {
            let link = match splitmix(&mut rng) % 8 {
                0..=3 if !wraps.is_empty() => pick(&mut rng, &wraps),
                0..=6 => pick(&mut rng, &switch_links),
                _ => LinkId::new((splitmix(&mut rng) % g.num_links() as u64) as u32),
            };
            if mask.is_enabled(link) {
                mask.disable(link);
            } else {
                mask.enable(link);
            }
        }
        assert!(!table.is_current(Some(&mask)));
        recomputed.push(table.refresh(g, Some(&mask)));
        assert!(table.is_current(Some(&mask)));
        assert_rows_match_fresh_build(g, &table, &mask);
    }
    recomputed
}

/// Butterflies covering the refresh's special cases: `k = 2` (the only
/// ring link is also the wrap) and `k = 3`, with 1, 2 and 4 switch
/// dimensions.
fn refresh_fbfly_strategy() -> impl Strategy<Value = FlattenedButterfly> {
    prop_oneof![
        (1u16..4, 2u16..6, 2usize..4),
        (1u16..3, 2u16..4, Just(5usize)),
    ]
    .prop_map(|(c, k, n)| FlattenedButterfly::new(c, k, n).expect("params in valid range"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn refresh_matches_fresh_build_after_random_flips(
        f in refresh_fbfly_strategy(),
        start in 0usize..4,
        seed in any::<u64>(),
    ) {
        let g = f.build_fabric();
        let mask = match start {
            0 => LinkMask::all_enabled(&g),
            1 => LinkMask::subtopology(&g, SubtopologyKind::Mesh),
            2 => LinkMask::subtopology(&g, SubtopologyKind::Torus),
            _ => random_mask(&g, seed),
        };
        let k = usize::from(g.radix());
        for n in refresh_through_random_flips(&g, mask, seed) {
            // A burst of at most three flips dirties at most three rings.
            prop_assert!(n <= 3 * k, "{n} switches recomputed for at most 3 rings of {k}");
        }
    }

    #[test]
    fn clos_refresh_recomputes_every_switch(
        c in 1u16..5,
        s in 1u32..5,
        seed in any::<u64>(),
    ) {
        let clos = TwoTierClos::new(c, s, u32::from(c) + s).expect("leaves = conc + spines");
        let g = clos.build_fabric();
        for n in refresh_through_random_flips(&g, LinkMask::all_enabled(&g), seed) {
            prop_assert_eq!(n, g.num_switches());
        }
    }
}
