//! Route-table costs on the 512-host 8-ary 3-flat, the packet fabric
//! of the dynamic-topology runs: a full build, and the in-place refresh
//! after one dimension ring changes tier — the case a dynamic topology
//! hits at every reconfiguring epoch.

use criterion::{criterion_group, criterion_main, Criterion};
use epnet_topology::{FlattenedButterfly, LinkId, LinkMask, RouteTable, SwitchId};
use std::hint::black_box;

fn route_table(c: &mut Criterion) {
    let fabric = FlattenedButterfly::new(8, 8, 3).unwrap().build_fabric();
    let mut g = c.benchmark_group("route_table");
    g.bench_function("full_build_8ary3flat", |b| {
        b.iter(|| black_box(RouteTable::build(&fabric, None)))
    });

    // The chords (tier 2) of the dimension-0 ring through switch 0:
    // every link between digits more than one apart, wrap excluded.
    let ring = 8u16;
    let chords: Vec<LinkId> = (0..ring)
        .flat_map(|a| {
            (a + 2..ring)
                .filter(move |&b| (a, b) != (0, ring - 1))
                .map(move |b| (a, b))
        })
        .map(|(a, b)| {
            let u = SwitchId::new(u32::from(a));
            fabric.link_of(fabric.output_channel(u, fabric.port_toward(u, 0, b)))
        })
        .collect();
    assert_eq!(chords.len(), 20, "an 8-switch ring has 20 chords");
    let mut mask = LinkMask::all_enabled(&fabric);
    let mut table = RouteTable::build(&fabric, Some(&mask));
    g.bench_function("one_ring_refresh_8ary3flat", |b| {
        b.iter(|| {
            // Alternate torus ↔ full butterfly on that one ring.
            for &link in &chords {
                if mask.is_enabled(link) {
                    mask.disable(link);
                } else {
                    mask.enable(link);
                }
            }
            let recomputed = table.refresh(&fabric, Some(&mask));
            debug_assert_eq!(recomputed, usize::from(ring));
            black_box(recomputed)
        })
    });
    g.finish();
}

criterion_group!(benches, route_table);
criterion_main!(benches);
