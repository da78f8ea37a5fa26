//! The parallel hybrid engine on the cheap hybrid bench point:
//! `EPNET_PAR=2` must reproduce the serial report byte for byte.
//!
//! This is the only test in its binary on purpose. It sets `EPNET_PAR`,
//! which every simulator built in the same process reads at
//! construction; sharing a process with other tests (the load bench
//! counts which channels an epoch visits, and the parallel engine
//! changes that) would let the variable leak into them.

use epnet_bench::scalebench;

#[test]
fn hybrid_bench_point_is_identical_under_par2() {
    let points = scalebench::sweep(true);
    let cheap = points
        .iter()
        .find(|p| p.name == "hybrid_fbfly_15x8x3")
        .expect("reduced sweep keeps the cheap hybrid point");

    std::env::remove_var("EPNET_PAR");
    let serial =
        serde_json::to_string_pretty(&scalebench::simulator_for(cheap).run_until(cheap.horizon))
            .expect("report serializes");
    std::env::set_var("EPNET_PAR", "2");
    let parallel =
        serde_json::to_string_pretty(&scalebench::simulator_for(cheap).run_until(cheap.horizon))
            .expect("report serializes");
    std::env::remove_var("EPNET_PAR");
    assert_eq!(
        serial, parallel,
        "EPNET_PAR=2 diverged from serial on the hybrid bench point"
    );
}
