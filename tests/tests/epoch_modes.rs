//! `EPNET_EPOCH` cross-check: the active-set epoch path is an
//! execution detail, never a behavior. Every configuration must
//! serialize a byte-identical `SimReport` whether epoch ticks sweep
//! all channels (`EPNET_EPOCH=sweep`, the reference) or visit only the
//! active set (the default).
//!
//! The workload is deliberately bursty at low offered load — long idle
//! gaps are exactly where the active-set path skips work, so any
//! resting-condition bug (skipping a channel whose decision would not
//! have been "hold", or retiring one with a queued byte) diverges the
//! reports here.

use epnet::prelude::*;
use epnet::sim::SimModel;
use proptest::prelude::*;
use std::sync::Mutex;

/// Serializes the env-twiddling tests in this binary — `EPNET_EPOCH`
/// is process-global.
static ENV_LOCK: Mutex<()> = Mutex::new(());

const POLICIES: [RatePolicy; 4] = [
    RatePolicy::HalveDouble,
    RatePolicy::JumpToExtremes,
    RatePolicy::Hysteresis {
        low: 0.25,
        high: 0.75,
    },
    RatePolicy::LaneAware,
];

const CONTROLS: [ControlMode; 3] = [
    ControlMode::AlwaysFull,
    ControlMode::IndependentChannel,
    ControlMode::PairedLink,
];

const STRATEGIES: [ReactivationStrategy; 2] = [
    ReactivationStrategy::RouteAround,
    ReactivationStrategy::DrainFirst,
];

/// One run on a small FBFLY with the dynamic-topology extension on
/// (its power-off/reactivate transitions exercise the incremental
/// asymmetry counter and the F_OFF resting exemption), serialized.
fn run_serialized(
    control: ControlMode,
    policy: RatePolicy,
    strategy: ReactivationStrategy,
    load: f64,
    seed: u64,
) -> String {
    let fabric = FlattenedButterfly::new(2, 8, 2)
        .expect("valid shape")
        .build_fabric();
    let mut b = SimConfig::builder();
    b.control(control)
        .policy(policy)
        .reactivation_strategy(strategy);
    let config = b.build();
    let horizon = SimTime::from_ms(1);
    let src = UniformRandom::builder(fabric.num_hosts() as u32)
        .offered_load(load)
        .seed(seed)
        .horizon(horizon)
        .build();
    let mut sim = Simulator::new(fabric.clone(), config, src);
    sim.enable_dynamic_topology(DynamicTopology::new(
        &fabric,
        DynamicTopologyConfig::default(),
    ));
    let report = sim.run_until(horizon);
    serde_json::to_string_pretty(&report).expect("report serializes")
}

/// Hybrid-model twin of [`run_serialized`]: messages of at least
/// 64 KiB, so the fluid path absorbs flows and the tick's fluid advance
/// charges busy time to the channels the controller then decides.
/// Panics when no flow was absorbed, so a hybrid row cannot pass on a
/// packet-only run.
fn run_hybrid_serialized(
    control: ControlMode,
    strategy: ReactivationStrategy,
    message_bytes: u64,
    load: f64,
    seed: u64,
) -> String {
    let fabric = FlattenedButterfly::new(2, 8, 2)
        .expect("valid shape")
        .build_fabric();
    let mut b = SimConfig::builder();
    b.control(control)
        .policy(RatePolicy::HalveDouble)
        .reactivation_strategy(strategy);
    let config = b.build();
    let horizon = SimTime::from_ms(1);
    let src = UniformRandom::builder(fabric.num_hosts() as u32)
        .message_bytes(message_bytes)
        .offered_load(load)
        .seed(seed)
        .horizon(horizon)
        .build();
    let mut sim = Simulator::with_model(fabric.clone(), config, src, SimModel::Hybrid);
    sim.enable_dynamic_topology(DynamicTopology::new(
        &fabric,
        DynamicTopologyConfig::default(),
    ));
    let report = sim.run_until(horizon);
    let absorbed = report.diagnostics.get("flows_absorbed").copied();
    assert!(
        absorbed.unwrap_or(0) > 0,
        "no flow went fluid ({absorbed:?}); the hybrid row would be vacuous"
    );
    serde_json::to_string_pretty(&report).expect("report serializes")
}

/// Runs `f` once per `EPNET_EPOCH` mode and asserts byte identity.
fn assert_modes_agree(label: &str, f: impl Fn() -> String) {
    std::env::set_var("EPNET_EPOCH", "sweep");
    let swept = f();
    std::env::set_var("EPNET_EPOCH", "active");
    let active = f();
    std::env::remove_var("EPNET_EPOCH");
    assert_eq!(
        swept, active,
        "serialized report differs between epoch modes for {label}"
    );
}

/// The full configuration matrix: every control mode × rate policy ×
/// reactivation strategy, low bursty load, dynamic topology enabled.
#[test]
fn sweep_and_active_set_reports_are_byte_identical_across_the_matrix() {
    let _guard = ENV_LOCK.lock().unwrap();
    for control in CONTROLS {
        for policy in POLICIES {
            for strategy in STRATEGIES {
                let label = format!("{control:?}/{policy:?}/{strategy:?}");
                assert_modes_agree(&label, || {
                    run_serialized(control, policy, strategy, 0.08, 11)
                });
            }
        }
    }
}

/// The hybrid model through both deciding control modes: the fluid
/// advance marks channels active from inside the tick, ahead of the
/// retune walk, and fluid busy time keeps channels off the floor.
#[test]
fn sweep_and_active_set_agree_under_the_hybrid_model() {
    let _guard = ENV_LOCK.lock().unwrap();
    for control in [ControlMode::PairedLink, ControlMode::IndependentChannel] {
        for strategy in STRATEGIES {
            for (message_bytes, load, seed) in [(64 * 1024, 0.3, 5), (256 * 1024, 0.08, 17)] {
                let label = format!("hybrid {control:?}/{strategy:?}/{message_bytes}B@{load}");
                assert_modes_agree(&label, || {
                    run_hybrid_serialized(control, strategy, message_bytes, load, seed)
                });
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random seeds and loads — including loads high enough that most
    /// channels stay permanently active — through a random slice of
    /// the matrix.
    #[test]
    fn sweep_and_active_set_agree_on_random_workloads(
        seed in any::<u64>(),
        load in 0.02f64..0.7,
        control_pick in 0usize..3,
        policy_pick in 0usize..4,
        strategy_pick in 0usize..2,
    ) {
        let _guard = ENV_LOCK.lock().unwrap();
        let control = CONTROLS[control_pick];
        let policy = POLICIES[policy_pick];
        let strategy = STRATEGIES[strategy_pick];
        std::env::set_var("EPNET_EPOCH", "sweep");
        let swept = run_serialized(control, policy, strategy, load, seed);
        std::env::set_var("EPNET_EPOCH", "active");
        let active = run_serialized(control, policy, strategy, load, seed);
        std::env::remove_var("EPNET_EPOCH");
        prop_assert_eq!(
            swept, active,
            "epoch modes diverged for {:?}/{:?}/{:?} load={} seed={}",
            control, policy, strategy, load, seed
        );
    }
}
