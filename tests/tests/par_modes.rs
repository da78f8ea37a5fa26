//! Execution-width cross-check for the simulation-model axis: how many
//! runs execute side by side on the `epnet::exp` worker pool
//! (`EPNET_THREADS`) is an execution detail, never a behavior. Every
//! run must serialize a byte-identical `SimReport` whether it executes
//! alone on the calling thread or concurrently with other runs on a
//! pool of 1, 2, 4, or 8 workers — composed with every simulation
//! model (`EPNET_MODEL`) and reference-mode switch (`EPNET_SCHED=heap`,
//! `EPNET_ROUTES=dynamic`, `EPNET_EPOCH=sweep`). A run that leaked
//! state through a global, a thread-local, or a shared cache would
//! diverge here.

use epnet::exp::run_parallel;
use epnet::prelude::*;
use std::sync::Mutex;

/// Serializes the env-twiddling tests in this binary — the mode
/// switches and `EPNET_THREADS` are process-global.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Worker-pool widths the matrix proves byte-identical to a lone run.
const WIDTHS: [&str; 4] = ["1", "2", "4", "8"];

/// Runs per pool batch: enough that every width above keeps all of its
/// workers busy at once.
const BATCH: usize = 8;

/// Reference-mode switches composed with the width axis. Each entry is
/// (env var, reference value); `None` runs the defaults.
const MODES: [Option<(&str, &str)>; 4] = [
    None,
    Some(("EPNET_SCHED", "heap")),
    Some(("EPNET_ROUTES", "dynamic")),
    Some(("EPNET_EPOCH", "sweep")),
];

/// Simulation models composed with the width axis. `hybrid` absorbs
/// large messages into fluid flows and advances/demotes them at epoch
/// ticks, so its regime decisions must be as run-local as the packet
/// engine's state.
const MODELS: [&str; 2] = ["packet", "hybrid"];

/// Flow-heavy run: 256 KiB messages (4× the hybrid absorption
/// threshold) on an FBFLY with the dynamic-topology extension on, so
/// `EPNET_MODEL=hybrid` absorbs flows, advances them at epoch ticks,
/// and demotes them back into the packet path when dynamic-topology
/// drains puncture their steadiness gate.
fn run_flow_case(c: u16, k: u16, n: usize, load: f64, seed: u64) -> (String, SimReport) {
    let fabric = FlattenedButterfly::new(c, k, n)
        .expect("valid shape")
        .build_fabric();
    let config = SimConfig::builder().build();
    let horizon = SimTime::from_ms(1);
    let src = UniformRandom::builder(fabric.num_hosts() as u32)
        .offered_load(load)
        .message_bytes(256 * 1024)
        .seed(seed)
        .horizon(horizon)
        .build();
    let mut sim = Simulator::new(fabric.clone(), config, src);
    sim.enable_dynamic_topology(DynamicTopology::new(
        &fabric,
        DynamicTopologyConfig::default(),
    ));
    let report = sim.run_until(horizon);
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    (json, report)
}

/// The model axis: {packet, hybrid} × pool widths {1, 2, 4, 8} ×
/// reference modes on the flow-heavy FBFLY(2, 8, 2) run. The hybrid
/// lone-run reference must actually exercise the fluid regime
/// (absorptions and demotions both nonzero) or the axis would
/// vacuously pass.
#[test]
fn model_axis_reports_are_byte_identical_across_widths_and_modes() {
    let _guard = ENV_LOCK.lock().unwrap();
    for model in MODELS {
        std::env::set_var("EPNET_MODEL", model);
        for mode in MODES {
            let label = match mode {
                Some((var, val)) => {
                    std::env::set_var(var, val);
                    format!("EPNET_MODEL={model} {var}={val}")
                }
                None => format!("EPNET_MODEL={model}"),
            };
            let (lone, lone_report) = run_flow_case(2, 8, 2, 0.3, 17);
            if model == "hybrid" {
                for key in ["flows_absorbed", "flows_demoted"] {
                    assert!(
                        lone_report.diagnostics.get(key).is_some_and(|&n| n > 0),
                        "flow-heavy hybrid reference has no {key} for {label}"
                    );
                }
            }
            for width in WIDTHS {
                std::env::set_var("EPNET_THREADS", width);
                let jobs: Vec<Box<dyn FnOnce() -> (String, SimReport) + Send>> = (0..BATCH)
                    .map(|_| {
                        Box::new(|| run_flow_case(2, 8, 2, 0.3, 17))
                            as Box<dyn FnOnce() -> (String, SimReport) + Send>
                    })
                    .collect();
                let pooled = run_parallel(jobs);
                std::env::remove_var("EPNET_THREADS");
                for (i, (json, report)) in pooled.iter().enumerate() {
                    assert_eq!(
                        &lone, json,
                        "serialized report of job {i} differs between a lone run and \
                         EPNET_THREADS={width} for {label}"
                    );
                    for key in ["flows_absorbed", "flows_demoted"] {
                        assert_eq!(
                            lone_report.diagnostics.get(key),
                            report.diagnostics.get(key),
                            "{key} diverged in job {i} at EPNET_THREADS={width} for {label}"
                        );
                    }
                }
            }
            if let Some((var, _)) = mode {
                std::env::remove_var(var);
            }
        }
    }
    std::env::remove_var("EPNET_MODEL");
}
