//! Telemetry integration: tracing and metrics must observe the
//! simulation without perturbing it.
//!
//! The load-bearing guarantee is byte-identical serialized reports —
//! metrics map included — across every combination of scheduler
//! backend (`EPNET_SCHED`), route mode (`EPNET_ROUTES`), epoch mode
//! (`EPNET_EPOCH`), and tracing on/off, under both the packet and the
//! hybrid model. Wall-clock phase timings are exempt by construction: the
//! report serializer excludes them.

use epnet::exp::{EvalScale, WorkloadKind};
use epnet::prelude::*;
use epnet::sim::{MemorySink, SimModel, TraceCategory, Tracer};
use epnet_telemetry::{parse_jsonl, validate_jsonl, TraceRecord};
use std::sync::Mutex;

/// Serializes the env-twiddling tests in this binary — `EPNET_SCHED`,
/// `EPNET_ROUTES`, `EPNET_EPOCH`, and `EPNET_TRACE` are process-global.
static ENV_LOCK: Mutex<()> = Mutex::new(());

fn tiny() -> EvalScale {
    let mut s = EvalScale::tiny();
    s.duration = SimTime::from_ms(1);
    s
}

/// Runs the tiny Search scenario, optionally traced; returns the
/// serialized report and the trace text.
fn run_traced(traced: bool) -> (String, String) {
    let scale = tiny();
    let fabric = scale.fabric();
    let mut sim = Simulator::new(
        fabric,
        SimConfig::default(),
        WorkloadKind::Search.source(scale.hosts() as u32, scale.seed, scale.duration),
    );
    let sink = MemorySink::new();
    if traced {
        sim.set_tracer(Tracer::new(sink.clone(), TraceCategory::ALL_MASK));
    }
    let report = sim.run_until(scale.duration);
    (
        serde_json::to_string_pretty(&report).expect("report serializes"),
        sink.contents(),
    )
}

/// Par_modes' flow-heavy hybrid case: 256 KiB messages (4× the
/// absorption threshold) on an FBFLY(2, 8, 2) with dynamic topology at
/// load 0.3, seed 17. Nearly every injection goes through the absorb
/// gate, and dynamic-topology drains demote flows back to packets.
/// Built with [`Simulator::with_model`], so it mutates no environment.
/// Returns the serialized report, the report, and the trace text.
fn run_flow_heavy_hybrid(traced: bool) -> (String, SimReport, String) {
    let fabric = FlattenedButterfly::new(2, 8, 2)
        .expect("valid shape")
        .build_fabric();
    let horizon = SimTime::from_ms(1);
    let src = UniformRandom::builder(fabric.num_hosts() as u32)
        .offered_load(0.3)
        .message_bytes(256 * 1024)
        .seed(17)
        .horizon(horizon)
        .build();
    let mut sim = Simulator::with_model(
        fabric.clone(),
        SimConfig::builder().build(),
        src,
        SimModel::Hybrid,
    );
    sim.enable_dynamic_topology(DynamicTopology::new(
        &fabric,
        DynamicTopologyConfig::default(),
    ));
    let sink = MemorySink::new();
    if traced {
        sim.set_tracer(Tracer::new(sink.clone(), TraceCategory::ALL_MASK));
    }
    let report = sim.run_until(horizon);
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    (json, report, sink.contents())
}

#[test]
fn reports_are_byte_identical_across_modes_and_tracing() {
    let _guard = ENV_LOCK.lock().unwrap();
    let mut packet = Vec::new();
    let mut hybrid = Vec::new();
    for sched in ["calendar", "heap"] {
        std::env::set_var("EPNET_SCHED", sched);
        for routes in ["table", "dynamic"] {
            std::env::set_var("EPNET_ROUTES", routes);
            for epoch in ["active", "sweep"] {
                std::env::set_var("EPNET_EPOCH", epoch);
                for traced in [false, true] {
                    let label = format!("{sched}/{routes}/{epoch}/traced={traced}");
                    let (report, trace) = run_traced(traced);
                    assert_eq!(traced, !trace.is_empty(), "tracer emits iff installed");
                    packet.push((label.clone(), report));
                    let (json, report, trace) = run_flow_heavy_hybrid(traced);
                    assert_eq!(traced, !trace.is_empty(), "tracer emits iff installed");
                    // Non-vacuity: the hybrid input must exercise both
                    // regime boundaries in every mode.
                    for key in ["flows_absorbed", "flows_demoted"] {
                        assert!(
                            report.diagnostics.get(key).is_some_and(|&n| n > 0),
                            "flow-heavy hybrid run has no {key} under {label}"
                        );
                    }
                    hybrid.push((label, json));
                }
            }
        }
    }
    std::env::remove_var("EPNET_SCHED");
    std::env::remove_var("EPNET_ROUTES");
    std::env::remove_var("EPNET_EPOCH");
    for (input, reports) in [("packet", &packet), ("hybrid", &hybrid)] {
        let (base_label, base) = &reports[0];
        for (label, report) in &reports[1..] {
            assert_eq!(
                base, report,
                "{input} serialized report differs between {base_label} and {label}"
            );
        }
    }
}

/// The same guarantee beyond the toy fabric: an FBFLY(4,16,2) — 64
/// hosts, 16 switches, large enough to exercise multi-candidate
/// adaptive routing, credit backpressure, and calendar-queue resizes —
/// must also serialize byte-identically across scheduler backend,
/// route mode, and tracing. Guards the struct-of-arrays hot-state
/// layout and the free-list recycling at a scale where their bugs
/// would actually surface.
#[test]
fn reports_are_byte_identical_across_modes_at_scale() {
    let _guard = ENV_LOCK.lock().unwrap();
    let horizon = SimTime::from_ms(2);
    let run = || {
        let fabric = epnet::topology::FlattenedButterfly::new(4, 16, 2)
            .expect("valid shape")
            .build_fabric();
        let hosts = fabric.num_hosts() as u32;
        let sim = Simulator::new(
            fabric,
            SimConfig::default(),
            WorkloadKind::Search.source(hosts, 7, horizon),
        );
        let report = sim.run_until(horizon);
        serde_json::to_string_pretty(&report).expect("report serializes")
    };
    let mut reports = Vec::new();
    for sched in ["calendar", "heap"] {
        std::env::set_var("EPNET_SCHED", sched);
        for routes in ["table", "dynamic"] {
            std::env::set_var("EPNET_ROUTES", routes);
            reports.push((format!("{sched}/{routes}"), run()));
        }
    }
    std::env::remove_var("EPNET_SCHED");
    std::env::remove_var("EPNET_ROUTES");
    let (base_label, base) = &reports[0];
    for (label, report) in &reports[1..] {
        assert_eq!(
            base, report,
            "serialized report differs between {base_label} and {label}"
        );
    }
}

#[test]
fn trace_is_schema_valid_and_covers_the_controller() {
    let _guard = ENV_LOCK.lock().unwrap();
    let (report, trace) = run_traced(true);
    let stats = validate_jsonl(&trace).expect("every emitted line passes the schema");
    assert!(stats.lines > 0);
    assert!(stats.count(TraceCategory::Controller) > 0, "epochs fired");
    assert!(
        stats.count(TraceCategory::Reactivation) > 0,
        "rate changes traced"
    );

    // Timestamps are monotone per file: the engine pops in time order.
    let records = parse_jsonl(&trace).expect("parses");
    let mut last = 0;
    for r in &records {
        assert!(r.at_ps() >= last, "timestamps must not go backwards");
        last = r.at_ps();
    }

    // The metrics map made it into the serialized report.
    let v: serde_json::Value = serde_json::from_str(&report).expect("report is JSON");
    let metrics = v.get("metrics").expect("metrics serialized");
    assert!(
        metrics.get("events_workload").is_some(),
        "event-kind counters present"
    );
    assert!(
        v.get("phases").is_none(),
        "wall-clock phases must not be serialized"
    );
}

#[test]
fn category_filter_narrows_emission() {
    let _guard = ENV_LOCK.lock().unwrap();
    let scale = tiny();
    let fabric = scale.fabric();
    let mut sim = Simulator::new(
        fabric,
        SimConfig::default(),
        WorkloadKind::Search.source(scale.hosts() as u32, scale.seed, scale.duration),
    );
    let sink = MemorySink::new();
    sim.set_tracer(Tracer::new(sink.clone(), TraceCategory::Controller.bit()));
    sim.run_until(scale.duration);
    let records = parse_jsonl(&sink.contents()).expect("parses");
    assert!(!records.is_empty());
    assert!(
        records
            .iter()
            .all(|r| matches!(r, TraceRecord::Controller { .. })),
        "filtered tracer must emit only the selected category"
    );
}

/// `epoch_queue_samples` deliberately counts *every* channel at every
/// tick, in both epoch modes: the active-set path skips visiting
/// resting channels but still credits them with an exact-zero sample,
/// so the derived mean queue depth keeps the same denominator. The
/// counter must therefore equal `events_epoch_tick × num_channels`
/// whichever implementation ran.
#[test]
fn epoch_queue_samples_count_every_channel_in_both_epoch_modes() {
    let _guard = ENV_LOCK.lock().unwrap();
    let mut snapshots = Vec::new();
    for epoch in ["active", "sweep"] {
        std::env::set_var("EPNET_EPOCH", epoch);
        let scale = tiny();
        let fabric = scale.fabric();
        let sim = Simulator::new(
            fabric,
            SimConfig::default(),
            WorkloadKind::Search.source(scale.hosts() as u32, scale.seed, scale.duration),
        );
        let report = sim.run_until(scale.duration);
        let ticks = report.metrics["events_epoch_tick"];
        let samples = report.metrics["epoch_queue_samples"];
        assert!(ticks > 0, "epochs fired under {epoch}");
        assert_eq!(
            samples,
            ticks * report.num_channels as u64,
            "every channel must be sampled every tick under {epoch}"
        );
        snapshots.push((samples, report.metrics["epoch_queue_bytes_sum"]));
    }
    std::env::remove_var("EPNET_EPOCH");
    assert_eq!(
        snapshots[0], snapshots[1],
        "queue metrics are mode-independent"
    );
}

#[test]
fn epnet_trace_env_var_writes_a_valid_file() {
    let _guard = ENV_LOCK.lock().unwrap();
    let path = std::env::temp_dir().join(format!("epnet_trace_test_{}.jsonl", std::process::id()));
    std::env::set_var("EPNET_TRACE", &path);
    std::env::set_var("EPNET_TRACE_FILTER", "controller,reactivation");
    let scale = tiny();
    let fabric = scale.fabric();
    let sim = Simulator::new(
        fabric,
        SimConfig::default(),
        WorkloadKind::Search.source(scale.hosts() as u32, scale.seed, scale.duration),
    );
    sim.run_until(scale.duration);
    std::env::remove_var("EPNET_TRACE");
    std::env::remove_var("EPNET_TRACE_FILTER");

    let text = std::fs::read_to_string(&path).expect("trace file written");
    let _ = std::fs::remove_file(&path);
    let stats = validate_jsonl(&text).expect("file passes the schema");
    assert!(stats.count(TraceCategory::Controller) > 0);
    assert_eq!(stats.count(TraceCategory::Credit), 0, "filtered out");
    assert_eq!(stats.count(TraceCategory::Detour), 0, "filtered out");
}

/// A typo in `EPNET_TRACE_FILTER` must disable tracing entirely (with
/// a stderr complaint) rather than silently narrowing the filter: the
/// trace file is never created, and the run itself proceeds.
#[test]
fn unknown_trace_filter_name_disables_tracing() {
    let _guard = ENV_LOCK.lock().unwrap();
    let path = std::env::temp_dir().join(format!(
        "epnet_trace_badfilter_{}.jsonl",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    std::env::set_var("EPNET_TRACE", &path);
    std::env::set_var("EPNET_TRACE_FILTER", "controller,bogus");
    let scale = tiny();
    let fabric = scale.fabric();
    let sim = Simulator::new(
        fabric,
        SimConfig::default(),
        WorkloadKind::Search.source(scale.hosts() as u32, scale.seed, scale.duration),
    );
    let report = sim.run_until(scale.duration);
    std::env::remove_var("EPNET_TRACE");
    std::env::remove_var("EPNET_TRACE_FILTER");
    assert!(report.events_processed > 0, "the run itself proceeds");
    assert!(
        !path.exists(),
        "a rejected filter must not create a trace file"
    );
}
