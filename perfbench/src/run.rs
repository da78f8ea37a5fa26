//! One repetition of a workload: set up, run to the horizon, report.
//!
//! An untraced repetition times only set-up and the run. A traced one
//! also records spans around each public call into the simulator, times
//! every `next_message` call, and reads the program's own phase timers
//! and counters from the report, to split the run into layers.

use crate::alloc;
use crate::workload::{Source, Workload};
use epnet_sim::{
    DynamicTopology, DynamicTopologyConfig, MemorySink, Message, SimConfig, SimReport, SimTime,
    Simulator, TraceCategory, Tracer, TrafficSource,
};
use epnet_topology::RoutingTopology;
use serde::Value;
use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

/// Equal slices of simulated time an untraced run is timed in.
const SLICES: u64 = 64;

/// Set-ups timed per untraced repetition; the last one is run.
const SETUP_SAMPLES: usize = 3;

/// What every repetition measures.
#[derive(Debug)]
pub struct Rep {
    /// Set-up wall time (topology, generator, simulator, dynamic
    /// topology); the fastest of the repetition's set-ups.
    pub setup_s: f64,
    /// Wall time from `prime` through `finalize`.
    pub run_s: f64,
    /// Wall time of each step of an untraced run: `prime`, each of
    /// [`SLICES`] equal slices of simulated time, then `finalize`.
    pub steps_s: Vec<f64>,
    /// Peak live heap over set-up and run, above the level at its start.
    pub peak_heap_bytes: u64,
    /// The run's report.
    pub report: SimReport,
}

/// A traced repetition's spans and layer breakdown.
#[derive(Debug)]
pub struct Traced {
    /// The timings every repetition has.
    pub rep: Rep,
    /// Recorded spans, in opening order.
    pub spans: Spans,
    /// Per-layer metrics, by name.
    pub layers: Vec<(&'static str, f64)>,
}

/// A span recorded around one call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call, e.g. `sim.advance`.
    pub name: &'static str,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Start, nanoseconds after the repetition began.
    pub start_ns: u64,
    /// End, nanoseconds after the repetition began (0 while open).
    pub end_ns: u64,
}

/// Spans kept in memory until the benchmark writes them out.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    list: Vec<Span>,
}

impl Spans {
    fn new() -> Spans {
        // Sized up front so recording never allocates mid-run.
        Spans {
            origin: Instant::now(),
            list: Vec::with_capacity(32),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.list.push(Span {
            name,
            parent,
            start_ns,
            end_ns: 0,
        });
        self.list.len() - 1
    }

    fn close(&mut self, id: usize) -> f64 {
        let end = self.now_ns();
        let span = &mut self.list[id];
        span.end_ns = end;
        (end - span.start_ns) as f64 / 1e9
    }

    /// The recorded spans.
    pub fn list(&self) -> &[Span] {
        &self.list
    }
}

/// Time and calls spent in the traffic generator.
#[derive(Debug, Default)]
struct GenClock {
    ns: Cell<u64>,
    messages: Cell<u64>,
}

/// Times each `next_message` call of the wrapped generator.
struct Timed<S> {
    inner: S,
    clock: Rc<GenClock>,
}

impl<S: TrafficSource> TrafficSource for Timed<S> {
    fn next_message(&mut self) -> Option<Message> {
        let start = Instant::now();
        let m = self.inner.next_message();
        let ns = start.elapsed().as_nanos() as u64;
        self.clock.ns.set(self.clock.ns.get() + ns);
        if m.is_some() {
            self.clock.messages.set(self.clock.messages.get() + 1);
        }
        m
    }
}

/// Runs `f`, inside a span named `name` under `rec`'s parent span when
/// recording.
fn step<R>(rec: &mut Option<(&mut Spans, usize)>, name: &'static str, f: impl FnOnce() -> R) -> R {
    match rec {
        None => f(),
        Some((spans, parent)) => {
            let id = spans.open(name, Some(*parent));
            let r = f();
            spans.close(id);
            r
        }
    }
}

/// Builds the workload's simulator, wrapping its generator with `wrap`.
fn setup<S: TrafficSource>(
    workload: Workload,
    seed: u64,
    wrap: impl FnOnce(Source) -> S,
    mut rec: Option<(&mut Spans, usize)>,
) -> Simulator<S> {
    let fabric = step(&mut rec, "topology.build", || workload.fabric());
    let source = wrap(workload.source(fabric.num_hosts() as u32, seed));
    let mut sim = step(&mut rec, "sim.new", || {
        Simulator::with_model(fabric, SimConfig::default(), source, workload.model())
    });
    if workload.dyntopo() {
        step(&mut rec, "dyntopo.new", || {
            let dt = DynamicTopology::new(sim.fabric(), DynamicTopologyConfig::default());
            sim.enable_dynamic_topology(dt);
        });
    }
    sim
}

/// One untraced repetition.
pub fn untraced(workload: Workload, seed: u64) -> Rep {
    let mut setup_s = f64::INFINITY;
    let mut timed_setup = || {
        alloc::trim();
        let start = Instant::now();
        let sim = setup(workload, seed, |s| s, None);
        setup_s = setup_s.min(start.elapsed().as_secs_f64());
        sim
    };
    for _ in 1..SETUP_SAMPLES {
        drop(timed_setup());
    }
    let base = alloc::reset_peak();
    let mut sim = timed_setup();
    let horizon = workload.horizon();
    let mut steps_s = Vec::with_capacity(SLICES as usize + 2);
    let mut lap = Instant::now();
    let mut step = || {
        let now = Instant::now();
        steps_s.push((now - lap).as_secs_f64());
        lap = now;
    };
    sim.prime(horizon);
    step();
    for k in 1..=SLICES {
        sim.advance_until(SimTime::from_ps(horizon.as_ps() * k / SLICES));
        step();
    }
    let report = sim.finalize();
    step();
    Rep {
        setup_s,
        run_s: steps_s.iter().sum(),
        steps_s,
        peak_heap_bytes: alloc::peak() - base,
        report,
    }
}

fn phase_s(report: &SimReport, name: &str) -> f64 {
    report
        .phases
        .iter()
        .filter(|p| p.name == name)
        .map(|p| p.wall_ns as f64 / 1e9)
        .sum()
}

fn metric(report: &SimReport, key: &str) -> f64 {
    report.metrics.get(key).copied().unwrap_or(0) as f64
}

fn diagnostic(report: &SimReport, key: &str) -> f64 {
    report.diagnostics.get(key).copied().unwrap_or(0) as f64
}

/// Route-table rebuilds recorded by the `routes` trace category, seconds.
fn route_build_s(trace: &str) -> f64 {
    trace
        .lines()
        .filter_map(|line| serde_json::from_str::<Value>(line).ok())
        .filter(|v| v.get("cat").and_then(Value::as_str) == Some("routes"))
        .filter_map(|v| v.get("build_ns").and_then(Value::as_u64))
        .sum::<u64>() as f64
        / 1e9
}

/// The `q` quantile of packet latency in microseconds, interpolated
/// linearly inside the report's log₂ histogram bucket (bucket `i` holds
/// latencies in `[2^(i-1), 2^i)` ns); 0 when no packet was delivered.
pub fn packet_latency_quantile_us(report: &SimReport, q: f64) -> f64 {
    let hist = serde_json::to_value(&report.packet_latency_hist).expect("histogram serializes");
    let buckets: Vec<u64> = hist
        .get("buckets")
        .and_then(Value::as_seq)
        .map(|b| b.iter().filter_map(Value::as_u64).collect())
        .unwrap_or_default();
    let count: u64 = buckets.iter().sum();
    if count == 0 {
        return 0.0;
    }
    let rank = (count as f64 * q).ceil().max(1.0);
    let mut seen = 0.0;
    for (i, &n) in buckets.iter().enumerate() {
        if n > 0 && seen + n as f64 >= rank {
            let lo = if i == 0 {
                0.0
            } else {
                (1u64 << (i - 1)) as f64
            };
            let hi = (1u64 << i) as f64;
            return (lo + (hi - lo) * (rank - seen) / n as f64) / 1e3;
        }
        seen += n as f64;
    }
    unreachable!("rank lies inside the histogram")
}

/// One traced repetition.
pub fn traced(workload: Workload, seed: u64) -> Traced {
    alloc::trim();
    let base = alloc::reset_peak();
    let mut spans = Spans::new();
    let clock = Rc::new(GenClock::default());
    let setup_span = spans.open("setup", None);
    let timed = Rc::clone(&clock);
    let mut sim = setup(
        workload,
        seed,
        move |inner| Timed {
            inner,
            clock: timed,
        },
        Some((&mut spans, setup_span)),
    );
    let setup_s = spans.close(setup_span);
    // Only rebuilds during the run reach this sink: the initial route
    // table is built inside `Simulator::with_model`, before it exists.
    let routes = MemorySink::new();
    sim.set_tracer(Tracer::new(routes.clone(), TraceCategory::Routes.bit()));

    let horizon = workload.horizon();
    let half = SimTime::from_ps(horizon.as_ps() / 2);
    let run = spans.open("run", None);
    let prime = spans.open("sim.prime", Some(run));
    sim.prime(horizon);
    spans.close(prime);
    let gen_in_prime = clock.ns.get();
    let first = spans.open("sim.advance", Some(run));
    sim.advance_until(half);
    let mut advance_s = spans.close(first);
    let (calls, events) = (alloc::calls(), sim.events_processed());
    let second = spans.open("sim.advance", Some(run));
    sim.advance_until(horizon);
    advance_s += spans.close(second);
    let allocs_per_event =
        (alloc::calls() - calls) as f64 / (sim.events_processed() - events).max(1) as f64;
    let finalize = spans.open("sim.finalize", Some(run));
    let report = sim.finalize();
    let finalize_s = spans.close(finalize);
    let run_s = spans.close(run);
    let peak_heap_bytes = alloc::peak() - base;

    let next_s = clock.ns.get() as f64 / 1e9;
    let gen_in_advance = (clock.ns.get() - gen_in_prime) as f64 / 1e9;
    let controller_s = phase_s(&report, "controller");
    let route_s = route_build_s(&routes.contents());
    let event_loop_s = advance_s - controller_s - route_s - gen_in_advance;
    let unattributed_s = run_s - (event_loop_s + controller_s + route_s + next_s + finalize_s);
    let events = report.events_processed as f64;
    let decisions = report.controller_decisions as f64;
    let delivered = report.delivered_bytes as f64;
    let layers = vec![
        ("topology.build_s", span_s(&spans, "topology.build")),
        ("topology.route_build_s", route_s),
        ("sim.new_s", span_s(&spans, "sim.new")),
        ("sim.event_loop_s", event_loop_s),
        ("sim.events", events),
        ("sim.ns_per_event", event_loop_s * 1e9 / events.max(1.0)),
        ("sim.events_arrive", metric(&report, "events_arrive")),
        ("sim.events_tx_done", metric(&report, "events_tx_done")),
        (
            "sim.events_credit_wake",
            metric(&report, "events_credit_wake"),
        ),
        ("sim.events_retry", metric(&report, "events_retry")),
        ("sim.allocs_per_event", allocs_per_event),
        ("sim.peak_live_packets", report.peak_live_packets as f64),
        ("sim.finalize_s", finalize_s),
        (
            "sim.p99_pkt_latency_us",
            packet_latency_quantile_us(&report, 0.99),
        ),
        ("controller.s", controller_s),
        (
            "controller.decisions_per_tick",
            decisions / (report.epoch_ticks.max(1) as f64),
        ),
        (
            "controller.ns_per_decision",
            controller_s * 1e9 / decisions.max(1.0),
        ),
        (
            "controller.reconfigurations",
            report.reconfigurations as f64,
        ),
        ("flows.absorbed", diagnostic(&report, "flows_absorbed")),
        ("flows.demoted", diagnostic(&report, "flows_demoted")),
        (
            "flows.fluid_share",
            if delivered > 0.0 {
                diagnostic(&report, "flow_fluid_bytes") / delivered
            } else {
                0.0
            },
        ),
        ("flows.table_peak", diagnostic(&report, "flow_table_peak")),
        ("workloads.next_s", next_s),
        ("workloads.messages", clock.messages.get() as f64),
        ("unattributed_s", unattributed_s),
        ("trace.run_s", run_s),
    ];
    Traced {
        rep: Rep {
            setup_s,
            run_s,
            steps_s: Vec::new(),
            peak_heap_bytes,
            report,
        },
        spans,
        layers,
    }
}

/// Total duration of every span named `name`, seconds.
fn span_s(spans: &Spans, name: &str) -> f64 {
    spans
        .list()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_interpolates_inside_the_log2_bucket() {
        let mut report = crate::check::tests::small_report(64 * 1024);
        let mut buckets = vec![0u64; 64];
        // 100 samples in [512, 1024) ns: the 99th lies 99% of the way up.
        buckets[10] = 100;
        let hist = Value::Map(vec![
            (
                "buckets".into(),
                Value::Seq(buckets.iter().map(|&n| Value::U64(n)).collect()),
            ),
            ("count".into(), Value::U64(100)),
        ]);
        report.packet_latency_hist = serde_json::from_value(hist).unwrap();
        let p99 = packet_latency_quantile_us(&report, 0.99);
        assert!((p99 - (512.0 + 512.0 * 0.99) / 1e3).abs() < 1e-12, "{p99}");

        let empty = Value::Map(vec![
            ("buckets".into(), Value::Seq(vec![Value::U64(0); 64])),
            ("count".into(), Value::U64(0)),
        ]);
        report.packet_latency_hist = serde_json::from_value(empty).unwrap();
        assert_eq!(packet_latency_quantile_us(&report, 0.99), 0.0);
    }
}
