//! Event-driven simulator for energy-proportional datacenter networks.
//!
//! This crate is the evaluation vehicle of Abts et&nbsp;al., *Energy
//! Proportional Datacenter Networks* (ISCA 2010, §4): a discrete-event,
//! packet-granularity simulator of a flattened-butterfly fabric whose
//! plesiochronous links can be retuned at runtime between 40, 20, 10, 5
//! and 2.5&nbsp;Gb/s.
//!
//! The pieces:
//!
//! * [`Simulator`] — the engine: credit-based flow control, adaptive
//!   routing on output-queue depth, and the per-epoch link-rate
//!   controller of §3.3 (paired or independent channel control).
//! * [`SimConfig`] — all the §4 knobs: reactivation latency, epoch,
//!   target utilization, control mode, rate policy.
//! * [`TrafficSource`] / [`Message`] — the workload interface
//!   (generators live in `epnet-workloads`).
//! * [`SimReport`] — per-run results: latency, utilization, per-rate
//!   channel residency (Figure 7), and relative network power under any
//!   [`LinkPowerProfile`](epnet_power::LinkPowerProfile) (Figure 8).
//! * [`DynamicTopology`] — the §5.2 extension: powering whole links off
//!   to morph the butterfly into a torus or mesh, and back.
//! * [`Scheduler`] — the pending-event set: a calendar queue by
//!   default, with the reference binary heap selectable via
//!   `EPNET_SCHED=heap` for cross-checking (both pop the identical
//!   deterministic `(time, seq)` order).
//!
//! Routing candidates come from a precomputed
//! [`RouteTable`](epnet_topology::RouteTable) by default, refreshed in
//! place — only the dimension rings a link flip touched — when the link
//! mask's generation counter moves; setting
//! `EPNET_ROUTES=dynamic` at simulator construction selects the
//! reference per-hop computation instead. Like the scheduler knob, the
//! choice never changes simulation output — reports are byte-identical
//! either way.
//!
//! `EPNET_PAR=N` runs the simulation itself on the sharded parallel
//! engine: the fabric is partitioned across `N` worker shards by
//! switch group and executed in conservatively-synchronized windows
//! bounded by the minimum channel propagation delay (see the module
//! docs of `par.rs`). Like every other switch it is an execution
//! detail — [`SimReport`]s and merged trace streams are byte-identical
//! to the serial engine at every width, enforced by
//! `tests/tests/par_modes.rs`.
//!
//! # Example
//!
//! ```
//! use epnet_sim::{Message, ReplaySource, SimConfig, SimTime, Simulator};
//! use epnet_topology::{FlattenedButterfly, HostId};
//!
//! let fabric = FlattenedButterfly::new(2, 4, 2)?.build_fabric();
//! let traffic = ReplaySource::new(vec![Message {
//!     at: SimTime::from_us(1),
//!     src: HostId::new(0),
//!     dst: HostId::new(5),
//!     bytes: 16 * 1024,
//! }]);
//! let report = Simulator::new(fabric, SimConfig::default(), traffic)
//!     .run_until(SimTime::from_ms(1));
//! assert_eq!(report.delivered_bytes, 16 * 1024);
//! assert!(report.reconfigurations > 0, "idle links detune");
//! # Ok::<(), epnet_topology::TopologyError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs, missing_debug_implementations)]

mod channels;
mod config;
mod controller;
mod dyntopo;
mod engine;
pub mod env;
mod event;
mod flows;
mod instrument;
mod packet;
mod par;
pub mod sched;
mod stats;
mod time;
mod traffic;

pub use config::{
    ControlMode, EpochMode, RatePolicy, ReactivationModel, ReactivationStrategy, RoutingPolicy,
    SimConfig, SimConfigBuilder,
};
pub use dyntopo::{DynamicTopology, DynamicTopologyConfig};
pub use engine::Simulator;
pub use env::{env_model, env_threads, parse_model, SimModel};
pub use packet::MessageId;
pub use sched::{Backend, Scheduler};
pub use stats::{LatencyHistogram, RateResidency, SimReport, TimelineEvent};
pub use time::SimTime;
pub use traffic::{MergedSource, Message, ReplaySource, TrafficSource};

// Telemetry types that appear in this crate's public API
// (`Simulator::set_tracer`, `SimReport.phases`) or that embedders need
// to build programmatic trace sinks.
pub use epnet_telemetry::{MemorySink, Phase, TraceCategory, Tracer};
