//! The benchmark's workloads: a fabric, an open-loop traffic generator
//! seeded from the benchmark's `--seed`, a simulation model, and a fixed
//! simulated horizon.

use epnet_power::{LinkPowerProfile, LinkRate};
use epnet_sim::{Message, SimModel, SimTime, TrafficSource};
use epnet_topology::{FabricGraph, FlattenedButterfly};
use epnet_workloads::{ServiceTrace, ServiceTraceConfig, UniformRandom};

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Figure 7/8's run: Search-like service trace, packet model, on the
    /// 512-host 8-ary 3-flat with the paper's controller defaults.
    SearchPacket,
    /// Hybrid flow/packet model on a 16,384-host grouped 4-flat carrying
    /// bulk 4 MiB transfers at 5% load.
    HybridBulk,
    /// Uniform 512 KiB messages at 3% load on the 512-host 3-flat, with
    /// the §5.2 dynamic topology powering links off.
    LowloadDyntopo,
}

/// Traffic generators the workloads draw from.
#[derive(Debug)]
pub enum Source {
    /// Bursty request/response service trace.
    Service(ServiceTrace),
    /// Poisson uniform-random transfers.
    Uniform(UniformRandom),
}

impl TrafficSource for Source {
    fn next_message(&mut self) -> Option<Message> {
        match self {
            Source::Service(s) => s.next_message(),
            Source::Uniform(s) => s.next_message(),
        }
    }
}

/// `(concentration, radix, flat dimensions)` of a flattened butterfly.
type Shape = (u16, u16, usize);

/// The 8-ary 3-flat with 8 hosts per switch: the repository's quick
/// evaluation scale (512 hosts).
const QUICK: Shape = (8, 8, 3);

/// 32 hosts on each of 512 switches: 16,384 hosts. The repository's
/// 131,072-host point (`(32, 16, 4)`) works over 110 MB of heap, and on a
/// host whose cache is shared with other work its run time swung between
/// 1.15 s and 1.79 s from one 36 s measurement to the next; this fabric
/// keeps the controller-bound hybrid regime in 11 MB.
const GROUPED_16K: Shape = (32, 8, 4);

/// The Search-like service trace without its cluster-wide load spikes.
/// Spike episodes average 1 ms, so an 8 ms horizon sees only a handful
/// and the offered load would swing 2.7x from seed to seed; every other
/// property (per-host ON/OFF bursts, scatter/gather RPCs, heavy-tailed
/// chunks) is kept.
fn search_without_spikes() -> ServiceTraceConfig {
    ServiceTraceConfig {
        peak_multiplier: 1.0,
        ..ServiceTraceConfig::search_like()
    }
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 3] = [
        Workload::SearchPacket,
        Workload::HybridBulk,
        Workload::LowloadDyntopo,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SearchPacket => "search_packet",
            Workload::HybridBulk => "hybrid_bulk",
            Workload::LowloadDyntopo => "lowload_dyntopo",
        }
    }

    /// Looks a workload up by [`Workload::name`].
    pub fn from_name(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    fn shape(self) -> Shape {
        match self {
            Workload::HybridBulk => GROUPED_16K,
            Workload::SearchPacket | Workload::LowloadDyntopo => QUICK,
        }
    }

    /// Simulated horizon of one run.
    pub fn horizon(self) -> SimTime {
        match self {
            Workload::HybridBulk => SimTime::from_ms(2),
            Workload::SearchPacket | Workload::LowloadDyntopo => SimTime::from_ms(8),
        }
    }

    /// Simulation regime.
    pub fn model(self) -> SimModel {
        match self {
            Workload::HybridBulk => SimModel::Hybrid,
            Workload::SearchPacket | Workload::LowloadDyntopo => SimModel::Packet,
        }
    }

    /// Whether the §5.2 dynamic topology is enabled.
    pub fn dyntopo(self) -> bool {
        self == Workload::LowloadDyntopo
    }

    /// Elaborates the workload's fabric.
    pub fn fabric(self) -> FabricGraph {
        let (c, k, n) = self.shape();
        let topo = match self {
            Workload::HybridBulk => FlattenedButterfly::grouped(c, k, n),
            Workload::SearchPacket | Workload::LowloadDyntopo => FlattenedButterfly::new(c, k, n),
        };
        topo.expect("benchmark shapes are valid").build_fabric()
    }

    /// The workload's traffic over `hosts` hosts, generated from `seed`.
    pub fn source(self, hosts: u32, seed: u64) -> Source {
        let horizon = self.horizon();
        match self {
            Workload::SearchPacket => Source::Service(
                ServiceTrace::builder(hosts, search_without_spikes())
                    .seed(seed)
                    .horizon(horizon)
                    .build(),
            ),
            Workload::HybridBulk => Source::Uniform(
                UniformRandom::builder(hosts)
                    .message_bytes(4 << 20)
                    .offered_load(0.05)
                    .seed(seed)
                    .horizon(horizon)
                    .build(),
            ),
            Workload::LowloadDyntopo => Source::Uniform(
                UniformRandom::builder(hosts)
                    .message_bytes(512 << 10)
                    .offered_load(0.03)
                    .seed(seed)
                    .horizon(horizon)
                    .build(),
            ),
        }
    }

    /// Lowest network power, relative to all links at full rate, that a
    /// correct run can report: every channel at the slowest rate, or
    /// powered off where the dynamic topology may switch links off.
    pub fn power_floor(self, profile: &LinkPowerProfile) -> f64 {
        let slowest = profile.relative_power(LinkRate::R2_5);
        let floor = if self.dyntopo() {
            slowest.min(profile.idle_relative_power())
        } else {
            slowest
        };
        floor / profile.relative_power(LinkRate::MAX)
    }

    /// The parameters that define the workload, for the run manifest.
    pub fn params(self) -> String {
        let (c, k, n) = self.shape();
        let traffic = match self {
            Workload::SearchPacket => "service_trace search_like with peak_multiplier 1",
            Workload::HybridBulk => "uniform 4194304 B at 0.05 load",
            Workload::LowloadDyntopo => "uniform 524288 B at 0.03 load",
        };
        format!(
            "fbfly c={c} k={k} n={n}; {traffic}; model={:?}; dyntopo={}; horizon_us={}; \
             config=SimConfig::default",
            self.model(),
            self.dyntopo(),
            self.horizon().as_ps() / 1_000_000,
        )
    }
}
