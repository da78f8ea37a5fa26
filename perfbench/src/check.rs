//! Per-run correctness checks: determinism of the serialized report and
//! the conservation and regime invariants each workload must satisfy.

use crate::workload::Workload;
use epnet_power::LinkPowerProfile;
use epnet_sim::{SimModel, SimReport};

/// 64-bit FNV-1a of `bytes`: a cheap, dependency-free digest for
/// comparing serialized reports across repeats.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Digest of the report's serialized (wall-clock-free) form.
pub fn digest(report: &SimReport) -> u64 {
    let json = serde_json::to_string(report).expect("reports serialize");
    fnv1a64(json.as_bytes())
}

fn diag(report: &SimReport, key: &str) -> u64 {
    report.diagnostics.get(key).copied().unwrap_or(0)
}

/// Checks one run's report and returns its digest. `reference` is the
/// digest of the first run of the same workload and seed in this
/// process, if any; every later run must reproduce it byte for byte.
pub fn check_report(
    workload: Workload,
    report: &SimReport,
    reference: Option<u64>,
) -> Result<u64, String> {
    let got = digest(report);
    if let Some(expected) = reference {
        if got != expected {
            return Err(format!(
                "report digest {got:016x} differs from the first run's {expected:016x}"
            ));
        }
    }
    if report.delivered_bytes > report.offered_bytes {
        return Err(format!(
            "delivered {} B exceeds offered {} B",
            report.delivered_bytes, report.offered_bytes
        ));
    }
    let profile = LinkPowerProfile::Measured;
    let power = report.relative_power(&profile);
    let floor = workload.power_floor(&profile);
    if !(floor..=1.0).contains(&power) {
        return Err(format!("rel_power {power} outside [{floor}, 1]"));
    }
    match workload.model() {
        SimModel::Hybrid => {
            let fluid = diag(report, "flow_fluid_bytes");
            if (fluid as f64) < 0.99 * report.delivered_bytes as f64 {
                return Err(format!(
                    "fluid carried {fluid} of {} delivered bytes (< 99%)",
                    report.delivered_bytes
                ));
            }
            if report.packets_delivered != 0 {
                return Err(format!(
                    "hybrid bulk run delivered {} packets",
                    report.packets_delivered
                ));
            }
        }
        SimModel::Packet => {
            let absorbed = diag(report, "flows_absorbed");
            if absorbed != 0 {
                return Err(format!("packet run absorbed {absorbed} flows"));
            }
        }
    }
    if workload.dyntopo() && report.residency.off_fraction() <= 0.0 {
        return Err("dynamic topology never powered a link off".into());
    }
    if report.messages_delivered == 0 {
        return Err("no message completed".into());
    }
    Ok(got)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use epnet_sim::{Message, ReplaySource, SimConfig, SimTime, Simulator};
    use epnet_topology::{FlattenedButterfly, HostId};

    /// A small, real packet-model report.
    pub(crate) fn small_report(bytes: u64) -> SimReport {
        let fabric = FlattenedButterfly::new(2, 4, 2).unwrap().build_fabric();
        let traffic = ReplaySource::new(vec![Message {
            at: SimTime::from_us(100),
            src: HostId::new(0),
            dst: HostId::new(5),
            bytes,
        }]);
        Simulator::with_model(fabric, SimConfig::default(), traffic, SimModel::Packet)
            .run_until(SimTime::from_ms(1))
    }

    #[test]
    fn digest_is_fnv1a() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn accepts_a_repeated_run() {
        let first = small_report(64 * 1024);
        let again = small_report(64 * 1024);
        check_report(Workload::SearchPacket, &again, Some(digest(&first))).unwrap();
    }

    #[test]
    fn rejects_a_nondeterministic_run() {
        let first = small_report(64 * 1024);
        let other = small_report(32 * 1024);
        let err = check_report(Workload::SearchPacket, &other, Some(digest(&first))).unwrap_err();
        assert!(err.contains("digest"), "{err}");
    }

    #[test]
    fn rejects_tampered_reports() {
        let good = small_report(64 * 1024);
        check_report(Workload::SearchPacket, &good, None).unwrap();

        let mut inflated = good.clone();
        inflated.delivered_bytes = inflated.offered_bytes + 1;
        assert!(check_report(Workload::SearchPacket, &inflated, None)
            .unwrap_err()
            .contains("exceeds offered"));
        // Tampering also moves the digest.
        assert_ne!(digest(&inflated), digest(&good));

        let mut below_floor = good.clone();
        below_floor.residency.at_rate_ps = [0; 5];
        below_floor.residency.off_ps = 1;
        assert!(check_report(Workload::SearchPacket, &below_floor, None)
            .unwrap_err()
            .contains("rel_power"));

        let mut absorbed = good.clone();
        absorbed.diagnostics.insert("flows_absorbed".into(), 3);
        assert!(check_report(Workload::SearchPacket, &absorbed, None)
            .unwrap_err()
            .contains("absorbed"));

        // A packet report passed off as the hybrid workload fails the
        // fluid-share check; as the dyntopo one, the off-residency check.
        assert!(check_report(Workload::HybridBulk, &good, None)
            .unwrap_err()
            .contains("fluid"));
        assert!(check_report(Workload::LowloadDyntopo, &good, None)
            .unwrap_err()
            .contains("powered a link off"));
    }
}
