//! Shared parsing for runtime environment switches.
//!
//! `EPNET_THREADS` sizes the sweep/campaign job pool from `epnet::exp`.
//! Its grammar is parsed here exactly once: a positive integer enables
//! the pool at that width; `off`, `0`, an empty value, or anything
//! unparseable means "not set".
//!
//! `EPNET_MODEL` selects the simulation regime (`packet` or `hybrid`)
//! and is parsed here too, with the same reject-unknown-value contract
//! as `EPNET_TRACE_FILTER`: a value outside the documented vocabulary
//! prints an error to stderr and falls back to the default rather than
//! silently simulating something the user did not ask for.

/// Parses a thread-width value.
///
/// Returns `Some(n)` for a positive integer `n` (surrounding whitespace
/// ignored), and `None` for an empty value, `off`, `0`, or anything
/// that is not a number.
pub fn parse_threads(raw: &str) -> Option<usize> {
    let v = raw.trim();
    if v.is_empty() || v.eq_ignore_ascii_case("off") {
        return None;
    }
    match v.parse::<usize>() {
        Ok(n) if n >= 1 => Some(n),
        _ => None,
    }
}

/// Reads a thread-width environment variable with [`parse_threads`];
/// an unset variable is `None`. Callers that need a machine-derived
/// default (like the sweep worker pool) layer it on top of the `None`
/// case.
pub fn env_threads(var: &str) -> Option<usize> {
    parse_threads(&std::env::var(var).ok()?)
}

/// Which simulation regime the engine runs.
///
/// `Packet` is the default bit-faithful discrete-event model; `Hybrid`
/// aggregates steady flows into analytic per-epoch fluid state while
/// keeping packet-level simulation where the interesting dynamics live
/// (see DESIGN.md "Hybrid flow/packet model").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimModel {
    /// Pure packet-level simulation (the default).
    #[default]
    Packet,
    /// Flow-level aggregation for steady traffic, packets elsewhere.
    Hybrid,
}

/// Parses an `EPNET_MODEL` value.
///
/// Accepts `packet` and `hybrid` (case-insensitive, surrounding
/// whitespace ignored); an empty value means the default. Anything
/// else is an error naming the offending value and the vocabulary.
pub fn parse_model(raw: &str) -> Result<SimModel, String> {
    let v = raw.trim();
    if v.is_empty() || v.eq_ignore_ascii_case("packet") {
        Ok(SimModel::Packet)
    } else if v.eq_ignore_ascii_case("hybrid") {
        Ok(SimModel::Hybrid)
    } else {
        Err(format!(
            "unknown simulation model '{v}' in EPNET_MODEL; valid models: packet, hybrid"
        ))
    }
}

/// Reads the simulation model from `EPNET_MODEL`.
///
/// Unset or empty means [`SimModel::Packet`]. An unknown value prints
/// the [`parse_model`] error to stderr and falls back to the packet
/// model — mirroring the `EPNET_TRACE_FILTER` contract of rejecting,
/// not guessing.
pub fn env_model() -> SimModel {
    match std::env::var("EPNET_MODEL") {
        Ok(raw) => match parse_model(&raw) {
            Ok(model) => model,
            Err(msg) => {
                eprintln!("epnet: {msg}");
                SimModel::Packet
            }
        },
        Err(_) => SimModel::Packet,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_positive_widths_and_rejects_everything_else() {
        for (value, expect) in [
            ("4", Some(4)),
            ("1", Some(1)),
            (" 8 ", Some(8)),
            ("off", None),
            ("OFF", None),
            ("0", None),
            ("", None),
            ("many", None),
            ("-2", None),
        ] {
            assert_eq!(parse_threads(value), expect, "value {value:?}");
        }
        assert_eq!(env_threads("EPNET_ENV_THREADS_TEST_UNSET"), None, "unset");
    }

    #[test]
    fn parses_models_and_pins_the_unknown_value_message() {
        for (value, expect) in [
            ("packet", Ok(SimModel::Packet)),
            ("PACKET", Ok(SimModel::Packet)),
            (" hybrid ", Ok(SimModel::Hybrid)),
            ("Hybrid", Ok(SimModel::Hybrid)),
            ("", Ok(SimModel::Packet)),
            (
                "fluid",
                Err("unknown simulation model 'fluid' in EPNET_MODEL; \
                     valid models: packet, hybrid"
                    .to_string()),
            ),
        ] {
            assert_eq!(parse_model(value), expect, "value {value:?}");
        }
        // The env reader rejects unknown values by falling back to the
        // packet default (after printing the error above to stderr).
        std::env::set_var("EPNET_MODEL", "fluid");
        assert_eq!(env_model(), SimModel::Packet);
        std::env::set_var("EPNET_MODEL", "hybrid");
        assert_eq!(env_model(), SimModel::Hybrid);
        std::env::remove_var("EPNET_MODEL");
        assert_eq!(env_model(), SimModel::Packet);
    }
}
