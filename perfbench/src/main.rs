//! The repository benchmark.
//!
//! ```text
//! perfbench --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>] [--revision <rev>]
//! ```
//!
//! Repeats one workload (set-up, then one simulation run to its fixed
//! horizon) for `--seconds` of wall time, checks every run's report, and
//! prints one JSON result line last on stdout: the end-to-end metrics
//! with `--trace 0`, or the per-layer metrics of the fastest traced
//! repetition with `--trace 1`. Host times are the fastest measured (see
//! `bench`); simulated metrics are identical in every repetition. A
//! manifest line precedes the result; per-repetition times, a readable
//! summary and the traced spans go to stderr. Normally launched through
//! `python3 perfbench/run.py`, which builds this binary first.

mod alloc;
mod check;
mod metrics;
mod run;
mod stats;
mod workload;

use std::process::ExitCode;
use std::time::Instant;
use workload::Workload;

#[global_allocator]
static COUNTING: alloc::Counting = alloc::Counting;

/// The seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 2010;

/// Repetitions of each kind (untraced, traced) made however short
/// `--seconds` is.
const MIN_REPS: usize = 3;

#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    revision: String,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut revision = "unknown".to_string();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::from_name(&value).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    bad(&format!("expected one of {}", names.join(", ")))
                })?)
            }
            "--seed" => seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(|| bad("expected a positive number"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--revision" => revision = value,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        revision,
    })
}

/// Names of the `EPNET_*` variables among `vars`. The simulator reads
/// several of them (engine, scheduler, routes, epoch mode, model,
/// tracing) and they would silently change what is measured.
fn epnet_vars(
    vars: impl IntoIterator<Item = (std::ffi::OsString, std::ffi::OsString)>,
) -> Vec<String> {
    let mut names: Vec<String> = vars
        .into_iter()
        .map(|(k, _)| k.to_string_lossy().into_owned())
        .filter(|k| k.starts_with("EPNET_"))
        .collect();
    names.sort();
    names
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let set = epnet_vars(std::env::vars_os());
    if !set.is_empty() {
        eprintln!(
            "perfbench: refusing to measure with {} set: EPNET_* variables change what the \
             simulator runs; unset them",
            set.join(", ")
        );
        return ExitCode::from(2);
    }
    bench(&args)
}

/// A finished repetition of either kind.
enum Done {
    Plain(run::Rep),
    Traced(run::Traced),
}

impl Done {
    fn rep(&self) -> &run::Rep {
        match self {
            Done::Plain(r) => r,
            Done::Traced(t) => &t.rep,
        }
    }
}

fn bench(args: &Args) -> ExitCode {
    let w = args.workload;
    let start = Instant::now();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut reference = None;
    let mut plain: Vec<run::Rep> = Vec::new();
    let mut traced: Vec<run::Traced> = Vec::new();
    // Alternate untraced and traced repetitions, so drift over the run
    // affects both sides of the tracing overhead alike.
    let kinds: &[bool] = if args.trace { &[false, true] } else { &[false] };
    loop {
        for &is_traced in kinds {
            attempted += 1;
            let outcome = std::panic::catch_unwind(|| {
                if is_traced {
                    Done::Traced(run::traced(w, args.seed))
                } else {
                    Done::Plain(run::untraced(w, args.seed))
                }
            });
            let Ok(done) = outcome else {
                failed += 1;
                continue;
            };
            let rep = done.rep();
            match check::check_report(w, &rep.report, reference) {
                Ok(d) => {
                    reference = Some(d);
                    eprintln!(
                        "rep {attempted} traced={is_traced} setup_s={:.6} run_s={:.6}",
                        rep.setup_s, rep.run_s
                    );
                    match done {
                        Done::Plain(r) => plain.push(r),
                        Done::Traced(t) => traced.push(t),
                    }
                }
                Err(e) => {
                    eprintln!(
                        "perfbench: {} seed {}: check failed: {e}",
                        w.name(),
                        args.seed
                    );
                    failed += 1;
                }
            }
        }
        let enough = plain.len() >= MIN_REPS && (!args.trace || traced.len() >= MIN_REPS);
        if enough && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
        if attempted >= 4 * MIN_REPS as u64 && failed * 2 > attempted {
            break;
        }
    }
    let correct = failed == 0;
    let digest = reference.map_or("none".to_string(), |d| format!("{d:016x}"));
    let run_s: Vec<f64> = plain.iter().map(|r| r.run_s).collect();
    let setup_s: Vec<f64> = plain.iter().map(|r| r.setup_s).collect();
    let mut spread = Vec::new();
    for (name, v) in [("run_s", &run_s), ("setup_s", &setup_s)] {
        if !v.is_empty() {
            let (q1, q3) = stats::quartiles(v);
            spread.push((format!("{name}_q1"), q1));
            spread.push((format!("{name}_median"), stats::median(v)));
            spread.push((format!("{name}_q3"), q3));
        }
    }
    println!("{}", manifest(args, &digest, failed, attempted, &spread));
    if plain.is_empty() || (args.trace && traced.is_empty()) {
        eprintln!("perfbench: no repetition passed its checks");
        return ExitCode::FAILURE;
    }

    // Every repetition does the same work (the digest check guarantees
    // it), and other load on the host only ever adds time, so host times
    // report the fastest repetition; the manifest carries the spread.
    let fastest = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    // Each step of the run is timed at its fastest, then summed: a
    // repetition slowed in one stretch still counts in the others.
    let steps = plain[0].steps_s.len();
    let best_run_s: f64 = (0..steps)
        .map(|i| fastest(&plain.iter().map(|r| r.steps_s[i]).collect::<Vec<_>>()))
        .sum();
    let line = if args.trace {
        // The fastest traced repetition is reported whole, so its layer
        // times add up to its own `trace.run_s`.
        let best = traced
            .iter()
            .min_by(|a, b| a.rep.run_s.total_cmp(&b.rep.run_s))
            .expect("non-empty");
        for s in best.spans.list() {
            eprintln!(
                "span {} parent={} start_ns={} dur_ns={}",
                s.name,
                s.parent.map_or("-".to_string(), |p| p.to_string()),
                s.start_ns,
                s.end_ns - s.start_ns
            );
        }
        let mut values = best.layers.clone();
        values.push(("trace.overhead_s", best.rep.run_s - fastest(&run_s)));
        for (name, v) in &values {
            eprintln!("{name:32} {v}");
        }
        metrics::result_line(correct, attempted, failed, metrics::PER_LAYER, &values)
    } else {
        let report = &plain[0].report;
        let heap: Vec<f64> = plain
            .iter()
            .map(|r| r.peak_heap_bytes as f64 / 1e6)
            .collect();
        let values = [
            ("run_s", best_run_s),
            ("setup_s", fastest(&setup_s)),
            ("peak_heap_mb", stats::median(&heap)),
            (
                "rel_power",
                report.relative_power(&epnet_power::LinkPowerProfile::Measured),
            ),
            (
                "msg_latency_us",
                report.mean_message_latency.as_ps() as f64 / 1e6,
            ),
        ];
        for (name, v) in &values {
            eprintln!("{name:16} {v}");
        }
        metrics::result_line(correct, attempted, failed, metrics::END_TO_END, &values)
    };
    println!("{line}");
    ExitCode::SUCCESS
}

/// The manifest line: what was run, where, and how it was built.
fn manifest(
    args: &Args,
    digest: &str,
    failed: u64,
    attempted: u64,
    spread: &[(String, f64)],
) -> String {
    use serde::Value;
    let hw_threads = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let fields: Vec<(String, Value)> = vec![
        ("workload".into(), Value::Str(args.workload.name().into())),
        ("params".into(), Value::Str(args.workload.params())),
        ("seed".into(), Value::U64(args.seed)),
        ("seconds".into(), Value::F64(args.seconds)),
        ("trace".into(), Value::Bool(args.trace)),
        ("hw_threads".into(), Value::U64(hw_threads as u64)),
        ("revision".into(), Value::Str(args.revision.clone())),
        ("build_profile".into(), Value::Str(profile.into())),
        ("attempted".into(), Value::U64(attempted)),
        ("report_digest".into(), Value::Str(digest.into())),
        (
            "fail_frac".into(),
            Value::F64(failed as f64 / attempted.max(1) as f64),
        ),
    ]
    .into_iter()
    .chain(spread.iter().map(|(k, v)| (k.clone(), Value::F64(*v))))
    .collect();
    let line = Value::Map(vec![("manifest".into(), Value::Map(fields))]);
    serde_json::to_string(&line).expect("value tree serializes")
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::ffi::OsString;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn env_guard_names_every_epnet_variable() {
        let vars = |names: &[&str]| -> Vec<(OsString, OsString)> {
            names
                .iter()
                .map(|n| (OsString::from(n), OsString::from("1")))
                .collect()
        };
        assert!(epnet_vars(vars(&["PATH", "HOME", "XEPNET_PAR", "epnet_par"])).is_empty());
        assert_eq!(
            epnet_vars(vars(&["PATH", "EPNET_SCHED", "EPNET_PAR"])),
            ["EPNET_PAR", "EPNET_SCHED"]
        );
        assert_eq!(epnet_vars(vars(&["EPNET_"])), ["EPNET_"]);
    }

    #[test]
    fn parses_the_benchmark_arguments() {
        let a = args(&[
            "--workload",
            "hybrid_bulk",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Workload::HybridBulk);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
        let d = args(&["--workload", "search_packet"]).unwrap();
        assert_eq!((d.seed, d.trace), (DEFAULT_SEED, false));
        assert!(args(&[]).is_err());
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "search_packet", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "search_packet", "--seconds", "0"]).is_err());
        assert!(args(&["--workload"]).is_err());
    }
}
