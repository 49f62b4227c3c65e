//! The repository benchmark: CrossP[+predict+opt] on three closed-loop
//! workloads, end to end on the virtual and host clocks, plus per-layer
//! attribution from a separate traced run.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload seq_stream --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
//! ones. The last stdout line is one JSON object; the exit code is
//! non-zero when any output check fails. METRICS.md describes every
//! metric.

mod layers;
mod scenario;
mod stats;

use std::process::ExitCode;
use std::time::Instant;

use scenario::{check_run, drive, settle, setup, Inputs, Plan, RunLog, Workload};
use stats::{median, result_line, Latency};

/// End-to-end metrics as `(name, unit)`, in output order.
const END_TO_END: &[(&str, &str)] = &[
    ("read_mbps", "MB/s"),
    ("read_mean_us", "us"),
    ("read_tail_p99_us", "us"),
    ("read_tail_p999_us", "us"),
    ("host_peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Fewest repetitions of a workload in one untraced run: the same-seed
/// determinism check needs two, a median of set-up times three.
const MIN_REPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or(format!("{flag} needs a value"))?;
            let number = || {
                value
                    .parse::<u64>()
                    .map_err(|e| format!("{flag} {value}: {e}"))
            };
            match flag.as_str() {
                "--workload" => {
                    workload =
                        Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
                }
                "--seed" => seed = Some(number()?),
                "--seconds" => seconds = Some(number()?),
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.unwrap_or(1),
            seconds: seconds.unwrap_or(10).max(1) as f64,
            trace: trace.unwrap_or(false),
        })
    }
}

/// The caller-side virtual numbers of one run's reading client.
#[derive(Debug, Clone, Copy, PartialEq)]
struct VirtualE2e {
    read_mbps: f64,
    reads: Latency,
    virtual_ns: u64,
}

impl VirtualE2e {
    fn of(log: &RunLog) -> Self {
        let reader = log.reader();
        let mut samples = reader.read_ns.clone();
        Self {
            // Bytes per virtual nanosecond, times 1e3, is MB/s.
            read_mbps: reader.bytes_read as f64 * 1e3 / reader.virtual_ns as f64,
            reads: Latency::of(&mut samples).expect("every workload reads"),
            virtual_ns: reader.virtual_ns,
        }
    }
}

/// One repetition: set up, drive, settle, check.
struct Rep {
    setup_s: f64,
    host_s: f64,
    attempted: u64,
    failed: u64,
    e2e: VirtualE2e,
    failures: Vec<String>,
    layers: Vec<(&'static str, f64)>,
}

fn rep(inputs: &Inputs, traced: bool) -> Rep {
    let world = setup(inputs);
    world.runtime.spans().set_enabled(traced);
    let log = drive(&world, inputs);
    let books = settle(&world);
    let failures = check_run(&world, inputs, &log, &books);
    let layers = if traced {
        layers::virtual_layers(&world.runtime, &log, &books)
    } else {
        Vec::new()
    };
    Rep {
        setup_s: world.setup_s,
        host_s: log.host_s,
        attempted: log.attempted(),
        failed: log.failed(),
        e2e: VirtualE2e::of(&log),
        failures,
        layers,
    }
}

/// Median of one number over several repetitions.
fn median_of(reps: &[Rep], f: impl Fn(&Rep) -> f64) -> f64 {
    median(&mut reps.iter().map(f).collect::<Vec<_>>())
}

/// Peak resident set of this process, in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

struct Outcome {
    failures: Vec<String>,
    /// Lines printed before the metrics, for the reader of the log.
    notes: Vec<String>,
    attempted: u64,
    failed: u64,
    reps: usize,
    metrics: Vec<(&'static str, f64)>,
}

/// Checks shared by both modes: every repetition's own checks, and the
/// same-seed determinism of virtual time where the model promises it.
fn common_checks(workload: Workload, reps: &[Rep], what: &str) -> Vec<String> {
    let mut failures: Vec<String> = reps.iter().flat_map(|r| r.failures.clone()).collect();
    if workload.deterministic() && reps.iter().any(|r| r.e2e != reps[0].e2e) {
        failures.push(format!("{what} gave different virtual end-to-end metrics"));
    }
    failures.dedup();
    failures
}

/// The untraced run: repeat the workload for `seconds` and report
/// end-to-end metrics.
fn untraced(inputs: &Inputs, seconds: f64) -> Outcome {
    let start = Instant::now();
    let mut reps = Vec::new();
    while reps.len() < MIN_REPS || start.elapsed().as_secs_f64() < seconds {
        reps.push(rep(inputs, false));
    }
    let mut failures = common_checks(inputs.workload, &reps, "same-seed repetitions");
    let rss = peak_rss_mb().unwrap_or_else(|e| {
        failures.push(format!("peak RSS unavailable: {e}"));
        0.0
    });
    let metrics = vec![
        ("read_mbps", median_of(&reps, |r| r.e2e.read_mbps)),
        ("read_mean_us", median_of(&reps, |r| r.e2e.reads.mean / 1e3)),
        (
            "read_tail_p99_us",
            median_of(&reps, |r| r.e2e.reads.tail_p99 / 1e3),
        ),
        (
            "read_tail_p999_us",
            median_of(&reps, |r| r.e2e.reads.tail_p999 / 1e3),
        ),
        ("host_peak_rss_mb", rss),
        ("setup_s", median_of(&reps, |r| r.setup_s)),
    ];
    let reads = &reps[0].e2e.reads;
    let notes = vec![format!(
        "virtual read latency over {} samples per repetition: p50 {:.3} us, p99 {:.3} us, \
         p99.9 {:.3} us (repetition 1)",
        reads.count,
        reads.p50 as f64 / 1e3,
        reads.p99 as f64 / 1e3,
        reads.p999 as f64 / 1e3
    )];
    Outcome {
        failures,
        notes,
        attempted: reps.iter().map(|r| r.attempted).sum(),
        failed: reps.iter().map(|r| r.failed).sum(),
        reps: reps.len(),
        metrics,
    }
}

/// The traced run: alternate untraced and traced repetitions for
/// `seconds`, then replay the reads into each layer for host costs.
fn traced(inputs: &Inputs, seconds: f64) -> Outcome {
    let start = Instant::now();
    let (mut plain, mut spanned) = (Vec::new(), Vec::new());
    while spanned.is_empty() || start.elapsed().as_secs_f64() < seconds {
        plain.push(rep(inputs, false));
        spanned.push(rep(inputs, true));
    }
    let mut failures = common_checks(inputs.workload, &plain, "untraced repetitions");
    failures.extend(common_checks(
        inputs.workload,
        &spanned,
        "traced repetitions",
    ));
    if inputs.workload.deterministic() && plain[0].e2e != spanned[0].e2e {
        failures.push("enabling spans changed the virtual end-to-end metrics".to_string());
    }
    failures.dedup();
    let mut metrics: Vec<(&'static str, f64)> = spanned[0]
        .layers
        .iter()
        .map(|&(name, _)| {
            let value = median_of(&spanned, |r| {
                r.layers
                    .iter()
                    .find(|(n, _)| *n == name)
                    .expect("same layers")
                    .1
            });
            (name, value)
        })
        .collect();
    metrics.extend(layers::host_layers(inputs));
    let plain_host = median_of(&plain, |r| r.host_s);
    let traced_host = median_of(&spanned, |r| r.host_s);
    metrics.push((
        "sim.host_kops_per_s",
        median_of(&plain, |r| r.attempted as f64 / r.host_s / 1e3),
    ));
    metrics.push((
        "trace.host_overhead_pct",
        (traced_host / plain_host - 1.0) * 100.0,
    ));
    let reps = plain.len() + spanned.len();
    let all = plain.iter().chain(&spanned);
    Outcome {
        failures,
        notes: vec![format!(
            "{} untraced and {} traced repetitions; host costs replay up to {} reads",
            plain.len(),
            spanned.len(),
            layers::REPLAY_READS
        )],
        attempted: all.clone().map(|r| r.attempted).sum(),
        failed: all.map(|r| r.failed).sum(),
        reps,
        metrics,
    }
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <seq_stream|kv_zipf|shared_rw> \
                 --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let plan = Plan::full(args.workload);
    let inputs = Inputs::generate(args.workload, plan, args.seed);
    let (table, outcome) = if args.trace {
        (layers::PER_LAYER, traced(&inputs, args.seconds))
    } else {
        (END_TO_END, untraced(&inputs, args.seconds))
    };
    let reads_per_rep = inputs.clients[0]
        .iter()
        .filter(|op| matches!(op, scenario::Op::Read { .. }))
        .count();
    println!(
        "workload {} seed {} trace {}: {} repetitions of {} ops ({} reader samples each), {:?}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        outcome.reps,
        inputs.io_ops(),
        reads_per_rep,
        plan,
    );
    for note in &outcome.notes {
        println!("  {note}");
    }
    for (name, unit) in table {
        let value = outcome
            .metrics
            .iter()
            .find(|(n, _)| n == name)
            .map_or(f64::NAN, |m| m.1);
        println!("  {name:<36} {value:>16.4} {unit}");
    }
    println!(
        "  {:<36} {:>16.4} %",
        "ops_failed_pct",
        stats::ratio(outcome.failed as f64 * 100.0, outcome.attempted as f64)
    );
    for failure in &outcome.failures {
        println!("CHECK FAILED: {failure}");
    }
    let correct = outcome.failures.is_empty();
    println!(
        "{}",
        result_line(
            correct,
            outcome.attempted,
            outcome.failed,
            table,
            &outcome.metrics
        )
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_is_valid_and_used_once() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit) in END_TO_END.iter().chain(layers::PER_LAYER) {
            assert!(stats::valid_metric_name(name), "{name}");
            assert!(seen.insert(*name), "{name} listed twice");
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
        }
    }

    #[test]
    fn benchmark_json_declares_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench");
        let declared = json.matches("\"name\":").count();
        assert_eq!(
            declared,
            END_TO_END.len() + layers::PER_LAYER.len() + Workload::ALL.len()
        );
        for (name, unit) in END_TO_END.iter().chain(layers::PER_LAYER) {
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} ({unit}) missing from BENCHMARK.json"
            );
        }
        for w in Workload::ALL {
            assert!(json.contains(&format!("\"name\": \"{}\"", w.name())));
        }
    }

    #[test]
    fn args_parse_the_command_line_flags() {
        let args = Args::parse(
            [
                "--workload",
                "kv_zipf",
                "--seed",
                "7",
                "--seconds",
                "3",
                "--trace",
                "1",
            ]
            .map(String::from)
            .into_iter(),
        )
        .expect("valid flags");
        assert_eq!(args.workload, Workload::KvZipf);
        assert_eq!((args.seed, args.seconds, args.trace), (7, 3.0, true));
        assert!(Args::parse(["--workload", "nope"].map(String::from).into_iter()).is_err());
        assert!(Args::parse(["--trace", "2"].map(String::from).into_iter()).is_err());
    }

    /// Every workload at tiny scale, traced and untraced, passes every
    /// output check, and spans leave virtual time untouched where the
    /// model is deterministic.
    #[test]
    fn tiny_workloads_pass_their_output_checks() {
        for w in Workload::ALL {
            let inputs = Inputs::generate(w, Plan::tiny(w), 5);
            let plain = rep(&inputs, false);
            let spanned = rep(&inputs, true);
            assert!(
                plain.failures.is_empty(),
                "{}: {:?}",
                w.name(),
                plain.failures
            );
            assert!(
                spanned.failures.is_empty(),
                "{}: {:?}",
                w.name(),
                spanned.failures
            );
            assert_eq!(plain.attempted, inputs.io_ops());
            assert_eq!(plain.failed, 0);
            if w.deterministic() {
                assert_eq!(plain.e2e, spanned.e2e, "{}", w.name());
                assert_eq!(plain.e2e, rep(&inputs, false).e2e, "{}", w.name());
            }
            let names: Vec<_> = spanned.layers.iter().map(|(n, _)| *n).collect();
            let host = layers::host_layers(&inputs);
            let expected: Vec<_> = layers::PER_LAYER
                .iter()
                .map(|(n, _)| *n)
                .filter(|n| !["sim.host_kops_per_s", "trace.host_overhead_pct"].contains(n))
                .collect();
            let mut got: Vec<_> = names
                .into_iter()
                .chain(host.iter().map(|(n, _)| *n))
                .collect();
            got.sort_unstable();
            let mut want = expected.clone();
            want.sort_unstable();
            assert_eq!(got, want, "{}", w.name());
        }
    }
}
