//! `ovnes-benchmark` — the end-to-end orchestration benchmark.
//!
//! With `--workload NAME` it measures that workload in this process and
//! prints one JSON object a line: an info line, the end-to-end result and,
//! with `--trace 1`, the per-layer result after it. Without, it prints a
//! header line and runs every workload in a child process of its own, so
//! `VmHWM` is per workload. Either output, saved to a file, is an input of
//! `compare.py`. See `README.md`.

mod harness;
mod metrics;
mod probes;
mod stats;
mod workloads;

use std::process::{Command, ExitCode};

/// Ambient knobs the crates read from the environment; the benchmark pins
/// what they set in each spec and clears them so no shell can move it.
const AMBIENT_KNOBS: [&str; 5] = [
    "OVNES_OBS",
    "OVNES_MILP_THREADS",
    "OVNES_MILP_ROUND_WIDTH",
    "OVNES_LP_REFACTOR_INTERVAL",
    "OVNES_LP_FAULT_SEED",
];

struct Args {
    workload: Option<String>,
    /// `ScenarioSpec.seed` of the workload.
    seed: u64,
    seconds: f64,
    /// `--trace 1`: the reference run is traced, and one more line, the
    /// last, carries the per-layer metrics.
    traced: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        traced: true,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad())?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                args.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

/// One result line: the gate's verdict and one of the two metric sets.
fn result_line(m: &harness::Measurement, metrics_json: &str) -> String {
    let (attempted, failed) = metrics::attempted_failed(m);
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{metrics_json}}}}}",
        m.mismatches.is_empty()
    )
}

/// Measures one workload in this process. Prints an info line, the
/// end-to-end result and, when traced, the per-layer result as the last
/// line; `Ok(false)` when the outputs failed the correctness gate.
fn run_workload(name: &str, args: &Args) -> Result<bool, String> {
    let workload = workloads::find(name).ok_or_else(|| {
        let names: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; one of {}", names.join(", "))
    })?;
    let spec = (workload.spec)(args.seed);
    let m = harness::measure(&spec, args.seconds, args.traced)?;
    for mismatch in &m.mismatches {
        eprintln!("incorrect: {mismatch}");
    }
    // Both sets are rendered before anything is printed: a metric that is
    // missing or not finite leaves no result behind.
    let end_to_end = metrics::render(&metrics::END_TO_END, &metrics::end_to_end(&m))?;
    let per_layer = match &m.reference.trace {
        Some(trace) => {
            let values = metrics::per_layer(&m, trace, &probes::run(&spec));
            Some(metrics::render(&metrics::PER_LAYER, &values)?)
        }
        None => None,
    };

    // The fingerprint is informational, not gated: a legitimately changed
    // decision shows in net_revenue and sla_met_ratio, not as a broken golden.
    println!(
        "{{\"workload\": \"{name}\", \"seed\": {}, \"horizon_epochs\": {}, \"samples\": {}, \
         \"reps\": {}, \"setup_builds\": {}, \"decision_fingerprint\": \"{:016x}\"}}",
        args.seed,
        spec.horizon_epochs,
        spec.horizon_epochs,
        m.reps.len(),
        m.setup.total_s.len(),
        m.reference.report.decision_fingerprint(),
    );
    println!("{}", result_line(&m, &end_to_end));
    if let Some(per_layer) = per_layer {
        println!("{}", result_line(&m, &per_layer));
    }
    Ok(m.mismatches.is_empty())
}

/// First line of a command's output, or "unknown" when it cannot run.
fn first_line_of(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .and_then(|text| text.lines().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned())
        .replace(['"', '\\'], "'")
}

/// Prints a header line, then runs every workload in a child process of
/// its own, each printing its info and result lines after it.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    println!(
        "{{\"nproc\": {}, \"rustc\": \"{}\", \"commit\": \"{}\", \"seconds\": {}}}",
        std::thread::available_parallelism().map_or(0, usize::from),
        first_line_of("rustc", &["-V"]),
        first_line_of("git", &["rev-parse", "HEAD"]),
        args.seconds,
    );
    let mut all_correct = true;
    for workload in &workloads::WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", workload.name])
            .args(["--trace", if args.traced { "1" } else { "0" }])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .status()
            .map_err(|e| format!("cannot run {}: {e}", workload.name))?;
        all_correct &= status.success();
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    for knob in AMBIENT_KNOBS {
        std::env::remove_var(knob);
    }
    let outcome = parse_args().and_then(|args| match &args.workload {
        Some(name) => run_workload(name, &args),
        None => run_all(&args),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("ovnes-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
