//! # ovnes-bench — figure & table regeneration harness
//!
//! One binary per paper artefact:
//!
//! * `table1` — the slice templates,
//! * `fig4` — topology statistics and path capacity/delay CDFs,
//! * `fig5` — homogeneous revenue-gain sweeps (α × σ × m × class × operator),
//! * `fig6` — heterogeneous β-mix revenue curves,
//! * `fig8` — the testbed day time series,
//! * `sla_footprint` — §4.3.3's violation-probability check,
//! * `ablation` — design-choice ablations (forecasting, headroom, solver).
//!
//! All binaries print aligned text tables/series to stdout; pass `--full`
//! where supported to run the paper-size grid instead of the quick default.
//!
//! Nothing here is timed. Performance is measured end to end by the
//! `benchmark/` package; the kernels' work is pinned as exact counts by
//! `tests/kernel_counts.rs`.

/// Returns true when `--full` was passed on the command line.
pub fn full_mode() -> bool {
    std::env::args().any(|a| a == "--full")
}

/// Reads an optional `--seed N` argument (default 18).
pub fn seed_arg() -> u64 {
    arg_value("--seed")
        .and_then(|v| v.parse().ok())
        .unwrap_or(18)
}

/// Reads an optional `--scale F` argument with a per-binary default.
pub fn scale_arg(default: f64) -> f64 {
    arg_value("--scale")
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn arg_value(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Prints a horizontal rule sized to a header string.
pub fn rule(header: &str) {
    println!("{}", "-".repeat(header.len()));
}
