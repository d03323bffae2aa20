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
//! Each is a thin printer over `ovnes_scenario::experiment`, which defines
//! every figure once, and prints aligned text to stdout. Every block they
//! print at their defaults is pinned by `tests/paper_figures.rs`;
//! `--scale F` and `--seed N` move a figure off those defaults.
//!
//! Nothing here is timed. Performance is measured end to end by the
//! `benchmark/` package; the kernels' work is pinned as exact counts by
//! `tests/kernel_counts.rs`.

#![deny(unreachable_pub)]

/// Reads `flag`'s value from the command line (`--scale F`, `--seed N`);
/// `default` when it is absent or does not parse.
pub fn arg<T: std::str::FromStr>(flag: &str, default: T) -> T {
    let args: Vec<String> = std::env::args().collect();
    let value = args
        .iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1));
    value.and_then(|v| v.parse().ok()).unwrap_or(default)
}

/// Prints a horizontal rule sized to a header string.
pub fn rule(header: &str) {
    println!("{}", "-".repeat(header.len()));
}
