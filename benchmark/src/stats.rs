//! The small statistics the harness reports: percentiles, per-epoch
//! minima across repetitions, the latency drift ratio, span self time
//! folded by span name, and the `VmHWM` line of `/proc/self/status`.

use ovnes_obs::FoldedCell;
use std::collections::BTreeMap;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut xs = samples.to_vec();
    xs.sort_by(f64::total_cmp);
    xs
}

/// Nearest-rank percentile: the smallest sample with at least `q` of the
/// samples at or below it. `samples` must not be empty.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    let xs = sorted(samples);
    let rank = (q * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

/// Median; the mean of the two middle samples when the count is even.
/// `samples` must not be empty.
pub fn median(samples: &[f64]) -> f64 {
    let xs = sorted(samples);
    let mid = xs.len() / 2;
    if xs.len() % 2 == 1 {
        xs[mid]
    } else {
        (xs[mid - 1] + xs[mid]) / 2.0
    }
}

/// Smallest sample. `samples` must not be empty.
pub fn minimum(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// For each epoch index, the smallest of that epoch's values across the
/// repetitions. The work of an epoch is deterministic, so what differs
/// between repetitions is noise, and the noise only ever adds time. It
/// comes in episodes that slow whole repetitions: over twelve runs of
/// `faulty_warm` the p50 of the per-epoch minimum ranged over 2.6 %, that
/// of the per-epoch median over 15 %.
pub fn per_epoch_min(reps: &[&[f64]]) -> Vec<f64> {
    let epochs = reps.iter().map(|rep| rep.len()).min().unwrap_or(0);
    (0..epochs)
        .map(|e| reps.iter().map(|rep| rep[e]).fold(f64::INFINITY, f64::min))
        .collect()
}

/// Median latency of the last fifth of the horizon over that of the first
/// fifth: how much an epoch slows down as histories grow.
pub fn drift_ratio(per_epoch: &[f64]) -> f64 {
    let fifth = (per_epoch.len() / 5).max(1);
    median(&per_epoch[per_epoch.len() - fifth..]) / median(&per_epoch[..fifth])
}

/// Folds the tracer's `;`-joined paths by their last component: total
/// call count and self time per span name, whatever its parents.
pub fn fold_by_name(folded: &BTreeMap<String, FoldedCell>) -> BTreeMap<&str, (u64, u64)> {
    let mut by_name: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for (path, cell) in folded {
        let name = path.rsplit(';').next().unwrap_or(path);
        let entry = by_name.entry(name).or_default();
        entry.0 += cell.count;
        entry.1 += cell.self_ns;
    }
    by_name
}

/// The `VmHWM` (peak resident set) of a `/proc/<pid>/status` text, in kB.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let rest = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    rest.trim().strip_suffix("kB")?.trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=20).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 10.0);
        assert_eq!(percentile(&xs, 0.95), 19.0);
        assert_eq!(percentile(&xs, 1.0), 20.0);
        assert_eq!(percentile(&xs, 0.01), 1.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
        // 200 epochs leave ten samples beyond the p95.
        let h: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&h, 0.95), 190.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn per_epoch_min_drops_the_disturbed_repetitions() {
        let reps: [&[f64]; 3] = [&[1.0, 20.0, 30.0], &[10.0, 20.0, 3.0], &[10.0, 2.0, 3.1]];
        assert_eq!(per_epoch_min(&reps), vec![1.0, 2.0, 3.0]);
        assert!(per_epoch_min(&[]).is_empty());
    }

    #[test]
    fn drift_ratio_compares_last_fifth_to_first() {
        let ramp: Vec<f64> = (1..=10).map(f64::from).collect();
        // first fifth {1, 2} -> 1.5, last fifth {9, 10} -> 9.5
        assert_eq!(drift_ratio(&ramp), 9.5 / 1.5);
        assert_eq!(drift_ratio(&[2.0; 50]), 1.0);
        assert_eq!(drift_ratio(&[2.0, 8.0]), 4.0);
    }

    #[test]
    fn spans_fold_by_last_component_across_parents() {
        let cell = |count, self_ns| FoldedCell {
            count,
            total_ns: self_ns * 2,
            self_ns,
        };
        let folded = BTreeMap::from([
            ("scenario".to_string(), cell(1, 5)),
            (
                "scenario;epoch;solve;kac;slave_lp".to_string(),
                cell(3, 100),
            ),
            (
                "scenario;epoch;solve;kac;slave_lp;lp_dual".to_string(),
                cell(3, 40),
            ),
            (
                "scenario;epoch;solve;epoch_solve;kac;slave_lp".to_string(),
                cell(2, 11),
            ),
            (
                "scenario;epoch;solve;milp_solve;milp_node;lp_dual".to_string(),
                cell(7, 2),
            ),
        ]);
        let by_name = fold_by_name(&folded);
        assert_eq!(by_name["slave_lp"], (5, 111));
        assert_eq!(by_name["lp_dual"], (10, 42));
        assert_eq!(by_name["scenario"], (1, 5));
        assert!(!by_name.contains_key("kac"));
    }

    #[test]
    fn vm_hwm_is_parsed_from_proc_status() {
        let status =
            "Name:\tovnes-benchmark\nVmPeak:\t  20000 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 9000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(12345));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\tlots\n"), None);
    }
}
