//! Empirical CDFs over path properties, regenerating Fig. 4(d)-(e).

use crate::operators::NetworkModel;

/// Empirical CDF: sorted `(value, cumulative_probability)` points.
///
/// Sorted by `total_cmp`, which orders finite values as `partial_cmp` does
/// except that it puts `-0.0` before `0.0`; the path capacities and delays
/// it is built from are positive, so no `-0.0` reaches it.
pub(crate) fn ecdf(mut values: Vec<f64>) -> Vec<(f64, f64)> {
    values.retain(|v| v.is_finite());
    values.sort_by(f64::total_cmp);
    let n = values.len();
    values
        .into_iter()
        .enumerate()
        .map(|(i, v)| (v, (i + 1) as f64 / n as f64))
        .collect()
}

/// Per-path bottleneck capacity (Gb/s) CDF across BS→edge-CU paths —
/// Fig. 4(d).
pub fn path_capacity_cdf(model: &NetworkModel) -> Vec<(f64, f64)> {
    ecdf(
        model
            .edge_paths()
            .map(|p| p.bottleneck_mbps / 1000.0)
            .collect(),
    )
}

/// Per-path latency (µs) CDF across BS→edge-CU paths — Fig. 4(e).
pub fn path_delay_cdf(model: &NetworkModel) -> Vec<(f64, f64)> {
    ecdf(model.edge_paths().map(|p| p.delay_us).collect())
}

/// Summary quantile (q ∈ [0, 1]) of an ECDF.
pub fn quantile(cdf: &[(f64, f64)], q: f64) -> f64 {
    assert!((0.0..=1.0).contains(&q));
    cdf.iter()
        .find(|&&(_, p)| p >= q)
        .or(cdf.last())
        .map_or(f64::NAN, |&(v, _)| v)
}
