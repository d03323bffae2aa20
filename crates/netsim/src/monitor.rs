//! Monitoring and feedback (§2.2.2).
//!
//! Between two decision epochs the monitoring block collects κ load samples
//! per slice and aggregates each epoch to its **peak** — the paper uses
//! `λ^{(t)} = max{λ^{(θ)} | θ ∈ κ^{(t)}}` so that reservations cover peak
//! aggregate loads. The per-epoch peak series is what the forecaster sees.

use std::collections::HashMap;

/// Keyed store of per-epoch peak-load series.
///
/// Keys identify a monitored entity — the orchestrator uses
/// `(tenant, base_station)` pairs encoded as `(u32, u32)`.
#[derive(Debug, Clone, Default)]
pub struct MonitorStore {
    series: HashMap<(u32, u32), Vec<f64>>,
}

impl MonitorStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one epoch's samples for a key, appending their peak to the
    /// key's series. Returns the recorded peak. Empty sample sets record 0.
    pub fn record_epoch(&mut self, key: (u32, u32), samples: &[f64]) -> f64 {
        let peak = samples.iter().cloned().fold(0.0f64, f64::max);
        self.series.entry(key).or_default().push(peak);
        peak
    }

    /// Appends a pre-aggregated peak (e.g. when the engine already reduced
    /// the samples).
    pub fn record_peak(&mut self, key: (u32, u32), peak: f64) {
        self.series.entry(key).or_default().push(peak.max(0.0));
    }

    /// The peak series for a key (earliest epoch first).
    pub fn series(&self, key: (u32, u32)) -> &[f64] {
        self.series.get(&key).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of epochs recorded for a key.
    pub fn epochs(&self, key: (u32, u32)) -> usize {
        self.series(key).len()
    }

    /// Drops a key's history (slice departed).
    pub fn forget(&mut self, key: (u32, u32)) {
        self.series.remove(&key);
    }

    /// Drops every series whose tenant (the key's first half) `keep`
    /// rejects — the orchestrator's end-of-epoch sweep of departed tenants.
    pub fn retain_tenants(&mut self, mut keep: impl FnMut(u32) -> bool) {
        self.series.retain(|&(tenant, _), _| keep(tenant));
    }

    /// Number of tracked keys.
    pub fn len(&self) -> usize {
        self.series.len()
    }

    /// True when nothing is tracked.
    pub fn is_empty(&self) -> bool {
        self.series.is_empty()
    }
}
