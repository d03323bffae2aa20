//! Metrics: a registry of named counters and gauges, and log-linear
//! (HDR-style) histograms with p50/p90/p99/p999 summaries. Counters are
//! exact u64 adds — deterministic, so they *may* feed fingerprints;
//! histogram values are usually wall-clock and must never be hashed.

use std::collections::BTreeMap;
use std::sync::Mutex;

/// Sub-bucket resolution: 2^5 = 32 linear sub-buckets per power of two,
/// giving ≤ ~3.1% relative quantile error over the full u64 range.
const SUB_BITS: u32 = 5;
const SUB_COUNT: u64 = 1 << SUB_BITS;

/// Log-linear histogram over `u64` values (by convention: nanoseconds).
/// Values below 32 get exact unit buckets; each higher power of two is
/// split into 32 linear sub-buckets. Merging adds bucket counts, so it
/// is associative and commutative — per-worker histograms merge to the
/// same result in any order.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    min: u64,
    max: u64,
}

fn bucket_index(value: u64) -> usize {
    if value < SUB_COUNT {
        value as usize
    } else {
        let msb = 63 - value.leading_zeros();
        let octave = (msb - SUB_BITS) as u64;
        let sub = (value >> octave) & (SUB_COUNT - 1);
        ((octave + 1) * SUB_COUNT + sub) as usize
    }
}

/// Lowest value mapping to bucket `index`.
pub fn bucket_low(index: usize) -> u64 {
    let index = index as u64;
    if index < SUB_COUNT {
        index
    } else {
        let octave = index / SUB_COUNT - 1;
        let sub = index % SUB_COUNT;
        (SUB_COUNT + sub) << octave
    }
}

/// Highest value mapping to bucket `index`.
pub fn bucket_high(index: usize) -> u64 {
    let index_u = index as u64;
    if index_u < SUB_COUNT {
        index_u
    } else {
        let octave = index_u / SUB_COUNT - 1;
        bucket_low(index) + (1u64 << octave) - 1
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram::default()
    }

    pub fn record(&mut self, value: u64) {
        let idx = bucket_index(value);
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        if self.total == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.total += 1;
    }

    /// Record a duration in seconds as integer nanoseconds. Negative or
    /// non-finite inputs are clamped to zero.
    pub fn record_secs(&mut self, seconds: f64) {
        let ns = if seconds.is_finite() && seconds > 0.0 {
            (seconds * 1e9).round() as u64
        } else {
            0
        };
        self.record(ns);
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn min(&self) -> u64 {
        self.min
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    /// Quantile estimate: the highest value equivalent to the bucket the
    /// q-th ranked recording falls in (clamped to the observed min/max).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let target = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (idx, &count) in self.counts.iter().enumerate() {
            seen += count;
            if count > 0 && seen >= target {
                return bucket_high(idx).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Quantile in seconds, for nanosecond-valued histograms.
    pub fn quantile_secs(&self, q: f64) -> f64 {
        self.quantile(q) as f64 / 1e9
    }

    /// Merge another histogram in (bucket-count addition).
    pub fn merge(&mut self, other: &Histogram) {
        if other.total == 0 {
            return;
        }
        if other.counts.len() > self.counts.len() {
            self.counts.resize(other.counts.len(), 0);
        }
        for (idx, &count) in other.counts.iter().enumerate() {
            self.counts[idx] += count;
        }
        if self.total == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.total += other.total;
    }
}

/// Named counters and gauges. `BTreeMap` keys make every render/merge
/// order deterministic.
#[derive(Debug, Default, Clone)]
pub struct Registry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
}

impl Registry {
    pub fn new() -> Self {
        Registry::default()
    }

    pub fn counter_add(&mut self, name: &str, delta: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += delta;
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// High-water-mark gauge: keeps the maximum of all observations.
    pub fn gauge_max(&mut self, name: &str, value: f64) {
        let slot = self.gauges.entry(name.to_string()).or_insert(f64::MIN);
        if value > *slot {
            *slot = value;
        }
    }

    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty()
    }

    /// Merge another registry in: counters add, gauges keep the max,
    /// histograms merge bucket-wise. Associative and commutative, so
    /// per-worker registries aggregate deterministically.
    pub fn merge(&mut self, other: &Registry) {
        for (name, &value) in &other.counters {
            self.counter_add(name, value);
        }
        for (name, &value) in &other.gauges {
            self.gauge_max(name, value);
        }
    }

    /// Deterministic one-block text rendering (sorted by metric name).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            out.push_str(&format!("counter {name} {value}\n"));
        }
        for (name, value) in &self.gauges {
            out.push_str(&format!("gauge {name} {value}\n"));
        }
        out
    }
}

fn global() -> &'static Mutex<Registry> {
    static GLOBAL: Mutex<Registry> = Mutex::new(Registry {
        counters: BTreeMap::new(),
        gauges: BTreeMap::new(),
    });
    &GLOBAL
}

/// High-water-mark a process-global gauge. No-op while observability is
/// off.
pub fn global_gauge_max(name: &str, value: f64) {
    if !crate::enabled() {
        return;
    }
    let mut reg = global().lock().unwrap_or_else(|e| e.into_inner());
    reg.gauge_max(name, value);
}

/// Take the process-global registry, leaving it empty.
pub fn drain_global() -> Registry {
    let mut reg = global().lock().unwrap_or_else(|e| e.into_inner());
    std::mem::take(&mut *reg)
}
