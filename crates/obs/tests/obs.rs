//! `ovnes-obs` contract tests: histogram bucket geometry and merge
//! algebra, deterministic folded-stack merges at any worker count, RAII
//! span unwinding under panics, and the zero-cost-off guarantee.
//!
//! The tracer and the enabled flag are process-global, so every test
//! that touches them serialises on [`obs_lock`] and restores the
//! env-derived state on exit.

use std::sync::{Mutex, MutexGuard, OnceLock};

use ovnes_obs::metrics::{bucket_high, bucket_low};
use ovnes_obs::{span, trace, Histogram, ObsConfig, Registry};

fn obs_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// RAII: force the flag for one test, restore the env-derived state.
struct ForceObs;

impl ForceObs {
    fn on() -> Self {
        ovnes_obs::set_enabled(true);
        let _ = trace::drain(); // clear residue from other tests
        ForceObs
    }

    fn off() -> Self {
        ovnes_obs::set_enabled(false);
        ForceObs
    }
}

impl Drop for ForceObs {
    fn drop(&mut self) {
        let _ = trace::drain();
        ObsConfig::from_env().install();
    }
}

// ---- histogram geometry -------------------------------------------------

#[test]
fn histogram_buckets_are_contiguous_and_exact_below_32() {
    // The linear region stores values 0..32 exactly.
    for v in 0..32usize {
        assert_eq!(bucket_low(v), v as u64);
        assert_eq!(bucket_high(v), v as u64);
    }
    // Above it, buckets tile the u64 range with no gaps or overlaps.
    for idx in 0..1800usize {
        assert_eq!(
            bucket_high(idx) + 1,
            bucket_low(idx + 1),
            "gap or overlap between buckets {idx} and {}",
            idx + 1
        );
        assert!(bucket_low(idx) <= bucket_high(idx));
    }
}

#[test]
fn histogram_quantile_error_is_bounded_by_sub_bucket_width() {
    for &v in &[
        0u64,
        1,
        31,
        32,
        33,
        63,
        64,
        100,
        1_000,
        12_345,
        1 << 20,
        (1 << 40) + 12_345,
        u32::MAX as u64,
    ] {
        let mut h = Histogram::new();
        h.record(v);
        // A single recording pins min == max == v, so every quantile is
        // clamped to exactly v.
        assert_eq!(h.quantile(0.5), v, "single-value quantile for {v}");
        assert_eq!(h.quantile(0.999), v);
    }
    // With many values, quantiles land within one sub-bucket (~3.1%).
    let mut h = Histogram::new();
    for v in 1..=10_000u64 {
        h.record(v);
    }
    for &(q, exact) in &[(0.5, 5_000u64), (0.9, 9_000), (0.99, 9_900), (0.999, 9_990)] {
        let got = h.quantile(q);
        let err = got.abs_diff(exact) as f64 / exact as f64;
        assert!(err <= 1.0 / 32.0 + 1e-9, "q={q}: got {got}, want ≈{exact}");
    }
    assert_eq!(h.count(), 10_000);
    assert_eq!(h.max(), 10_000);
    assert_eq!(h.min(), 1);
}

#[test]
fn histogram_merge_is_associative_and_commutative() {
    // Three histograms over different ranges (different bucket-vec
    // lengths, so the resize paths are exercised).
    let mut rng = 0x2545_f491u64;
    let mut next = move || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let mut parts = Vec::new();
    for scale in [10u64, 1 << 16, 1 << 36] {
        let mut h = Histogram::new();
        for _ in 0..500 {
            h.record(next() % scale);
        }
        parts.push(h);
    }
    let (a, b, c) = (&parts[0], &parts[1], &parts[2]);

    let mut left = a.clone();
    left.merge(b);
    left.merge(c);

    let mut right_inner = b.clone();
    right_inner.merge(c);
    let mut right = a.clone();
    right.merge(&right_inner);

    let mut swapped = c.clone();
    swapped.merge(a);
    swapped.merge(b);

    assert_eq!(left, right, "merge must be associative");
    assert_eq!(left, swapped, "merge must be commutative");
    assert_eq!(left.count(), 1_500);
}

// ---- registry -----------------------------------------------------------

#[test]
fn registry_merge_is_order_independent() {
    let mut a = Registry::new();
    a.counter_add("lp.pivots", 7);
    a.gauge_max("milp.queue_depth", 3.0);
    let mut b = Registry::new();
    b.counter_add("lp.pivots", 5);
    b.counter_add("kac.vets", 2);
    b.gauge_max("milp.queue_depth", 9.0);

    let mut ab = a.clone();
    ab.merge(&b);
    let mut ba = b.clone();
    ba.merge(&a);
    assert_eq!(ab.render(), ba.render());
    assert_eq!(ab.counter("lp.pivots"), 12);
    assert_eq!(ab.gauge("milp.queue_depth"), Some(9.0));
}

// ---- tracer -------------------------------------------------------------

/// A fixed per-worker span workload: `jobs[i]` opens `outer` once and
/// `outer;inner` i+1 times.
fn run_jobs_on(threads: usize, jobs: usize) -> Vec<(String, u64)> {
    let _ = trace::drain();
    let next = std::sync::atomic::AtomicUsize::new(0);
    std::thread::scope(|scope| {
        let next = &next;
        for _ in 0..threads {
            scope.spawn(move || {
                loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if i >= jobs {
                        break;
                    }
                    let _outer = span!("outer", job = i);
                    for _ in 0..=i {
                        let _inner = span!("inner");
                    }
                }
                // Scoped joins can outrun TLS destructors — flush so the
                // drain below is guaranteed to see this worker's spans.
                trace::flush_thread();
            });
        }
    });
    trace::drain()
        .folded
        .iter()
        .map(|(path, cell)| (path.clone(), cell.count))
        .collect()
}

#[test]
fn folded_merge_is_deterministic_across_1_2_4_workers() {
    let _guard = obs_lock();
    let _force = ForceObs::on();
    let jobs = 8;
    let w1 = run_jobs_on(1, jobs);
    let w2 = run_jobs_on(2, jobs);
    let w4 = run_jobs_on(4, jobs);
    assert_eq!(w1, w2, "1 vs 2 workers");
    assert_eq!(w1, w4, "1 vs 4 workers");
    // jobs roots + sum(1..=jobs) inner closes.
    let expect: Vec<(String, u64)> = vec![
        ("outer".into(), jobs as u64),
        ("outer;inner".into(), (jobs * (jobs + 1) / 2) as u64),
    ];
    assert_eq!(w1, expect);
}

#[test]
fn span_stack_unwinds_through_panics() {
    let _guard = obs_lock();
    let _force = ForceObs::on();
    let _ = trace::drain();
    {
        let _outer = span!("panicky_outer");
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _inner = span!("panicky_inner");
            panic!("boom");
        }));
        assert!(caught.is_err());
        // The unwound inner guard must have popped its frame: this span
        // nests under outer, not under the leaked inner.
        let _sibling = span!("panicky_sibling");
    }
    let trace = trace::drain();
    assert_eq!(trace.folded["panicky_outer"].count, 1);
    assert_eq!(trace.folded["panicky_outer;panicky_inner"].count, 1);
    assert_eq!(trace.folded["panicky_outer;panicky_sibling"].count, 1);
    assert!(!trace
        .folded
        .contains_key("panicky_outer;panicky_inner;panicky_sibling"));
}

#[test]
fn self_time_plus_child_time_accounts_for_root_time() {
    let _guard = obs_lock();
    let _force = ForceObs::on();
    let _ = trace::drain();
    {
        let _root = span!("acct_root");
        for _ in 0..3 {
            let _child = span!("acct_child");
            std::hint::black_box((0..1000).sum::<u64>());
        }
    }
    let trace = trace::drain();
    let root = trace.folded["acct_root"];
    let child = trace.folded["acct_root;acct_child"];
    assert_eq!(root.count, 1);
    assert_eq!(child.count, 3);
    // Root inclusive = root self + child inclusive (exact by construction).
    assert_eq!(root.total_ns, root.self_ns + child.total_ns);
    // The one root span is all the root-level time the trace holds.
    let roots = trace.folded.iter().filter(|(path, _)| !path.contains(';'));
    assert_eq!(roots.map(|(_, c)| c.total_ns).sum::<u64>(), root.total_ns);
}

#[test]
fn a_closed_guard_returns_the_time_its_span_recorded() {
    let _guard = obs_lock();
    {
        let _force = ForceObs::off();
        assert_eq!(span!("ghost_close").close(), 0.0);
    }
    let _force = ForceObs::on();
    let _ = trace::drain();
    let root = span!("close_root");
    let child = span!("close_child");
    std::hint::black_box((0..1000).sum::<u64>());
    let seconds = child.close();
    let root_seconds = root.close();
    let trace = trace::drain();
    let recorded = |path: &str| trace.folded[path].total_ns as f64 / 1e9;
    assert!(seconds > 0.0 && seconds <= root_seconds);
    assert!((seconds - recorded("close_root;close_child")).abs() < 1e-12);
    assert!((root_seconds - recorded("close_root")).abs() < 1e-12);
    assert_eq!(
        trace.folded["close_root"].count, 1,
        "closed once, not again on drop"
    );
}

#[test]
fn journal_and_folded_exports_round_trip() {
    let _guard = obs_lock();
    let _force = ForceObs::on();
    let _ = trace::drain();
    {
        let _a = span!("exp_root", round = 3);
        let _b = span!("exp_leaf");
    }
    let trace = trace::drain();
    let mut folded = Vec::new();
    trace.write_folded(&mut folded).unwrap();
    let folded = String::from_utf8(folded).unwrap();
    assert!(folded.lines().any(|l| l.starts_with("exp_root ")));
    assert!(folded.lines().any(|l| l.starts_with("exp_root;exp_leaf ")));

    let mut journal = Vec::new();
    trace.write_journal(&mut journal).unwrap();
    let journal = String::from_utf8(journal).unwrap();
    let mut lines = journal.lines();
    let meta = lines.next().unwrap();
    assert!(meta.contains("\"type\":\"meta\"") && meta.contains("\"version\":1"));
    let spans: Vec<&str> = lines.collect();
    assert_eq!(spans.len(), 2);
    assert!(spans.iter().any(|l| l.contains("\"name\":\"exp_leaf\"")
        && l.contains("\"path\":\"exp_root;exp_leaf\"")
        && l.contains("\"depth\":1")));
    assert!(spans
        .iter()
        .any(|l| l.contains("\"name\":\"exp_root\"") && l.contains("\"attr\":{\"round\":3}")));
}

#[test]
fn disabled_spans_record_nothing() {
    let _guard = obs_lock();
    let _force = ForceObs::off();
    let _ = trace::drain();
    {
        let _a = span!("ghost");
        let _b = span!("ghost_child", k = 1);
    }
    ovnes_obs::metrics::global_gauge_max("ghost.gauge", 5.0);
    let trace = trace::drain();
    assert!(trace.is_empty(), "disabled tracer must record nothing");
    assert!(trace.events.is_empty());
    assert!(ovnes_obs::metrics::drain_global().is_empty());
}

// ---- report formatters --------------------------------------------------

#[test]
fn counter_line_and_table_render() {
    let line = ovnes_obs::report::counter_line(&[("pivots", 12), ("flips", 3)]);
    assert_eq!(line, "pivots=12 flips=3");

    let rows = vec![
        (
            "warm".to_string(),
            vec![("pivots", "12".to_string()), ("seconds", "0.5".to_string())],
        ),
        (
            "cold".to_string(),
            vec![
                ("pivots", "900".to_string()),
                ("seconds", "1.25".to_string()),
            ],
        ),
    ];
    let table = ovnes_obs::report::counter_table("mode", &rows);
    let lines: Vec<&str> = table.lines().collect();
    assert_eq!(lines.len(), 4);
    assert!(lines[0].contains("pivots") && lines[0].contains("seconds"));
    assert!(lines[1].chars().all(|c| c == '-'));
    assert!(lines[2].starts_with("warm") && lines[2].contains("12"));
    assert!(lines[3].starts_with("cold") && lines[3].contains("1.25"));
}
