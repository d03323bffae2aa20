//! The observability bargain, enforced: spans and histograms may watch
//! the solver, but they must never touch it. With tracing off the
//! journal stays empty; on or off, the scenario fingerprints below are
//! pinned to the exact values the engine produced before `ovnes-obs`
//! existed, at every worker count.
//!
//! If a change legitimately moves these constants (a solver change, not
//! an observability change), update them in the PR that means to — never
//! from inside an observability PR.

use std::sync::{Mutex, MutexGuard};

use ovnes_lp::{Cmp, Problem};
use ovnes_milp::{Milp, MilpOptions, MilpOutcome};
use ovnes_scenario::driver::run_scenario;
use ovnes_scenario::presets;

/// Pre-`ovnes-obs` fingerprints (full telemetry + decision-only) for the
/// two pinned presets, identical at 1/2/4 B&B threads. The full ones were
/// re-recorded when `ScenarioReport` stopped hashing two words that were
/// always zero (`recycled_cuts`, `churn_carry_attempts`), `fig5-n1`'s
/// once more when KAC stopped re-vetting a forced set that does not fit
/// (fewer LP solves), and both when the carry became the only KAC path
/// and the report stopped hashing its on/off word (their LP counts did not
/// move); the decision ones have never moved.
const PINNED: &[(&str, u64, u64)] = &[
    ("fig5-n1", 0x3beb_e1a3_b9e2_db47, 0xc5c6_25d5_de9f_6ac3),
    (
        "chaos-outage-n1",
        0x82e3_eca2_564b_da06,
        0x702b_c576_984d_e831,
    ),
];

/// `ovnes_obs::set_enabled` is process-global, so tests that flip it
/// must not interleave. The guard also leaves the global state clean when
/// a test panics with tracing on: on drop it disables tracing and drains
/// the journal and the metric registry, so one failing test does not fail
/// the next.
struct ObsLock {
    _held: MutexGuard<'static, ()>,
}

impl Drop for ObsLock {
    fn drop(&mut self) {
        ovnes_obs::set_enabled(false);
        let _ = ovnes_obs::trace::drain();
        let _ = ovnes_obs::metrics::drain_global();
    }
}

fn obs_lock() -> ObsLock {
    static LOCK: Mutex<()> = Mutex::new(());
    ObsLock {
        _held: LOCK.lock().unwrap_or_else(|e| e.into_inner()),
    }
}

fn assert_pinned(context: &str) {
    for &(name, fingerprint, decision_fingerprint) in PINNED {
        for threads in [1usize, 2, 4] {
            let mut spec = presets::preset(name).expect("pinned preset exists");
            spec.threads = threads;
            let report = run_scenario(&spec).expect("pinned preset runs");
            assert_eq!(
                (report.fingerprint(), report.decision_fingerprint()),
                (fingerprint, decision_fingerprint),
                "{name} (fingerprint, decision fingerprint) moved ({context}, threads={threads})"
            );
        }
    }
}

/// With observability off (the default), the pinned scenarios reproduce
/// their pre-obs fingerprints bit for bit AND the tracer records nothing:
/// zero journal bytes past the constant header, zero folded paths, an
/// empty metric registry.
#[test]
fn obs_off_pins_fingerprints_and_writes_zero_journal_bytes() {
    let _guard = obs_lock();
    ovnes_obs::set_enabled(false);
    let _ = ovnes_obs::trace::drain();
    let _ = ovnes_obs::metrics::drain_global();

    assert_pinned("obs off");

    let trace = ovnes_obs::trace::drain();
    assert!(trace.is_empty(), "disabled tracer still folded spans");
    assert!(trace.events.is_empty(), "disabled tracer journaled events");
    let mut folded = Vec::new();
    trace.write_folded(&mut folded).expect("write folded");
    assert_eq!(folded.len(), 0, "disabled tracer wrote folded bytes");
    assert!(
        ovnes_obs::metrics::drain_global().is_empty(),
        "disabled registry accumulated metrics"
    );
}

/// The same fingerprints with observability ON: wall-clock capture and
/// span recording must be invisible to the deterministic outputs. This
/// is the wall-clock-never-in-fingerprints invariant, end to end.
#[test]
fn obs_on_leaves_fingerprints_bitwise_identical() {
    let _guard = obs_lock();
    ovnes_obs::set_enabled(true);
    let _ = ovnes_obs::trace::drain();

    assert_pinned("obs on");

    // And the runs actually traced: the guard is only meaningful if the
    // instrumented paths executed with recording live.
    let trace = ovnes_obs::trace::drain();
    let root = trace.total_ns("scenario");
    assert!(root > 0, "obs-on run recorded no scenario spans");
    let phase = |name: &str| trace.total_ns(&format!("scenario;epoch;{name}"));
    assert!(phase("solve") > 0, "the epoch solve span went missing");
    let phases: u64 = ["revalidate", "forecast", "solve", "admit", "simulate"]
        .into_iter()
        .map(phase)
        .sum();
    assert!(phases <= root, "phases overlap or the root span shrank");

    // The shape a `--trace-out` consumer parses, checked on this real
    // trace: names and attribute keys are static snake_case atoms (dynamic
    // data belongs in the attribute value), depth is the path's segment
    // count minus one, a root span exists, the journal's meta line counts
    // exactly its span lines, and the folded stacks are sorted, unique and
    // cover every journaled path.
    let mut folded = Vec::new();
    trace.write_folded(&mut folded).expect("write folded");
    let folded = String::from_utf8(folded).expect("folded is UTF-8");
    let stacks: Vec<&str> = folded
        .lines()
        .map(|l| l.rsplit_once(' ').expect("`path self_ns`").0)
        .collect();
    assert!(stacks.windows(2).all(|w| w[0] < w[1]), "{stacks:?}");
    let atom = |s: &str| {
        s.starts_with(|c: char| c.is_ascii_lowercase())
            && s.bytes()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == b'_')
    };
    for e in &trace.events {
        let segments: Vec<&str> = e.path.split(';').collect();
        assert!(segments.iter().all(|s| atom(s)), "span path {}", e.path);
        assert_eq!(usize::from(e.depth), segments.len() - 1, "{}", e.path);
        assert!(e.attr.is_none_or(|(key, _)| atom(key)), "{:?}", e.attr);
        assert!(stacks.binary_search(&e.path.as_str()).is_ok(), "{}", e.path);
    }
    assert!(trace.events.iter().any(|e| e.depth == 0), "no root span");
    let mut journal = Vec::new();
    trace.write_journal(&mut journal).expect("write journal");
    let journal = String::from_utf8(journal).expect("journal is UTF-8");
    let (meta, spans) = journal.split_once('\n').expect("meta line");
    assert!(spans.lines().all(|l| l.starts_with("{\"type\":\"span\",")));
    let counted = format!("\"spans\":{},", spans.lines().count());
    assert!(
        meta.starts_with("{\"type\":\"meta\",\"version\":1,") && meta.contains(&counted),
        "{meta} does not count its span lines: {counted}"
    );
}

/// Each phase is timed once, by its span: on a traced run, every summed
/// `phase_seconds` field is its `scenario;epoch;<phase>` span total, and
/// `phase_generate_seconds` is `scenario;generate`'s, up to the ns → s
/// conversion. `solve` is the always-on decision clock, read inside its
/// span.
#[test]
fn phase_seconds_are_their_span_totals() {
    let _guard = obs_lock();
    ovnes_obs::set_enabled(true);
    let _ = ovnes_obs::trace::drain();
    let mut spec = presets::preset("fig5-n1").expect("preset");
    spec.threads = 1;
    let report = run_scenario(&spec).expect("run");
    let trace = ovnes_obs::trace::drain();

    let spanned = |path: &str| trace.total_ns(path) as f64 / 1e9;
    let p = report.phase_seconds;
    for (path, seconds) in [
        ("scenario;epoch;revalidate", p.revalidate),
        ("scenario;epoch;forecast", p.forecast),
        ("scenario;epoch;admit", p.admit),
        ("scenario;epoch;simulate", p.simulate),
        ("scenario;generate", report.phase_generate_seconds),
    ] {
        assert!(
            (seconds - spanned(path)).abs() <= 1e-12,
            "{path}: {seconds} s summed, {} s spanned",
            spanned(path)
        );
    }
    assert!(p.forecast > 0.0 && p.simulate > 0.0, "{p:?}");
    assert!(p.solve > 0.0 && p.solve <= spanned("scenario;epoch;solve") + 1e-12);
}

/// Decision-latency percentiles ride along in every report (the
/// histogram is counter-shaped, so it records whether or not tracing is
/// on) — but they are wall-clock and therefore hash-excluded, which the
/// pinned-fingerprint tests above already prove.
#[test]
fn decision_latency_percentiles_present_in_report() {
    let _guard = obs_lock();
    ovnes_obs::set_enabled(false);
    let mut spec = presets::preset("fig5-n1").expect("preset");
    spec.threads = 1;
    let report = run_scenario(&spec).expect("run");
    assert!(
        report.epochs >= 24 && report.arrivals > 0 && report.accepted > 0 && report.lp_solves > 0,
        "fig5-n1 must span a simulated day with arrivals, admissions and epoch solves"
    );
    let [p50, p90, p99, p999] = report.decision_latency_percentiles;
    assert!(p50 > 0.0, "p50 decision latency missing from report");
    assert!(
        p50 <= p90 && p90 <= p99 && p99 <= p999,
        "decision latency percentiles not monotone: {:?}",
        report.decision_latency_percentiles
    );
    assert!(
        report.bs_utilisation.p99 >= report.bs_utilisation.p90,
        "CdfSummary p99 below p90"
    );
}

/// The search solves a node's relaxation only when it applies the node, so
/// every `milp_node` span is an applied node: the span count is
/// `MilpSolution::nodes`, on a tree searched to the end and on one the node
/// cap stops mid-round, at any `threads` value. Pre-solving rounds would
/// open spans for nodes an in-round incumbent or the cap then discards.
#[test]
fn search_solves_only_the_nodes_it_applies() {
    let _guard = obs_lock();
    ovnes_obs::set_enabled(true);
    // A 14-item 0-1 knapsack with correlated weights: max Σ v_i x_i s.t.
    // Σ w_i x_i ≤ 40: 135 nodes, and its first incumbent after 30.
    let mut p = Problem::new();
    let items: Vec<_> = (0..14)
        .map(|i| {
            let x = p.add_var(0.0, 1.0, -(10.0 + f64::from(i) * 0.618));
            (x, 7.0 + f64::from((i * 37) % 11))
        })
        .collect();
    p.add_cons(&items, Cmp::Le, 40.0);
    for (max_nodes, threads) in [(200_000, 1), (40, 1), (200_000, 2), (40, 2)] {
        let _ = ovnes_obs::trace::drain();
        let mut milp = Milp::new(p.clone());
        for &(x, _) in &items {
            milp.mark_integer(x);
        }
        milp.set_options(MilpOptions {
            max_nodes,
            threads,
            ..MilpOptions::default()
        });
        let Ok(MilpOutcome::Optimal(solution)) = milp.solve() else {
            panic!("the knapsack has an incumbent within {max_nodes} nodes");
        };
        let spans: u64 = ovnes_obs::trace::drain()
            .folded
            .iter()
            .filter(|(path, _)| path.ends_with("milp_node"))
            .map(|(_, cell)| cell.count)
            .sum();
        assert_eq!(
            spans, solution.nodes as u64,
            "max_nodes {max_nodes}, threads {threads}: node solves vs applied nodes"
        );
        // The capped run stops at its cap; the full run needs more nodes.
        let capped = max_nodes == 40;
        assert_eq!(solution.truncated, capped);
        assert_eq!(solution.nodes == 40, capped, "{} nodes", solution.nodes);
    }
}
