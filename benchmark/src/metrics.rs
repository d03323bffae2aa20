//! The metrics, by name: the tables `BENCHMARK.json` must agree with, and
//! how each value is derived from a [`Measurement`].

use crate::harness::{Measurement, Rep};
use crate::probes::Probes;
use crate::stats::{drift_ratio, fold_by_name, median, minimum, per_epoch_min, percentile};
use ovnes_obs::{Registry, Trace};
use std::collections::BTreeMap;

/// A metric's name and unit, as `BENCHMARK.json` declares them (its
/// direction and regression bound live only there).
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
}

const fn def(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// What an operator running the orchestrator sees. None of them is ever 0:
/// the two ratios are stated as the share that went well.
pub const END_TO_END: [MetricDef; 8] = [
    def("setup_s", "s"),
    def("horizon_wall_s", "s"),
    def("epoch_latency_p50_ms", "ms"),
    def("epoch_latency_p95_ms", "ms"),
    def("served_epoch_ratio", "ratio"),
    def("net_revenue", "revenue"),
    def("sla_met_ratio", "ratio"),
    def("peak_rss_mb", "MB"),
];

/// Single layers, `layer.metric`. `_self_s` is span self time summed by
/// span name over the traced reference run; counts repeat exactly.
pub const PER_LAYER: [MetricDef; 69] = [
    def("scenario.epochs", "count"),
    def("scenario.arrivals", "count"),
    def("scenario.accepted", "count"),
    def("scenario.mean_active_tenants", "count"),
    def("scenario.workload_generate_s", "s"),
    def("topology.generate_s", "s"),
    def("topology.base_stations", "count"),
    def("topology.paths", "count"),
    def("core.revalidate_s", "s"),
    def("core.forecast_s", "s"),
    def("core.solve_s", "s"),
    def("core.admit_s", "s"),
    def("core.unattributed_s", "s"),
    def("core.decision_latency_p50_ms", "ms"),
    def("core.decision_latency_p95_ms", "ms"),
    def("core.failed_epoch_ratio", "ratio"),
    def("core.degraded_epoch_ratio", "ratio"),
    def("core.deferred_epochs", "count"),
    def("core.evictions", "count"),
    def("core.rehomes", "count"),
    def("core.infra_events", "count"),
    def("core.overcommit_epochs", "count"),
    def("core.instance_build_us", "us"),
    def("forecast.predict_next_us_h32", "us"),
    def("forecast.predict_next_us_h128", "us"),
    def("forecast.predict_next_us_h512", "us"),
    def("forecast.drift_ratio", "ratio"),
    def("solver.kac_self_s", "s"),
    def("solver.kac_pack_self_s", "s"),
    def("solver.slave_lp_self_s", "s"),
    def("solver.slave_lp_calls", "count"),
    def("solver.benders_rounds", "count"),
    def("solver.benders_round_self_s", "s"),
    def("solver.epoch_solve_self_s", "s"),
    def("solver.cold_solve_ms", "ms"),
    def("solver.carry_certified", "count"),
    def("solver.carry_certified_perturbed", "count"),
    def("solver.carry_cold_restarts", "count"),
    def("solver.churn_carry_attempts", "count"),
    def("solver.recycled_cuts", "count"),
    def("solver.carry_hit_ratio", "ratio"),
    def("milp.solve_calls", "count"),
    def("milp.solve_self_s", "s"),
    def("milp.nodes", "count"),
    def("milp.node_self_s", "s"),
    def("milp.rounds", "count"),
    def("milp.queue_depth_max", "count"),
    def("lp.solves", "count"),
    def("lp.pivots", "count"),
    def("lp.dual_pivots", "count"),
    def("lp.bound_flips", "count"),
    def("lp.refactorizations", "count"),
    def("lp.factorization_reuses", "count"),
    def("lp.warm_reuse_ratio", "ratio"),
    def("lp.pivots_per_solve", "ratio"),
    def("lp.hypersparse_ftrans", "count"),
    def("lp.eta_compressions", "count"),
    def("lp.primal_self_s", "s"),
    def("lp.dual_self_s", "s"),
    def("lp.factor_self_s", "s"),
    def("lp.ftran_self_s", "s"),
    def("lp.btran_self_s", "s"),
    def("lp.pricing_self_s", "s"),
    def("netsim.simulate_s", "s"),
    def("netsim.violation_samples", "count"),
    def("netsim.violation_rate", "ratio"),
    def("obs.overhead_ratio", "ratio"),
    def("obs.span_coverage", "ratio"),
    def("obs.dropped_events", "count"),
];

pub type Values = BTreeMap<&'static str, f64>;

/// `numerator / denominator`, 0 when nothing was attempted.
fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator > 0.0 {
        numerator / denominator
    } else {
        0.0
    }
}

/// One per-epoch series of the repetitions, reduced to its per-epoch minimum.
fn column(m: &Measurement, series: fn(&Rep) -> &[f64]) -> Vec<f64> {
    per_epoch_min(&m.reps.iter().map(series).collect::<Vec<_>>())
}

/// Whole-horizon wall-clock of the fastest repetition.
fn horizon_wall_s(m: &Measurement) -> f64 {
    minimum(&m.reps.iter().map(|rep| rep.wall_s).collect::<Vec<_>>())
}

/// Epochs the timed repetitions attempted, and how many of them failed:
/// `step()` returned `Err`, the decision was deferred, or the primary
/// solver reported an error.
pub fn attempted_failed(m: &Measurement) -> (usize, usize) {
    let attempted = m.reps.iter().map(|rep| rep.step_s.len()).sum();
    let failed = m.reps.iter().map(|rep| rep.tally.failed_epochs).sum();
    (attempted, failed)
}

pub fn end_to_end(m: &Measurement) -> Values {
    let tally = &m.reps[0].tally;
    let step_s = column(m, |rep| &rep.step_s);
    let (attempted, failed) = attempted_failed(m);
    Values::from([
        ("setup_s", median(&m.setup.total_s)),
        ("horizon_wall_s", horizon_wall_s(m)),
        ("epoch_latency_p50_ms", 1e3 * percentile(&step_s, 0.5)),
        ("epoch_latency_p95_ms", 1e3 * percentile(&step_s, 0.95)),
        (
            "served_epoch_ratio",
            1.0 - ratio(failed as f64, attempted as f64),
        ),
        ("net_revenue", tally.net_revenue()),
        (
            "sla_met_ratio",
            1.0 - ratio(tally.violated_samples as f64, tally.total_samples as f64),
        ),
        ("peak_rss_mb", m.peak_rss_mb),
    ])
}

/// `trace` is what the traced reference run of `m` left behind.
pub fn per_layer(m: &Measurement, trace: &(Trace, Registry), probes: &Probes) -> Values {
    let (trace, registry) = trace;
    let report = &m.reference.report;
    let tally = &m.reps[0].tally;
    let epochs = report.epochs as f64;
    let spans = fold_by_name(&trace.folded);
    let calls = |name: &str| spans.get(name).map_or(0.0, |&(count, _)| count as f64);
    let self_s = |name: &str| spans.get(name).map_or(0.0, |&(_, ns)| ns as f64 * 1e-9);

    let step_s = column(m, |rep| &rep.step_s);
    let decision_s = column(m, |rep| &rep.decision_s);
    let (attempted, failed) = attempted_failed(m);
    let phases = &report.phase_seconds;
    let phase_sum =
        phases.revalidate + phases.forecast + phases.solve + phases.admit + phases.simulate;
    let lp = &tally.lp;
    let carry_attempts = tally.carry_certified + tally.carry_cold_restarts;

    Values::from([
        ("scenario.epochs", epochs),
        ("scenario.arrivals", tally.arrivals as f64),
        ("scenario.accepted", tally.accepted as f64),
        (
            "scenario.mean_active_tenants",
            tally.active_sum as f64 / epochs,
        ),
        ("scenario.workload_generate_s", median(&m.setup.workload_s)),
        ("topology.generate_s", median(&m.setup.topology_s)),
        ("topology.base_stations", m.setup.base_stations as f64),
        ("topology.paths", m.setup.paths as f64),
        ("core.revalidate_s", phases.revalidate),
        ("core.forecast_s", phases.forecast),
        ("core.solve_s", phases.solve),
        ("core.admit_s", phases.admit),
        ("core.unattributed_s", m.reference.wall_s - phase_sum),
        (
            "core.decision_latency_p50_ms",
            1e3 * percentile(&decision_s, 0.5),
        ),
        (
            "core.decision_latency_p95_ms",
            1e3 * percentile(&decision_s, 0.95),
        ),
        (
            "core.failed_epoch_ratio",
            ratio(failed as f64, attempted as f64),
        ),
        (
            "core.degraded_epoch_ratio",
            tally.degraded_epochs as f64 / epochs,
        ),
        ("core.deferred_epochs", tally.deferred_epochs as f64),
        ("core.evictions", tally.evictions as f64),
        ("core.rehomes", tally.rehomes as f64),
        ("core.infra_events", tally.infra_events as f64),
        ("core.overcommit_epochs", tally.overcommit_epochs as f64),
        ("core.instance_build_us", probes.instance_build_us),
        ("forecast.predict_next_us_h32", probes.predict_next_us[0]),
        ("forecast.predict_next_us_h128", probes.predict_next_us[1]),
        ("forecast.predict_next_us_h512", probes.predict_next_us[2]),
        ("forecast.drift_ratio", drift_ratio(&step_s)),
        ("solver.kac_self_s", self_s("kac")),
        ("solver.kac_pack_self_s", self_s("kac_pack")),
        ("solver.slave_lp_self_s", self_s("slave_lp")),
        ("solver.slave_lp_calls", calls("slave_lp")),
        ("solver.benders_rounds", calls("benders_round")),
        ("solver.benders_round_self_s", self_s("benders_round")),
        ("solver.epoch_solve_self_s", self_s("epoch_solve")),
        ("solver.cold_solve_ms", probes.cold_solve_ms),
        ("solver.carry_certified", tally.carry_certified as f64),
        (
            "solver.carry_certified_perturbed",
            tally.carry_certified_perturbed as f64,
        ),
        (
            "solver.carry_cold_restarts",
            tally.carry_cold_restarts as f64,
        ),
        (
            "solver.churn_carry_attempts",
            tally.churn_carry_attempts as f64,
        ),
        ("solver.recycled_cuts", tally.recycled_cuts as f64),
        (
            "solver.carry_hit_ratio",
            ratio(tally.carry_certified as f64, carry_attempts as f64),
        ),
        ("milp.solve_calls", calls("milp_solve")),
        ("milp.solve_self_s", self_s("milp_solve")),
        ("milp.nodes", calls("milp_node")),
        ("milp.node_self_s", self_s("milp_node")),
        ("milp.rounds", registry.counter("milp.rounds") as f64),
        (
            "milp.queue_depth_max",
            registry.gauge("milp.queue_depth").unwrap_or(0.0),
        ),
        ("lp.solves", tally.lp_solves as f64),
        ("lp.pivots", lp.total_pivots() as f64),
        ("lp.dual_pivots", lp.dual_pivots as f64),
        ("lp.bound_flips", lp.bound_flips as f64),
        ("lp.refactorizations", lp.refactorizations as f64),
        ("lp.factorization_reuses", lp.factorization_reuses as f64),
        (
            "lp.warm_reuse_ratio",
            ratio(lp.factorization_reuses as f64, tally.lp_solves as f64),
        ),
        (
            "lp.pivots_per_solve",
            ratio(lp.total_pivots() as f64, tally.lp_solves as f64),
        ),
        ("lp.hypersparse_ftrans", lp.hypersparse_ftrans as f64),
        ("lp.eta_compressions", lp.eta_compressions as f64),
        ("lp.primal_self_s", self_s("lp_primal")),
        ("lp.dual_self_s", self_s("lp_dual")),
        ("lp.factor_self_s", self_s("lp_factor")),
        ("lp.ftran_self_s", self_s("lp_ftran")),
        ("lp.btran_self_s", self_s("lp_btran")),
        ("lp.pricing_self_s", self_s("lp_pricing")),
        ("netsim.simulate_s", phases.simulate),
        ("netsim.violation_samples", tally.violated_samples as f64),
        (
            "netsim.violation_rate",
            ratio(tally.violated_samples as f64, tally.total_samples as f64),
        ),
        (
            "obs.overhead_ratio",
            (report.wall_seconds - report.phase_generate_seconds) / horizon_wall_s(m),
        ),
        (
            "obs.span_coverage",
            trace.total_ns("scenario") as f64 * 1e-9 / m.reference.wall_s,
        ),
        ("obs.dropped_events", trace.dropped as f64),
    ])
}

/// The members of the `"metrics"` object for `defs`, in table order. Fails
/// on a metric that was not computed, is not finite, or is not declared.
pub fn render(defs: &[MetricDef], values: &Values) -> Result<String, String> {
    if let Some(extra) = values
        .keys()
        .find(|name| !defs.iter().any(|d| d.name == **name))
    {
        return Err(format!("metric {extra} is computed but not declared"));
    }
    let mut fields = Vec::with_capacity(defs.len());
    for d in defs {
        let value = *values
            .get(d.name)
            .ok_or_else(|| format!("metric {} was not computed", d.name))?;
        if !value.is_finite() {
            return Err(format!("metric {} is not finite: {value}", d.name));
        }
        fields.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            d.name, d.unit
        ));
    }
    Ok(fields.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::WORKLOADS;

    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    /// The string value of `key` in the text of one JSON object.
    fn field(object: &str, key: &str) -> String {
        let key = format!("\"{key}\":");
        let rest = &object[object.find(&key).expect("key present") + key.len()..];
        let rest = &rest[rest.find('"').expect("string value") + 1..];
        rest[..rest.find('"').expect("closing quote")].to_owned()
    }

    /// `(name, second field)` of every object in a top-level array of
    /// `BENCHMARK.json`; its strings hold no bracket or brace.
    fn declared(section: &str, second: &str) -> Vec<(String, String)> {
        let key = format!("\"{section}\":");
        let body = &BENCHMARK_JSON[BENCHMARK_JSON.find(&key).expect("section present")..];
        body[..body.find(']').expect("array end")]
            .split('{')
            .skip(1)
            .map(|object| (field(object, "name"), field(object, second)))
            .collect()
    }

    fn table(defs: &[MetricDef]) -> Vec<(String, String)> {
        defs.iter()
            .map(|d| (d.name.to_owned(), d.unit.to_owned()))
            .collect()
    }

    #[test]
    fn emitted_metrics_are_exactly_the_declared_ones() {
        assert_eq!(table(&END_TO_END), declared("end_to_end", "unit"));
        assert_eq!(table(&PER_LAYER), declared("per_layer", "unit"));
    }

    #[test]
    fn workloads_are_exactly_the_declared_ones() {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        let declared = declared("workloads", "why");
        assert_eq!(
            names,
            declared.iter().map(|(n, _)| n.as_str()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn names_use_the_allowed_characters_once() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|d| d.name)
            .collect();
        names.extend(WORKLOADS.iter().map(|w| w.name));
        for name in &names {
            assert!(name.len() <= 64, "{name}");
            assert!(
                name.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "{name}"
            );
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len());
    }

    #[test]
    fn render_refuses_missing_extra_and_non_finite_metrics() {
        let defs = [def("a", "s"), def("b.c", "count")];
        let ok = Values::from([("a", 1.5), ("b.c", 2.0)]);
        assert_eq!(
            render(&defs, &ok).unwrap(),
            "\"a\": {\"value\": 1.5, \"unit\": \"s\"}, \"b.c\": {\"value\": 2, \"unit\": \"count\"}"
        );
        assert!(render(&defs, &Values::from([("a", 1.5)])).is_err());
        assert!(render(&defs, &Values::from([("a", 1.5), ("b.c", f64::NAN)])).is_err());
        assert!(render(&defs, &Values::from([("a", 1.0), ("b.c", 2.0), ("d", 3.0)])).is_err());
    }
}
