#!/usr/bin/env python3
"""Sanity-check the committed BENCH_solvers.json perf snapshot.

Run by the CI bench-smoke job. Validates that the snapshot

* parses and covers every benchmark family and scale,
* carries the wall-clock, sparse-LU, and long-step/pricing telemetry
  columns (warm/cold seconds, refactorization counts, factorization
  reuses, fill-in, bound flips, pricing scans, candidate refreshes),
* shows warm total pivots <= cold total pivots at every scale (modulo a
  per-solve slack: since the bound-native slave, a degenerate-lucky cold
  start can legitimately prove its outcome with zero pivots while the
  warm re-solve pays a single closing pivot),
* never regresses warm pivots past the committed PR-4 snapshot values —
  the gate that keeps the long-step dual ratio test, the dual devex
  leaving-row pricing, and candidate-list pricing from silently rotting,
* shows a warm pure-RHS/bound slave re-solve performing zero
  refactorizations (the persisted-factorization contract) with at least
  one long-step bound flip (the bound-flipping ratio test contract),
* shows the parallel branch-and-bound probe (`milp_parallel`) solving
  deterministically (bit-identical objective and admission set at 1 and
  N workers), recording the worker count, and not regressing wall-clock
  versus serial (a small tolerance covers single-core machines, where
  the deterministic rounds degenerate to exactly the serial work and
  parity is the physical optimum),
* shows the randomized LP torture chain exercising warm starts and
  bound flips at all, and
* shows the scenario-engine probes healthy: `scenario_day` ran a full
  multi-day preset with arrivals, admissions, and epoch solves, and
  `scenario_sweep` aggregated >= 6 named scenarios bit-identically
  across sweep worker counts (deterministic flag + 64-bit fingerprint)
  without a parallel wall-clock regression, and
* shows the chaos probe (`scenario_outage`) completing its multi-day
  outage storm with the storm actually biting: infrastructure events
  applied, at least one degraded epoch (the starved solve budget bound),
  at least one eviction with its SLA-break penalty booked, and a
  bit-identical replay (deterministic flag + fingerprint), and
* shows the cross-epoch incremental probes (`scenario_incremental`)
  honouring the O(churn) contract: decisions bit-identical to the
  from-scratch driver at every worker count and zero cold fallbacks on
  both fault-free runs; the steady probe additionally with zero
  uniqueness-certificate restarts, a >= 3x steady-window pivot
  reduction, and zero refactorizations across the no-churn steady
  epochs (the identity basis remap must keep the persisted
  factorization); and the degenerate probe with the perturbation
  certificate actually standing carries (perturbed-only certifications
  and churn-epoch first-shed carry attempts >= 1, cold restarts below
  certifications) and its declared decision-latency SLO unviolated.

Exit code 0 on success, 1 with a message per violation otherwise.
"""

import json
import sys
from pathlib import Path

SNAPSHOT = Path(__file__).resolve().parent.parent / "BENCH_solvers.json"

REQUIRED_FIELDS = {
    "slave_chain": [
        "scale",
        "solves",
        "warm_seconds",
        "cold_seconds",
        "warm_pivots",
        "cold_pivots",
        "warm_refactorizations",
        "cold_refactorizations",
        "warm_factorization_reuses",
        "warm_fill_in",
        "cold_fill_in",
        "warm_bound_flips",
        "cold_bound_flips",
        "warm_pricing_scans",
        "cold_pricing_scans",
        "warm_candidate_refreshes",
        "warm_eta_compressions",
        "warm_hypersparse_ftrans",
        "warm_hypersparse_btrans",
        "warm_pivot_scan_work",
        "time_speedup",
    ],
    "benders_bnb": [
        "scale",
        "warm_seconds",
        "cold_seconds",
        "warm_pivots",
        "cold_pivots",
        "warm_refactorizations",
        "cold_refactorizations",
        "warm_factorization_reuses",
        "warm_fill_in",
        "cold_fill_in",
        "warm_bound_flips",
        "cold_bound_flips",
        "warm_pricing_scans",
        "cold_pricing_scans",
        "warm_candidate_refreshes",
        "warm_eta_compressions",
        "warm_hypersparse_ftrans",
        "time_speedup",
    ],
    "slave_resolve": [
        "scale",
        "resolve_seconds",
        "cold_seconds",
        "resolve_refactorizations",
        "resolve_factorization_reuses",
        "resolve_pivots",
        "resolve_bound_flips",
        "resolve_pricing_scans",
        "resolve_eta_compressions",
        "resolve_hypersparse_ftrans",
        "cold_pivots",
    ],
    "lu_factor": [
        "scale",
        "dim",
        "nnz",
        "fill_in",
        "bucketed_seconds",
        "rescan_seconds",
        "bucketed_scan_work",
        "rescan_scan_work",
        "scan_reduction",
        "time_speedup",
    ],
    "milp_parallel": [
        "scale",
        "workers",
        "nodes",
        "deterministic",
        "serial_objective",
        "parallel_objective",
        "serial_seconds",
        "parallel_seconds",
        "speedup",
    ],
    "lp_torture": [
        "scale",
        "seconds",
        "warm_starts",
        "cold_starts",
        "pivots",
        "dual_pivots",
        "bound_flips",
        "pricing_scans",
        "candidate_refreshes",
    ],
    "scenario_day": [
        "scale",
        "name",
        "epochs",
        "arrivals",
        "accepted",
        "acceptance_ratio",
        "violation_rate",
        "net_revenue",
        "lp_solves",
        "lp_pivots",
        "wall_seconds",
    ],
    "scenario_sweep": [
        "scale",
        "scenarios",
        "workers",
        "deterministic",
        "fingerprint",
        "arrivals",
        "accepted",
        "acceptance_ratio",
        "violation_rate",
        "net_revenue",
        "lp_solves",
        "lp_pivots",
        "serial_seconds",
        "parallel_seconds",
        "speedup",
    ],
    "scenario_outage": [
        "scale",
        "name",
        "epochs",
        "infra_events",
        "degraded_epochs",
        "deferred_epochs",
        "evictions",
        "rehomes",
        "eviction_penalty",
        "net_revenue",
        "deterministic",
        "fingerprint",
        "wall_seconds",
    ],
    "scenario_incremental": [
        "scale",
        "name",
        "epochs",
        "decision_match",
        "worker_invariant",
        "carry_cold_restarts",
        "incremental_cold_epochs",
        "carry_certified",
        "carry_certified_perturbed",
        "churn_carry_attempts",
        "warm_mean_decision_seconds",
        "warm_max_decision_seconds",
        "decision_slo_seconds",
        "slo_violations",
        "warm_wall_seconds",
        "cold_wall_seconds",
    ],
}

# Extra per-name columns of the scenario_incremental family: only the
# steady probe isolates a settle-subtracted window, so only it carries the
# steady-window pivot/refactorization telemetry.
SCENARIO_INCREMENTAL_EXTRA = {
    "incremental-steady-n1": [
        "steady_epochs",
        "steady_warm_pivots",
        "steady_cold_pivots",
        "pivot_ratio",
        "steady_warm_refactorizations",
        "steady_cold_refactorizations",
        "cold_mean_decision_seconds",
        "cold_max_decision_seconds",
        "obs_enabled",
        "span_coverage",
        "phase_revalidate_share",
        "phase_forecast_share",
        "phase_solve_share",
        "phase_admit_share",
        "phase_simulate_share",
    ],
}

# Span-derived phase-share columns of the obs-enabled steady probe: each
# is a fraction of the traced `scenario` root span.
PHASE_SHARE_FIELDS = [
    "phase_revalidate_share",
    "phase_forecast_share",
    "phase_solve_share",
    "phase_admit_share",
    "phase_simulate_share",
]

EXPECTED_SCALES = {"small", "paper", "10x_paper", "100x_paper"}

# Wall-clock tolerance for the parallel B&B probe: deterministic rounds do
# the identical LP work at any worker count, so on a single-core machine
# parity is the physical optimum — and four workers time-slicing one core
# pay a real few-percent condvar/scheduling overhead on top (measured
# ~5-7% on the CI container even with a min-of-5 statistic). Multi-core
# machines must still never regress past this.
PARALLEL_SLACK = 1.10

# The sweep fans whole simulations (not node relaxations) across workers;
# on a single-core machine the thread-pool overhead is proportionally
# noisier against the short sweep wall-clock, so its parity tolerance is a
# little wider than the MILP probe's.
SWEEP_SLACK = 1.10

# Warm pivot counts of the PR-4 snapshot (dual devex leaving-row pricing +
# the feasible 10x admission chain). The warm path must never get slower,
# pivot-wise, than the engine that produced these numbers.
PRIOR_WARM_PIVOTS = {
    ("slave_chain", "small"): 13,
    ("slave_chain", "paper"): 165,
    ("slave_chain", "10x_paper"): 222,
    ("slave_chain", "100x_paper"): 59,
    ("benders_bnb", "small"): 21,
    ("benders_bnb", "paper"): 62,
    ("slave_resolve", "small"): 0,
    ("slave_resolve", "paper"): 16,
    ("slave_resolve", "10x_paper"): 24,
    ("slave_resolve", "100x_paper"): 1,
}

# Scales big enough for the Forrest-Tomlin and hyper-sparse machinery to be
# *required* to fire on the warm slave chain: the basis dimension is past
# the hyper-sparse cutoff and the chains run many pivots between
# refactorizations.
FT_HYPERSPARSE_SCALES = {"10x_paper", "100x_paper"}

# The bucketed-Markowitz factor must beat the retained full-rescan baseline
# by at least this wall-clock factor at the 100x-paper dimension (the PR-9
# acceptance bar; the measured value is >100x).
LU_FACTOR_MIN_SPEEDUP_100X = 3.0


FAMILY_SCALES = {
    # benders_bnb intentionally skips the largest scales in the snapshot's
    # criterion pass; the torture chain has its own single scale.
    "slave_chain": EXPECTED_SCALES,
    "benders_bnb": EXPECTED_SCALES - {"10x_paper", "100x_paper"},
    "slave_resolve": EXPECTED_SCALES,
    "lu_factor": EXPECTED_SCALES,
    "milp_parallel": {"paper"},
    "lp_torture": {"torture"},
    "scenario_day": {"paper"},
    "scenario_sweep": {"paper"},
    "scenario_outage": {"paper"},
    "scenario_incremental": {"paper"},
}


def is_fingerprint(fp) -> bool:
    return isinstance(fp, str) and fp.startswith("0x") and len(fp) == 18


def check_warm_pivots(bench, entry, tag):
    """Every family: warm pivots never exceed cold, nor the committed prior."""
    warm_pivots = entry.get("warm_pivots", entry.get("resolve_pivots"))
    if warm_pivots is not None and "cold_pivots" in entry:
        # Per-solve slack: a degenerate-lucky cold start may need zero
        # pivots where the warm re-solve pays one closing pivot.
        slack = entry.get("solves", 1)
        if warm_pivots > entry["cold_pivots"] + slack:
            yield (
                f"{tag}: warm pivots {warm_pivots} exceed "
                f"cold pivots {entry['cold_pivots']} (+{slack} slack)"
            )

    prior = PRIOR_WARM_PIVOTS.get((bench, entry.get("scale")))
    if prior is not None and warm_pivots is not None and warm_pivots > prior:
        yield (
            f"{tag}: warm pivots {warm_pivots} regressed past the "
            f"PR-2 snapshot value {prior} — the long-step/candidate-list "
            "path got slower"
        )


def check_slave_resolve(entry, tag):
    if entry.get("resolve_refactorizations", 1) != 0:
        yield (
            f"{tag}: pure-RHS/bound re-solve performed "
            f"{entry.get('resolve_refactorizations')} refactorizations "
            "(persisted factorization not reused)"
        )
    if entry.get("resolve_factorization_reuses", 0) < 1:
        yield f"{tag}: re-solve did not reuse a factorization"
    if entry.get("resolve_bound_flips", 0) <= 0:
        yield (
            f"{tag}: re-solve performed no bound flips — the "
            "long-step dual ratio test is not engaging on the "
            "bound-native slave"
        )


def check_slave_chain(entry, tag):
    if entry.get("warm_refactorizations", 1 << 30) >= entry.get(
        "cold_refactorizations", 0
    ):
        yield (
            f"{tag}: warm chain refactorized as often as cold "
            f"({entry.get('warm_refactorizations')} vs "
            f"{entry.get('cold_refactorizations')}) — the raised "
            "refactor interval / FT updates are not holding"
        )
    if entry.get("scale") in FT_HYPERSPARSE_SCALES:
        if entry.get("warm_eta_compressions", 0) <= 0:
            yield (
                f"{tag}: no Forrest-Tomlin eta compressions on a "
                "big-scale warm chain — pivots are not being folded "
                "into the factors"
            )
        if entry.get("warm_hypersparse_ftrans", 0) <= 0:
            yield (
                f"{tag}: no hyper-sparse FTRANs on a big-scale warm "
                "chain — the worklist solves are not engaging"
            )


def check_lu_factor(entry, tag):
    if entry.get("dim", 0) <= 0 or entry.get("nnz", 0) <= 0:
        yield f"{tag}: degenerate probe matrix"
    if entry.get("scan_reduction", 0.0) < 1.0:
        yield (
            f"{tag}: bucketed selection examined more candidates "
            f"than the rescan (x{entry.get('scan_reduction')})"
        )
    if (
        entry.get("scale") == "100x_paper"
        and entry.get("time_speedup", 0.0) < LU_FACTOR_MIN_SPEEDUP_100X
    ):
        yield (
            f"{tag}: factor-time speedup x{entry.get('time_speedup')} "
            f"below the x{LU_FACTOR_MIN_SPEEDUP_100X} floor at the "
            "100x-paper dimension"
        )


def check_milp_parallel(entry, tag):
    if entry.get("deterministic") is not True:
        yield (
            f"{tag}: parallel B&B diverged from serial "
            "(objective/admission set mismatch)"
        )
    if entry.get("serial_objective") != entry.get("parallel_objective"):
        yield (
            f"{tag}: serial objective {entry.get('serial_objective')} != "
            f"parallel {entry.get('parallel_objective')}"
        )
    if entry.get("workers", 0) < 2:
        yield f"{tag}: probe ran with fewer than 2 workers"
    serial_s = entry.get("serial_seconds", 0.0)
    parallel_s = entry.get("parallel_seconds", float("inf"))
    if parallel_s > serial_s * PARALLEL_SLACK:
        yield (
            f"{tag}: parallel wall-clock {parallel_s:.6f}s regressed past "
            f"serial {serial_s:.6f}s (x{PARALLEL_SLACK} tolerance)"
        )
    if entry.get("nodes", 0) < 16:
        yield (
            f"{tag}: probe tree has only {entry.get('nodes')} nodes — "
            "too shallow to exercise the round scheduler"
        )


def check_lp_torture(entry, tag):
    if entry.get("bound_flips", 0) <= 0:
        yield f"{tag}: torture chain produced no bound flips"
    if entry.get("warm_starts", 0) <= entry.get("cold_starts", 0):
        yield f"{tag}: torture chains were not warm-started"
    if entry.get("pivots", 0) <= 0:
        yield f"{tag}: torture chain performed no pivots"


def check_scenario_volume(entry, tag):
    """Shared by scenario_day and scenario_sweep: the workload ran at all."""
    if entry.get("arrivals", 0) <= 0:
        yield f"{tag}: workload generated no requests"
    if entry.get("accepted", 0) <= 0:
        yield f"{tag}: scenario admitted no tenants"
    ratio = entry.get("acceptance_ratio", -1.0)
    if not 0.0 <= ratio <= 1.0:
        yield f"{tag}: acceptance ratio {ratio} outside [0, 1]"
    viol = entry.get("violation_rate", -1.0)
    if not 0.0 <= viol <= 1.0:
        yield f"{tag}: violation rate {viol} outside [0, 1]"
    if entry.get("lp_solves", 0) <= 0:
        yield f"{tag}: no epoch solves recorded"


def check_scenario_day(entry, tag):
    yield from check_scenario_volume(entry, tag)
    if entry.get("epochs", 0) < 24:
        yield (
            f"{tag}: probe horizon {entry.get('epochs')} is shorter "
            "than one simulated day"
        )


def check_scenario_sweep(entry, tag):
    yield from check_scenario_volume(entry, tag)
    if entry.get("deterministic") is not True:
        yield (
            f"{tag}: sweep report diverged across worker counts "
            "(bit-identical aggregation broken)"
        )
    if entry.get("scenarios", 0) < 6:
        yield (
            f"{tag}: sweep covers only {entry.get('scenarios')} "
            "scenarios — the named library requires at least 6"
        )
    if entry.get("workers", 0) < 2:
        yield f"{tag}: sweep probe ran with fewer than 2 workers"
    fp = entry.get("fingerprint", "")
    if not is_fingerprint(fp):
        yield f"{tag}: fingerprint '{fp}' is not a 64-bit hex string"
    serial_s = entry.get("serial_seconds", 0.0)
    parallel_s = entry.get("parallel_seconds", float("inf"))
    if parallel_s > serial_s * SWEEP_SLACK:
        yield (
            f"{tag}: parallel sweep {parallel_s:.6f}s regressed past "
            f"serial {serial_s:.6f}s (x{SWEEP_SLACK} tolerance)"
        )


def check_scenario_outage(entry, tag):
    if entry.get("epochs", 0) < 48:
        yield (
            f"{tag}: outage-storm horizon {entry.get('epochs')} is "
            "shorter than two simulated days"
        )
    if entry.get("infra_events", 0) <= 0:
        yield f"{tag}: the storm applied no infrastructure events"
    if entry.get("degraded_epochs", 0) < 1:
        yield (
            f"{tag}: the starved solve budget never bound — "
            "no epoch was degraded"
        )
    if entry.get("evictions", 0) < 1:
        yield (
            f"{tag}: the edge-CU blackout evicted no slices — "
            "the revalidation path went unexercised"
        )
    if entry.get("eviction_penalty", 0.0) <= 0.0:
        yield (
            f"{tag}: evictions booked no SLA-break penalty "
            "(accounting unbalanced)"
        )
    if entry.get("deterministic") is not True:
        yield f"{tag}: the storm did not replay bit-identically"
    fp = entry.get("fingerprint", "")
    if not is_fingerprint(fp):
        yield f"{tag}: fingerprint '{fp}' is not a 64-bit hex string"


def check_incremental_steady(entry, tag):
    # The steady probe runs with observability recording hot: the
    # decision_match / worker_invariant gates of the family are also the
    # tracing-never-perturbs-results oracle, so the probe must actually
    # have traced.
    if entry.get("obs_enabled") is not True:
        yield (
            f"{tag}: steady probe ran without observability "
            "enabled — the obs-on bit-identity oracle is dead"
        )
    if entry.get("span_coverage", 0.0) < 0.8:
        yield (
            f"{tag}: span coverage {entry.get('span_coverage')} "
            "below 0.8 — the trace no longer accounts for the "
            "warm run's wall-clock"
        )
    share_sum = 0.0
    for field in PHASE_SHARE_FIELDS:
        share = entry.get(field, -1.0)
        if not 0.0 <= share <= 1.0:
            yield f"{tag}: {field} {share} outside [0, 1]"
        else:
            share_sum += share
    if share_sum > 1.05:
        yield (
            f"{tag}: phase shares sum to {share_sum:.3f} — "
            "phases overlap or the root span shrank"
        )
    if entry.get("phase_solve_share", 0.0) <= 0.0:
        yield (
            f"{tag}: solve phase share is zero — the epoch "
            "solve span went missing"
        )
    if entry.get("carry_cold_restarts", 1) != 0:
        yield (
            f"{tag}: {entry.get('carry_cold_restarts')} carried "
            "solves failed the uniqueness certificates — the "
            "steady workload has degenerate vetting optima"
        )
    if entry.get("steady_epochs", 0) < 32:
        yield (
            f"{tag}: steady window {entry.get('steady_epochs')} "
            "epochs is too short to dominate the horizon"
        )
    ratio = entry.get("pivot_ratio", 0.0)
    if ratio < 3.0:
        yield (
            f"{tag}: steady-window pivot reduction x{ratio:.2f} is "
            "below the 3x O(churn) floor"
        )
    if entry.get("steady_warm_refactorizations", 1) != 0:
        yield (
            f"{tag}: {entry.get('steady_warm_refactorizations')} "
            "refactorizations on no-churn epochs — the identity "
            "basis remap lost the persisted factorization"
        )


def check_incremental_degenerate(entry, tag):
    if entry.get("decision_slo_seconds") is None:
        yield (
            f"{tag}: the degenerate probe must declare a "
            "decision-latency SLO"
        )
    if entry.get("carry_certified_perturbed", 0) < 1:
        yield (
            f"{tag}: no steady epoch certified through the "
            "perturbation certificate — the degenerate-optimum "
            "carry is back to always-cold"
        )
    if entry.get("churn_carry_attempts", 0) < 1:
        yield f"{tag}: no churn epoch attempted the first-shed carry"
    if entry.get("carry_cold_restarts", 1) >= entry.get("carry_certified", 0):
        yield (
            f"{tag}: cold restarts "
            f"{entry.get('carry_cold_restarts')} not reduced below "
            f"certifications {entry.get('carry_certified')}"
        )


INCREMENTAL_PROBE_CHECKS = {
    "incremental-steady-n1": check_incremental_steady,
    "incremental-degenerate-n1": check_incremental_degenerate,
}


def check_scenario_incremental(entry, tag):
    name = entry.get("name", "")
    for field in SCENARIO_INCREMENTAL_EXTRA.get(name, []):
        if field not in entry:
            yield f"{tag}: missing field '{field}' for '{name}'"
    if entry.get("decision_match") is not True:
        yield (
            f"{tag}: incremental decisions diverged from the "
            "from-scratch driver (bit-identity contract broken)"
        )
    if entry.get("worker_invariant") is not True:
        yield f"{tag}: incremental run diverged across worker counts"
    if entry.get("incremental_cold_epochs", 1) != 0:
        yield (
            f"{tag}: a fault-free steady run fell back to "
            f"{entry.get('incremental_cold_epochs')} cold epochs"
        )
    slo = entry.get("decision_slo_seconds")
    if slo is not None:
        if entry.get("slo_violations", 1) != 0:
            yield (
                f"{tag}: {entry.get('slo_violations')} epochs broke "
                f"the {slo}s decision-latency SLO"
            )
        if entry.get("warm_max_decision_seconds", float("inf")) > slo:
            yield (
                f"{tag}: max decision latency "
                f"{entry.get('warm_max_decision_seconds')}s exceeds "
                f"the {slo}s SLO"
            )
    probe_check = INCREMENTAL_PROBE_CHECKS.get(name)
    if probe_check is not None:
        yield from probe_check(entry, tag)


# Bench family -> its probe-specific gates (run after the required-field
# and warm-pivot checks every family shares).
FAMILY_CHECKS = {
    "slave_chain": check_slave_chain,
    "slave_resolve": check_slave_resolve,
    "lu_factor": check_lu_factor,
    "milp_parallel": check_milp_parallel,
    "lp_torture": check_lp_torture,
    "scenario_day": check_scenario_day,
    "scenario_sweep": check_scenario_sweep,
    "scenario_outage": check_scenario_outage,
    "scenario_incremental": check_scenario_incremental,
}


def check_entry(entry, seen_scales):
    bench = entry.get("bench")
    tag = f"{bench}/{entry.get('scale', '?')}"
    if bench not in REQUIRED_FIELDS:
        yield f"{tag}: unknown bench family"
        return
    seen_scales[bench].add(entry.get("scale"))
    for field in REQUIRED_FIELDS[bench]:
        if field not in entry:
            yield f"{tag}: missing field '{field}'"
    yield from check_warm_pivots(bench, entry, tag)
    family_check = FAMILY_CHECKS.get(bench)
    if family_check is not None:
        yield from family_check(entry, tag)


def main() -> int:
    try:
        entries = json.loads(SNAPSHOT.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot load {SNAPSHOT}: {exc}", file=sys.stderr)
        return 1
    if not isinstance(entries, list) or not entries:
        print("snapshot must be a non-empty JSON array", file=sys.stderr)
        return 1

    errors = []
    seen_scales = {name: set() for name in REQUIRED_FIELDS}
    for entry in entries:
        errors.extend(check_entry(entry, seen_scales))

    # Every family must cover every scale it is expected at.
    for bench, scales in seen_scales.items():
        missing = FAMILY_SCALES[bench] - scales
        if missing:
            errors.append(f"{bench}: missing scales {sorted(missing)}")

    if errors:
        for e in errors:
            print(f"BENCH_solvers.json sanity: {e}", file=sys.stderr)
        return 1
    print(f"BENCH_solvers.json sanity: {len(entries)} entries OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
