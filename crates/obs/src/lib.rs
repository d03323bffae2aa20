//! `ovnes-obs` — the workspace observability substrate.
//!
//! Three pieces, all hand-rolled (this container is offline; no `tracing`
//! or `prometheus`):
//!
//! * [`trace`] — a hierarchical span tracer. `span!("benders_round",
//!   round = k)` returns an RAII guard; spans nest through a thread-local
//!   stack, per-worker buffers are merged **deterministically by folded
//!   path** at flush, and [`Trace`] exports both a `flamegraph.pl`
//!   folded-stack file and a JSONL event journal.
//! * [`metrics`] — a registry of named counters and gauges, and
//!   log-linear (HDR-style) [`Histogram`]s that report p50/p90/p99/p999.
//! * [`report`] — tiny counter formatters so every binary renders
//!   `LpStats`-style counter sets from one source of truth.
//!
//! # Zero-cost when off, and the fingerprint invariant
//!
//! All span recording sits behind the process-global [`enabled`]
//! flag (env `OVNES_OBS`, off by default): a disabled span site costs one
//! relaxed atomic load and constructs an inert guard. The one exception
//! is [`trace::phase`], the orchestrator's phase span, which reads the
//! clock either way (two reads per phase) so that every epoch knows its
//! phase durations; off, it records nothing either. Deterministic
//! counter-only metrics may feed fingerprints; **wall-clock timing never
//! does** — `ScenarioReport::fingerprint()` / `decision_fingerprint()`
//! and the bit-identical-at-any-worker-count guarantee are unaffected by
//! whether observability is on, off, or half-sampled.
//!
//! # Span naming convention
//!
//! Span names are short, static, lowercase `snake_case` atoms; the folded
//! path joins them with `;` (`scenario;epoch;solve;benders_round`).
//! Layer prefixes keep the namespace flat: `lp_*` for simplex internals
//! (`lp_factor`, `lp_ftran`, `lp_btran`, `lp_pricing`), `milp_*` for the
//! branch-and-bound tree (`milp_solve`, `milp_node`), `kac_*` for the
//! heuristic vet chain, bare nouns for orchestrator phases (`generate`,
//! `revalidate`, `forecast`, `solve`, `admit`, `simulate`,
//! `account`). Dynamic data
//! (round numbers, node ids) goes in the span attribute, never the name,
//! so folded paths stay low-cardinality.

#![deny(unreachable_pub)]
#![cfg_attr(
    not(test),
    deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)
)]

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

pub mod metrics;
pub mod report;
pub mod trace;

pub use metrics::{Histogram, Registry};
pub use trace::{FoldedCell, Trace};

const STATE_UNINIT: u8 = 0;
const STATE_OFF: u8 = 1;
const STATE_ON: u8 = 2;

static STATE: AtomicU8 = AtomicU8::new(STATE_UNINIT);

/// Process-global observability configuration. The env var `OVNES_OBS`
/// is the canonical switch; harnesses and tests may install a config
/// programmatically (see [`ObsConfig::install`] / [`set_enabled`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObsConfig {
    /// Master switch for every wall-clock capture site in the workspace.
    pub enabled: bool,
}

impl ObsConfig {
    /// Read the configuration from the environment. `OVNES_OBS` unset,
    /// empty, `0`, `off`, or `false` ⇒ disabled; anything else ⇒ enabled.
    /// The variable is read once per process.
    pub fn from_env() -> Self {
        static ENV: OnceLock<bool> = OnceLock::new();
        let enabled = *ENV.get_or_init(|| {
            std::env::var("OVNES_OBS").is_ok_and(|v| {
                !(v.is_empty()
                    || v == "0"
                    || v.eq_ignore_ascii_case("off")
                    || v.eq_ignore_ascii_case("false"))
            })
        });
        ObsConfig { enabled }
    }

    /// Make this configuration the process-global one.
    pub fn install(self) {
        set_enabled(self.enabled);
    }
}

/// Is observability on? One relaxed atomic load on the hot path; the
/// first call lazily consults `OVNES_OBS`.
#[inline]
pub fn enabled() -> bool {
    match STATE.load(Ordering::Relaxed) {
        STATE_ON => true,
        STATE_OFF => false,
        _ => init_from_env(),
    }
}

#[cold]
fn init_from_env() -> bool {
    let on = ObsConfig::from_env().enabled;
    STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
    on
}

/// Programmatically force observability on or off (overrides the env).
/// Used by harnesses that want a traced run in an otherwise-untraced
/// process, and by the guard tests that must prove the off state.
pub fn set_enabled(on: bool) {
    STATE.store(if on { STATE_ON } else { STATE_OFF }, Ordering::Relaxed);
}
